"""Permutations as sequences and as planar point diagrams.

A permutation of length n is a sequence containing each value 1..n exactly
once.  Permutations are viewed interchangeably as sequences and as point
diagrams {(i, p_i)}; points with tied coordinates are turned back into
permutations by :func:`reduce_coordinates`, which resolves ties the way an
infinitesimal clockwise rotation would.

All values in this module are immutable and safe to share between threads.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

ROLES = frozenset({"anchor", "row_pair", "col_pair", "diagonal", "cell", "plain"})


class Permutation:
    """An immutable permutation of 1..n in one-line notation.

    >>> p = Permutation((2, 4, 1, 5, 3))
    >>> len(p), p[0], p.values
    (5, 2, (2, 4, 1, 5, 3))
    """

    __slots__ = ("_values",)

    def __init__(self, values: Iterable[int]):
        vals = tuple(int(v) for v in values)
        n = len(vals)
        if sorted(vals) != list(range(1, n + 1)):
            raise ValueError(f"not a bijection on 1..{n}: {vals}")
        object.__setattr__(self, "_values", vals)

    @property
    def values(self) -> tuple[int, ...]:
        return self._values

    @classmethod
    def parse(cls, text: str) -> "Permutation":
        """Parse one-line notation.

        Whitespace-separated integers are the canonical form.  A single
        all-digit token of length > 1 is read as a digit string ("24153"),
        which is only expressible for lengths up to 9.
        """
        tokens = text.split()
        if not tokens:
            return cls(())
        if len(tokens) == 1 and tokens[0].isdigit() and len(tokens[0]) > 1:
            return cls(int(ch) for ch in tokens[0])
        return cls(int(t) for t in tokens)

    @classmethod
    def increasing(cls, n: int) -> "Permutation":
        return cls(range(1, n + 1))

    @classmethod
    def decreasing(cls, n: int) -> "Permutation":
        return cls(range(n, 0, -1))

    def to_text(self) -> str:
        return " ".join(str(v) for v in self._values)

    def reverse(self) -> "Permutation":
        return Permutation(reversed(self._values))

    def complement(self) -> "Permutation":
        n = len(self._values)
        return Permutation(n + 1 - v for v in self._values)

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self) -> Iterator[int]:
        return iter(self._values)

    def __getitem__(self, position: int) -> int:
        return self._values[position]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Permutation):
            return NotImplemented
        return self._values == other._values

    def __hash__(self) -> int:
        return hash(self._values)

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"Permutation({self._values!r})"

    def __setattr__(self, name, value):
        raise AttributeError("Permutation is immutable")


@dataclass(frozen=True)
class Point:
    """A labeled planar point with integer coordinates."""

    x: int
    y: int
    role: str = "plain"

    def __post_init__(self):
        if self.role not in ROLES:
            raise ValueError(f"unknown point role: {self.role!r}")


class PointSet:
    """A finite set of distinct labeled points.

    Two points may share a single coordinate but never both; such ties are
    resolved by :func:`reduce_coordinates`.
    """

    __slots__ = ("_points",)

    def __init__(self, points: Iterable[Point]):
        pts = tuple(points)
        seen = set()
        for p in pts:
            if (p.x, p.y) in seen:
                raise ValueError("degenerate point set")
            seen.add((p.x, p.y))
        object.__setattr__(self, "_points", pts)

    @property
    def points(self) -> tuple[Point, ...]:
        return self._points

    def with_role(self, role: str) -> tuple[Point, ...]:
        return tuple(p for p in self._points if p.role == role)

    def __len__(self) -> int:
        return len(self._points)

    def __iter__(self) -> Iterator[Point]:
        return iter(self._points)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PointSet):
            return NotImplemented
        return sorted((p.x, p.y, p.role) for p in self._points) == sorted(
            (p.x, p.y, p.role) for p in other._points
        )

    def __repr__(self) -> str:
        return f"PointSet({len(self._points)} points)"

    def __setattr__(self, name, value):
        raise AttributeError("PointSet is immutable")

    def to_json_obj(self) -> dict:
        return {"points": [{"x": p.x, "y": p.y, "role": p.role} for p in self._points]}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "PointSet":
        return cls(
            Point(int(rec["x"]), int(rec["y"]), rec.get("role", "plain"))
            for rec in obj["points"]
        )


def diagram(p: Permutation) -> PointSet:
    """The diagram {(i, p_i)} of a permutation, with all roles plain.

    >>> [(pt.x, pt.y) for pt in diagram(Permutation.parse("24153"))]
    [(1, 2), (2, 4), (3, 1), (4, 5), (5, 3)]
    """
    return PointSet(Point(i, v) for i, v in enumerate(p.values, start=1))


def reduce_coordinates(pairs: Sequence[tuple]) -> Permutation:
    """The unique permutation order-isomorphic to points given as (x, y) pairs.

    Tied coordinates are resolved as the limit of an infinitesimal
    clockwise rotation: horizontal order is ascending (x, y), vertical
    order is ascending (y, -x).  Two equal pairs raise ValueError.

    >>> reduce_coordinates([(1, 1), (2, 1)])
    Permutation((2, 1))
    """
    by_y = sorted((y, -x) for x, y in pairs)
    value = {(-neg_x, y): rank for rank, (y, neg_x) in enumerate(by_y, start=1)}
    if len(value) != len(pairs):
        raise ValueError("degenerate point set")
    return Permutation(value[pair] for pair in sorted(pairs))


def reduce_points(points: PointSet | Iterable[Point]) -> Permutation:
    """:func:`reduce_coordinates` of the points' (x, y) pairs.

    >>> reduce_points([Point(1, 1), Point(2, 1)])
    Permutation((2, 1))
    """
    return reduce_coordinates([(p.x, p.y) for p in points])


def standardize(values: Sequence[int]) -> Permutation:
    """The permutation order-isomorphic to a sequence of distinct integers.

    >>> standardize((4, 1, 5, 3))
    Permutation((3, 1, 4, 2))
    """
    if len(set(values)) != len(values):
        raise ValueError("values are not distinct")
    rank = {v: r for r, v in enumerate(sorted(values), start=1)}
    return Permutation(rank[v] for v in values)


def inflate(sigma: Permutation, blocks: Sequence[Permutation]) -> Permutation:
    """Replace each point of sigma by a block permutation.

    Block i occupies consecutive positions; its value range is placed
    according to the rank of sigma_i, weighted by block sizes.

    >>> inflate(Permutation.parse("132"), [Permutation.parse(s) for s in ("21", "1", "123")])
    Permutation((2, 1, 6, 3, 4, 5))
    """
    if len(blocks) != len(sigma):
        raise ValueError(f"expected {len(sigma)} blocks, got {len(blocks)}")
    if any(len(b) == 0 for b in blocks):
        raise ValueError("empty block")
    offsets = [0] * len(sigma)
    acc = 0
    for pos in sorted(range(len(sigma)), key=lambda i: sigma[i]):
        offsets[pos] = acc
        acc += len(blocks[pos])
    out: list[int] = []
    for pos, block in enumerate(blocks):
        out.extend(offsets[pos] + v for v in block.values)
    return Permutation(out)


def deflate(p: Permutation, block_sizes: Sequence[int]) -> Permutation:
    """Collapse consecutive blocks of the given sizes back to single points.

    Each block is represented by its first element; the result is the
    standardization of those representatives.  Inverse of :func:`inflate`
    on its image:  deflate(inflate(sigma, blocks), sizes) == sigma.
    """
    if any(s < 1 for s in block_sizes):
        raise ValueError("zero size")
    if sum(block_sizes) != len(p):
        raise ValueError("block sizes do not cover the permutation")
    reps = []
    pos = 0
    for s in block_sizes:
        reps.append(p[pos])
        pos += s
    return standardize(reps)


def layered(layer_sizes: Sequence[int]) -> Permutation:
    """The layered permutation with the given layer lengths.

    Equals the inflation of an increasing permutation by decreasing blocks.

    >>> layered([2, 1, 3])
    Permutation((2, 1, 3, 6, 5, 4))
    """
    if any(s < 1 for s in layer_sizes):
        raise ValueError("zero size")
    out: list[int] = []
    acc = 0
    for s in layer_sizes:
        out.extend(range(acc + s, acc, -1))
        acc += s
    return Permutation(out)


def colayered(run_sizes: Sequence[int]) -> Permutation:
    """The co-layered permutation with the given increasing-run lengths.

    Equals the inflation of a decreasing permutation by increasing blocks.

    >>> colayered([2, 2])
    Permutation((3, 4, 1, 2))
    """
    if any(s < 1 for s in run_sizes):
        raise ValueError("zero size")
    total = sum(run_sizes)
    out: list[int] = []
    below = total
    for s in run_sizes:
        below -= s
        out.extend(range(below + 1, below + s + 1))
    return Permutation(out)


def delete_leftmost(tau: Permutation) -> Permutation:
    """Remove the leftmost element and re-rank the remainder.

    >>> delete_leftmost(Permutation.parse("24153"))
    Permutation((3, 1, 4, 2))
    """
    if len(tau) == 0:
        raise ValueError("empty permutation")
    first = tau[0]
    return Permutation(v - (v > first) for v in tau.values[1:])
