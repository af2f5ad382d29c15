"""Permutations, the ranking of point sets, and inflation.

A permutation of length n is a sequence containing each value 1..n exactly
once.  Read as the point diagram {(i, p_i)}, it is the unique permutation
order-isomorphic to any point set with the same relative order:
:func:`reduce_coordinates` ranks such a set, given as (x, y) pairs, back into
a permutation, resolving tied coordinates the way an infinitesimal clockwise
rotation would.

All values in this module are immutable and safe to share between threads.
"""
from __future__ import annotations

from array import array
from typing import Iterable, Iterator, Sequence

from permpat import backend


class Permutation:
    """An immutable permutation of 1..n in one-line notation.

    The values are stored once, packed in an ``array('l')`` that the kernels
    read in place; ``values`` builds a tuple from it on each read.

    >>> p = Permutation((2, 4, 1, 5, 3))
    >>> len(p), p[0], p.values
    (5, 2, (2, 4, 1, 5, 3))
    """

    __slots__ = ("_packed",)

    def __init__(self, values: Iterable[int]):
        # array() fills from a list or tuple at its length in one step, but
        # grows one item at a time from any other iterable
        seq = values if isinstance(values, (list, tuple)) else list(values)
        try:
            packed = array("l", seq)  # TypeError for floats, strings
        except OverflowError:
            raise ValueError(_OUTSIDE_C_LONG) from None
        self._adopt(packed)

    def _adopt(self, packed: array) -> None:
        """Take packed, which nothing else holds, as this permutation's values."""
        if not backend.is_permutation(packed):
            raise ValueError(_bijection_error(packed))
        object.__setattr__(self, "_packed", packed)

    @property
    def values(self) -> tuple[int, ...]:
        return tuple(self._packed)

    @property
    def packed(self) -> array:
        """The values as the ``array('l')`` they are stored in, not a copy.

        For reading only, as by the kernels: a change to it would change
        this permutation.
        """
        return self._packed

    @classmethod
    def parse(cls, text: str) -> "Permutation":
        """Parse one-line notation.

        Whitespace-separated integers are the canonical form.  A single
        all-digit token of length > 1 is read as a digit string ("24153"),
        which is only expressible for lengths up to 9.
        """
        return cls._parse(text)[0]

    @classmethod
    def parse_with_text(cls, text: str) -> tuple["Permutation", str]:
        """``parse(text)`` and the result's ``to_text()``, which is text
        itself, less one final newline, when text is already in that form."""
        perm, canonical = cls._parse(text)
        return perm, text.removesuffix("\n") if canonical else perm.to_text()

    @classmethod
    def _parse(cls, text: str) -> tuple["Permutation", bool]:
        """parse(text), and whether text, less one final newline, is the
        result's to_text()."""
        # strip() copies text only when whitespace surrounds it, and
        # isdigit() stops at the first separator; split(None, 1) would copy
        # all of a long text after its first token
        token = text.strip()
        if len(token) > 1 and token.isdigit():
            return cls(int(ch) for ch in token), False
        try:
            packed, canonical = backend.parse_values(text)
        except OverflowError:
            raise ValueError(_OUTSIDE_C_LONG) from None
        perm = cls.__new__(cls)
        perm._adopt(packed)
        return perm, canonical

    @classmethod
    def increasing(cls, n: int) -> "Permutation":
        return cls(range(1, n + 1))

    @classmethod
    def decreasing(cls, n: int) -> "Permutation":
        return cls(range(n, 0, -1))

    def to_text(self) -> str:
        return backend.format_values(self._packed)

    def reverse(self) -> "Permutation":
        return Permutation(reversed(self._packed))

    def complement(self) -> "Permutation":
        n = len(self._packed)
        return Permutation(n + 1 - v for v in self._packed)

    def __len__(self) -> int:
        return len(self._packed)

    def __iter__(self) -> Iterator[int]:
        return iter(self._packed)

    def __getitem__(self, position: int | slice) -> int | tuple[int, ...]:
        if isinstance(position, slice):
            return tuple(self._packed[position])
        return self._packed[position]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Permutation):
            return NotImplemented
        return self._packed == other._packed

    def __hash__(self) -> int:
        return hash(self.values)

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"Permutation({self.values!r})"

    def __setattr__(self, name, value):
        raise AttributeError("Permutation is immutable")


_OUTSIDE_C_LONG = "not a bijection on 1..n: a value lies outside the range of a C long"


def _bijection_error(values: Sequence[int]) -> str:
    """Why values is not a bijection on 1..n, naming only its first value
    that is out of range or repeats an earlier one."""
    n = len(values)
    seen = bytearray(n + 1)
    for position, v in enumerate(values, start=1):
        if not 1 <= v <= n or seen[v]:
            break
        seen[v] = 1
    reason = "repeats" if 1 <= v <= n else "is out of range"
    return f"not a bijection on 1..{n}: value {v} at position {position} {reason}"


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
        out.extend(map(offsets[pos].__add__, block.packed))
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
    return Permutation(v - (v > first) for v in tau.packed[1:])
