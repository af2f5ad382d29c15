"""Reduction from partitioned subgraph isomorphism (PSI) to left-aligned
pattern matching, with a brute-force PSI solver as correctness oracle.

A PSI instance consists of graphs G (k vertices) and H (n vertices) plus a
coloring of H's vertices by G's vertices; it asks for a color-respecting
mapping of G's vertices into H that sends every G-edge to an H-edge.

The reduction encodes both adjacency structures as planar point grids and
reads them back as permutations.  Each grid carries two extreme "anchor"
points, one "row pair" and one "column pair" per vertex delimiting a grid
row/column, one point per diagonal cell, and one point per cell of each
encoded edge.  In the text grid, vertices of H are laid out by rank (their
position in the color-class order) on one axis and by reverse rank on the
other, which makes each color class co-layered and forces any left-aligned
embedding of the pattern grid to pick exactly one vertex per color.
"""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from permpat.core import Permutation, reduce_coordinates
from permpat.matching import contains_left_aligned

DEFAULT_ORACLE_TEXT_CAP = 64


@dataclass(frozen=True)
class Graph:
    """A simple loopless undirected graph on vertices 1..vertex_count."""

    vertex_count: int
    edges: frozenset[tuple[int, int]]

    def __init__(self, vertex_count: int, edges: Iterable[Sequence[int]] = ()):
        if vertex_count < 0:
            raise ValueError("negative vertex count")
        normalized = set()
        for e in edges:
            a, b = int(e[0]), int(e[1])
            if a == b:
                raise ValueError(f"loop at vertex {a}")
            if not (1 <= a <= vertex_count and 1 <= b <= vertex_count):
                raise ValueError(f"edge ({a},{b}) outside 1..{vertex_count}")
            normalized.add((min(a, b), max(a, b)))
        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "edges", frozenset(normalized))

    def has_edge(self, a: int, b: int) -> bool:
        return (min(a, b), max(a, b)) in self.edges

    @property
    def edge_count(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class PsiInstance:
    """Graphs G and H plus a coloring of H's vertices by G's vertices."""

    g: Graph
    h: Graph
    coloring: tuple[int, ...]

    def __init__(self, g: Graph, h: Graph, coloring: Iterable[int]):
        chi = tuple(int(c) for c in coloring)
        if len(chi) != h.vertex_count:
            raise ValueError("coloring length must equal |V_H|")
        if any(not (1 <= c <= g.vertex_count) for c in chi):
            raise ValueError("color outside 1..|V_G|")
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "coloring", chi)

    def color_classes(self) -> list[list[int]]:
        """H-vertices per color, ascending vertex id; index 0 is color 1."""
        classes: list[list[int]] = [[] for _ in range(self.g.vertex_count)]
        for v in range(1, self.h.vertex_count + 1):
            classes[self.coloring[v - 1] - 1].append(v)
        return classes

    def bichromatic_edge_count(self) -> int:
        return sum(
            1 for (u, w) in self.h.edges if self.coloring[u - 1] != self.coloring[w - 1]
        )

    @classmethod
    def from_json_obj(cls, obj: dict) -> "PsiInstance":
        g = Graph(int(obj["G"]["k"]), obj["G"].get("edges", ()))
        h = Graph(int(obj["H"]["n"]), obj["H"].get("edges", ()))
        return cls(g, h, obj["chi"])

    def to_json_obj(self) -> dict:
        return {
            "G": {"k": self.g.vertex_count, "edges": sorted(map(list, self.g.edges))},
            "H": {"n": self.h.vertex_count, "edges": sorted(map(list, self.h.edges))},
            "chi": list(self.coloring),
        }

    @classmethod
    def from_json(cls, text: str) -> "PsiInstance":
        return cls.from_json_obj(json.loads(text))


@dataclass(frozen=True)
class RankTable:
    """Rank and reverse rank of every H-vertex.

    Within each color class (ordered by ascending vertex id), the j-th of
    n_i vertices has rank (previous class sizes) + j - 1 and reverse rank
    (previous class sizes) + n_i - j.  Ranks and reverse ranks are each a
    permutation of 0..n-1.
    """

    rank: tuple[int, ...]
    reverse_rank: tuple[int, ...]


def ranks(instance: PsiInstance) -> RankTable:
    """Rank table of an instance, ordering each color class by vertex id."""
    n = instance.h.vertex_count
    rank = [0] * n
    reverse = [0] * n
    before = 0
    for members in instance.color_classes():
        size = len(members)
        for j, v in enumerate(members, start=1):
            rank[v - 1] = before + j - 1
            reverse[v - 1] = before + size - j
        before += size
    return RankTable(rank=tuple(rank), reverse_rank=tuple(reverse))


def _grid_points(
    unit_count: int,
    units: Sequence[tuple[int, int]],
    cell_rank_pairs: Iterable[tuple[int, int]],
) -> list[tuple[int, int, str]]:
    """Shared grid builder: the (x, y, role) tuples of one grid.

    ``units`` holds one (rank, reverse_rank) pair per encoded vertex, both
    1-based and each a permutation of 1..unit_count; ``cell_rank_pairs``
    holds ordered rank pairs (a, a') that receive an off-diagonal cell
    point.  With m = unit_count, the grid occupies coordinates 1..5m+2:
    anchors at (1, 2m+2) and (2m+2, 1); for a unit with ranks (a, b) a row
    pair {(2b, 3a+2m), (2b+1, 3a+2m+2)}, a column pair (its transpose)
    {(3a+2m, 2b), (3a+2m+2, 2b+1)} and a diagonal cell point
    (3a+2m+1, 3a+2m+1); and a cell point (3a+2m+1, 3a'+2m+1) per rank pair.
    The whole set is symmetric under transposition.
    """
    m = unit_count
    c = 2 * m
    pts = [(1, 2 * m + 2, "anchor"), (2 * m + 2, 1, "anchor")]
    for a, b in units:
        pts.append((2 * b, 3 * a + c, "row_pair"))
        pts.append((2 * b + 1, 3 * a + c + 2, "row_pair"))
        pts.append((3 * a + c, 2 * b, "col_pair"))
        pts.append((3 * a + c + 2, 2 * b + 1, "col_pair"))
        pts.append((3 * a + c + 1, 3 * a + c + 1, "diagonal"))
    for a1, a2 in cell_rank_pairs:
        pts.append((3 * a1 + c + 1, 3 * a2 + c + 1, "cell"))
        pts.append((3 * a2 + c + 1, 3 * a1 + c + 1, "cell"))
    return pts


def pattern_length(g: Graph) -> int:
    """Length of the pattern that encodes G, 2 + 5k + 2|E_G|, without building it."""
    return 2 + 5 * g.vertex_count + 2 * g.edge_count


def text_length(instance: PsiInstance) -> int:
    """Length of the text that encodes H, 2 + 5n + 2*m_bi, without building it;
    m_bi counts H-edges with differently colored endpoints."""
    return 2 + 5 * instance.h.vertex_count + 2 * instance.bichromatic_edge_count()


def _pattern_grid(g: Graph) -> list[tuple[int, int, str]]:
    """Grid encoding of G: vertex i has rank i on both axes."""
    k = g.vertex_count
    return _grid_points(k, [(i, i) for i in range(1, k + 1)], sorted(g.edges))


def _text_grid(instance: PsiInstance) -> list[tuple[int, int, str]]:
    """Grid encoding of H laid out by color-class ranks; an H-edge with
    equally colored endpoints contributes no cell points."""
    table = ranks(instance)
    n = instance.h.vertex_count
    chi = instance.coloring
    units = [(table.rank[v] + 1, table.reverse_rank[v] + 1) for v in range(n)]
    cells = sorted(
        (table.rank[u - 1] + 1, table.rank[w - 1] + 1)
        for (u, w) in instance.h.edges
        if chi[u - 1] != chi[w - 1]
    )
    return _grid_points(n, units, cells)


def _point_records(grid: list[tuple[int, int, str]]) -> list[dict]:
    return [{"x": x, "y": y, "role": role} for x, y, role in grid]


@dataclass(frozen=True)
class PsiGadget:
    """The reduced pattern and text of a PSI instance.

    The labeled grids behind them are rebuilt from the instance when the
    gadget is dumped by ``to_json_obj``.
    """

    instance: PsiInstance
    pattern: Permutation
    text: Permutation
    notes: tuple[str, ...] = ()

    def to_json_obj(self) -> dict:
        return {
            "pattern_points": _point_records(_pattern_grid(self.instance.g)),
            "text_points": _point_records(_text_grid(self.instance)),
            "pattern": self.pattern.to_text(),
            "text": self.text.to_text(),
            "notes": list(self.notes),
        }


def reduce_psi(instance: PsiInstance) -> PsiGadget:
    """Build both grids and reduce them to permutations.

    The pattern has length 2 + 5k + 2|E_G| and the text length
    2 + 5n + 2*m_bi, where m_bi counts H-edges with differently colored
    endpoints.
    """
    notes = ()
    if instance.g.edge_count != instance.g.vertex_count:
        notes = ("pattern graph has |E| != |V|",)
    return PsiGadget(
        instance=instance,
        pattern=reduce_coordinates([p[:2] for p in _pattern_grid(instance.g)]),
        text=reduce_coordinates([p[:2] for p in _text_grid(instance)]),
        notes=notes,
    )


def solve_psi_bruteforce(instance: PsiInstance) -> Optional[tuple[int, ...]]:
    """Exhaustive color-respecting search.

    Returns a witness tuple (phi(1), ..., phi(k)) with phi(i) colored i and
    every G-edge mapped onto an H-edge, or None.  Enumerates the product of
    the color classes; an empty class means no mapping exists.
    """
    classes = instance.color_classes()
    g_edges = instance.g.edges
    h = instance.h
    for phi in itertools.product(*classes):
        if all(h.has_edge(phi[a - 1], phi[b - 1]) for (a, b) in g_edges):
            return phi
    return None


@dataclass(frozen=True)
class ReductionReport:
    psi_answer: bool
    ppm_answer: bool
    agree: bool
    pattern_length: int
    text_length: int
    witness: Optional[tuple[int, ...]]

    def to_json_obj(self) -> dict:
        return {
            "psi_answer": self.psi_answer,
            "ppm_answer": self.ppm_answer,
            "agree": self.agree,
            "pattern_length": self.pattern_length,
            "text_length": self.text_length,
            "witness": None if self.witness is None else list(self.witness),
        }


def verify_reduction(
    instance: PsiInstance, max_text_len: int = DEFAULT_ORACLE_TEXT_CAP
) -> ReductionReport:
    """Run both oracles on an instance and report whether they agree.

    The PSI side uses the brute-force solver; the pattern side runs
    left-aligned detection on the reduced gadget.  Instances whose gadget
    pattern or text would be longer than ``max_text_len`` are rejected
    before anything is built.
    """
    if max(pattern_length(instance.g), text_length(instance)) > max_text_len:
        raise ValueError("instance too large for oracle verification")
    gadget = reduce_psi(instance)
    witness = solve_psi_bruteforce(instance)
    psi_answer = witness is not None
    ppm_answer = contains_left_aligned(gadget.pattern, gadget.text)
    return ReductionReport(
        psi_answer=psi_answer,
        ppm_answer=ppm_answer,
        agree=psi_answer == ppm_answer,
        pattern_length=len(gadget.pattern),
        text_length=len(gadget.text),
        witness=witness,
    )
