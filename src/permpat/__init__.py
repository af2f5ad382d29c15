"""Permutation pattern toolkit.

Detection and exact counting of permutation patterns (including
left-aligned variants), a grid-gadget reduction from partitioned subgraph
isomorphism to left-aligned matching, a gap-producing inflation for
promise counting, and a detection-based multiplicative approximation --
each cross-checked against brute-force oracles at small scale.
"""
from permpat.backend import BACKEND_NAME
from permpat.core import (
    Permutation,
    colayered,
    deflate,
    delete_leftmost,
    inflate,
    layered,
    standardize,
)
from permpat.gap import (
    GapInstance,
    GapParams,
    build_core,
    build_gap_instance,
    check_bounds,
    copies_touching_initial_block,
    decide_via_approx,
    gap_params,
    verify_core,
)
from permpat.matching import (
    approx_count,
    contains,
    contains_left_aligned,
    count_copies,
    count_copies_naive,
    count_inversions,
    count_left_aligned,
)
from permpat.psi import (
    Graph,
    PsiGadget,
    PsiInstance,
    RankTable,
    ranks,
    reduce_psi,
    solve_psi_bruteforce,
    verify_reduction,
)

__version__ = "0.1.0"

__all__ = [
    "BACKEND_NAME",
    "GapInstance",
    "GapParams",
    "Graph",
    "Permutation",
    "PsiGadget",
    "PsiInstance",
    "RankTable",
    "approx_count",
    "build_core",
    "build_gap_instance",
    "check_bounds",
    "colayered",
    "contains",
    "contains_left_aligned",
    "copies_touching_initial_block",
    "count_copies",
    "count_copies_naive",
    "count_inversions",
    "count_left_aligned",
    "decide_via_approx",
    "deflate",
    "delete_leftmost",
    "gap_params",
    "inflate",
    "layered",
    "ranks",
    "reduce_psi",
    "solve_psi_bruteforce",
    "standardize",
    "verify_core",
    "verify_reduction",
]
