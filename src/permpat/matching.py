"""Pattern detection, exact and approximate counting, left-aligned variants.

A copy of a pattern pi in a text tau is an index-increasing subsequence of
tau order-isomorphic to pi; the tuple of (1-based) text positions is the
embedding.  A copy is left-aligned when it uses the first text position.

Counting functions return exact Python integers (never floats); counts can
exceed machine words.  The hot search loops live in the kernel backend; the
naive subset-enumeration counter is kept separate as an independent oracle.
"""
from __future__ import annotations

from itertools import combinations
from math import comb, isqrt

from permpat import backend
from permpat.core import Permutation, delete_leftmost

BigCount = int

# Most bits any power in gap.check_bounds, a BASE^EXP operand or an
# approx_count estimate may have.  The largest power in acceptance criterion
# 8 has 335,650 bits; 2^20 leaves about 3x headroom while keeping every
# check under a second.
POWER_BIT_BUDGET = 1 << 20

# Most k-subsets of text positions count_copies_naive tries: 6-8 s at
# 0.6-0.8 us per subset (k = 2 and 4, x86-64).
NAIVE_SUBSET_BUDGET = 10**7


def require_power_within_budget(base: int, exp: int) -> None:
    """Raise ValueError unless base^exp surely fits in POWER_BIT_BUDGET bits.

    exp * bitlen(base) bounds the bit length of the power, so the estimate
    costs nothing and the power is never computed.
    """
    if exp * base.bit_length() > POWER_BIT_BUDGET:
        raise ValueError(f"operands too large: a power would exceed {POWER_BIT_BUDGET} bits")


def _require_nonempty(pi: Permutation, tau: Permutation) -> None:
    if len(pi) == 0 or len(tau) == 0:
        raise ValueError("empty inputs")


def contains(pi: Permutation, tau: Permutation) -> bool:
    """Whether tau contains a copy of pi."""
    return backend.count_pattern(pi.packed, tau.packed, limit=1) > 0


def contains_left_aligned(pi: Permutation, tau: Permutation) -> bool:
    """Whether tau contains a copy of pi using the first text position."""
    _require_nonempty(pi, tau)
    return backend.count_pattern(pi.packed, tau.packed, pin_first=True, limit=1) > 0


def count_copies(pi: Permutation, tau: Permutation) -> BigCount:
    """Exact number of copies of pi in tau: by pruned backtracking, or for
    |pi| = 2 from the inversion count, since every pair of text positions
    is a copy of exactly one of 12 and 21."""
    if len(pi) == 2:
        inversions = count_inversions(tau)
        return inversions if pi[0] == 2 else comb(len(tau), 2) - inversions
    return backend.count_pattern(pi.packed, tau.packed)


def count_copies_naive(pi: Permutation, tau: Permutation) -> BigCount:
    """Oracle counter: test every k-subset of text positions.

    Deliberately independent of the backtracking path; exponentially slower
    and intended for cross-checking at small sizes only: a text with more
    than NAIVE_SUBSET_BUDGET k-subsets is refused with ValueError before any
    is tried.
    """
    k, n = len(pi), len(tau)
    if k == 0:
        raise ValueError("empty pattern")
    if k > n:
        return 0
    # C(n, j) grows with j up to n/2, so the product passes the budget on
    # its way to C(n, min(k, n - k)) = C(n, k) exactly when C(n, k) does
    subsets = 1
    for j in range(min(k, n - k)):
        subsets = subsets * (n - j) // (j + 1)
        if subsets > NAIVE_SUBSET_BUDGET:
            raise ValueError(
                f"text too long for the naive count: C({n}, {k}) subsets exceed {NAIVE_SUBSET_BUDGET}"
            )
    pat = pi.values
    txt = tau.values
    pairs = [(a, b) for a in range(k) for b in range(a + 1, k)]
    total = 0
    for comb in combinations(range(n), k):
        if all((pat[a] < pat[b]) == (txt[comb[a]] < txt[comb[b]]) for a, b in pairs):
            total += 1
    return total


def count_left_aligned(pi: Permutation, tau: Permutation) -> BigCount:
    """Exact number of left-aligned copies of pi in tau, by backtracking
    with the first text position pinned; for |pi| = 2, the later values
    below tau's first (tau[0] - 1 of them, for 21) or above it (n - tau[0],
    for 12)."""
    _require_nonempty(pi, tau)
    if len(pi) == 2:
        return tau[0] - 1 if pi[0] == 2 else len(tau) - tau[0]
    return backend.count_pattern(pi.packed, tau.packed, pin_first=True)


def count_left_aligned_by_difference(pi: Permutation, tau: Permutation) -> BigCount:
    """Left-aligned count as the difference of two unrestricted counts.

    Every copy either uses the first text position or survives its removal,
    so the left-aligned count is count(pi, tau) - count(pi, tau').  An
    independent oracle for count_left_aligned, which selfcheck criterion 3
    and ``count --mode left`` compare it with.
    """
    _require_nonempty(pi, tau)
    return count_copies(pi, tau) - count_copies(pi, delete_leftmost(tau))


def count_inversions(tau: Permutation) -> BigCount:
    """Number of inversions, i.e. copies of 2 1; O(n log n) with a Fenwick tree."""
    return backend.count_inversions(tau.packed)


def approx_count(pi: Permutation, tau: Permutation) -> BigCount:
    """Detection-based estimate of the copy count.

    Returns 0 when tau avoids pi, and otherwise the canonical integer
    estimate isqrt(n^k), the integer square root of the exact power.  The
    ideal estimate's square is exactly n^k, giving multiplicative error at
    most n^(k/2) in squared-integer form: n^k <= C^2 * n^k and
    C^2 <= n^k * n^k whenever the true count C is at least 1.  Inputs whose
    n^k could exceed POWER_BIT_BUDGET bits are refused with ValueError
    before any search or power.
    """
    _require_nonempty(pi, tau)
    require_power_within_budget(len(tau), len(pi))
    if not contains(pi, tau):
        return 0
    return isqrt(len(tau) ** len(pi))
