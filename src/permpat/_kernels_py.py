"""Pure-Python kernels.

Fallback used when the compiled extension is unavailable; same contract as
``permpat._kernels``.  The kernels operate on raw integer sequences so the
hot loops stay free of object overhead.
"""
from __future__ import annotations

from array import array
from typing import Sequence

BACKEND_NAME = "pure-python"


def _order_constraints(pattern: Sequence[int]) -> tuple[list[int], list[int]]:
    """For each pattern position, the earlier positions carrying the tightest
    value bounds: pred[j] holds the position of the largest smaller value,
    succ[j] the position of the smallest larger value (-1 when absent).
    """
    k = len(pattern)
    pred = [-1] * k
    succ = [-1] * k
    for j in range(k):
        lo, hi = 0, k + 1
        pj = pattern[j]
        for p in range(j):
            pp = pattern[p]
            if lo < pp < pj:
                lo = pp
                pred[j] = p
            elif pj < pp < hi:
                hi = pp
                succ[j] = p
    return pred, succ


def count_pattern(
    pattern: Sequence[int],
    text: Sequence[int],
    pin_first: bool = False,
    limit: int = 0,
) -> int:
    """Count order-isomorphic occurrences of pattern in text.

    Backtracks over pattern positions left to right, pruning candidate text
    elements by the value interval implied by the partial match.  With
    ``pin_first`` the first pattern element must use the first text element.
    A positive ``limit`` stops the search once that many occurrences are
    found (limit=1 is detection).
    """
    k = len(pattern)
    n = len(text)
    if k == 0:
        raise ValueError("empty pattern")
    if k > n:
        return 0
    # a list hands out the int objects it holds; an array('l') would build
    # a new one on every read past 256
    pattern, text = list(pattern), list(text)
    pred, succ = _order_constraints(pattern)
    val = [0] * k
    idx = [0] * k
    total = 0
    j = 0
    i = 0
    while True:
        lo = val[pred[j]] if pred[j] >= 0 else 0
        hi = val[succ[j]] if succ[j] >= 0 else n + 1
        last = 0 if (pin_first and j == 0) else n - (k - j)
        descended = False
        if j == k - 1:
            while i <= last:
                if lo < text[i] < hi:
                    total += 1
                    if limit and total >= limit:
                        return total
                i += 1
        else:
            while i <= last:
                v = text[i]
                if lo < v < hi:
                    idx[j] = i
                    val[j] = v
                    j += 1
                    i += 1
                    descended = True
                    break
                i += 1
        if descended:
            continue
        if j == 0:
            return total
        j -= 1
        i = idx[j] + 1


def _merge_count(vals: list[int], buf: list[int], lo: int, hi: int) -> int:
    """Sort vals[lo:hi] in place through buf; return its inversion count."""
    if hi - lo <= 1:
        return 0
    mid = (lo + hi) // 2
    inv = _merge_count(vals, buf, lo, mid) + _merge_count(vals, buf, mid, hi)
    i, j, t = lo, mid, lo
    while i < mid and j < hi:
        if vals[i] <= vals[j]:
            buf[t] = vals[i]
            i += 1
        else:
            buf[t] = vals[j]
            j += 1
            inv += mid - i
        t += 1
    if i < mid:
        buf[t:hi] = vals[i:mid]
    else:
        buf[t:hi] = vals[j:hi]
    vals[lo:hi] = buf[lo:hi]
    return inv


def count_inversions(values: Sequence[int]) -> int:
    """Number of pairs i < j with values[i] > values[j], by merge counting."""
    vals = list(values)
    return _merge_count(vals, [0] * len(vals), 0, len(vals))


def is_permutation(values: Sequence[int]) -> bool:
    """Whether values holds each of 1..len(values) exactly once: n distinct
    values, all in 1..n."""
    n = len(values)
    return n == 0 or (min(values) >= 1 and max(values) <= n and len(set(values)) == n)


def parse_values(text: str) -> array:
    """The whitespace-separated integers of text, as ``int`` reads each one.

    A token outside the range of a C long raises OverflowError.
    """
    return array("l", map(int, text.split()))


def format_values(values: Sequence[int]) -> str:
    """The decimals of values joined by single spaces."""
    return " ".join(map(str, values))
