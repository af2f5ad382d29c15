"""Pure-Python kernels.

Fallback used when the compiled extension is unavailable; same contract as
``permpat._kernels``.  The kernels operate on raw integer sequences so the
hot loops stay free of object overhead.
"""
from __future__ import annotations

from array import array
from bisect import bisect_left
from typing import Sequence

BACKEND_NAME = "pure-python"


def _order_constraints(pattern: Sequence[int]) -> tuple[list[int], list[int]]:
    """For each position of a pattern of distinct values, the earlier
    positions carrying the tightest value bounds: pred[j] holds the position
    of the largest smaller value, succ[j] the position of the smallest
    larger value (-1 when absent).

    Both neighbours of pattern[j] are found by bisection in a sorted list of
    the earlier values: O(k log k) comparisons, and one list insertion (a
    memmove) per position.
    """
    k = len(pattern)
    pred = [-1] * k
    succ = [-1] * k
    earlier: list[int] = []
    position: dict[int, int] = {}
    for j, pj in enumerate(pattern):
        r = bisect_left(earlier, pj)
        if r:
            pred[j] = position[earlier[r - 1]]
        if r < len(earlier):
            succ[j] = position[earlier[r]]
        earlier.insert(r, pj)
        position[pj] = j
    return pred, succ


def _pattern_refusal(k: int) -> str:
    """The message with which both backends refuse a pattern of length k
    that is not a permutation of 1..k."""
    return f"count_pattern needs a pattern of distinct values in 1..{k}"


def count_pattern(
    pattern: Sequence[int],
    text: Sequence[int],
    pin_first: bool = False,
    limit: int = 0,
) -> int:
    """Count order-isomorphic occurrences of pattern in text.

    Backtracks over pattern positions left to right, pruning candidate text
    elements by the value interval implied by the partial match; every
    pattern length takes this scan, so for k = 3 it is an oracle
    independent of the compiled kernel's one-pass count.  With
    ``pin_first`` the first pattern element must use the first text element.
    ``limit`` 0 counts, 1 detects (the result is then 0 or 1), and any other
    value raises ValueError, as does a pattern that is not a permutation of
    1..k, also when it is longer than the text.
    """
    if limit != 0 and limit != 1:
        raise ValueError(f"count_pattern takes limit 0 (count) or 1 (detect), not {limit}")
    k = len(pattern)
    n = len(text)
    if k == 0:
        raise ValueError("empty pattern")
    if not is_permutation(pattern):
        raise ValueError(_pattern_refusal(k))
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
                    if limit:
                        return 1
                    total += 1
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


def count_inversions(values: Sequence[int]) -> int:
    """Number of pairs i < j with values[i] > values[j], for a permutation
    of 1..len(values), by one pass over a bitset of the values seen and a
    Fenwick tree of its 64-bit words.

    Value v is bit (v - 1) % 64 of words[(v - 1) // 64], and tree counts
    the set bits per word: the values below v are the tree's prefix before
    v's word plus the set bits of that word below v.  No prefix reaches the
    last word, so the tree leaves it out.

    A value outside 1..n, or a repeated one, raises ValueError.
    """
    n = len(values)
    refusal = f"count_inversions needs distinct values in 1..{n}"
    # range first: a value below 1 would index the words from the end
    if n and (min(values) < 1 or max(values) > n):
        raise ValueError(refusal)
    nw = (n + 63) >> 6
    words = [0] * nw
    tree = [0] * nw
    # pairs i < j with values[i] < values[j]; every other pair is inverted
    below = 0
    for x in values:
        w = (x - 1) >> 6
        bit = 1 << ((x - 1) & 63)
        word = words[w]
        if word & bit:
            raise ValueError(refusal)
        below += (word & (bit - 1)).bit_count()
        words[w] = word | bit
        p = w
        while p:
            below += tree[p]
            p &= p - 1
        p = w + 1
        while p < nw:
            tree[p] += 1
            p += p & -p
    return n * (n - 1) // 2 - below


def is_permutation(values: Sequence[int]) -> bool:
    """Whether values holds each of 1..len(values) exactly once: n distinct
    values, all in 1..n."""
    n = len(values)
    return n == 0 or (min(values) >= 1 and max(values) <= n and len(set(values)) == n)


def parse_values(text: str) -> tuple[array, bool]:
    """The whitespace-separated integers of text, as ``int`` reads each one,
    and whether text, less one final newline, is their ``format_values``.

    A token outside the range of a C long raises OverflowError.
    """
    vals = array("l", map(int, text.split()))
    return vals, text.removesuffix("\n") == format_values(vals)


def format_values(values: Sequence[int]) -> str:
    """The decimals of values joined by single spaces."""
    return " ".join(map(str, values))
