"""Gap-producing reduction from left-aligned detection to promise counting.

Given a pattern pi (length k), a text tau (length n) and a rational
0 < epsilon < 1/2, the reduction sets alpha = ceil(2/epsilon).  Small
inputs (n below a threshold exponential in alpha/epsilon) are decided
outright by exact left-aligned detection and replaced by a canonical
trivial instance; large inputs are inflated: the pattern's leftmost
element becomes an increasing run of length alpha*k and the text's
leftmost element becomes a layered permutation with alpha*k layers of
size n^alpha (the "initial blocks").  A left-aligned copy then fans out
into at least n^(alpha^2 k) copies, while the absence of one caps the
count at binomial(n-1, k') -- the two sides of the promise gap.
verify_core counts those copies from the substitution decomposition, in
closed forms and searches in tau, without building the inflated text.

Every inequality here is checked in exact integer arithmetic; rational
exponents are cleared by raising both sides to the exponent denominator.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from math import ceil, comb, log10

from permpat.core import Permutation, delete_leftmost, inflate, layered, standardize
from permpat.matching import (
    POWER_BIT_BUDGET,
    BigCount,
    contains_left_aligned,
    count_copies,
    count_left_aligned,
    require_power_within_budget,
)

DEFAULT_MAX_TEXT_LEN = 10**6

TRIVIAL_YES = (Permutation((1,)), Permutation((1,)))
TRIVIAL_NO = (Permutation((1, 2)), Permutation((2, 1)))


@dataclass(frozen=True)
class GapParams:
    epsilon: Fraction
    alpha: int
    k: int
    n: int
    below_threshold: bool


def _power_less(a: int, x: int, b: int, y: int) -> bool:
    """Exact a^x < b^y for positive integers, deciding from bit lengths first.

    A base of bit length L lies in [2^(L-1), 2^L), so a^x lies in
    [2^(x*(L-1)), 2^(x*L)).  When the two ranges do not overlap they order
    the powers; only overlapping ranges need the exact powers.
    """
    la, lb = a.bit_length(), b.bit_length()
    if x * la <= y * (lb - 1):
        return True
    if y * lb <= x * (la - 1):
        return False
    return a**x < b**y


def gap_params(epsilon: Fraction, k: int, n: int) -> GapParams:
    """Reduction parameters for a given epsilon, pattern and text length.

    alpha = ceil(2/epsilon); the threshold test n < ((alpha+1)*k)^(2*alpha/epsilon)
    is evaluated exactly as n^p < ((alpha+1)*k)^(2*alpha*q) for epsilon = p/q.
    Bit lengths decide it without the powers for every n below 2^32.
    """
    epsilon = Fraction(epsilon)
    if not (0 < epsilon < Fraction(1, 2)):
        raise ValueError("epsilon must lie strictly between 0 and 1/2")
    if k < 1 or n < 1:
        raise ValueError("k and n must be positive")
    alpha = ceil(Fraction(2) / epsilon)
    p, q = epsilon.numerator, epsilon.denominator
    below = _power_less(n, p, (alpha + 1) * k, 2 * alpha * q)
    return GapParams(epsilon=epsilon, alpha=alpha, k=k, n=n, below_threshold=below)


def inflated_lengths(n: int, k: int, alpha: int) -> tuple[int, int]:
    """Lengths (k', n') of the inflated pattern and text:
    k' = alpha*k + (k-1) and n' = n - 1 + alpha*k*n^alpha."""
    return alpha * k + (k - 1), n - 1 + alpha * k * n**alpha


@dataclass(frozen=True)
class GapInstance:
    pattern: Permutation
    text: Permutation
    k_prime: int
    n_prime: int
    branch: str  # trivial_yes | trivial_no | inflated
    initial_block_pattern_len: int
    initial_block_text_len: int
    epsilon: Fraction | None = None
    alpha: int | None = None

    def to_json_obj(self) -> dict:
        return {
            "pattern": self.pattern.to_text(),
            "text": self.text.to_text(),
            "k_prime": self.k_prime,
            "n_prime": self.n_prime,
            "branch": self.branch,
            "initial_block_pattern_len": self.initial_block_pattern_len,
            "initial_block_text_len": self.initial_block_text_len,
            "epsilon": str(self.epsilon) if self.epsilon is not None else None,
            "alpha": self.alpha,
        }


def _inflated_pattern(pi: Permutation, alpha: int) -> tuple[int, ...]:
    """The values of pi with its first element replaced by an increasing run
    of alpha*k: inflate(pi, [increasing(alpha*k)] + [1]*(k-1)) as a tuple."""
    run = alpha * len(pi)
    first = pi[0]
    return (*range(first, first + run), *(v + run - 1 if v > first else v for v in pi[1:]))


def _require_within_cap(k: int, n: int, alpha: int, max_text_len: int | None) -> tuple[int, int]:
    """(k', n') of the inflation, or ValueError when n' exceeds the cap.

    The cap (default 10^6) is checked by bit length first: for n >= 2,
    n' >= n^alpha >= 2^(alpha*(bitlen(n)-1)), so a large alpha is refused
    before n^alpha is computed.
    """
    if k < 1 or n < 1:
        raise ValueError("empty inputs")
    if alpha < 1:
        raise ValueError("alpha must be positive")
    if max_text_len is None:
        max_text_len = DEFAULT_MAX_TEXT_LEN
    bits = alpha * (n.bit_length() - 1)
    if n >= 2 and bits >= max_text_len.bit_length():
        raise ValueError(
            f"instance too large: n' is at least 2^{_as_decimal(bits)},"
            f" over the cap of {_as_decimal(max_text_len)}"
        )
    k_prime, n_prime = inflated_lengths(n, k, alpha)
    if n_prime > max_text_len:
        raise ValueError(
            f"instance too large: n' = {_as_decimal(n_prime)},"
            f" over the cap of {_as_decimal(max_text_len)}"
        )
    return k_prime, n_prime


def build_core(
    pi: Permutation,
    tau: Permutation,
    alpha: int,
    max_text_len: int | None = None,
) -> GapInstance:
    """The inflation step alone, for an explicit alpha, as an inflated GapInstance.

    Exposed separately because the threshold test forces the trivial branch
    for every desk-scale text, so only the alpha-parametrized core can be
    exercised against brute force.  Inflated texts longer than
    ``max_text_len`` (default 10^6) are rejected before anything is built.
    """
    k, n = len(pi), len(tau)
    k_prime, n_prime = _require_within_cap(k, n, alpha, max_text_len)
    one = Permutation((1,))
    text_blocks = [layered([n**alpha] * (alpha * k))] + [one] * (n - 1)
    return GapInstance(
        pattern=Permutation(_inflated_pattern(pi, alpha)),
        text=inflate(tau, text_blocks),
        k_prime=k_prime,
        n_prime=n_prime,
        branch="inflated",
        initial_block_pattern_len=alpha * k,
        initial_block_text_len=n_prime - (n - 1),
        alpha=alpha,
    )


def build_gap_instance(pi: Permutation, tau: Permutation, epsilon: Fraction) -> GapInstance:
    """Full reduction: decide small inputs exactly, inflate large ones.

    No constructible text reaches the inflated branch: its threshold is at
    least 6^20 for every admissible epsilon.
    """
    params = gap_params(epsilon, len(pi), len(tau))
    if not params.below_threshold:
        return replace(build_core(pi, tau, params.alpha), epsilon=params.epsilon)
    if contains_left_aligned(pi, tau):
        pattern, text = TRIVIAL_YES
        branch = "trivial_yes"
    else:
        pattern, text = TRIVIAL_NO
        branch = "trivial_no"
    return GapInstance(
        pattern=pattern,
        text=text,
        k_prime=len(pattern),
        n_prime=len(text),
        branch=branch,
        initial_block_pattern_len=0,
        initial_block_text_len=0,
        epsilon=params.epsilon,
        alpha=params.alpha,
    )


def copies_touching_initial_block(gap: GapInstance) -> BigCount:
    """Number of pattern copies using at least one initial-block element.

    Counted by backtracking on the text, as the difference between the
    total and the count within the re-ranked text suffix that survives
    removing the initial block: the oracle for verify_core's count.  Must be 0
    whenever the source was a no-instance of left-aligned detection.
    """
    if gap.branch != "inflated":
        raise ValueError("not an inflated instance")
    suffix = standardize(gap.text[gap.initial_block_text_len :])
    return count_copies(gap.pattern, gap.text) - count_copies(gap.pattern, suffix)


def _block_copies(values: tuple[int, ...], layers: int, size: int) -> BigCount:
    """Copies of the pattern order-isomorphic to values in the initial block,
    layered([size] * layers).

    A copy maps each layer of the pattern into its own layer of the block,
    in order, so the count is C(layers, r) * C(size, s_1) * ... * C(size, s_r)
    when the pattern is layered with layer sizes s_1..s_r, and 0 otherwise.
    """
    rank = {v: r for r, v in enumerate(sorted(values))}
    sigma = [rank[v] for v in values]
    count, r, start = 1, 0, 0
    while start < len(sigma):
        # a layer starting at position start holds the values sigma[start] .. start
        end = sigma[start] + 1
        if end <= start or sigma[start:end] != list(range(end - 1, start - 1, -1)):
            return 0
        count *= comb(size, end - start)
        r += 1
        start = end
    return comb(layers, r) * count


@dataclass(frozen=True)
class BoundCheck:
    name: str
    holds: bool


def _decimal_digits(x: int) -> int:
    """Exact number of decimal digits of a positive integer, without str()
    (which refuses integers beyond 4300 digits)."""
    digits = int(x.bit_length() * log10(2))  # the digit count or one less
    while 10**digits <= x:
        digits += 1
    return digits


def _as_decimal(x: int) -> str:
    """str(x), or its digit count where str() would pass Python's
    int-to-str digit limit."""
    digits, limit = _decimal_digits(abs(x)), sys.get_int_max_str_digits()
    return f"({digits}-digit number)" if limit and digits > limit else str(x)


def _decimal(value: int, name: str) -> str:
    """str(value); past Python's int-to-str digit limit, a ValueError that
    names the value and its size."""
    try:
        return str(value)
    except ValueError:
        raise ValueError(
            f"{name} has {_decimal_digits(value)} decimal digits, over the"
            f" {sys.get_int_max_str_digits()}-digit output limit"
        ) from None


@dataclass(frozen=True)
class BoundsReport:
    epsilon: Fraction
    alpha: int
    k: int
    n: int
    k_prime: int
    n_prime: int
    checks: tuple[BoundCheck, ...]

    @property
    def all_hold(self) -> bool:
        return all(c.holds for c in self.checks)

    def to_json_obj(self) -> dict:
        return {
            "epsilon": str(self.epsilon),
            "alpha": self.alpha,
            "k": self.k,
            "n": str(self.n),
            "k_prime": self.k_prime,
            "n_prime_digits": _decimal_digits(self.n_prime),
            "checks": [{"name": c.name, "holds": c.holds} for c in self.checks],
            "all_hold": self.all_hold,
        }


def initial_block_bounds(n: int, k: int, alpha: int) -> tuple[bool, bool]:
    """The two structural size comparisons n^alpha <= n' <= (alpha+1)*k*n^alpha.

    Usable for any alpha >= 1, independent of the threshold test.
    """
    _, n_prime = inflated_lengths(n, k, alpha)
    return (n**alpha <= n_prime, n_prime <= (alpha + 1) * k * n**alpha)


def check_bounds(n: int, k: int, epsilon: Fraction) -> BoundsReport:
    """Exact verification of the inequality chains behind the gap.

    Requires the above-threshold regime (n >= ((alpha+1)*k)^(2*alpha/epsilon));
    every comparison is performed on integers after clearing the rational
    exponents by raising both sides to the exponent denominator.  Inputs
    whose powers could exceed POWER_BIT_BUDGET bits are rejected with
    ValueError before any power is computed.
    """
    epsilon = Fraction(epsilon)
    # gap_params computes n^p when bit lengths cannot decide the threshold;
    # the other side of that test then has about as many bits
    require_power_within_budget(n, epsilon.numerator)
    params = gap_params(epsilon, k, n)
    if params.below_threshold:
        raise ValueError("threshold precondition unmet")
    alpha = params.alpha
    p, q = params.epsilon.numerator, params.epsilon.denominator
    big = (alpha + 1) * k
    require_power_within_budget(n, alpha * alpha * k * q)  # bounds n^alpha too
    require_power_within_budget(big, 2 * alpha * q)
    k_prime, n_prime = inflated_lengths(n, k, alpha)
    require_power_within_budget(n, k_prime * alpha)
    require_power_within_budget(n_prime, max(k_prime * q, p * alpha * k_prime))
    lower_ok, upper_ok = initial_block_bounds(n, k, alpha)
    checks = (
        BoundCheck("n^alpha <= n'", lower_ok),
        BoundCheck("n' <= (alpha+1)*k*n^alpha", upper_ok),
        BoundCheck(
            "(alpha+1)*k*n^alpha <= n^(eps/(2 alpha)) * n^alpha",
            big ** (2 * alpha * q) <= n**p,
        ),
        BoundCheck(
            "n^(alpha^2 k) >= n'^((1-eps) k')",
            n ** (alpha * alpha * k * q) >= n_prime ** ((q - p) * k_prime),
        ),
        BoundCheck("binom(n-1, k') <= n^k'", comb(n - 1, k_prime) <= n**k_prime),
        BoundCheck("n^k' <= n'^(k'/alpha)", n ** (k_prime * alpha) <= n_prime**k_prime),
        BoundCheck(
            "n'^(k'/alpha) < n'^(eps k')",
            n_prime ** (k_prime * q) < n_prime ** (p * alpha * k_prime),
        ),
    )
    return BoundsReport(
        epsilon=params.epsilon,
        alpha=alpha,
        k=k,
        n=n,
        k_prime=k_prime,
        n_prime=n_prime,
        checks=checks,
    )


def decide_via_approx(pi: Permutation, tau: Permutation, estimate: BigCount) -> bool:
    """Positive answer iff the estimate exceeds n^(k/2), compared exactly
    as estimate^2 > n^k."""
    return estimate * estimate > len(tau) ** len(pi)


def meets_yes_threshold(count: BigCount, n: int, k: int, epsilon: Fraction) -> bool:
    """Exact test of count >= n^((1-epsilon)*k) for epsilon = p/q."""
    epsilon = Fraction(epsilon)
    p, q = epsilon.numerator, epsilon.denominator
    return count**q >= n ** ((q - p) * k)


def meets_no_threshold(count: BigCount, n: int, k: int, epsilon: Fraction) -> bool:
    """Exact test of count <= n^(epsilon*k) for epsilon = p/q."""
    epsilon = Fraction(epsilon)
    p, q = epsilon.numerator, epsilon.denominator
    return count**q <= n ** (p * k)


@dataclass(frozen=True)
class CoreReport:
    """Outcome of the yes/no-case property battery for one (pi, tau, alpha).

    ``block_usage_lemma_holds`` is None when alpha*k < 2.  Otherwise it
    reports whether the initial block avoids the pattern's first alpha*k+1
    elements, which implies that no copy uses more than alpha*k block
    positions.
    """

    source_has_left_aligned_copy: bool
    k_prime: int
    n_prime: int
    total_copies: BigCount
    touching_initial_block: BigCount
    size_bounds_hold: bool
    yes_lower_bound_holds: bool | None
    no_upper_bound_holds: bool | None
    block_usage_lemma_holds: bool | None
    checks_pass: bool

    def to_json_obj(self) -> dict:
        return {
            "source_has_left_aligned_copy": self.source_has_left_aligned_copy,
            "k_prime": self.k_prime,
            "n_prime": self.n_prime,
            "total_copies": _decimal(self.total_copies, "total_copies"),
            "touching_initial_block": _decimal(self.touching_initial_block, "touching_initial_block"),
            "size_bounds_hold": self.size_bounds_hold,
            "yes_lower_bound_holds": self.yes_lower_bound_holds,
            "no_upper_bound_holds": self.no_upper_bound_holds,
            "block_usage_lemma_holds": self.block_usage_lemma_holds,
            "checks_pass": self.checks_pass,
        }


def verify_core(
    pi: Permutation,
    tau: Permutation,
    alpha: int,
    max_text_len: int | None = None,
) -> CoreReport:
    """Check the structural claims of the inflation on one desk-scale input.

    Yes-side: at least n^(alpha^2 k) copies.  No-side: no copy touches the
    initial block and the total is at most binomial(n-1, k').  Either way,
    when alpha*k >= 2 every embedding uses at most alpha*k initial-block
    positions: the block avoids the pattern's first alpha*k+1 elements.

    The copies of build_core(pi, tau, alpha) are counted from its
    substitution decomposition, without building or searching the inflated
    text.  The initial block L is a prefix of the text and an interval of
    its values, so a copy of the inflated pattern P puts some prefix P[:m]
    in L.  The copies with m = 0 are the copies of P in tau with its first
    element deleted.  For m >= 1, P[:m] must be an interval of P's values;
    its copies in L are counted in closed form (C(alpha*k, m) * (n^alpha)^m
    while the prefix is increasing), and the rest of the copy is a
    left-aligned copy in tau of P with P[:m] contracted to one point.  At
    m = alpha*k the contraction gives back pi, so that term's left-aligned
    count decides which side of the gap the source is on.

    An instance is refused with ValueError, before any power or binomial is
    computed, when build_core would refuse it (n' over ``max_text_len``) or
    when (n^alpha)^k', which bounds every power and binomial of the count,
    does not fit in POWER_BIT_BUDGET bits.  The second refuses some
    instances within the cap, such as a pattern of length 262145 with
    n = 2 and alpha = 1.
    """
    k, n = len(pi), len(tau)
    k_prime, n_prime = _require_within_cap(k, n, alpha, max_text_len)
    layers, size = alpha * k, n**alpha
    require_power_within_budget(size, k_prime)
    pattern = _inflated_pattern(pi, alpha)
    # copies of P[:alpha*k+1] in L; every longer prefix in L contains one
    beyond_run = _block_copies(pattern[: layers + 1], layers, size) if k_prime > layers else 0
    touching = 0
    # whether tau holds a left-aligned copy of pi; False when k > n, as the
    # loop then starts past m = alpha*k
    yes_side = False
    # a contracted pattern longer than tau has no copy: start at m = k' - n + 1
    for m in range(max(1, k_prime - n + 1), k_prime + 1):
        if m <= layers:  # P[:m] is the increasing run of the values lo..hi
            lo, hi = pattern[0], pattern[0] + m - 1
            in_block = comb(layers, m) * size**m
        elif beyond_run:
            lo, hi = min(pattern[:m]), max(pattern[:m])
            in_block = _block_copies(pattern[:m], layers, size) if hi - lo == m - 1 else 0
        else:
            break
        if in_block:
            contracted = (lo, *(v - m + 1 if v > hi else v for v in pattern[m:]))
            left_aligned = count_left_aligned(Permutation(contracted), tau)
            if m == layers:  # contracting the whole run gives back pi
                yes_side = left_aligned > 0
            touching += in_block * left_aligned
    total = touching
    if k_prime < n:
        total += count_copies(Permutation(pattern), delete_leftmost(tau))
    size_ok = all(initial_block_bounds(n, k, alpha))

    yes_ok: bool | None = None
    no_ok: bool | None = None
    if yes_side:
        yes_ok = total >= n ** (alpha * alpha * k)
    else:
        no_ok = touching == 0 and total <= comb(n - 1, k_prime)

    lemma_ok: bool | None = None
    if layers >= 2:
        lemma_ok = beyond_run == 0
    checks = [size_ok]
    checks += [yes_ok] if yes_ok is not None else []
    checks += [no_ok] if no_ok is not None else []
    checks += [lemma_ok] if lemma_ok is not None else []
    return CoreReport(
        source_has_left_aligned_copy=yes_side,
        k_prime=k_prime,
        n_prime=n_prime,
        total_copies=total,
        touching_initial_block=touching,
        size_bounds_hold=size_ok,
        yes_lower_bound_holds=yes_ok,
        no_upper_bound_holds=no_ok,
        block_usage_lemma_holds=lemma_ok,
        checks_pass=all(checks),
    )
