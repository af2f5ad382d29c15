"""Detection, counting, left-aligned variants and the detection-based estimate."""
import itertools
import random
from math import comb, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permpat import backend, matching
from permpat.core import Permutation, delete_leftmost, layered

P = Permutation.parse


@st.composite
def perm(draw, min_n=1, max_n=7):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    return Permutation(draw(st.permutations(list(range(1, n + 1)))))


def all_perms(n):
    return [Permutation(v) for v in itertools.permutations(range(1, n + 1))]


class TestContains:
    def test_highlighted_copy(self):
        assert matching.contains(P("312"), P("24153")) is True

    def test_decreasing_in_increasing(self):
        assert matching.contains(P("321"), P("123")) is False

    def test_singleton_pattern(self):
        for tau in all_perms(3):
            assert matching.contains(P("1"), tau) is True

    def test_empty_pattern_rejected(self):
        with pytest.raises(ValueError, match="empty pattern"):
            matching.contains(Permutation(()), P("1"))

    def test_empty_text_avoids_everything(self):
        assert matching.contains(P("1"), Permutation(())) is False


class TestCountCopies:
    def test_examples(self):
        assert matching.count_copies(P("312"), P("24153")) == 1
        assert matching.count_copies(P("1"), P("24153")) == 5
        assert matching.count_copies(P("12"), P("123")) == 3

    def test_matches_naive_exhaustively(self):
        for k in range(1, 4):
            for pi in all_perms(k):
                for n in range(1, 6):
                    for tau in all_perms(n):
                        assert matching.count_copies(pi, tau) == matching.count_copies_naive(pi, tau)

    def test_naive_refuses_past_its_subset_budget(self, monkeypatch):
        monkeypatch.setattr(matching, "NAIVE_SUBSET_BUDGET", 10)
        inc = Permutation.increasing
        assert matching.count_copies_naive(inc(2), inc(5)) == comb(5, 2) == 10
        # C(6, 5) = 6 is within the budget, though C(6, 2) = 15 and
        # C(6, 3) = 20, which are refused, lie on the way to it
        assert matching.count_copies_naive(inc(5), inc(6)) == comb(6, 5) == 6
        for k, n in ((2, 6), (3, 6), (29, 30)):
            with pytest.raises(ValueError, match=rf"C\({n}, {k}\) subsets exceed 10$"):
                matching.count_copies_naive(inc(k), inc(n))
        assert matching.count_copies_naive(inc(7), inc(6)) == 0
        with pytest.raises(ValueError, match="empty pattern"):
            matching.count_copies_naive(Permutation(()), inc(6))

    def test_detection_iff_positive_count(self):
        for pi in all_perms(3):
            for tau in all_perms(5):
                assert matching.contains(pi, tau) == (matching.count_copies(pi, tau) >= 1)

    def test_monotone_bound_with_equality_cases(self):
        # count <= binom(n, k); for n > k >= 2 equality only on the two
        # monotone-aligned pairs
        for k in range(2, 4):
            for pi in all_perms(k):
                for n in range(k + 1, 6):
                    for tau in all_perms(n):
                        c = matching.count_copies(pi, tau)
                        assert c <= comb(n, k)
                        monotone = (
                            pi == Permutation.increasing(k)
                            and tau == Permutation.increasing(n)
                        ) or (
                            pi == Permutation.decreasing(k)
                            and tau == Permutation.decreasing(n)
                        )
                        assert (c == comb(n, k)) == monotone

    @given(perm(max_n=4), perm(max_n=7))
    @settings(max_examples=150)
    def test_reverse_and_complement_symmetry(self, pi, tau):
        c = matching.count_copies(pi, tau)
        assert matching.count_copies(pi.reverse(), tau.reverse()) == c
        assert matching.count_copies(pi.complement(), tau.complement()) == c

    def test_complexity_envelope_k10_n40(self):
        # k = 10, n = 40 must complete; layered texts give closed-form
        # counts (an increasing subsequence takes exactly one element per
        # layer, a decreasing one stays inside a single layer)
        text = layered([4] * 10)
        assert matching.count_copies(Permutation.increasing(10), text) == 4**10
        assert matching.count_copies(Permutation.decreasing(10), text) == 0
        rng = random.Random(271828)
        vals = list(range(1, 41))
        rng.shuffle(vals)
        assert matching.count_copies(Permutation.increasing(10), Permutation(vals)) == 0

    def test_concurrent_calls_are_deterministic(self):
        from concurrent.futures import ThreadPoolExecutor

        pi = P("2413")
        rng = random.Random(5)
        vals = list(range(1, 31))
        rng.shuffle(vals)
        tau = Permutation(vals)
        expected = matching.count_copies(pi, tau)
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(lambda _: matching.count_copies(pi, tau), range(64)))
        assert results == [expected] * 64


class TestLeftAligned:
    def test_examples(self):
        assert matching.contains_left_aligned(P("213"), P("24153")) is True
        assert matching.contains_left_aligned(P("12"), P("21")) is False
        assert matching.contains_left_aligned(P("1"), P("312")) is True

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError, match="empty inputs"):
            matching.contains_left_aligned(P("1"), Permutation(()))
        with pytest.raises(ValueError, match="empty inputs"):
            matching.count_left_aligned(Permutation(()), P("1"))

    def test_count_example_both_routes(self):
        pi, tau = P("213"), P("24153")
        assert matching.count_left_aligned(pi, tau) == 2
        assert matching.count_copies(pi, tau) == 3
        assert matching.count_copies(pi, delete_leftmost(tau)) == 1
        assert matching.count_left_aligned_by_difference(pi, tau) == 2

    def test_singleton_pattern_counts_once(self):
        for tau in all_perms(4):
            assert matching.count_left_aligned(P("1"), tau) == 1

    @given(perm(max_n=4), perm(max_n=8))
    @settings(max_examples=200)
    def test_pinned_equals_difference(self, pi, tau):
        direct = matching.count_left_aligned(pi, tau)
        assert direct == matching.count_left_aligned_by_difference(pi, tau)


class TestInversions:
    def test_examples(self):
        assert matching.count_inversions(P("21")) == 1
        assert matching.count_inversions(P("12345")) == 0
        assert matching.count_inversions(P("24153")) == 4
        assert matching.count_inversions(Permutation(())) == 0

    # count_copies answers 21 from the inversion count itself, so these
    # compare with the backtracking kernel
    def test_equals_descent_pattern_count_exhaustive(self):
        for n in range(0, 9):
            for tau in all_perms(n):
                assert matching.count_inversions(tau) == backend.count_pattern((2, 1), tau.packed)

    def test_equals_descent_pattern_count_random_large(self):
        rng = random.Random(3)
        for n in (40, 300, 1000):
            vals = list(range(1, n + 1))
            rng.shuffle(vals)
            tau = Permutation(vals)
            assert matching.count_inversions(tau) == backend.count_pattern((2, 1), tau.packed)


class TestTwoPatterns:
    """count_copies and count_left_aligned answer 12 and 21 in closed form."""

    def test_match_naive_on_every_small_text(self):
        for n in range(1, 8):
            for tau in all_perms(n):
                for pi in (P("12"), P("21")):
                    copies = matching.count_copies_naive(pi, tau)
                    rest = matching.count_copies_naive(pi, delete_leftmost(tau)) if n > 1 else 0
                    assert matching.count_copies(pi, tau) == copies
                    assert matching.count_left_aligned(pi, tau) == copies - rest

    def test_match_the_kernel_on_seeded_texts(self):
        rng = random.Random(2)
        for n in [*range(1, 40), *rng.sample(range(40, 301), 12), 300]:
            vals = list(range(1, n + 1))
            rng.shuffle(vals)
            tau = Permutation(vals)
            for pi in (P("12"), P("21")):
                assert matching.count_copies(pi, tau) == backend.count_pattern(pi.packed, tau.packed)
                assert matching.count_left_aligned(pi, tau) == backend.count_pattern(
                    pi.packed, tau.packed, pin_first=True
                )

    def test_no_search_at_large_n(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("count_pattern called for a 2-pattern")

        monkeypatch.setattr(backend, "count_pattern", refuse)
        n = 4 * 10**4
        vals = list(range(1, n + 1))
        random.Random(4).shuffle(vals)
        tau = Permutation(vals)
        inversions = matching.count_inversions(tau)
        assert matching.count_copies(P("21"), tau) == inversions
        assert matching.count_copies(P("12"), tau) == comb(n, 2) - inversions
        assert matching.count_left_aligned(P("21"), tau) == vals[0] - 1
        assert matching.count_left_aligned(P("12"), tau) == n - vals[0]


class TestApproxCount:
    def test_examples(self):
        assert matching.approx_count(P("321"), P("123")) == 0
        assert matching.approx_count(P("312"), P("24153")) == 11
        assert matching.approx_count(P("21"), P("21")) == 2

    def test_power_budget_checked_first(self):
        # k * bitlen(n) against the budget: 61680 * 17 bits fit, 61681 * 17 do not
        n = 2**16
        assert n.bit_length() * 61680 <= matching.POWER_BIT_BUDGET < n.bit_length() * 61681
        tau = Permutation.increasing(n)
        assert matching.approx_count(Permutation.increasing(61680), tau) == 2 ** (8 * 61680)
        with pytest.raises(ValueError, match="too large"):
            matching.approx_count(Permutation.increasing(61681), tau)

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            matching.approx_count(Permutation(()), P("1"))
        with pytest.raises(ValueError):
            matching.approx_count(P("1"), Permutation(()))

    def test_error_bound_small_exhaustive(self):
        # squared-integer form of the n^(k/2) error guarantee: the ideal
        # estimate's square is exactly n^k
        for k in range(1, 4):
            for pi in all_perms(k):
                for n in range(1, 6):
                    for tau in all_perms(n):
                        est = matching.approx_count(pi, tau)
                        c = matching.count_copies(pi, tau)
                        if c == 0:
                            assert est == 0
                            continue
                        power = n**k
                        assert est == isqrt(power)
                        assert est * est <= c * c * power
                        assert c * c <= power * power
