"""Gap parameters, inflation construction, bound chains, decision rule."""
import hashlib
import itertools
import json
import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import permpat
from permpat import backend, gap, matching, selfcheck
from permpat.core import Permutation, layered

P = Permutation.parse

SAMPLE_EPSILONS = (Fraction(1, 3), Fraction(2, 5), Fraction(49, 100))


def run_cli(*args, timeout):
    """Run the CLI in a fresh interpreter, killed after ``timeout`` seconds."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(permpat.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "permpat.cli", *args],
        capture_output=True, text=True, env=env, timeout=timeout,
    )


def all_perms(n):
    return [Permutation(v) for v in itertools.permutations(range(1, n + 1))]


@st.composite
def perm(draw, min_n=1, max_n=4):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    return Permutation(draw(st.permutations(list(range(1, n + 1)))))


class TestGapParams:
    def test_boundary_epsilon_rejected(self):
        for bad in (Fraction(1, 2), Fraction(0), Fraction(-1, 3), Fraction(3, 4)):
            with pytest.raises(ValueError):
                gap.gap_params(bad, 2, 5)

    def test_alpha_values(self):
        assert gap.gap_params(Fraction(1, 3), 2, 5).alpha == 6
        assert gap.gap_params(Fraction(2, 5), 2, 10).alpha == 5
        assert gap.gap_params(Fraction(49, 100), 1, 10).alpha == 5

    def test_threshold_flag(self):
        params = gap.gap_params(Fraction(2, 5), 2, 10)
        assert params.below_threshold  # 10^2 < 12^50
        above = gap.gap_params(Fraction(1, 3), 1, 7**36)
        assert not above.below_threshold

    def test_threshold_is_exact_at_the_edge(self):
        # alpha = 5 at eps = 2/5 and k = 1: threshold value is 6^25
        edge = 6**25
        assert gap.gap_params(Fraction(2, 5), 1, edge - 1).below_threshold
        assert not gap.gap_params(Fraction(2, 5), 1, edge).below_threshold

    def test_power_comparison_shortcut_is_exact(self):
        equal = 0
        for a, x, b, y in itertools.product(range(1, 33), range(1, 7), repeat=2):
            assert gap._power_less(a, x, b, y) == (a**x < b**y), (a, x, b, y)
            equal += a**x == b**y
        assert equal > 32  # more than the a == b, x == y diagonal
        big = 2**100
        assert not gap._power_less(big, 3, 2**150, 2)  # equal powers
        assert gap._power_less(big - 1, 3, 2**150, 2)
        assert not gap._power_less(big + 1, 3, 2**150, 2)

    def test_tiny_epsilon_decided_without_big_powers(self):
        # the exact threshold power here has about 2 * 10^8 bits
        proc = run_cli("gap", "build", "--pattern", "21", "--text", "21",
                       "--epsilon", "1/2000", timeout=20)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["result"]["branch"] == "trivial_yes"


class TestBuildCore:
    def test_frozen_examples(self):
        assert gap.build_core(P("21"), P("21"), 1) == gap.GapInstance(
            pattern=P("231"), text=P("32541"), k_prime=3, n_prime=5, branch="inflated",
            initial_block_pattern_len=2, initial_block_text_len=4, alpha=1,
        )
        core = gap.build_core(P("12"), P("21"), 1)
        assert (core.pattern, core.text) == (P("123"), P("32541"))
        core = gap.build_core(P("1"), P("1"), 1)
        assert (core.pattern, core.text) == (P("1"), P("1"))

    def test_empty_and_bad_alpha(self):
        with pytest.raises(ValueError):
            gap.build_core(Permutation(()), P("1"), 1)
        with pytest.raises(ValueError):
            gap.build_core(P("1"), P("1"), 0)

    def test_safety_cap(self):
        # (k=2, n=2, alpha=2) inflates to n' = 1 + 4 * 4 = 17
        with pytest.raises(ValueError, match="too large"):
            gap.build_core(P("12"), P("12"), 2, max_text_len=16)
        gap.build_core(P("12"), P("12"), 2, max_text_len=17)
        # the bit-length shortcut refuses no instance that fits the cap
        for n, k, alpha in itertools.product(range(1, 9), range(1, 4), range(1, 9)):
            _, n_prime = gap.inflated_lengths(n, k, alpha)
            if n_prime > 5000:
                continue
            pi, tau = Permutation.increasing(k), Permutation.increasing(n)
            gap.build_core(pi, tau, alpha, max_text_len=n_prime)
            with pytest.raises(ValueError, match="too large"):
                gap.build_core(pi, tau, alpha, max_text_len=n_prime - 1)

    @pytest.mark.parametrize(
        "command, refusal",
        [("core", "instance too large"), ("verify", "operands too large")],
        ids=["core", "verify"],
    )
    def test_huge_alpha_refused_before_the_power(self, command, refusal):
        # 3^(10^8) has about 1.6 * 10^8 bits: over the cap of gap core, and
        # over the bit budget of gap verify, which builds no text
        proc = run_cli("gap", command, "--pattern", "21", "--text", "321",
                       "--alpha", "100000000", timeout=10)
        assert proc.returncode == 2
        assert refusal in proc.stderr

    @given(perm(max_n=3), perm(max_n=3), st.integers(1, 3))
    @settings(max_examples=120)
    def test_sizes(self, pi, tau, alpha):
        k, n = len(pi), len(tau)
        core = gap.build_core(pi, tau, alpha)
        assert core.k_prime == len(core.pattern) == alpha * k + (k - 1)
        assert core.n_prime == len(core.text) == n - 1 + alpha * k * n**alpha
        assert core.initial_block_pattern_len == alpha * k
        assert core.initial_block_text_len == alpha * k * n**alpha
        assert (core.branch, core.epsilon, core.alpha) == ("inflated", None, alpha)

    @given(perm(max_n=3), perm(max_n=3), st.integers(1, 2))
    @settings(max_examples=80)
    def test_structural_size_bounds(self, pi, tau, alpha):
        lo_ok, hi_ok = gap.initial_block_bounds(len(tau), len(pi), alpha)
        assert lo_ok and hi_ok

    def test_structural_bounds_worked_example(self):
        # n = 2, k = 2, alpha = 1: n' = 5 and 2 <= 5 <= 8
        n_prime = 2 - 1 + 1 * 2 * 2
        assert n_prime == 5
        assert gap.initial_block_bounds(2, 2, 1) == (True, True)


class TestBuildGapInstance:
    def test_trivial_yes(self):
        inst = gap.build_gap_instance(P("213"), P("24153"), Fraction(1, 3))
        assert inst.branch == "trivial_yes"
        assert (inst.pattern, inst.text) == gap.TRIVIAL_YES
        assert inst.k_prime == 1 and inst.n_prime == 1

    def test_trivial_no(self):
        inst = gap.build_gap_instance(P("12"), P("21"), Fraction(1, 3))
        assert inst.branch == "trivial_no"
        assert (inst.pattern, inst.text) == gap.TRIVIAL_NO

    def test_trivial_branch_meets_gap_definition(self):
        for eps in SAMPLE_EPSILONS:
            yes_pi, yes_tau = gap.TRIVIAL_YES
            count = matching.count_copies(yes_pi, yes_tau)
            assert gap.meets_yes_threshold(count, len(yes_tau), len(yes_pi), eps)
            no_pi, no_tau = gap.TRIVIAL_NO
            count = matching.count_copies(no_pi, no_tau)
            assert gap.meets_no_threshold(count, len(no_tau), len(no_pi), eps)
            assert not gap.meets_yes_threshold(count, len(no_tau), len(no_pi), eps)

    def test_threshold_always_trivial_at_desk_scale(self):
        # alpha >= 5 for every admissible epsilon, so the threshold is at
        # least 6^20 and any constructible text takes a trivial branch
        for eps in SAMPLE_EPSILONS:
            inst = gap.build_gap_instance(P("21"), P("4231"), eps)
            assert inst.branch in ("trivial_yes", "trivial_no")

    def test_inflated_branch_plumbing(self, monkeypatch):
        # the above-threshold regime is unreachable with real permutations;
        # force it to check the record-keeping of the inflated branch
        eps = Fraction(1, 3)

        def fake_params(epsilon, k, n):
            return gap.GapParams(epsilon=Fraction(epsilon), alpha=2, k=k, n=n,
                                 below_threshold=False)

        monkeypatch.setattr(gap, "gap_params", fake_params)
        pi, tau = P("21"), P("312")
        inst = gap.build_gap_instance(pi, tau, eps)
        assert inst.branch == "inflated"
        assert inst == replace(gap.build_core(pi, tau, 2), epsilon=eps)
        assert inst.k_prime == 2 * 2 + 1 == len(inst.pattern)
        assert inst.n_prime == 3 - 1 + 2 * 2 * 3**2 == len(inst.text)
        assert inst.initial_block_pattern_len == 4
        assert inst.initial_block_text_len == 36
        assert gap.copies_touching_initial_block(inst) >= 0


class TestTouchingCount:
    def test_requires_inflated_branch(self):
        inst = gap.build_gap_instance(P("12"), P("21"), Fraction(1, 3))
        with pytest.raises(ValueError):
            gap.copies_touching_initial_block(inst)

    def test_no_instance_untouched(self):
        inst = gap.build_core(P("12"), P("21"), 1)
        assert matching.count_copies(inst.pattern, inst.text) == 0
        assert gap.copies_touching_initial_block(inst) == 0

    def test_yes_instance_all_copies_touch(self):
        inst = gap.build_core(P("21"), P("21"), 1)
        assert matching.count_copies(inst.pattern, inst.text) == 4
        assert gap.copies_touching_initial_block(inst) == 4

    def test_pattern_longer_than_suffix(self):
        # suffix shorter than the pattern: touching equals the total
        inst = gap.build_core(P("21"), P("12"), 1)
        total = matching.count_copies(inst.pattern, inst.text)
        assert gap.copies_touching_initial_block(inst) == total


class TestVerifyCore:
    # sha256 of the CoreReport JSON over the gap-verify benchmark's sources
    REPORTS_SHA256 = "51c9ad2f49b905948d34a53fe39d41a6e342643c97793669ea6ddce1b45c9f15"

    def test_reports_pinned(self):
        # |pi| = 2, |tau| in {3, 4}, alpha in {1, 2}; then |pi| = 3, |tau| <= 4, alpha = 1
        sources = [(pi, tau, alpha) for pi in all_perms(2) for n in (3, 4)
                   for tau in all_perms(n) for alpha in (1, 2)]
        sources += [(pi, tau, 1) for pi in all_perms(3) for n in range(1, 5) for tau in all_perms(n)]
        assert len(sources) == 318
        reports = [gap.verify_core(pi, tau, alpha).to_json_obj() for pi, tau, alpha in sources]
        digest = hashlib.sha256(json.dumps(reports, sort_keys=True).encode()).hexdigest()
        assert digest == self.REPORTS_SHA256

    def test_reports_past_a_million_pinned(self):
        # n' = 402653187, 41943041 and 7077891: the same reports as when
        # n' was capped at 10^6 and the cap was raised to 10^9
        sources = [(P("21"), P("2413"), 12), (P("12"), P("21"), 20), (P("132"), P("2413"), 9)]
        reports = [gap.verify_core(pi, tau, alpha).to_json_obj() for pi, tau, alpha in sources]
        assert [r["n_prime"] for r in reports] == [402653187, 41943041, 7077891]
        digest = hashlib.sha256(json.dumps(reports, sort_keys=True).encode()).hexdigest()
        assert digest == "a768a1d2db3ce2e78151933f09171f0ec8f4e51e0e08b60e4c2dfcc8600da026"

    def test_yes_case_bound(self):
        report = gap.verify_core(P("21"), P("21"), 1)
        assert report.source_has_left_aligned_copy
        assert report.total_copies == 4 == 2 ** (1 * 1 * 2)
        assert report.yes_lower_bound_holds
        assert report.checks_pass

    def test_yes_case_spot_check_alpha_2(self):
        # k = 2, n = 3, alpha = 2: at least 3^(4*2) = 6561 copies
        report = gap.verify_core(P("21"), P("321"), 2)
        assert report.source_has_left_aligned_copy
        assert report.total_copies >= 3**8
        assert report.checks_pass

    def test_no_case_structure(self):
        report = gap.verify_core(P("12"), P("21"), 1)
        assert not report.source_has_left_aligned_copy
        assert report.touching_initial_block == 0
        assert report.no_upper_bound_holds
        assert report.total_copies <= comb(len(P("21")) - 1, report.k_prime)
        assert report.checks_pass

    def test_block_usage_lemma(self):
        report = gap.verify_core(P("21"), P("21"), 1)
        assert report.block_usage_lemma_holds

    @staticmethod
    def most_block_positions(pattern, text, block_len):
        """Most initial-block positions used by any copy (-1: no copy), by
        testing every subset of text positions for the pattern's value order."""
        order = sorted(range(len(pattern)), key=pattern.values.__getitem__)
        return max(
            (
                sum(i < block_len for i in c)
                for c in itertools.combinations(range(len(text)), len(pattern))
                if sorted(range(len(c)), key=lambda j: text.values[c[j]]) == order
            ),
            default=-1,
        )

    def test_block_usage_lemma_matches_subset_oracle(self):
        checked = 0
        for k, n in itertools.product(range(1, 4), range(1, 5)):
            for alpha in itertools.count(1):
                _, n_prime = gap.inflated_lengths(n, k, alpha)
                if n_prime > 20:
                    break
                if alpha * k < 2:
                    continue
                for pi, tau in itertools.product(all_perms(k), all_perms(n)):
                    core = gap.build_core(pi, tau, alpha)
                    used = self.most_block_positions(core.pattern, core.text, alpha * k * n**alpha)
                    report = gap.verify_core(pi, tau, alpha)
                    assert report.block_usage_lemma_holds == (used <= alpha * k), (pi, tau, alpha)
                    checked += 1
        assert checked == 343

    def test_block_usage_lemma_can_fail(self, monkeypatch):
        # an increasing initial block holds the increasing pattern prefix, so
        # backtracking on it disagrees with the counts of a layered block
        assert selfcheck.inflation_count_mismatch(P("12"), P("21"), 1) is None
        real = gap.build_core

        def increasing_block(pi, tau, alpha, max_text_len=None):
            inst = real(pi, tau, alpha, max_text_len)
            cut = inst.initial_block_text_len
            text = Permutation(sorted(inst.text[:cut]) + list(inst.text[cut:]))
            return replace(inst, text=text)

        monkeypatch.setattr(gap, "build_core", increasing_block)
        mismatch = selfcheck.inflation_count_mismatch(P("12"), P("21"), 1)
        assert mismatch is not None
        assert "(0, 0, True, False) != backtracking (4, 4, False, False)" in mismatch

    def test_source_answer_checked_against_detection(self, monkeypatch):
        # the source answer verify_core reads from its alpha*k term is compared
        # with left-aligned detection in tau
        assert selfcheck.inflation_count_mismatch(P("21"), P("21"), 1) is None
        monkeypatch.setattr(matching, "contains_left_aligned", lambda pi, tau: False)
        mismatch = selfcheck.inflation_count_mismatch(P("21"), P("21"), 1)
        assert mismatch is not None
        assert "(4, 4, True, True) != backtracking (4, 4, True, False)" in mismatch


class TestCountInflated:
    """verify_core's counts of the inflation, from its substitution decomposition."""

    @given(st.one_of(st.tuples(perm(4, 4), perm(max_n=6)), st.tuples(perm(max_n=3), perm(6, 6))))
    @settings(max_examples=100, deadline=None)
    def test_matches_backtracking_past_the_selfcheck_range(self, instance):
        # selfcheck criterion 12 covers k <= 3 and n <= 5; here k = 4 or n = 6, at n' <= 29
        pi, tau = instance
        assert selfcheck.inflation_count_mismatch(pi, tau, 1) is None

    def test_block_copies_closed_form(self):
        # every pattern of length <= 4 against layered blocks of 1..3 layers of size 1..3
        for layers, size in itertools.product(range(1, 4), range(1, 4)):
            block = layered([size] * layers)
            for m in range(1, 5):
                for sigma in all_perms(m):
                    want = matching.count_copies(sigma, block)
                    assert gap._block_copies(sigma.values, layers, size) == want, (sigma, layers, size)

    def test_powers_bounded_before_they_are_computed(self, monkeypatch):
        # refused before the 2 * 10^7-element pattern is written, too
        monkeypatch.setattr(gap, "_inflated_pattern", lambda *args: pytest.fail("pattern built"))
        # 3^(10^7) has about 1.6 * 10^7 bits
        with pytest.raises(ValueError, match="too large"):
            gap.verify_core(P("21"), P("321"), 10**7)
        # 3^2000 fits the bit budget, but (3^2000)^4001 does not
        with pytest.raises(ValueError, match="operands too large"):
            gap.verify_core(P("21"), P("321"), 2000)

    def test_budget_refuses_within_the_cap(self):
        # n' = 2k + 1 = 524291 is within the default cap, and gap core builds
        # the instance; the count could reach (2^1)^k' with k' = 2k - 1, and
        # k' * bitlen(2) = 4k - 2 > 2^20
        pi, tau = Permutation.increasing(262145), P("21")
        assert gap.build_core(pi, tau, 1).n_prime == 524291
        with pytest.raises(ValueError, match="operands too large"):
            gap.verify_core(pi, tau, 1)
        # one pattern element fewer fits the budget; 12..k has no copy in 21
        shorter = Permutation.increasing(262144)
        report = gap.verify_core(shorter, tau, 1)
        counts = (report.total_copies, report.touching_initial_block, report.block_usage_lemma_holds)
        assert counts == (0, 0, True)

    def test_large_alpha_verified_without_the_text(self):
        # n' = 3 + 24 * 4^12, about 4 * 10^8: counted, never built
        proc = run_cli("gap", "verify", "--pattern", "21", "--text", "2413",
                       "--alpha", "12", timeout=10)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout)["result"]
        assert result["checks_pass"] is True
        assert result["n_prime"] == 3 + 24 * 4**12
        assert int(result["total_copies"]) >= 4 ** (12 * 12 * 2)


class TestKernelCalls:
    def test_each_search_runs_once(self, monkeypatch):
        calls = []
        real = backend.count_pattern

        def counted(pattern, text, *args, **kwargs):
            # the kernels get the permutations' packed arrays: record them as tuples
            calls.append(((tuple(pattern), tuple(text), *args), tuple(sorted(kwargs.items()))))
            return real(pattern, text, *args, **kwargs)

        monkeypatch.setattr(backend, "count_pattern", counted)
        assert matching.count_left_aligned(P("213"), P("24153")) == 2
        assert len(calls) == 1
        for pi, tau, alpha in ((P("213"), P("2413"), 1), (P("21"), P("312"), 2)):
            calls.clear()
            gap.verify_core(pi, tau, alpha)
            # no search repeats, and none runs on the inflated text
            assert calls and len(calls) == len(set(calls))
            assert max(len(text) for (_, text, *_), _ in calls) <= len(tau)
            # no detection: the source's answer is its alpha*k term's count,
            # the source's own pinned count (a search only when |pi| > 2)
            assert [kwargs for _, kwargs in calls if dict(kwargs).get("limit")] == []
            source = ((tuple(pi), tuple(tau)), (("pin_first", True),))
            assert calls.count(source) == (len(pi) > 2)


class TestCheckBounds:
    def test_below_threshold_rejected(self):
        with pytest.raises(ValueError, match="threshold precondition unmet"):
            gap.check_bounds(10, 2, Fraction(1, 3))

    @pytest.mark.parametrize(
        "eps,k,n",
        [
            (Fraction(1, 3), 1, 7**36),
            (Fraction(2, 5), 1, 6**25),
            (Fraction(49, 100), 1, 6**21),
        ],
    )
    def test_chains_hold_above_threshold(self, eps, k, n):
        report = gap.check_bounds(n, k, eps)
        assert report.all_hold, [c.name for c in report.checks if not c.holds]
        assert len(report.checks) == 7

    @pytest.mark.parametrize(
        "k,n,epsilon",
        [
            ("1", "7^100000000", "1/3"),
            ("1", "7^1000000", "1/3"),
            ("30", "2^10000", "1/3"),
            # n^p is the threshold side computed exactly when bit lengths tie
            ("1", "2^140", "333333333333/1000000000000"),
        ],
    )
    def test_huge_operands_refused_at_once(self, k, n, epsilon):
        proc = run_cli("gap", "check-bounds", "--epsilon", epsilon, "--k", k, "--n", n,
                       timeout=10)
        assert proc.returncode == 2
        assert "too large" in proc.stderr

    def test_budget_boundary(self):
        with pytest.raises(ValueError, match="too large"):
            gap.require_power_within_budget(2, gap.POWER_BIT_BUDGET // 2 + 1)
        gap.require_power_within_budget(2, gap.POWER_BIT_BUDGET // 2)

    def test_decimal_digits_exact(self):
        for d in range(1, 700, 7):
            for x in (10 ** (d - 1), 10**d - 1, 10**d, 10**d + 1, 2 ** (3 * d), 3**d):
                assert gap._decimal_digits(x) == len(str(x)), x

    def test_report_serializes(self):
        report = gap.check_bounds(7**36, 1, Fraction(1, 3))
        obj = report.to_json_obj()
        assert obj["all_hold"] is True
        assert len(obj["checks"]) == 7


class TestDecideViaApprox:
    def test_zero_estimate(self):
        assert gap.decide_via_approx(P("12"), P("1234"), 0) is False

    def test_boundary(self):
        assert gap.decide_via_approx(P("12"), P("1234"), 5) is True
        assert gap.decide_via_approx(P("12"), P("1234"), 4) is False

    def test_promise_consistency_on_desk_instances(self):
        # fed an estimator that actually meets a sub-n^(k/2) error bound
        # (here: the exact count), the rule decides every promise instance
        # on the correct side; fed the detection-based estimate, a positive
        # answer would certify the high side, and a low-side-only instance
        # is always answered negatively
        for pi_vals in itertools.permutations((1, 2)):
            pi = Permutation(pi_vals)
            for n in range(1, 4):
                for tau_vals in itertools.permutations(range(1, n + 1)):
                    tau = Permutation(tau_vals)
                    for alpha in (1, 2):
                        core = gap.build_core(pi, tau, alpha)
                        pattern, text = core.pattern, core.text
                        count = matching.count_copies(pattern, text)
                        exact_answer = gap.decide_via_approx(pattern, text, count)
                        detect_answer = gap.decide_via_approx(
                            pattern, text, matching.approx_count(pattern, text)
                        )
                        k2, n2 = len(pattern), len(text)
                        for eps in SAMPLE_EPSILONS:
                            hi = gap.meets_yes_threshold(count, n2, k2, eps)
                            lo = gap.meets_no_threshold(count, n2, k2, eps)
                            if hi and not lo:
                                assert exact_answer is True
                            if lo and not hi:
                                assert exact_answer is False
                                assert detect_answer is False
                            if detect_answer:
                                assert hi
