"""Acceptance suites: property batteries runnable at two scales.

Each criterion function returns a CriterionResult; the CLI ``selfcheck``
command and the acceptance test module both drive these.  ``quick`` only
shrinks the reduction-correctness sweep (a fixed 500-instance sample
instead of the exhaustive family) and the inflation-count sweep of
criterion 12; everything else is identical.
"""
from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from math import comb, isqrt
from typing import Callable, Iterator

from permpat import backend, gap, matching, psi
from permpat.core import Permutation, inflate, reduce_coordinates, standardize

QUICK_SAMPLE_SIZE = 500
QUICK_SAMPLE_SEED = 2749
ORACLE_PLACEMENTS = 10**8  # criterion 12 skips inflations with more C(n', k')
RANDOM_SEED = 40903


@dataclass(frozen=True)
class CriterionResult:
    cid: int
    name: str
    passed: bool
    detail: str
    elapsed_s: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"criterion {self.cid:02d} {self.name}: {status}"
            f" ({self.detail}; {self.elapsed_s:.1f}s)"
        )


def _result(cid: int, name: str, started: float, failures: list[str], detail: str) -> CriterionResult:
    passed = not failures
    full_detail = detail if passed else f"{detail}; first failure: {failures[0]}"
    return CriterionResult(cid, name, passed, full_detail, time.perf_counter() - started)


def all_permutations(n: int) -> Iterator[Permutation]:
    for vals in itertools.permutations(range(1, n + 1)):
        yield Permutation(vals)


def _patterns_up_to(k_max: int) -> list[Permutation]:
    return [p for k in range(1, k_max + 1) for p in all_permutations(k)]


def _texts_up_to(n_max: int) -> list[Permutation]:
    return [t for n in range(1, n_max + 1) for t in all_permutations(n)]


def psi_family(
    ks: tuple[int, ...] = (2, 3), max_n: int = 4, max_g_edges: int = 3
) -> Iterator[psi.PsiInstance]:
    """Exhaustive instance family: every simple G on k vertices with at most
    max_g_edges edges, every H on up to max_n vertices, every coloring."""
    for k in ks:
        g_pairs = list(itertools.combinations(range(1, k + 1), 2))
        for g_count in range(min(len(g_pairs), max_g_edges) + 1):
            for g_edges in itertools.combinations(g_pairs, g_count):
                g = psi.Graph(k, g_edges)
                for n in range(1, max_n + 1):
                    h_pairs = list(itertools.combinations(range(1, n + 1), 2))
                    for h_count in range(len(h_pairs) + 1):
                        for h_edges in itertools.combinations(h_pairs, h_count):
                            h = psi.Graph(n, h_edges)
                            for chi in itertools.product(range(1, k + 1), repeat=n):
                                yield psi.PsiInstance(g, h, chi)


def psi_instances(scale: str) -> list[psi.PsiInstance]:
    family = list(psi_family())
    if scale == "quick":
        return random.Random(QUICK_SAMPLE_SEED).sample(family, QUICK_SAMPLE_SIZE)
    return family


def criterion_1(scale: str = "full") -> CriterionResult:
    """Pruned counting equals naive subset enumeration, exhaustively."""
    started = time.perf_counter()
    failures: list[str] = []
    pairs = 0
    for pi in _patterns_up_to(4):
        for tau in _texts_up_to(6):
            pairs += 1
            fast = matching.count_copies(pi, tau)
            slow = matching.count_copies_naive(pi, tau)
            if fast != slow:
                failures.append(f"({pi}|{tau}): pruned {fast} != naive {slow}")
    return _result(1, "counting-oracle-equivalence", started, failures, f"{pairs} pairs")


def criterion_2(scale: str = "full") -> CriterionResult:
    """Anchored figure-level equalities."""
    started = time.perf_counter()
    failures: list[str] = []
    c = matching.count_copies(Permutation.parse("312"), Permutation.parse("24153"))
    if c != 1:
        failures.append(f"count(312 in 24153) = {c} != 1")
    if not matching.contains_left_aligned(
        Permutation.parse("213"), Permutation.parse("24153")
    ):
        failures.append("left-aligned 213 in 24153 not found")
    blocks = [Permutation.parse(s) for s in ("21", "1", "123")]
    got = inflate(Permutation.parse("132"), blocks)
    if got != Permutation((2, 1, 6, 3, 4, 5)):
        failures.append(f"inflate(132; 21,1,123) = {got}")
    return _result(2, "figure-anchored-values", started, failures, "3 identities")


def criterion_3(scale: str = "full") -> CriterionResult:
    """Left-aligned count equals the difference of two unrestricted counts."""
    started = time.perf_counter()
    failures: list[str] = []
    checked = 0

    def check(pi: Permutation, tau: Permutation) -> None:
        nonlocal checked
        checked += 1
        direct = matching.count_left_aligned(pi, tau)
        diff = matching.count_left_aligned_by_difference(pi, tau)
        if direct != diff:
            failures.append(f"({pi}|{tau}): direct {direct} != difference {diff}")

    for pi in _patterns_up_to(3):
        for tau in _texts_up_to(6):
            check(pi, tau)
    rng = random.Random(RANDOM_SEED)
    for _ in range(1000):
        k = rng.randint(1, 4)
        n = rng.randint(1, 10)
        pi_vals = list(range(1, k + 1))
        tau_vals = list(range(1, n + 1))
        rng.shuffle(pi_vals)
        rng.shuffle(tau_vals)
        check(Permutation(pi_vals), Permutation(tau_vals))
    return _result(3, "left-aligned-identity", started, failures, f"{checked} instances")


def criterion_4(scale: str = "full") -> CriterionResult:
    """Left-aligned detection on the gadget agrees with brute-force PSI."""
    started = time.perf_counter()
    failures: list[str] = []
    instances = psi_instances(scale)
    for inst in instances:
        report = psi.verify_reduction(inst)
        if not report.agree:
            failures.append(
                f"psi={report.psi_answer} ppm={report.ppm_answer} on {inst.to_json_obj()}"
            )
    return _result(
        4, "psi-reduction-correctness", started, failures, f"{len(instances)} instances"
    )


def _ranked(grid: list[tuple[int, int, str]]) -> Permutation:
    """core.reduce_coordinates of a grid's (x, y) pairs."""
    return reduce_coordinates([p[:2] for p in grid])


def criterion_5(scale: str = "full") -> CriterionResult:
    """Gadget size formulas and the closed form hold on every instance of
    the criterion-4 family: psi.pattern_length and psi.text_length, which
    require_gadget_within refuses by, give the lengths of the gadget that
    reduce_psi builds, and its pattern and text equal
    core.reduce_coordinates of the (x, y) pairs of the grids that
    ``psi build`` dumps."""
    started = time.perf_counter()
    failures: list[str] = []
    instances = psi_instances(scale)
    # the family has few distinct G, so each pattern grid is ranked once
    ranked_patterns: dict[psi.Graph, Permutation] = {}
    for inst in instances:
        gadget = psi.reduce_psi(inst)
        want_pat, want_txt = psi.pattern_length(inst.g), psi.text_length(inst)
        if len(gadget.pattern) != want_pat or len(gadget.text) != want_txt:
            failures.append(
                f"sizes ({len(gadget.pattern)},{len(gadget.text)}) !="
                f" ({want_pat},{want_txt}) on {inst.to_json_obj()}"
            )
        if inst.g not in ranked_patterns:
            ranked_patterns[inst.g] = _ranked(psi._pattern_grid(inst.g))
        for side, got, ranked in (
            ("pattern", gadget.pattern, ranked_patterns[inst.g]),
            ("text", gadget.text, _ranked(psi._text_grid(inst))),
        ):
            if got != ranked:
                failures.append(f"{side} {got} != ranked grid {ranked} on {inst.to_json_obj()}")
    return _result(5, "gadget-size-formulas", started, failures, f"{len(instances)} instances")


def _k2_sources() -> Iterator[tuple[Permutation, Permutation]]:
    for pi in all_permutations(2):
        for n in range(1, 5):
            for tau in all_permutations(n):
                yield pi, tau


def criterion_6(scale: str = "full") -> CriterionResult:
    """Inflations of yes-instances have at least n^(alpha^2 k) copies."""
    started = time.perf_counter()
    failures: list[str] = []
    checked = 0
    for pi, tau in _k2_sources():
        if not matching.contains_left_aligned(pi, tau):
            continue
        checked += 1
        core = gap.build_core(pi, tau, alpha=1)
        total = matching.count_copies(core.pattern, core.text)
        bound = len(tau) ** (1 * 1 * len(pi))
        if total < bound:
            failures.append(f"({pi}|{tau}): {total} < {bound}")
    frozen = gap.build_core(Permutation.parse("21"), Permutation.parse("21"), alpha=1)
    expected = (Permutation.parse("231"), Permutation.parse("32541"), 3, 5)
    if (frozen.pattern, frozen.text, frozen.k_prime, frozen.n_prime) != expected:
        failures.append(f"frozen inflation differs: {frozen}")
    frozen_count = matching.count_copies(frozen.pattern, frozen.text)
    if frozen_count != 4:
        failures.append(f"count(231 in 32541) = {frozen_count} != 4")
    return _result(6, "gap-yes-case-bound", started, failures, f"{checked} yes-instances")


def criterion_7(scale: str = "full") -> CriterionResult:
    """No-instance inflations: block untouched, count capped, usage lemma."""
    started = time.perf_counter()
    failures: list[str] = []
    checked = 0
    for pi, tau in _k2_sources():
        if matching.contains_left_aligned(pi, tau):
            continue
        for alpha in (1, 2):
            checked += 1
            report = gap.verify_core(pi, tau, alpha)
            k_prime = report.k_prime
            if report.touching_initial_block != 0:
                failures.append(f"({pi}|{tau},a={alpha}): touching != 0")
            if report.total_copies > comb(len(tau) - 1, k_prime):
                failures.append(f"({pi}|{tau},a={alpha}): total above binom cap")
            if report.block_usage_lemma_holds is False:
                failures.append(f"({pi}|{tau},a={alpha}): block usage lemma")
    return _result(7, "gap-no-case-structure", started, failures, f"{checked} cases")


def criterion_8(scale: str = "full") -> CriterionResult:
    """Exact bound chains above threshold; structural size bounds at desk scale."""
    started = time.perf_counter()
    failures: list[str] = []
    configs = [
        (Fraction(1, 3), 1, 7**36),
        (Fraction(2, 5), 1, 6**25),
        (Fraction(49, 100), 1, 6**21),
    ]
    for eps, k, n in configs:
        report = gap.check_bounds(n, k, eps)
        for check in report.checks:
            if not check.holds:
                failures.append(f"eps={eps}: {check.name}")
    desk = 0
    for pi, tau in _k2_sources():
        yes = matching.contains_left_aligned(pi, tau)
        alphas = (1,) if yes else (1, 2)
        for alpha in alphas:
            desk += 1
            lo_ok, hi_ok = gap.initial_block_bounds(len(tau), len(pi), alpha)
            if not (lo_ok and hi_ok):
                failures.append(f"({pi}|{tau},a={alpha}): structural size bounds")
    return _result(
        8, "bound-chains", started, failures, f"{len(configs)} chains, {desk} desk cases"
    )


def criterion_9(scale: str = "full") -> CriterionResult:
    """Detection-based estimate carries multiplicative error at most n^(k/2).

    The returned integer is isqrt(n^k); the ideal estimate's square is
    exactly n^k, so the error guarantee is checked as A^2 <= C^2 * n^k and
    C^2 <= n^k * n^k for every instance with true count C >= 1.
    """
    started = time.perf_counter()
    failures: list[str] = []
    checked = 0
    for pi in _patterns_up_to(4):
        k = len(pi)
        for tau in _texts_up_to(6):
            n = len(tau)
            c = matching.count_copies(pi, tau)
            estimate = matching.approx_count(pi, tau)
            if c == 0:
                if estimate != 0:
                    failures.append(f"({pi}|{tau}): estimate {estimate} on avoider")
                continue
            checked += 1
            power = n**k
            if estimate != isqrt(power):
                failures.append(f"({pi}|{tau}): estimate {estimate} != isqrt({power})")
            if estimate * estimate > c * c * power:
                failures.append(f"({pi}|{tau}): overestimate beyond n^(k/2)")
            if c * c > power * power:
                failures.append(f"({pi}|{tau}): count beyond ideal-estimate bound")
    return _result(9, "approximation-guarantee", started, failures, f"{checked} containing pairs")


def criterion_10(scale: str = "full") -> CriterionResult:
    """Decision wrapper: squared-comparison boundary and trivial instances.

    An answer is promise-correct when a positive answer implies the high
    side holds and a negative answer implies the low side holds.  The
    canonical trivial yes-instance has n = 1, where both promise sides hold
    simultaneously and either answer is admissible; the trivial no-instance
    satisfies only the low side and must be answered negatively.
    """
    started = time.perf_counter()
    failures: list[str] = []
    pi4 = Permutation.parse("12")
    tau4 = Permutation.parse("1234")
    if gap.decide_via_approx(pi4, tau4, 5) is not True:
        failures.append("estimate 5 on (n=4,k=2) not positive")
    if gap.decide_via_approx(pi4, tau4, 4) is not False:
        failures.append("estimate 4 on (n=4,k=2) not negative (boundary)")
    if gap.decide_via_approx(pi4, tau4, 0) is not False:
        failures.append("estimate 0 not negative")

    for eps in (Fraction(1, 3), Fraction(2, 5), Fraction(49, 100)):
        yes_pi, yes_tau = gap.TRIVIAL_YES
        yes_count = matching.count_copies(yes_pi, yes_tau)
        if not gap.meets_yes_threshold(yes_count, len(yes_tau), len(yes_pi), eps):
            failures.append(f"trivial_yes misses high side at eps={eps}")
        answer = gap.decide_via_approx(
            yes_pi, yes_tau, matching.approx_count(yes_pi, yes_tau)
        )
        if answer and not gap.meets_yes_threshold(yes_count, len(yes_tau), len(yes_pi), eps):
            failures.append(f"trivial_yes positive answer not promise-correct at eps={eps}")
        if not answer and not gap.meets_no_threshold(yes_count, len(yes_tau), len(yes_pi), eps):
            failures.append(f"trivial_yes negative answer not promise-correct at eps={eps}")

        no_pi, no_tau = gap.TRIVIAL_NO
        no_count = matching.count_copies(no_pi, no_tau)
        if not gap.meets_no_threshold(no_count, len(no_tau), len(no_pi), eps):
            failures.append(f"trivial_no misses low side at eps={eps}")
        if gap.meets_yes_threshold(no_count, len(no_tau), len(no_pi), eps):
            failures.append(f"trivial_no unexpectedly on high side at eps={eps}")
        if gap.decide_via_approx(no_pi, no_tau, matching.approx_count(no_pi, no_tau)):
            failures.append(f"trivial_no classified positively at eps={eps}")
    return _result(10, "decision-wrapper", started, failures, "boundary + trivial instances")


def criterion_11(scale: str = "full") -> CriterionResult:
    """Inversion counting: n = 10^6 under one second, exact on samples."""
    started = time.perf_counter()
    failures: list[str] = []
    rng = random.Random(RANDOM_SEED)
    big = list(range(1, 10**6 + 1))
    rng.shuffle(big)
    big_perm = Permutation(big)
    t0 = time.perf_counter()
    matching.count_inversions(big_perm)
    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        failures.append(f"n=10^6 took {elapsed:.2f}s on backend {backend.BACKEND_NAME}")

    def naive(vals: tuple[int, ...]) -> int:
        return sum(
            1
            for a in range(len(vals))
            for b in range(a + 1, len(vals))
            if vals[a] > vals[b]
        )

    for n in (1, 2, 10, 137, 500, 1000):
        vals = list(range(1, n + 1))
        rng.shuffle(vals)
        sample = Permutation(vals)
        fast = matching.count_inversions(sample)
        slow = naive(sample.values)
        if fast != slow:
            failures.append(f"n={n}: fast {fast} != naive {slow}")
    return _result(11, "inversion-performance-floor", started, failures, "10^6 timed, 6 samples vs naive")


def inflation_count_mismatch(pi: Permutation, tau: Permutation, alpha: int) -> str | None:
    """How gap.verify_core's counts disagree with backtracking over the text
    that gap.build_core writes, and its source answer with left-aligned
    detection in tau, or None when every field agrees."""
    inst = gap.build_core(pi, tau, alpha)
    lemma = None
    layers = inst.initial_block_pattern_len
    if layers >= 2:
        block = standardize(inst.text[: inst.initial_block_text_len])
        lemma = layers + 1 > inst.k_prime or not matching.contains(
            standardize(inst.pattern[: layers + 1]), block
        )
    want = (
        matching.count_copies(inst.pattern, inst.text),
        gap.copies_touching_initial_block(inst),
        lemma,
        matching.contains_left_aligned(pi, tau),
    )
    report = gap.verify_core(pi, tau, alpha)
    got = (
        report.total_copies,
        report.touching_initial_block,
        report.block_usage_lemma_holds,
        report.source_has_left_aligned_copy,
    )
    if got == want:
        return None
    return f"({pi}|{tau},a={alpha}): (total, touching, lemma, source) {got} != backtracking {want}"


def criterion_12(scale: str = "full") -> CriterionResult:
    """Decomposition counts of gap inflations equal backtracking on the text,
    and the source answer they carry equals left-aligned detection.

    Every pi with k <= 3, tau with n <= 5 and alpha whose inflated text has
    at most 60 elements, except where C(n', k') > 10^8: backtracking may try
    that many placements, and the one class left out (k = 3, n = 3,
    alpha = 2) takes over a minute on the pure backend.  At quick scale
    n <= 4 and n' <= 40.
    """
    started = time.perf_counter()
    failures: list[str] = []
    checked = 0
    max_n, max_text_len = (4, 40) if scale == "quick" else (5, 60)
    for k, n in itertools.product(range(1, 4), range(1, max_n + 1)):
        for alpha in itertools.count(1):
            k_prime, n_prime = gap.inflated_lengths(n, k, alpha)
            if n_prime > max_text_len:
                break
            if comb(n_prime, k_prime) > ORACLE_PLACEMENTS:
                continue
            for pi in all_permutations(k):
                for tau in all_permutations(n):
                    checked += 1
                    mismatch = inflation_count_mismatch(pi, tau, alpha)
                    if mismatch:
                        failures.append(mismatch)
    return _result(12, "inflation-count-oracle", started, failures, f"{checked} instances")


ALL_CRITERIA: tuple[tuple[int, Callable[[str], CriterionResult]], ...] = (
    (1, criterion_1),
    (2, criterion_2),
    (3, criterion_3),
    (4, criterion_4),
    (5, criterion_5),
    (6, criterion_6),
    (7, criterion_7),
    (8, criterion_8),
    (9, criterion_9),
    (10, criterion_10),
    (11, criterion_11),
    (12, criterion_12),
)


def run_all(scale: str = "full") -> list[CriterionResult]:
    return [fn(scale) for _, fn in ALL_CRITERIA]
