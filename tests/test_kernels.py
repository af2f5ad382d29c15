"""Compiled and pure kernels implement the same contract."""
import gc
import inspect
import itertools
import json
import os
import random
import shutil
import subprocess
import sys
from array import array
from math import comb, prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from click.testing import CliRunner
from hypothesis import strategies as st

from permpat import _kernels_py, backend, cli, matching
from permpat.core import Permutation

try:
    from permpat import _kernels
    KERNELS = [_kernels_py, _kernels]
except ImportError:
    KERNELS = [_kernels_py]

IDS = [k.BACKEND_NAME for k in KERNELS]

KERNEL_API = {"count_pattern", "count_inversions", "is_permutation", "parse_values", "format_values"}


def naive_count(pattern, text, pin_first=False):
    k, n = len(pattern), len(text)
    total = 0
    for comb in itertools.combinations(range(n), k):
        if pin_first and comb[0] != 0:
            continue
        if all(
            (pattern[a] < pattern[b]) == (text[comb[a]] < text[comb[b]])
            for a in range(k)
            for b in range(a + 1, k)
        ):
            total += 1
    return total


def inflate(sigma, sizes):
    """sigma with position i blown up into an increasing block of
    sizes[i] elements."""
    by_value = sorted(range(len(sigma)), key=lambda i: sigma[i])
    start, top = {}, 1
    for i in by_value:
        start[i] = top
        top += sizes[i]
    return [start[i] + t for i in range(len(sigma)) for t in range(sizes[i])]


def random_sizes(rng, n, parts):
    """parts positive sizes summing to n, cut at seeded random points."""
    cuts = sorted(rng.sample(range(1, n), parts - 1))
    return [b - a for a, b in zip([0, *cuts], [*cuts, n])]


@pytest.fixture(params=KERNELS, ids=IDS)
def kernel(request):
    return request.param


class TestCountPattern:
    def test_empty_pattern_rejected(self, kernel):
        with pytest.raises(ValueError):
            kernel.count_pattern((), (1,))

    def test_pattern_longer_than_text(self, kernel):
        assert kernel.count_pattern((1, 2), (1,)) == 0

    def test_exhaustive_against_subset_enumeration(self, kernel):
        texts = [
            t for n in range(1, 6) for t in itertools.permutations(range(1, n + 1))
        ]
        patterns = [
            p for k in range(1, 4) for p in itertools.permutations(range(1, k + 1))
        ]
        for pat in patterns:
            for txt in texts:
                for pin in (False, True):
                    assert kernel.count_pattern(pat, txt, pin) == naive_count(pat, txt, pin)

    def test_limit_truncates(self, kernel):
        # 12 in increasing text has binom(6,2)=15 copies
        assert kernel.count_pattern((1, 2), tuple(range(1, 7))) == 15
        assert kernel.count_pattern((1, 2), tuple(range(1, 7)), False, 1) == 1

    @pytest.mark.parametrize("limit", [2, 3, -1, 2**64])
    def test_limit_other_than_count_or_detect_is_refused(self, kernel, limit):
        # limit 0 counts and 1 detects; the kernels answer nothing else
        with pytest.raises(ValueError, match=rf"limit 0 \(count\) or 1 \(detect\), not {limit}"):
            kernel.count_pattern((1, 2), tuple(range(1, 7)), False, limit)

    @pytest.mark.parametrize("n", [1, 2, 10])
    @pytest.mark.parametrize("pattern", [(0, 0, 7), (1, 3), (0, 1), (2, 2), (3, 1, 3), (2**70, 1)])
    def test_refuses_a_pattern_outside_one_to_k(self, kernel, pattern, n):
        # with one message on both backends, also where the pattern is
        # longer than the text and no search runs
        message = rf"^count_pattern needs a pattern of distinct values in 1\.\.{len(pattern)}$"
        for pin, limit in itertools.product((False, True), (0, 1)):
            with pytest.raises(ValueError, match=message):
                kernel.count_pattern(pattern, tuple(range(1, n + 1)), pin, limit)

    def test_pin_first(self, kernel):
        assert kernel.count_pattern((2, 1, 3), (2, 4, 1, 5, 3), True) == 2
        assert kernel.count_pattern((1, 2), (2, 1), True) == 0

    @pytest.mark.parametrize("seed", range(5))
    def test_random_cross_check(self, kernel, seed):
        rng = random.Random(seed)
        for _ in range(200):
            k = rng.randint(1, 4)
            n = rng.randint(1, 8)
            pat = list(range(1, k + 1))
            txt = list(range(1, n + 1))
            rng.shuffle(pat)
            rng.shuffle(txt)
            assert kernel.count_pattern(pat, txt) == naive_count(pat, txt)


def quadratic_order_constraints(pattern):
    """The O(k^2) scan of all earlier positions that the pure kernel used
    before it bisected a sorted list; kept as the oracle."""
    k = len(pattern)
    pred = [-1] * k
    succ = [-1] * k
    for j in range(k):
        lo, hi = 0, k + 1
        for p in range(j):
            if lo < pattern[p] < pattern[j]:
                lo = pattern[p]
                pred[j] = p
            elif pattern[j] < pattern[p] < hi:
                hi = pattern[p]
                succ[j] = p
    return pred, succ


class TestOrderConstraints:
    @settings(max_examples=100, deadline=None)
    @given(
        pat=st.one_of(st.integers(0, 12), st.integers(0, 500)).flatmap(
            lambda k: st.permutations(range(1, k + 1))
        )
    )
    def test_matches_quadratic_scan(self, pat):
        assert _kernels_py._order_constraints(pat) == quadratic_order_constraints(pat)


class TestCountInversions:
    def test_small_values(self, kernel):
        assert kernel.count_inversions(()) == 0
        assert kernel.count_inversions((1,)) == 0
        assert kernel.count_inversions((2, 1)) == 1
        assert kernel.count_inversions((2, 4, 1, 5, 3)) == 4

    def test_extremes(self, kernel):
        n = 200
        assert kernel.count_inversions(tuple(range(1, n + 1))) == 0
        assert kernel.count_inversions(tuple(range(n, 0, -1))) == n * (n - 1) // 2

    def test_random_against_quadratic(self, kernel):
        rng = random.Random(99)
        for _ in range(50):
            n = rng.randint(0, 60)
            vals = list(range(1, n + 1))
            rng.shuffle(vals)
            naive = sum(
                1 for a in range(n) for b in range(a + 1, n) if vals[a] > vals[b]
            )
            assert kernel.count_inversions(vals) == naive

    @pytest.mark.parametrize("bad", [
        (0, 1), (1, 3), (-1, 1), (0,), (2,), (1, 2, 2**40),
        # repeats are refused like values outside 1..n; the last one repeats
        # a value of the second 64-bit word of the values seen
        (1, 1), (2, 1, 2), (*range(1, 130), 65),
    ])
    def test_value_outside_one_to_n_raises(self, kernel, bad):
        with pytest.raises(ValueError, match=rf"values in 1\.\.{len(bad)}"):
            kernel.count_inversions(array("l", bad))

    @pytest.mark.parametrize("n", [63, 64, 65, 127, 128, 129, 2**16 - 1, 2**16, 2**16 + 1])
    def test_closed_forms_at_tree_power_of_two_edges(self, kernel, n):
        # the values seen fill 64-bit words, so a new word starts past
        # n = 64 and 128; the walks p += p & -p and p &= p - 1 of the tree
        # over those words change length at powers of two (1024 words at
        # n = 2^16).  A rotation (r+1..n, 1..r) has r(n - r) inversions
        assert kernel.count_inversions(array("l", range(n, 0, -1))) == n * (n - 1) // 2
        for r in (1, n // 2, n - 1):
            rotation = array("l", range(r + 1, n + 1)) + array("l", range(1, r + 1))
            assert kernel.count_inversions(rotation) == r * (n - r)

    def test_pure_count_leaves_no_reference_cycle(self):
        # garbage left in a cycle would hold the working copies of the
        # input until the next full collection
        vals = list(range(1000, 0, -1))
        gc.collect()
        gc.disable()
        try:
            _kernels_py.count_inversions(vals)
            assert gc.collect() == 0
        finally:
            gc.enable()


def public_functions(module):
    return {
        name
        for name, obj in vars(module).items()
        if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not name.startswith("_")
    }


class TestContract:
    def test_backends_define_the_same_public_functions(self):
        for module in KERNELS:
            assert public_functions(module) == KERNEL_API, module.__name__

    def test_backend_reexports_each_function(self):
        for name in KERNEL_API:
            assert getattr(backend, name) is getattr(backend._impl, name)

    def test_kernels_leave_the_passed_arrays_unchanged(self, kernel):
        pattern = array("l", (2, 1, 3))
        text = array("l", (5, 3, 6, 1, 4, 2, 7))
        assert kernel.count_pattern(pattern, text) == naive_count(pattern, text)
        assert kernel.count_pattern(pattern, text, True, 1) == 1
        assert kernel.count_inversions(text) == 10
        assert (pattern.tolist(), text.tolist()) == ([2, 1, 3], [5, 3, 6, 1, 4, 2, 7])

    def test_parse_and_format(self, kernel):
        assert kernel.parse_values(" 2\t4 1\n5\x1c3 ") == (array("l", (2, 4, 1, 5, 3)), False)
        assert kernel.parse_values("") == (array("l"), True)
        assert kernel.parse_values("+5 007 1_0 -3 \u0663") == (array("l", (5, 7, 10, -3, 3)), False)
        with pytest.raises(ValueError):
            kernel.parse_values("1 x")
        with pytest.raises(OverflowError):
            kernel.parse_values("1 " + "9" * 19)
        # 18 digits are the longest token the C parser reads itself; 19 go
        # to the pure parser, which reads this one as a C long
        assert kernel.parse_values(" \t" + "9" * 18 + " 1\n") == (array("l", (10**18 - 1, 1)), False)
        assert kernel.parse_values("\n" + "1" * 19 + " 2 \x1f") == (array("l", (int("1" * 19), 2)), False)
        assert kernel.parse_values("9" * 18 + " 1\n") == (array("l", (10**18 - 1, 1)), True)
        assert kernel.parse_values("1" * 19 + " 2") == (array("l", (int("1" * 19), 2)), True)
        assert kernel.format_values(array("l", (2, -4, 0, 10))) == "2 -4 0 10"
        assert kernel.format_values(array("l")) == ""

    @pytest.mark.parametrize("text, values, canonical", [
        ("", (), True),
        ("\n", (), True),
        ("0", (0,), True),
        ("01 2", (1, 2), False),
        ("1\t2", (1, 2), False),
        ("1\r\n", (1,), False),
        ("1  2", (1, 2), False),
        (" 1", (1,), False),
        ("1 ", (1,), False),
        ("1 2\n\n", (1, 2), False),
        ("-3 1", (-3, 1), True),
        ("10 0 7\n", (10, 0, 7), True),
    ])
    def test_parse_tells_canonical_text(self, kernel, text, values, canonical):
        assert kernel.parse_values(text) == (array("l", values), canonical)

    def test_is_permutation(self, kernel):
        assert kernel.is_permutation(array("l"))
        assert kernel.is_permutation(array("l", (2, 4, 1, 5, 3)))
        for bad in ((1, 1), (2,), (0, 1), (1, 3), (-1, 1), (2, 1, 2)):
            assert not kernel.is_permutation(array("l", bad))


@pytest.mark.skipif(len(KERNELS) < 2, reason="compiled kernels not built")
@pytest.mark.parametrize("pattern", [(0, 1), (1, 3), (-1, 1), (2, 2), (1, 2, 2**40), (3, 1, 3)])
def test_compiled_count_refuses_a_pattern_outside_one_to_k(pattern):
    # the C search indexes arrays by pattern values, full count or not
    for limit in (0, 1):
        with pytest.raises(ValueError, match=rf"distinct values in 1\.\.{len(pattern)}"):
            _kernels.count_pattern(pattern, tuple(range(1, 11)), False, limit)


class _CodeLib:
    """Stands in for the compiled library: every kernel returns code."""

    def __init__(self, code):
        self.count_pattern = self.count_inversions = self.is_permutation = lambda *args: code


@pytest.mark.skipif(len(KERNELS) < 2, reason="compiled kernels not built")
@pytest.mark.parametrize("code, error, message", [
    (-1, MemoryError, "^$"),
    (-2, ValueError, r"distinct values in 1\.\.3"),
    (-3, ValueError, r"result could pass 2\^63 - 1"),
])
def test_compiled_result_codes_map_to_one_error_each(monkeypatch, code, error, message):
    # a stand-in library returns each code: past a 3-pattern count on a
    # text of 3,810,780 (TestTriplePass), no input reaches -3 within a
    # test's budget, as a search count needs 2^42 leaves and inversions
    # more than 2^32 values
    monkeypatch.setattr(_kernels, "_lib", _CodeLib(code))
    calls = [
        lambda: _kernels.count_pattern((1, 2, 3), (1, 2, 3)),
        lambda: _kernels.count_inversions((1, 2, 3)),
    ]
    if code == -1:  # is_permutation's only code
        calls.append(lambda: _kernels.is_permutation((1, 2, 3)))
    for call in calls:
        with pytest.raises(error, match=message):
            call()


@pytest.mark.skipif(backend.BACKEND_NAME != "compiled", reason="compiled kernels not in use")
def test_compiled_path_makes_no_per_element_python_pass(monkeypatch):
    # the pure fallbacks, and a copy into a fresh array, would each convert
    # every element between a Python int and a C long
    def refuse(*args, **kwargs):
        raise AssertionError("per-element Python pass on the compiled path")

    values = list(range(1, 301))
    random.Random(5).shuffle(values)
    inversions = _kernels.count_inversions(values)
    copies = _kernels.count_pattern((2, 3, 1), values)
    for name in ("parse_values", "is_permutation", "format_values"):
        monkeypatch.setattr(_kernels_py, name, refuse)
    separators = itertools.cycle([" ", "\t", "\n", "\r\n", "  ", "\x1c", "\x1f"])
    tau = Permutation.parse("".join(f"{next(separators)}{v}" for v in values))
    pi = Permutation.parse("2 3 1")
    assert tau.to_text() == " ".join(map(str, values))
    # the longest token the C parser reads, with separators at both ends
    assert _kernels.parse_values("\x1f" + "9" * 18 + " ") == (array("l", [10**18 - 1]), False)
    monkeypatch.setattr(_kernels, "array", refuse)
    assert matching.count_inversions(tau) == inversions
    assert matching.count_copies(pi, tau) == copies


@pytest.mark.skipif(backend.BACKEND_NAME != "compiled", reason="compiled kernels not in use")
def test_canonical_file_is_echoed_without_format_or_dumps(monkeypatch, tmp_path):
    # a canonical text is echoed as read: neither format_values nor
    # json.dumps passes over it; a tab-separated one is echoed by to_text()
    values = list(range(1, 10**4 + 1))
    random.Random(6).shuffle(values)
    text = " ".join(map(str, values))
    canonical, tabbed = tmp_path / "canonical.txt", tmp_path / "tabbed.txt"
    canonical.write_text(text)
    tabbed.write_text("\t".join(map(str, values)))
    formatted = []
    real_format, real_dumps = _kernels.format_values, json.dumps

    def format_values(vals):
        formatted.append(len(vals))
        return real_format(vals)

    def dumps(obj, *args, **kwargs):
        out = real_dumps(obj, *args, **kwargs)
        assert text not in out, "json.dumps encoded the echoed text"
        return out

    monkeypatch.setattr(_kernels, "format_values", format_values)
    monkeypatch.setattr(backend, "format_values", format_values)
    monkeypatch.setattr(json, "dumps", dumps)

    def report(path):
        res = CliRunner().invoke(cli.main, ["count", "--mode", "inversions", "--text", f"@{path}"])
        assert res.exit_code == 0, res.output
        doc = json.loads(res.stdout)
        del doc["elapsed_ms"]
        return doc

    echoed = report(canonical)
    assert formatted == []
    assert echoed["inputs"]["text"] == text
    assert echoed["result"] == {"count": str(_kernels.count_inversions(values))}
    assert report(tabbed) == echoed
    assert formatted == [len(values)]


def outcome(fn, *args):
    """fn's result, or the type of the ValueError or OverflowError it raises."""
    try:
        return fn(*args)
    except (ValueError, OverflowError) as exc:
        return type(exc)


C_LONG = st.integers(-(2**63), 2**63 - 1)
PAST_C_LONG = st.one_of(st.integers(2**63, 2**70), st.integers(-(2**70), -(2**63) - 1))
# where the number of decimals changes: ±(10^e - 1), ±10^e, ±(10^e + 1),
# and LONG_MIN, whose magnitude is no C long
DIGIT_COUNT_EDGES = st.sampled_from(sorted(
    {s * (10**e + d) for e in range(19) for d in (-1, 0, 1) for s in (1, -1)} | {-(2**63), 2**63 - 1}
))
# what str.split() and int() make of each matters: ASCII and other
# separators, signs, leading zeros, underscores, non-ASCII digits, tokens of
# 19 or more digits and past the range of a C long
TOKENS = st.sampled_from([
    " ", "  ", "\t", "\n", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\xa0", "\u2028",
    "0", "7", "12", "007", "+5", "-3", "-0", "1_0", "_1", "1__0", "\u0663", "\xb2", "\uff11",
    "9" * 18, "9" * 19, "1" + "0" * 18, str(2**63 - 1), str(2**63), str(-(2**63)), "0" * 25 + "1",
    "x", "1e3", "\x00",
])
# texts the compiled parser reads itself, without the pure fallback
ASCII_TEXTS = st.lists(
    st.sampled_from([" ", "\t", "\n", "\x1c", "\x1f", "0", "7", "12", "007", "9" * 18]), max_size=12
).map("".join)
TEXTS = st.one_of(ASCII_TEXTS, st.lists(TOKENS, max_size=12).map("".join), st.text(max_size=30))
# format_values output, some with one or two final newlines and some with
# one separator changed, so the flag is seen on both sides of its edge
CANONICAL_TEXTS = st.builds(
    lambda values, tail: " ".join(map(str, values)) + tail,
    st.lists(st.one_of(st.integers(0, 30), C_LONG), max_size=8),
    st.sampled_from(["", "\n", "\n\n", " ", "\r\n"]),
).flatmap(lambda text: st.one_of(
    st.just(text),
    st.integers(0, max(len(text) - 1, 0)).flatmap(
        lambda i: st.sampled_from([" ", "  ", "\t", "0", "\n"]).map(lambda c: text[:i] + c + text[i + 1:])
    ),
))


@settings(max_examples=400, deadline=None, database=None)
@given(text=st.one_of(TEXTS, CANONICAL_TEXTS))
def test_canonical_flag_property(text):
    # canonical exactly when the text, less one final newline, is what
    # format_values writes, on each backend
    for kernel in KERNELS:
        result = outcome(kernel.parse_values, text)
        if isinstance(result, tuple):
            values, canonical = result
            assert canonical is (text.removesuffix("\n") == kernel.format_values(values))


@pytest.mark.skipif(len(KERNELS) < 2, reason="compiled kernels not built")
class TestBackendsAgree:
    def test_counts_agree_randomized(self):
        rng = random.Random(7)
        for _ in range(500):
            k = rng.randint(1, 6)
            n = rng.randint(1, 10)
            pat = list(range(1, k + 1))
            txt = list(range(1, n + 1))
            rng.shuffle(pat)
            rng.shuffle(txt)
            pin = rng.random() < 0.5
            limit = rng.choice([0, 1])
            assert _kernels_py.count_pattern(pat, txt, pin, limit) == _kernels.count_pattern(
                pat, txt, pin, limit
            )

    def test_inversions_agree_randomized(self):
        rng = random.Random(8)
        for _ in range(50):
            n = rng.randint(0, 300)
            vals = list(range(1, n + 1))
            rng.shuffle(vals)
            assert _kernels_py.count_inversions(vals) == _kernels.count_inversions(vals)

    @settings(max_examples=300, deadline=None, database=None)
    @given(values=st.one_of(
        st.integers(0, 30).flatmap(lambda n: st.permutations(range(1, n + 1))),
        st.integers(1, 30).flatmap(lambda n: st.lists(st.integers(1, n), min_size=n, max_size=n)),
        st.lists(st.integers(-2, 14), max_size=12),
        st.lists(st.one_of(st.integers(-2, 14), PAST_C_LONG), max_size=12),
    ))
    def test_inversions_agree_property(self, values):
        # equal counts within 1..n, and ValueError on both sides outside it,
        # also for a list holding a value past a C long
        assert outcome(_kernels.count_inversions, values) == outcome(_kernels_py.count_inversions, values)

    @settings(max_examples=300, deadline=None, database=None)
    @given(
        # most examples are full counts with k >= 3, which the compiled
        # kernel answers by one pass over a Fenwick tree (k = 3) or by
        # products of rectangle sizes read from its prefix-count table
        pat=st.one_of(st.integers(3, 6), st.integers(1, 6)).flatmap(
            lambda k: st.permutations(range(1, k + 1))
        ),
        txt=st.one_of(st.integers(6, 24), st.integers(1, 24)).flatmap(
            lambda n: st.permutations(range(1, n + 1))
        ),
        pin=st.booleans(),
        limit=st.one_of(st.just(0), st.sampled_from([0, 1])),
    )
    def test_counts_agree_property(self, pat, txt, pin, limit):
        assert _kernels.count_pattern(pat, txt, pin, limit) == _kernels_py.count_pattern(
            pat, txt, pin, limit
        )

    def test_full_counts_agree_exhaustively(self):
        # every pattern of length 2-6, pinned or not, without a limit: the
        # compiled kernel's one pass (k = 3) and pair products (an exact
        # pair, or a swap pair less its partner's count), against the pure
        # scan, on the identity, its reverse and seeded random texts;
        # 6-patterns only on texts of n <= 12, where the pure scan stays
        # fast
        rng = random.Random(40)
        texts = []
        for n in (2, 5, 9, 16, 25):
            texts += [list(range(1, n + 1)), list(range(n, 0, -1))]
        for n in [*range(2, 12), *rng.sample(range(12, 41), 10), 40]:
            texts.append(rng.sample(range(1, n + 1), n))
        for k in range(2, 7):
            for pat in itertools.permutations(range(1, k + 1)):
                for txt in texts if k < 6 else [t for t in texts if len(t) <= 12]:
                    for pin in (False, True):
                        expected = _kernels_py.count_pattern(pat, txt, pin)
                        assert _kernels.count_pattern(pat, txt, pin) == expected, (pat, txt, pin)

    @pytest.mark.parametrize("k", [17, 64, 200, 500])
    def test_long_patterns_agree(self, k):
        # long patterns exercise the compiled kernel's linked-list pass
        # that finds each position's order constraints, against the pure
        # kernel's bisection; each text is the pattern with a few values
        # inserted, so copies exist and the search stays short
        rng = random.Random(k)
        pat = rng.sample(range(1, k + 1), k)
        assert _kernels.count_pattern(pat, pat) == _kernels_py.count_pattern(pat, pat) == 1
        assert _kernels.count_pattern(pat[::-1], pat) == _kernels_py.count_pattern(pat[::-1], pat) == 0
        # swapping values v and v + 1 breaks exactly the constraint between
        # their positions, so a text of the same length holds no copy
        for v in rng.sample(range(1, k), min(k - 1, 20)):
            txt = [v + 1 if x == v else v if x == v + 1 else x for x in pat]
            assert _kernels.count_pattern(pat, txt) == _kernels_py.count_pattern(pat, txt) == 0
        for extra in (1, 2, 3):
            points = [float(v) for v in pat]
            for half in rng.sample(range(k + 1), extra):
                points.insert(rng.randint(0, len(points)), half + 0.5)
            rank = {v: r for r, v in enumerate(sorted(points), start=1)}
            txt = [rank[v] for v in points]
            for pin in (False, True):
                for limit in (0, 1):
                    expected = _kernels_py.count_pattern(pat, txt, pin, limit)
                    assert _kernels.count_pattern(pat, txt, pin, limit) == expected
                    assert expected >= 1 or pin

    @pytest.mark.parametrize("n", [2047, 2048, 2049])
    def test_layered_counts_on_both_sides_of_the_table_cap(self, n):
        # decreasing runs of sizes 1-3, increasing across runs: 3-patterns
        # take the one pass at every n; for pinned 2143 the table serves
        # n <= 2048, the scan n = 2049, and both must give the closed forms
        rng = random.Random(n)
        sizes = []
        while sum(sizes) < n:
            sizes.append(min(rng.randint(1, 3), n - sum(sizes)))
        text, top = [], 0
        for s in sizes:
            text.extend(range(top + s, top, -1))
            top += s
        after = [n - sum(sizes[: i + 1]) for i in range(len(sizes))]
        assert _kernels.count_pattern((3, 2, 1), text) == sum(comb(s, 3) for s in sizes)
        assert _kernels.count_pattern((2, 1, 3), text) == sum(
            comb(s, 2) * a for s, a in zip(sizes, after)
        )
        # pinned 2143: the 1 is in the first run, the 43 in one later run
        assert _kernels.count_pattern((2, 1, 4, 3), text, True) == (sizes[0] - 1) * sum(
            comb(s, 2) for s in sizes[1:]
        )
        if n > 2048:  # unpinned 4-patterns take the quartic scan there
            return
        # 2143: the 21 in one run, the 43 in a later one; 1324: the 1, the
        # 32 and the 4 in three runs from left to right
        before = [n - a - s for s, a in zip(sizes, after)]
        pairs_before = [sum(comb(s, 2) for s in sizes[:b]) for b in range(len(sizes))]
        assert _kernels.count_pattern((2, 1, 4, 3), text) == sum(
            comb(s, 2) * p for s, p in zip(sizes, pairs_before)
        )
        assert _kernels.count_pattern((1, 3, 2, 4), text) == sum(
            b * comb(s, 2) * a for s, b, a in zip(sizes, before, after)
        )

    @pytest.mark.parametrize("sigma, partner", [((2, 4, 1, 3), (3, 4, 1, 2)), ((3, 1, 4, 2), (2, 1, 4, 3))])
    def test_swap_patterns_in_their_inflations(self, sigma, partner):
        # 2413 and 3142 are the 4-patterns without an exact pair: the
        # compiled kernel counts each as a swap sum less the count of its
        # partner, 3412 or 2143.  Both are simple, so a copy in an inflation
        # by increasing blocks takes one element of each block: the
        # inflation holds exactly the product of the block sizes
        rng = random.Random(sum(i * v for i, v in enumerate(sigma)))
        for sizes in ((1, 1, 1, 1), (2, 1, 3, 1), (1, 3, 2, 2), (3, 2, 2, 3)):
            assert _kernels_py.count_pattern(sigma, inflate(sigma, sizes)) == prod(sizes)
        for n in (2047, 2048):
            sizes = random_sizes(rng, n, 4)
            assert _kernels.count_pattern(sigma, inflate(sigma, sizes)) == prod(sizes), sizes
        for _ in range(20):
            txt = inflate(sigma, random_sizes(rng, rng.randint(4, 60), 4))
            for pat in (partner, sigma):
                for pin in (False, True):
                    assert _kernels.count_pattern(pat, txt, pin) == _kernels_py.count_pattern(pat, txt, pin)

    @settings(max_examples=400, deadline=None, database=None)
    @given(text=TEXTS)
    def test_parse_values_property(self, text):
        assert outcome(_kernels.parse_values, text) == outcome(_kernels_py.parse_values, text)

    @settings(max_examples=300, deadline=None, database=None)
    @given(values=st.one_of(
        st.integers(0, 12).flatmap(lambda n: st.permutations(range(1, n + 1))),
        st.lists(st.integers(-2, 12), max_size=12),
        st.lists(C_LONG, max_size=4),
        st.lists(st.one_of(st.integers(1, 4), PAST_C_LONG), max_size=4),
    ))
    def test_is_permutation_property(self, values):
        # a plain list, which may hold values past a C long
        expected = sorted(values) == list(range(1, len(values) + 1))
        assert _kernels.is_permutation(values) is _kernels_py.is_permutation(values) is expected

    @settings(max_examples=300, deadline=None, database=None)
    @given(values=st.lists(st.one_of(st.integers(-12, 12), C_LONG, DIGIT_COUNT_EDGES), max_size=12))
    def test_format_values_property(self, values):
        packed = array("l", values)
        assert _kernels.format_values(packed) == _kernels_py.format_values(packed) == " ".join(map(str, values))

    def test_changed_source_byte_changes_library_path(self):
        source = Path(_kernels.__file__).with_name("_kernels.c").read_bytes()
        mid = len(source) // 2
        changed = source[:mid] + bytes([source[mid] ^ 1]) + source[mid + 1:]
        assert _kernels._library_path(changed) != _kernels._library_path(source)


TRIPLES = list(itertools.permutations((1, 2, 3)))
# the largest n with C(n, 3) <= 2^63 - 1
TRIPLE_MAX_N = 3_810_779


@pytest.mark.skipif(len(KERNELS) < 2, reason="compiled kernels not built")
class TestTriplePass:
    """The compiled kernel counts each 3-pattern, pinned or not, in one pass
    over a Fenwick tree of 64-bit words; the pure kernel's scan, which every
    k takes, is its oracle."""

    @pytest.mark.parametrize("n", [63, 64, 65, 127, 128, 129])
    def test_agrees_with_the_scan_across_word_edges(self, n):
        # the values seen fill 64-bit words, so a new word starts past
        # n = 64 and 128, and the tree's walks change length there
        rng = random.Random(n)
        r = rng.randint(1, n - 1)
        texts = [rng.sample(range(1, n + 1), n), rng.sample(range(1, n + 1), n),
                 [*range(r + 1, n + 1), *range(1, r + 1)]]
        for txt in texts:
            for pat in TRIPLES:
                for pin in (False, True):
                    expected = _kernels_py.count_pattern(pat, txt, pin)
                    assert _kernels.count_pattern(pat, txt, pin) == expected, (pat, pin, txt)

    @pytest.mark.parametrize("n", [2047, 2048, 2049, 10**4])
    def test_closed_forms_in_the_identity_and_its_reverse(self, n):
        # the n = 2049 count of a 3-pattern used to take the cubic scan
        identity = array("l", range(1, n + 1))
        reverse = identity[::-1]
        for pat in TRIPLES:
            full = comb(n, 3) if pat == (1, 2, 3) else 0
            pinned = comb(n - 1, 2) if pat == (1, 2, 3) else 0
            assert _kernels.count_pattern(pat, identity) == full, pat
            assert _kernels.count_pattern(pat, identity, True) == pinned, pat
            assert _kernels.count_pattern(pat[::-1], reverse) == full, pat
            assert _kernels.count_pattern(pat[::-1], reverse, True) == pinned, pat

    def test_counts_of_a_long_text_sum_to_the_triples(self):
        # every 3 text positions hold a copy of exactly one 3-pattern, and
        # every 2 after the first of exactly one pinned one
        n = 10**5
        values = list(range(1, n + 1))
        random.Random(11).shuffle(values)
        txt = array("l", values)
        counts = [_kernels.count_pattern(pat, txt) for pat in TRIPLES]
        pinned = [_kernels.count_pattern(pat, txt, True) for pat in TRIPLES]
        assert min(counts) > 0 and min(pinned) > 0
        assert sum(counts) == comb(n, 3)
        assert sum(pinned) == comb(n - 1, 2)

    @pytest.mark.parametrize("text", [
        (0, 1, 2), (1, 2, 4), (1, 2, 2), (3, 1, 3), (2, 3, 1, 5),
        (*range(1, 130), 65), (*range(1, 65), 0, *range(66, 131)),
        # values that would index far outside the bitset if read as indices
        (1, -(2**62), 2), (2**62, 1, 2), (1, 2, 3, -1), (1, 2, 3, 2**40),
    ])
    def test_refuses_a_text_outside_one_to_n(self, text):
        # the pass indexes its bitset by text values, so it checks each
        # one's range and repeats before reading with it
        message = rf"^count_pattern needs a text of distinct values in 1\.\.{len(text)}$"
        for pat in TRIPLES:
            for pin in (False, True):
                with pytest.raises(ValueError, match=message):
                    _kernels.count_pattern(pat, array("l", text), pin)

    def test_refuses_a_text_whose_count_could_pass_2_63(self):
        # C(n, 3) <= 2^63 - 1 exactly up to TRIPLE_MAX_N; the identity there
        # holds that many copies of 123, and one element more is refused
        # before any value is read
        assert comb(TRIPLE_MAX_N, 3) <= 2**63 - 1 < comb(TRIPLE_MAX_N + 1, 3)
        identity = array("l", range(1, TRIPLE_MAX_N + 1))
        assert _kernels.count_pattern((1, 2, 3), identity) == comb(TRIPLE_MAX_N, 3)
        del identity
        zeros = array("l", bytes(8 * (TRIPLE_MAX_N + 1)))
        for pin in (False, True):
            with pytest.raises(ValueError, match=r"result could pass 2\^63 - 1"):
                _kernels.count_pattern((3, 1, 2), zeros, pin)


PROBE = """
import json, permpat
from permpat import Permutation as P
tau = P.parse("2\\t4 1\\n5 3 7 6")
try:
    P.parse("2 4 1 5 3 7 2")
    refused = None
except ValueError as exc:
    refused = str(exc)
print(json.dumps({
    "backend": permpat.BACKEND_NAME,
    "copies": permpat.count_copies(P((3, 1, 2)), tau),
    "inversions": permpat.count_inversions(tau),
    "text": tau.to_text(),
    "refused": refused,
}))
"""


def import_fresh(tmp_path, path):
    """Run PROBE in a new interpreter whose kernel cache is under tmp_path."""
    src = os.path.dirname(os.path.dirname(_kernels_py.__file__))
    env = dict(os.environ, PATH=path, XDG_CACHE_HOME=str(tmp_path / "cache"))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("PERMPAT_PURE", None)
    proc = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    text = (2, 4, 1, 5, 3, 7, 6)
    assert report["copies"] == _kernels_py.count_pattern((3, 1, 2), text)
    assert report["inversions"] == _kernels_py.count_inversions(text)
    assert report["text"] == "2 4 1 5 3 7 6"
    assert report["refused"] == "not a bijection on 1..7: value 2 at position 7 repeats"
    return report["backend"], sorted((tmp_path / "cache").rglob("*.so"))


class TestKernelBuild:
    @pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
    def test_source_compiles_without_warnings(self, tmp_path):
        from permpat._kernels import _FLAGS  # those of the shipped build

        source = Path(_kernels_py.__file__).with_name("_kernels.c")
        strict = ["cc", "-std=c99", "-pedantic", "-Wall", "-Wextra", "-Werror"]
        proc = subprocess.run(
            [*strict, *_FLAGS, "-o", str(tmp_path / "kernels.so"), str(source)],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        # the file header's claim, standard C for any cc, also without them
        proc = subprocess.run(
            [*strict, "-fsyntax-only", "-x", "c", str(source)],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr

    def test_without_compiler_falls_back_to_pure(self, tmp_path):
        # the probe also parses, prints and validates a text on that backend
        no_cc = tmp_path / "bin"
        no_cc.mkdir()
        backend, libraries = import_fresh(tmp_path, str(no_cc))
        assert backend == "pure-python"
        assert libraries == []

    @pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
    def test_first_import_builds_into_the_cache(self, tmp_path):
        backend, libraries = import_fresh(tmp_path, os.environ["PATH"])
        assert backend == "compiled"
        assert [p.parent.name for p in libraries] == ["permpat"]
        assert libraries[0].name.startswith("_kernels-")

    @pytest.mark.skipif(len(KERNELS) < 2, reason="compiled kernels not built")
    def test_unloadable_library_is_rebuilt(self, tmp_path, monkeypatch):
        # a truncated file under the cache name must not pin the pure backend
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        source = Path(_kernels.__file__).with_name("_kernels.c").read_bytes()
        path = Path(_kernels._library_path(source))
        path.parent.mkdir(parents=True)
        path.write_bytes(b"")
        backend, libraries = import_fresh(tmp_path, os.environ["PATH"])
        assert backend == "compiled"
        assert libraries == [path] and path.stat().st_size > 0
