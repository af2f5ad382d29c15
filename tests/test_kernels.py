"""Compiled and pure kernels implement the same contract."""
import gc
import itertools
import os
import random
import shutil
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permpat import _kernels_py

try:
    from permpat import _kernels
    KERNELS = [_kernels_py, _kernels]
except ImportError:
    KERNELS = [_kernels_py]

IDS = [k.BACKEND_NAME for k in KERNELS]


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
        assert kernel.count_pattern((1, 2), tuple(range(1, 7)), False, 7) == 7

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

    def test_pure_merge_leaves_no_reference_cycle(self):
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
            limit = rng.choice([0, 1, 3])
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
    @given(
        # most examples are full counts with k >= 3, which the compiled
        # kernel answers at the last position from its prefix-count table
        pat=st.one_of(st.integers(3, 6), st.integers(1, 6)).flatmap(
            lambda k: st.permutations(range(1, k + 1))
        ),
        txt=st.one_of(st.integers(6, 24), st.integers(1, 24)).flatmap(
            lambda n: st.permutations(range(1, n + 1))
        ),
        pin=st.booleans(),
        limit=st.one_of(st.just(0), st.sampled_from([0, 1, 3, 2**64, 2**64 + 1])),
    )
    def test_counts_agree_property(self, pat, txt, pin, limit):
        # limits past 2**63 - 1 wrap in a C long long (2**64 + 1 would
        # become 1); they must still mean "no limit"
        assert _kernels.count_pattern(pat, txt, pin, limit) == _kernels_py.count_pattern(
            pat, txt, pin, limit
        )

    @pytest.mark.parametrize("n", [2048, 2049])
    def test_layered_counts_on_both_sides_of_the_table_cap(self, n):
        # decreasing runs of sizes 1-3, increasing across runs: the table
        # serves n = 2048, the scan n = 2049, and both must give the closed
        # forms
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

    def test_changed_source_byte_changes_library_path(self):
        source = Path(_kernels.__file__).with_name("_kernels.c").read_bytes()
        mid = len(source) // 2
        changed = source[:mid] + bytes([source[mid] ^ 1]) + source[mid + 1:]
        assert _kernels._library_path(changed) != _kernels._library_path(source)


PROBE = (
    "import permpat; from permpat import Permutation as P;"
    "print(permpat.BACKEND_NAME,"
    " permpat.count_copies(P((3, 1, 2)), P((2, 4, 1, 5, 3, 7, 6))),"
    " permpat.count_inversions(P((2, 4, 1, 5, 3, 7, 6))))"
)


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
    backend, copies, inversions = proc.stdout.split()
    text = (2, 4, 1, 5, 3, 7, 6)
    assert int(copies) == _kernels_py.count_pattern((3, 1, 2), text)
    assert int(inversions) == _kernels_py.count_inversions(text)
    return backend, sorted((tmp_path / "cache").rglob("*.so"))


class TestKernelBuild:
    @pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
    def test_source_compiles_without_warnings(self, tmp_path):
        source = Path(_kernels_py.__file__).with_name("_kernels.c")
        proc = subprocess.run(
            ["cc", "-Wall", "-Wextra", "-Werror", "-O2", "-shared", "-fPIC",
             "-o", str(tmp_path / "kernels.so"), str(source)],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr

    def test_without_compiler_falls_back_to_pure(self, tmp_path):
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
