"""The benchmark's own generators, answer checks and span arithmetic.

Run with:  python3 -m pytest perfbench/tests
"""
import itertools
import random
import sys
import time
import types

import pytest

import run
import tracing
import workloads
from permpat import gap, matching, psi, selfcheck
from permpat.core import Permutation


def _perm(rng, n):
    return workloads.random_permutation(rng, n)


class TestPsiSweep:
    def test_family_is_the_selfcheck_family(self):
        ours = workloads.psi_family()
        theirs = [inst.to_json_obj() for inst in selfcheck.psi_family()]
        assert len(ours) == len(theirs) == 45564
        assert ours == theirs

    def test_answer_and_lengths_match_the_library(self):
        sample = random.Random(7).sample(workloads.psi_family(), 400)
        for obj in sample:
            inst = psi.PsiInstance.from_json_obj(obj)
            gadget = psi.reduce_psi(inst)
            assert workloads.psi_has_solution(obj) == (psi.solve_psi_bruteforce(inst) is not None)
            assert workloads.psi_gadget_lengths(obj) == (len(gadget.pattern), len(gadget.text))

    def test_check_rejects_a_wrong_length(self):
        wl = workloads.psi_sweep(3)
        assert sum(len(u) for u in wl.units) == 45564
        unit = wl.units[1]
        outs = [psi.verify_reduction(psi.PsiInstance.from_json_obj(r["instance"])).to_json_obj() for r in unit]
        assert wl.check(1, outs) == [True] * len(unit)
        outs[3] = dict(outs[3], text_length=outs[3]["text_length"] + 1)
        outs[5] = dict(outs[5], agree=False)
        outs[7] = None
        assert wl.check(1, outs) == [i not in (3, 5, 7) for i in range(len(unit))]


class TestCountRandom:
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_sum_identities_hold_for_naive_counts(self, k):
        rng = random.Random(k)
        patterns = [Permutation(p) for p in itertools.permutations(range(1, k + 1))]
        for n in range(k, 8):
            tau = Permutation(_perm(rng, n))
            head = Permutation([v - (v > tau[0]) for v in tau.values[1:]])
            copies = [matching.count_copies_naive(p, tau) for p in patterns]
            left = [c - matching.count_copies_naive(p, head) for p, c in zip(patterns, copies)]
            assert workloads.count_group_ok(k, n, copies, left)
            assert not workloads.count_group_ok(k, n, [copies[0] + 1] + copies[1:], left)
            assert not workloads.count_group_ok(k, n, copies, [left[0] + 1] + left[1:])

    def test_check_accepts_library_answers(self):
        wl = workloads.count_random(5, units=1)
        unit, = wl.units
        assert len(unit) == workloads.TEXTS_PER_K * 2 * (6 + 24)
        outs = []
        for req in unit:
            fn = getattr(matching, req["op"])
            outs.append(str(fn(Permutation(req["pattern"]), Permutation(req["text"]))))
        assert wl.check(0, outs) == [True] * len(unit)
        # a wrong count or a raise fails its own text's group, not the others
        same_text = [i for i, req in enumerate(unit) if req["text"] == unit[0]["text"]]
        outs[same_text[0]] = str(int(outs[same_text[0]]) + 1)
        assert wl.check(0, outs) == [i not in same_text for i in range(len(unit))]
        outs[same_text[0]] = None
        assert wl.check(0, outs) == [i not in same_text for i in range(len(unit))]

    def test_every_prefix_of_a_unit_mixes_its_texts(self):
        unit = workloads.count_random(6, units=1).units[0]
        texts = {tuple(req["text"]) for req in unit}
        assert len(texts) == 2 * workloads.TEXTS_PER_K
        first_quarter = {tuple(req["text"]) for req in unit[:len(unit) // 4]}
        assert first_quarter == texts

    def test_sizes_are_stratum_midpoints(self):
        assert workloads.stratified_sizes(2, 128, 256) == [160, 224]
        assert workloads.stratified_sizes(2, 48, 96) == [60, 84]
        assert workloads.stratified_sizes(4, 1, 8) == [2, 4, 6, 8]


class TestGapVerify:
    def test_sources(self):
        sources = workloads.gap_sources()
        assert len(sources) == 2 * 30 * 2 + 6 * 33
        assert len(set(sources)) == len(sources)

    def test_left_aligned_oracle_matches_the_library(self):
        for k in (1, 2, 3):
            for m in range(1, 6):
                for pi in itertools.permutations(range(1, k + 1)):
                    for tau in itertools.permutations(range(1, m + 1)):
                        expect = matching.contains_left_aligned(Permutation(pi), Permutation(tau))
                        assert workloads.has_left_aligned_copy(pi, tau) == expect

    def test_inflated_lengths_match_the_library(self):
        for pi, tau, alpha in workloads.gap_sources():
            assert workloads.inflated_lengths(len(pi), len(tau), alpha) == gap.inflated_lengths(
                len(tau), len(pi), alpha)

    def test_interleave_keeps_every_prefix_in_proportion(self):
        classes = [list(range(c * 1000, c * 1000 + size)) for c, size in enumerate((48, 6, 120, 24))]
        order = workloads.interleave(classes, random.Random(1))
        assert sorted(order) == sorted(itertools.chain(*classes))
        total = sum(len(c) for c in classes)
        for length in range(1, total + 1):
            prefix = order[:length]
            for c, members in enumerate(classes):
                have = sum(1 for x in prefix if x // 1000 == c)
                # each class is within 1 of its share at the prefix's key, and
                # the prefix length within len(classes) of the key's total
                assert abs(have - length * len(members) / total) <= 1 + len(classes)


class TestBigText:
    def test_fenwick_matches_a_naive_pair_count(self):
        rng = random.Random(11)
        cases = [[], [1], list(range(1, 30)), list(range(30, 0, -1))]
        cases += [_perm(rng, n) for n in range(2, 60)]
        for vals in cases:
            naive = sum(1 for i, j in itertools.combinations(range(len(vals)), 2) if vals[i] > vals[j])
            assert workloads.fenwick_inversions(vals) == naive
        for n in range(2, 9):
            vals = _perm(rng, n)
            assert workloads.fenwick_inversions(vals) == matching.count_copies_naive(
                Permutation((2, 1)), Permutation(vals))

    def test_request_and_check(self, tmp_path):
        wl = workloads.big_text(4, tmp_path, tmp_path / "w" / "t.txt", n=500)
        (req,), = wl.units
        assert req["argv"][-1] == "@w/t.txt"
        values = [int(v) for v in (tmp_path / "w" / "t.txt").read_text().split()]
        expect = {"count": str(matching.count_inversions(Permutation(values)))}
        assert wl.check(0, [expect]) == [True]
        assert wl.check(0, [{"count": "0"}]) == [False]


class TestSeeds:
    @pytest.mark.parametrize("name", ["psi-sweep", "count-random", "gap-verify"])
    def test_same_seed_same_inputs(self, name, tmp_path):
        a = workloads.build(name, 9, tmp_path, tmp_path)
        b = workloads.build(name, 9, tmp_path, tmp_path)
        c = workloads.build(name, 10, tmp_path, tmp_path)
        assert a.units == b.units and a.sizes == b.sizes
        assert a.units != c.units

    def test_same_seed_same_big_text(self, tmp_path):
        texts = []
        for seed, name in ((9, "a"), (9, "b"), (10, "c")):
            workloads.big_text(seed, tmp_path, tmp_path / name, n=2000)
            texts.append((tmp_path / name).read_text())
        assert texts[0] == texts[1] != texts[2]


class TestTracing:
    def test_busy_and_self_time(self):
        spans = [
            ["req", "request", 0, 100, None, 1, None],
            ["a1", "A", 10, 40, 0, 1, {"n": 2}],
            ["a2", "A", 15, 20, 1, 1, {"n": 3}],
            ["b", "B", 50, 70, 0, 1, None],
        ]
        totals = tracing.layer_totals(spans)
        assert totals["A"]["busy_ns"] == 30
        assert totals["A"]["self_ns"] == 30
        assert totals["A"]["counts"] == {"n": 5}
        assert totals["A"]["parents"] == {"request": 1, "A": 1}
        assert totals["request"]["self_ns"] == 50
        assert totals["B"]["busy_ns"] == totals["B"]["self_ns"] == 20

    def test_missing_targets_are_recorded_as_absent(self, monkeypatch, tmp_path):
        fake = types.ModuleType("fake_layer_mod")
        fake.present = lambda xs: sum(xs)
        monkeypatch.setitem(sys.modules, "fake_layer_mod", fake)
        targets = {
            "here": [("fake_layer_mod", "present", lambda a, k, r: {"items": len(a[0])}),
                     ("fake_layer_mod", "gone", None)],
            "nowhere": [("fake_layer_mod", "also_gone", None), ("no_such_module_xyz", "f", None)],
        }
        tracer = tracing.Tracer()
        tracer.install(targets)
        assert tracer.absent == ["fake_layer_mod.gone", "fake_layer_mod.also_gone", "no_such_module_xyz.f"]
        assert tracer.absent_layers(targets) == ["nowhere"]
        assert tracer.request(1, lambda: fake.present([1, 2, 3])) == 6
        totals = tracing.layer_totals(tracer.spans)
        assert totals["here"]["counts"] == {"items": 3}
        assert totals["here"]["parents"] == {"request": 1}
        tracer.write(tmp_path / "spans.jsonl")
        assert len((tmp_path / "spans.jsonl").read_text().splitlines()) == 2

    def test_every_target_exists_in_this_commit(self):
        for layer, entries in tracing.TARGETS.items():
            for module_name, path, _ in entries:
                owner = __import__(module_name, fromlist=["x"])
                for part in path.split("."):
                    owner = getattr(owner, part)


class TestClient:
    def test_latency_tail_needs_ten_samples_beyond(self):
        assert run.latency_tail([float(i) for i in range(1000)]) == (99.0, 989.0)
        assert run.latency_tail([float(i) for i in range(50)]) == (75.0, 37.0)
        assert run.latency_tail([1.0] * 15) is None

    def test_judge_counts_raises_and_wrong_answers(self):
        wl = workloads.gap_verify(1)
        runs = [
            run.UnitRun(0, 1, [0.1], [{"ok": False, "error": "ValueError: x"}], 1),
            run.UnitRun(1, 1, [0.1], [{"ok": True, "out": {"checks_pass": False}}], 1),
            run.UnitRun(2, 1, [], [], 0),
        ]
        attempted, failed, errors = run.judge(wl, runs)
        assert (attempted, failed) == (3, 3)
        assert "unit 0: ValueError: x" in errors
        assert errors

    def test_window_measures_only_requests_sent_before_it_closes(self):
        class Slow:
            def between_units(self):
                pass

            def call(self, line):
                results = []
                for _ in range(int(line)):
                    t0 = time.perf_counter()
                    time.sleep(0.05)
                    results.append({"ok": True, "out": None, "t0": t0, "t1": time.perf_counter()})
                return {"results": results}

            def close(self, died):
                pass

        result = run.drive(Slow(), [(b"4", 4), (b"1", 1)], seconds=0.075)
        assert not result["died"]
        first, = result["runs"]
        assert len(first.replies) == 4  # the unit open at the close is completed
        assert first.measured == 2
        assert 0.09 < result["elapsed"] < 0.2

    def test_worker_round_trip(self):
        wl = workloads.psi_sweep(2)
        run.WORK.mkdir(exist_ok=True)
        for fresh, stem in ((False, None), (True, run.WORK / "test-spans")):
            session = run.Session(run.program_env(), time.monotonic() + 60, fresh, stem)
            result = run.drive(session, run.encode(wl), units=2)
            assert session.hello["backend"]
            assert run.judge(wl, result["runs"])[:2] == (2 * len(wl.units[0]), 0)
            assert [u.measured for u in result["runs"]] == [len(wl.units[0])] * 2
            assert len(session.finals) == (2 if fresh else 1)
            assert all(f["rss_kb"] > 0 for f in session.finals)
            if stem is not None:
                assert session.finals[0]["absent_layers"] == []
                layers = tracing.merge_totals([f["layers"] for f in session.finals])
                assert 0 < layers["backend.count_pattern"]["parents"]["matching"] <= 2 * len(wl.units[0])
                for path in session.spans_files:
                    path.unlink()

    def test_paired_alternates_which_worker_goes_first(self):
        order = []

        class Fake:
            def __init__(self, name):
                self.name = name

            def between_units(self):
                pass

            def call(self, line):
                order.append(self.name)
                return {"results": [self.name]}

            def close(self, died):
                order.append(f"close {self.name}")

        paired = run.Paired(Fake("plain"), Fake("traced"))
        assert paired.call(b"") == {"results": ["traced"]}
        assert paired.call(b"") == {"results": ["traced"]}
        paired.close(False)
        assert order == ["plain", "traced", "traced", "plain", "close plain", "close traced"]
        assert paired.plain_replies == [{"results": ["plain"]}] * 2
