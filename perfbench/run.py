#!/usr/bin/env python3
"""permpat benchmark: four workloads, end-to-end metrics, and a traced run for
per-layer numbers.

Each workload runs in its own single-threaded worker process (worker.py),
driven as a closed loop by this one client: a unit of requests goes out as
one message, and the next only after its reply arrived.  This client never
imports permpat; it makes the inputs from the seed and checks every reply
against answers from workloads.py, after the window has closed.

  python3 perfbench/run.py --workload NAME|all --seed N [--trace 0|1]

Every run measures for ``run_seconds`` of BENCHMARK.json; ``--seconds`` is
accepted only with that value.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` sends every unit to an untraced and a traced worker
and prints the per-layer metrics.  The last line of stdout is one JSON
object; a human-readable report precedes it, and the full result (with its
stamp) is written under perfbench/.work/.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = BENCH_DIR / ".work"
SETUP_PROBES = 7
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)
TAIL_MIN_BEYOND = 10
# A run must end within 180 s even when the program hangs: replies that have
# not arrived this long after the workload started count as failures.  A
# window of at most MAX_WINDOW_S leaves room inside it for set-up and for
# the longest unit (a traced big-text pair, about 17 s) still open at the close.
HARD_LIMIT_S = 165
MAX_WINDOW_S = 60


class WorkerDied(RuntimeError):
    pass


class Worker:
    """One worker process; units and replies are JSON lines over its stdin/stdout."""

    def __init__(self, env: dict, deadline: float, spans_path: Path | None = None):
        self.deadline = deadline
        cmd = [sys.executable, str(BENCH_DIR / "worker.py")]
        if spans_path is not None:
            cmd += ["--trace", str(spans_path)]
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self.hello = self._read()

    def _read(self) -> dict:
        # One reply per message, so nothing is ever left in the read buffer
        # and select on the pipe tells whether the next line has begun.
        remaining = self.deadline - time.monotonic()
        if not select.select([self.proc.stdout], [], [], max(remaining, 0))[0]:
            self.proc.kill()
            self.proc.wait()
            raise WorkerDied(f"no reply within {HARD_LIMIT_S} s of the workload's start")
        line = self.proc.stdout.readline()
        if not line:
            raise WorkerDied(f"worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def call(self, line: bytes) -> dict:
        self.proc.stdin.write(line)
        self.proc.stdin.flush()
        return self._read()

    def finish(self) -> dict:
        return self.call(b'{"op": "finish"}\n')

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
                self.proc.wait(timeout=10)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


class Session:
    """The workers one pass runs on: one for the whole pass or, for a
    workload that asks for it, a fresh one per unit."""

    def __init__(self, env: dict, deadline: float, fresh: bool, spans_stem: Path | None = None):
        self.env, self.deadline, self.fresh, self.spans_stem = env, deadline, fresh, spans_stem
        self.worker: Worker | None = None
        self.hello: dict = {}
        self.finals: list[dict] = []  # the finish reply of every worker
        self.spans_files: list[Path] = []

    def between_units(self) -> None:
        if self.fresh and self.worker is not None:
            self._finish()
        if self.worker is None:
            spans = None
            if self.spans_stem is not None:
                spans = self.spans_stem.with_name(f"{self.spans_stem.name}-w{len(self.spans_files)}.jsonl")
                self.spans_files.append(spans)
            self.worker = Worker(self.env, self.deadline, spans)
            self.hello = self.hello or self.worker.hello

    def call(self, line: bytes) -> dict:
        return self.worker.call(line)

    def _finish(self) -> None:
        worker, self.worker = self.worker, None
        try:
            self.finals.append(worker.finish())
        finally:
            worker.close()

    def close(self, died: bool) -> None:
        if self.worker is None:
            return
        if died:
            self.worker.close()
            self.worker = None
        else:
            self._finish()


def pin_to_one_cpu() -> int | None:
    """Run this client and, by inheritance, its workers on one CPU.

    The client sleeps while a worker computes, so they never compete; what
    pinning removes is the cross-CPU wake-up on every reply, whose latency
    varies widely on small virtual machines.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def program_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts and path.suffix not in (".so", ".pyc"):
            h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_sha() -> str | None:
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def measure_setup(env: dict) -> list[float]:
    """Wall time of fresh interpreters importing permpat and permpat.cli.

    Exit is awaited on a pidfd: ``Popen.wait(timeout)`` polls with sleeps
    of up to 50 ms, which quantised these times into two modes.
    """
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", "import permpat, permpat.cli"], cwd=ROOT, env=env)
        pidfd = os.pidfd_open(proc.pid)
        try:
            exited = select.select([pidfd], [], [], 10)[0]
        finally:
            os.close(pidfd)
        elapsed = time.perf_counter() - t0
        if not exited:
            proc.kill()
        if proc.wait() != 0:
            sys.exit("importing permpat failed")
        times.append(elapsed)
    return times


class UnitRun(NamedTuple):
    index: int  # into Workload.units
    size: int  # requests in the unit
    latencies: list  # seconds each call took in the worker
    replies: list  # one result per request
    measured: int  # leading requests that started while the window was open


def drive(session: Session, lines: list[tuple[bytes, int]], seconds: float | None = None,
          units: int | None = None) -> dict:
    """Closed loop over units in order, cycling: each unit is one message,
    and the next is sent when the reply to the last is back.

    With ``seconds``, a unit starts only while the window is open, and one
    still open when it closes is completed so that it can be checked; its
    requests that started after the close are not measured, so the measured
    mix ends at a request, not at the end of a unit.  With
    ``units``, exactly that many units run and every request is measured.
    Starting a worker is set-up: it is left out of the window, which is
    extended by it.
    """
    runs = []
    died = None
    try:
        session.between_units()
    except WorkerDied as exc:
        return {"runs": runs, "elapsed": 0.0, "died": str(exc)}
    t_start = time.perf_counter()
    deadline = t_start + seconds if seconds is not None else math.inf
    window_end = t_start  # end of the last measured request
    paused = 0.0
    gc.disable()  # the client's own collector pauses would slow the loop
    try:
        while (units is None or len(runs) < units) and time.perf_counter() < deadline:
            if runs:
                t0 = time.perf_counter()
                session.between_units()
                pause = time.perf_counter() - t0
                deadline += pause
                paused += pause
            idx = len(runs) % len(lines)
            line, size = lines[idx]
            runs.append(UnitRun(idx, size, [], [], 0))
            results = session.call(line)["results"]
            measured = [r for r in results if r["t0"] < deadline]
            if measured:
                window_end = max(window_end, measured[-1]["t1"])
            runs[-1] = UnitRun(idx, size, [r["t1"] - r["t0"] for r in results], results, len(measured))
    except (WorkerDied, OSError) as exc:
        died = str(exc)  # the unit in flight stays in ``runs`` without replies
    finally:
        gc.enable()
        session.close(died is not None)
    return {"runs": runs, "elapsed": window_end - t_start - paused, "died": died}


def judge(workload: workloads.Workload, runs: list[UnitRun]) -> tuple[int, int, list[str]]:
    """(attempted, failed, sample errors), checking each unit as a whole."""
    attempted = failed = 0
    errors: list[str] = []
    for run in runs:
        attempted += run.size
        flags = [False] * run.size
        if len(run.replies) == run.size:  # else the worker died during the unit
            errors += [f"unit {run.index}: {r['error']}" for r in run.replies if not r["ok"]]
            try:
                flags = workload.check(run.index, [r["out"] if r["ok"] else None for r in run.replies])
            except (KeyError, TypeError, ValueError) as exc:
                errors.append(f"unit {run.index}: malformed reply ({exc})")
        bad = run.size - sum(1 for f in flags if f)
        if bad and len(errors) < 5:
            errors.append(f"unit {run.index}: {bad} wrong answer(s)")
        failed += bad
    return attempted, failed, errors[:5]


def latency_tail(latencies_ms: list[float]) -> tuple[float, float] | None:
    """(percentile, value): the highest ladder percentile with at least ten samples beyond it."""
    ordered = sorted(latencies_ms)
    n = len(ordered)
    for p in TAIL_LADDER:
        rank = math.ceil(p / 100 * n)
        if rank >= 1 and n - rank >= TAIL_MIN_BEYOND:
            return p, ordered[rank - 1]
    return None


def encode(workload: workloads.Workload) -> list[tuple[bytes, int]]:
    """One message per unit, with its number of requests."""
    return [(json.dumps({"requests": unit}).encode() + b"\n", len(unit)) for unit in workload.units]


def end_to_end(workload, lines, env, seconds, deadline) -> dict:
    setup = measure_setup(env)
    session = Session(env, deadline, workload.fresh_worker)
    run = drive(session, lines, seconds=seconds)
    attempted, failed, errors = judge(workload, run["runs"])
    latencies = [lat * 1000 for u in run["runs"] for lat in u.latencies[:u.measured]]
    completed = len(latencies)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "throughput_rps": (completed / run["elapsed"] if completed else 0.0, "req/s"),
        "latency_p50_ms": (statistics.median(latencies) if latencies else 0.0, "ms"),
        "peak_rss_mb": (max((f["rss_kb"] for f in session.finals), default=0) / 1024, "MB"),
    }
    tail = latency_tail(latencies)
    extra = {
        "latency_tail_ms": None if tail is None else {"percentile": tail[0], "value": tail[1], "samples": completed},
        "error_rate": failed / attempted if attempted else 1.0,
        "elapsed_s": run["elapsed"],
        "setup_samples_s": setup,
        "workers": len(session.finals),
    }
    return {"metrics": metrics, "extra": extra, "attempted": attempted, "failed": failed,
            "errors": errors, "died": run["died"], "backend": session.hello}


class Paired:
    """Sends every unit to an untraced and a traced session, alternating which
    goes first, so that drift in the machine falls on both alike.  Looks like
    a Session to drive(), which sees the traced replies."""

    def __init__(self, plain: Session, traced: Session):
        self.plain, self.traced = plain, traced
        self.plain_replies: list[dict] = []  # the untraced reply to each unit

    def between_units(self) -> None:
        self.plain.between_units()
        self.traced.between_units()

    def call(self, line: bytes) -> dict:
        first, second = (self.plain, self.traced) if len(self.plain_replies) % 2 == 0 else (self.traced, self.plain)
        replies = {id(first): first.call(line)}
        replies[id(second)] = second.call(line)
        self.plain_replies.append(replies[id(self.plain)])
        return replies[id(self.traced)]

    def close(self, died: bool) -> None:
        try:
            self.plain.close(died)
        finally:
            self.traced.close(died)


def traced(workload, lines, env, seconds, deadline, spans_stem) -> dict:
    """Units go to an untraced and a traced worker in turn; per-layer metrics
    per traced request, and the trace overhead as the median over units of
    traced to untraced call time."""
    session = Session(env, deadline, workload.fresh_worker, spans_stem)
    paired = Paired(Session(env, deadline, workload.fresh_worker), session)
    run = drive(paired, lines, seconds=seconds)
    base = [UnitRun(u.index, u.size, [r["t1"] - r["t0"] for r in replies["results"]], replies["results"], u.size)
            for u, replies in zip(run["runs"], paired.plain_replies)]
    attempted, failed, errors = judge(workload, base + run["runs"])
    ratios = [sum(t.latencies) / sum(b.latencies) for b, t in zip(base, run["runs"])
              if t.latencies and sum(b.latencies) > 0]
    requests = max(sum(f.get("requests", 0) for f in session.finals), 1)
    layers = tracing.merge_totals([f.get("layers", {}) for f in session.finals])
    metrics = layer_metrics(layers, requests, 100 * (statistics.median(ratios) - 1) if ratios else 0.0)
    extra = {"requests_traced": requests, "overhead_units": len(ratios),
             "absent_layers": session.finals[0].get("absent_layers", []) if session.finals else [],
             "absent_targets": session.hello.get("absent", []),
             "spans_files": [p.relative_to(ROOT).as_posix() for p in session.spans_files]}
    return {"metrics": metrics, "extra": extra, "attempted": attempted, "failed": failed,
            "errors": errors, "died": run["died"], "backend": session.hello}


def layer_metrics(layers: dict, requests: int, overhead_pct: float) -> dict:
    def get(layer, key):
        t = layers.get(layer, {})
        return t.get(key, 0) if key in ("busy_ns", "self_ns") else t.get("counts", {}).get(key, 0)

    def per_req_s(layer, key="busy_ns"):
        return (get(layer, key) / 1e9 / requests, "s/req")

    def per_req(layer, key):
        return (get(layer, key) / requests, "count/req")

    kernel = "backend.count_pattern"
    calls = get(kernel, "calls")
    detect = get(kernel, "detect_calls")
    inv_busy = get("backend.count_inversions", "busy_ns") / 1e9
    return {
        "core.parse.busy_s": per_req_s("core.parse"),
        "core.parse.elems": per_req("core.parse", "elems"),
        "core.reduce_points.busy_s": per_req_s("core.reduce_points"),
        "core.reduce_points.points": per_req("core.reduce_points", "points"),
        "core.inflate.busy_s": per_req_s("core.inflate"),
        "psi.grid.busy_s": per_req_s("psi.grid"),
        "psi.grid.points": per_req("psi.grid", "points"),
        "psi.oracle.busy_s": per_req_s("psi.oracle"),
        "psi.oracle.calls": per_req("psi.oracle", "calls"),
        "matching.self_s": per_req_s("matching", "self_ns"),
        "matching.kernel_calls_per_req": (layers.get(kernel, {}).get("parents", {}).get("matching", 0) / requests, "count/req"),
        "matching.embeddings.busy_s": per_req_s("matching.embeddings"),
        "matching.embeddings.listed": per_req("matching.embeddings", "listed"),
        f"{kernel}.busy_s": per_req_s(kernel),
        f"{kernel}.calls": per_req(kernel, "calls"),
        f"{kernel}.us_per_call": (get(kernel, "busy_ns") / 1e3 / calls if calls else 0.0, "us"),
        f"{kernel}.text_elems": per_req(kernel, "text_elems"),
        f"{kernel}.matches": per_req(kernel, "matches"),
        f"{kernel}.detect_hit_ratio": (get(kernel, "detect_hits") / detect if detect else 0.0, "ratio"),
        "backend.count_inversions.busy_s": per_req_s("backend.count_inversions"),
        "backend.count_inversions.elems_per_s": (get("backend.count_inversions", "elems") / inv_busy if inv_busy else 0.0, "1/s"),
        "gap.self_s": per_req_s("gap", "self_ns"),
        "cli.self_s": per_req_s("cli", "self_ns"),
        "trace.overhead_pct": (overhead_pct, "%"),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, env: dict, stamp: dict) -> dict:
    """Run one workload, save its stamped result and print its report."""
    deadline = time.monotonic() + HARD_LIMIT_S
    t0 = time.perf_counter()
    workload = workloads.build(name, seed, ROOT, WORK)
    lines = encode(workload)
    prepare_s = time.perf_counter() - t0
    try:
        if trace:
            spans_stem = WORK / "spans" / f"{name}-seed{seed}"
            spans_stem.parent.mkdir(parents=True, exist_ok=True)
            result = traced(workload, lines, env, seconds, deadline, spans_stem)
        else:
            result = end_to_end(workload, lines, env, seconds, deadline)
    finally:
        for path in workload.files:
            path.unlink(missing_ok=True)
    hello = result.pop("backend")
    result["stamp"] = dict(stamp, workload=name, seed=seed, seconds=seconds, trace=int(trace),
                           backend=hello.get("backend"), python=hello.get("python"),
                           input_sizes=workload.sizes, input_prepare_s=prepare_s)
    result["correct"] = result["failed"] == 0 and not result["died"]
    out = WORK / "results" / f"{name}-seed{seed}-trace{int(trace)}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1), encoding="utf-8")
    report(result)
    return result


def report(result: dict) -> None:
    s = result["stamp"]
    print(f"== {s['workload']}  seed {s['seed']}  backend {s['backend']}  PERMPAT_PURE={s['permpat_pure']}"
          f"  python {s['python']}  nproc {s['nproc']}  git {s['git_sha'] or 'n/a'}  src {s['src_digest'][:12]}")
    print("   inputs: " + ", ".join(f"{k}={v}" for k, v in s["input_sizes"].items()))
    for name, (value, unit) in result["metrics"].items():
        print(f"   {name:<40} {value:>14.6g} {unit}")
    extra = result["extra"]
    if "error_rate" in extra:
        tail = extra["latency_tail_ms"]
        if tail:
            print(f"   {'latency_tail_ms':<40} {tail['value']:>14.6g} ms  (p{tail['percentile']:g} of {tail['samples']} samples)")
        else:
            print(f"   {'latency_tail_ms':<40} {'n/a':>14}     (fewer than {TAIL_MIN_BEYOND + 1} samples)")
        print(f"   {'error_rate':<40} {extra['error_rate']:>14.6g} ratio  ({result['failed']} of {result['attempted']} failed)")
    else:
        print(f"   requests traced: {extra['requests_traced']}  overhead from {extra['overhead_units']} unit pairs"
              f"  spans: {' '.join(extra['spans_files'])}")
        if extra["absent_layers"] or extra["absent_targets"]:
            print(f"   absent layers: {extra['absent_layers']}  absent targets: {extra['absent_targets']}")
    for err in result["errors"]:
        print(f"   error: {err}")
    if result["died"]:
        print(f"   worker died: {result['died']}")


def main(argv: list[str] | None = None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text()) if (ROOT / "BENCHMARK.json").exists() else {}
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="must equal run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    seconds = config.get("run_seconds")
    if not isinstance(seconds, int) or not 1 <= seconds <= MAX_WINDOW_S:
        print(f"error: BENCHMARK.json needs run_seconds, a whole number from 1 to {MAX_WINDOW_S}", file=sys.stderr)
        return 2
    if args.seconds is not None and args.seconds != seconds:
        print(f"error: --seconds {args.seconds:g} differs from run_seconds {seconds} in BENCHMARK.json",
              file=sys.stderr)
        return 2
    if not (ROOT / "src" / "permpat" / "__init__.py").is_file():
        print(f"error: no permpat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    cpu = pin_to_one_cpu()
    env = program_env()
    stamp = {"git_sha": git_sha(), "src_digest": source_digest(), "permpat_pure": os.environ.get("PERMPAT_PURE", "unset"),
             "nproc": os.cpu_count(), "pinned_cpu": cpu}

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = [run_workload(name, args.seed, seconds, bool(args.trace), env, stamp) for name in names]
    prefix = len(names) > 1
    summary = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            (f"{r['stamp']['workload']}.{name}" if prefix else name): {"value": value, "unit": unit}
            for r in results for name, (value, unit) in r["metrics"].items()
        },
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
