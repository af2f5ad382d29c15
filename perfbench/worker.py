"""Benchmark worker: serves one workload's requests in a single-threaded process.

Reads one unit per line on stdin, ``{"requests": [...]}``, runs its
requests one at a time and answers with one line, ``{"results": [...]}``:
per request the output or the error, and the ``time.perf_counter()`` at
which the call started and ended (the clock is system-wide, so the client
can place each request in its window).  The first line it writes names the
backend; ``{"op": "finish"}`` returns the peak resident memory and, when
tracing, the per-layer totals, writes the spans out and ends the process.

Usage (started by run.py, with permpat importable):
  python worker.py [--trace SPANS_FILE]
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import sys
import time
import traceback


def peak_rss_kb() -> int:
    """Peak resident set of this process since it started.

    ``ru_maxrss`` is not used: Linux carries it across exec, so a worker
    would report its parent's peak.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("VmHWM missing from /proc/self/status")


def main(argv: list[str]) -> int:
    # Replies go to a private copy of stdout; anything the library prints
    # lands on stderr instead of corrupting the protocol.
    reply_stream = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)
    sys.stdout = sys.stderr

    import permpat
    from permpat import cli, core, gap, matching, psi

    spans_path = argv[argv.index("--trace") + 1] if "--trace" in argv else None
    tracer = None
    if spans_path:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()

    def run_cli(args: list[str]) -> dict:
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured):
            try:
                cli.main(args, standalone_mode=False)
            except SystemExit as exc:
                if exc.code:
                    raise RuntimeError(f"cli exited with code {exc.code}") from None
        return json.loads(captured.getvalue())["result"]

    handlers = {
        "psi": lambda r: psi.verify_reduction(psi.PsiInstance.from_json_obj(r["instance"])).to_json_obj(),
        "count_copies": lambda r: str(matching.count_copies(core.Permutation(r["pattern"]), core.Permutation(r["text"]))),
        "count_left_aligned": lambda r: str(
            matching.count_left_aligned(core.Permutation(r["pattern"]), core.Permutation(r["text"]))
        ),
        "gap": lambda r: gap.verify_core(core.Permutation(r["pi"]), core.Permutation(r["tau"]), r["alpha"]).to_json_obj(),
        "cli": lambda r: run_cli(r["argv"]),
    }

    def send(obj: dict) -> None:
        reply_stream.write(json.dumps(obj).encode() + b"\n")
        reply_stream.flush()

    send({
        "ready": True,
        "backend": permpat.BACKEND_NAME,
        "python": platform.python_version(),
        "absent": tracer.absent if tracer else [],
    })
    requests_seen = failures = 0
    for line in sys.stdin.buffer:
        msg = json.loads(line)
        if msg.get("op") == "finish":
            reply = {"rss_kb": peak_rss_kb()}
            if tracer:
                tracer.write(spans_path)
                reply["layers"] = tracing.layer_totals(tracer.spans)
                reply["absent_layers"] = tracer.absent_layers()
                reply["requests"] = requests_seen
            send(reply)
            return 0
        results = []
        for req in msg["requests"]:
            requests_seen += 1
            handler = handlers[req["op"]]
            t0 = time.perf_counter()
            try:
                if tracer:
                    result = {"ok": True, "out": tracer.request(requests_seen, lambda: handler(req))}
                else:
                    result = {"ok": True, "out": handler(req)}
            except Exception as exc:  # a failed request is reported, the worker keeps serving
                result = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
                failures += 1
                if failures <= 3:
                    traceback.print_exc()
            result["t0"], result["t1"] = t0, time.perf_counter()
            results.append(result)
        send({"results": results})
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
