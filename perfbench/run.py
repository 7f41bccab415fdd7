"""Benchmark of the icoswitch command line, end to end and layer by layer.

Usage (from the root of an icoswitch checkout):

    python3 perfbench/run.py --workload {fig2,sweep,point,verify} --seed N --seconds S --trace {0,1}

One process, one thread.  The workload's fixed list of CLI calls (a pass)
is made in-process through ``icoswitch.cli.main`` and repeated until
``--seconds`` have passed (at least three passes, four when traced).  After
every pass the benchmark reads back what the program wrote, checks it
against its own reference computations, and requires the pass's output to be
byte-identical to the first pass's.

``--trace 0`` reports the end-to-end metrics, measured with nothing wrapped:
setup_s (median over fresh interpreters, spread over the run, of importing
icoswitch and building the inputs), solve_s (median pass wall time) and peak_rss_mb.  ``--trace 1``
alternates plain and traced passes and reports the per-layer metrics of
``tracing.py`` from the traced ones, plus the tracing overhead.  The last line
of standard output is the result as JSON; it and the traced spans are also
written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_PROBES = 9  # fresh interpreters per run, spread over it; setup_s is their median


def setup_probe(workload: str, seed: int) -> dict[str, float]:
    """Set-up timings of ``setup_probe.py`` in one fresh interpreter."""
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
        capture_output=True, text=True, timeout=120, check=True,
    )  # fmt: skip
    return json.loads(done.stdout.splitlines()[-1])


def run_pass(cli, workload) -> tuple[float, list[int], list[str]]:
    """Make one pass of CLI calls; returns (wall seconds, exit codes, stdout of each call)."""
    buf, ends, codes = io.StringIO(), [], []
    with contextlib.redirect_stdout(buf):
        start = time.perf_counter()
        for argv in workload.ops:
            try:
                codes.append(cli.main(argv))
            except SystemExit as exc:  # argparse rejected the arguments
                codes.append(exc.code)
            ends.append(buf.tell())
        elapsed = time.perf_counter() - start
    text = buf.getvalue()
    return elapsed, codes, [text[a:b] for a, b in zip([0, *ends[:-1]], ends)]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("fig2", "sweep", "point", "verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "icoswitch" / "__init__.py").is_file():
        print(f"perfbench: no icoswitch source at {SRC / 'icoswitch'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    probes = [setup_probe(args.workload, args.seed)]
    import icoswitch.cli as cli

    import tracing
    import workloads

    if Path(cli.__file__).resolve().parent != SRC / "icoswitch":
        print(f"perfbench: imported icoswitch from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workload = workloads.build(args.workload, args.seed)
    tracer = tracing.Tracer()
    times: dict[bool, list[float]] = {False: [], True: []}
    traced_passes: list[tuple[dict, dict]] = []
    problems: list[str] = []
    attempted = failed = 0
    first_digest = None
    min_passes = 4 if args.trace else 3
    start = time.perf_counter()
    while len(times[False]) + len(times[True]) < min_passes or time.perf_counter() < start + args.seconds:
        traced = bool(args.trace) and len(times[False]) > len(times[True])
        gc.collect()
        if traced:
            tracer.calls.clear()
            tracer.self_ns.clear()
            tracer.recording = not traced_passes  # keep the spans of the first traced pass
            restore = tracing.install(tracer)
            try:
                elapsed, codes, stdout = tracer.wrap("pass", run_pass)(cli, workload)
            finally:
                restore()
            traced_passes.append((dict(tracer.calls), dict(tracer.self_ns)))
            tracer.recording = False
        else:
            elapsed, codes, stdout = run_pass(cli, workload)
        times[traced].append(elapsed)
        attempted += len(codes)
        failed += sum(code != 0 for code in codes)
        try:
            workload.check(stdout)
        except Exception as exc:  # any malformed output is a failed check, reported below
            problems.append(f"{type(exc).__name__}: {exc}")
        digest = hashlib.sha256("".join(stdout).encode())
        for path in workload.files:
            digest.update(path.read_bytes())
        first_digest = first_digest or digest.hexdigest()
        if digest.hexdigest() != first_digest:
            problems.append("output differs from the first pass's")
        # Spread the set-up probes over the run, so that they meet the host as the passes do.
        while len(probes) < SETUP_PROBES * min(1.0, (time.perf_counter() - start) / args.seconds):
            probes.append(setup_probe(args.workload, args.seed))

    setup = {key: statistics.median(probe[key] for probe in probes) for key in probes[0]}

    if args.trace:
        metrics = tracing.layer_metrics(traced_passes)
        metrics["import.numpy_ms"] = (setup["numpy_ms"], "ms")
        metrics["import.icoswitch_ms"] = (setup["icoswitch_ms"], "ms")
        metrics["trace.overhead_s"] = (statistics.median(times[True]) - statistics.median(times[False]), "s")
        tracer.write(
            HERE / "out" / f"trace-{args.workload}.json.gz",
            {
                "workload": args.workload,
                "seed": args.seed,
                "passes": [{"calls": calls, "self_ns": self_ns} for calls, self_ns in traced_passes],
            },
        )
    else:
        metrics = {
            "setup_s": (setup["setup_s"], "s"),
            "solve_s": (statistics.median(times[False]), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    for problem in problems[:5]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    line = json.dumps(result)
    (HERE / "out" / f"result-{args.workload}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
