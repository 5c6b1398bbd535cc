"""Timed loop of one benchmark run, in a fresh process.

Started by ``run.py`` with the work directory it generated. Runs the
workload's ``rdgauge`` commands in-process through ``rdgauge.cli.main``:
one untimed warm-up iteration, then one command at a time, iteration
after iteration, until ``--seconds`` have passed (closed loop, one
client). Each command is timed on its own. With ``--trace 1`` every
second iteration runs with the tracer installed, so the untraced and
traced medians come from interleaved iterations and their difference
is the tracing overhead. Outputs are checked after the loop, and the result
is written as JSON to ``--result``.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import resource
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_ITERATIONS = 3  # untraced timed iterations, whatever --seconds says


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--work", required=True, type=Path)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", required=True, type=Path)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    from rdgauge import cli

    import tracing
    import workloads

    spec = json.loads((args.work / "spec.json").read_text(encoding="utf-8"))
    commands = workloads.load(args.workload, args.work, spec)
    tracer = tracing.Tracer() if args.trace else None

    def run_once(label, workload, traced: bool, iteration: int):
        argv_cmd = workload.argv()
        workload.reset()
        gc.collect()
        if traced:
            tracer.install()
            call = partial(tracer.command, label, iteration, cli.main,
                           argv_cmd)
        else:
            call = partial(cli.main, argv_cmd)
        out = io.StringIO()
        try:
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                start = time.perf_counter()
                try:
                    code = call()
                except Exception as exc:  # a traceback: the command failed
                    code = f"raised {exc!r}"
                elapsed = time.perf_counter() - start
        finally:
            if traced:
                tracer.uninstall()
        if traced and hasattr(workload, "spawns"):
            tracer.count("spawns", workload.spawns())
        return elapsed, workload.observe(code, out.getvalue())

    def failures_of(check, *args) -> list:
        try:
            return check(*args)
        except Exception as exc:  # malformed output fails the check
            return [f"check raised {exc!r}"]

    # Warm-up iteration: caches, lazy imports.
    observations = [(workload, run_once(label, workload, False, -1)[1])
                    for label, workload in commands]
    command_s = {label: [] for label, _ in commands}
    iterations = {False: [], True: []}
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(iterations[False]) > len(
            iterations[True])
        total = 0.0
        for label, workload in commands:
            elapsed, obs = run_once(label, workload, traced,
                                    len(iterations[True]))
            total += elapsed
            observations.append((workload, obs))
            if not traced:
                command_s[label].append(elapsed)
        iterations[traced].append(total)
        done = time.perf_counter() - start >= args.seconds
        if done and len(iterations[False]) >= MIN_ITERATIONS and (
                not args.trace or len(iterations[True]) >= len(
                    iterations[False])):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures = [failures_of(workload.check, obs)
                for workload, obs in observations]
    for i, (_, workload) in enumerate(commands):
        failures[i] = failures_of(workload.exact_failures) + failures[i]
    result = {
        "command_s": command_s,
        "iteration_s": iterations[False],
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(observations),
        "failed": sum(1 for f in failures if f),
        "failures": [msg for f in failures for msg in f][:20],
    }
    if tracer is not None:
        per_iteration = list(tracer.metrics(tracer.iterations).values())
        layers = tracing.median_metrics(per_iteration)
        untraced = statistics.median(iterations[False])
        traced = statistics.median(iterations[True])
        layers["trace.iteration_s"] = traced
        layers["trace.overhead_s"] = traced - untraced
        layers["trace.overhead_share"] = (traced - untraced) / untraced
        result["traced_s"] = iterations[True]
        result["layers"] = layers
        per_command = tracer.metrics(list(enumerate(tracer.labels)))
        result["layers_by_command"] = {
            label: tracing.median_metrics(
                [m for (_, lab), m in per_command.items() if lab == label])
            for label, _ in commands}
        counters = [name for name, (unit, _) in tracing.PER_LAYER.items()
                    if unit in ("count", "bytes")]
        result["counters_repeat"] = all(
            len({m[name] for (_, lab), m in per_command.items()
                 if lab == label}) == 1
            for label, _ in commands for name in counters)
        if args.spans:
            tracer.write(args.spans)
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
