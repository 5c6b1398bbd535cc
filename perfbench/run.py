#!/usr/bin/env python3
"""rdgauge benchmark: one seeded workload per run, end to end or traced.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload analyze --seed 1 \\
        --seconds 25 --trace 0

Workloads (all closed loop, one client, one ``rdgauge`` command at a
time, in-process through ``rdgauge.cli.main``):

* ``analyze`` -- an iteration is ``rdgauge grid --method classic``,
  ``rdgauge grid --method smart`` and ``rdgauge report --scatter
  --curves-csv`` (S1, S2, S3) over a seeded store of 60 clips x 8
  configs x 12 rungs (5,760 keys plus 10% superseded lines, drop-out
  clips and one non-overlapping pair);
* ``complexity`` -- ``rdgauge complexity`` over four 1080p clips of
  16 frames (two 8-bit moving, one letterboxed, one 10-bit);
* ``encode`` -- ``rdgauge encode --with-vmaf --timing-strict`` over
  384 planned jobs with fake encoders, half of them already stored and
  one rung that always fails.

Each run writes its inputs fresh from ``--seed`` under ``.perfbench/``,
times the set-up (``setup_s``: median of fresh processes importing
``rdgauge.cli`` and making the first call into the hot module), then
starts ``worker.py`` for the timed loop and the output checks. With
``--trace 0`` it reports the end-to-end metrics: ``setup_s``,
``iteration_s`` (the sum, over the commands of one iteration, of each
command's fastest timed run: on a shared host contention only ever
adds time, so the fastest is the steadiest estimate of a command's own
cost) and ``peak_rss_mb`` of the worker. With ``--trace 1`` it reports
the per-layer metrics of ``tracing.py``, the tracing overhead and each
command's own metric (``grid_classic_s``, ``grid_smart_s``,
``report_s``, ``frames_per_s``, ``jobs_per_s``; 0 where the workload
does not run that command), and writes the spans. The last line of
standard output is the result as JSON; the full record, with the
machine it ran on, goes to ``.perfbench/results/``. The exit code is 0
when every output check passed, 1 when one failed, 2 when this is not
an rdgauge checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
REQUIRED = ("src/rdgauge/cli.py", "tests/conftest.py", "tests/oracles.py")
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPS = 5
PROBE_TIMEOUT = 30.0
WORKER_TIMEOUT = 120.0

END_TO_END = {
    "setup_s": "s",
    "iteration_s": "s",
    "peak_rss_mb": "MiB",
}
# Each command's own metric: its fastest untraced time, or the work it
# did per second where the spec counts it (``work_items``).
COMMAND_METRICS = {
    "grid_classic": ("grid_classic_s", "s"),
    "grid_smart": ("grid_smart_s", "s"),
    "report": ("report_s", "s"),
    "complexity": ("frames_per_s", "frames/s"),
    "encode": ("jobs_per_s", "jobs/s"),
}
# Exact per-command counters printed with a traced run.
COMMAND_COUNTERS = ("bd.interpolate.calls", "bd.interpolants_per_curve",
                    "bd.aggregate_curve.calls",
                    "bd.aggregate_curves_per_config", "kernels.blocks",
                    "store.load.lines", "runner.jobs.ok",
                    "runner.jobs.failed", "runner.jobs.skipped",
                    "runner.spawns_per_job")


def _run_group(cmd, env, timeout) -> subprocess.CompletedProcess:
    """Run ``cmd`` in its own process group; on timeout kill the whole
    group, so no descendant outlives the benchmark, and wait for it."""
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        raise RuntimeError(f"{cmd[1]} timed out after {timeout:g} s") from None
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _llc() -> str:
    best = (0, "unknown")
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        if level > best[0]:
            best = (level, f"L{level} {size}")
    return best[1]


def machine_record(nproc: int) -> dict:
    from importlib import metadata

    import numpy
    import scipy
    from rdgauge import kernels

    try:
        numba = metadata.version("numba")
    except metadata.PackageNotFoundError:
        numba = "absent"
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "rdgauge").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": _commit(),
        "src_sha256": digest.hexdigest()[:16],
        "nproc": nproc,
        "cpu": _cpu_model(),
        "llc": _llc(),
        "blas_threads": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": numba,
        "kernel_backend": kernels.active_backend(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: {ROOT} is not an rdgauge checkout "
              f"(missing {', '.join(missing)})", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    os.environ.update({var: str(nproc) for var in BLAS_VARS})
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    machine = machine_record(nproc)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    work = OUT / f"work-{tag}-{os.getpid()}"
    # rdgauge's temporary files stay inside the checkout; a fixed hash
    # seed gives every run the same set and dict layouts.
    env = dict(os.environ, TMPDIR=str(work / "tmp"), PYTHONHASHSEED="0")
    try:
        (work / "tmp").mkdir(parents=True)
        spec = workloads.generate(args.workload, work, args.seed)
        (work / "spec.json").write_text(json.dumps(spec), encoding="utf-8")

        setup = []
        if not args.trace:
            probe = [sys.executable, str(HERE / "probe.py"), args.workload]
            for _ in range(SETUP_REPS):
                start = time.perf_counter()
                proc = _run_group(probe, env, PROBE_TIMEOUT)
                setup.append(time.perf_counter() - start)
                if proc.returncode != 0:
                    sys.stderr.write(proc.stderr.decode(errors="replace"))
                    print("perfbench: set-up probe failed", file=sys.stderr)
                    return 1

        result_path = work / "worker.json"
        worker = [sys.executable, str(HERE / "worker.py"),
                  "--workload", args.workload, "--work", str(work),
                  "--seconds", str(args.seconds), "--trace", str(args.trace),
                  "--result", str(result_path)]
        if args.trace:
            worker += ["--spans", str(results / f"{tag}.spans.jsonl")]
        proc = _run_group(worker, env, WORKER_TIMEOUT)
        if proc.returncode != 0 or not result_path.is_file():
            sys.stderr.write(proc.stderr.decode(errors="replace"))
            print("perfbench: worker failed", file=sys.stderr)
            return 1
        run = json.loads(result_path.read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    commands = {}
    for label, times in run["command_s"].items():
        fastest = min(times)
        commands[COMMAND_METRICS[label][0]] = (
            spec["work_items"] / fastest if "work_items" in spec else fastest)
    if args.trace:
        metrics = {name: {"value": run["layers"][name], "unit": unit}
                   for name, (unit, _) in tracing.PER_LAYER.items()}
        metrics.update({name: {"value": commands.get(name, 0), "unit": unit}
                        for name, unit in COMMAND_METRICS.values()})
    else:
        values = {"setup_s": statistics.median(setup),
                  "iteration_s": sum(min(times) for times
                                     in run["command_s"].values()),
                  "peak_rss_mb": run["peak_rss_mb"]}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    correct = run["failed"] == 0
    line = {"correct": correct, "attempted": run["attempted"],
            "failed": run["failed"], "metrics": metrics}

    summary = [
        f"perfbench {tag}: {run['attempted']} commands, {run['failed']} "
        f"failed, failed_share = {run['failed'] / run['attempted']} ratio"]
    for label, times in run["command_s"].items():
        name, unit = COMMAND_METRICS[label]
        times = sorted(times)
        summary.append(
            f"  {name} = {commands[name]} {unit} (untraced {label}: "
            f"n = {len(times)}, fastest {times[0]} s, median "
            f"{statistics.median(times)} s, slowest {times[-1]} s)")
    summary += [f"  {name} = {m['value']} {m['unit']}"
                for name, m in metrics.items() if name not in commands]
    if args.trace:
        summary.append(f"  counters repeat exactly: {run['counters_repeat']}")
        for label, layers in run["layers_by_command"].items():
            summary.append(f"  {label}: " + ", ".join(
                f"{name} = {layers[name]}" for name in COMMAND_COUNTERS
                if layers[name]))
    summary += [f"  check failed: {msg}" for msg in run["failures"]]
    summary.append("  machine: " + json.dumps(machine))
    print("\n".join(summary))

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": machine, "setup_s": setup, **commands,
              "failed_share": run["failed"] / run["attempted"],
              **run, "result": line}
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1),
                                         encoding="utf-8")
    print(json.dumps(line))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
