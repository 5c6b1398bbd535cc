"""Per-layer spans for the traced run, recorded from outside rdgauge.

``Tracer.install`` rebinds the public functions listed in ``TARGETS``
to timing wrappers, in the function's own module and in every rdgauge
module that imported it by name; ``uninstall`` puts the originals back.
Nothing under ``src/`` changes. Each span keeps its name, start, end,
parent span and command id in memory; ``write`` saves them when the run
ends. A span's self time is its duration minus its children's.

Hooks run after a wrapped call returns, outside its span, and count the
work the call did (blocks, lines, jobs, ...), so ratios are measured at
the layer that does the work. Metrics are reduced per iteration (every
command of one workload iteration together) and per command label.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

# (module, function) pairs under rdgauge that get a span.
TARGETS = (
    ("y4m", "read_frame"), ("y4m", "probe_clip"),
    ("kernels", "block_energies"),
    ("complexity", "analyze_clip"),
    ("store", "load"), ("store", "append"),
    ("bd", "interpolate"), ("bd", "bd_rate"), ("bd", "curves_from_records"),
    ("bd", "classic_bd_rate"), ("bd", "aggregate_curve"),
    ("bd", "smart_bd_rate"),
    ("scenario", "bd_grid"), ("scenario", "records_for_config"),
    ("scenario", "summarize"), ("scenario", "select_presets"),
    ("scenario", "time_grid"),
    ("report", "emit_report"),
    ("svgplot", "line_chart"), ("svgplot", "heatmap"),
    ("svgplot", "scatter_chart"),
    ("encoders", "plan_matrix"), ("encoders", "build_commands"),
    ("runner", "run_plan"), ("runner", "execute"),
    ("runner", "measure_quality"), ("runner", "container_kbps"),
)
MODULES = ("cli", "y4m", "kernels", "complexity", "store", "bd", "scenario",
           "report", "svgplot", "encoders", "runner")
ROOT = "cli.main"
# Multiply-adds of the two 32x32 matrix products per block, counted
# as 2 flops each; abs and sums are left out.
FLOPS_PER_BLOCK = 2 * 2 * 32 ** 3

NAME, START, END, PARENT, CMD, ATTRS = range(6)


class Tracer:
    """Spans and counters of the traced commands of one run."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: list[dict] = []  # one counter dict per command
        self.labels: list[str] = []  # the label of each command
        self.iterations: list[int] = []  # the iteration of each command
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self._line_cache: dict = {}
        self._curves: set = set()
        self._configs: set = set()

    # ------------------------------------------------------------ record

    def _span(self, name, fn, hook):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0, 0, stack[-1] if stack else None,
                    len(self.counts) - 1, None]
            spans.append(span)
            stack.append(index)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if hook is not None:
                hook(self, span, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def command(self, label, iteration, fn, *args):
        """Run one CLI command as the root span of a new command id."""
        self.counts.append({})
        self.labels.append(label)
        self.iterations.append(iteration)
        self._curves.clear()
        self._configs.clear()
        return self._span(ROOT, fn, None)(*args)

    def count(self, key, n=1):
        counts = self.counts[-1]
        counts[key] = counts.get(key, 0) + n

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if name.startswith("rdgauge.") or name == "rdgauge"]
        for mod_name, attr in TARGETS:
            original = getattr(sys.modules[f"rdgauge.{mod_name}"], attr)
            wrapper = self._span(f"{mod_name}.{attr}", original,
                                 HOOKS.get(f"{mod_name}.{attr}"))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, original in reversed(self._saved):
            setattr(module, key, original)
        self._saved.clear()

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for index, span in enumerate(self.spans):
                f.write(json.dumps({
                    "id": index, "name": span[NAME], "start_ns": span[START],
                    "end_ns": span[END], "parent": span[PARENT],
                    "command": span[CMD], "attrs": span[ATTRS]}) + "\n")

    # ------------------------------------------------------------ reduce

    def metrics(self, group: list) -> dict:
        """Per-layer metrics (see PER_LAYER) of each group of traced
        commands; ``group[i]`` is the group key of command ``i``."""
        per_key = {key: {"incl": {}, "self": {}, "calls": {}, "skip_ns": 0,
                         "run_self_ns": 0, "n_spans": 0} for key in group}
        counts = {key: {} for key in group}
        for key, cmd_counts in zip(group, self.counts):
            for name, n in cmd_counts.items():
                counts[key][name] = counts[key].get(name, 0) + n
        child_ns = [0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] is not None:
                child_ns[span[PARENT]] += span[END] - span[START]
        for index, span in enumerate(self.spans):
            acc = per_key[group[span[CMD]]]
            name = span[NAME]
            dur = span[END] - span[START]
            own = dur - child_ns[index]
            acc["n_spans"] += 1
            if name == "runner.execute" and span[ATTRS] == "skipped":
                acc["skip_ns"] += dur
                name = "runner.execute.skip"
            elif name == "runner.execute":
                acc["run_self_ns"] += own
            acc["incl"][name] = acc["incl"].get(name, 0) + dur
            acc["calls"][name] = acc["calls"].get(name, 0) + 1
            acc["self"][name] = acc["self"].get(name, 0) + own
        return {key: _layer_metrics(acc, counts[key])
                for key, acc in per_key.items()}


def _layer_metrics(acc: dict, counts: dict) -> dict:
    incl, own, calls = acc["incl"], acc["self"], acc["calls"]

    def ms(name):
        return incl.get(name, 0) / 1e6

    def ratio(num, den):
        return num / den if den else 0.0

    module_self = {m: 0 for m in MODULES}
    for name, ns in own.items():
        module_self[name.split(".")[0]] += ns
    blocks = counts.get("blocks", 0)
    frames = counts.get("frames", 0)
    jobs_run = counts.get("jobs.ok", 0) + counts.get("jobs.failed", 0)
    cells = counts.get("grid.cells", 0)
    svg = sum(incl.get(f"svgplot.{f}", 0)
              for f in ("line_chart", "heatmap", "scatter_chart"))
    out = {
        "y4m.read_frame.ms": ms("y4m.read_frame"),
        "y4m.bytes_read": counts.get("bytes_read", 0),
        "y4m.probe_clip.ms": ms("y4m.probe_clip"),
        "y4m.probe_clip.calls": calls.get("y4m.probe_clip", 0),
        "kernels.block_energies.ms": ms("kernels.block_energies"),
        "kernels.blocks": blocks,
        "kernels.flat_share": ratio(counts.get("flat_blocks", 0), blocks),
        "kernels.gflops_computed": ratio(
            blocks * FLOPS_PER_BLOCK, own.get("kernels.block_energies", 0)),
        "complexity.analyze_clip.s": ms("complexity.analyze_clip") / 1e3,
        "complexity.self_ms_per_frame": ratio(
            own.get("complexity.analyze_clip", 0) / 1e6, frames),
        "store.load.ms": ms("store.load"),
        "store.load.calls": calls.get("store.load", 0),
        "store.load.lines": counts.get("store_lines", 0),
        "store.load.superseded_share": ratio(
            counts.get("store_lines", 0) - counts.get("store_records", 0),
            counts.get("store_lines", 0)),
        "store.append.ms": ms("store.append"),
        "store.append.calls": calls.get("store.append", 0),
        "bd.interpolate.calls": calls.get("bd.interpolate", 0),
        "bd.interpolants_per_curve": ratio(calls.get("bd.interpolate", 0),
                                           counts.get("curves", 0)),
        "bd.bd_rate.ms": ms("bd.bd_rate"),
        "bd.bd_rate.calls": calls.get("bd.bd_rate", 0),
        "bd.curves_from_records.ms": ms("bd.curves_from_records"),
        "bd.classic_bd_rate.ms": ms("bd.classic_bd_rate"),
        "bd.aggregate_curve.calls": calls.get("bd.aggregate_curve", 0),
        "bd.aggregate_curves_per_config": ratio(
            calls.get("bd.aggregate_curve", 0), counts.get("configs", 0)),
        "bd.aggregate_curve.ms": ms("bd.aggregate_curve"),
        "bd.smart_bd_rate.ms": ms("bd.smart_bd_rate"),
        "scenario.bd_grid.self_ms": own.get("scenario.bd_grid", 0) / 1e6,
        "scenario.grid_na_share": ratio(counts.get("grid.na", 0), cells),
        "scenario.records_for_config.calls": calls.get(
            "scenario.records_for_config", 0),
        "scenario.records_for_config.ms": ms("scenario.records_for_config"),
        "scenario.summarize.ms": ms("scenario.summarize"),
        "scenario.select_presets.ms": ms("scenario.select_presets"),
        "report.emit_report.ms": ms("report.emit_report"),
        "report.files": counts.get("report.files", 0),
        "report.bytes": counts.get("report.bytes", 0),
        "svgplot.ms": svg / 1e6,
        "encoders.plan_matrix.ms": ms("encoders.plan_matrix"),
        "encoders.build_commands.ms": ms("encoders.build_commands"),
        "runner.execute.ms": ms("runner.execute"),
        "runner.execute.skip_ms": acc["skip_ns"] / 1e6,
        "runner.execute.self_ms": acc["run_self_ns"] / 1e6,
        "runner.measure_quality.ms": ms("runner.measure_quality"),
        "runner.container_kbps.ms": ms("runner.container_kbps"),
        "runner.spawns_per_job": ratio(counts.get("spawns", 0), jobs_run),
        "runner.jobs.ok": counts.get("jobs.ok", 0),
        "runner.jobs.failed": counts.get("jobs.failed", 0),
        "runner.jobs.skipped": counts.get("jobs.skipped", 0),
        "trace.spans": acc["n_spans"],
    }
    for module, ns in module_self.items():
        out[f"{module}.self_ms"] = ns / 1e6
    return out


def median_metrics(groups: list[dict]) -> dict:
    """Median of each metric across groups of traced commands."""
    return {name: statistics.median(m[name] for m in groups)
            for name in groups[0]}


# ------------------------------------------------------------------ hooks

def _read_frame(tracer, span, args, kwargs, frame):
    if frame is not None:
        tracer.count("frames")
        tracer.count("bytes_read", frame.y.nbytes + frame.u.nbytes
                     + frame.v.nbytes)


def _block_energies(tracer, span, args, kwargs, grid):
    tracer.count("blocks", grid.size)
    tracer.count("flat_blocks", int(np.count_nonzero(grid == 0.0)))


def _load(tracer, span, args, kwargs, records):
    path = Path(args[0] if args else kwargs["path"])
    if path.exists():
        st = path.stat()
        key = (str(path), st.st_size, st.st_mtime_ns)
        if key not in tracer._line_cache:
            with open(path, "rb") as f:
                tracer._line_cache[key] = sum(
                    chunk.count(b"\n") for chunk in iter(
                        lambda: f.read(1 << 20), b""))
        tracer.count("store_lines", tracer._line_cache[key])
    tracer.count("store_records", len(records))


def _interpolate(tracer, span, args, kwargs, result):
    curve = args[0] if args else kwargs["curve"]
    key = (curve.id, curve.metric_kind, curve.points)
    if key not in tracer._curves:
        tracer._curves.add(key)
        tracer.count("curves")


def _aggregate_curve(tracer, span, args, kwargs, result):
    records = args[0] if args else kwargs["records"]
    if records:
        key = (records[0].family, records[0].preset, records[0].passes)
        if key not in tracer._configs:
            tracer._configs.add(key)
            tracer.count("configs")


def _bd_grid(tracer, span, args, kwargs, grid):
    n = len(grid.labels)
    tracer.count("grid.cells", n * (n - 1))
    tracer.count("grid.na", sum(cell is None for row in grid.cells
                                for cell in row))


def _emit_report(tracer, span, args, kwargs, manifest):
    tracer.count("report.files", len(manifest))
    tracer.count("report.bytes", sum(Path(p).stat().st_size
                                     for p in manifest))


def _execute(tracer, span, args, kwargs, outcome):
    span[ATTRS] = outcome.status
    tracer.count(f"jobs.{outcome.status}")


HOOKS = {
    "y4m.read_frame": _read_frame,
    "kernels.block_energies": _block_energies,
    "store.load": _load,
    "bd.interpolate": _interpolate,
    "bd.aggregate_curve": _aggregate_curve,
    "scenario.bd_grid": _bd_grid,
    "report.emit_report": _emit_report,
    "runner.execute": _execute,
}

# name -> (unit, better) for every per-layer metric the traced run reports.
PER_LAYER = {
    "y4m.read_frame.ms": ("ms", "lower"),
    "y4m.bytes_read": ("bytes", "lower"),
    "y4m.probe_clip.ms": ("ms", "lower"),
    "y4m.probe_clip.calls": ("count", "lower"),
    "kernels.block_energies.ms": ("ms", "lower"),
    "kernels.blocks": ("count", "lower"),
    "kernels.flat_share": ("ratio", "higher"),
    "kernels.gflops_computed": ("GFLOP/s", "higher"),
    "complexity.analyze_clip.s": ("s", "lower"),
    "complexity.self_ms_per_frame": ("ms/frame", "lower"),
    "store.load.ms": ("ms", "lower"),
    "store.load.calls": ("count", "lower"),
    "store.load.lines": ("count", "lower"),
    "store.load.superseded_share": ("ratio", "lower"),
    "store.append.ms": ("ms", "lower"),
    "store.append.calls": ("count", "lower"),
    "bd.interpolate.calls": ("count", "lower"),
    "bd.interpolants_per_curve": ("ratio", "lower"),
    "bd.bd_rate.ms": ("ms", "lower"),
    "bd.bd_rate.calls": ("count", "lower"),
    "bd.curves_from_records.ms": ("ms", "lower"),
    "bd.classic_bd_rate.ms": ("ms", "lower"),
    "bd.aggregate_curve.calls": ("count", "lower"),
    "bd.aggregate_curves_per_config": ("ratio", "lower"),
    "bd.aggregate_curve.ms": ("ms", "lower"),
    "bd.smart_bd_rate.ms": ("ms", "lower"),
    "scenario.bd_grid.self_ms": ("ms", "lower"),
    "scenario.grid_na_share": ("ratio", "lower"),
    "scenario.records_for_config.calls": ("count", "lower"),
    "scenario.records_for_config.ms": ("ms", "lower"),
    "scenario.summarize.ms": ("ms", "lower"),
    "scenario.select_presets.ms": ("ms", "lower"),
    "report.emit_report.ms": ("ms", "lower"),
    "report.files": ("count", "higher"),
    "report.bytes": ("bytes", "lower"),
    "svgplot.ms": ("ms", "lower"),
    "encoders.plan_matrix.ms": ("ms", "lower"),
    "encoders.build_commands.ms": ("ms", "lower"),
    "runner.execute.ms": ("ms", "lower"),
    "runner.execute.skip_ms": ("ms", "lower"),
    "runner.execute.self_ms": ("ms", "lower"),
    "runner.measure_quality.ms": ("ms", "lower"),
    "runner.container_kbps.ms": ("ms", "lower"),
    "runner.spawns_per_job": ("count", "lower"),
    "runner.jobs.ok": ("count", "higher"),
    "runner.jobs.failed": ("count", "lower"),
    "runner.jobs.skipped": ("count", "higher"),
    "trace.spans": ("count", "lower"),
    **{f"{m}.self_ms": ("ms", "lower") for m in MODULES},
    "trace.iteration_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.overhead_share": ("ratio", "lower"),
}
