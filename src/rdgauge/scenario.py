"""Scenario gating, preset selection, and comparison grids.

The analysis functions take a record table split once by
``group_by_config`` (a ``ConfigGroups``), and name a config by its
``(family, preset, passes)`` tuple; ``label`` and ``parse_config`` are
the one place that writes a config as text and reads it back.

Three built-in scenarios mirror common 4K streaming tiers:

* S1 -- premium quality, complexity-agnostic: maximise the number of
  encodes clearing the quality bar.
* S2 -- quality with a complexity budget in spirit: the fastest config
  whose coverage stays within a slack of the family's S1 pick.
* S3 -- low complexity: maximise coverage among configs fitting a total
  encode-time budget (default 40 h for the whole dataset).

All gates are strict inequalities: quality counts when it *exceeds* the
threshold, overshoot counts when the measured rate *exceeds* the target
by more than the allowed fraction.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from . import bd as bd_mod
from .errors import AnalysisError, PlanError, RdgaugeError
from .store import MetricRecord
from .table import RecordTable

OBJECTIVE_MAX_COVERAGE = "max_coverage"
OBJECTIVE_BUDGETED = "max_coverage_within_budget"
OBJECTIVE_FASTEST_WITHIN_SLACK = "fastest_within_coverage_slack"

BUDGET_TOLERANCE = 0.01  # S3: fractional slack on the hour budget

Config = tuple[str, str, int]  # (family, preset, passes)


def label(config: Config) -> str:
    """A config as text, ``family:preset:Np``."""
    family, preset, passes = config
    return f"{family}:{preset}:{passes}p"


def parse_config(text: str) -> Config:
    """Read ``family:preset:passes``; the pass count may end in ``p``, so
    the ``label`` of a config whose names hold no colon reads back."""
    parts = text.split(":")
    if len(parts) != 3:
        raise PlanError(f"config must be family:preset:passes, got {text!r}")
    family, preset, passes = parts
    passes = passes.rstrip("p")
    try:
        return family, preset, int(passes)
    except ValueError:
        raise PlanError(f"bad pass count in config {text!r}") from None


@dataclass(frozen=True)
class ScenarioSpec:
    """Gate thresholds and the selection objective for one scenario."""

    id: str
    vmaf_threshold: float = 88.0
    checkpoint_kbps: float = 4000.0
    overshoot_threshold: float = 0.15
    time_budget_hours: Optional[float] = None
    objective: str = OBJECTIVE_MAX_COVERAGE
    coverage_slack_points: float = 5.0  # S2: allowed coverage loss vs S1, in points

    def __post_init__(self):
        if self.vmaf_threshold <= 0 or self.checkpoint_kbps <= 0:
            raise ValueError("scenario thresholds must be positive")
        if self.overshoot_threshold <= 0:
            raise ValueError("overshoot threshold must be positive")
        if self.objective == OBJECTIVE_BUDGETED and self.time_budget_hours is None:
            raise ValueError(f"scenario {self.id}: budgeted objective needs a budget")
        if self.time_budget_hours is not None and not self.time_budget_hours > 0:
            raise ValueError("time budget must be positive")
        if not self.coverage_slack_points >= 0:
            raise ValueError("coverage slack must be >= 0")


def make_scenario(sid: str, **overrides) -> ScenarioSpec:
    """Built-in S1/S2/S3 defaults; anything else starts from S1's gates."""
    base = {
        "S1": dict(objective=OBJECTIVE_MAX_COVERAGE),
        "S2": dict(objective=OBJECTIVE_FASTEST_WITHIN_SLACK),
        "S3": dict(objective=OBJECTIVE_BUDGETED, time_budget_hours=40.0),
    }.get(sid, dict(objective=OBJECTIVE_MAX_COVERAGE))
    base.update(overrides)
    return ScenarioSpec(id=sid, **base)


@dataclass(frozen=True)
class ConfigSummary:
    """Gate counts and total encode time for one (family, preset, passes)."""

    family: str
    preset: str
    passes: int
    n_records: int
    n_above: int  # records with quality strictly above the bar
    n_checkpoint_records: int
    n_checkpoint_above: int
    overshoot_count: int
    total_hours: Optional[float]  # None when no timing data exists

    @property
    def config(self) -> Config:
        return self.family, self.preset, self.passes

    @property
    def label(self) -> str:
        return label(self.config)

    @property
    def coverage_fraction(self) -> float:
        return self.n_above / self.n_records if self.n_records else 0.0


class ConfigGroups:
    """A record table's rows split by (family, preset, passes).

    ``group[k]`` numbers the config of row k of ``table``, and
    ``configs`` lists the configs in order of first appearance.
    """

    def __init__(self, table: RecordTable):
        import numpy as np
        cols, tables = table.columns, table.tables
        code = ((cols["family"].astype(np.int64) * len(tables["preset"])
                 + cols["preset"]) * len(tables["passes"]) + cols["passes"])
        _, first, inverse = np.unique(code, return_index=True,
                                      return_inverse=True)
        by_first = np.argsort(first)
        number = np.empty(len(first), dtype=np.intp)
        number[by_first] = np.arange(len(first))
        self.table = table
        self.group = number[inverse]
        self.configs = [
            (tables["family"][cols["family"][k]],
             tables["preset"][cols["preset"][k]],
             tables["passes"][cols["passes"][k]])
            for k in first[by_first].tolist()]
        self._number = {cfg: g for g, cfg in enumerate(self.configs)}

    def numbers(self, configs: Iterable[Config]) -> list[int]:
        """Each config's number in ``group``; a config with no records
        gets one that numbers no row."""
        return [self._number.get(cfg, len(self.configs)) for cfg in configs]


def group_by_config(records: Iterable[MetricRecord]) -> ConfigGroups:
    """Records split by (family, preset, passes), each group in input order."""
    return ConfigGroups(RecordTable.of(records))


def summarize(groups: ConfigGroups, spec: ScenarioSpec) -> list[ConfigSummary]:
    """Per-config gate counts over deduped records, order-independent.

    Every gate is counted on the table's columns for all configs at
    once; each config's hours are summed left to right over its rows.
    """
    import numpy as np
    cols, nulls = groups.table.columns, groups.table.nulls
    group, n = groups.group, len(groups.configs)

    def count(mask):
        return np.bincount(group[mask], minlength=n).tolist()

    above = ~nulls["vmaf"] & (cols["vmaf"] > spec.vmaf_threshold)
    ckpt = cols["tbr_kbps"] == spec.checkpoint_kbps
    timed = ~nulls["enc_s"]
    n_records = count(slice(None))
    n_above = count(above)
    n_ckpt = count(ckpt)
    n_ckpt_above = count(ckpt & above)
    with np.errstate(over="ignore"):  # inf, as a Python float gives
        overshoot = count(cols["kbps"]
                          > (1.0 + spec.overshoot_threshold) * cols["tbr_kbps"])
    n_timed = count(timed)
    seconds = np.bincount(group[timed], cols["enc_s"][timed],
                          minlength=n).tolist()
    out = []
    for g in sorted(range(n), key=groups.configs.__getitem__):
        family, preset, passes = groups.configs[g]
        out.append(ConfigSummary(
            family=family, preset=preset, passes=passes,
            n_records=n_records[g], n_above=n_above[g],
            n_checkpoint_records=n_ckpt[g],
            n_checkpoint_above=n_ckpt_above[g],
            overshoot_count=overshoot[g],
            total_hours=seconds[g] / 3600.0 if n_timed[g] else None,
        ))
    return out


@dataclass
class ScenarioReport:
    """Per-family picks with the summaries and reasoning behind them."""

    scenario_id: str
    selections: dict[str, Optional[ConfigSummary]]
    rationale: dict[str, str]
    summaries: list[ConfigSummary] = field(default_factory=list)


def _coverage_order(s: ConfigSummary) -> tuple:
    hours = s.total_hours if s.total_hours is not None else float("inf")
    return (s.n_above, s.n_checkpoint_above, -s.overshoot_count, -hours)


def _pick_max_coverage(candidates: list[ConfigSummary]) -> ConfigSummary:
    return max(candidates, key=_coverage_order)


def select_presets(summaries: Sequence[ConfigSummary],
                   spec: ScenarioSpec) -> ScenarioReport:
    """Apply the scenario objective per encoder family.

    Families with no feasible config stay in the report with an
    infeasibility note instead of being dropped.
    """
    by_family: dict[str, list[ConfigSummary]] = {}
    for s in summaries:
        by_family.setdefault(s.family, []).append(s)

    selections: dict[str, Optional[ConfigSummary]] = {}
    rationale: dict[str, str] = {}

    for family, group in sorted(by_family.items()):
        if spec.objective == OBJECTIVE_MAX_COVERAGE:
            pick = _pick_max_coverage(group)
            selections[family] = pick
            rationale[family] = (
                f"highest coverage: {pick.n_above}/{pick.n_records} records above "
                f"VMAF {spec.vmaf_threshold:g} "
                f"({100 * pick.coverage_fraction:.1f}%), "
                f"{pick.n_checkpoint_above}/{pick.n_checkpoint_records} at "
                f"{spec.checkpoint_kbps:g} kb/s"
            )
        elif spec.objective == OBJECTIVE_BUDGETED:
            budget = spec.time_budget_hours * (1.0 + BUDGET_TOLERANCE)
            feasible = [s for s in group
                        if s.total_hours is not None and s.total_hours <= budget]
            if not feasible:
                closest = min(
                    (s for s in group if s.total_hours is not None),
                    key=lambda s: s.total_hours, default=None)
                selections[family] = None
                rationale[family] = (
                    f"infeasible: no config within {spec.time_budget_hours:g} h "
                    f"(+{100 * BUDGET_TOLERANCE:g}% tolerance)"
                    + (f"; closest is {closest.label} at {closest.total_hours:.2f} h"
                       if closest else "")
                )
                continue
            pick = _pick_max_coverage(feasible)
            selections[family] = pick
            rationale[family] = (
                f"highest coverage within {spec.time_budget_hours:g} h budget: "
                f"{pick.n_above}/{pick.n_records} above VMAF "
                f"{spec.vmaf_threshold:g} at {pick.total_hours:.2f} h"
            )
        elif spec.objective == OBJECTIVE_FASTEST_WITHIN_SLACK:
            baseline = _pick_max_coverage(group)
            floor = 100 * baseline.coverage_fraction - spec.coverage_slack_points
            candidates = [
                s for s in group
                if s.total_hours is not None
                and 100 * s.coverage_fraction >= floor
            ]
            if not candidates:
                selections[family] = None
                rationale[family] = (
                    f"infeasible: no timed config within "
                    f"{spec.coverage_slack_points:g} coverage points of "
                    f"{baseline.label}"
                )
                continue
            pick = min(candidates,
                       key=lambda s: (s.total_hours, -s.n_above, s.overshoot_count))
            rationale[family] = (
                f"fastest config within {spec.coverage_slack_points:g} coverage "
                f"points of the quality pick {baseline.label} "
                f"({100 * baseline.coverage_fraction:.1f}%): {pick.label} at "
                f"{pick.total_hours:.2f} h with {100 * pick.coverage_fraction:.1f}%"
            )
            selections[family] = pick
        else:
            raise ValueError(f"unknown objective {spec.objective!r}")

    return ScenarioReport(
        scenario_id=spec.id, selections=selections, rationale=rationale,
        summaries=list(summaries),
    )


@dataclass
class ComparisonGrid:
    """Square migration matrix; cell (i, j) describes moving from i to j."""

    labels: list[str]
    cells: list[list[Optional[float]]]
    kind: str  # "bd" | "time"
    method: str = ""  # "classic" | "smart" for bd grids

    def csv(self) -> str:
        """A header row of labels, then one row per anchor; a label
        holding a comma or a quote is quoted."""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["anchor\\test", *self.labels])
        writer.writerows(
            [name, *("" if c is None else f"{c:.4f}" for c in row)]
            for name, row in zip(self.labels, self.cells))
        return buf.getvalue()


def records_for_config(groups: ConfigGroups, config: Config) -> RecordTable:
    """The records of one config, in input order; none for a config
    the store does not hold."""
    import numpy as np
    g, = groups.numbers([config])
    return groups.table.take(np.flatnonzero(groups.group == g))


def aggregate_curves(
    configs: Sequence[Config],
    groups: ConfigGroups,
    ladder: Sequence[float],
    metric_kind: str = bd_mod.METRIC_VMAF,
) -> list[Optional[bd_mod.RDCurve]]:
    """Each config's harmonic aggregate curve, labelled like a grid row,
    or None where it cannot be built; one ``bd.aggregate_curves`` pass."""
    built = bd_mod.aggregate_curves(groups.table, groups.group,
                                    groups.numbers(configs),
                                    [label(c) for c in configs], ladder,
                                    metric_kind)
    return [None if isinstance(c, AnalysisError) else c for c in built]


def bd_grid(
    configs: Sequence[Config],
    groups: ConfigGroups,
    ladder: Sequence[float],
    method: str = "classic",
    metric_kind: str = bd_mod.METRIC_VMAF,
    aggregates: Optional[Sequence[Optional[bd_mod.RDCurve]]] = None,
) -> ComparisonGrid:
    """Pairwise BD-Rate matrix; overlap failures become explicit N/A cells.

    Each config's curves (per clip for classic, one aggregate for smart)
    are built once, every config's in one ``bd.curves_by_group`` or
    ``aggregate_curves`` pass, and shared by every cell in its row and
    column. ``aggregates``, when given, are the configs'
    ``aggregate_curves``, which the smart method then does not build
    again. A smart grid is the one-clip case of the classic one: each
    config maps one id to its aggregate curve, or to nothing when that
    curve cannot be built, so it is N/A against all. The cells come
    from one ``classic_bd_rate_matrix`` call.
    """
    if method not in ("classic", "smart"):
        raise ValueError(f"unknown grid method {method!r}")
    if method == "classic":
        curves = bd_mod.curves_by_group(groups.table, groups.group,
                                        groups.numbers(configs), metric_kind)
    else:
        if aggregates is None:
            aggregates = aggregate_curves(configs, groups, ladder, metric_kind)
        curves = [{} if c is None else {"aggregate": c} for c in aggregates]
    return ComparisonGrid(labels=[label(c) for c in configs],
                          cells=bd_mod.classic_bd_rate_matrix(curves),
                          kind="bd", method=method)


def time_grid(summaries: Sequence[ConfigSummary]) -> ComparisonGrid:
    """Percent encode-time change when migrating config i -> config j."""
    labels = [s.label for s in summaries]
    hours = [s.total_hours for s in summaries]
    cells: list[list[Optional[float]]] = []
    for i, hi in enumerate(hours):
        row: list[Optional[float]] = []
        for j, hj in enumerate(hours):
            if i == j:
                row.append(0.0)
            elif hi is None or hj is None or hi == 0:
                row.append(None)
            else:
                row.append((hj - hi) / hi * 100.0)
        cells.append(row)
    return ComparisonGrid(labels=labels, cells=cells, kind="time")


SUMMARY_CSV_FIELDS = ("family", "preset", "passes", "n_records", "n_above",
                      "n_checkpoint_records", "n_checkpoint_above",
                      "overshoot_count", "total_hours")


def summaries_from_csv(text: str) -> list[ConfigSummary]:
    """Parse externally produced summary rows (e.g. published tables).

    A missing column or a value that does not parse is an RdgaugeError
    naming the CSV line and the column; so is a line the csv module
    cannot read, such as one holding a lone CR outside quotes.
    """
    reader = csv.DictReader(io.StringIO(text))

    def value(row: dict, name: str, parse=str, what="", optional=False):
        raw = row.get(name)
        if raw is None and not optional:
            raise RdgaugeError(
                f"summary line {reader.line_num}: no {name!r} column")
        if optional and raw in ("", None):
            return None
        try:
            return parse(raw)
        except ValueError:
            raise RdgaugeError(f"summary line {reader.line_num}: {name} must "
                               f"be {what}, got {raw!r}") from None

    out = []
    try:
        for row in reader:
            fields = {name: value(row, name) for name in ("family", "preset")}
            for name in SUMMARY_CSV_FIELDS[2:-1]:
                fields[name] = value(row, name, int, "an integer")
            fields["total_hours"] = value(row, "total_hours", float,
                                          "a number", optional=True)
            out.append(ConfigSummary(**fields))
    except csv.Error as exc:
        # line_num counts the lines read before the one that failed
        raise RdgaugeError(
            f"summary line {reader.line_num + 1}: {exc}") from None
    return out
