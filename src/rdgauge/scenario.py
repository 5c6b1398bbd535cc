"""Scenario gating, preset selection, and comparison grids.

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
from typing import Iterable, Mapping, Optional, Sequence, Union

from . import bd as bd_mod
from .errors import AnalysisError
from .store import MetricRecord

OBJECTIVE_MAX_COVERAGE = "max_coverage"
OBJECTIVE_BUDGETED = "max_coverage_within_budget"
OBJECTIVE_FASTEST_WITHIN_SLACK = "fastest_within_coverage_slack"

Config = tuple[str, str, int]  # (family, preset, passes)
# Records as a flat sequence, or already split by ``group_by_config``.
Records = Union[Sequence[MetricRecord], Mapping[Config, list[MetricRecord]]]


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
    budget_tolerance: float = 0.01  # S3: fractional slack on the hour budget

    def __post_init__(self):
        if self.vmaf_threshold <= 0 or self.checkpoint_kbps <= 0:
            raise ValueError("scenario thresholds must be positive")
        if self.overshoot_threshold <= 0:
            raise ValueError("overshoot threshold must be positive")
        if self.objective == OBJECTIVE_BUDGETED and self.time_budget_hours is None:
            raise ValueError(f"scenario {self.id}: budgeted objective needs a budget")


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
    def label(self) -> str:
        return f"{self.family}:{self.preset}:{self.passes}p"

    @property
    def coverage_fraction(self) -> float:
        return self.n_above / self.n_records if self.n_records else 0.0


def group_by_config(records: Iterable[MetricRecord]
                    ) -> dict[Config, list[MetricRecord]]:
    """Records split by (family, preset, passes), each list in input order."""
    groups: dict[Config, list[MetricRecord]] = {}
    for rec in records:
        groups.setdefault((rec.family, rec.preset, rec.passes), []).append(rec)
    return groups


def _grouped(records: Records) -> Mapping[Config, list[MetricRecord]]:
    return records if isinstance(records, Mapping) else group_by_config(records)


def summarize(records: Records, spec: ScenarioSpec) -> list[ConfigSummary]:
    """Per-config gate counts over deduped records, order-independent."""
    out = []
    for (family, preset, passes), recs in sorted(_grouped(records).items()):
        above = sum(1 for r in recs
                    if r.vmaf is not None and r.vmaf > spec.vmaf_threshold)
        ckpt = [r for r in recs if r.target_kbps == spec.checkpoint_kbps]
        ckpt_above = sum(1 for r in ckpt
                         if r.vmaf is not None and r.vmaf > spec.vmaf_threshold)
        overshoot = sum(
            1 for r in recs
            if r.measured_kbps > (1.0 + spec.overshoot_threshold) * r.target_kbps
        )
        timed = [r.encode_seconds for r in recs if r.encode_seconds is not None]
        hours = sum(timed) / 3600.0 if timed else None
        out.append(ConfigSummary(
            family=family, preset=preset, passes=passes,
            n_records=len(recs), n_above=above,
            n_checkpoint_records=len(ckpt), n_checkpoint_above=ckpt_above,
            overshoot_count=overshoot, total_hours=hours,
        ))
    return out


@dataclass
class ScenarioReport:
    """Per-family picks with the summaries and reasoning behind them."""

    scenario_id: str
    selections: dict[str, Optional[ConfigSummary]]
    rationale: dict[str, str]
    summaries: list[ConfigSummary] = field(default_factory=list)

    def check(self, spec: ScenarioSpec) -> bool:
        """Re-verify every selection against the scenario's hard constraints."""
        for summary in self.selections.values():
            if summary is None:
                continue
            if spec.objective == OBJECTIVE_BUDGETED:
                budget = spec.time_budget_hours * (1.0 + spec.budget_tolerance)
                if summary.total_hours is None or summary.total_hours > budget:
                    return False
        return True


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
            budget = spec.time_budget_hours * (1.0 + spec.budget_tolerance)
            feasible = [s for s in group
                        if s.total_hours is not None and s.total_hours <= budget]
            if not feasible:
                closest = min(
                    (s for s in group if s.total_hours is not None),
                    key=lambda s: s.total_hours, default=None)
                selections[family] = None
                rationale[family] = (
                    f"infeasible: no config within {spec.time_budget_hours:g} h "
                    f"(+{100 * spec.budget_tolerance:g}% tolerance)"
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

    def csv_rows(self) -> list[str]:
        rows = ["anchor\\test," + ",".join(self.labels)]
        for label, row in zip(self.labels, self.cells):
            cells = ",".join("" if c is None else f"{c:.4f}" for c in row)
            rows.append(f"{label},{cells}")
        return rows


def records_for_config(records: Sequence[MetricRecord], family: str,
                       preset: str, passes: int) -> list[MetricRecord]:
    return [r for r in records
            if (r.family, r.preset, r.passes) == (family, preset, passes)]


def bd_grid(
    configs: Sequence[Config],
    records: Records,
    ladder: Sequence[float],
    method: str = "classic",
    metric_kind: str = bd_mod.METRIC_VMAF,
) -> ComparisonGrid:
    """Pairwise BD-Rate matrix; overlap failures become explicit N/A cells.

    Each config's curves (per clip for classic, one aggregate for smart)
    are built once and shared by every cell in its row and column; a
    config whose aggregate curve cannot be built is N/A against all.
    """
    if method not in ("classic", "smart"):
        raise ValueError(f"unknown grid method {method!r}")
    groups = _grouped(records)
    slices = [groups.get(cfg, []) for cfg in configs]
    labels = [f"{f}:{p}:{n}p" for (f, p, n) in configs]
    if method == "classic":
        curves = [bd_mod.curves_from_records(s, metric_kind) for s in slices]
        pair = bd_mod.classic_bd_rate
    else:
        curves = []
        for s, label in zip(slices, labels):
            try:
                curves.append(bd_mod.aggregate_curve(
                    s, ladder, metric_kind, id=label))
            except AnalysisError:
                curves.append(None)
        pair = bd_mod.bd_rate

    cells: list[list[Optional[float]]] = []
    for i in range(len(configs)):
        row: list[Optional[float]] = []
        for j in range(len(configs)):
            if i == j:
                row.append(0.0)
                continue
            if curves[i] is None or curves[j] is None:
                row.append(None)
                continue
            try:
                row.append(pair(curves[i], curves[j]).value)
            except AnalysisError:
                row.append(None)
        cells.append(row)
    return ComparisonGrid(labels=labels, cells=cells, kind="bd", method=method)


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


def summaries_to_csv(summaries: Iterable[ConfigSummary]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SUMMARY_CSV_FIELDS)
    for s in summaries:
        writer.writerow([s.family, s.preset, s.passes, s.n_records, s.n_above,
                         s.n_checkpoint_records, s.n_checkpoint_above,
                         s.overshoot_count,
                         "" if s.total_hours is None else repr(s.total_hours)])
    return buf.getvalue()


def summaries_from_csv(text: str) -> list[ConfigSummary]:
    """Parse externally produced summary rows (e.g. published tables)."""
    reader = csv.DictReader(io.StringIO(text))
    out = []
    for row in reader:
        hours = row.get("total_hours", "")
        out.append(ConfigSummary(
            family=row["family"], preset=row["preset"], passes=int(row["passes"]),
            n_records=int(row["n_records"]), n_above=int(row["n_above"]),
            n_checkpoint_records=int(row["n_checkpoint_records"]),
            n_checkpoint_above=int(row["n_checkpoint_above"]),
            overshoot_count=int(row["overshoot_count"]),
            total_hours=None if hours in ("", None) else float(hours),
        ))
    return out
