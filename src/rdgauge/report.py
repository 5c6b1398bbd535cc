"""Report emission: CSV grids, SVG plots and the recommendation text.

Every artifact is written to a temporary sibling and renamed into
place, so an interrupted run never leaves half a file behind, and a
rerun over identical inputs reproduces every byte.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Mapping, Sequence, Union

from . import bd, svgplot
from .scenario import ComparisonGrid, ScenarioReport


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _grid_stem(grid: ComparisonGrid) -> str:
    if grid.kind == "bd":
        return f"grid-bd-{grid.method}"
    return "grid-time"


def _curve_chart(scenario_id: str, curves: Sequence[bd.RDCurve]) -> str:
    series = [
        (c.id, [p.rate / 1000.0 for p in c.points],
         [p.quality for p in c.points])
        for c in curves
    ]
    metric = curves[0].metric_kind.upper() if curves else "quality"
    return svgplot.line_chart(
        series, title=f"RD curves - scenario {scenario_id}",
        xlabel="bitrate (Mb/s)", ylabel=metric,
    )


def _grid_chart(grid: ComparisonGrid) -> str:
    if grid.kind == "bd":
        title = f"BD-Rate (%) migration grid ({grid.method})"
    else:
        title = "Encode-time difference (%) migration grid"
    return svgplot.heatmap(grid.labels, grid.cells, title=title)


def _report_text(reports: Sequence[ScenarioReport],
                 grids: Sequence[ComparisonGrid]) -> str:
    lines = ["Encoder/preset recommendations", "=" * 30, ""]
    for report in reports:
        lines.append(f"Scenario {report.scenario_id}")
        lines.append("-" * (9 + len(report.scenario_id)))
        for family in sorted(report.selections):
            pick = report.selections[family]
            why = report.rationale.get(family, "")
            if pick is None:
                lines.append(f"  {family}: no feasible configuration ({why})")
            else:
                lines.append(f"  {family}: {pick.preset} at {pick.passes}-pass"
                             + (f" [{pick.total_hours:.2f} h]"
                                if pick.total_hours is not None else ""))
                lines.append(f"      {why}")
        lines.append("")

    migrations = [g for g in grids if len(g.labels) > 1]
    if migrations:
        lines.append("If you switch encoders")
        lines.append("-" * 22)
        for grid in migrations:
            what = ("BD-Rate change" if grid.kind == "bd"
                    else "encode-time change")
            tag = f" ({grid.method})" if grid.method else ""
            for i, src in enumerate(grid.labels):
                for j, dst in enumerate(grid.labels):
                    if i == j:
                        continue
                    cell = grid.cells[i][j]
                    shown = "n/a" if cell is None else f"{cell:+.2f}%"
                    lines.append(f"  {src} -> {dst}: {what}{tag} {shown}")
        lines.append("")
    return "\n".join(lines) + "\n"


def _scatter_chart(report: ScenarioReport) -> str:
    points = [
        (s.label, s.total_hours, 100.0 * s.coverage_fraction)
        for s in report.summaries if s.total_hours is not None
    ]
    return svgplot.scatter_chart(
        points, title=f"Coverage vs encode time - scenario {report.scenario_id}",
        xlabel="total encode time (h)", ylabel="records above quality bar (%)",
    )


def emit_report(
    reports: Sequence[ScenarioReport],
    grids: Sequence[ComparisonGrid],
    curves: Mapping[str, Sequence[bd.RDCurve]],
    out_dir: Union[str, Path],
    *,
    curves_csv: bool = False,
    scatter: bool = False,
) -> list[Path]:
    """Write all artifacts into out_dir and return the file manifest.

    Emits one RD-curve SVG per scenario, one CSV plus one SVG per grid,
    and report.txt; per-scenario curve CSVs and coverage-vs-time
    scatter plots are opt-in.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest: list[Path] = []

    if scatter:
        for report in reports:
            if not report.summaries:
                continue
            path = out / f"scatter-{report.scenario_id}.svg"
            _atomic_write(path, _scatter_chart(report))
            manifest.append(path)

    for scenario_id in sorted(curves):
        scenario_curves = list(curves[scenario_id])
        if not scenario_curves:
            continue
        svg_path = out / f"rd-{scenario_id}.svg"
        _atomic_write(svg_path, _curve_chart(scenario_id, scenario_curves))
        manifest.append(svg_path)
        if curves_csv:
            csv_path = out / f"rd-{scenario_id}.csv"
            _atomic_write(csv_path, bd.curves_csv(scenario_curves))
            manifest.append(csv_path)

    for grid in grids:
        stem = _grid_stem(grid)
        csv_path = out / f"{stem}.csv"
        _atomic_write(csv_path, grid.csv())
        manifest.append(csv_path)
        svg_path = out / f"{stem}.svg"
        _atomic_write(svg_path, _grid_chart(grid))
        manifest.append(svg_path)

    report_path = out / "report.txt"
    _atomic_write(report_path, _report_text(reports, grids))
    manifest.append(report_path)
    return manifest
