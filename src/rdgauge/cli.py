"""Command-line surface.

Exit codes: 0 ok, 1 usage error, 2 data error, 3 environment error
(a tool missing or unable to start).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import logging
import math
import os
import re
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import bd as bd_mod
from . import complexity as cx_mod
from . import encoders, report, runner, scenario, store
from .errors import (MissingBinaryError, PlanError, RdgaugeError,
                     StoreImportError)

ENV_STORE = "RDGAUGE_STORE"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_ENV = 3


def _checked(convert, what: str, ok):
    """An argparse type: ``convert`` the text, then require ``ok`` of the
    value, so a bad value is a usage error rather than a traceback."""
    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return value
    parse.__name__ = convert.__name__  # argparse names it in its errors
    return parse


_positive_float = _checked(float, "a positive number", lambda v: v > 0)
_positive_finite_float = _checked(float, "a positive finite number",
                                  lambda v: 0 < v < math.inf)
_non_negative_float = _checked(float, "a number >= 0", lambda v: v >= 0)
_positive_int = _checked(int, "a positive integer", lambda v: v > 0)
_count = _checked(int, "an integer >= 0", lambda v: v >= 0)


def _int_list(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise PlanError(f"bad {what} {text!r}") from None


def _parse_ladder(text: Optional[str]) -> tuple[int, ...]:
    return _int_list(text, "ladder") if text else encoders.DEFAULT_LADDER


def _read_text(path: str) -> str:
    """The text of the user's file at ``path``, read as UTF-8; a byte
    that does not decode is a data error naming the file and its
    offset."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise RdgaugeError(f"{path}: not UTF-8 text at byte {exc.start}: "
                           f"{exc.reason}") from None


def _clip_list(args) -> list:
    if args.clips_dir:
        paths = sorted(Path(args.clips_dir).glob("*.y4m"))
        if not paths:
            raise PlanError(f"no .y4m clips under {args.clips_dir}")
        return [str(p) for p in paths]
    if args.clips_file:
        lines = _read_text(args.clips_file).splitlines()
        return [ln.strip() for ln in lines if ln.strip()]
    if args.clips:
        return [c.strip() for c in args.clips.split(",") if c.strip()]
    raise PlanError("no clips given (use --clips, --clips-file or --clips-dir)")


def _require_store(args) -> str:
    path = args.store or os.environ.get(ENV_STORE)
    if not path:
        raise PlanError("no store path (use --store or RDGAUGE_STORE)")
    return path


def _build_plan(args) -> list[encoders.EncodeJob]:
    if args.toolsweep:
        if not args.toggles:
            raise PlanError("--toolsweep needs --toggles")
        toggles = [t.strip() for t in args.toggles.split(";") if t.strip()]
        clips = _clip_list(args)
        if len(clips) != 1:
            raise PlanError("--toolsweep expects exactly one clip")
        return encoders.plan_toolsweep(clips[0], toggles)
    families = [f.strip() for f in args.families.split(",") if f.strip()]
    presets = None
    if args.presets:
        wanted = [p.strip() for p in args.presets.split(",") if p.strip()]
        presets = {f: [p for p in wanted if p in encoders.get_spec(f).presets]
                   for f in families}
        for fam, plist in presets.items():
            if not plist:
                raise PlanError(f"none of {wanted} are {fam} presets")
    pass_modes = _int_list(args.passes, "pass list")
    return encoders.plan_matrix(
        _clip_list(args), families, ladder=_parse_ladder(args.ladder),
        pass_modes=pass_modes, presets=presets,
        maxrate_factor=args.maxrate_factor)


def _cmd_plan(args) -> int:
    jobs = _build_plan(args)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            for job in jobs:
                f.write(json.dumps(dataclasses.asdict(job)) + "\n")
    work_dir = args.work_dir or os.environ.get(runner.ENV_WORK_DIR, ".")
    for job in jobs[:args.show]:
        print(" ".join(" ".join(v) for v in
                       encoders.build_commands(job, work_dir)))
    print(f"planned {len(jobs)} jobs")
    return EXIT_OK


def _cmd_encode(args) -> int:
    jobs = _build_plan(args)
    store_path = _require_store(args)
    outcomes = runner.run_plan(
        jobs, workers=1 if args.timing_strict else args.jobs,
        work_dir=args.work_dir, bin_dir=args.binary_dir,
        store_path=store_path, force=args.force, with_vmaf=args.with_vmaf)
    counts = {"ok": 0, "failed": 0, "skipped": 0}
    for outcome in outcomes:
        counts[outcome.status] += 1
        if outcome.status == "failed":
            # one line per failure, whatever line breaks the tool wrote
            tail = re.sub(r"[\r\n]+", " | ",
                          outcome.stderr_tail.strip()[-200:])
            print(f"FAILED {outcome.job.slug()}: {outcome.reason}"
                  + (f": {tail}" if tail else ""), file=sys.stderr)
    print(f"encoded: {counts['ok']} ok, {counts['failed']} failed, "
          f"{counts['skipped']} skipped")
    return EXIT_OK if counts["failed"] == 0 else EXIT_DATA


def _cmd_vmaf(args) -> int:
    expected = args.expected_frames
    vmaf, psnr = runner.measure_quality(
        args.ref, args.dist, bin_dir=args.binary_dir, expected_frames=expected)
    print(json.dumps({"vmaf": vmaf, "psnr_y": psnr}))
    return EXIT_OK


def _cmd_complexity(args) -> int:
    records = []
    failed = 0
    for clip, rec in cx_mod.analyze_clips(_clip_list(args)):
        if not isinstance(rec, cx_mod.ComplexityRecord):
            # one bad clip must not discard the other clips
            failed += 1
            print(f"{Path(clip).stem}: error: {rec}", file=sys.stderr)
            continue
        records.append(rec)
        print(f"{rec.clip_id}: SE={rec.clip_se:.4f} TE={rec.clip_te:.4f} "
              f"frames={len(rec.frame_se)}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            for rec in records:
                f.write(rec.to_json_line() + "\n")
    if args.scatter_csv:
        Path(args.scatter_csv).write_text(cx_mod.scatter_csv(records),
                                          encoding="utf-8")
    return EXIT_DATA if failed else EXIT_OK


def _cmd_import(args) -> int:
    store_path = _require_store(args)
    config = (args.family, args.preset, args.passes)
    if scenario.parse_config(scenario.label(config)) != config:
        raise PlanError(f"no command can name {scenario.label(config)!r}")
    reader = csv.DictReader(io.StringIO(_read_text(args.csv), newline=""))
    try:
        for name in ("label", "kbps", "vmaf", "psnr_y"):
            if reader.fieldnames is not None and name not in reader.fieldnames:
                raise StoreImportError(f"{args.csv}: no {name!r} column")
        rows = [(row["label"], row["kbps"], row["vmaf"], row["psnr_y"],
                 row.get("enc_s") or None) for row in reader]
    except csv.Error as exc:
        # line_num counts the lines read before the one that failed
        raise StoreImportError(
            f"{args.csv}: line {reader.line_num + 1}: {exc}") from None
    count = store.import_table(
        store_path, rows, family=args.family, preset=args.preset,
        passes=args.passes, target_kbps=args.tbr, clip_prefix=args.clip_prefix)
    print(f"imported {count} records")
    return EXIT_OK


def _groups(args) -> scenario.ConfigGroups:
    return scenario.group_by_config(store.load(_require_store(args)))


def _cmd_curves(args) -> int:
    config = scenario.parse_config(args.config)
    records = scenario.records_for_config(_groups(args), config)
    ladder = _parse_ladder(args.ladder)
    if args.per_clip:
        curves = bd_mod.curves_from_records(records, args.metric).values()
    else:
        curves = [bd_mod.aggregate_curve(
            records, ladder, args.metric, args.aggregate,
            id=scenario.label(config))]
    text = bd_mod.curves_csv(curves)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        print(text, end="")
    return EXIT_OK


def _cmd_bdrate(args) -> int:
    anchor_cfg = scenario.parse_config(args.anchor)
    test_cfg = scenario.parse_config(args.test)
    groups = _groups(args)
    anchor_records = scenario.records_for_config(groups, anchor_cfg)
    test_records = scenario.records_for_config(groups, test_cfg)
    ladder = _parse_ladder(args.ladder)
    if args.method == "smart":
        result = bd_mod.smart_bd_rate(anchor_records, test_records, ladder,
                                      args.metric, method=args.aggregate)
    else:
        result = bd_mod.classic_bd_rate(
            bd_mod.curves_from_records(anchor_records, args.metric),
            bd_mod.curves_from_records(test_records, args.metric))
    print(f"BD-rate({args.metric}) {args.anchor} -> {args.test}: "
          f"{result.value:+.4f}%")
    print(f"  {result.overlap_label} [{result.overlap[0]:.4g}, "
          f"{result.overlap[1]:.4g}], {result.method_note}")
    if args.csv:
        bounds = (("q_low", "q_high") if args.method == "smart"
                  else ("span_q_low", "span_q_high"))
        with open(args.csv, "w", newline="", encoding="utf-8") as f:
            writer = csv.writer(f, lineterminator="\n")
            writer.writerow(("anchor", "test", "metric", "bd_percent", *bounds,
                             "n_anchor", "n_test"))
            writer.writerow(bd_mod.result_csv_row(args.anchor, args.test,
                                                  args.metric, result))
    return EXIT_OK


def _cmd_grid(args) -> int:
    try:  # one CSV row, so a quoted config may hold a comma
        texts = next(csv.reader([args.configs]), [""])
    except csv.Error as exc:
        raise PlanError(f"bad config list {args.configs!r}: {exc}") from None
    configs = [scenario.parse_config(c) for c in texts]
    grid = scenario.bd_grid(configs, _groups(args), _parse_ladder(args.ladder),
                            args.method, args.metric)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        manifest = report.emit_report([], [grid], {}, out)
        for path in manifest:
            print(path)
    else:
        print(grid.csv(), end="")
    return EXIT_OK


# Each scenario option's ScenarioSpec field; a command has some of them.
_SPEC_OPTIONS = {"threshold": "vmaf_threshold",
                 "checkpoint": "checkpoint_kbps",
                 "overshoot": "overshoot_threshold",
                 "budget_hours": "time_budget_hours",
                 "slack_points": "coverage_slack_points"}


def _scenario_spec(args, sid: str) -> scenario.ScenarioSpec:
    """Scenario ``sid`` with the options the command was given."""
    overrides = {field: getattr(args, option)
                 for option, field in _SPEC_OPTIONS.items()
                 if getattr(args, option, None) is not None}
    return scenario.make_scenario(sid, **overrides)


def _print_scenario_report(rep: scenario.ScenarioReport) -> None:
    print(f"scenario {rep.scenario_id}:")
    for family in sorted(rep.selections):
        pick = rep.selections[family]
        if pick is None:
            print(f"  {family}: infeasible -- {rep.rationale[family]}")
        else:
            print(f"  {family}: {pick.preset} @ {pick.passes}-pass "
                  f"({rep.rationale[family]})")


def _cmd_scenario(args) -> int:
    spec = _scenario_spec(args, args.id)
    if args.from_summaries:
        text = _read_text(args.from_summaries)
        # universal newlines, as a text-mode read gives
        summaries = scenario.summaries_from_csv(
            text.replace("\r\n", "\n").replace("\r", "\n"))
    else:
        summaries = scenario.summarize(_groups(args), spec)
    rep = scenario.select_presets(summaries, spec)
    _print_scenario_report(rep)
    return EXIT_OK


def _cmd_report(args) -> int:
    groups = _groups(args)
    ladder = _parse_ladder(args.ladder)
    specs = [_scenario_spec(args, sid.strip())
             for sid in args.scenarios.split(",") if sid.strip()]

    # summarize reads only the VMAF bar, the checkpoint and the
    # overshoot gate, which this command sets alike for every scenario,
    # so one call serves them all.
    summaries = scenario.summarize(groups, specs[0]) if specs else []

    reports = []
    picks: list[list[scenario.Config]] = []  # per scenario
    picked: list[scenario.Config] = []
    for spec in specs:
        rep = scenario.select_presets(summaries, spec)
        reports.append(rep)
        configs = [rep.selections[family].config
                   for family in sorted(rep.selections)
                   if rep.selections[family] is not None]
        picks.append(configs)
        picked += [config for config in configs if config not in picked]

    aggregates = scenario.aggregate_curves(picked, groups, ladder, args.metric)
    by_config = dict(zip(picked, aggregates))
    curves = {spec.id: [by_config[c] for c in configs
                        if by_config[c] is not None]
              for spec, configs in zip(specs, picks)}
    grids = []
    if len(picked) > 1:
        grids.append(scenario.bd_grid(picked, groups, ladder, args.method,
                                      args.metric, aggregates))
        summary_of = {s.config: s for s in summaries}
        grids.append(scenario.time_grid([summary_of[c] for c in picked]))

    manifest = report.emit_report(reports, grids, curves, args.out,
                                  curves_csv=args.curves_csv,
                                  scatter=args.scatter)
    for path in manifest:
        print(path)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: nothing in it
    depends on the environment, which the commands read when they run."""
    parser = argparse.ArgumentParser(
        prog="rdgauge",
        description="Encoder benchmark planning and rate-distortion analytics.")
    parser.add_argument("-v", dest="log_level", action="store_const",
                        const="INFO", help="same as --log-level INFO")
    parser.add_argument("--log-level", dest="log_level", type=str.upper,
                        choices=("DEBUG", "INFO", "WARNING", "ERROR"),
                        help="print log messages of this level and above "
                             "to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    store_p = argparse.ArgumentParser(add_help=False)
    store_p.add_argument("--store", help=f"record store path (or ${ENV_STORE})")

    clips_p = argparse.ArgumentParser(add_help=False)
    clips_p.add_argument("--clips", help="comma-separated clip ids or .y4m paths")
    clips_p.add_argument("--clips-file", help="file with one clip per line")
    clips_p.add_argument("--clips-dir", help="directory of .y4m clips")

    plan_p = argparse.ArgumentParser(add_help=False)
    plan_p.add_argument("--families", default="x264,x265,svt-av1,nvenc-av1")
    plan_p.add_argument("--presets", help="restrict presets (comma-separated)")
    plan_p.add_argument("--passes", default="1,2")
    plan_p.add_argument("--ladder", help="target bitrates in kb/s, comma-separated")
    plan_p.add_argument("--maxrate-factor", type=_positive_finite_float,
                        default=encoders.MAXRATE_FACTOR_DEFAULT,
                        help="max rate as a multiple of target "
                             "(default %(default)s)")
    plan_p.add_argument("--toolsweep", action="store_true",
                        help="plan a tool-off sweep instead of a matrix")
    plan_p.add_argument("--toggles",
                        help="semicolon-separated raw toggle strings")
    plan_p.add_argument("--work-dir",
                        help="encode output directory "
                             f"(or ${runner.ENV_WORK_DIR}, default .)")

    metric_p = argparse.ArgumentParser(add_help=False)
    metric_p.add_argument("--metric", choices=["vmaf", "psnr_y"], default="vmaf")
    metric_p.add_argument("--ladder")

    # the commands that compute BD-Rate between configs
    method_p = argparse.ArgumentParser(add_help=False)
    method_p.add_argument("--method", choices=["classic", "smart"],
                          default="classic")

    p = sub.add_parser("plan", parents=[clips_p, plan_p],
                       help="expand a benchmark plan")
    p.add_argument("--out", help="write the plan as JSON lines")
    p.add_argument("--show", type=_count, default=0,
                   help="print command lines for the first N jobs")
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser("encode", parents=[clips_p, plan_p, store_p],
                       help="run encodes and persist outcomes")
    p.add_argument("--binary-dir", default=None,
                   help=f"encoder binary directory (or ${runner.ENV_BIN_DIR})")
    p.add_argument("--jobs", type=_positive_int, default=None,
                   help="worker count (default: one per CPU)")
    p.add_argument("--timing-strict", action="store_true",
                   help="serialise jobs for trustworthy wall-clock numbers")
    p.add_argument("--force", action="store_true",
                   help="re-run completed jobs")
    p.add_argument("--with-vmaf", action="store_true",
                   help="measure quality right after each encode")
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("vmaf", help="measure quality of one encode")
    p.add_argument("--ref", required=True)
    p.add_argument("--dist", required=True)
    p.add_argument("--expected-frames", type=_positive_int, default=None)
    p.add_argument("--binary-dir", default=None)
    p.set_defaults(func=_cmd_vmaf)

    p = sub.add_parser("complexity", parents=[clips_p],
                       help="spatial/temporal energy per clip")
    p.add_argument("--out", help="write JSON-lines records")
    p.add_argument("--scatter-csv", help="write (clip, SE, TE) scatter CSV")
    p.set_defaults(func=_cmd_complexity)

    p = sub.add_parser("import", parents=[store_p],
                       help="import an external results table")
    p.add_argument("--csv", required=True,
                   help="CSV with label,kbps,vmaf,psnr_y[,enc_s]")
    p.add_argument("--family", required=True)
    p.add_argument("--preset", required=True)
    p.add_argument("--passes", type=int, required=True)
    p.add_argument("--tbr", type=float, required=True,
                   help="target bitrate the rows were measured at")
    p.add_argument("--clip-prefix", default="")
    p.set_defaults(func=_cmd_import)

    p = sub.add_parser("curves", parents=[store_p, metric_p],
                       help="export RD curves as CSV")
    p.add_argument("--config", required=True, help="family:preset:passes")
    p.add_argument("--per-clip", action="store_true")
    p.add_argument("--aggregate", choices=["harmonic", "arithmetic"],
                   default="harmonic")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_curves)

    p = sub.add_parser("bdrate", parents=[store_p, metric_p, method_p],
                       help="BD-Rate between two configs")
    p.add_argument("--anchor", required=True, help="family:preset:passes")
    p.add_argument("--test", required=True, help="family:preset:passes")
    p.add_argument("--aggregate", choices=["harmonic", "arithmetic"],
                   default="harmonic",
                   help="rung aggregation for the smart method")
    p.add_argument("--csv", help="also write the result as a CSV row")
    p.set_defaults(func=_cmd_bdrate)

    p = sub.add_parser("grid", parents=[store_p, metric_p, method_p],
                       help="pairwise BD-Rate comparison grid")
    p.add_argument("--configs", required=True,
                   help="comma-separated family:preset:passes list; quote "
                        "a config holding a comma as in CSV")
    p.add_argument("--out", help="directory for CSV + SVG output")
    p.set_defaults(func=_cmd_grid)

    p = sub.add_parser("scenario", parents=[store_p],
                       help="scenario-gated preset selection")
    p.add_argument("--id", default="S1", help="S1, S2, S3 or a custom id")
    p.add_argument("--threshold", type=_positive_float, default=None,
                   help="VMAF bar (default 88)")
    p.add_argument("--checkpoint", type=_positive_float, default=None,
                   help="checkpoint bitrate in kb/s (default 4000)")
    p.add_argument("--overshoot", type=_positive_float, default=None,
                   help="overshoot fraction (default 0.15)")
    p.add_argument("--budget-hours", type=_positive_float, default=None)
    p.add_argument("--slack-points", type=_non_negative_float, default=None,
                   help="S2 coverage slack in points (default 5)")
    p.add_argument("--from-summaries",
                   help="summary CSV instead of a record store")
    p.set_defaults(func=_cmd_scenario)

    p = sub.add_parser("report", parents=[store_p, metric_p, method_p],
                       help="full report: scenarios, grids, curves, plots")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--scenarios", default="S1,S2,S3")
    p.add_argument("--threshold", type=_positive_float, default=None,
                   help="VMAF bar (default 88)")
    p.add_argument("--budget-hours", type=_positive_float, default=None)
    p.add_argument("--curves-csv", action="store_true",
                   help="also write per-scenario curve CSVs")
    p.add_argument("--scatter", action="store_true",
                   help="also write coverage-vs-time scatter plots")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    if args.log_level:
        logging.basicConfig(level=args.log_level,
                            format="%(levelname)s %(name)s: %(message)s")
    if args.command not in ("encode", "vmaf"):  # their tools inherit it
        # rdgauge's largest matrix product is 32 x 256 x 32
        # (kernels.CHUNK), too small for a BLAS thread pool, whose start
        # costs about 80 ms of CPU at numpy's import; a value the user
        # set stays.
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    try:
        return args.func(args)
    except MissingBinaryError as exc:
        print(f"environment error: {exc}", file=sys.stderr)
        return EXIT_ENV
    except RdgaugeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
