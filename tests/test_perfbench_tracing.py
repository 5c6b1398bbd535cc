"""The traced benchmark wraps rdgauge functions by name, so each of its
targets must still exist where it looks for it."""

import sys
from pathlib import Path

import rdgauge.cli  # noqa: F401  (imports every module the tracer wraps)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_wraps_every_target(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    assert Path(tracing.__file__).parent == PERFBENCH

    def current(target):
        module, name = target
        return getattr(sys.modules[f"rdgauge.{module}"], name)

    originals = {target: current(target) for target in tracing.TARGETS}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for target, original in originals.items():
            assert current(target).__wrapped__ is original, target
    finally:
        tracer.uninstall()
    assert all(current(t) is original for t, original in originals.items())


def test_traced_analysis_commands_fill_every_hook(monkeypatch, tmp_path,
                                                   capsys):
    """The hooks read what the wrapped calls return (``len`` of a loaded
    store, ``records[0].family`` of an aggregate's input), so a change of
    type that breaks one fails here, not only in a traced benchmark run."""
    from conftest import make_records
    from rdgauge import store
    from rdgauge.cli import main

    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    path = tmp_path / "s.jsonl"
    clips = [f"c{i}" for i in range(4)]
    ladder = (500, 1000, 2000, 4000, 8000)
    configs = []
    for k, (family, preset) in enumerate((("x264", "slow"), ("x264", "fast"),
                                          ("svt-av1", "4"), ("svt-av1", "8"))):
        configs.append(f"{family}:{preset}:1")
        for rec in make_records(clips, family, preset, 1, ladder,
                                rate_factor=1.0 - 0.1 * k, enc_s=10.0 + k,
                                seed=k):
            store.append(path, rec)
    common = ["--store", str(path), "--ladder", ",".join(map(str, ladder))]
    commands = [
        ("grid_classic", ["grid", *common, "--method", "classic",
                          "--configs", ",".join(configs)]),
        ("grid_smart", ["grid", *common, "--method", "smart",
                        "--configs", ",".join(configs)]),
        ("report", ["report", *common, "--out", str(tmp_path / "report"),
                    "--scatter", "--curves-csv"]),
        # the grids and the report build every config's curves in one
        # batched call; these two reach the per-config builders
        ("curves", ["curves", *common, "--config", configs[0]]),
        ("curves_per_clip", ["curves", *common, "--config", configs[0],
                             "--per-clip"]),
    ]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for label, argv in commands:
            assert tracer.command(label, 0, main, argv) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    metrics = tracer.metrics([0, 1, 2, 3, 4])
    for m in metrics.values():
        assert m["store.load.calls"] == 1
        assert m["store.load.lines"] == 80
        assert all(v >= 0 for k, v in m.items() if k.endswith(".self_ms"))
    assert metrics[4]["bd.curves_from_records.ms"] > 0
    assert metrics[3]["bd.aggregate_curve.calls"] > 0
    assert metrics[3]["bd.aggregate_curves_per_config"] == 1.0
    assert metrics[2]["report.files"] == 14
