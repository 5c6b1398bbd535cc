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
