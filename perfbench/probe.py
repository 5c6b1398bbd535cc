"""Set-up probe: a fresh interpreter imports ``rdgauge.cli`` and makes
the first call into the hot module of one workload (the numba compile
or cache load included, where numba exists).

Usage: ``python3 perfbench/probe.py <workload>``; ``run.py`` times it.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import rdgauge.cli  # noqa: E402,F401


def first_call(workload: str) -> None:
    if workload == "analyze":
        from rdgauge import bd
        bd.bd_rate(bd.clean_curve([(1000, 30), (2000, 35), (4000, 40)]),
                   bd.clean_curve([(1100, 31), (2200, 36), (4400, 41)]))
    elif workload == "complexity":
        import numpy as np
        from rdgauge import kernels
        kernels.block_energies(np.arange(64.0 * 64).reshape(64, 64))
    elif workload == "encode":
        from rdgauge import encoders
        encoders.build_commands(encoders.EncodeJob(
            clip_id="clip", family="x264", preset="medium", passes=2,
            target_kbps=1000))
    else:
        raise SystemExit(f"unknown workload {workload!r}")


if __name__ == "__main__":
    first_call(sys.argv[1])
