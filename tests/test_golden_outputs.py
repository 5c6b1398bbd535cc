"""Byte-exact digests of the analysis commands' output files.

A refactor of the BD engine, the store or the report writer must leave
these bytes, and every BD value to the last bit, unchanged:
``bd-values.txt`` pins each classic and smart BD-Rate between two
configurations and ``bd-quality.txt`` each ``bd_quality``, per shared
clip and between aggregate curves, every float in hex. The store is
built from ``make_records`` with fixed seeds and planted cases: a clip
with a single point (so ``curves_from_records`` drops it), a clip with
a Pareto-dominated point, curves of 2, 11 and 12 knots in one
configuration and of 3 and 6 in another, clips that overlap only some
other configurations, and one configuration pair that shares no quality
interval on any clip (an N/A grid cell).

The complexity digests pin ``rdgauge complexity --out`` and
``--scatter-csv`` on four small clips that reach every branch of the
block-energy kernel and the TE difference: an 8-bit moving clip, a
letterboxed clip with one near-flat block (one sample off by 1), a
10-bit clip at the maximum sample value, and a clip whose size is not a
multiple of 32, so padding runs. They are pinned once with one worker
and once with four, so the clip pool is checked on any host.

When an output changes on purpose, print the new digests with
``python tests/test_golden_outputs.py`` and explain the change in the
commit that updates them.
"""

import contextlib
import hashlib
import io
import sys
from pathlib import Path

import numpy as np
from conftest import make_header, make_records, write_clip
from rdgauge import bd, complexity, scenario, store, y4m
from rdgauge.cli import main
from rdgauge.errors import AnalysisError

LADDER = (500, 1000, 2000, 4000, 8000, 12000)
LADDER_12 = (300, 500, 1000, 1500, 2000, 3000, 4000, 6000, 8000, 12000,
             16000, 24000)
LADDER_ARG = ",".join(str(t) for t in LADDER)
CLIPS = [f"c{i}" for i in range(8)]
CONFIGS = "x264:medium:1,x264:slow:1,svt-av1:6:1,svt-av1:12:1,x265:slow:2"
TS = "2024-05-01T12:00:00.000000+00:00"

DIGESTS = {
    "grid-classic.csv":
        "c1125f3a34afcf3656a7dd099fea0e09a646f93946461c62028a820b8e5cde44",
    "grid-smart.csv":
        "29bc4b188716adc8afb540da1a228d2666ea2188009a11d2273ea0ef83deaf9c",
    "bdrate-classic.txt":
        "5b45af66cf032fbc707549f58cdc285c2c59d1847b7213400e747a6734bd6b6e",
    "curves-per-clip.csv":
        "f4d160ea9c43de66bf674ca3076d3e8a5a2f1b0a6726b9f15ffea7461a1f92d1",
    "report/scatter-S1.svg":
        "4881636f41ee7348301a45aefd6fd5aaa9684df719baa02333972c244a9ec660",
    "report/scatter-S2.svg":
        "016cf453189300ad5b2fd880fab625e91b124e8082bf74fb1847919456bbc87a",
    "report/scatter-S3.svg":
        "9440dd933f69e6403ac82dcbd1e4056255b5c6bbcc3b915296c6ed54c3d67dbb",
    "report/rd-S1.svg":
        "3714e7d1f05f7fe6900171658e9e2fa27870c1b0865c85255291e95d1ccce9e2",
    "report/rd-S1.csv":
        "fe2540dbe397f3a7b3d3a1adf51798baaa06f3a5483c851920bf2ad5aefb18a2",
    "report/rd-S2.svg":
        "6ccbd2aef1e0a7692e3d6d53e3f7cc309d08f624471344605e57c6aa3632f8ab",
    "report/rd-S2.csv":
        "fe2540dbe397f3a7b3d3a1adf51798baaa06f3a5483c851920bf2ad5aefb18a2",
    "report/rd-S3.svg":
        "b9ae2c2b1984448c952396742b9e63e54cb838d636d47908dcf3d6b579072f18",
    "report/rd-S3.csv":
        "08d20e4a0d7e6afbc1074d6e67d9bcb0012b01f44141f485f03380bbb8a35aad",
    "report/grid-bd-classic.csv":
        "fca163e1d506169487e9724dfc57a1dbf590bd77170e0568c3d75d317dc9726d",
    "report/grid-bd-classic.svg":
        "49f56c33ede8207f3ca7363980567c1e12aa985fa93ce018b53fe1e98aacdc3d",
    "report/grid-time.csv":
        "806b74aed736dedbea8923987e385841ccd214bfb786cb32d58f5309a7d3a13b",
    "report/grid-time.svg":
        "f09e22cb19fec5c263132ecf11f76f59f92970475eaaa7a85f75d897f44b8076",
    "bd-values.txt":
        "730ee6e0b2b8d834ccfecce1d2bd3d14f5ad3f8d55bfcd3e83d045c3dc2afec8",
    "bd-quality.txt":
        "8cf7f14e9258f1bc18d6efb2468cea7edf7109009405c1bd799d1d9e1501d8cb",
    "report/report.txt":
        "49713360acf1161ce667a9e86b7db31bb01d27119b3f9ec5060b0389a16c4cf1",
}

COMPLEXITY_DIGESTS = {
    "complexity.jsonl":
        "5b2394af26b5900601e8366b2e1bf6b1b69b2de3c3a3077542de3418f66d3424",
    "scatter.csv":
        "3f0ac2872177585c8b797c6b65b2ecb8974b130a42ed01c6f6f88d5a1809225f",
}


def _records():
    low = 1.0 / 10.0  # quality so low it overlaps only the slow half
    records = []
    # x264:medium:1 -- c0 and c1 live at very low quality, c6 has three
    # rungs, c7 a single one (dropped)
    records += make_records(CLIPS[:2], "x264", "medium", 1, LADDER,
                            rate_factor=1.05, efficiency=0.95 * low,
                            enc_s=100.0, rate_jitter=0.03, seed=11)
    records += make_records(CLIPS[2:6], "x264", "medium", 1, LADDER,
                            rate_factor=1.05, efficiency=0.95, enc_s=100.0,
                            rate_jitter=0.03, scale_base=3300.0, seed=12)
    records += make_records(["c6"], "x264", "medium", 1, (1000, 4000, 8000),
                            rate_factor=1.05, efficiency=0.95, enc_s=100.0,
                            scale_base=4900.0, seed=13)
    records += make_records(["c7"], "x264", "medium", 1, (2000,),
                            rate_factor=1.05, enc_s=100.0, seed=14)
    # x264:slow:1 -- twelve knots, except c3 (two) and c4, whose 3000
    # kb/s rung loses to its 2000 kb/s one and is cleaned away
    slow = make_records([c for c in CLIPS if c != "c3"], "x264", "slow", 1,
                        LADDER_12, rate_factor=0.95, efficiency=1.15,
                        enc_s=200.0, rate_jitter=0.02, seed=21)
    for rec in slow:
        if rec.clip_id == "c4" and rec.target_kbps == 3000.0:
            rec.vmaf -= 25.0
    records += slow
    records += make_records(["c3"], "x264", "slow", 1, (2000, 8000),
                            rate_factor=0.95, efficiency=1.15, enc_s=200.0,
                            scale_base=3700.0, seed=22)
    records += make_records(CLIPS, "svt-av1", "6", 1, LADDER,
                            rate_factor=0.75, efficiency=1 / 0.75, enc_s=40.0,
                            rate_jitter=0.03, seed=31)
    records += make_records(CLIPS, "svt-av1", "12", 1, LADDER,
                            efficiency=low, enc_s=10.0, rate_jitter=0.02,
                            seed=41)
    # far above svt-av1:12:1 on every clip, and over the S3 hour budget
    records += make_records(CLIPS, "x265", "slow", 2, LADDER,
                            efficiency=4.0, enc_s=5000.0, seed=51)
    for rec in records:
        rec.created_at = TS
    return records


def _outputs(work: Path) -> dict:
    """Each output file's sha256, by the names of ``DIGESTS``."""
    store_path = work / "store.jsonl"
    for rec in _records():
        store.append(store_path, rec)
    common = ["--store", str(store_path), "--ladder", LADDER_ARG]
    for method in ("classic", "smart"):
        assert main(["grid", *common, "--method", method, "--configs",
                     CONFIGS, "--out", str(work / method)]) == 0
    assert main(["curves", *common, "--config", "x264:medium:1",
                 "--per-clip", "--out", str(work / "curves.csv")]) == 0
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        code = main(["bdrate", *common, "--anchor", "x264:medium:1",
                     "--test", "x265:slow:2", "--csv", str(work / "bd.csv")])
    assert code == 0
    assert main(["report", *common, "--out", str(work / "report"),
                 "--scatter", "--curves-csv"]) == 0
    texts = {
        "grid-classic.csv": (work / "classic/grid-bd-classic.csv").read_bytes(),
        "grid-smart.csv": (work / "smart/grid-bd-smart.csv").read_bytes(),
        "bdrate-classic.txt": (printed.getvalue().encode()
                               + (work / "bd.csv").read_bytes()),
        "curves-per-clip.csv": (work / "curves.csv").read_bytes(),
    }
    for path in sorted((work / "report").iterdir()):
        texts[f"report/{path.name}"] = path.read_bytes()
    loaded = store.load(store_path)
    texts["bd-values.txt"] = _exact_values(loaded)
    texts["bd-quality.txt"] = _exact_quality_values(loaded)
    return {name: hashlib.sha256(data).hexdigest()
            for name, data in texts.items()}


def _config_rows(records) -> dict:
    """Each configuration's records, by (family, preset, passes)."""
    groups = scenario.group_by_config(records)
    return {cfg: scenario.records_for_config(groups, cfg)
            for cfg in groups.configs}


def _exact_values(records) -> bytes:
    """Every classic and smart BD result between two configurations, with
    each float in hex, so a change in the last bit shows."""
    rows = _config_rows(records)
    lines = []
    for anchor in sorted(rows):
        for test in sorted(rows):
            if anchor == test:
                continue
            for method in ("classic", "smart"):
                try:
                    if method == "classic":
                        result = bd.classic_bd_rate(
                            bd.curves_from_records(rows[anchor]),
                            bd.curves_from_records(rows[test]))
                    else:
                        result = bd.smart_bd_rate(rows[anchor], rows[test],
                                                  LADDER)
                except AnalysisError as exc:
                    lines.append(f"{anchor} {test} {method} {exc}")
                    continue
                lines.append(" ".join(map(str, (
                    anchor, test, method, result.value.hex(),
                    result.overlap[0].hex(), result.overlap[1].hex(),
                    result.anchor_points_used, result.test_points_used,
                    result.method_note))))
    return "\n".join(lines).encode()


def _exact_quality_values(records) -> bytes:
    """``bd_quality`` between every two configurations, on each clip they
    share and on their aggregate curves, with each float in hex."""
    rows = _config_rows(records)
    clips = {cfg: bd.curves_from_records(rows[cfg]) for cfg in rows}
    lines = []

    def line(anchor, test, what, pair):
        try:
            result = bd.bd_quality(*pair())
        except AnalysisError as exc:
            lines.append(f"{anchor} {test} {what} {exc}")
            return
        lines.append(" ".join(map(str, (
            anchor, test, what, result.value.hex(), result.overlap[0].hex(),
            result.overlap[1].hex(), result.anchor_points_used,
            result.test_points_used, result.method_note))))

    for anchor in sorted(rows):
        for test in sorted(rows):
            if anchor == test:
                continue
            a, t = clips[anchor], clips[test]
            for clip in sorted(a.keys() & t.keys()):
                line(anchor, test, clip, lambda: (a[clip], t[clip]))
            line(anchor, test, "aggregate", lambda: (
                bd.aggregate_curve(rows[anchor], LADDER),
                bd.aggregate_curve(rows[test], LADDER)))
    return "\n".join(lines).encode()


def _golden_clips():
    """(name, header, luma planes) of the complexity clips."""
    rng = np.random.default_rng(29)
    clips = []
    base = rng.integers(0, 256, (64, 96))
    clips.append(("a_moving8", make_header(96, 64), [
        np.roll(base, (t, 2 * t), axis=(0, 1)) for t in range(4)]))
    base = rng.integers(0, 256, (128, 96))
    frames = []
    for t in range(3):
        luma = np.roll(base, 3 * t, axis=1)
        luma[:32] = 16
        luma[96:] = 16
        luma[127, 63] = 17  # near-flat block: one sample off by 1
        frames.append(luma)
    clips.append(("b_letterbox8", make_header(96, 128), frames))
    top = 1023
    base = rng.integers(top - 3, top + 1, (64, 64))
    frames = []
    for t in range(3):
        luma = base.copy()
        luma[:32, :32] = top
        luma[32:, 32:] = top if t % 2 else 0  # MAD at full swing
        luma[t, 40] = top - 1
        frames.append(luma)
    clips.append(("c_max10", make_header(64, 64, bit_depth=10), frames))
    base = rng.integers(0, 256, (46, 70))
    clips.append(("d_odd8", make_header(70, 46), [
        np.roll(base, t, axis=0) for t in range(3)]))
    return clips


def _complexity_outputs(work: Path) -> dict:
    """sha256 of ``rdgauge complexity``'s files, by COMPLEXITY_DIGESTS names."""
    clips_dir = work / "clips"
    clips_dir.mkdir()
    for name, header, lumas in _golden_clips():
        zeros = np.zeros((header.chroma_height, header.chroma_width),
                         header.dtype)
        frames = [y4m.Frame(y=luma.astype(header.dtype), u=zeros, v=zeros,
                            bit_depth=header.bit_depth) for luma in lumas]
        with open(clips_dir / f"{name}.y4m", "wb") as f:
            write_clip(header, frames, f)
    out, scatter = work / "complexity.jsonl", work / "scatter.csv"
    assert main(["complexity", "--clips-dir", str(clips_dir), "--out",
                 str(out), "--scatter-csv", str(scatter)]) == 0
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in (out, scatter)}


def test_output_bytes_are_pinned(tmp_path, capsys):
    got = _outputs(tmp_path)
    capsys.readouterr()
    assert sorted(got) == sorted(DIGESTS)
    assert {k: v for k, v in got.items() if DIGESTS[k] != v} == {}


def _pinned_with_cpus(work, capsys, monkeypatch, cpus):
    monkeypatch.setattr(complexity, "available_cpus", lambda: cpus)
    got = _complexity_outputs(work)
    capsys.readouterr()
    assert got == COMPLEXITY_DIGESTS


def test_complexity_bytes_are_pinned(tmp_path, capsys, monkeypatch):
    _pinned_with_cpus(tmp_path, capsys, monkeypatch, 1)


def test_complexity_bytes_are_pinned_on_four_workers(tmp_path, capsys,
                                                      monkeypatch):
    # four workers on any host, a one-CPU one included
    _pinned_with_cpus(tmp_path, capsys, monkeypatch, 4)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / "analysis").mkdir()
        (work / "complexity").mkdir()
        for title, outputs in (
                ("DIGESTS", _outputs(work / "analysis")),
                ("COMPLEXITY_DIGESTS", _complexity_outputs(work / "complexity"))):
            print(f"{title} = {{", file=sys.stderr)
            for name, digest in outputs.items():
                print(f"    {name!r}: {digest!r},", file=sys.stderr)
            print("}", file=sys.stderr)
