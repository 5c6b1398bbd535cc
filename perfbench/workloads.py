"""Seeded inputs, CLI commands and output checks for each workload.

Each workload has two halves. ``generate`` runs in the parent process:
it writes the inputs for one seed into a fresh work directory and
returns a JSON-able spec of what the outputs must look like. The
workload classes run in the timing worker: each names one ``rdgauge``
command of an iteration, resets its state before the command, keeps
what each command produced, and checks it once the timed loop is over.
An ``analyze`` iteration runs three commands over one store; the other
workloads run one.

The generators decide the workload's shape (counts, sizes, planted
cases) without the seed; the seed only moves values. A second seed
therefore gives the same amount of work with different numbers.
"""

from __future__ import annotations

import json
import math
import shutil
import stat
from pathlib import Path

import numpy as np

# ---------------------------------------------------------------- analyze

N_CLIPS = 60
LADDER = (500, 1000, 2000, 3000, 4000, 6000, 8000, 10000, 12000, 14000,
          16000, 20000)
TS_LATEST = "2024-05-01T12:00:00.000000+00:00"
TS_SUPERSEDED = "2024-04-01T12:00:00.000000+00:00"
SUPERSEDED_SHARE = 0.10
DROPOUT_CLIPS = 3  # clips of x264:medium:1 whose curves miss svt-av1:4:1
LOW_EFFICIENCY = 1.0 / 30.0  # quality so low it overlaps only slow curves

# (family, preset, passes, rate_factor, efficiency, rate_jitter, enc_s).
# The 2-pass configs are pure rate-scaled copies of one another
# (efficiency = 1 / rate_factor keeps every quality), so their BD-Rate
# is exactly (r_j / r_i - 1) * 100. svt-av1:8:1 (very low quality) and
# svt-av1:4:1 (very high quality) share no quality interval on any clip,
# which plants exactly one N/A pair; both overlap every other config.
STORE_CONFIGS = (
    ("x264", "slow", 1, 1.00, 1.10, 0.03, 200.0),
    ("x264", "slow", 2, 1.00, 1.00, 0.0, 320.0),
    ("x264", "medium", 1, 1.05, 0.95, 0.03, 100.0),
    ("x264", "medium", 2, 1.25, 1.0 / 1.25, 0.0, 160.0),
    ("svt-av1", "4", 1, 1.00, 2.00, 0.02, 240.0),
    ("svt-av1", "4", 2, 0.70, 1.0 / 0.70, 0.0, 384.0),
    ("svt-av1", "8", 1, 1.00, LOW_EFFICIENCY, 0.02, 60.0),
    ("svt-av1", "8", 2, 0.85, 1.0 / 0.85, 0.0, 96.0),
)
NA_PAIR = ("svt-av1:8:1p", "svt-av1:4:1p")
# Generic cells checked against the independent trapezoid oracle.
ORACLE_PAIRS = (("x264:slow:1p", "x264:medium:1p"),
                ("x264:medium:1p", "svt-av1:4:1p"),
                ("svt-av1:8:1p", "x264:slow:1p"))
ORACLE_TOLERANCE = 0.01  # percentage points, acceptance criterion 2
CSV_ROUNDING = 5e-5  # the grid CSV prints 4 decimals
REPORT_FILES = (
    "scatter-S1.svg", "scatter-S2.svg", "scatter-S3.svg",
    "rd-S1.svg", "rd-S1.csv", "rd-S2.svg", "rd-S2.csv",
    "rd-S3.svg", "rd-S3.csv",
    "grid-bd-classic.csv", "grid-bd-classic.svg",
    "grid-time.csv", "grid-time.svg", "report.txt",
)


def _label(family, preset, passes):
    return f"{family}:{preset}:{passes}p"


def _generate_store(work: Path, seed: int) -> dict:
    from conftest import make_records  # tests/conftest.py

    rng = np.random.default_rng(seed)
    scale_base = float(rng.uniform(2300.0, 2700.0))
    clips = [f"clip{i:03d}" for i in range(N_CLIPS)]
    records = []
    scaled = {}
    for idx, (family, preset, passes, rf, eff, jitter, enc_s) in enumerate(
            STORE_CONFIGS):
        kw = dict(rate_factor=rf, enc_s=enc_s, rate_jitter=jitter,
                  scale_base=scale_base, seed=seed * 100 + idx)
        if jitter == 0.0:
            scaled[_label(family, preset, passes)] = rf
        if (family, preset, passes) == ("x264", "medium", 1):
            # make_records scales per clip index, so shift the drop-out
            # clips' scale to keep their position in the corpus.
            records += make_records(clips[:DROPOUT_CLIPS], family, preset,
                                    passes, LADDER, efficiency=eff * LOW_EFFICIENCY,
                                    **kw)
            kw["scale_base"] = scale_base + 400.0 * DROPOUT_CLIPS
            kw["seed"] += 1000
            records += make_records(clips[DROPOUT_CLIPS:], family, preset,
                                    passes, LADDER, efficiency=eff, **kw)
        else:
            records += make_records(clips, family, preset, passes, LADDER,
                                    efficiency=eff, **kw)

    lines = []
    for i, rec in enumerate(records):
        rec.created_at = TS_LATEST
        lines.append((float(i), rec.to_line()))
    n_old = int(round(SUPERSEDED_SHARE * len(records)))
    for i in rng.choice(len(records), size=n_old, replace=False):
        rec = records[i]
        old = type(rec)(**{**rec.__dict__,
                           "measured_kbps": rec.measured_kbps * 1.3,
                           "vmaf": rec.vmaf * 0.9,
                           "created_at": TS_SUPERSEDED})
        # Superseded lines land both before and after their re-run.
        lines.append((float(rng.uniform(0, len(records))), old.to_line()))
    lines.sort(key=lambda item: item[0])
    store = work / "store.jsonl"
    store.write_text("".join(line + "\n" for _, line in lines),
                     encoding="utf-8")
    return {
        "store": str(store),
        "configs": [_label(*c[:3]) for c in STORE_CONFIGS],
        "scaled": scaled,
    }


def _latest_points(store_text: str) -> dict:
    """(config label, clip) -> [(tbr, kbps, vmaf)] in rung order, keeping
    the newest line per key. Parsed here, independently of rdgauge.store."""
    latest = {}
    for idx, line in enumerate(store_text.splitlines()):
        row = json.loads(line)
        key = (row["clip"], row["family"], row["preset"], row["passes"],
               row["tbr_kbps"])
        if key not in latest or (row["ts"], idx) >= latest[key][0]:
            latest[key] = ((row["ts"], idx), row)
    points = {}
    for (clip, family, preset, passes, _), (_, row) in latest.items():
        points.setdefault((_label(family, preset, passes), clip), []).append(
            (row["tbr_kbps"], row["kbps"], row["vmaf"]))
    return {k: sorted(v) for k, v in points.items()}


def _overlaps(a, b) -> bool:
    qa = [q for _, q in a]
    qb = [q for _, q in b]
    return max(min(qa), min(qb)) < min(max(qa), max(qb))


def _oracle_cells(store_text: str) -> dict:
    """Oracle BD-Rates for ORACLE_PAIRS: classic (mean over clips whose
    quality ranges overlap) and smart (harmonic-mean aggregate curves)."""
    from oracles import bd_rate_trapezoid  # tests/oracles.py

    points = _latest_points(store_text)
    clips = sorted({clip for (_, clip) in points})

    def curve(label, clip):
        return [(rate, q) for _, rate, q in points[(label, clip)]]

    def aggregate(label):
        rungs = zip(*(points[(label, clip)] for clip in clips))
        return [(len(rung) / sum(1.0 / r for _, r, _ in rung),
                 len(rung) / sum(1.0 / q for _, _, q in rung))
                for rung in rungs]

    out = {}
    for anchor, test in ORACLE_PAIRS:
        pairs = [(curve(anchor, c), curve(test, c)) for c in clips]
        values = [bd_rate_trapezoid(a, t) for a, t in pairs if _overlaps(a, t)]
        out[("classic", anchor, test)] = float(np.mean(values))
        out[("smart", anchor, test)] = bd_rate_trapezoid(
            aggregate(anchor), aggregate(test))
    return out


def _parse_grid(text: str):
    rows = [line.split(",") for line in text.strip().splitlines()]
    labels = rows[0][1:]
    cells = {}
    for row in rows[1:]:
        for test, cell in zip(labels, row[1:]):
            cells[(row[0], test)] = None if cell == "" else float(cell)
    return labels, cells


class Workload:
    """Worker-side half of a workload; subclasses name the command."""

    def __init__(self, work: Path, spec: dict):
        self.spec = spec

    def argv(self) -> list:
        raise NotImplementedError

    def reset(self) -> None:
        """Undo what the previous command changed, outside the timing."""

    def observe(self, code: int, out: str) -> dict:
        """What the command produced, kept for ``check``."""
        return {"code": code, "out": out}

    def check(self, obs: dict) -> list:
        """Failure messages for one command; empty when it was right."""
        raise NotImplementedError

    def exact_failures(self) -> list:
        """Checks that need a direct library call, made once per run."""
        return []


class GridWorkload(Workload):
    """``rdgauge grid`` over every config of the seeded store."""

    def __init__(self, work: Path, spec: dict, method: str):
        super().__init__(work, spec)
        self.method = method
        self._oracle = None

    def argv(self) -> list:
        return ["grid", "--store", self.spec["store"], "--method", self.method,
                "--configs", ",".join(c[:-1] for c in self.spec["configs"])]

    def exact_failures(self) -> list:
        """Rate-scaled copies at full precision (1e-9 relative), by a
        direct library call outside the timed loop."""
        from rdgauge import bd, store

        records = store.load(self.spec["store"])
        by_label = {}
        for rec in records:
            by_label.setdefault(_label(rec.family, rec.preset, rec.passes),
                                []).append(rec)
        failures = []
        for a, ra in self.spec["scaled"].items():
            for b, rb in self.spec["scaled"].items():
                if a == b:
                    continue
                if self.method == "classic":
                    got = bd.classic_bd_rate(
                        bd.curves_from_records(by_label[a]),
                        bd.curves_from_records(by_label[b])).value
                else:
                    got = bd.smart_bd_rate(by_label[a], by_label[b],
                                           LADDER).value
                want = (rb / ra - 1.0) * 100.0
                if abs(got - want) > 1e-9 * abs(want):
                    failures.append(f"{a}->{b}: {got!r} != {want!r}")
        return failures

    def check(self, obs: dict) -> list:
        if obs["code"] != 0:
            return [f"exit code {obs['code']}"]
        labels, cells = _parse_grid(obs["out"])
        if labels != self.spec["configs"]:
            return [f"labels {labels}"]
        failures = []
        na = {k for k, v in cells.items() if v is None}
        if na != {NA_PAIR, NA_PAIR[::-1]}:
            failures.append(f"N/A cells {sorted(na)}")
        for a, ra in self.spec["scaled"].items():
            for b, rb in self.spec["scaled"].items():
                want = (rb / ra - 1.0) * 100.0
                got = cells[(a, b)]
                if got is None or abs(got - want) > CSV_ROUNDING + 1e-9 * abs(want):
                    failures.append(f"scaled {a}->{b}: {got} != {want}")
        if self._oracle is None:
            self._oracle = _oracle_cells(
                Path(self.spec["store"]).read_text(encoding="utf-8"))
        for (method, a, b), want in self._oracle.items():
            if method != self.method:
                continue
            got = cells[(a, b)]
            if got is None or abs(got - want) > ORACLE_TOLERANCE + CSV_ROUNDING:
                failures.append(f"oracle {a}->{b}: {got} vs {want:.6f}")
        return failures


class ReportWorkload(Workload):
    """``rdgauge report --scatter --curves-csv`` over the seeded store."""

    def __init__(self, work: Path, spec: dict):
        super().__init__(work, spec)
        self.out = work / "report"

    def argv(self) -> list:
        return ["report", "--store", self.spec["store"], "--out", str(self.out),
                "--scatter", "--curves-csv"]

    def reset(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)

    def observe(self, code: int, out: str) -> dict:
        printed = [Path(line).name for line in out.splitlines()]
        sizes = {p.name: p.stat().st_size for p in self.out.glob("*")} \
            if self.out.is_dir() else {}
        return {"code": code, "printed": printed, "sizes": sizes}

    def check(self, obs: dict) -> list:
        if obs["code"] != 0:
            return [f"exit code {obs['code']}"]
        failures = []
        if obs["printed"] != list(REPORT_FILES):
            failures.append(f"manifest {obs['printed']}")
        if sorted(obs["sizes"]) != sorted(REPORT_FILES):
            failures.append(f"files on disk {sorted(obs['sizes'])}")
        empty = [name for name, size in obs["sizes"].items() if size == 0]
        if empty:
            failures.append(f"empty files {empty}")
        return failures


# ------------------------------------------------------------- complexity

CX_WIDTH, CX_HEIGHT, CX_FRAMES = 1920, 1080, 16
BLOCK = 32
LETTERBOX_ROWS = 138  # 2.39:1 picture in 16:9; 8 of 34 block rows flat
# (name, bit depth, vertical step, horizontal step, letterboxed)
CX_CLIPS = (
    ("a_pan8", 8, 0, 4, False),
    ("b_tilt8", 8, 2, 1, False),
    ("c_letterbox8", 8, 0, 3, True),
    ("d_pan10", 10, 0, 2, False),
)


def _y4m_header(width, height, depth, fps=30) -> bytes:
    chroma = "C420jpeg" if depth == 8 else "C420p10"
    return f"YUV4MPEG2 W{width} H{height} F{fps}:1 Ip A1:1 {chroma}\n".encode()


def _write_y4m(path: Path, width, height, depth, n_frames, luma_at, rng,
               fps=30) -> None:
    dtype = np.dtype("u1") if depth == 8 else np.dtype("<u2")
    chroma = rng.integers(0, 1 << depth, size=(2, height // 2, width // 2))
    chroma_bytes = chroma.astype(dtype).tobytes()
    with open(path, "wb") as f:
        f.write(_y4m_header(width, height, depth, fps))
        for t in range(n_frames):
            f.write(b"FRAME\n")
            f.write(luma_at(t).astype(dtype).tobytes())
            f.write(chroma_bytes)


def _generate_complexity(work: Path, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    clips_dir = work / "clips"
    clips_dir.mkdir()
    for name, depth, dy, dx, letterbox in CX_CLIPS:
        top = 1 << depth
        base = rng.integers(0, top, size=(CX_HEIGHT, CX_WIDTH))
        black = 16 << (depth - 8)

        def luma_at(t, base=base, dy=dy, dx=dx, letterbox=letterbox,
                    black=black):
            y = np.roll(base, (dy * t, dx * t), axis=(0, 1))
            if letterbox:
                y[:LETTERBOX_ROWS] = black
                y[-LETTERBOX_ROWS:] = black
            return y

        _write_y4m(clips_dir / f"{name}.y4m", CX_WIDTH, CX_HEIGHT, depth,
                   CX_FRAMES, luma_at, rng)
    return {"clips_dir": str(clips_dir), "frames": CX_FRAMES,
            "clips": [c[0] for c in CX_CLIPS],
            "work_items": len(CX_CLIPS) * CX_FRAMES}


def _read_luma(path: Path, index: int) -> tuple:
    """Luma plane of frame ``index`` and the bit depth, read directly."""
    with open(path, "rb") as f:
        header = f.readline()
    tags = header.decode().split()
    width = int(tags[1][1:])
    height = int(tags[2][1:])
    depth = 8 if tags[-1] == "C420jpeg" else 10
    dtype = np.dtype("u1") if depth == 8 else np.dtype("<u2")
    marker = len(b"FRAME\n")
    frame_bytes = marker + width * height * 3 // 2 * dtype.itemsize
    offset = len(header) + index * frame_bytes + marker
    luma = np.fromfile(path, dtype=dtype, count=width * height, offset=offset)
    return luma.reshape(height, width), depth


def reference_spatial_energy(luma: np.ndarray, depth: int) -> float:
    """Frame SE by scipy's orthonormal DCT-II, independent of rdgauge."""
    from scipy.fft import dctn

    h, w = luma.shape
    padded = np.pad(luma.astype(np.float64),
                    ((0, (-h) % BLOCK), (0, (-w) % BLOCK)), mode="edge")
    blocks = padded.reshape(padded.shape[0] // BLOCK, BLOCK,
                            padded.shape[1] // BLOCK, BLOCK).swapaxes(1, 2)
    mags = np.abs(dctn(blocks, type=2, norm="ortho", axes=(2, 3)))
    energy = mags.sum(axis=(2, 3)) - mags[:, :, 0, 0]
    energy[blocks.min(axis=(2, 3)) == blocks.max(axis=(2, 3))] = 0.0
    return float(energy.mean()) / (BLOCK * BLOCK) / float(1 << (depth - 8))


class ComplexityWorkload(Workload):
    """``rdgauge complexity`` over the seeded 1080p clips."""

    def __init__(self, work: Path, spec: dict):
        super().__init__(work, spec)
        self.out = work / "complexity.jsonl"
        self._reference = None

    def argv(self) -> list:
        return ["complexity", "--clips-dir", self.spec["clips_dir"],
                "--out", str(self.out)]

    def reset(self) -> None:
        self.out.unlink(missing_ok=True)

    def observe(self, code: int, out: str) -> dict:
        text = self.out.read_text(encoding="utf-8") if self.out.exists() else ""
        return {"code": code, "out": out, "records": text}

    def reference(self) -> dict:
        if self._reference is None:
            ref = {}
            clips_dir = Path(self.spec["clips_dir"])
            for clip in self.spec["clips"]:
                path = clips_dir / f"{clip}.y4m"
                ref[clip] = tuple(
                    reference_spatial_energy(*_read_luma(path, i))
                    for i in (0, self.spec["frames"] - 1))
            self._reference = ref
        return self._reference

    def check(self, obs: dict) -> list:
        if obs["code"] != 0:
            return [f"exit code {obs['code']}"]
        n = self.spec["frames"]
        rows = [json.loads(line) for line in obs["records"].splitlines()]
        if [r["clip"] for r in rows] != self.spec["clips"]:
            return [f"clips {[r['clip'] for r in rows]}"]
        printed = [line for line in obs["out"].splitlines() if "frames=" in line]
        failures = []
        if len(printed) != len(rows) or not all(
                line.endswith(f"frames={n}") for line in printed):
            failures.append(f"printed frame counts {printed}")
        for row in rows:
            se, te = row["frame_se"], row["frame_te"]
            if row["frames"] != n or len(se) != n:
                failures.append(f"{row['clip']}: {len(se)} frames")
                continue
            for got, want in zip((se[0], se[-1]), self.reference()[row["clip"]]):
                if abs(got - want) > 1e-9 * abs(want):
                    failures.append(f"{row['clip']}: SE {got!r} != {want!r}")
            if len(te) != n - 1 or not all(math.isfinite(v) and v >= 0
                                           for v in te):
                failures.append(f"{row['clip']}: TE {te[:3]}...")
        return failures


# ----------------------------------------------------------------- encode

ENC_WIDTH, ENC_HEIGHT, ENC_FRAMES, ENC_FPS = 320, 180, 300, 30
ENC_CLIPS = 4
ENC_FAMILIES = {"x264": ("slow", "medium"), "svt-av1": ("4", "8")}
FAILING_RUNG = 6000
VMAF_MEAN, PSNR_MEAN = 93.25, 44.5

# One script stands in for ffmpeg, SvtAv1EncApp and ffprobe, using only
# shell builtins so each call costs a single process. It logs every
# call except the one-argument version probe. An encode writes as many
# bytes as its target kb/s, so a 10 s clip measures tbr * 0.0008 kb/s;
# ffprobe reports that same rate from the output's name; a libvmaf call
# writes a fixed JSON log; the FAILING_RUNG target exits 1.
FAKE_TOOL = """#!/bin/sh
dir="${0%/*}"
tool="${0##*/}"
[ $# -le 1 ] && exit 0
echo "$tool $*" >> "$dir/calls.log"
prev=""
rate=""
log=""
for last; do
  case "$prev" in
    -b:v) rate="${last%k}" ;;
    --tbr) rate="$last" ;;
  esac
  case "$last" in
    *log_path=*) log="${last##*log_path=}"; log="${log%%:*}" ;;
  esac
  prev="$last"
done
if [ "$tool" = ffprobe ]; then
  rate="${last##*_}"
  rate="${rate%k.mp4}"
  echo "{\\"format\\": {\\"bit_rate\\": \\"$((rate * 8 / DURATION))\\"}}"
  exit 0
fi
if [ -n "$log" ]; then
  echo 'VMAF_LOG' > "$log"
  exit 0
fi
if [ "$rate" = FAILING ]; then
  echo "simulated encoder failure at $rate kb/s" >&2
  exit 1
fi
printf "%0${rate}d" 0 > "$last"
"""


def _encode_keys():
    """Planned keys in plan_matrix order: (clip, family, preset, passes, tbr)."""
    return [(f"enc{c}", family, preset, passes, float(tbr))
            for c in range(ENC_CLIPS)
            for family, presets in ENC_FAMILIES.items()
            for preset in presets
            for passes in (1, 2)
            for tbr in LADDER]


def _expected_kbps(tbr: float) -> float:
    duration = ENC_FRAMES / ENC_FPS
    return tbr * 8.0 / duration / 1000.0


def _generate_encode(work: Path, seed: int) -> dict:
    from rdgauge.store import MetricRecord

    rng = np.random.default_rng(seed)
    clips_dir = work / "clips"
    clips_dir.mkdir()
    for c in range(ENC_CLIPS):
        base = rng.integers(0, 256, size=(ENC_HEIGHT, ENC_WIDTH))
        _write_y4m(clips_dir / f"enc{c}.y4m", ENC_WIDTH, ENC_HEIGHT, 8,
                   ENC_FRAMES, lambda t, base=base: np.roll(base, t, axis=1),
                   rng, fps=ENC_FPS)

    bin_dir = work / "bin"
    bin_dir.mkdir()
    vmaf_log = json.dumps({"pooled_metrics": {
        "vmaf": {"mean": VMAF_MEAN}, "psnr_y": {"mean": PSNR_MEAN}}})
    script = (FAKE_TOOL.replace("DURATION", str(ENC_FRAMES // ENC_FPS))
              .replace("FAILING", str(FAILING_RUNG))
              .replace("VMAF_LOG", vmaf_log))
    for name in ("ffmpeg", "SvtAv1EncApp", "ffprobe"):
        path = bin_dir / name
        path.write_text(script)
        path.chmod(path.stat().st_mode | stat.S_IEXEC)

    # A resumed campaign: half of every (family, passes, rung) group of
    # keys is already stored, so each seed skips and runs the same mix.
    groups = {}
    for key in _encode_keys():
        groups.setdefault((key[1], key[3], key[4]), []).append(key)
    prefilled = []
    for members in groups.values():
        pick = rng.choice(len(members), size=len(members) // 2, replace=False)
        prefilled += [members[i] for i in sorted(pick)]
    lines = [MetricRecord(
        clip_id=clip, family=family, preset=preset, passes=passes,
        target_kbps=tbr, measured_kbps=_expected_kbps(tbr), vmaf=VMAF_MEAN,
        psnr_y=PSNR_MEAN, encode_seconds=1.0, output_bytes=int(tbr),
        tool_version="prefilled", created_at=TS_SUPERSEDED).to_line()
        for (clip, family, preset, passes, tbr) in prefilled]
    store_seed = work / "store.seed.jsonl"
    store_seed.write_text("".join(line + "\n" for line in lines),
                          encoding="utf-8")
    return {"clips_dir": str(clips_dir), "bin_dir": str(bin_dir),
            "store_seed": str(store_seed), "store": str(work / "store.jsonl"),
            "out_dir": str(work / "encodes"),
            "prefilled": [list(k) for k in prefilled],
            "work_items": len(_encode_keys())}


class EncodeWorkload(Workload):
    """``rdgauge encode --with-vmaf --timing-strict`` with fake encoders,
    resuming a half-finished campaign."""

    def __init__(self, work: Path, spec: dict):
        super().__init__(work, spec)
        self.store = Path(spec["store"])
        self.seed_text = Path(spec["store_seed"]).read_text(encoding="utf-8")
        self.calls_log = Path(spec["bin_dir"]) / "calls.log"
        self.out_dir = Path(spec["out_dir"])
        planned = _encode_keys()
        prefilled = {tuple(k) for k in spec["prefilled"]}
        run = [k for k in planned if k not in prefilled]
        self.planned = len(planned)
        self.expect_ok = {k for k in run if k[4] != FAILING_RUNG}
        self.expect = {"ok": len(self.expect_ok),
                       "failed": len(run) - len(self.expect_ok),
                       "skipped": len(prefilled)}

    def argv(self) -> list:
        return ["encode", "--clips-dir", self.spec["clips_dir"],
                "--families", ",".join(ENC_FAMILIES),
                "--presets", ",".join(p for ps in ENC_FAMILIES.values()
                                      for p in ps),
                "--passes", "1,2", "--store", str(self.store),
                "--work-dir", str(self.out_dir),
                "--binary-dir", self.spec["bin_dir"],
                "--with-vmaf", "--timing-strict"]

    def reset(self) -> None:
        self.store.write_text(self.seed_text, encoding="utf-8")
        self.calls_log.unlink(missing_ok=True)
        shutil.rmtree(self.out_dir, ignore_errors=True)

    def spawns(self) -> int:
        """Processes the command started, from the fake tools' call log."""
        if not self.calls_log.exists():
            return 0
        return len(self.calls_log.read_text().splitlines())

    def observe(self, code: int, out: str) -> dict:
        return {"code": code, "out": out,
                "store": self.store.read_text(encoding="utf-8")}

    def check(self, obs: dict) -> list:
        if obs["code"] != 2:  # the injected failures must surface as exit 2
            return [f"exit code {obs['code']}"]
        failures = []
        want = (f"encoded: {self.expect['ok']} ok, {self.expect['failed']} "
                f"failed, {self.expect['skipped']} skipped")
        if want not in obs["out"]:
            failures.append(f"summary line missing: {want!r}")
        if not obs["store"].startswith(self.seed_text):
            failures.append("pre-filled lines changed")
        added = [json.loads(line)
                 for line in obs["store"][len(self.seed_text):].splitlines()]
        keys = [(r["clip"], r["family"], r["preset"], r["passes"],
                 r["tbr_kbps"]) for r in added]
        if len(keys) != len(set(keys)) or set(keys) != self.expect_ok:
            failures.append(f"store gained {len(keys)} lines, want "
                            f"{len(self.expect_ok)} ok jobs")
        for r in added:
            if (r["kbps"] != _expected_kbps(r["tbr_kbps"])
                    or r["vmaf"] != VMAF_MEAN or r["psnr_y"] != PSNR_MEAN):
                failures.append(f"bad record {r}")
                break
        return failures


# ------------------------------------------------------------- registry

def generate(name: str, work: Path, seed: int) -> dict:
    """Write the inputs of workload ``name`` for ``seed``; return its spec."""
    if name == "analyze":
        spec = _generate_store(work, seed)
    elif name == "complexity":
        spec = _generate_complexity(work, seed)
    elif name == "encode":
        spec = _generate_encode(work, seed)
    else:
        raise ValueError(f"unknown workload {name!r}")
    return {"workload": name, "seed": seed, **spec}


def load(name: str, work: Path, spec: dict) -> list:
    """The commands of one iteration of workload ``name``, in order, as
    (label, worker-side workload object) pairs."""
    if name == "analyze":
        return [("grid_classic", GridWorkload(work, spec, "classic")),
                ("grid_smart", GridWorkload(work, spec, "smart")),
                ("report", ReportWorkload(work, spec))]
    if name == "complexity":
        return [("complexity", ComplexityWorkload(work, spec))]
    if name == "encode":
        return [("encode", EncodeWorkload(work, spec))]
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("analyze", "complexity", "encode")
