"""Rate-distortion curves, Bjontegaard Delta, and dataset aggregation.

BD-Rate follows the standard construction: both curves are interpolated
as monotone shape-preserving piecewise cubics (PCHIP) of log10(rate)
over quality, the difference is averaged over the overlapping quality
interval by exact piecewise-polynomial integration, and the average log
ratio is mapped back to a percentage. Negative means the test curve
saves bitrate.

The interpolant is computed here in numpy: Fritsch-Butland interior
slopes (weighted harmonic mean of the neighbouring secants) and Moler's
one-sided endpoint rule, the scheme of MATLAB's pchip and scipy's
PchipInterpolator, with closed-form Hermite segment integrals summed
once per interpolant. One construction, ``_pchip_tables``, builds the
slopes, coefficients and running integrals of a stack of curves at
once, row by row with the same arithmetic; a single interpolant is a
stack of one. A curve builds its own interpolants lazily, once, so
pairs that reuse a curve pay for it a single time.

Two dataset reductions are provided: the conventional one (BD-Rate per
clip, then arithmetic mean) and the aggregate-curve one (harmonic-mean
rate and quality per ladder rung on each side, then a single BD-Rate).
The conventional one is batched: ``curves_from_records`` returns a
``ClipCurves`` mapping that stacks all of a configuration's clip curves
(``CurveStack``) in one numpy pass per knot count, and
``classic_bd_rate`` integrates every shared clip of a pair at once on
the two stacks. Its per-clip values, their mean in clip-id order and
the reported interval are bit-identical to a ``bd_rate`` per clip.
"""

from __future__ import annotations

import logging
import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    AggregationError,
    AnalysisError,
    CurveError,
    DomainError,
    OverlapError,
)
from .store import MetricRecord

log = logging.getLogger(__name__)

METRIC_VMAF = "vmaf"
METRIC_PSNR_Y = "psnr_y"


@dataclass(frozen=True)
class RDPoint:
    """One (rate kb/s, quality score) operating point."""

    rate: float
    quality: float


@dataclass(frozen=True)
class RDCurve:
    """Cleaned operating points, strictly increasing in rate and quality."""

    id: str
    metric_kind: str
    points: tuple[RDPoint, ...]

    @property
    def qualities(self) -> np.ndarray:
        return np.array([p.quality for p in self.points])

    @property
    def rates(self) -> np.ndarray:
        return np.array([p.rate for p in self.points])

    @cached_property
    def interpolant(self) -> MonotoneInterpolant:
        """quality -> log10(rate), built on first use by ``interpolate``."""
        return interpolate(self)

    @cached_property
    def rate_interpolant(self) -> MonotoneInterpolant:
        """log10(rate) -> quality, built on first use."""
        return _rate_interpolant(self)


@dataclass(frozen=True)
class BDResult:
    """A BD value plus the interval and point counts behind it."""

    value: float
    kind: str  # "rate" (percent) | "quality" (score delta)
    overlap: tuple[float, float]
    anchor_points_used: int
    test_points_used: int
    method_note: str = ""
    overlap_label: str = "overlap"  # what the ``overlap`` interval is


def clean_curve(
    points: Iterable[Sequence[float]],
    id: str = "",
    metric_kind: str = METRIC_VMAF,
) -> RDCurve:
    """Drop Pareto-dominated (rate, quality) points and sort by quality.

    A point is dominated when some other point reaches at least its
    quality at no more rate; among equal qualities the lowest rate
    survives. The survivors are strictly increasing in both axes.
    """
    pts = []
    for p in points:
        if isinstance(p, RDPoint):
            rate, quality = p.rate, p.quality
        else:
            rate, quality = float(p[0]), float(p[1])
        if not (rate > 0):
            raise CurveError(f"rates must be positive, got {rate}")
        if not math.isfinite(quality):
            raise CurveError(f"quality must be finite, got {quality}")
        pts.append((rate, quality))
    # By rate, best quality first among equal rates: a point survives
    # when its quality beats every point of no greater rate.
    survivors = []
    best = -math.inf
    for rate, quality in sorted(set(pts), key=lambda p: (p[0], -p[1])):
        if quality > best:
            survivors.append((rate, quality))
            best = quality
    if len(survivors) < 2:
        raise CurveError(
            f"curve {id!r}: only {len(survivors)} point(s) survive cleaning; "
            "need at least 2"
        )
    return RDCurve(
        id=id, metric_kind=metric_kind,
        points=tuple(RDPoint(rate=r, quality=q) for r, q in survivors),
    )


def _end_slopes(h0: np.ndarray, h1: np.ndarray, m0: np.ndarray,
                m1: np.ndarray) -> np.ndarray:
    """Moler's one-sided three-point end slopes, kept shape-preserving."""
    d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    sign = np.sign(m0)
    clamp = (sign != np.sign(m1)) & (np.abs(d) > 3.0 * np.abs(m0))
    return np.where(np.sign(d) != sign, 0.0, np.where(clamp, 3.0 * m0, d))


_ENDS = np.array([0, -1])  # a row's first and last segment
_NEXT = np.array([1, -2])  # the segment next to each of them


def _pchip_slopes(h: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Knot slopes of each row from its segment widths ``h`` and secant
    slopes ``m`` (rows x segments)."""
    if m.shape[1] == 1:
        return np.concatenate([m, m], axis=1)
    w1 = 2.0 * h[:, 1:] + h[:, :-1]
    w2 = h[:, 1:] + 2.0 * h[:, :-1]
    sign = np.sign(m)
    # zero where the neighbouring secants differ in sign or one is zero
    same = sign[:, 1:] * sign[:, :-1] > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        inner = 1.0 / ((w1 / m[:, :-1] + w2 / m[:, 1:]) / (w1 + w2))
    d = np.empty((m.shape[0], m.shape[1] + 1))
    d[:, 1:-1] = np.where(same, inner, 0.0)
    d[:, _ENDS] = _end_slopes(h[:, _ENDS], h[:, _NEXT], m[:, _ENDS],
                              m[:, _NEXT])
    return d


def _segment_integrals(c0, c1, c2, c3, s):
    """Integral of the cubic c0 s^3 + c1 s^2 + c2 s + c3 from 0 to s."""
    s2 = s * s
    s3 = s2 * s
    return c3 * s + c2 * s2 * 0.5 + c1 * s3 * (1.0 / 3.0) + c0 * (s3 * s) * 0.25


def _pchip_tables(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """PCHIPs through the rows of ``x`` and ``y`` (rows x knots).

    Returns the power-basis coefficients of every segment, highest power
    first (4 x rows x segments), and the integral from each row's first
    knot to each of its knots (rows x knots). Every element sees the same
    arithmetic as a row built alone, so stacking changes no bit.
    """
    h = np.diff(x, axis=1)
    m = np.diff(y, axis=1) / h
    d = _pchip_slopes(h, m)
    t = (d[:, :-1] + d[:, 1:] - 2.0 * m) / h
    c = np.stack([t / h, (m - d[:, :-1]) / h - t, d[:, :-1], y[:, :-1]])
    parts = np.empty(x.shape)
    parts[:, 0] = 0.0
    parts[:, 1:] = _segment_integrals(*c, h)
    return c, np.cumsum(parts, axis=1)


class MonotoneInterpolant:
    """PCHIP through (x, y) knots with closed-form integration.

    Slopes are Fritsch-Butland at interior knots (the weighted harmonic
    mean of the two neighbouring secants, zero where they differ in
    sign) and Moler's one-sided three-point rule at the ends (zero when
    it disagrees in sign with the end secant, clamped to three times
    that secant when the secants change sign). The interpolant passes
    through every knot and never overshoots neighbouring knot values,
    so a monotone knot sequence yields a monotone interpolant. Two
    knots degenerate to the straight line.

    Each segment is a cubic in s = x - x_i whose antiderivative is
    closed form; the integrals up to every knot are summed once here,
    so ``integrate(a, b)`` is two binary searches and two cubic
    evaluations. Outside [lo, hi] values and integrals are NaN.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray):
        self.x = np.asarray(x, dtype=float)
        self.y = np.asarray(y, dtype=float)
        c, cum = _pchip_tables(self.x[None, :], self.y[None, :])
        self._c = c[:, 0, :]
        self.lo = float(self.x[0])
        self.hi = float(self.x[-1])
        self._knots = self.x.tolist()
        self._segments = self._c.T.tolist()
        self._cum = cum[0].tolist()

    def __call__(self, at) -> np.ndarray:
        at = np.asarray(at, dtype=float)
        i = np.clip(np.searchsorted(self.x, at, side="right") - 1,
                    0, len(self.x) - 2)
        c0, c1, c2, c3 = self._c[:, i]
        s = at - self.x[i]
        z = s * s
        value = c3 + c2 * s + c1 * z + c0 * (z * s)
        return np.where((at >= self.lo) & (at <= self.hi), value, np.nan)

    def _primitive(self, v: float) -> float:
        """Integral from lo to v, for lo <= v <= hi."""
        i = min(bisect_right(self._knots, v), len(self._knots) - 1) - 1
        c0, c1, c2, c3 = self._segments[i]
        return self._cum[i] + _segment_integrals(c0, c1, c2, c3,
                                                 v - self._knots[i])

    def integrate(self, a: float, b: float) -> float:
        """Closed-form integral over [a, b] (negative when b < a)."""
        if not (self.lo <= a <= self.hi and self.lo <= b <= self.hi):
            return math.nan
        return self._primitive(b) - self._primitive(a)


def interpolate(curve: RDCurve) -> MonotoneInterpolant:
    """quality -> log10(rate) interpolant of a cleaned curve."""
    return MonotoneInterpolant(curve.qualities, np.log10(curve.rates))


def _rate_interpolant(curve: RDCurve) -> MonotoneInterpolant:
    """log10(rate) -> quality interpolant (the dual axis order)."""
    return MonotoneInterpolant(np.log10(curve.rates), curve.qualities)


def _overlap(a: MonotoneInterpolant, b: MonotoneInterpolant,
             what: str) -> tuple[float, float]:
    lo = max(a.lo, b.lo)
    hi = min(a.hi, b.hi)
    if not lo < hi:
        raise OverlapError(
            f"curves share no {what} interval "
            f"([{a.lo:g}, {a.hi:g}] vs [{b.lo:g}, {b.hi:g}])"
        )
    return lo, hi


def _check_pair(anchor: RDCurve, test: RDCurve) -> None:
    if anchor.metric_kind != test.metric_kind:
        raise AnalysisError(
            f"metric kinds differ: {anchor.metric_kind} vs {test.metric_kind}"
        )


def bd_rate(anchor: RDCurve, test: RDCurve) -> BDResult:
    """Average percent bitrate difference of test vs anchor at equal quality."""
    _check_pair(anchor, test)
    fa = anchor.interpolant
    ft = test.interpolant
    lo, hi = _overlap(fa, ft, "quality")
    delta = (ft.integrate(lo, hi) - fa.integrate(lo, hi)) / (hi - lo)
    value = (10.0 ** delta - 1.0) * 100.0
    return BDResult(
        value=value, kind="rate", overlap=(lo, hi),
        anchor_points_used=len(anchor.points),
        test_points_used=len(test.points),
        method_note=f"pchip log10-rate over {anchor.metric_kind}; exact integral",
    )


def bd_quality(anchor: RDCurve, test: RDCurve) -> BDResult:
    """Average quality difference of test vs anchor at equal rate."""
    _check_pair(anchor, test)
    fa = anchor.rate_interpolant
    ft = test.rate_interpolant
    lo, hi = _overlap(fa, ft, "log-rate")
    value = (ft.integrate(lo, hi) - fa.integrate(lo, hi)) / (hi - lo)
    return BDResult(
        value=value, kind="quality", overlap=(lo, hi),
        anchor_points_used=len(anchor.points),
        test_points_used=len(test.points),
        method_note=f"pchip {anchor.metric_kind} over log10-rate; exact integral",
    )


def harmonic_mean(values: Iterable[float]) -> float:
    """n / sum(1/v); defined only for non-empty positive inputs."""
    vals = list(values)
    if not vals:
        raise DomainError("harmonic mean of an empty set")
    if any(v <= 0 for v in vals):
        raise DomainError(f"harmonic mean needs positive values, got {min(vals)}")
    return len(vals) / sum(1.0 / v for v in vals)


def _metric_value(record: MetricRecord, metric_kind: str) -> float:
    value = record.vmaf if metric_kind == METRIC_VMAF else record.psnr_y
    if value is None:
        raise AggregationError(
            f"record {record.key()} has no {metric_kind} measurement"
        )
    return value


def aggregate_points(
    records: Sequence[MetricRecord],
    metric_kind: str = METRIC_VMAF,
    method: str = "harmonic",
) -> RDPoint:
    """Collapse same-key per-clip records into one dataset (R, D) point.

    Harmonic means by default; ``method="arithmetic"`` implements the
    additive bits/distortion variant for comparison.
    """
    if not records:
        raise AggregationError("no records to aggregate")
    keys = {(r.family, r.preset, r.passes, r.target_kbps) for r in records}
    if len(keys) != 1:
        raise AggregationError(f"mixed configuration keys in aggregate: {sorted(keys)}")
    rates = [r.measured_kbps for r in records]
    quals = [_metric_value(r, metric_kind) for r in records]
    if method == "harmonic":
        return RDPoint(rate=harmonic_mean(rates), quality=harmonic_mean(quals))
    if method == "arithmetic":
        return RDPoint(rate=float(np.mean(rates)), quality=float(np.mean(quals)))
    raise AggregationError(f"unknown aggregation method {method!r}")


def aggregate_curve(
    records: Sequence[MetricRecord],
    ladder: Sequence[float],
    metric_kind: str = METRIC_VMAF,
    method: str = "harmonic",
    id: str = "",
) -> RDCurve:
    """One aggregate point per ladder rung with data, then a cleaned curve."""
    points = []
    for tbr in ladder:
        rung = [r for r in records if r.target_kbps == tbr]
        if rung:
            points.append(aggregate_points(rung, metric_kind, method))
    if len(points) < 2:
        raise CurveError(
            f"aggregate curve {id!r} spans {len(points)} ladder rung(s); need 2"
        )
    return clean_curve(points, id=id, metric_kind=metric_kind)


def smart_bd_rate(
    anchor_records: Sequence[MetricRecord],
    test_records: Sequence[MetricRecord],
    ladder: Sequence[float],
    metric_kind: str = METRIC_VMAF,
    method: str = "harmonic",
) -> BDResult:
    """BD-Rate between dataset-level aggregate curves."""
    anchor = aggregate_curve(anchor_records, ladder, metric_kind, method, id="anchor")
    test = aggregate_curve(test_records, ladder, metric_kind, method, id="test")
    result = bd_rate(anchor, test)
    note = f"smart ({method} aggregation); " + result.method_note
    return BDResult(
        value=result.value, kind=result.kind, overlap=result.overlap,
        anchor_points_used=result.anchor_points_used,
        test_points_used=result.test_points_used, method_note=note,
    )


class CurveStack:
    """The quality -> log10(rate) PCHIPs of many curves as padded arrays.

    Row r = ``rows[clip_id]`` holds that clip's curve: its ``n[r]`` knots in
    ``x[r]`` (padded with +inf, so counting the knots <= v finds v's
    segment), its segment coefficients in ``c[:, r]`` (highest power
    first) and the integrals up to its knots in ``cum[r]``. The curves
    are built in one numpy pass per knot count, with the arithmetic of
    ``MonotoneInterpolant``, so every value equals the per-curve one.
    """

    def __init__(self, curves: Mapping[str, RDCurve]):
        ids = list(curves)
        self.rows = {cid: r for r, cid in enumerate(ids)}
        self.kinds = np.array([curves[cid].metric_kind for cid in ids],
                              dtype=object)
        self.n = np.array([len(curves[cid].points) for cid in ids],
                          dtype=np.intp)
        width = int(self.n.max()) if len(ids) else 2
        self.x = np.full((len(ids), width), np.inf)
        self.cum = np.zeros((len(ids), width))
        self.c = np.zeros((4, len(ids), width - 1))
        for knots in np.unique(self.n).tolist():
            rows = np.flatnonzero(self.n == knots)
            points = [curves[ids[r]].points for r in rows.tolist()]
            x = np.array([[p.quality for p in pts] for pts in points],
                         dtype=float)
            y = np.log10(np.array([[p.rate for p in pts] for pts in points],
                                  dtype=float))
            c, cum = _pchip_tables(x, y)
            self.x[rows, :knots] = x
            self.cum[rows, :knots] = cum
            self.c[:, rows, :knots - 1] = c
        self.lo = self.x[:, 0]
        self.hi = self.x[np.arange(len(ids)), self.n - 1]

    def integrals(self, rows: np.ndarray, lo: np.ndarray,
                  hi: np.ndarray) -> np.ndarray:
        """Integral over [lo[k], hi[k]] of row ``rows[k]``, for bounds
        inside that row's knot span."""
        rows = np.concatenate([rows, rows])
        v = np.concatenate([lo, hi])
        x = self.x[rows]
        i = np.minimum(np.count_nonzero(x <= v[:, None], axis=1),
                       self.n[rows] - 1) - 1
        s = v - x[np.arange(len(v)), i]
        p = self.cum[rows, i] + _segment_integrals(*self.c[:, rows, i], s)
        return p[len(lo):] - p[:len(lo)]


class ClipCurves(Mapping[str, RDCurve]):
    """Read-only clip id -> curve mapping that stacks its curves'
    interpolants (``CurveStack``) once, on first use."""

    def __init__(self, curves: Mapping[str, RDCurve]):
        self._curves = dict(curves)

    def __getitem__(self, clip_id: str) -> RDCurve:
        return self._curves[clip_id]

    def __iter__(self):
        return iter(self._curves)

    def __len__(self) -> int:
        return len(self._curves)

    def __repr__(self) -> str:
        return f"ClipCurves({self._curves!r})"

    @cached_property
    def stack(self) -> CurveStack:
        return CurveStack(self._curves)


def curves_from_records(
    records: Sequence[MetricRecord],
    metric_kind: str = METRIC_VMAF,
) -> ClipCurves:
    """Per-clip cleaned curves of (measured rate, quality), by clip id.

    Clips whose points collapse below two survivors are left out, each
    logged at INFO with its configuration and the reason.
    """
    by_clip: dict[str, list[MetricRecord]] = {}
    for rec in records:
        by_clip.setdefault(rec.clip_id, []).append(rec)
    curves = {}
    for clip_id, recs in sorted(by_clip.items()):
        pts = [(r.measured_kbps, _metric_value(r, metric_kind)) for r in recs]
        try:
            curves[clip_id] = clean_curve(pts, id=clip_id, metric_kind=metric_kind)
        except CurveError as exc:
            rec = recs[0]
            log.info("dropping clip %s of %s:%s:%dp: %s", clip_id, rec.family,
                     rec.preset, rec.passes, exc)
    return ClipCurves(curves)


def classic_bd_rate(
    anchor_curves: Mapping[str, RDCurve],
    test_curves: Mapping[str, RDCurve],
) -> BDResult:
    """Arithmetic mean of per-clip BD-Rates over the shared clip set.

    Clips missing on either side, or with a degenerate overlap, are
    excluded and counted in the method note rather than silently
    treated as zero. The result's ``overlap`` is the union of the
    included clips' overlaps, not a quality interval every clip shares.

    Every shared clip is integrated at once on the two sides' stacked
    interpolants; each per-clip value, the mean over clips in clip-id
    order and the union equal those of a ``bd_rate`` per clip.
    """
    a = _stack(anchor_curves)
    t = _stack(test_curves)
    shared = sorted(a.rows.keys() & t.rows.keys())
    missing = len(a.rows.keys() ^ t.rows.keys())
    a_rows = np.array([a.rows[c] for c in shared], dtype=np.intp)
    t_rows = np.array([t.rows[c] for c in shared], dtype=np.intp)
    mixed = np.flatnonzero(a.kinds[a_rows] != t.kinds[t_rows])
    if len(mixed):
        clip_id = shared[mixed[0]]
        _check_pair(anchor_curves[clip_id], test_curves[clip_id])
    lo = np.maximum(a.lo[a_rows], t.lo[t_rows])
    hi = np.minimum(a.hi[a_rows], t.hi[t_rows])
    ok = lo < hi
    errors = len(shared) - int(np.count_nonzero(ok))
    if errors == len(shared):
        raise AggregationError(
            f"no clip produced a valid BD-Rate ({errors} overlap failures, "
            f"{missing} unmatched clips)"
        )
    if errors:
        a_rows, t_rows, lo, hi = a_rows[ok], t_rows[ok], lo[ok], hi[ok]
    delta = (t.integrals(t_rows, lo, hi) - a.integrals(a_rows, lo, hi)) / (hi - lo)
    values = [(10.0 ** d - 1.0) * 100.0 for d in delta.tolist()]
    note = (f"classic mean over {len(values)} clips; "
            f"excluded: {errors} overlap/curve errors, {missing} unmatched")
    return BDResult(
        value=float(np.mean(values)), kind="rate",
        overlap=(min(lo.tolist()), max(hi.tolist())),
        anchor_points_used=int(a.n[a_rows].sum()),
        test_points_used=int(t.n[t_rows].sum()),
        method_note=note, overlap_label="quality span of the included clips",
    )


def _stack(curves: Mapping[str, RDCurve]) -> CurveStack:
    return (curves if isinstance(curves, ClipCurves)
            else ClipCurves(curves)).stack


def curve_csv_rows(curve: RDCurve) -> list[str]:
    """CSV export rows (id, q, rate_kbps)."""
    rows = ["id,q,rate_kbps"]
    for p in curve.points:
        rows.append(f"{curve.id},{p.quality:.9g},{p.rate:.9g}")
    return rows


def result_csv_row(anchor_id: str, test_id: str, metric_kind: str,
                   result: BDResult) -> str:
    """CSV export row (anchor, test, metric, bd_percent, q_low, q_high, ...)."""
    return (f"{anchor_id},{test_id},{metric_kind},{result.value:.6f},"
            f"{result.overlap[0]:.9g},{result.overlap[1]:.9g},"
            f"{result.anchor_points_used},{result.test_points_used}")
