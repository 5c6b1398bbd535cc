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
once per curve. There is one interpolant type, ``CurveStack``: the
slopes, coefficients and running integrals of many curves as padded
arrays, built row by row with the same arithmetic, so stacking changes
no bit. One builder, ``_stacked``, turns a list of clip id -> curve
mappings into one stack, a row per clip curve, and nothing is cached on
a curve. One kernel, ``_bd``, takes paired rows of two stacks and
returns their overlaps and mean log ratios; every BD value comes from
it. ``bd_rate`` and ``bd_quality`` run it on one two-row stack per call.

Two dataset reductions are provided: the conventional one (BD-Rate per
clip, then arithmetic mean) and the aggregate-curve one (harmonic-mean
rate and quality per ladder rung on each side, then a single BD-Rate).
``curves_from_records`` returns a ``ClipCurves`` mapping over the
padded points of a configuration's clip curves.
``classic_bd_rate_matrix`` stacks every configuration's clip curves of
a grid once and integrates the shared clips of each unordered pair
once, in passes of bounded size: the BD mean is taken over the interval
two curves share, so (i, j) and (j, i) have the same integrals, and
cell (j, i) comes from the negated deltas of cell (i, j).
``classic_bd_rate`` is its one-pair case, so each cell equals the
``classic_bd_rate`` of its ordered pair to the bit. A grid of
aggregate curves is its one-clip case, each config mapping one id to
its curve, so each cell equals the ``bd_rate`` of its pair to the bit.

Both reductions read a ``RecordTable``'s columns, and each has a
batched builder for a grid: ``curves_by_group`` and
``aggregate_curves`` take one table whose rows are numbered by group
(configuration) and the groups to build, and clean every curve of every
group in one ``_clean`` call. ``curves_from_records`` and
``aggregate_curve`` are their one-group cases, and each group gets what
its own call gives, to the bit, with the same log lines and errors. An
``RDCurve`` per clip is built only when one is read. A rung's aggregate
point is reduced only inside ``aggregate_curves``, every rung of every
group in one ``_aggregate`` call; its means sum each rung's reciprocals
with ``np.bincount``, left to right in record order, so they equal a
Python loop's to the bit.

numpy is imported inside the functions that use it, so that importing
this module (as ``rdgauge.cli`` does for every command) does not load it.
"""

from __future__ import annotations

import csv
import io
import logging
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Iterable, Mapping, Optional, Sequence

from .errors import (
    AggregationError,
    AnalysisError,
    CurveError,
    DomainError,
    OverlapError,
)
from .store import MetricRecord, RecordTable

if TYPE_CHECKING:
    import numpy as np

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
    import numpy as np
    pts = [(p.rate, p.quality) if isinstance(p, RDPoint)
           else (float(p[0]), float(p[1])) for p in points]
    rate = np.array([r for r, _ in pts], dtype=float)
    quality = np.array([q for _, q in pts], dtype=float)
    bad, n, rates, qualities = _clean(np.zeros(len(pts), dtype=np.intp),
                                      1, rate, quality)
    if bad[0] >= 0:
        raise CurveError(_bad_point(*pts[bad[0]]))
    if n[0] < 2:
        raise CurveError(_too_few(id, n[0]))
    return _curve(id, metric_kind, rates[0, :n[0]], qualities[0, :n[0]])


def _clean(group: np.ndarray, groups: int, rate: np.ndarray,
           quality: np.ndarray) -> tuple:
    """``clean_curve``'s rule for many curves at once.

    ``group[k]`` numbers the curve of point k, from 0 to ``groups`` - 1;
    each curve's points keep their input order. Returns, per curve, the
    index of its first point with a rate not above 0 or a quality that
    is not finite (-1 when none), its survivor count, and its survivors
    in rows of two arrays (curves x most survivors), by increasing rate,
    the qualities padded with +inf.

    The points are laid out a curve per row, in input order, padded with
    (+inf, -inf), and each row is sorted by (rate, -quality), stably; a
    point survives when its quality is above the running maximum of the
    points before it in its row. An exact duplicate, and a point with
    the quality of a lower rate, never is, so the first of equal points
    in input order is the one kept.
    """
    import numpy as np
    order = np.argsort(group, kind="stable")
    g = group[order]
    count = np.bincount(group, minlength=groups)
    col = np.arange(len(order)) - (np.cumsum(count) - count)[g]
    shape = (groups, int(count.max()) if len(order) else 0)
    q = np.full(shape, -np.inf)
    r = np.full(shape, np.inf)
    q[g, col] = quality[order]
    r[g, col] = rate[order]
    # sorting short rows is much faster than one sort of every point
    by = np.lexsort((-q, r), axis=1)
    q = np.take_along_axis(q, by, axis=1)
    r = np.take_along_axis(r, by, axis=1)
    before = np.full(shape, -np.inf)
    before[:, 1:] = np.maximum.accumulate(q, axis=1)[:, :-1]
    keep = q > before
    n = np.count_nonzero(keep, axis=1)

    bad = np.full(groups, -1, dtype=np.intp)
    invalid = np.flatnonzero(~(rate > 0) | ~np.isfinite(quality))
    where, first = np.unique(group[invalid], return_index=True)
    bad[where] = invalid[first]

    out = (groups, int(n.max()) if groups else 0)
    rates = np.ones(out)
    qualities = np.full(out, np.inf)
    at = np.cumsum(keep, axis=1)[keep] - 1
    rows = np.nonzero(keep)[0]
    rates[rows, at] = r[keep]
    qualities[rows, at] = q[keep]
    return bad, n, rates, qualities


def _bad_point(rate: float, quality: float) -> str:
    """The message of the point that makes ``clean_curve`` reject a curve."""
    if not (rate > 0):
        return f"rates must be positive, got {rate}"
    return f"quality must be finite, got {quality}"


def _too_few(id: str, n) -> str:
    return (f"curve {id!r}: only {int(n)} point(s) survive cleaning; "
            "need at least 2")


def _curve(id: str, metric_kind: str, rates: np.ndarray,
           qualities: np.ndarray) -> RDCurve:
    return RDCurve(id=id, metric_kind=metric_kind, points=tuple(
        RDPoint(rate=r, quality=q)
        for r, q in zip(rates.tolist(), qualities.tolist())))


def _end_slopes(h0: np.ndarray, h1: np.ndarray, m0: np.ndarray,
                m1: np.ndarray) -> np.ndarray:
    """Moler's one-sided three-point end slopes, kept shape-preserving."""
    import numpy as np
    d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    sign = np.sign(m0)
    clamp = (sign != np.sign(m1)) & (np.abs(d) > 3.0 * np.abs(m0))
    return np.where(np.sign(d) != sign, 0.0, np.where(clamp, 3.0 * m0, d))


_ENDS = [0, -1]  # a row's first and last segment
_NEXT = [1, -2]  # the segment next to each of them


def _pchip_slopes(h: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Knot slopes of each row from its segment widths ``h`` and secant
    slopes ``m`` (rows x segments)."""
    import numpy as np
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
    import numpy as np
    h = np.diff(x, axis=1)
    m = np.diff(y, axis=1) / h
    d = _pchip_slopes(h, m)
    t = (d[:, :-1] + d[:, 1:] - 2.0 * m) / h
    c = np.stack([t / h, (m - d[:, :-1]) / h - t, d[:, :-1], y[:, :-1]])
    parts = np.empty(x.shape)
    parts[:, 0] = 0.0
    parts[:, 1:] = _segment_integrals(*c, h)
    return c, np.cumsum(parts, axis=1)


# curves per pass of a CurveStack build
_ROWS = 1024


class CurveStack:
    """PCHIPs through the knots of many curves, as padded arrays.

    Row r holds a curve of ``n[r]`` knots: its increasing knots in
    ``x[r]`` (padded with +inf, so counting the knots <= v finds v's
    segment), its segment coefficients in ``c[:, r]`` (cubics in
    s = x - x_i, highest power first) and the integrals from its first
    knot to each knot in ``cum[r]``. ``y`` is read up to each row's knot
    count. The rows are built in one numpy pass per knot count and
    ``_ROWS`` rows, so the build's temporary arrays stay small.

    Slopes are Fritsch-Butland at interior knots (the weighted harmonic
    mean of the two neighbouring secants, zero where they differ in
    sign) and Moler's one-sided three-point rule at the ends (zero when
    it disagrees in sign with the end secant, clamped to three times
    that secant when the secants change sign). Each curve passes
    through its knots and never overshoots neighbouring knot values, so
    a monotone knot sequence yields a monotone interpolant; two knots
    give the straight line.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray, n: np.ndarray):
        import numpy as np
        self.n = n
        width = int(n.max()) if len(n) else 2
        self.x = np.full((len(n), width), np.inf)
        self.cum = np.zeros((len(n), width))
        self.c = np.zeros((4, len(n), width - 1))
        for knots in sorted(set(n.tolist())):
            same = np.flatnonzero(n == knots)
            for start in range(0, len(same), _ROWS):
                rows = same[start:start + _ROWS]
                knots_x = x[rows, :knots]
                c, cum = _pchip_tables(knots_x, y[rows, :knots])
                self.x[rows, :knots] = knots_x
                self.cum[rows, :knots] = cum
                self.c[:, rows, :knots - 1] = c
        self.lo = self.x[:, 0]
        self.hi = self.x[np.arange(len(n)), n - 1]

    def integrals(self, rows: np.ndarray, lo: np.ndarray,
                  hi: np.ndarray) -> np.ndarray:
        """Integral over [lo[k], hi[k]] of row ``rows[k]``, for bounds
        inside that row's knot span."""
        import numpy as np
        rows = np.concatenate([rows, rows])
        v = np.concatenate([lo, hi])
        # each bound's segment: the count of its row's knots after the
        # first that are <= it, one knot column at a time, so no
        # (bounds x knots) array is built
        i = np.zeros(len(v), dtype=np.intp)
        for k in range(1, self.x.shape[1]):
            i += self.x[:, k][rows] <= v
        i = np.minimum(i, self.n[rows] - 2)
        s = v - self.x[rows, i]
        p = self.cum[rows, i] + _segment_integrals(*self.c[:, rows, i], s)
        return p[len(lo):] - p[:len(lo)]


def interpolate(curve: RDCurve) -> CurveStack:
    """quality -> log10(rate) interpolant of a cleaned curve (one row)."""
    return _stacked([_clip_curves({curve.id: curve})])[0]


def _bd(a: CurveStack, a_rows: np.ndarray, t: CurveStack,
        t_rows: np.ndarray) -> tuple:
    """The BD kernel, for row ``a_rows[k]`` of ``a`` paired with row
    ``t_rows[k]`` of ``t``.

    Returns the mask ``ok`` of the pairs whose overlap [lo, hi] has
    lo < hi and, for those pairs in order, their rows of ``a`` and of
    ``t``, their lo and hi, and the mean of t - a over [lo, hi]: the
    difference of the two integrals over the width.
    """
    import numpy as np
    a_lo, a_hi = a.lo[a_rows], a.hi[a_rows]
    t_lo, t_hi = t.lo[t_rows], t.hi[t_rows]
    # a tie keeps the anchor's bound, so of 0.0 and -0.0 its sign wins
    lo = np.where(t_lo > a_lo, t_lo, a_lo)
    hi = np.where(t_hi < a_hi, t_hi, a_hi)
    ok = lo < hi
    if np.count_nonzero(ok) < len(ok):
        a_rows, t_rows, lo, hi = a_rows[ok], t_rows[ok], lo[ok], hi[ok]
    delta = ((t.integrals(t_rows, lo, hi) - a.integrals(a_rows, lo, hi))
             / (hi - lo))
    return ok, a_rows, t_rows, lo, hi, delta


def _one_pair(anchor: RDCurve, test: RDCurve, what: str,
              over_rate: bool) -> tuple[float, float, float]:
    """``_bd`` of rows 0 and 1 of the pair's one stack: lo, hi and the
    mean of test - anchor."""
    import numpy as np
    stack = _stacked([_clip_curves({anchor.id: anchor}),
                      _clip_curves({test.id: test})], over_rate)[0]
    ok, _, _, lo, hi, delta = _bd(stack, np.array([0]), stack, np.array([1]))
    if not ok[0]:
        raise OverlapError(
            f"curves share no {what} interval ([{stack.lo[0]:g}, "
            f"{stack.hi[0]:g}] vs [{stack.lo[1]:g}, {stack.hi[1]:g}])"
        )
    return lo.item(), hi.item(), delta.item()


def _check_kinds(anchor: str, test: str) -> None:
    if anchor != test:
        raise AnalysisError(f"metric kinds differ: {anchor} vs {test}")


def _percents(deltas: Iterable[float]) -> list[float]:
    """Mean log10 rate ratios as percent rate changes."""
    return [(10.0 ** d - 1.0) * 100.0 for d in deltas]


def bd_rate(anchor: RDCurve, test: RDCurve) -> BDResult:
    """Average percent bitrate difference of test vs anchor at equal quality."""
    _check_kinds(anchor.metric_kind, test.metric_kind)
    lo, hi, delta = _one_pair(anchor, test, "quality", over_rate=False)
    return BDResult(
        value=_percents([delta])[0], kind="rate", overlap=(lo, hi),
        anchor_points_used=len(anchor.points),
        test_points_used=len(test.points),
        method_note=f"pchip log10-rate over {anchor.metric_kind}; exact integral",
    )


def bd_quality(anchor: RDCurve, test: RDCurve) -> BDResult:
    """Average quality difference of test vs anchor at equal rate."""
    _check_kinds(anchor.metric_kind, test.metric_kind)
    lo, hi, value = _one_pair(anchor, test, "log-rate", over_rate=True)
    return BDResult(
        value=value, kind="quality", overlap=(lo, hi),
        anchor_points_used=len(anchor.points),
        test_points_used=len(test.points),
        method_note=f"pchip {anchor.metric_kind} over log10-rate; exact integral",
    )


def _metric_column(table: RecordTable,
                   metric_kind: str) -> tuple[np.ndarray, np.ndarray]:
    """The quality column of ``metric_kind`` and its null mask."""
    name = "vmaf" if metric_kind == METRIC_VMAF else "psnr_y"
    return table.columns[name], table.nulls[name]


def _missing(table: RecordTable, row: int, metric_kind: str) -> AggregationError:
    return AggregationError(
        f"record {table[row].key()} has no {metric_kind} measurement")


def _aggregate(table: RecordTable, rows: np.ndarray, group: np.ndarray,
               groups: int, metric_kind: str, method: str) -> tuple:
    """The aggregate (R, D) point of each group of a table's rows: the
    harmonic means of rate and quality by default, or with
    ``method="arithmetic"`` the additive bits/distortion variant.

    ``group[k]`` numbers the group of row ``rows[k]``, from 0 to
    ``groups`` - 1; each group holds same-key per-clip records of one
    ladder rung. Returns each group's rate and quality and the error it
    raises instead, or None, found in this order: mixed keys, a missing
    measurement, the method, then non-positive rates and qualities. A
    group with no rows gets no error and NaN means. Each sum runs left
    to right over the group's rows (``np.bincount``), as a Python loop's
    does.
    """
    import numpy as np
    cols = table.columns
    rate = cols["kbps"][rows]
    quality, null = (c[rows] for c in _metric_column(table, metric_kind))
    count = np.bincount(group, minlength=groups)
    lead = np.zeros(groups, dtype=np.intp)
    present, first = np.unique(group, return_index=True)
    lead[present] = first
    ref = lead[group]
    same = cols["tbr_kbps"][rows] == cols["tbr_kbps"][rows[ref]]
    for name in ("family", "preset", "passes"):
        same &= cols[name][rows] == cols[name][rows[ref]]
    mixed = np.bincount(group[~same & (ref != np.arange(len(rows)))],
                        minlength=groups)
    missing = np.bincount(group[null], minlength=groups)
    if method == "harmonic":
        with np.errstate(all="ignore"):  # a group with an error is unused
            rates = count / np.bincount(group, 1.0 / rate, minlength=groups)
            qualities = count / np.bincount(group, 1.0 / quality,
                                            minlength=groups)
        low_rate = np.bincount(group[rate <= 0], minlength=groups)
        low_quality = np.bincount(group[(quality <= 0) & ~null],
                                  minlength=groups)
    else:
        rates = np.full(groups, np.nan)
        qualities = np.full(groups, np.nan)
        low_rate = low_quality = np.zeros(groups, dtype=np.intp)
        if method == "arithmetic":
            # a group with an error keeps NaN means; +inf and -inf in
            # one group give a NaN mean without a warning
            valid = (count > 0) & (mixed + missing == 0)
            with np.errstate(all="ignore"):
                for g in np.flatnonzero(valid).tolist():
                    members = group == g
                    rates[g] = np.mean(rate[members])
                    qualities[g] = np.mean(quality[members])

    errors: list = [None] * groups
    flagged = mixed + missing + low_rate + low_quality
    if method not in ("harmonic", "arithmetic"):
        flagged = count
    for g in np.flatnonzero(flagged).tolist():
        members = rows[group == g]
        if mixed[g]:
            keys = {(r.family, r.preset, r.passes, r.target_kbps)
                    for r in table.take(members)}
            errors[g] = AggregationError(
                f"mixed configuration keys in aggregate: {sorted(keys)}")
        elif missing[g]:
            errors[g] = _missing(table, members[null[group == g]][0],
                                 metric_kind)
        elif method not in ("harmonic", "arithmetic"):
            errors[g] = AggregationError(
                f"unknown aggregation method {method!r}")
        else:
            values = rate[group == g] if low_rate[g] else quality[group == g]
            errors[g] = DomainError(
                f"harmonic mean needs positive values, got "
                f"{min(values.tolist())}")
    return rates.tolist(), qualities.tolist(), errors


def aggregate_curve(
    records: Sequence[MetricRecord],
    ladder: Sequence[float],
    metric_kind: str = METRIC_VMAF,
    method: str = "harmonic",
    id: str = "",
) -> RDCurve:
    """One aggregate point per ladder rung with data, then a cleaned curve.

    This is the one-group case of ``aggregate_curves``.
    """
    import numpy as np
    table = RecordTable.of(records)
    curve = aggregate_curves(table, np.zeros(len(table), dtype=np.intp), [0],
                             [id], ladder, metric_kind, method)[0]
    if isinstance(curve, AnalysisError):
        raise curve
    return curve


def aggregate_curves(
    table: RecordTable,
    group: np.ndarray,
    picks: Sequence[int],
    ids: Sequence[str],
    ladder: Sequence[float],
    metric_kind: str = METRIC_VMAF,
    method: str = "harmonic",
) -> list:
    """``aggregate_curve`` of each picked group of a table's rows, in one
    pass.

    Row r of ``table`` belongs to group ``group[r]``. Entry k of the
    result is the aggregate curve, with id ``ids[k]``, of the rows of
    group ``picks[k]``, or the ``AnalysisError`` that ``aggregate_curve``
    raises for them. A group may be picked twice, and a group that
    numbers no row has no records. Every (group, rung) cell is reduced
    in one ``_aggregate`` call and every curve cleaned in one ``_clean``
    call; each cell's rows keep their table order, so each curve equals
    that of an ``aggregate_curve`` call on its group's rows to the bit.
    """
    import numpy as np
    rungs, at = np.unique(np.array(ladder, dtype=float), return_inverse=True)
    wanted, slot = _slots(group, picks)
    target = table.columns["tbr_kbps"]
    rows = np.flatnonzero((slot[group] >= 0) & np.isin(target, rungs))
    cell = slot[group[rows]] * len(rungs) + np.searchsorted(rungs, target[rows])
    cells = len(wanted) * len(rungs)
    rates, qualities, errors = _aggregate(table, rows, cell, cells,
                                          metric_kind, method)
    count = np.bincount(cell, minlength=cells).tolist()

    # each group's points in ladder order, or its first error
    found: list = [None] * len(wanted)
    points: list[list] = [[] for _ in wanted]
    for s in range(len(wanted)):
        for g in (s * len(rungs) + at).tolist():
            if count[g]:
                if errors[g] is not None:
                    found[s] = errors[g]
                    break
                points[s].append((rates[g], qualities[g]))
    clean = [s for s in range(len(wanted))
             if found[s] is None and len(points[s]) >= 2]
    owner = np.repeat(np.arange(len(clean)), [len(points[s]) for s in clean])
    flat = [pt for s in clean for pt in points[s]]
    bad, n, crates, cqualities = _clean(
        owner, len(clean), np.array([r for r, _ in flat], dtype=float),
        np.array([q for _, q in flat], dtype=float))
    row = {s: c for c, s in enumerate(clean)}

    out: list = []
    for pick, id in zip(slot[np.asarray(picks, dtype=np.intp)].tolist(), ids):
        c = row.get(pick)
        if found[pick] is not None:
            out.append(found[pick])
        elif c is None:
            out.append(CurveError(
                f"aggregate curve {id!r} spans {len(points[pick])} ladder "
                "rung(s); need 2"))
        elif bad[c] >= 0:
            out.append(CurveError(_bad_point(*flat[bad[c]])))
        elif n[c] < 2:
            out.append(CurveError(_too_few(id, n[c])))
        else:
            out.append(_curve(id, metric_kind, crates[c, :n[c]],
                              cqualities[c, :n[c]]))
    return out


def _slots(group: np.ndarray, picks: Sequence[int]) -> tuple:
    """The distinct picked groups, sorted, and the position among them of
    every group number (-1 for one not picked), indexed by group number."""
    import numpy as np
    wanted = sorted(set(picks))
    size = max([int(group.max()) if len(group) else -1, *wanted]) + 1
    slot = np.full(size, -1, dtype=np.intp)
    slot[wanted] = np.arange(len(wanted))
    return wanted, slot


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
    return replace(result, method_note=f"smart ({method} aggregation); "
                   + result.method_note)


class ClipCurves(Mapping[str, RDCurve]):
    """Read-only clip id -> curve mapping over the points of its curves
    as arrays.

    Row r = ``rows[clip_id]`` holds that clip's ``n[r]`` points in
    ``rates[r]`` and ``qualities[r]``, by increasing rate (padded), and
    its metric kind in ``kinds[r]``. An ``RDCurve`` is built on each
    read and not kept; the BD functions stack the arrays themselves,
    and ``_clip_curves`` pads a plain mapping's curves into them.
    """

    def __init__(self, ids: Sequence[str], kinds: np.ndarray, n: np.ndarray,
                 rates: np.ndarray, qualities: np.ndarray):
        self.rows = {cid: r for r, cid in enumerate(ids)}
        self.kinds = kinds
        self.n = n
        self.rates = rates
        self.qualities = qualities

    def __getitem__(self, clip_id: str) -> RDCurve:
        r = self.rows[clip_id]
        return _curve(clip_id, self.kinds[r], self.rates[r, :self.n[r]],
                      self.qualities[r, :self.n[r]])

    def __iter__(self):
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __contains__(self, clip_id) -> bool:
        return clip_id in self.rows

    def __repr__(self) -> str:
        return f"ClipCurves({dict(self)!r})"


def curves_from_records(
    records: Sequence[MetricRecord],
    metric_kind: str = METRIC_VMAF,
) -> ClipCurves:
    """Per-clip cleaned curves of (measured rate, quality), by clip id.

    Clips whose points collapse below two survivors are left out, each
    logged at INFO with its configuration and the reason. Clips are
    taken in id order, so a clip missing a measurement raises after the
    drops of the clips before it. This is the one-group case of
    ``curves_by_group``.
    """
    import numpy as np
    table = RecordTable.of(records)
    return curves_by_group(table, np.zeros(len(table), dtype=np.intp), [0],
                           metric_kind)[0]


def curves_by_group(
    table: RecordTable,
    group: np.ndarray,
    picks: Sequence[int],
    metric_kind: str = METRIC_VMAF,
) -> list[ClipCurves]:
    """``curves_from_records`` of each picked group of a table's rows, in
    one pass.

    Row r of ``table`` belongs to group ``group[r]``. Entry k of the
    result holds the clip curves of the rows of group ``picks[k]``. A
    group may be picked twice, and a group that numbers no row has no
    clips. Every clip of every picked group is cleaned in one ``_clean``
    call, its rows in table order. Then, pick by pick, the group's
    dropped clips are logged and its first clip missing a measurement
    raises, so the log lines and the error are those of one
    ``curves_from_records`` call per pick, and each curve equals its
    points to the bit.
    """
    import numpy as np
    wanted, slot = _slots(group, picks)
    rows = np.flatnonzero(slot[group] >= 0)
    codes, names = table.columns["clip"][rows], table.tables["clip"]
    # a bare np.unique would import numpy.ma, 14 ms, in every process
    present = np.flatnonzero(np.bincount(codes, minlength=len(names)))
    by_id = sorted(present.tolist(), key=names.__getitem__)
    rank = np.zeros(len(names), dtype=np.intp)
    rank[by_id] = np.arange(len(by_id))
    # each row's curve, numbered by group and then clip id
    width = max(len(by_id), 1)
    keys, lead, curve = np.unique(slot[group[rows]] * width + rank[codes],
                                  return_index=True, return_inverse=True)
    ids = [names[by_id[k]] for k in (keys % width).tolist()]
    bounds = np.searchsorted(keys // width,
                             np.arange(len(wanted) + 1)).tolist()
    rate = table.columns["kbps"][rows]
    quality, null = (c[rows] for c in _metric_column(table, metric_kind))
    bad, n, rates, qualities = _clean(curve, len(keys), rate, quality)
    dropped = (bad >= 0) | (n < 2)
    with_null = np.bincount(curve[null], minlength=len(keys)) > 0

    built = []  # per group: its drop log lines, its error, its curves
    for s in range(len(wanted)):
        first, end = bounds[s], bounds[s + 1]
        nulls = np.flatnonzero(with_null[first:end])
        stop = first + int(nulls[0]) if len(nulls) else end
        drops = []
        for c in (first + np.flatnonzero(dropped[first:stop])).tolist():
            reason = (_bad_point(rate[bad[c]].item(), quality[bad[c]].item())
                      if bad[c] >= 0 else _too_few(ids[c], n[c]))
            rec = table[rows[lead[c]]]
            drops.append((ids[c], rec.family, rec.preset, rec.passes, reason))
        error = None
        if stop < end:
            row = rows[np.flatnonzero(null & (curve == stop))[0]]
            error = _missing(table, row, metric_kind)
        ok = first + np.flatnonzero(~dropped[first:end])
        built.append((drops, error, ClipCurves(
            [ids[c] for c in ok.tolist()],
            np.full(len(ok), metric_kind, dtype=object), n[ok], rates[ok],
            qualities[ok])))

    out = []
    for s in slot[np.asarray(picks, dtype=np.intp)].tolist():
        drops, error, curves = built[s]
        for args in drops:
            log.info("dropping clip %s of %s:%s:%dp: %s", *args)
        if error is not None:
            raise error
        out.append(curves)
    return out


def classic_bd_rate(
    anchor_curves: Mapping[str, RDCurve],
    test_curves: Mapping[str, RDCurve],
) -> BDResult:
    """Arithmetic mean of per-clip BD-Rates over the shared clip set.

    Clips missing on either side, or with a degenerate overlap, are
    excluded and counted in the method note rather than silently
    treated as zero. The result's ``overlap`` is the union of the
    included clips' overlaps, not a quality interval every clip shares.

    This is the one-pair case of ``classic_bd_rate_matrix``: each
    per-clip value, the mean over clips in clip-id order and the union
    equal those of a ``bd_rate`` per clip.
    """
    import numpy as np
    a = _clip_curves(anchor_curves)
    t = _clip_curves(test_curves)
    shared, mixed, delta, ends, lo, hi, a_n, t_n = _classic(
        *_stacked([a, t]), np.array([0]), np.array([1]))
    values = _means(delta, ends)
    if mixed[0] is not None:
        _check_kinds(*mixed[0])
    missing = len(a) + len(t) - 2 * int(shared[0])
    errors = int(shared[0]) - len(lo)
    if values[0] is None:
        raise AggregationError(
            f"no clip produced a valid BD-Rate ({errors} overlap failures, "
            f"{missing} unmatched clips)"
        )
    note = (f"classic mean over {len(lo)} clips; "
            f"excluded: {errors} overlap/curve errors, {missing} unmatched")
    return BDResult(
        value=values[0], kind="rate",
        overlap=(min(lo.tolist()), max(hi.tolist())),
        anchor_points_used=int(a_n.sum()), test_points_used=int(t_n.sum()),
        method_note=note, overlap_label="quality span of the included clips",
    )


def classic_bd_rate_matrix(
    curves: Sequence[Mapping[str, RDCurve]],
) -> list[list[Optional[float]]]:
    """``classic_bd_rate(curves[i], curves[j]).value`` in cell (i, j),
    for a grid.

    The diagonal is 0.0. A cell is None where ``classic_bd_rate`` would
    raise: the shared clips mix metric kinds, there is no shared clip,
    or no shared clip overlaps. Every config's clip curves go into one
    stack; the cells are integrated in passes of whole pairs, at most
    ``_CHUNK`` (pair, clip) cells each (a grid of 8 configs and 60 clips
    takes one pass), so memory stays bounded as the grid grows.

    Each unordered pair {i, j}, i < j, is integrated once, and cell
    (j, i) is the mean percent of the negated per-clip deltas of cell
    (i, j). Both orders share the same clips and, for each clip, the
    same overlap (``_bd`` keeps the anchor's bound only where the two
    are equal), so the same two integrals; IEEE subtraction and
    division are exactly antisymmetric, so the negated delta is the
    other order's delta, up to the sign of a zero, which ``10.0 ** d``
    does not see. Each value equals ``classic_bd_rate``'s to the bit.
    """
    import numpy as np
    curves = [_clip_curves(c) for c in curves]
    i, j = np.triu_indices(len(curves), 1)
    cells: list[list[Optional[float]]] = [
        [0.0 if r == c else None for c in range(len(curves))]
        for r in range(len(curves))]
    if len(i):
        stack, kinds, table = _stacked(curves)
        # pairs per pass, so that a pass reads at most _CHUNK
        # (pair, clip) cells and its memory stays bounded
        step = max(1, _CHUNK // max(1, table.shape[1]))
        for start in range(0, len(i), step):
            a, t = i[start:start + step], j[start:start + step]
            delta, ends = _classic(stack, kinds, table, a, t)[2:4]
            for r, c, v, w in zip(a.tolist(), t.tolist(), _means(delta, ends),
                                  _means(-delta, ends)):
                cells[r][c] = v
                cells[c][r] = w
    return cells


# (pair, clip) cells per pass of a classic grid
_CHUNK = 4096


def _stacked(curves: Sequence[ClipCurves], over_rate: bool = False) -> tuple:
    """Every config's clip curves in one ``CurveStack``, a row each:
    log10(rate) over quality, or with ``over_rate`` quality over
    log10(rate), which must then strictly increase on each row (two
    rates a float ulp apart can share one log10; the first row that
    fails raises DomainError). Also their metric kinds by stack row, and
    a configs x clips table of stack rows (-1 where a config lacks the
    clip), the clip ids numbered once, in sorted order."""
    import numpy as np
    starts = np.cumsum([0] + [len(c) for c in curves]).tolist()
    rates = np.ones((starts[-1], max(c.rates.shape[1] for c in curves)))
    qualities = np.full(rates.shape, np.inf)
    ids = sorted(set().union(*(c.rows for c in curves)))
    column = {cid: k for k, cid in enumerate(ids)}
    table = np.full((len(curves), len(ids)), -1, dtype=np.intp)
    for k, c in enumerate(curves):
        rows = slice(starts[k], starts[k + 1])
        rates[rows, :c.rates.shape[1]] = c.rates
        qualities[rows, :c.qualities.shape[1]] = c.qualities
        table[k, [column[cid] for cid in c]] = np.arange(starts[k],
                                                         starts[k + 1])
    n = np.concatenate([c.n for c in curves])
    kinds = np.concatenate([c.kinds for c in curves])
    log_rates = np.log10(rates)
    if not over_rate:
        return CurveStack(qualities, log_rates, n), kinds, table
    row_ids = [cid for c in curves for cid in c]
    for cid, x, knots in zip(row_ids, log_rates, n.tolist()):
        if not np.all(np.diff(x[:knots]) > 0):
            raise DomainError(f"curve {cid!r}: log10 rates must increase")
    return CurveStack(log_rates, qualities, n), kinds, table


def _classic(stack: CurveStack, kinds: np.ndarray, table: np.ndarray,
             i: np.ndarray, j: np.ndarray) -> tuple:
    """The classic BD-Rate work of the pairs (config ``i[p]``, config
    ``j[p]``) of a ``_stacked`` grid.

    A pair's shared clips are the columns where both its rows of
    ``table`` hold a stack row, in clip-id order. Every shared clip of
    every pair goes through one ``_bd`` call.

    Returns, per pair: its shared clip count; and the (anchor, test)
    metric kinds of its first shared clip whose kinds differ, or None.
    Then the mean log ratios of the included clips of every pair, pair
    by pair (none for a pair of mixed kinds), and the running count of
    them at the end of each pair, for ``_means``. Then, for those clips:
    their overlaps' lo and hi and their anchor's and test's knot counts.
    """
    import numpy as np
    p, col = np.nonzero((table[i] >= 0) & (table[j] >= 0))
    shared = np.bincount(p, minlength=len(i))
    a_rows, t_rows = table[i[p], col], table[j[p], col]
    differ = np.flatnonzero(kinds[a_rows] != kinds[t_rows])
    mixed: list = [None] * len(i)
    for e in differ[::-1].tolist():  # so each pair keeps its first
        mixed[p[e]] = (kinds[a_rows[e]], kinds[t_rows[e]])
    keep = np.bincount(p[differ], minlength=len(i))[p] == 0
    p, a_rows, t_rows = p[keep], a_rows[keep], t_rows[keep]

    ok, a_rows, t_rows, lo, hi, delta = _bd(stack, a_rows, stack, t_rows)
    ends = np.cumsum(np.bincount(p[ok], minlength=len(i))).tolist()
    return (shared, mixed, delta, ends, lo, hi, stack.n[a_rows],
            stack.n[t_rows])


def _means(delta: np.ndarray, ends: list[int]) -> list[Optional[float]]:
    """Each pair's classic BD-Rate from ``_classic``'s deltas and ends:
    the mean of its clips' percents, or None for a pair with none."""
    import numpy as np
    percents = np.array(_percents(delta.tolist()))
    # each pair's mean as np.mean takes it: a pairwise np.add.reduce over
    # the pair alone, then one division; np.add.reduceat would sum left
    # to right instead
    return [float(np.add.reduce(percents[s:e])) / (e - s) if s < e
            else None for s, e in zip([0] + ends[:-1], ends)]


def _clip_curves(curves: Mapping[str, RDCurve]) -> ClipCurves:
    """``curves`` as a ``ClipCurves``, padding a plain mapping's points."""
    import numpy as np
    if isinstance(curves, ClipCurves):
        return curves
    ids = list(curves)
    picked = [curves[cid] for cid in ids]
    n = np.array([len(c.points) for c in picked], dtype=np.intp)
    rates = np.ones((len(ids), int(n.max()) if len(ids) else 0))
    qualities = np.full(rates.shape, np.inf)
    for r, curve in enumerate(picked):
        rates[r, :n[r]] = [p.rate for p in curve.points]
        qualities[r, :n[r]] = [p.quality for p in curve.points]
    kinds = np.array([c.metric_kind for c in picked], dtype=object)
    return ClipCurves(ids, kinds, n, rates, qualities)


def curves_csv(curves: Iterable[RDCurve]) -> str:
    """CSV export (id, q, rate_kbps): one header, then a row per point.

    An id holding a comma, a quote or a line break is quoted (the csv
    module's minimal quoting).
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("id", "q", "rate_kbps"))
    writer.writerows((curve.id, f"{p.quality:.9g}", f"{p.rate:.9g}")
                     for curve in curves for p in curve.points)
    return buf.getvalue()


def result_csv_row(anchor_id: str, test_id: str, metric_kind: str,
                   result: BDResult) -> tuple:
    """The fields of a CSV export row (anchor, test, metric, bd_percent,
    q_low, q_high, n_anchor, n_test), for a ``csv.writer``."""
    return (anchor_id, test_id, metric_kind, f"{result.value:.6f}",
            f"{result.overlap[0]:.9g}", f"{result.overlap[1]:.9g}",
            result.anchor_points_used, result.test_points_used)
