"""Combinatorial linking numbers for loop pairs in S^2 x S^1.

The t0-dependent pairing `lk(crossings, t0)` sums, over a pair's crossing
records, the planar crossing sign times the order of the two circle
coordinates in S^1 cut at t0.  The records are the t0-independent
`DoublePoint`s that `validate` reads, so a pair is scanned once
(`geometry.crossings_between`, a `validate` report, or `pushoff`) and its
records are passed in.  `link_number(l, lt, crossings, t0)`, the linking
number of a null-homologous pair, adds winding-number corrections at the
t0-crossings of either loop (the lift scan behind `crossing_marks`, which
each loop keeps for its last t0) and is independent of t0.

Push-offs displace the projected polygon to its left by a planar normal
offset; this horizontal push-off frames every loop.  The offset must stay
below a third of the minimum clearance between non-adjacent segments.
`pushoff` returns the offset loop with its crossing records against `l`;
one sweep over both also finds the offset's own pairs, which are checked
first.  The clearance reads each loop's segment lengths (`Loop.lengths`),
the push-off its segments' unit vectors (`Loop.segment_frames`) and the
framing offset both.
`self_link` makes one push-off per loop, at an offset small
enough that every crossing of the push-off with the loop keeps the order
of the circle coordinates at its self double point, a lift bound derived
at `_framing_offset`.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import (
    DegenerateGeometry,
    NonTransverse,
    NotNullHomologous,
    OffsetTooLarge,
)
from .geometry import (
    TAU,
    DoublePoint,
    Loop,
    _loop_marks,
    _pair_crossings,
    _records,
    _segment_sweep,
    crossings_between,
    ind,
    loop_min_clearance,
    winding_s1,
)

__all__ = ["crossings_between", "lk", "link_number", "pushoff", "self_link"]


def lk(crossings: tuple[DoublePoint, ...], t0: float) -> Fraction:
    """Half the records' signed crossing count in the t0-cut order; half-integral."""
    return Fraction(sum(c.s1_order(t0) * c.cross_sign for c in crossings), 2)


def pushoff(l: Loop, offset: float) -> tuple[Loop, tuple[DoublePoint, ...]]:
    """Planar normal offset of the projected polygon to the left of its
    direction by `offset`, and its crossing records against `l`; the lift
    is unchanged.

    Raises OffsetTooLarge if the offset exceeds a third of the loop's
    minimum clearance, or if the offset curve self-intersects or meets the
    original non-transversally.
    """
    if l.vertical:
        raise DegenerateGeometry("vertical loops have no planar push-off")
    if offset <= 0:
        raise OffsetTooLarge("offset must be positive")
    threshold = loop_min_clearance(l) / 3.0
    if offset >= threshold:
        raise OffsetTooLarge(
            f"offset {offset} is not below the admissibility threshold {threshold}")
    n = l.nseg
    pl = l.planar
    units = l.segment_frames
    if None in units:  # a zero-length segment
        raise DegenerateGeometry("zero tangent vector")
    new_pts = []
    for i in range(n):
        cur = pl[i]
        d0, d1 = units[i - 1], units[i]  # the segments into and out of vertex i
        n0 = (-d0[1], d0[0])
        n1 = (-d1[1], d1[0])
        # miter: intersect the two offset lines through cur
        cross = d0[0] * d1[1] - d0[1] * d1[0]
        if abs(cross) < 1e-12:
            new_pts.append((cur[0] + offset * n0[0], cur[1] + offset * n0[1]))
        else:
            # point p with (p - cur - offset*n0) || d0 and (p - cur - offset*n1) || d1
            t = offset * (n1[0] - n0[0]) * d1[1] - offset * (n1[1] - n0[1]) * d1[0]
            t /= cross
            new_pts.append((cur[0] + offset * n0[0] + t * d0[0],
                            cur[1] + offset * n0[1] + t * d0[1]))
    verts = tuple((*new_pts[i % n], l.lifts[i]) for i in range(n + 1))
    off = Loop(verts, l.color2, l.vertical)
    # one sweep; the offset's own pairs come first, also when l self-crosses
    found = _segment_sweep((l, off), (1,))
    try:
        if _pair_crossings(off, off, True, found.get((1, 1), ())) and not l.self_crossings:
            raise OffsetTooLarge("offset curve of a simple projection self-intersects")
        crossings = _records(l, 0, off, 1, _pair_crossings(l, off, False, found.get((0, 1), ())))
    except DegenerateGeometry as exc:
        raise OffsetTooLarge(f"offset curve degenerates: {exc}") from exc
    return off, crossings


def link_number(l: Loop, lt: Loop, crossings: tuple[DoublePoint, ...], t0: float) -> int:
    """Linking number of a null-homologous admissible pair with crossing
    records `crossings`: lk with winding corrections at the t0-crossings."""
    if winding_s1(l) != 0 or winding_s1(lt) != 0:
        raise NotNullHomologous("linking number requires both circle windings to vanish")
    total = lk(crossings, t0)
    for _, point, eps, _ in _loop_marks(l, t0, 0):
        total -= eps * ind(lt, point)
    for _, point, eps, _ in _loop_marks(lt, t0, 1):
        total -= eps * ind(l, point)
    if total.denominator != 1:
        raise NonTransverse("crossing data did not combine to an integer linking number")
    return int(total)


def _framing_offset(l: Loop) -> float:
    """The push-off offset of `self_link`: the least of
    clearance / 6 * min_v cos(phi_v / 2) and, over the loop's self double
    points d, gap_d / (2 rate_d).

    Here phi_v is the turn at vertex v, gap_d the circular distance of the
    two strands' circle coordinates at d, and, for d a crossing of
    segments i and j at angle alpha_d,
    rate_d = sum over s in {i, j} of
    max(sigma_{s-1}, sigma_s, sigma_{s+1})
    * (1 / |sin alpha_d| + tan(phi_s / 2) + tan(phi_{s+1} / 2)),
    sigma_s = |lift change| / length of segment s.

    The miter puts offset vertex v at offset / cos(phi_v / 2) from vertex
    v, so under the first term no vertex moves by more than clearance / 6,
    half of what `pushoff` allows.  Near d the push-off meets the loop
    twice: offset strand i crosses strand j, and strand i crosses offset
    strand j.  Shifting a line by the offset moves its crossing with a
    line at angle alpha_d by offset / |sin alpha_d| along that line.  An
    offset segment runs between miter points that lie at most
    offset * tan(phi / 2) beyond or short of the normal feet of its ends,
    so the parameter of a point on it differs from that of its foot on
    the original by at most those shifts over its length.  The crossing
    may pass onto a neighbouring segment, whence the largest sigma of
    three.  So each strand's circle coordinate at a crossing moves by at
    most the offset times its term of rate_d, and under the second term
    both strands' moves add up to at most gap_d / 2: each crossing keeps
    the order of d's two circle coordinates, that of the small-offset
    limit.  The factor 2 leaves room for an offset segment shorter than
    its original, whose rate is higher by their length ratio.  The bound
    reads coordinates and segment geometry only, not the t0 cut.
    """
    clearance = loop_min_clearance(l)
    lifts, n = l.lifts, l.nseg
    lengths, units = l.lengths, l.segment_frames
    sigma = [abs(tb - ta) / length for ta, tb, length in zip(lifts, lifts[1:], lengths)]
    # half the turn at vertex v, from segment v - 1 to segment v
    half = [math.atan2(abs(px * qy - py * qx), px * qx + py * qy) / 2.0
            for (px, py), (qx, qy) in zip(units[-1:] + units[:-1], units)]
    offset = clearance / 6.0 * min(math.cos(h) for h in half)
    for i, j, tan, tbn, den, *_ in l.self_crossings:
        (px, py), (qx, qy) = units[i], units[j]
        sin_a = abs(px * qy - py * qx)
        gap = (lifts[i] + tan / den * (lifts[i + 1] - lifts[i])
               - lifts[j] - tbn / den * (lifts[j + 1] - lifts[j])) % TAU
        gap = min(gap, TAU - gap)
        # rate_d * |sin alpha_d|, so that a zero sine gives offset 0
        rate = sum(max(sigma[s - 1], sigma[s], sigma[(s + 1) % n])
                   * (1.0 + sin_a * (math.tan(half[s]) + math.tan(half[(s + 1) % n])))
                   for s in (i, j))
        if rate > 0.0:
            offset = min(offset, gap * sin_a / (2.0 * rate))
    return offset


def self_link(l: Loop, t0: float) -> int:
    """Linking number of the loop with its horizontal push-off at
    `_framing_offset(l)`, one push-off per loop.  Where two strands'
    circle coordinates at a self double point differ by so little that
    the offset falls to the coincidence tolerance of 1e-9, the push-off
    lies within that tolerance of the loop and `pushoff` raises
    OffsetTooLarge, so `wlo --mode abelian` exits 3 on the loop."""
    if l.vertical:
        raise DegenerateGeometry("vertical loops have no planar push-off")
    return link_number(l, *pushoff(l, _framing_offset(l)), t0)
