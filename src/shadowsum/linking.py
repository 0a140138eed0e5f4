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
first.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (
    DegenerateGeometry,
    NonTransverse,
    NotNullHomologous,
    OffsetTooLarge,
)
from .geometry import (
    DoublePoint,
    Loop,
    _loop_marks,
    _pair_crossings,
    _records,
    _segment_sweep,
    _unit,
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
    new_pts = []
    for i in range(n):
        prev = pl[(i - 1) % n]
        cur = pl[i]
        nxt = pl[i + 1]
        d0 = _unit((cur[0] - prev[0], cur[1] - prev[1]))
        d1 = _unit((nxt[0] - cur[0], nxt[1] - cur[1]))
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
    off = Loop(verts, l.color, l.vertical)
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


def self_link(l: Loop, t0: float) -> int:
    """Linking number of the loop with its horizontal push-off, evaluated at
    two offsets to confirm stability as the offset shrinks."""
    threshold = loop_min_clearance(l) / 3.0
    values = []
    for f in (0.5, 0.25):
        off, crossings = pushoff(l, threshold * f)
        values.append(link_number(l, off, crossings, t0))
    if values[0] != values[1]:
        raise OffsetTooLarge(
            f"self-linking value not stable under offset refinement: {values}")
    return values[0]
