"""Piecewise-linear link model in (plane chart of S^2) x S^1.

The surface is S^2 with the marked point sigma_0 placed at infinity of the
working plane, so per-loop face winding numbers are literal planar winding
numbers and vanish on the face containing sigma_0.  A loop stores planar
vertices together with a real lift of its circle coordinate; the lift is
linear on each segment.

Planar predicates (orientation, segment crossing, winding) give the sign
that exact rational arithmetic on the input coordinates gives; two points
are considered coincident iff they are within 1e-9.  Non-generic input is
rejected, never perturbed.  The orientation tests (`_orient` for a point
against a segment, `_loop_orientation` for a polygon) evaluate in floats
first and return the float sign only when it clears a bound on the
rounding error; otherwise they redo the sum with Fractions (the
filter-then-exact scheme of Shewchuk, "Adaptive Precision Floating-Point
Arithmetic and Fast Robust Geometric Predicates", DCG 18, 1997).  A
crossing's loop parameters and point are exact without Fractions in the
arithmetic: `_pair_crossings` writes the eight coordinates of a crossing
pair as ints over their largest denominator (a power of two, so a multiple
of every other), and each float it or `_records` returns is one int true
division, which CPython rounds correctly, so it is the float of the exact
rational, as `float(Fraction)` gives it (Yap, "Towards exact geometric
computation", CGTA 7, 1997).

All operations are pure functions of immutable inputs and are safe to call
concurrently.  A `Loop` computes its self-crossings (unless a `validate`
has found them first) and its clearance lazily, at most once, and its
lift scan at one t0 (`lift_scans`, emptied when it is scanned at another
t0), and caches them on the instance; a race between threads only
computes the same value twice.  `ind` counts the crossings in one pass
over the segments, and measures the distance to its point only on the
segments whose stored box lies within COINCIDENCE_TOL plus a rounding
margin of 1e-12 times the largest coordinate (derived at `ind`).

The segment-pair scans sweep the segments' x-extents (Shamos and Hoey,
"Geometric intersection problems", FOCS 1976), so they visit only pairs
whose bounding boxes can meet or lie close, not all O(S^2) pairs.  Each
`Loop` stores its segments' bounding boxes once.  The sweep sorts them by
min x - COINCIDENCE_TOL and scans forward from each segment over the
segments that start before it ends, so no active list is rebuilt.  It
leaves out the adjacent segments of a loop, which share a vertex: one
linear pass gives them the endpoint tests of the pair scan, and only if
that pass finds a defect are they merged back, in lexicographic order,
so the pair scan raises the defect an all-pairs scan raises first.  A
pair of other segments is dropped after two cross products when one lies
strictly on one side of the other's line, farther than COINCIDENCE_TOL
plus 1e-12 times the largest coordinate: every endpoint test and
orientation it skips would have passed (the rounding bound is derived at
`_pair_crossings`).  `validate` sweeps the segments of all its loops
once, for the pairs of distinct loops and for the own pairs of each loop
whose self-crossings are not known yet, which it stores on the loop.  It
visits loop pairs and segment pairs in the order of one all-pairs scan
per loop pair, so its crossings and first defect are that scan's.
`pushoff` sweeps a loop and its offset once, pairing the offset with
itself too.

The t0 cut rests on two facts with one implementation each.  `_records`
turns the crossing scan into `DoublePoint` records: both strands'
parameters and circle coordinates, the crossing sign and their order in
the t0 cut; `validate` and `crossings_between` (two distinct loops) both
read them.  `_lift_scan` meets a loop's lift with the levels t0 + 2*pi*Z
once and returns its crossing marks together with its defects, which
`validate` reports and `crossing_marks` raises on.

The face complex of a double-point-free link is its nesting forest:
`face_complex` reads every face datum off each loop's innermost container
and the loop orientations.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

from .errors import (
    DegenerateGeometry,
    HasDoublePoints,
    InvariantViolation,
    NonTransverse,
    PointOnCurve,
    PreconditionError,
    TangentialCrossing,
)

TAU = 2.0 * math.pi
COINCIDENCE_TOL = 1e-9
ANGLE_TOL = 1e-9

__all__ = [
    "Loop",
    "Link",
    "CrossingMark",
    "DoublePoint",
    "AdmissibilityReport",
    "FaceComplex",
    "make_loop",
    "validate",
    "admissible_at",
    "winding_s1",
    "crossing_marks",
    "crossings_between",
    "mark_side_points",
    "ind",
    "face_complex",
    "gleams_dpfree",
    "loop_min_clearance",
]


# ---------------------------------------------------------------------------
# exact planar predicates

def _orient(a, b, c) -> int:
    """Exact sign of the cross product (b - a) x (c - a).

    Fast float evaluation with a conservative error bound, falling back to
    exact rational arithmetic near zero."""
    detl = (b[0] - a[0]) * (c[1] - a[1])
    detr = (b[1] - a[1]) * (c[0] - a[0])
    det = detl - detr
    if abs(det) > 1e-12 * (abs(detl) + abs(detr)):
        return 1 if det > 0 else -1
    ax, ay = Fraction(a[0]), Fraction(a[1])
    bx, by = Fraction(b[0]), Fraction(b[1])
    cx, cy = Fraction(c[0]), Fraction(c[1])
    d = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    return (d > 0) - (d < 0)


def _seg_point_dist(p, a, b) -> float:
    ax, ay = a
    bx, by = b
    px, py = p
    dx, dy = bx - ax, by - ay
    den = dx * dx + dy * dy
    if den == 0.0:
        return math.hypot(px - ax, py - ay)
    t = ((px - ax) * dx + (py - ay) * dy) / den
    t = min(1.0, max(0.0, t))
    return math.hypot(px - (ax + t * dx), py - (ay + t * dy))


def _in_box(p, a, b) -> bool:
    """Whether p lies in the closed bounding box of the segment ab."""
    return (min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= p[1] <= max(a[1], b[1]))


# ---------------------------------------------------------------------------
# domain types

@dataclass(frozen=True)
class Loop:
    """Closed PL curve: (x, y, theta-lift) vertices with the closing vertex
    repeated and a half-integer color."""

    vertices: tuple[tuple[float, float, float], ...]
    color: Fraction = Fraction(1, 2)
    vertical: bool = False
    # the doubled color, projections of `vertices`, segment bounding boxes
    # and the largest planar |coordinate|, built once, and the last
    # `_lift_scan` result, by t0
    color2: int = field(init=False, repr=False, compare=False)
    planar: tuple[tuple[float, float], ...] = field(init=False, repr=False, compare=False)
    lifts: tuple[float, ...] = field(init=False, repr=False, compare=False)
    boxes: tuple[tuple[float, float, float, float], ...] = field(
        init=False, repr=False, compare=False)
    scale: float = field(init=False, repr=False, compare=False)
    lift_scans: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        # one pass; `b if b < a else a` is min(a, b) and `b if b > a else a`
        # is max(a, b) bit for bit, NaN and -0.0 included, and `scale` starts
        # at |x_0| as max(|x_0|, ..., |y_n|) does
        planar, lifts, boxes = [], [], []
        scale = abs(self.vertices[0][0]) if self.vertices else 0.0
        for x, y, t in self.vertices:
            if planar:
                a, b = planar[-1]
                boxes.append((x if x < a else a, x if x > a else a,
                              y if y < b else b, y if y > b else b))
            planar.append((x, y))
            lifts.append(t)
            a, b = abs(x), abs(y)
            if a > scale:
                scale = a
            if b > scale:
                scale = b
        object.__setattr__(self, "color2", int(self.color * 2))
        object.__setattr__(self, "planar", tuple(planar))
        object.__setattr__(self, "lifts", tuple(lifts))
        object.__setattr__(self, "boxes", tuple(boxes))
        object.__setattr__(self, "scale", scale)

    @property
    def nseg(self) -> int:
        return len(self.vertices) - 1

    def theta_at(self, u: float) -> float:
        i, frac = self._locate(u)
        la, lb = self.lifts[i], self.lifts[i + 1]
        return la + frac * (lb - la)

    def _locate(self, u: float) -> tuple[int, float]:
        u = u % 1.0
        n = self.nseg
        i = min(int(u * n), n - 1)
        return i, u * n - i

    @cached_property
    def self_crossings(self) -> tuple:
        """`_proper_crossings(self, self, same=True)`, scanned once, here or
        by the sweep of a `validate` over a link with this loop."""
        return tuple(_proper_crossings(self, self, same=True))

    @cached_property
    def _clearance(self) -> float:
        return _min_clearance(self)


def make_loop(vertices: Iterable[Sequence[float]], color=Fraction(1, 2),
              vertical: bool = False) -> Loop:
    """Build a Loop, checking closure and basic well-formedness."""
    verts = [(float(x), float(y), float(t)) for x, y, t in vertices]
    if len(verts) < 3:
        raise InvariantViolation("loop needs at least 3 vertices")
    for x, y, t in verts:
        if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(t)):
            raise InvariantViolation("non-finite loop coordinate")
    (x0, y0, _), (xn, yn, _) = verts[0], verts[-1]
    if math.hypot(xn - x0, yn - y0) > COINCIDENCE_TOL:
        raise InvariantViolation("loop does not close in the plane")
    verts[-1] = (x0, y0, verts[-1][2])
    w = (verts[-1][2] - verts[0][2]) / TAU
    if abs(w - round(w)) > 1e-9:
        raise InvariantViolation(
            f"circle-coordinate lift does not close up to 2*pi*integer (w = {w})")
    if vertical:
        if any(math.hypot(x - x0, y - y0) > COINCIDENCE_TOL for x, y, _ in verts):
            raise InvariantViolation("vertical loop must project to a single point")
        if round(w) == 0:
            raise InvariantViolation("vertical loop must wind around the circle factor")
        verts = [(x0, y0, t) for _, _, t in verts]
    else:
        for i in range(len(verts) - 1):
            (ax, ay, _), (bx, by, _) = verts[i], verts[i + 1]
            if math.hypot(bx - ax, by - ay) <= COINCIDENCE_TOL:
                raise DegenerateGeometry(f"zero-length projected segment at vertex {i}")
    col = Fraction(color)
    if (2 * col).denominator != 1:
        raise InvariantViolation(f"color {color!r} is not a half-integer")
    return Loop(tuple(verts), col, bool(vertical))


@dataclass(frozen=True)
class Link:
    """Ordered loops with the reference angle t0 and the level k."""

    loops: tuple[Loop, ...]
    t0: float = 0.0
    level: int = 1

    def __post_init__(self):
        object.__setattr__(self, "loops", tuple(self.loops))
        if not (0.0 <= self.t0 < TAU):
            raise InvariantViolation(f"t0 must lie in [0, 2*pi), got {self.t0}")
        if not isinstance(self.level, int) or self.level < 1:
            raise InvariantViolation(f"level must be a positive integer, got {self.level!r}")
        for i, lp in enumerate(self.loops):
            if not 0 <= lp.color2 <= self.level:
                raise InvariantViolation(
                    f"loop {i} color {lp.color} outside color set of level {self.level}")


def winding_s1(loop: Loop) -> int:
    """Winding number of the circle coordinate: (theta_last - theta_first)/2pi."""
    return round((loop.lifts[-1] - loop.lifts[0]) / TAU)


# ---------------------------------------------------------------------------
# pairwise crossing enumeration

def _segment_sweep(loops: Sequence[Loop], selves=()) -> dict:
    """Segment pairs whose bounding boxes lie within COINCIDENCE_TOL of
    each other in x and in y, found in one sweep over the segments of all
    `loops` sorted by min x - COINCIDENCE_TOL.  Returns, for each loop pair
    a <= b (indices into `loops`) with candidates, the pairs (segment of a,
    segment of b) sorted lexicographically.  Loops are paired with each
    other, and a single loop or those indexed in `selves` with themselves
    (i < j), bar adjacent segments: they share a vertex, so their boxes
    always meet, and `_pair_crossings` checks them in its own pass.

    Each segment is paired with the segments after it in the sorted order
    that start (min x - COINCIDENCE_TOL) no later than it ends (max x);
    those form one slice of the order, found by bisection."""
    tol = COINCIDENCE_TOL
    own = [len(loops) == 1] * len(loops)  # own[a]: pair loop a with itself
    for a in selves:
        own[a] = True
    events = sorted((x0 - tol, x1, y0 - tol, y1, a, i)
                    for a, lp in enumerate(loops) for i, (x0, x1, y0, y1) in enumerate(lp.boxes))
    starts = [ev[0] for ev in events]
    nseg = [lp.nseg for lp in loops]
    pairs: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for e, (_lo, hi, ylo, yhi, a, i) in enumerate(events, 1):
        for _blo, _bhi, bylo, byhi, b, j in events[e:bisect_right(starts, hi, e)]:
            # the x half of the box test holds by the slice
            if bylo > yhi or ylo > byhi:
                continue
            if b != a:
                if b < a:
                    pairs.setdefault((b, a), []).append((j, i))
                else:
                    pairs.setdefault((a, b), []).append((i, j))
            elif own[a] and abs(i - j) not in (1, nseg[a] - 1):
                pairs.setdefault((a, a), []).append((i, j) if i < j else (j, i))
    for found in pairs.values():
        found.sort()
    return pairs


def _proper_crossings(la: Loop, lb: Loop, same: bool):
    """All transversal crossings of the two projected polygons, ordered
    lexicographically in (segment of la, segment of lb): `_segment_sweep`
    on la alone (same=True, la is lb) or on both, then `_pair_crossings`."""
    loops = (la,) if same else (la, lb)
    return _pair_crossings(la, lb, same, _segment_sweep(loops).get((0, len(loops) - 1), ()))


def _pair_crossings(la: Loop, lb: Loop, same: bool, candidates):
    """The transversal crossings among the candidate segment pairs (i of
    la, j of lb), which passed the bounding-box test, in their order.

    Yields (seg_a, seg_b, ta, tb, point, cross_sign) with exact Fraction
    parameters, each built once from int numerator and denominator: the
    eight coordinates of a crossing pair are written as ints over their
    largest `as_integer_ratio()` denominator, a power of two.  Each point
    coordinate is one int true division by a positive divisor, correctly
    rounded, so it is the float of the exact rational a1 + ta (a2 - a1),
    and a zero comes out +0.0.

    The one scan that rejects non-generic PL input: raises
    DegenerateGeometry when an endpoint of one segment lies within
    COINCIDENCE_TOL of the other (bar the vertex adjacent segments share),
    or when segments graze or overlap.  With same=True, la and lb are the
    same loop and adjacent segments get only that endpoint test.  Pairs
    are visited in lexicographic order, so the first defect found is the
    same as in an all-pairs scan.

    With same=True the adjacent pairs (i, i + 1) and (0, n - 1), which
    `_segment_sweep` leaves out, first get their endpoint tests in one
    pass: each segment against the far ends of its two neighbours.  If
    one fails, they are merged into `candidates` in lexicographic order,
    and the loop below raises whichever defect comes first.

    The adjacent-pair pass inlines `_seg_point_dist` (same floats in the
    same order; t = 0 on a zero-length segment), so each gives the same bit.
    If o1 == o2 != 0, b lies strictly on one side of a's line: no crossing,
    and as `_orient` is exact no end of a lies on b, so o3, o4 are skipped.

    Before those tests, a pair is dropped when the float cross products
    c1 = (a2 - a1) x (b1 - a1) and c2 = (a2 - a1) x (b2 - a1) have one
    sign and c1^2, c2^2 > m^2 aden + 1e-300, where aden is the float
    |a2 - a1|^2, m = COINCIDENCE_TOL + 1e-12 S and S, the larger `scale`
    of la and lb, bounds every coordinate.  Then every test it skips
    would have passed.  With u = 2^-53 and L = |a2 - a1|: for S < 1e150
    (otherwise m is taken infinite) no product overflows.  Each c rounds
    two differences, a product and a difference, so it lies within
    5u (|P| + |P'|) <= 5u L |b1 - a1| <= 15 u L S of the exact cross
    product C (Cauchy-Schwarz, |b1 - a1| <= 2.83 S), plus 1e-323 of
    underflow.  The squares, m^2 and aden round within 12u, and the
    1e-300 covers their underflow, so |c| > m L (1 - 7u).  Hence C has
    the sign of c, so o1 == o2 != 0, and b1, b2 lie farther than
    |C| / L > m (1 - 7u) - 16 u S from a's line (|c| > 1e-150 forces
    L S > 3e-151, so 1e-323 / L < 1e-172 S).  Every point of b lies that
    far from a's line, so each endpoint test measures a true distance
    above tol (1 - 7u) + (1e-12 - 17u) S; `_seg_point_dist` loses at most
    5.1 u S and a factor 1 - 3u of it (derived at `ind`), which leaves
    more than tol, as such a distance needs S > tol / 3.
    """
    tol = COINCIDENCE_TOL
    hypot = math.hypot
    na = la.nseg
    pa = la.planar
    pb = lb.planar
    if la.scale < 1e150 and lb.scale < 1e150:
        m = tol + 1e-12 * max(la.scale, lb.scale)
        mm = m * m
    else:  # also a NaN scale
        mm = math.inf
    if same and na > 2:
        for s in range(na):
            (sx, sy), (sx2, sy2) = pa[s], pa[s + 1]
            # the far ends of segments s - 1 and s + 1, as the pair scan reads them
            px, py = pa[s - 1] if s else pa[na - 1]
            qx, qy = pa[s + 2] if s < na - 1 else pa[1]
            sdx, sdy = sx2 - sx, sy2 - sy
            sden = sdx * sdx + sdy * sdy
            t = ((px - sx) * sdx + (py - sy) * sdy) / sden if sden else 0.0
            t = 1.0 if t >= 1.0 else (t if t > 0.0 else 0.0)
            v = ((qx - sx) * sdx + (qy - sy) * sdy) / sden if sden else 0.0
            v = 1.0 if v >= 1.0 else (v if v > 0.0 else 0.0)
            if (hypot(px - (sx + t * sdx), py - (sy + t * sdy)) <= tol
                    or hypot(qx - (sx + v * sdx), qy - (sy + v * sdy)) <= tol):
                candidates = sorted([*candidates, *((k, k + 1) for k in range(na - 1)),
                                     (0, na - 1)])
                break
    out = []
    for i, j in candidates:
        a1, a2, b1, b2 = pa[i], pa[i + 1], pb[j], pb[j + 1]
        (ax, ay), (ax2, ay2), (bx, by), (bx2, by2) = a1, a2, b1, b2
        adx, ady = ax2 - ax, ay2 - ay
        aden = adx * adx + ady * ady
        c1 = adx * (by - ay) - ady * (bx - ax)
        c2 = adx * (by2 - ay) - ady * (bx2 - ax)
        if (c1 > 0.0) == (c2 > 0.0):
            lim = mm * aden + 1e-300
            if c1 * c1 > lim and c2 * c2 > lim:
                continue  # b lies on one side of a's line, farther than m
        after = same and j == i + 1  # a2 is b1
        before = same and i == 0 and j == na - 1  # a1 is b2
        if ((not before and _seg_point_dist(a1, b1, b2) <= tol)
                or (not after and _seg_point_dist(a2, b1, b2) <= tol)
                or (not after and _seg_point_dist(b1, a1, a2) <= tol)
                or (not before and _seg_point_dist(b2, a1, a2) <= tol)):
            raise DegenerateGeometry(f"a vertex lies on a segment (segments {i}, {j})")
        if after or before:
            continue
        o1 = _orient(a1, a2, b1)
        o2 = _orient(a1, a2, b2)
        if o1 == o2 != 0:
            continue
        o3 = _orient(b1, b2, a1)
        o4 = _orient(b1, b2, a2)
        if o1 * o2 < 0 and o3 * o4 < 0:
            # the eight coordinates as ints over their largest denominator, a
            # power of two and so their least common one
            ratios = [v.as_integer_ratio() for v in (ax, ay, ax2, ay2, bx, by, bx2, by2)]
            lcd = max(d for _, d in ratios)
            iax, iay, iax2, iay2, ibx, iby, ibx2, iby2 = [n * (lcd // d) for n, d in ratios]
            r0, r1 = iax2 - iax, iay2 - iay
            s0, s1 = ibx2 - ibx, iby2 - iby
            q0, q1 = ibx - iax, iby - iay
            den = r0 * s1 - r1 * s0
            tan = q0 * s1 - q1 * s0
            sg = 1 if den > 0 else -1
            div = abs(den) * lcd
            pt = (sg * (iax * den + tan * r0) / div, sg * (iay * den + tan * r1) / div)
            out.append((i, j, Fraction(tan, den), Fraction(q0 * r1 - q1 * r0, den), pt, sg))
        elif (o1, o2, o3, o4).count(0) > 0:
            # an endpoint grazes or the segments are collinear
            if (
                (o1 == 0 and _in_box(b1, a1, a2))
                or (o2 == 0 and _in_box(b2, a1, a2))
                or (o3 == 0 and _in_box(a1, b1, b2))
                or (o4 == 0 and _in_box(a2, b1, b2))
            ):
                raise DegenerateGeometry(
                    f"segments graze or overlap (segments {i}, {j})")
    return out


# ---------------------------------------------------------------------------
# admissibility

@dataclass(frozen=True)
class DoublePoint:
    """One transversal crossing of two strands of the projection."""

    point: tuple[float, float]
    strands: tuple[tuple[int, float], tuple[int, float]]  # (loop index, loop parameter)
    thetas: tuple[float, float]  # circle coordinate of each strand
    cross_sign: int  # sign of det(first strand's tangent, second strand's tangent)

    def s1_order(self, t0: float) -> int:
        """+1 if the first strand sits below the second in the t0-cut order."""
        cs = ((self.thetas[0] - t0) / TAU) % 1.0
        cu = ((self.thetas[1] - t0) / TAU) % 1.0
        d = abs(cs - cu)
        if min(d, 1.0 - d) * TAU <= ANGLE_TOL:
            raise NonTransverse("strands share their circle coordinate at a crossing")
        return 1 if cs < cu else -1


def crossings_between(l: Loop, lt: Loop) -> tuple[DoublePoint, ...]:
    """Transversal projected crossings of two distinct loops, ordered
    lexicographically in (segment of l, segment of lt); strand 0 is on l
    and strand 1 on lt.  `_proper_crossings` raises DegenerateGeometry for
    non-generic input."""
    return _records(l, 0, lt, 1, _proper_crossings(l, lt, same=False))


def _records(la: Loop, i: int, lb: Loop, j: int, pairs) -> tuple[DoublePoint, ...]:
    """The crossings `pairs` of `_pair_crossings` on la (loop i) and lb
    (loop j) as `DoublePoint`s.  A strand's loop parameter (s + t) / nseg,
    with t = p/q, is the int true division (s q + p) / (q nseg): the
    correctly rounded float of that rational, with no Fraction arithmetic."""
    out = []
    na, nb = la.nseg, lb.nseg
    for (si, sj, ta, tb, pt, sign) in pairs:
        p, q = ta.numerator, ta.denominator
        ua = (si * q + p) / (q * na)
        p, q = tb.numerator, tb.denominator
        ub = (sj * q + p) / (q * nb)
        out.append(DoublePoint(pt, ((i, ua), (j, ub)), (la.theta_at(ua), lb.theta_at(ub)), sign))
    return tuple(out)


@dataclass(frozen=True)
class AdmissibilityReport:
    ok: bool
    double_points: tuple[DoublePoint, ...]
    triple_points: tuple[tuple[float, float], ...]
    t0_degeneracies: tuple[tuple[int, str, float], ...]
    t0_double_point_hits: tuple[tuple[float, float], ...]
    strand_collisions: tuple[tuple[float, float], ...]
    vertical_loops: tuple[int, ...]


def _angle_eq(a: float, b: float) -> bool:
    d = (a - b) % TAU
    return d <= ANGLE_TOL or TAU - d <= ANGLE_TOL


def _t0_events(link: Link, double_points: Iterable[DoublePoint], t0: float):
    """Double points with a strand at t0, and lift defects at t0."""
    hits = [d.point for d in double_points
            if _angle_eq(d.thetas[0], t0) or _angle_eq(d.thetas[1], t0)]
    defects = [(i, *x) for i, lp in enumerate(link.loops) if not lp.vertical
               for x in _lift_scan(lp, t0)[1]]
    return hits, defects


def validate(link: Link) -> AdmissibilityReport:
    """Check the admissibility of a link: finitely many transversal double
    points, no triple points, no degenerate circle-coordinate events at t0,
    and no double point with a strand at circle coordinate t0.

    Structural defects of the PL input (grazing segments, vertices on
    foreign segments) raise DegenerateGeometry; everything else is reported.
    """
    loops = link.loops
    vertical = tuple(i for i, lp in enumerate(loops) if lp.vertical)
    regular = [(i, lp) for i, lp in enumerate(loops) if not lp.vertical]

    # one sweep finds the candidate segment pairs of all distinct loops and
    # of each loop whose self-crossings are not known yet with itself; the
    # latter are stored on the loop as its `self_crossings`
    swept = [lp for _, lp in regular]
    selves = tuple(a for a, lp in enumerate(swept) if "self_crossings" not in vars(lp))
    found = _segment_sweep(swept, selves) if len(swept) > 1 or selves else {}
    events = []
    for ai, (i, la) in enumerate(regular):
        if "self_crossings" not in vars(la):
            object.__setattr__(la, "self_crossings", tuple(
                _pair_crossings(la, la, True, found.get((ai, ai), ()))))
        events.extend(_records(la, i, la, i, la.self_crossings))
        for bi in range(ai + 1, len(regular)):
            if candidates := found.get((ai, bi)):
                j, lb = regular[bi]
                events.extend(_records(la, i, lb, j, _pair_crossings(la, lb, False, candidates)))

    # cluster events by planar point; two events within tolerance mean at
    # least three strands through one point.  An event joins the first
    # cluster whose first point lies within tolerance.  Clusters are filed
    # by the grid cell of their first point; cells are 2 * COINCIDENCE_TOL
    # wide, so the 3 x 3 cells around an event hold every such point even
    # after x / cell rounds.
    cell = 2.0 * COINCIDENCE_TOL
    clusters: list[list[DoublePoint]] = []
    grid: dict[tuple[int, int], list[int]] = {}
    for ev in events:
        cx, cy = math.floor(ev.point[0] / cell), math.floor(ev.point[1] / cell)
        near = [c for gx in (cx - 1, cx, cx + 1) for gy in (cy - 1, cy, cy + 1)
                for c in grid.get((gx, gy), ())
                if math.dist(ev.point, clusters[c][0].point) <= COINCIDENCE_TOL]
        if near:
            clusters[min(near)].append(ev)
        else:
            grid.setdefault((cx, cy), []).append(len(clusters))
            clusters.append([ev])

    double_points = []
    triple_points = []
    strand_collisions = []
    for cl in clusters:
        if len(cl) > 1:
            triple_points.append(cl[0].point)
            continue
        dp = cl[0]
        double_points.append(dp)
        if _angle_eq(*dp.thetas):
            strand_collisions.append(dp.point)

    t0_hits, t0_deg = _t0_events(link, double_points, link.t0)
    double_points.sort(key=lambda d: d.strands)
    ok = not (triple_points or t0_deg or t0_hits or strand_collisions or vertical)
    return AdmissibilityReport(
        ok=ok,
        double_points=tuple(double_points),
        triple_points=tuple(sorted(triple_points)),
        t0_degeneracies=tuple(sorted(t0_deg)),
        t0_double_point_hits=tuple(sorted(t0_hits)),
        strand_collisions=tuple(sorted(strand_collisions)),
        vertical_loops=vertical,
    )


def admissible_at(link: Link, report: AdmissibilityReport, t0: float) -> bool:
    """Whether `link` is admissible cut at t0 instead of link.t0, given its
    `validate` report; only the conditions that depend on t0 are rechecked."""
    if report.triple_points or report.strand_collisions or report.vertical_loops:
        return False
    hits, degeneracies = _t0_events(link, report.double_points, t0)
    return not (hits or degeneracies)


# ---------------------------------------------------------------------------
# crossings of the circle coordinate

@dataclass(frozen=True)
class CrossingMark:
    """A parameter where the circle coordinate of a loop crosses t0."""

    loop: int
    param: float
    point: tuple[float, float]
    eps: int  # +1 iff the lift increases through t0
    tangent: tuple[float, float]


def _unit(v):
    n = math.hypot(v[0], v[1])
    if n == 0.0:  # a loop that folds back exactly: its two tangents cancel
        raise DegenerateGeometry("zero tangent vector")
    return (v[0] / n, v[1] / n)


def _lift_scan(loop: Loop, t0: float):
    """Meet the loop's lift with the levels t0 + 2*pi*Z in one pass.

    Returns the crossing marks (param, point, eps, tangent), the fields of
    a `CrossingMark` after its loop, sorted by parameter, and the defects
    ("constant-at-t0" | "tangential", param): a segment whose lift is
    constant at a level, or a vertex where the lift meets a level and turns
    back.  A level met at a vertex is handled at the end of the segment
    that reaches it, so vertex 0 is handled at the end of the last segment.
    """
    memo = loop.lift_scans
    if (found := memo.get(t0)) is not None:
        return found
    if any(t != t0 for t in list(memo)):
        memo.clear()
    n = loop.nseg
    pl = loop.planar
    bottom, top = min(loop.lifts) - 1.0, max(loop.lifts) + 1.0
    levels = [t0 + TAU * m
              for m in range(math.ceil((bottom - t0) / TAU), math.floor((top - t0) / TAU) + 1)]
    # vertex 0 takes the lift of its end copy: make_loop closes lifts only
    # to 2*pi*1e-9, so the two copies can disagree about a level
    lifts = list(loop.lifts)
    lifts[0] = lifts[n] - TAU * round((lifts[n] - lifts[0]) / TAU)
    deltas = [lifts[i + 1] - lifts[i] for i in range(n)]
    marks, defects = [], []
    for i, delta in enumerate(deltas):
        la, lb = lifts[i], lifts[i + 1]
        if abs(delta) <= ANGLE_TOL:
            if any(abs(la - lv) <= ANGLE_TOL for lv in levels):
                defects.append(("constant-at-t0", i / n))
            continue
        eps = 1 if delta > 0 else -1
        lo, hi = (la, lb) if delta > 0 else (lb, la)
        for lv in levels:
            if lv < lo - ANGLE_TOL or lv > hi + ANGLE_TOL or abs(lv - la) <= ANGLE_TOL:
                continue
            (ax, ay), (bx, by) = pl[i], pl[i + 1]
            tangent = _unit((bx - ax, by - ay))
            if abs(lv - lb) > ANGLE_TOL:
                frac = (lv - la) / delta
                point = (ax + frac * (bx - ax), ay + frac * (by - ay))
                marks.append(((i + frac) / n, point, eps, tangent))
                continue
            # at vertex v the lift crosses only if its next non-constant
            # segment goes on the same way (segment i ends the search)
            v = (i + 1) % n
            nxt = next(d for d in deltas[v:] + deltas[:v] if abs(d) > ANGLE_TOL)
            if (nxt > 0) != (delta > 0):
                defects.append(("tangential", v / n))
                continue
            d2 = _unit((pl[v + 1][0] - pl[v][0], pl[v + 1][1] - pl[v][1]))
            marks.append((v / n, pl[v], eps,
                          _unit((tangent[0] + d2[0], tangent[1] + d2[1]))))
    marks.sort(key=lambda m: m[0])
    return memo.setdefault(t0, (tuple(marks), tuple(defects)))


def _loop_marks(loop: Loop, t0: float, loop_index: int):
    """The crossing marks of one loop, as `_lift_scan` returns them;
    TangentialCrossing, naming loop_index, on a lift defect."""
    marks, defects = _lift_scan(loop, t0)
    if defects:
        kind, param = defects[0]
        raise TangentialCrossing(f"loop {loop_index}: {kind} lift at parameter {param}")
    return marks


def crossing_marks(link: Link) -> tuple[CrossingMark, ...]:
    """All parameters where a loop's circle coordinate crosses t0, with the
    sign of the crossing."""
    marks = []
    for j, lp in enumerate(link.loops):
        if lp.vertical:
            raise PreconditionError("vertical loops have no crossing marks")
        lm = [CrossingMark(j, *m) for m in _loop_marks(lp, link.t0, j)]
        if sum(m.eps for m in lm) != winding_s1(lp):
            raise TangentialCrossing(
                f"crossing signs of loop {j} do not sum to its winding number")
        marks.extend(lm)
    return tuple(marks)


def mark_side_points(link: Link, mark: CrossingMark):
    """Probe points just left and just right of the strand at a crossing
    mark, displaced by a quarter of the local clearance: the minimum of
    `_seg_point_dist` over every segment, bar those of the mark's loop
    within COINCIDENCE_TOL of it."""
    p = px, py = mark.point
    clearance = math.inf
    for j, loop in enumerate(link.loops):
        pl = loop.planar
        for i in range(loop.nseg):
            d = _seg_point_dist(p, pl[i], pl[i + 1])
            if j == mark.loop and d <= COINCIDENCE_TOL:
                continue  # a segment through the mark itself
            clearance = min(clearance, d)
    if not math.isfinite(clearance) or clearance <= 0:
        raise DegenerateGeometry("no clearance around crossing mark")
    d = clearance * 0.25
    nx, ny = -mark.tangent[1], mark.tangent[0]
    return (px + d * nx, py + d * ny), (px - d * nx, py - d * ny)


# ---------------------------------------------------------------------------
# planar winding numbers

def ind(loop: Loop, p: Sequence[float]) -> int:
    """Planar winding number of the projected polygon around p, vanishing
    near infinity (and hence at sigma_0).  A vertical loop projects to its
    base point, so its segments have zero length there: it winds 0 times
    around any other point.  One pass counts crossings and raises
    PointOnCurve if a segment lies within COINCIDENCE_TOL of p.  A point
    with an infinite or NaN coordinate raises PreconditionError before
    any arithmetic.

    Only segments whose stored box lies within m = COINCIDENCE_TOL +
    1e-12 S of p, S = max(loop.scale, |px|, |py|), are tested, and only
    those whose box meets p's horizontal line, widened by m, are counted.
    Skipping the others gives the same result.  A box beyond py + m in y
    (the other three sides alike) has y0 - py > m - u (S + m), u = 2^-53,
    after the rounding of py + m.  `_seg_point_dist` takes a t in [0, 1]
    and rounds a + t (b - a) to within 5.1 u S of the segment, as
    b - a, the product and the sum round once each and |a|, |b| <= S; the
    difference to p and hypot lose a factor (1 - u)(1 - 2u) at most.  So
    its distance exceeds (m - 7 u S - u m)(1 - 3u) > COINCIDENCE_TOL: the
    scale term 1e-12 S is over 1000 times 7 u S, and below S = tol / 2
    no box lies more than m from p.  A NaN box bound fails every skip
    test, so its segment is tested as before.
    """
    p = px, py = float(p[0]), float(p[1])
    if not (math.isfinite(px) and math.isfinite(py)):
        raise PreconditionError(f"point {p} is not finite")
    m = COINCIDENCE_TOL + 1e-12 * max(loop.scale, abs(px), abs(py))
    xlo, xhi, ylo, yhi = px - m, px + m, py - m, py + m
    pl = loop.planar
    w = 0
    for i, (x0, x1, y0, y1) in enumerate(loop.boxes):
        if y0 > yhi or y1 < ylo:
            continue  # off p's line, and farther than m
        a, b = pl[i], pl[i + 1]
        if not (x0 > xhi or x1 < xlo) and _seg_point_dist(p, a, b) <= COINCIDENCE_TOL:
            raise PointOnCurve(f"point {p} lies on the projected curve")
        if a[1] <= py < b[1] and _orient(a, b, p) > 0:
            w += 1
        elif b[1] <= py < a[1] and _orient(a, b, p) < 0:
            w -= 1
    return w


def _loop_orientation(loop: Loop) -> int:
    """+1 for a counterclockwise projected polygon, -1 for clockwise.

    The doubled signed area A = sum_i (x_i y_{i+1} - x_{i+1} y_i) over the n
    segments is first summed in floats, together with
    S = sum_i (|x_i y_{i+1}| + |x_{i+1} y_i|).  With unit roundoff
    u = 2^-53, each product is rounded once, each difference once, and the
    running sum (starting from an exact 0.0) rounds n - 1 more times, so
    every product passes through at most n + 1 roundings and the float sum
    differs from A by at most gamma_{n+1} S, gamma_m = m u / (1 - m u)
    (Higham, "Accuracy and Stability of Numerical Algorithms", 2002, §3.1).
    Products in the subnormal range add at most 2^-1075 each, which
    1e-300 covers for any polygon that fits in memory.  The float sign is
    returned when |A| exceeds (n + 2) * 4.5e-16 * S + 1e-300, at least four
    times that error bound; otherwise the sum is redone in exact Fraction
    arithmetic, as are polygons whose products overflow (A or S is then
    infinite or NaN and fails the test).
    """
    pl = loop.planar
    n = loop.nseg
    area = 0.0
    mag = 0.0
    for (ax, ay), (bx, by) in zip(pl, pl[1:]):
        p = ax * by
        q = bx * ay
        area += p - q
        mag += abs(p) + abs(q)
    if abs(area) > (n + 2) * 4.5e-16 * mag + 1e-300:
        return 1 if area > 0 else -1
    area = Fraction(0)
    for i in range(n):
        (ax, ay), (bx, by) = pl[i], pl[i + 1]
        area += Fraction(ax) * Fraction(by) - Fraction(bx) * Fraction(ay)
    if area == 0:
        raise DegenerateGeometry("projected polygon has zero signed area")
    return 1 if area > 0 else -1


# ---------------------------------------------------------------------------
# face complex of a double-point-free link

@dataclass(frozen=True)
class FaceComplex:
    """Complement regions of pairwise-disjoint projected Jordan curves on
    S^2, with per-loop winding numbers constant on each face.  A face is
    its index: chi, ind_table and the gleams are indexed by face."""

    chi: tuple[int, ...]                     # Euler characteristic per face
    ind_table: tuple[tuple[int, ...], ...]   # [face][loop]
    loop_sides: tuple[tuple[int, int], ...]  # (left face, right face) per loop
    outer: int
    parent: tuple[int | None, ...]           # nesting forest over loops


def face_complex(link: Link) -> FaceComplex:
    """Decompose the complement of a double-point-free link projection.

    This is the admissibility check for double-point-free work: it runs
    `validate` once and raises DegenerateGeometry for non-generic PL input,
    HasDoublePoints for double or triple points, and PreconditionError for
    vertical loops or any other failed admissibility condition.

    Faces are indexed 0..n-1 (region immediately inside loop j) plus the
    outer face n containing sigma_0.  Every face datum (chi, ind_table,
    loop_sides) is read off the nesting forest `parent` and the loop
    orientations: loop j separates face j from the face beyond it (its
    parent's, or the outer face for a root), so face j is a disc less one
    hole per child and the outer face a sphere less one hole per root, and
    the chi sum to n + 2 - n = 2.  A loop's winding number is its
    orientation on its own face and on every face it encloses, and 0
    elsewhere.
    """
    report = validate(link)
    if report.double_points or report.triple_points:
        raise HasDoublePoints("face complex requires a projection without double points")
    if report.vertical_loops:
        raise PreconditionError("vertical loops have no planar face structure")
    if not report.ok:
        raise PreconditionError("link failed admissibility validation")

    loops = link.loops
    n = len(loops)
    orient = [_loop_orientation(lp) for lp in loops]
    inside = [[False] * n for _ in range(n)]  # inside[i][j]: loop j lies inside loop i
    for i in range(n):
        xs, ys = zip(*loops[i].planar)
        x0, x1, y0, y1 = min(xs), max(xs), min(ys), max(ys)
        for j in range(n):
            # a point off the open bounding box of loop i has winding number
            # 0 (validate has put every vertex off the other loops' curves)
            x, y = loops[j].planar[0]
            if i != j and x0 < x < x1 and y0 < y < y1:
                inside[i][j] = ind(loops[i], (x, y)) != 0

    depth = [sum(1 for i in range(n) if inside[i][j]) for j in range(n)]
    parent: list[int | None] = [None] * n
    for j in range(n):
        containers = [i for i in range(n) if inside[i][j]]
        if containers:
            parent[j] = max(containers, key=lambda i: depth[i])

    # loop j separates face j from the face beyond it
    outer = n
    beyond = [outer if p is None else p for p in parent]
    chi = [1] * n + [2]
    for b in beyond:
        chi[b] -= 1
    return FaceComplex(
        chi=tuple(chi),
        ind_table=tuple(tuple(orient[j] if j == f or inside[j][f] else 0 for j in range(n))
                        for f in range(n)) + ((0,) * n,),
        loop_sides=tuple((j, b) if orient[j] > 0 else (b, j) for j, b in enumerate(beyond)),
        outer=outer,
        parent=tuple(parent),
    )


def gleams_dpfree(link: Link, fc: FaceComplex) -> tuple[int, ...]:
    """Face decorations for a double-point-free link: each loop adds its
    circle winding to its left face and subtracts it from its right face."""
    out = [0] * len(fc.chi)
    for lp, (left, right) in zip(link.loops, fc.loop_sides):
        w = winding_s1(lp)
        out[left] += w
        out[right] -= w
    return tuple(out)


def loop_min_clearance(loop: Loop) -> float:
    """Minimum distance between non-adjacent, non-crossing segments of the
    projection; the push-off admissibility threshold is a third of this.
    Computed once per loop."""
    return loop._clearance


def _min_clearance(loop: Loop) -> float:
    """Closest pair over a sweep of x-extents.  A pair is skipped only when
    its bounding-box gap exceeds the best distance so far by a margin far
    above the rounding error of its distance (a few ulps of the largest
    coordinate), so the float minimum is the all-pairs one.  The distance
    of a pair is the least of its four endpoint-to-segment distances, the
    expressions of `_seg_point_dist` inlined as in `_pair_crossings`."""
    crossing = {(i, j) for (i, j, *_rest) in loop.self_crossings}
    hypot = math.hypot
    n = loop.nseg
    pl = loop.planar
    scale = loop.scale
    boxes = sorted(box + (i,) for i, box in enumerate(loop.boxes))
    best = math.inf
    bound = math.inf  # gaps above this cannot lower `best`
    active = []
    for x0, x1, y0, y1, j in boxes:
        active = [a for a in active if x0 - a[1] <= bound]
        for ax0, ax1, ay0, ay1, i in active:
            if y0 - ay1 > bound or ay0 - y1 > bound or x0 - ax1 > bound:
                continue
            lo, hi = (i, j) if i < j else (j, i)
            if hi - lo == 1 or (lo == 0 and hi == n - 1) or (lo, hi) in crossing:
                continue
            (ax, ay), (ax2, ay2), (bx, by), (bx2, by2) = pl[lo], pl[lo + 1], pl[hi], pl[hi + 1]
            adx, ady, bdx, bdy = ax2 - ax, ay2 - ay, bx2 - bx, by2 - by
            aden, bden = adx * adx + ady * ady, bdx * bdx + bdy * bdy
            # a1, a2 against b, then b1, b2 against a; `e < d` keeps min()'s choice
            t = ((ax - bx) * bdx + (ay - by) * bdy) / bden if bden else 0.0
            t = 1.0 if t >= 1.0 else (t if t > 0.0 else 0.0)
            d = hypot(ax - (bx + t * bdx), ay - (by + t * bdy))
            t = ((ax2 - bx) * bdx + (ay2 - by) * bdy) / bden if bden else 0.0
            t = 1.0 if t >= 1.0 else (t if t > 0.0 else 0.0)
            e = hypot(ax2 - (bx + t * bdx), ay2 - (by + t * bdy))
            if e < d:
                d = e
            t = ((bx - ax) * adx + (by - ay) * ady) / aden if aden else 0.0
            t = 1.0 if t >= 1.0 else (t if t > 0.0 else 0.0)
            e = hypot(bx - (ax + t * adx), by - (ay + t * ady))
            if e < d:
                d = e
            t = ((bx2 - ax) * adx + (by2 - ay) * ady) / aden if aden else 0.0
            t = 1.0 if t >= 1.0 else (t if t > 0.0 else 0.0)
            e = hypot(bx2 - (ax + t * adx), by2 - (ay + t * ady))
            if e < d:
                d = e
            if d < best:
                best = d
                bound = best * (1.0 + 1e-9) + 1e-12 * scale
        active.append((x0, x1, y0, y1, j))
    if not math.isfinite(best):
        raise DegenerateGeometry("loop has no non-adjacent segment pairs")
    return best
