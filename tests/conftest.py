import functools
import math
import pathlib
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from shadowsum.geometry import Link  # noqa: E402
from shadowsum.random_links import polygon_circle  # noqa: E402

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"


@pytest.fixture(scope="session")
def corpus_dir() -> pathlib.Path:
    assert CORPUS.is_dir(), "regression corpus missing"
    return CORPUS


def tangential_t0_link() -> Link:
    """One 16-gon circle whose lift is 1.0 except 0.5 at vertex 0: at
    t0 = 0.5 the lift touches t0 without crossing it, so the link has no
    double points but is not admissible."""
    loop = polygon_circle(0.0, 0.0, 1.0, 16, theta_fn=lambda u: 0.5 if u in (0.0, 1.0) else 1.0)
    return Link((loop,), t0=0.5, level=2)


def face_of_point_oracle(link, fc, p) -> int:
    """Face of `fc` containing the planar point p: the innermost loop
    whose winding number around p is nonzero, or the outer face."""
    from shadowsum.geometry import ind

    def contains(i, j):
        if i == j:
            return False
        k = fc.parent[j]
        while k is not None:
            if k == i:
                return True
            k = fc.parent[k]
        return False

    containing = [j for j, lp in enumerate(link.loops) if ind(lp, p) != 0]
    if not containing:
        return len(link.loops)
    depth = {j: sum(1 for i in containing if contains(i, j)) for j in containing}
    return max(containing, key=lambda j: depth[j])


def face_complex_oracle(link):
    """The face data of a double-point-free link from an explicit nesting
    forest: containment of every loop pair by `ind` (no bounding-box
    filter), parent = deepest container, then children and roots lists,
    chi from the child counts, each face's winding row from its chain of
    ancestors, and gleams summed over each face's boundary loops.
    Returns (faces as (id, chi), ind_table, loop_sides, outer, parent,
    gleams)."""
    from shadowsum.geometry import _loop_orientation, ind, winding_s1

    loops = link.loops
    n = len(loops)
    orient = [_loop_orientation(lp) for lp in loops]
    inside = [[i != j and ind(loops[i], loops[j].planar[0]) != 0 for j in range(n)]
              for i in range(n)]
    depth = [sum(1 for i in range(n) if inside[i][j]) for j in range(n)]
    parent = [max((i for i in range(n) if inside[i][j]), key=lambda i: depth[i], default=None)
              for j in range(n)]
    children = [[] for _ in range(n)]
    roots = []
    for j in range(n):
        if parent[j] is None:
            roots.append(j)
        else:
            children[parent[j]].append(j)
    outer = n
    faces = [(j, 1 - len(children[j])) for j in range(n)] + [(outer, 2 - len(roots))]
    boundary = [[j] + children[j] for j in range(n)] + [roots]

    def chain(j):
        out = set()
        while j is not None:
            out.add(j)
            j = parent[j]
        return out

    ind_table = [tuple(orient[j] if j in chain(f) else 0 for j in range(n)) for f in range(n)]
    ind_table.append(tuple(0 for _ in range(n)))
    loop_sides = []
    for j in range(n):
        beyond = parent[j] if parent[j] is not None else outer
        loop_sides.append((j, beyond) if orient[j] > 0 else (beyond, j))
    winds = [winding_s1(lp) for lp in loops]
    gleams = tuple(sum(winds[j] * (1 if f == loop_sides[j][0] else -1) for j in boundary[f])
                   for f, _chi in faces)
    return (tuple(faces), tuple(ind_table), tuple(loop_sides), outer, tuple(parent), gleams)


def forest_winding(fc, f, j) -> int:
    """ind_j on face f as the face complex implies it: loop j's
    orientation (+1 iff face j is its left face) when f is face j or a
    face inside loop j along fc.parent, else 0 (the outer face f = n
    lies inside no loop)."""
    g = f if f < len(fc.parent) else None
    while g is not None:
        if g == j:
            return 1 if fc.loop_sides[j][0] == j else -1
        g = fc.parent[g]
    return 0


def segments(loop):
    """(i, start, end) for each planar segment of a loop."""
    pl = loop.planar
    return ((i, pl[i], pl[i + 1]) for i in range(loop.nseg))


def sample_point_oracle(link, fc, face_id) -> tuple[float, float]:
    """A point inside face `face_id`: beyond the bounding box for the outer
    face, else a segment midpoint of the face's loop nudged inward by 0.3
    of the local clearance, the first such point that
    face_of_point_oracle places in the face."""
    from shadowsum.errors import DegenerateGeometry, PointOnCurve
    from shadowsum.geometry import _loop_orientation, _seg_point_dist, _unit

    if face_id == len(link.loops):
        xs = [x for lp in link.loops for x, _ in lp.planar] or [0.0]
        ys = [y for lp in link.loops for _, y in lp.planar] or [0.0]
        return (max(xs) + 1.0, max(ys) + 1.0)
    lp = link.loops[face_id]
    o = _loop_orientation(lp)
    for i, a, b in segments(lp):
        mx, my = (a[0] + b[0]) / 2.0, (a[1] + b[1]) / 2.0
        dx, dy = b[0] - a[0], b[1] - a[1]
        nx, ny = _unit((-dy, dx))  # left normal
        clearance = min(
            (_seg_point_dist((mx, my), c, d)
             for j, loop in enumerate(link.loops)
             for s, c, d in segments(loop)
             if not (j == face_id and s == i)),
            default=math.hypot(dx, dy),
        )
        delta = 0.3 * min(clearance, math.hypot(dx, dy))
        cand = (mx + o * delta * nx, my + o * delta * ny)
        try:
            if face_of_point_oracle(link, fc, cand) == face_id:
                return cand
        except PointOnCurve:
            continue
    raise DegenerateGeometry(f"could not find an interior point of face {face_id}")


def ind_oracle(loop, p) -> int:
    """`geometry.ind` without its box filter: every segment's distance to
    p is tested, and crossings counted, in one pass."""
    from shadowsum.errors import PointOnCurve
    from shadowsum.geometry import COINCIDENCE_TOL, _orient, _seg_point_dist

    p = px, py = float(p[0]), float(p[1])
    w = 0
    for a, b in zip(loop.planar, loop.planar[1:]):
        if _seg_point_dist(p, a, b) <= COINCIDENCE_TOL:
            raise PointOnCurve(f"point {p} lies on the projected curve")
        if a[1] <= py < b[1] and _orient(a, b, p) > 0:
            w += 1
        elif b[1] <= py < a[1] and _orient(a, b, p) < 0:
            w -= 1
    return w


def winding_oracle(loop, p) -> int:
    """Angle-sum winding number, independent of the ray-crossing route."""
    total = 0.0
    px, py = p
    pl = loop.planar
    for i in range(loop.nseg):
        ax, ay = pl[i][0] - px, pl[i][1] - py
        bx, by = pl[i + 1][0] - px, pl[i + 1][1] - py
        total += math.atan2(ax * by - ay * bx, ax * bx + ay * by)
    return round(total / (2.0 * math.pi))


def vertex_on_segment_oracle(loops) -> bool:
    """Brute-force genericity oracle: whether some vertex lies within 1e-9
    of a segment not incident to it, measuring every vertex against every
    segment of every loop with no pruning."""
    def dist(p, a, b):
        dx, dy = b[0] - a[0], b[1] - a[1]
        t = ((p[0] - a[0]) * dx + (p[1] - a[1]) * dy) / (dx * dx + dy * dy)
        t = min(1.0, max(0.0, t))
        return math.hypot(p[0] - (a[0] + t * dx), p[1] - (a[1] + t * dy))

    for li, la in enumerate(loops):
        n = la.nseg
        for vi, v in enumerate(la.planar[:-1]):
            for lj, lb in enumerate(loops):
                pb = lb.planar
                for j in range(lb.nseg):
                    if li == lj and (j == vi or (j + 1) % n == vi):
                        continue
                    if dist(v, pb[j], pb[j + 1]) <= 1e-9:
                        return True
    return False


def crossing_count_oracle(la, lb) -> int:
    """Float-based proper-crossing count over all segment pairs."""
    def orient(a, b, c):
        v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        return (v > 0) - (v < 0)

    count = 0
    pa, pb = la.planar, lb.planar
    for i in range(la.nseg):
        for j in range(lb.nseg):
            a1, a2, b1, b2 = pa[i], pa[i + 1], pb[j], pb[j + 1]
            if (orient(a1, a2, b1) * orient(a1, a2, b2) < 0
                    and orient(b1, b2, a1) * orient(b1, b2, a2) < 0):
                count += 1
    return count


def diagram_linking_oracle(link_loops, t0=0.0) -> float:
    """Signed-crossing linking count for a two-loop diagram whose circle
    coordinates avoid t0: half the sum over crossings of the cross product
    sign taken with the lower strand's tangent first."""
    import shadowsum as ss

    l, lt = link_loops
    total = 0
    for c in ss.crossings_between(l, lt):
        cs = ((c.thetas[0] - t0) / (2 * math.pi)) % 1.0
        cu = ((c.thetas[1] - t0) / (2 * math.pi)) % 1.0
        total += c.cross_sign if cs < cu else -c.cross_sign
    return total / 2.0


def mark_oracle(loop, t0) -> list:
    """Crossing signs of the circle-coordinate lift through t0 by dense
    sampling between consecutive vertices."""
    lifts = loop.lifts
    n = loop.nseg
    lo = min(lifts) - 1.0
    hi = max(lifts) + 1.0
    tau = 2 * math.pi
    levels = [t0 + tau * m for m in range(math.ceil((lo - t0) / tau),
                                          math.floor((hi - t0) / tau) + 1)]
    events = []
    samples = [(i + f / 8.0) / n for i in range(n) for f in range(8)] + [1.0]

    def lift_at(u):
        i = min(int(u * n), n - 1)
        f = u * n - i
        return lifts[i] + f * (lifts[i + 1] - lifts[i])

    for lv in levels:
        prev = lift_at(samples[0]) - lv
        for u in samples[1:]:
            cur = lift_at(u) - lv
            if prev < 0 <= cur:
                events.append((u, 1))
            elif prev >= 0 > cur:
                events.append((u, -1))
            prev = cur
    events.sort()
    return [e for _, e in events]


def point_at(loop, u: float) -> tuple[float, float]:
    """The planar point of a loop at parameter u, each segment taking an
    equal share of [0, 1), as `Loop.theta_at` places the lift."""
    i, frac = loop._locate(u)
    (ax, ay), (bx, by) = loop.planar[i], loop.planar[i + 1]
    return (ax + frac * (bx - ax), ay + frac * (by - ay))


def t0_cut_oracle(loop, t0, j=0):
    """The t0 cut of one loop's lift as two separate scans judge it:
    (defects, marks).  `defects` lists (j, "constant-at-t0" | "tangential",
    param) as a per-vertex and per-segment test reports them; `marks` are
    the crossing marks found after moving the base point to the first
    vertex off every level, or the TangentialCrossing that scan raises."""
    from shadowsum.errors import TangentialCrossing
    from shadowsum.geometry import ANGLE_TOL, TAU, CrossingMark, Loop, _unit

    def levels_of(lifts):
        lo, hi = min(lifts) - 1.0, max(lifts) + 1.0
        return [t0 + TAU * m for m in range(math.ceil((lo - t0) / TAU),
                                            math.floor((hi - t0) / TAU) + 1)]

    def on_level(x, levels):
        return any(abs(x - lv) <= ANGLE_TOL for lv in levels)

    n = loop.nseg
    lifts = loop.lifts
    levels = levels_of(lifts)
    defects = []
    for i in range(n):
        if abs(lifts[i + 1] - lifts[i]) <= ANGLE_TOL and on_level(lifts[i], levels):
            defects.append((j, "constant-at-t0", i / n))
    deltas = [lifts[i + 1] - lifts[i] for i in range(n)]
    for i in range(n):
        if not on_level(lifts[i], levels):
            continue
        prev = next((deltas[(i - 1 - s) % n] for s in range(n)
                     if abs(deltas[(i - 1 - s) % n]) > ANGLE_TOL), None)
        nxt = next((deltas[(i + s) % n] for s in range(n)
                    if abs(deltas[(i + s) % n]) > ANGLE_TOL), None)
        if prev is not None and nxt is not None and (prev > 0) != (nxt > 0):
            defects.append((j, "tangential", i / n))

    def marks():
        rot = next((r for r in range(n) if not on_level(lifts[r], levels)), None)
        if rot is None:
            raise TangentialCrossing("every vertex of the lift sits at t0")
        pl0 = loop.planar[:-1]
        rlifts = [lifts[rot]]
        for i in range(n):
            rlifts.append(rlifts[-1] + deltas[(rot + i) % n])
        pts = [pl0[(rot + i) % n] for i in range(n)] + [pl0[rot]]
        rl = Loop(tuple((p[0], p[1], t) for p, t in zip(pts, rlifts)))
        rlevels = levels_of(rlifts)
        pl = rl.planar
        out = []
        for i in range(n):
            la, lb = rlifts[i], rlifts[i + 1]
            if abs(lb - la) <= ANGLE_TOL:
                if on_level(la, rlevels):
                    raise TangentialCrossing("constant circle coordinate at t0")
                continue
            for lv in rlevels:
                lo, hi = (la, lb) if la < lb else (lb, la)
                if lv < lo - ANGLE_TOL or lv > hi + ANGLE_TOL or abs(lv - la) <= ANGLE_TOL:
                    continue
                if abs(lv - lb) <= ANGLE_TOL:
                    rdeltas = [rlifts[m + 1] - rlifts[m] for m in range(n)]
                    nxt = next((rdeltas[(i + 1 + s) % n] for s in range(n)
                                if abs(rdeltas[(i + 1 + s) % n]) > ANGLE_TOL), None)
                    if nxt is None or (nxt > 0) != (lb - la > 0):
                        raise TangentialCrossing(
                            f"lift touches t0 without crossing at vertex {i + 1}")
                    u_rot = (i + 1) / n
                    d1 = _unit((pl[i + 1][0] - pl[i][0], pl[i + 1][1] - pl[i][1]))
                    i2 = (i + 1) % n
                    d2 = _unit((pl[i2 + 1][0] - pl[i2][0], pl[i2 + 1][1] - pl[i2][1]))
                    tangent = _unit((d1[0] + d2[0], d1[1] + d2[1]))
                else:
                    u_rot = (i + (lv - la) / (lb - la)) / n
                    tangent = _unit((pl[i + 1][0] - pl[i][0], pl[i + 1][1] - pl[i][1]))
                param = (u_rot + rot / n) % 1.0
                out.append(CrossingMark(j, param, point_at(rl, u_rot),
                                        1 if lb > la else -1, tangent))
        out.sort(key=lambda m: m.param)
        return out

    try:
        return defects, marks()
    except TangentialCrossing as exc:
        return defects, exc


def lift_scan_reference(loop, t0):
    """`geometry._lift_scan` as one pass over every segment and level, with
    no table and no memo: (marks, defects) in the same tuples, for checking
    the table-fed scan bit for bit."""
    from shadowsum.errors import DegenerateGeometry
    from shadowsum.geometry import ANGLE_TOL, TAU

    def unit(v):
        norm = math.hypot(v[0], v[1])
        if norm == 0.0:
            raise DegenerateGeometry("zero tangent vector")
        return (v[0] / norm, v[1] / norm)

    n = loop.nseg
    pl = loop.planar
    bottom, top = min(loop.lifts) - 1.0, max(loop.lifts) + 1.0
    levels = [t0 + TAU * m
              for m in range(math.ceil((bottom - t0) / TAU), math.floor((top - t0) / TAU) + 1)]
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
            tangent = unit((bx - ax, by - ay))
            if abs(lv - lb) > ANGLE_TOL:
                frac = (lv - la) / delta
                point = (ax + frac * (bx - ax), ay + frac * (by - ay))
                marks.append(((i + frac) / n, point, eps, tangent))
                continue
            v = (i + 1) % n
            nxt = next(d for d in deltas[v:] + deltas[:v] if abs(d) > ANGLE_TOL)
            if (nxt > 0) != (delta > 0):
                defects.append(("tangential", v / n))
                continue
            d2 = unit((pl[v + 1][0] - pl[v][0], pl[v + 1][1] - pl[v][1]))
            marks.append((v / n, pl[v], eps, unit((tangent[0] + d2[0], tangent[1] + d2[1]))))
    marks.sort(key=lambda m: m[0])
    return tuple(marks), tuple(defects)


def loop_fields_oracle(vertices):
    """`Loop`'s projections, segment boxes, segment lengths and scale from
    whole columns: (planar, lifts, boxes, lengths, scale), with min, max,
    abs and hypot as builtins."""
    xs, ys, ts = zip(*vertices) if vertices else ((), (), ())
    xb, yb = xs[1:], ys[1:]
    boxes = tuple(zip(map(min, xs, xb), map(max, xs, xb), map(min, ys, yb), map(max, ys, yb)))
    lengths = tuple(map(math.hypot, map(float.__sub__, xb, xs), map(float.__sub__, yb, ys)))
    return tuple(zip(xs, ys)), ts, boxes, lengths, max(map(abs, xs + ys), default=0.0)


def segment_sweep_oracle(loops, selves=()):
    """`geometry._segment_sweep` as an all-pairs box filter: every pair of
    segments of two loops a < b, and of one loop a with itself when it is
    the only loop or a is in `selves` (i < j, adjacent segments left out),
    whose boxes lie within COINCIDENCE_TOL in x and in y, with the sweep's
    float expressions (min - tol against the other's max)."""
    from shadowsum.geometry import COINCIDENCE_TOL as tol

    def meet(p, q):
        return (p[0] - tol <= q[1] and q[0] - tol <= p[1]
                and p[2] - tol <= q[3] and q[2] - tol <= p[3])

    pairs = {}
    for a, la in enumerate(loops):
        for b in range(a, len(loops)):
            if b == a and not (len(loops) == 1 or a in selves):
                continue
            n = la.nseg
            found = [(i, j) for i, p in enumerate(la.boxes)
                     for j, q in enumerate(loops[b].boxes)
                     if (b > a or (j > i and j - i not in (1, n - 1))) and meet(p, q)]
            if found:
                pairs[(a, b)] = found
    return pairs


def proper_crossings_oracle(la, lb, same, tally=None):
    """All-pairs crossing scan: every segment pair passes the bounding-box
    filter and, if it passes, the body of `geometry._pair_crossings`, in
    lexicographic order, with no sweep.  A `tally` counter, if given,
    counts the pairs with b strictly on one side of a's line ("one side")
    and the pairs that reach the graze test ("graze")."""
    from fractions import Fraction

    from shadowsum.errors import DegenerateGeometry
    from shadowsum.geometry import COINCIDENCE_TOL, _orient, _seg_point_dist

    def boxes_meet(a1, a2, b1, b2, margin=COINCIDENCE_TOL):
        return (min(a1[0], a2[0]) - margin <= max(b1[0], b2[0])
                and min(b1[0], b2[0]) - margin <= max(a1[0], a2[0])
                and min(a1[1], a2[1]) - margin <= max(b1[1], b2[1])
                and min(b1[1], b2[1]) - margin <= max(a1[1], a2[1]))

    na = la.nseg
    pa = la.planar
    pb = lb.planar
    out = []
    for i in range(na):
        a1, a2 = pa[i], pa[i + 1]
        for j in range(i + 1 if same else 0, lb.nseg):
            b1, b2 = pb[j], pb[j + 1]
            if not boxes_meet(a1, a2, b1, b2):
                continue
            after = same and j == i + 1
            before = same and i == 0 and j == na - 1
            if (
                (not before and _seg_point_dist(a1, b1, b2) <= COINCIDENCE_TOL)
                or (not after and _seg_point_dist(a2, b1, b2) <= COINCIDENCE_TOL)
                or (not after and _seg_point_dist(b1, a1, a2) <= COINCIDENCE_TOL)
                or (not before and _seg_point_dist(b2, a1, a2) <= COINCIDENCE_TOL)
            ):
                raise DegenerateGeometry(f"a vertex lies on a segment (segments {i}, {j})")
            if after or before:
                continue
            o1 = _orient(a1, a2, b1)
            o2 = _orient(a1, a2, b2)
            o3 = _orient(b1, b2, a1)
            o4 = _orient(b1, b2, a2)
            if tally is not None:
                tally["one side"] += o1 == o2 != 0
                tally["graze"] += not (o1 * o2 < 0 and o3 * o4 < 0) and 0 in (o1, o2, o3, o4)
            if o1 * o2 < 0 and o3 * o4 < 0:
                r = (Fraction(a2[0]) - Fraction(a1[0]), Fraction(a2[1]) - Fraction(a1[1]))
                s = (Fraction(b2[0]) - Fraction(b1[0]), Fraction(b2[1]) - Fraction(b1[1]))
                q = (Fraction(b1[0]) - Fraction(a1[0]), Fraction(b1[1]) - Fraction(a1[1]))
                den = r[0] * s[1] - r[1] * s[0]
                ta = (q[0] * s[1] - q[1] * s[0]) / den
                tb = (q[0] * r[1] - q[1] * r[0]) / den
                pt = (float(Fraction(a1[0]) + ta * r[0]),
                      float(Fraction(a1[1]) + ta * r[1]))
                out.append((i, j, ta, tb, pt, 1 if den > 0 else -1))
            elif (o1, o2, o3, o4).count(0) > 0:
                if (
                    (o1 == 0 and boxes_meet(a1, a2, b1, b1, 0.0))
                    or (o2 == 0 and boxes_meet(a1, a2, b2, b2, 0.0))
                    or (o3 == 0 and boxes_meet(b1, b2, a1, a1, 0.0))
                    or (o4 == 0 and boxes_meet(b1, b2, a2, a2, 0.0))
                ):
                    raise DegenerateGeometry(
                        f"segments graze or overlap (segments {i}, {j})")
    return out


def fraction_form(crossings) -> list:
    """Crossings (i, j, tan, tbn, den, point, sign) of
    `geometry._pair_crossings`, whose parameters are the int ratios
    tan / den and tbn / den, in the form of `proper_crossings_oracle`:
    (i, j, ta, tb, point, sign) with ta and tb Fractions."""
    from fractions import Fraction

    return [(i, j, Fraction(tan, den), Fraction(tbn, den), pt, sign)
            for i, j, tan, tbn, den, pt, sign in crossings]


def validate_oracle(link):
    """`geometry.validate` with one all-pairs scan per loop pair: loop i
    with itself and with each later loop j, in that order."""
    from shadowsum.geometry import (
        COINCIDENCE_TOL,
        AdmissibilityReport,
        DoublePoint,
        _angle_eq,
        _t0_events,
    )

    regular = [(i, lp) for i, lp in enumerate(link.loops) if not lp.vertical]
    events = []
    for ai, (i, la) in enumerate(regular):
        for j, lb in regular[ai:]:
            for si, sj, ta, tb, pt, sign in proper_crossings_oracle(la, lb, same=i == j):
                ua = float((si + ta) / la.nseg)
                ub = float((sj + tb) / lb.nseg)
                events.append(DoublePoint(pt, ((i, ua), (j, ub)),
                                          (la.theta_at(ua), lb.theta_at(ub)), sign))
    clusters = []
    for ev in events:
        near = [cl for cl in clusters if math.dist(ev.point, cl[0].point) <= COINCIDENCE_TOL]
        if near:
            near[0].append(ev)
        else:
            clusters.append([ev])
    double_points = [cl[0] for cl in clusters if len(cl) == 1]
    triple_points = sorted(cl[0].point for cl in clusters if len(cl) > 1)
    collisions = sorted(d.point for d in double_points if _angle_eq(*d.thetas))
    hits, degeneracies = _t0_events(link, double_points, link.t0)
    vertical = tuple(i for i, lp in enumerate(link.loops) if lp.vertical)
    return AdmissibilityReport(
        ok=not (triple_points or degeneracies or hits or collisions or vertical),
        double_points=tuple(sorted(double_points, key=lambda d: d.strands)),
        triple_points=tuple(triple_points),
        t0_degeneracies=tuple(sorted(degeneracies)),
        t0_double_point_hits=tuple(sorted(hits)),
        strand_collisions=tuple(collisions),
        vertical_loops=vertical,
    )


def small_offset_self_link_oracle(loop, t0):
    """The loop's linking number with its push-offs at 1e-5 and 1e-6 of
    the admissible offset bound, clearance / 3, where no crossing can move
    past the other strand's circle coordinate unless the two differ by
    less than the lift changes over the offset.  None unless both values
    agree and neither raises."""
    from shadowsum.errors import ShadowsumError
    from shadowsum.geometry import loop_min_clearance
    from shadowsum.linking import link_number, pushoff

    try:
        values = {link_number(loop, *pushoff(loop, f * loop_min_clearance(loop) / 3), t0)
                  for f in (1e-5, 1e-6)}
    except ShadowsumError:
        return None
    return values.pop() if len(values) == 1 else None


def min_clearance_oracle(loop) -> float:
    """All-pairs minimum distance between non-adjacent, non-crossing
    segments of one loop, with no pruning; if there is no such pair, the
    all-pairs minimum distance from a vertex to a segment that does not
    end at it."""
    from shadowsum.errors import DegenerateGeometry
    from shadowsum.geometry import _seg_point_dist

    crossing = {(i, j) for (i, j, *_rest) in proper_crossings_oracle(loop, loop, same=True)}
    n = loop.nseg
    pl = loop.planar
    best = math.inf
    for i in range(n):
        for j in range(i + 2, n):
            if i == 0 and j == n - 1:
                continue
            if (i, j) in crossing:
                continue
            a1, a2, b1, b2 = pl[i], pl[i + 1], pl[j], pl[j + 1]
            best = min(best, _seg_point_dist(a1, b1, b2), _seg_point_dist(a2, b1, b2),
                       _seg_point_dist(b1, a1, a2), _seg_point_dist(b2, a1, a2))
    if best == math.inf:
        for v in range(n):
            for j in range(n):
                if v not in (j, (j + 1) % n):
                    best = min(best, _seg_point_dist(pl[v], pl[j], pl[j + 1]))
    if not math.isfinite(best):
        raise DegenerateGeometry("loop has no non-adjacent segment pairs")
    return best


def loop_orientation_oracle(loop) -> int:
    """Orientation of the projected polygon from the exact Fraction
    shoelace sum alone: +1 counterclockwise, -1 clockwise, and
    DegenerateGeometry for zero signed area."""
    from fractions import Fraction

    from shadowsum.errors import DegenerateGeometry

    area = Fraction(0)
    pl = loop.planar
    for i in range(loop.nseg):
        (ax, ay), (bx, by) = pl[i], pl[i + 1]
        area += Fraction(ax) * Fraction(by) - Fraction(bx) * Fraction(ay)
    if area == 0:
        raise DegenerateGeometry("projected polygon has zero signed area")
    return 1 if area > 0 else -1


def enumerate_pairs_oracle(link, level) -> list:
    """Admissible pairs by filtering all 2^n (k+1) candidates, l-major and
    then in itertools.product order, each face field summed anew from the
    winding table of `face_complex_oracle`."""
    import itertools

    from shadowsum.errors import UnsupportedColor
    from shadowsum.shadow import AdmissiblePair

    for j, lp in enumerate(link.loops):
        if lp.color2 != 1:
            raise UnsupportedColor(
                f"pair enumeration requires the fundamental color 1/2 on loop {j}")
    ind_table = face_complex_oracle(link)[1]
    n = len(link.loops)
    kp1 = level.k + 1
    out = []
    for l in range(1, kp1 + 1):
        for signs in itertools.product((-1, 1), repeat=n):
            xi = tuple(
                l - sum(s * w for s, w in zip(signs, row))
                for row in ind_table
            )
            if all(1 <= x <= kp1 for x in xi):
                out.append(AdmissiblePair(l=l, signs=signs, xi=xi))
    return out


def pair_count_oracle(fc, k) -> int:
    """The number of admissible pairs at level k, counted on the nesting
    forest alone in O(n (k+1)) ints: count_j(x), the admissible signs of
    loop j's subtree with x on the face beyond loop j, sums over s = +-1
    with y = x - s o_j in 1..k+1 the product of count_c(y) over loop j's
    children c; the total sums over l = 1..k+1 the product of count_r(l)
    over the root loops r."""
    n = len(fc.parent)
    children = [[] for _ in range(n)]
    roots = []
    for j, p in enumerate(fc.parent):
        (roots if p is None else children[p]).append(j)

    @functools.cache
    def count(j, x) -> int:
        o = 1 if fc.loop_sides[j][0] == j else -1
        return sum(math.prod(count(c, x - s * o) for c in children[j])
                   for s in (1, -1) if 1 <= x - s * o <= k + 1)

    return sum(math.prod(count(r, l) for r in roots) for l in range(1, k + 2))


def pairsum_oracle(link, level, fc, pairs) -> complex:
    """Pair sum with every sine and phase evaluated per pair: the same
    factors, in the same order, as `wlo_dpfree_pairsum`."""
    import cmath

    from shadowsum.geometry import winding_s1

    r = level.rbar
    winds = [winding_s1(lp) for lp in link.loops]
    parity = -1.0 if sum(1 for w in winds if w % 2 == 0) % 2 else 1.0
    total = 0j
    for pair in pairs:
        amp = 1.0
        for f, chi in enumerate(fc.chi):
            amp *= math.sin(math.pi * pair.xi[f] / r) ** chi
        s = 0
        for j, w in enumerate(winds):
            left, right = fc.loop_sides[j]
            s += w * (pair.xi[left] ** 2 - pair.xi[right] ** 2)
        total += parity * amp * cmath.exp(complex(0.0, -math.pi * s / (2.0 * r)))
    return total


def colors(level) -> tuple:
    """The color set {0, 1/2, ..., k/2} of `level` as Fractions."""
    from fractions import Fraction

    return tuple(Fraction(t, 2) for t in range(level.k + 1))


def doubled_oracle(j) -> int:
    """2j through Fraction arithmetic for every finite real number;
    anything else is no color."""
    import numbers
    from fractions import Fraction

    from shadowsum.errors import ColorOutOfRange

    if not (isinstance(j, numbers.Real) and math.isfinite(j)):
        raise ColorOutOfRange(f"color {j!r} is not a half-integer")
    t = Fraction(j) * 2
    if t.denominator != 1:
        raise ColorOutOfRange(f"color {j!r} is not a half-integer")
    return int(t)


def _check_color_oracle(level, j) -> int:
    from shadowsum.errors import ColorOutOfRange

    t = doubled_oracle(j)
    if not 0 <= t <= level.k:
        raise ColorOutOfRange(f"color {j!r} outside color set of level {level.k}")
    return t


def v_dim_oracle(level, j) -> float:
    """(-1)^{2j} [2j+1] with 2j from `doubled_oracle`."""
    from shadowsum.quantum import quantum_int

    t = _check_color_oracle(level, j)
    return (-1.0 if t % 2 else 1.0) * quantum_int(level, t + 1)


def u_exponent_oracle(level, j) -> complex:
    """pi*i*(j - j(j+1)/rbar) with the exponent an exact Fraction,
    rounded to a float once."""
    from fractions import Fraction

    t = _check_color_oracle(level, j)
    val = Fraction(t, 2) - Fraction(t * (t + 2), 4 * level.rbar)
    return complex(0.0, math.pi * float(val))


@functools.lru_cache(maxsize=None)
def _qfactorials_oracle(k) -> tuple:
    """[0]!, ..., [k+1]! at level k, each the product [m-1]! * [m]."""
    r = k + 2
    qf = [1.0]
    for m in range(1, k + 2):
        qf.append(qf[-1] * (math.sin(m * math.pi / r) / math.sin(math.pi / r)))
    return tuple(qf)


def sixj_doubled_oracle(level, t1, t2, t3, t4, t5, t6) -> float:
    """The 6j kernel as written before it was table-fed, with its own [n]!
    table and triad check: the same Racah sum, with each factorial read
    through a per-call closure."""

    def couples(ta, tb, tc):
        return ((ta + tb + tc) % 2 == 0 and ta + tb + tc <= 2 * level.k
                and abs(ta - tb) <= tc <= ta + tb)

    triads = (
        (t1, t2, t3),
        (t1, t5, t6),
        (t4, t2, t6),
        (t4, t5, t3),
    )
    if not all(couples(*triad) for triad in triads):
        return 0.0

    qf = _qfactorials_oracle(level.k)

    def fact(t: int) -> float:
        # t is a doubled even quantity here; argument of [.]! is t//2
        return qf[t // 2]

    delta = 1.0
    for ta, tb, tc in triads:
        delta *= math.sqrt(
            fact(-ta + tb + tc) * fact(ta - tb + tc) * fact(ta + tb - tc)
            / fact(ta + tb + tc + 2)
        )

    tT = [ta + tb + tc for ta, tb, tc in triads]
    tQ = (t1 + t2 + t4 + t5, t2 + t3 + t5 + t6, t3 + t1 + t6 + t4)
    z_lo = max(tT) // 2
    z_hi = min(min(tQ) // 2, level.rbar - 2)
    total = 0.0
    for z in range(z_lo, z_hi + 1):
        term = qf[z + 1]
        for tt in tT:
            term /= qf[z - tt // 2]
        for tq in tQ:
            term /= qf[tq // 2 - z]
        total += -term if z % 2 else term
    return delta * total


def face_weight_oracle(level, face, t) -> complex:
    """v^chi * exp(2 x u) of a face at doubled color t, with the modified
    gleam x = gleam - z/2 an exact Fraction and the weights from the
    oracles above."""
    import cmath
    from fractions import Fraction

    from shadowsum.errors import MissingGleams

    if face.gleam2 is None:
        raise MissingGleams("state sum requires a gleam on every face")
    spin = Fraction(t, 2)
    x = Fraction(face.gleam2, 2) - Fraction(face.z, 2)
    amp = v_dim_oracle(level, spin) ** face.chi
    return amp * cmath.exp(2.0 * float(x) * u_exponent_oracle(level, spin))


def _column_perms(cols):
    (a, d), (b, e), (c, f) = cols
    yield (a, b, c, d, e, f)
    yield (a, c, b, d, f, e)
    yield (b, a, c, e, d, f)
    yield (b, c, a, e, f, d)
    yield (c, a, b, f, d, e)
    yield (c, b, a, f, e, d)


def SIXJ_SYMMETRIES(i, j, k, l, m, n):
    """The 24 classical tetrahedral symmetries of a 6j tuple: column
    permutations composed with upper/lower swaps in two columns at once."""
    cols = ((i, l), (j, m), (k, n))
    flips = ((False, False, False), (True, True, False), (True, False, True), (False, True, True))
    out = []
    for fa, fb, fc in flips:
        c0 = (cols[0][::-1] if fa else cols[0],
              cols[1][::-1] if fb else cols[1],
              cols[2][::-1] if fc else cols[2])
        out.extend(_column_perms(c0))
    return out
