import dataclasses
import itertools
import math
import random
import re
import struct
import sys
import threading
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import shadowsum as ss
from shadowsum.errors import (
    DegenerateGeometry,
    HasDoublePoints,
    InvariantViolation,
    PointOnCurve,
    PreconditionError,
)
from shadowsum.random_links import polygon_circle, random_crossing_pair, random_dpfree_link

from conftest import (
    crossing_count_oracle,
    face_complex_oracle,
    face_of_point_oracle,
    ind_oracle,
    loop_fields_oracle,
    loop_orientation_oracle,
    mark_oracle,
    min_clearance_oracle,
    proper_crossings_oracle,
    sample_point_oracle,
    segment_sweep_oracle,
    t0_cut_oracle,
    tangential_t0_link,
    validate_oracle,
    vertex_on_segment_oracle,
    winding_oracle,
)

TAU = 2 * math.pi
HALF = Fraction(1, 2)


def polygon(pts, theta0=0.5):
    return ss.make_loop([(x, y, theta0) for x, y in pts] + [(pts[0][0], pts[0][1], theta0)])


def square(side=2.0, center=(0.0, 0.0), theta0=0.5):
    cx, cy = center
    h = side / 2
    pts = [(cx - h, cy - h), (cx + h, cy - h), (cx + h, cy + h), (cx - h, cy + h)]
    return polygon(pts, theta0)


def raises_degenerate(link) -> bool:
    try:
        ss.validate(link)
    except DegenerateGeometry:
        return True
    return False


def moved_vertex_link(rng, gap):
    """1-3 random polygons (triangles included) with one vertex moved to
    `gap` off a segment of its own loop or of another loop; None if the
    move makes a zero-length segment."""
    loops = [polygon_circle(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(0.5, 1.5),
                            rng.choice((3, 3, 4, 5, 8)), theta0=rng.uniform(0.1, 6.0),
                            phase=rng.uniform(0, TAU))
             for _ in range(rng.randint(1, 3))]
    li, lj = rng.randrange(len(loops)), rng.randrange(len(loops))
    la, lb = loops[li], loops[lj]
    vi = rng.randrange(la.nseg)
    j = rng.choice([s for s in range(lb.nseg)
                    if li != lj or (s != vi and (s + 1) % lb.nseg != vi)])
    (ax, ay), (bx, by) = lb.planar[j], lb.planar[j + 1]
    s = rng.uniform(0.1, 0.9)
    nx, ny = -(by - ay), bx - ax
    scale = rng.choice((-1, 1)) * gap / math.hypot(nx, ny)
    moved = (ax + s * (bx - ax) + scale * nx, ay + s * (by - ay) + scale * ny)
    verts = list(la.vertices[:-1])
    verts[vi] = (*moved, verts[vi][2])
    verts.append((*verts[0][:2], la.vertices[-1][2]))
    try:
        loops[li] = ss.make_loop(verts)
    except DegenerateGeometry:
        return None
    return ss.Link(tuple(loops), t0=0.0, level=1)


def scan_polygon(rng, most=40):
    """3-`most` vertices star-shaped about a random centre, or 3-12
    scattered ones (and then self-crossing); 40% are rounded to 0.1, which
    gives vertical segments and segments whose x-extents share an end."""
    if rng.random() < 0.8:
        n = rng.randint(3, most)
        cx, cy = rng.uniform(-1, 1), rng.uniform(-1, 1)
        angles = sorted(rng.uniform(0, TAU) for _ in range(n))
        radii = [rng.uniform(0.3, 2.0) for _ in range(n)]
        pts = [(cx + r * math.cos(a), cy + r * math.sin(a)) for a, r in zip(angles, radii)]
    else:
        pts = [(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(rng.randint(3, 12))]
    if rng.random() < 0.4:
        pts = [(round(x, 1), round(y, 1)) for x, y in pts]
    return pts


def nudge(rng, pts, host):
    """Move one vertex of `pts` onto, or to 1e-12, 5e-10 or 2e-9 off, a
    segment of the closed polygon `host` (which may be `pts` itself).
    Vertical segments are preferred: off one of them, the moved vertex
    meets it only through the margin of the bounding-box test."""
    gap = rng.choice((0.0, 1e-12, 5e-10, 2e-9))
    m = len(host)
    vertical = [j for j in range(m) if host[j][0] == host[(j + 1) % m][0]]
    j = rng.choice(vertical) if vertical and rng.random() < 0.5 else rng.randrange(m)
    (ax, ay), (bx, by) = host[j], host[(j + 1) % m]
    nx, ny = -(by - ay), bx - ax
    norm = math.hypot(nx, ny)
    if norm == 0.0:
        return pts
    s = rng.choice((0.5, rng.uniform(0.05, 0.95)))
    off = rng.choice((-1, 1)) * gap / norm
    out = list(pts)
    out[rng.randrange(len(out))] = (ax + s * (bx - ax) + off * nx, ay + s * (by - ay) + off * ny)
    return out


class TestSweptScans:
    """The swept scans against their all-pairs oracles, exceptions included."""

    @staticmethod
    def outcome(fn, *args):
        try:
            return fn(*args)
        except DegenerateGeometry as exc:
            return (type(exc), str(exc))

    def test_match_all_pairs_oracles(self):
        rng = random.Random(6)
        seen = {"raised": 0, "crossings": 0, "clearance": 0}
        cases = 0
        while cases < 100:
            pa, pb = scan_polygon(rng), scan_polygon(rng)
            if rng.random() < 0.7:
                pa = nudge(rng, pa, pb if rng.random() < 0.5 else pa)
            if rng.random() < 0.3:
                pb = nudge(rng, pb, pa if rng.random() < 0.5 else pb)
            try:
                la, lb = polygon(pa), polygon(pb, 2.0)
            except DegenerateGeometry:
                continue  # a nudge made a zero-length segment
            cases += 1
            for args in ((la, la, True), (lb, lb, True), (la, lb, False), (lb, la, False)):
                got = self.outcome(ss.geometry._proper_crossings, *args)
                assert got == self.outcome(proper_crossings_oracle, *args)
                seen["raised" if isinstance(got, tuple) else "crossings"] += bool(got)
            for lp in (la, lb):
                got = self.outcome(ss.geometry.loop_min_clearance, lp)
                assert got == self.outcome(min_clearance_oracle, lp)
                seen["clearance"] += isinstance(got, float)
        assert min(seen.values()) >= 40, seen

    def test_collinear_overlap_past_the_endpoint_tests(self):
        # exactly collinear, overlapping segments far longer than their
        # distance from the origin: the float distances of a2 to b and b1
        # to a come out 6e-8 and 1.7e-8, so only the graze test sees them
        a1, a2 = (558.0, -80.0), (386302656.0, 530731888.0)
        b1, b2 = (64384241.0, 88455248.0), (836988437.0, 1149919184.0)
        la, lb = polygon([a1, a2, (-5e8, 4e8)]), polygon([b1, b2, (9e8, 1e8)])
        got = self.outcome(ss.geometry._proper_crossings, la, lb, False)
        assert got == self.outcome(proper_crossings_oracle, la, lb, False)
        assert got == (DegenerateGeometry, "segments graze or overlap (segments 0, 0)")

    def test_sweep_matches_box_filter_oracle(self):
        # the forward scan finds the pairs an all-pairs box filter finds,
        # for any choice of loops paired with themselves
        rng = random.Random(22)
        seen = Counter()
        cases = 0
        while cases < 300:
            pts = [scan_polygon(rng, 20) for _ in range(rng.randint(1, 5))]
            for _ in range(rng.randint(0, 2)):
                k = rng.randrange(len(pts))
                pts[k] = nudge(rng, pts[k], rng.choice(pts))
            try:
                loops = [polygon(p) for p in pts]
            except DegenerateGeometry:
                continue  # a nudge made a zero-length segment
            if rng.random() < 0.2:  # a two-segment loop, out and back
                loops.insert(rng.randrange(len(loops) + 1), polygon([(0.1, 0.2), (0.7, -0.3)]))
            cases += 1
            selves = tuple(a for a in range(len(loops)) if rng.random() < 0.5)
            got = ss.geometry._segment_sweep(loops, selves)
            assert got == segment_sweep_oracle(loops, selves)
            seen["own pairs"] += any(a == b for a, b in got)
            seen["pairs of two loops"] += any(a != b for a, b in got)
        assert min(seen.values()) >= 40, seen

    @pytest.mark.parametrize("scale", [1.0, 1e6, 1e12])
    def test_line_side_filter_boundary(self, scale, monkeypatch):
        # a slanted segment b beside a at distance d, in two triangles and
        # in one loop: at d = tol (1 +- 1e-7) the endpoint tests decide, at
        # m (1 +- 1e-7), m = tol + 1e-12 S, the line-side filter's bound is
        # met; nudged variants move a vertex onto or near a segment
        tol = ss.geometry.COINCIDENCE_TOL
        size = 4.0 + 100 * (tol + 1e-12 * scale)  # well above m
        m = tol + 1e-12 * (scale + size)
        rng = random.Random(int(scale))
        nx, ny = -math.sqrt(0.5), math.sqrt(0.5)  # left of a
        seen = Counter()

        def place(pts, d):
            return [(scale + size * x + d * nx, scale + size * y + d * ny) for x, y in pts]

        def beside(side, d):  # b and the rest of its triangle on one side of a
            pts = [(0.2, 0.2), (0.8, 0.8), (0.1, 0.9)] if side > 0 else [
                (0.8, 0.8), (0.2, 0.2), (0.9, 0.1)]
            return place(pts, side * d)

        for d in (tol * (1 - 1e-7), tol * (1 + 1e-7), m * (1 - 1e-7), m * (1 + 1e-7), 2 * m):
            for side in (1, -1):
                pa = place([(0.0, 0.0), (1.0, 1.0), (1.0, -1.0)], 0.0)
                pb = beside(side, d)
                own = (place([(0.0, 0.0), (1.0, 1.0), (1.2, 1.5)], 0.0)
                       + place([(0.8, 0.8), (0.2, 0.2)], d) + place([(-0.2, 0.3)], 0.0))
                variants = [(pa, pb, own)]
                for _ in range(6):
                    variants.append((nudge(rng, pa, pb), pb, nudge(rng, own, own))
                                    if rng.random() < 0.5 else (pa, nudge(rng, pb, pa), own))
                for qa, qb, qown in variants:
                    try:
                        la, lb, lown = polygon(qa), polygon(qb, 2.0), polygon(qown)
                    except DegenerateGeometry:
                        continue  # a nudge made a zero-length segment
                    for args in ((la, lb, False), (lb, la, False), (lown, lown, True)):
                        got = self.outcome(ss.geometry._proper_crossings, *args)
                        assert got == self.outcome(proper_crossings_oracle, *args)
                        seen["raised" if isinstance(got, tuple) else "passed"] += 1
                    link = ss.Link((la, lb, lown))
                    assert (TestSweptScans.outcome(ss.validate, link)
                            == TestSweptScans.outcome(validate_oracle, link))
        assert min(seen.values()) >= 20, seen
        # well beyond m the filter drops every pair of the two triangles
        # before any orientation test
        orients = []
        real = ss.geometry._orient
        monkeypatch.setattr(ss.geometry, "_orient", lambda *a: orients.append(a) or real(*a))
        for side in (1, -1):
            pb = beside(side, 2 * m)
            la = polygon(place([(0.0, 0.0), (1.0, 1.0), (1.0, -1.0)], 0.0))
            assert ss.geometry._proper_crossings(la, polygon(pb), False) == []
        assert orients == []

    def test_fold_back_spike_first_defect(self):
        # a vertex within tol of its neighbour segment (a spike folding
        # back), with a vertex on a non-adjacent segment placed before or
        # after it in lexicographic order: the first defect is the
        # all-pairs scan's, alone, in a link, and with the spike clean
        rng = random.Random(23)
        seen = Counter()
        for _ in range(300):
            n = rng.randint(14, 20)
            phase = rng.uniform(0, TAU)
            pts = [(math.cos(phase + TAU * i / n), math.sin(phase + TAU * i / n)) for i in range(n)]
            s = rng.randint(5, n - 8)
            (x0, y0), (x2, y2) = pts[s], pts[s + 2]
            dx, dy = x2 - x0, y2 - y0
            norm = math.hypot(dx, dy)
            gap = rng.choice((0.0, 5e-10, 2e-9)) * rng.choice((-1, 1)) * 1.5 / norm
            pts[s + 1] = (x0 + 1.5 * dx - gap * dy, y0 + 1.5 * dy + gap * dx)
            where = rng.choice(("before", "after", "none"))
            # vertex k onto segment j, both segments at k before s or after s + 1
            k = rng.randint(2, s - 1) if where == "before" else rng.randint(s + 4, n - 1)
            js = [j for j in (range(s - 1) if where == "before" else range(s + 3, n))
                  if abs(j - k) >= 3]
            if where != "none" and js:
                j = rng.choice(js)
                (ax, ay), (bx, by) = pts[j], pts[(j + 1) % n]
                off = rng.choice((0.0, 5e-10)) / math.hypot(bx - ax, by - ay)
                pts[k] = ((ax + bx) / 2 - off * (by - ay), (ay + by) / 2 + off * (bx - ax))
            try:
                lp = polygon(pts)
            except DegenerateGeometry:
                continue
            got = self.outcome(ss.geometry._proper_crossings, lp, lp, True)
            assert got == self.outcome(proper_crossings_oracle, lp, lp, True)
            spike = f"(segments {s}, {s + 1})"
            if isinstance(got, tuple):
                seen[where + (", spike first" if spike in got[1] else ", other first")] += 1
            else:
                seen[where + ", clean"] += 1
            for link in (ss.Link((lp,)), ss.Link((polygon_circle(0.2, 0.1, 0.3, 12), lp))):
                fresh = ss.Link(tuple(dataclasses.replace(x) for x in link.loops))
                assert (TestSweptScans.outcome(ss.validate, fresh)
                        == TestSweptScans.outcome(validate_oracle, link))
        for case in ("before, other first", "after, spike first", "after, other first",
                     "none, spike first", "none, clean"):
            assert seen[case] >= 10, seen

    def test_clearance_prune_margin_covers_rounding(self):
        # two pairs at distance 0.1 whose float distances differ by 2 ulps;
        # a prune on the bare bounding-box gap would keep the larger one
        lp = polygon([(-1.3, -0.2), (-1.2, -1.4), (-0.2, 1.5), (-0.9, 2.0),
                      (1.3, -1.9), (-0.1, 1.5), (0.6, 1.5), (1.8, 1.8)])
        assert ss.geometry.loop_min_clearance(lp) == min_clearance_oracle(lp)


def scattered(rng):
    """4-12 random points in the unit square: as a closed polygon it
    usually crosses itself."""
    return [(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(rng.randint(4, 12))]


def exact(obj):
    """`obj` with every float replaced by its value and the sign of its
    zero (math.copysign), and every Fraction tagged, recursing into
    tuples, lists and dataclasses, so that == tells -0.0 from 0.0."""
    if isinstance(obj, float):
        return ("float", obj, math.copysign(1.0, obj))
    if isinstance(obj, Fraction):
        return ("Fraction", obj)
    if dataclasses.is_dataclass(obj):
        return (type(obj).__name__, exact(tuple(getattr(obj, f.name)
                                                for f in dataclasses.fields(obj))))
    if isinstance(obj, (tuple, list)):
        return (type(obj).__name__, tuple(exact(x) for x in obj))
    return obj


@pytest.fixture
def fraction_work(monkeypatch):
    """The Fractions that `geometry` builds by name, and the arithmetic
    done on them: each build returns a subclass whose operators record
    their names, so arithmetic on a built parameter is seen too."""
    work = {"built": [], "ops": []}

    class Watched(Fraction):
        pass

    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "__rtruediv__", "__float__"):
        def op(self, *other, _name=name, _real=getattr(Fraction, name)):
            work["ops"].append(_name)
            return _real(self, *other)
        setattr(Watched, name, op)

    def build(*args):
        work["built"].append(args)
        return Watched(*args)

    monkeypatch.setattr(ss.geometry, "Fraction", build)
    return work


class TestExactCrossings:
    """Crossing parameters and points from int arithmetic over one power of
    two, against the Fraction oracles, bit for bit at extreme scales."""

    @staticmethod
    def lifted(rng, pts, s, tx, ty):
        """The closed polygon `pts` scaled by `s` and moved by (tx, ty),
        with a random lift that closes; None if that leaves a segment
        shorter than the coincidence tolerance."""
        ts = [rng.uniform(0.1, 6.1) for _ in pts]
        verts = [(tx + s * x, ty + s * y, t) for (x, y), t in zip(pts, ts)]
        try:
            return ss.make_loop(verts + [verts[0]])
        except DegenerateGeometry:
            return None

    @staticmethod
    def near_parallel(rng):
        """Two thin triangles whose long sides cross at an angle of about
        2^-8 to 2^-30 radians, and a bowtie whose two diagonals do."""
        h, g = (rng.uniform(0.5, 1.0) * 2.0 ** -rng.randint(8, 30) for _ in range(2))
        pair = ([(-1.0, -h), (1.0, h), (rng.uniform(-0.5, 0.5), 1.0)],
                [(-1.0, g), (1.0, -g), (rng.uniform(-0.5, 0.5), -1.0)])
        bowtie = [(-1.0, -h), (1.0, h), (1.0, -g), (-1.0, g)]
        return pair, bowtie

    def test_int_true_division_is_correctly_rounded(self):
        # the premise of bit-identity: p / q on ints is p/q rounded once,
        # to nearest with ties to even, as float(Fraction(p, q)) is, also
        # when p and q share a factor, and past the 2^53 and 2^1023 marks;
        # a zero over a negative divisor is -0.0, which is why the point
        # coordinates divide by |den|
        rng = random.Random(26)
        cases = []
        for _ in range(400):
            m = rng.getrandbits(52) << 1 | 1 << 53 | 1  # 54 bits, odd: halfway between floats
            shift = rng.randint(-1130, 960)
            for p in (2 * m, 2 * m - 1, 2 * m + 1):  # the tie m, and m -+ 1/2
                p, q = (p << shift, 2) if shift >= 0 else (p, 2 << -shift)
                cases += [(p, q), (-p, q), (p * 3, q * 3), (p + 1, q), (p - 1, q)]
            cases.append((rng.getrandbits(rng.randint(1, 400)) + 1,
                           rng.getrandbits(rng.randint(1, 400)) + 1))
        ties = 0
        for p, q in cases:
            got = p / q
            assert got == float(Fraction(p, q))
            exact_q = Fraction(p, q)
            err = abs(Fraction(got) - exact_q)
            even = struct.unpack("<Q", struct.pack("<d", got))[0] % 2 == 0
            for near in (math.nextafter(got, math.inf), math.nextafter(got, -math.inf)):
                if math.isfinite(near):
                    other = abs(Fraction(near) - exact_q)
                    assert err < other or (err == other and even)
                    ties += err == other
        assert ties >= 500
        assert math.copysign(1.0, 0 / -3) == -1.0 and math.copysign(1.0, -1 * 0 / 3) == 1.0

    def test_match_fraction_oracles_at_extreme_scales(self):
        rng = random.Random(2026)
        seen = Counter()
        for _ in range(240):
            e = rng.randint(-20, 300)
            s = 2.0 ** e * rng.uniform(1.0, 2.0)
            tx, ty = (rng.choice((0.0, 1.0, -1.0)) * rng.uniform(0.5, 1.0)
                      * 2.0 ** rng.randint(0, min(60, e + 40)) for _ in range(2))
            kind = rng.choice(("pair", "self", "near-parallel pair", "near-parallel bowtie"))
            if kind == "pair":
                link = random_crossing_pair(rng)
                shapes = [lp.planar[:-1] for lp in link.loops]
            elif kind == "self":
                shapes = [scattered(rng)]
            else:
                pair, bowtie = self.near_parallel(rng)
                shapes = list(pair) if kind == "near-parallel pair" else [bowtie]
            loops = [self.lifted(rng, pts, s, tx, ty) for pts in shapes]
            if None in loops:
                continue
            for la in loops:
                for lb in loops:
                    args = (la, lb, la is lb)
                    got = TestSweptScans.outcome(ss.geometry._proper_crossings, *args)
                    assert exact(got) == exact(TestSweptScans.outcome(proper_crossings_oracle,
                                                                      *args))
                    if isinstance(got, list) and got:
                        seen[kind] += len(got)
                        seen["2^-20 .. 2^0" if e <= 0 else "2^200 .. 2^300" if e >= 200
                             else "2^1 .. 2^199"] += len(got)
                        seen["moved past 2^40"] += max(abs(tx), abs(ty)) > 2.0 ** 40
                        seen["a zero coordinate"] += sum(0.0 in c[4] for c in got)
            link = ss.Link(tuple(dataclasses.replace(lp) for lp in loops))
            assert (exact(TestSweptScans.outcome(ss.validate, link))
                    == exact(TestSweptScans.outcome(validate_oracle, link)))
        assert min(seen.values()) >= 20, seen

    def test_validate_builds_two_fractions_per_crossing(self, corpus_dir, fraction_work):
        rng = random.Random(3)
        links = [ss.load_link(corpus_dir / "hopf.link.json")]
        links += [random_crossing_pair(rng) for _ in range(5)]
        links += [ss.Link((self.lifted(rng, scattered(rng), 1.0, 0.0, 0.0),)) for _ in range(5)]
        crossings = 0
        for link in links:  # built with the patch on: loop colors are Fractions too
            fraction_work["built"].clear()
            fraction_work["ops"].clear()
            report = ss.validate(link)
            assert not report.triple_points
            crossings += len(report.double_points)
            assert len(fraction_work["built"]) == 2 * len(report.double_points)
            assert fraction_work["ops"] == []
        assert crossings >= 20


class TestLinkSweep:
    """`validate`'s one sweep over all loops against one all-pairs scan
    per loop pair, exceptions included."""

    def test_matches_per_pair_oracle(self):
        rng = random.Random(11)
        seen = {"raised": 0, "double points": 0, "self-crossing loops": 0}
        cases = 0
        while cases < 300:
            pts = [scan_polygon(rng, 20) for _ in range(rng.randint(1, 5))]
            for _ in range(rng.randint(0, 2)):
                k = rng.randrange(len(pts))
                pts[k] = nudge(rng, pts[k], rng.choice(pts))
            try:
                loops = [polygon(p, rng.uniform(0.1, 6.0)) for p in pts]
            except DegenerateGeometry:
                continue  # a nudge made a zero-length segment
            if rng.random() < 0.2:  # shifts the indices of the regular loops
                loops.insert(rng.randrange(len(loops) + 1), ss.make_loop(
                    [(0.3, 0.1, 0.0), (0.3, 0.1, math.pi), (0.3, 0.1, TAU)], vertical=True))
            link = ss.Link(tuple(loops))
            cases += 1
            got = TestSweptScans.outcome(ss.validate, link)
            assert got == TestSweptScans.outcome(validate_oracle, link)
            if isinstance(got, tuple):
                seen["raised"] += 1
                continue
            seen["double points"] += bool(got.double_points)
            # the own crossings validate's sweep stored on each loop
            for lp in loops:
                if not lp.vertical:
                    assert lp.self_crossings == tuple(proper_crossings_oracle(lp, lp, True))
                    seen["self-crossing loops"] += bool(lp.self_crossings)
        assert min(seen.values()) >= 40, seen

    def test_comb_matches_per_pair_oracle(self):
        # a 200-tooth comb crossed by a thin band: 800 double points to
        # cluster.  A triangle passes 5e-10 beside one of them, at
        # (0.5, 0.4) on a cell corner, and makes a triple point of three
        # crossings in different grid cells
        comb = [(0.0, -1.0)]
        for t in range(200):
            comb += [(t, 0.0), (t, 1.0), (t + 0.5, 1.0), (t + 0.5, 0.0)]
        comb.append((199.5, -1.0))
        band = [(-1.0, 0.4), (200.5, 0.4), (200.5, 0.6), (-1.0, 0.6)]
        triangle = [(0.35 + 5e-10, 0.25), (0.65 + 5e-10, 0.55), (0.65 + 5e-10, 0.25)]
        loops = (polygon(comb, 1.0), polygon(band, 2.0))
        for link, double_points, triple_points in (
                (ss.Link(loops), 800, 0),
                (ss.Link(loops + (polygon(triangle, 3.0),)), 801, 1)):
            report = ss.validate(link)
            assert report == validate_oracle(link)
            assert len(report.double_points) == double_points
            assert len(report.triple_points) == triple_points

    def test_one_sweep_per_link(self, monkeypatch):
        # a row of 8 circles, each crossing its neighbours twice: one sweep
        # finds the cross-loop pairs and every loop's own pairs, not 28
        # pair sweeps and 8 loop sweeps
        loops = tuple(polygon_circle(1.5 * k, 0.0, 1.0, 16, theta0=0.5 + 0.1 * k)
                      for k in range(8))
        calls = []
        real = ss.geometry._segment_sweep

        def sweep(lps, *selves):
            calls.append((tuple(lps), *selves))
            return real(lps, *selves)

        monkeypatch.setattr(ss.geometry, "_segment_sweep", sweep)
        report = ss.validate(ss.Link(loops))
        assert len(report.double_points) == 14
        assert calls == [(loops, tuple(range(8)))]
        # a loop keeps them: validating again pairs no loop with itself
        assert ss.validate(ss.Link(loops)) == report
        assert calls[1:] == [(loops, ())]

    def test_lone_loop_swept_once(self, monkeypatch):
        lp = polygon_circle(0.0, 0.0, 1.0, 16)
        calls = []
        real = ss.geometry._segment_sweep

        def sweep(lps, *selves):
            calls.append(len(lps))
            return real(lps, *selves)

        monkeypatch.setattr(ss.geometry, "_segment_sweep", sweep)
        for _ in range(2):
            assert ss.validate(ss.Link((lp,))).ok
        assert calls == [1]


class TestLoopOrientation:
    """The float-filtered shoelace against the exact one: the same sign,
    or the same DegenerateGeometry, on polygons where the float sum is
    accurate and on polygons where it is mostly rounding error."""

    @staticmethod
    def outcome(fn, loop):
        try:
            return fn(loop)
        except DegenerateGeometry as exc:
            return (type(exc), str(exc))

    @staticmethod
    def star(rng, n, size=1.0):
        angles = sorted(rng.uniform(0, TAU) for _ in range(n))
        pts = [(size * r * math.cos(a), size * r * math.sin(a))
               for a, r in zip(angles, (rng.uniform(0.3, 2.0) for _ in range(n)))]
        return pts if rng.random() < 0.5 else pts[::-1]

    @staticmethod
    def sliver(rng):
        """A triangle of area about 1e-18 or a zigzag along a line.  An
        axis-parallel triangle at the origin keeps that area exactly; a
        rotated one at a random place, like the zigzag, has generic float
        coordinates, whose rounding leaves an area of either sign far
        below the rounding error of the float sum."""
        length = rng.uniform(0.5, 2.0)
        h = rng.uniform(0.5, 2.0) * 2e-18 / length
        t = rng.uniform(0.1, 0.9)
        if rng.random() < 0.25:
            pts = [(0.0, 0.0), (length, 0.0), (t * length, h)]
        else:
            ax, ay = rng.uniform(-1, 1), rng.uniform(-1, 1)
            a = rng.uniform(0, TAU)
            dx, dy = math.cos(a), math.sin(a)
            if rng.random() < 0.5:
                pts = [(ax, ay), (ax + length * dx, ay + length * dy),
                       (ax + t * length * dx - h * dy, ay + t * length * dy + h * dx)]
            else:
                pts = [(ax + u * dx, ay + u * dy)
                       for u in (rng.uniform(-2, 2) for _ in range(rng.randint(3, 6)))]
        return pts if rng.random() < 0.5 else pts[::-1]

    @staticmethod
    def zero_area(rng):
        """Polygons with zero signed area: three collinear integer points,
        or a figure eight whose second lobe mirrors the first in the line
        y = 0 (negating y is exact, so the lobes cancel exactly)."""
        if rng.random() < 0.3:
            dx, dy = rng.randint(1, 9), rng.randint(-9, 9)
            a, b = rng.randint(1, 5), rng.randint(6, 12)
            return [(0, 0), (a * dx, a * dy), (b * dx, b * dy)]
        cx = rng.uniform(-1, 1)
        lobe = [(cx + rng.uniform(0.1, 2), rng.uniform(0.1, 2))
                for _ in range(rng.randint(2, 5))]
        return [(cx, 0.0), *lobe, (cx, 0.0), *[(x, -y) for x, y in lobe]]

    def test_matches_exact_oracle(self):
        rng = random.Random(88)
        shapes = []
        for _ in range(200):
            shapes.append(self.star(rng, rng.randint(3, 30), rng.choice((1e-6, 1.0, 1e3))))
            shapes.append(self.sliver(rng))
            shapes.append(self.zero_area(rng))
        shapes += [self.star(rng, 1000) for _ in range(4)]
        cases = 0
        for pts in shapes:
            for shift in (0.0, 1e6, 1e9, 1e12):
                sx, sy = shift, shift * rng.choice((-1.0, 0.5, 1.0))
                try:
                    loop = polygon([(x + sx, y + sy) for x, y in pts])
                except DegenerateGeometry:
                    continue  # a segment collapsed when shifted
                cases += 1
                assert self.outcome(ss.geometry._loop_orientation, loop) \
                    == self.outcome(loop_orientation_oracle, loop), (pts, shift)
        assert cases > 2000, cases

    def test_zero_area_raises(self):
        loop = polygon([(1e9, 1e9), (1e9 + 3, 1e9 + 1), (1e9 + 6, 1e9 + 2)])
        with pytest.raises(DegenerateGeometry, match="zero signed area"):
            ss.geometry._loop_orientation(loop)


class TestLoopBasics:
    def test_needs_closure(self):
        with pytest.raises(InvariantViolation):
            ss.make_loop([(0, 0, 0), (1, 0, 0), (1, 1, 0)])

    def test_rejects_nonfinite(self):
        with pytest.raises(InvariantViolation):
            ss.make_loop([(0, 0, 0), (1, 0, math.inf), (1, 1, 0), (0, 0, 0)])

    def test_rejects_fractional_winding(self):
        with pytest.raises(InvariantViolation):
            ss.make_loop([(0, 0, 0), (1, 0, 1), (1, 1, 2), (0, 0, 3.0)])

    def test_zero_length_segment_degenerate(self):
        with pytest.raises(DegenerateGeometry):
            ss.make_loop([(0, 0, 0), (0, 0, 1), (1, 1, 2), (0, 0, TAU)])

    def test_vertical_loop(self):
        lp = ss.make_loop([(1, 2, 0.2), (1, 2, 3.2), (1, 2, 0.2 + TAU)], vertical=True)
        assert ss.winding_s1(lp) == 1

    def test_vertical_needs_winding(self):
        with pytest.raises(InvariantViolation):
            ss.make_loop([(1, 2, 0.2), (1, 2, 0.3), (1, 2, 0.2)], vertical=True)

    def test_polygon_circle_at_large_radius(self):
        # cos and sin of the full turn miss vertex 0 by more than 1e-9 at
        # r = 1e7; the closing vertex repeats it instead
        for r in (1e7, 1e12):
            lp = polygon_circle(0.0, 0.0, r, 12)
            assert lp.nseg == 12 and lp.planar[-1] == lp.planar[0]

    def test_fields_match_column_expressions(self):
        # one pass builds planar, lifts, boxes and scale with the bits of
        # builtin min, max and abs over whole columns, NaN and -0.0 included
        def bits(v):
            return tuple(map(bits, v)) if isinstance(v, tuple) else struct.pack("<d", v)

        rng = random.Random(22)
        special = (math.nan, -math.nan, 0.0, -0.0, math.inf, -math.inf, 5e-324, -2.5)
        cases = [(), ((-0.0, 0.0, -0.0),), ((math.nan, 1.0, 0.0), (-2.0, math.nan, 1.0))]
        for _ in range(2000):
            cases.append(tuple(
                tuple(rng.choice(special) if rng.random() < 0.3 else rng.uniform(-3.0, 3.0)
                      for _ in range(3))
                for _ in range(rng.randint(1, 7))))
        for verts in cases:
            lp = ss.Loop(verts)
            assert bits((lp.planar, lp.lifts, lp.boxes, lp.scale)) == bits(loop_fields_oracle(verts))

    def test_make_loop_accepts_exactly_the_well_formed_loops(self):
        # each outcome is checked against its own input: a loop comes back
        # only for well-formed input, with its last vertex closed onto the
        # first, and every error names a fault that its input has.
        # Near-closing last vertices test the last segment's length after
        # closing
        rng = random.Random(21)
        tol = ss.geometry.COINCIDENCE_TOL
        seen = Counter()

        def winding(pts):
            return (pts[-1][2] - pts[0][2]) / TAU

        def far(a, b):
            return math.hypot(b[0] - a[0], b[1] - a[1]) > tol

        def has_fault(message, raw, closed, vertical):
            if message == "loop needs at least 3 vertices":
                return len(raw) < 3
            if message == "non-finite loop coordinate":
                return not all(math.isfinite(c) for p in raw for c in p)
            if message == "loop does not close in the plane":
                return far(raw[0], raw[-1])
            if message.startswith("circle-coordinate lift does not close"):
                return abs(winding(closed) - round(winding(closed))) > 1e-9
            if message == "vertical loop must project to a single point":
                return vertical and any(far(closed[0], p) for p in closed)
            if message == "vertical loop must wind around the circle factor":
                return vertical and round(winding(closed)) == 0
            short = re.fullmatch(r"zero-length projected segment at vertex (\d+)", message)
            return bool(short) and not vertical and not far(*closed[int(short[1]):][:2])

        def well_formed(lp, closed, vertical):
            want = [(closed[0][0], closed[0][1], t) for _, _, t in closed] if vertical else closed
            shape = (round(winding(closed)) != 0 and not any(far(closed[0], p) for p in closed)
                     if vertical else all(map(far, closed, closed[1:])))
            return (list(lp.vertices) == want and len(closed) >= 3 and shape
                    and all(math.isfinite(c) for p in closed for c in p)
                    and abs(winding(closed) - round(winding(closed))) <= 1e-9)

        for _ in range(4000):
            n = rng.randint(2, 6)
            grid = (0.0, 1.0, 2.0)
            pts = [[rng.choice(grid) if rng.random() < 0.6 else rng.uniform(-1, 2),
                    rng.choice(grid) if rng.random() < 0.6 else rng.uniform(-1, 2),
                    rng.uniform(0.0, 6.0)] for _ in range(n)]
            if rng.random() < 0.3:  # a vertex near its predecessor
                k = rng.randrange(1, n)
                pts[k][:2] = [pts[k - 1][0] + rng.choice((4e-10, 8e-10, 1.5e-9)), pts[k - 1][1]]
            if rng.random() < 0.3:  # the last but one vertex near the first
                pts[-1][:2] = [pts[0][0] + rng.choice((6e-10, 1.6e-9)), pts[0][1]]
            w = rng.randint(-1, 1)
            gap = rng.choice((0.0, 0.0, 5e-10, -5e-10, 8e-10, 2e-9))
            last = [pts[0][0] + gap, pts[0][1],
                    pts[0][2] + TAU * w + rng.choice((0.0, 0.0, 1e-12, 0.3))]
            verts = [tuple(p) for p in pts] + [tuple(last)]
            if rng.random() < 0.05:
                k = rng.randrange(len(verts))
                verts[k] = (verts[k][0], rng.choice((math.nan, math.inf)), verts[k][2])
            vertical = rng.random() < 0.1
            if vertical and rng.random() < 0.7:
                verts = [(verts[0][0], verts[0][1], t) for _, _, t in verts]
            raw = [tuple(map(float, p)) for p in verts]
            closed = raw[:-1] + [(raw[0][0], raw[0][1], raw[-1][2])]
            try:
                lp = ss.make_loop(verts, vertical=vertical)
            except (InvariantViolation, DegenerateGeometry) as exc:
                assert has_fault(str(exc), raw, closed, vertical), (verts, vertical, exc)
                seen[type(exc).__name__] += 1
            else:
                assert well_formed(lp, closed, vertical), (verts, vertical)
                seen["loop"] += 1
        assert min(seen[k] for k in ("loop", "InvariantViolation", "DegenerateGeometry")) >= 200, seen


class TestWinding:
    def test_constant_theta(self):
        assert ss.winding_s1(polygon_circle(0, 0, 1, winding=0)) == 0

    def test_vertical_once_around(self):
        lp = ss.make_loop([(0, 0, 0.0), (0, 0, math.pi), (0, 0, TAU)], vertical=True)
        assert ss.winding_s1(lp) == 1

    def test_minus_two(self):
        assert ss.winding_s1(polygon_circle(0, 0, 1, winding=-2)) == -2


class TestValidate:
    def test_single_circle_clean(self):
        link = ss.Link((polygon_circle(0, 0, 1, theta0=0.5, phase=0.1),), t0=0.0, level=1)
        rep = ss.validate(link)
        assert rep.ok and not rep.double_points

    def test_two_crossing_loops(self):
        a = polygon_circle(0, 0, 1.0, 16, theta0=0.4, phase=0.13)
        b = polygon_circle(1.0, 0.1, 1.0, 14, theta0=1.3, phase=0.31)
        link = ss.Link((a, b), t0=0.0, level=1)
        rep = ss.validate(link)
        assert rep.ok
        assert len(rep.double_points) == 2
        assert crossing_count_oracle(a, b) == 2

    def test_triple_point_flagged(self):
        # three long rectangles whose spines all pass through the origin
        loops = []
        for i, ang in enumerate((0.15, 1.25, 2.35)):
            c, s = math.cos(ang), math.sin(ang)
            pts = [(-3 * c, -3 * s), (3 * c, 3 * s),
                   (3 * c - s, 3 * s + c), (-3 * c - s, -3 * s + c)]
            theta = 0.3 + 0.7 * i
            loops.append(ss.make_loop([(x, y, theta) for x, y in pts]
                                      + [(pts[0][0], pts[0][1], theta)]))
        rep = ss.validate(ss.Link(tuple(loops), t0=0.0, level=1))
        assert not rep.ok
        assert rep.triple_points

    def test_vertex_on_segment_degenerate(self):
        a = square(2.0, (0, 0), 0.3)
        b = square(2.0, (2.0, 0.0), 1.3)  # shares the edge x = 1
        with pytest.raises(DegenerateGeometry):
            ss.validate(ss.Link((a, b), t0=0.0, level=1))

    def test_vertex_clearance_matches_brute_force(self):
        rng = random.Random(2718)
        outcomes = {True: 0, False: 0}
        for _ in range(600):
            link = moved_vertex_link(rng, rng.choice((0.0, 1e-12, 5e-10, 2e-9)))
            if link is None:
                continue
            expected = vertex_on_segment_oracle(link.loops)
            assert raises_degenerate(link) == expected
            outcomes[expected] += 1
        assert min(outcomes.values()) >= 100

    @pytest.mark.parametrize("gap, degenerate", [(5e-10, True), (2e-9, False)])
    def test_sliver_triangle(self, gap, degenerate):
        # every segment pair of a triangle is adjacent
        lp = polygon([(0.0, 0.0), (2.0, 0.0), (1.0, gap)])
        assert raises_degenerate(ss.Link((lp,), t0=0.0, level=1)) == degenerate

    @pytest.mark.parametrize("gap, degenerate", [(5e-10, True), (2e-9, False)])
    def test_triangle_tip_near_foreign_edge(self, gap, degenerate):
        a = square(2.0, (0, 0), 0.3)  # right edge on x = 1
        b = polygon([(1.0 + gap, 0.1), (3.0, -1.0), (3.0, 1.0)], 1.3)
        assert raises_degenerate(ss.Link((a, b), t0=0.0, level=1)) == degenerate

    def test_other_scans_reject_vertex_near_segment(self):
        a = square(2.0, (0, 0), 0.3)
        b = polygon([(1.0 + 5e-10, 0.1), (3.0, -1.0), (3.0, 1.0)], 1.3)
        with pytest.raises(DegenerateGeometry):
            ss.lk(ss.crossings_between(a, b), 0.0)
        with pytest.raises(DegenerateGeometry):
            ss.geometry.loop_min_clearance(
                polygon([(0.0, 0.0), (2.0, 0.0), (1.0, 5e-10), (1.0, 1.0)]))

    def test_admissible_at_matches_revalidation(self):
        rng = random.Random(31)
        outcomes = {True: 0, False: 0}
        for _ in range(40):
            link = random_crossing_pair(rng)
            rep = ss.validate(link)
            probes = [rng.uniform(0.0, TAU) for _ in range(4)]
            probes += [th + d for dp in rep.double_points for th in dp.thetas
                       for d in (0.0, 5e-10, 2e-9)]
            probes += [th + d for lp in link.loops for th in lp.lifts[:3] for d in (0.0, 1e-6)]
            for t0 in (p % TAU for p in probes):
                if not 0.0 <= t0 < TAU:
                    continue
                expected = ss.validate(dataclasses.replace(link, t0=t0)).ok
                assert ss.admissible_at(link, rep, t0) == expected
                outcomes[expected] += 1
        assert min(outcomes.values()) >= 50

    def test_admissible_at_rejects_t0_free_defects(self):
        a = polygon_circle(0, 0, 1.0, 16, theta0=0.7, phase=0.13)
        b = polygon_circle(1.0, 0.1, 1.0, 14, theta0=0.7, phase=0.31)
        link = ss.Link((a, b), t0=0.0, level=1)
        assert not ss.admissible_at(link, ss.validate(link), 2.0)

    def test_strand_collision_flagged(self):
        a = polygon_circle(0, 0, 1.0, 16, theta0=0.7, phase=0.13)
        b = polygon_circle(1.0, 0.1, 1.0, 14, theta0=0.7, phase=0.31)
        rep = ss.validate(ss.Link((a, b), t0=0.0, level=1))
        assert not rep.ok
        assert rep.strand_collisions

    def test_t0_double_point_hit_flagged(self):
        a = polygon_circle(0, 0, 1.0, 16, theta0=0.0, phase=0.13)  # sits at t0
        b = polygon_circle(1.0, 0.1, 1.0, 14, theta0=1.3, phase=0.31)
        rep = ss.validate(ss.Link((a, b), t0=0.0, level=1))
        assert not rep.ok
        assert rep.t0_double_point_hits and rep.t0_degeneracies

    def test_tangential_lift_flagged(self):
        pts = [(math.cos(a), math.sin(a)) for a in
               (0.1 + TAU * i / 8 for i in range(8))]
        thetas = [0.5, 1.0, 0.5, 1.0, 0.5, 1.0, 0.5, 1.0, 0.5]
        lp = ss.make_loop([(x, y, t) for (x, y), t in zip(pts + [pts[0]], thetas)])
        rep = ss.validate(ss.Link((lp,), t0=0.5, level=1))
        assert not rep.ok
        assert any(kind == "tangential" for _, kind, _ in rep.t0_degeneracies)

    def test_vertical_loops_reported(self):
        lp = ss.make_loop([(0, 0, 0.0), (0, 0, math.pi), (0, 0, TAU)], vertical=True)
        rep = ss.validate(ss.Link((lp,), t0=0.5, level=1))
        assert not rep.ok
        assert rep.vertical_loops == (0,)

    def test_permutation_equivariant(self):
        rng = random.Random(7)
        link = random_dpfree_link(rng, max_loops=4, level=1)
        loops = link.loops
        perm = list(range(len(loops)))
        rng.shuffle(perm)
        permuted = ss.Link(tuple(loops[p] for p in perm), t0=link.t0, level=link.level)
        rep_a = ss.validate(link)
        rep_b = ss.validate(permuted)
        inv = {p: i for i, p in enumerate(perm)}
        remapped = sorted(
            tuple(sorted((inv[j], round(u, 12)) for j, u in dp.strands))
            for dp in rep_a.double_points
        )
        direct = sorted(
            tuple(sorted((j, round(u, 12)) for j, u in dp.strands))
            for dp in rep_b.double_points
        )
        assert rep_a.ok == rep_b.ok
        assert remapped == direct


class TestCrossingMarks:
    def test_single_increasing_pass(self):
        lp = polygon_circle(0, 0, 1.0, 12, winding=1, theta0=0.0, phase=0.1)
        marks = ss.crossing_marks(ss.Link((lp,), t0=math.pi, level=1))
        assert len(marks) == 1 and marks[0].eps == 1

    def test_constant_off_t0_empty(self):
        lp = polygon_circle(0, 0, 1.0, 12, winding=0, theta0=0.3, phase=0.1)
        assert ss.crossing_marks(ss.Link((lp,), t0=0.0, level=1)) == ()

    def test_oscillating_two_marks(self):
        lp = polygon_circle(0, 0, 1.0, 16, phase=0.1,
                            theta_fn=lambda u: 0.55 + 0.35 * math.sin(TAU * u))
        marks = ss.crossing_marks(ss.Link((lp,), t0=0.5, level=1))
        assert [m.eps for m in marks] in ([1, -1], [-1, 1])
        assert sum(m.eps for m in marks) == 0
        assert mark_oracle(lp, 0.5) == [m.eps for m in marks]

    def test_fold_back_at_a_level_degenerate(self):
        # the lift crosses t0 = 0 at vertex 1, where the projection turns
        # straight back, so the two unit tangents cancel; validate rejects
        # the overlapping segments first
        link = ss.Link((ss.make_loop([(0, 0, -1), (1, 0, 0), (0.5, 0, 1), (0.2, 0.7, 0.5),
                                      (0, 0, -1)]),))
        with pytest.raises(DegenerateGeometry):
            ss.crossing_marks(link)
        with pytest.raises(DegenerateGeometry):
            ss.validate(link)

    def test_seam_rebased(self):
        # the lift starts exactly at t0; the internal rebasing must still
        # produce a single clean crossing (reported here at the seam itself)
        lp = polygon_circle(0, 0, 1.0, 12, winding=1, theta0=0.0, phase=0.1)
        marks = ss.crossing_marks(ss.Link((lp,), t0=0.0, level=1))
        assert [m.eps for m in marks] == [1]
        assert all(0.0 <= m.param < 1.0 for m in marks)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(-2, 2), st.floats(0.3, 6.0), st.integers(0, 1000))
    def test_eps_sum_equals_winding(self, w, t0, salt):
        rng = random.Random(salt)
        base = rng.uniform(0.2, 6.0)
        amp = rng.uniform(0.0, 2.0)
        ph = rng.uniform(0.0, TAU)
        lp = polygon_circle(0, 0, 1.0, 16, phase=0.1,
                            theta_fn=lambda u: base + amp * math.sin(TAU * u + ph) + TAU * w * u)
        link = ss.Link((lp,), t0=t0, level=1)
        if not ss.validate(link).ok:
            return
        marks = ss.crossing_marks(link)
        assert sum(m.eps for m in marks) == w
        assert mark_oracle(lp, t0) == [m.eps for m in marks]


def random_lift_loop(rng):
    """A regular n-gon with a lift that stresses the t0 cut: flat runs,
    vertices exactly on the levels t0 + 2*pi*Z (the seam vertex too), and
    walks of whole turns with every vertex on a level.  Returns the loop,
    t0 and the winding."""
    n = rng.randint(3, 10)
    t0 = rng.choice([0.0, rng.uniform(0.0, TAU)])
    mode = rng.random()
    if mode < 0.2:
        # every vertex on a level, steps of whole turns; a zero step is flat
        sign = rng.choice((-1, 1))
        turns = [rng.randint(-2, 2)]
        for _ in range(n):
            turns.append(turns[-1] + sign * rng.choice((0, 1, 1, 1, 2, -1)))
        w = turns[-1] - turns[0]
        lifts = [t0 + TAU * m for m in turns[:-1]]
        lifts.append(lifts[0] + TAU * w)
    else:
        w = rng.randint(-2, 2)
        snap = rng.choice((0.0, 0.3, 0.7, 1.0))

        def snapped(x):
            return t0 + TAU * round((x - t0) / TAU) if rng.random() < snap else x

        first = snapped(rng.uniform(-9.0, 9.0))
        end = first + TAU * w
        if w != 0 and mode < 0.6:
            # monotone from first to end
            inner = sorted(rng.uniform(min(first, end), max(first, end)) for _ in range(n - 1))
            inner = [snapped(x) for x in (inner if w > 0 else inner[::-1])]
        else:
            inner = []
            for _ in range(n - 1):
                r = rng.random()
                if r < 0.2 and inner:
                    inner.append(inner[-1])  # flat run
                elif r < 0.25:
                    inner.append(end)  # flat into the seam
                else:
                    inner.append(snapped(rng.uniform(-9.0, 9.0)))
        lifts = [first] + inner + [end]
    a = rng.uniform(0.0, TAU)
    pts = [(math.cos(a + TAU * i / n), math.sin(a + TAU * i / n)) for i in range(n)]
    pts.append(pts[0])
    return ss.make_loop([(x, y, t) for (x, y), t in zip(pts, lifts)]), t0, w


def scan_matches_t0_cut_oracle(lp, t0, w) -> str:
    """The one lift scan against the two separate scans it replaced: the
    same defects (as a subset, non-empty together) and, wherever the oracle
    finds marks, the same marks.  The oracle cannot rebase a lift with
    every vertex on a level and raises there; the scan counts those
    crossings, and they must sum to the winding.  Returns the case seen."""
    marks, defects = ss.geometry._lift_scan(lp, t0)
    marks = [ss.CrossingMark(0, *m) for m in marks]
    defects = [(0, *d) for d in defects]
    oracle_defects, oracle_marks = t0_cut_oracle(lp, t0)
    assert bool(defects) == bool(oracle_defects)
    assert set(defects) <= set(oracle_defects)
    if isinstance(oracle_marks, Exception):
        if defects:
            return "rejected"
        assert "every vertex of the lift sits at t0" in str(oracle_marks)
        assert sum(m.eps for m in marks) == w
        return "all on levels"
    assert not defects
    assert [(m.loop, m.eps) for m in marks] == [(m.loop, m.eps) for m in oracle_marks]
    for m, o in zip(marks, oracle_marks):
        assert abs(m.param - o.param) <= 1e-12
        assert math.dist(m.point, o.point) <= 1e-12
        assert math.dist(m.tangent, o.tangent) <= 1e-12
    return "marks"


class TestMarkSidePoints:
    def test_probes_a_quarter_clearance_across_the_strand(self, corpus_dir):
        # the probes sit on the strand's left and right normal, a quarter
        # of the clearance away from the mark: the least distance to a
        # segment, bar the mark loop's segments through the mark, here
        # measured by complex projection rather than by _seg_point_dist.
        # Cases: corpus links, crossing pairs shifted to large coordinates,
        # and pairs beside a far loop of much larger scale
        rng = random.Random(24)
        links = [ss.load_link(p) for p in sorted(corpus_dir.glob("*.link.json"))]
        for _ in range(100):
            link = random_crossing_pair(rng)
            # a level through the first loop's lift, so that it has marks
            t0 = (rng.choice(link.loops[0].lifts) + 0.01) % TAU
            shift = rng.choice((0.0, 1e6, 1e9))
            loops = [ss.make_loop([(x + shift, y - shift, t) for x, y, t in lp.vertices])
                     for lp in link.loops]
            if rng.random() < 0.3:
                loops.append(polygon([(1e8, 0.0), (1.1e8, 0.0), (1.1e8, 1e7), (1e8, 1e7)]))
            links.append(ss.Link(tuple(loops), t0=t0))
        cases = [(link, ss.CrossingMark(j, *m)) for link in links
                 for j, lp in enumerate(link.loops) if not lp.vertical
                 for m in ss.geometry._lift_scan(lp, link.t0)[0]]
        assert len(cases) >= 200
        # probes at the centre of regular polygons, whose edges all lie at
        # about the same distance
        for _ in range(200):
            n = rng.choice((8, 12, 16, 64))
            cx, cy = (rng.uniform(-1, 1) * rng.choice((1.0, 1e6)) for _ in range(2))
            r, a = rng.uniform(0.5, 2.0), rng.uniform(0.0, TAU)
            pts = [(cx + r * math.cos(a + TAU * i / n), cy + r * math.sin(a + TAU * i / n))
                   for i in range(n)]
            probe = ss.CrossingMark(0, 0.0, (cx, cy), 1, (1.0, 0.0))
            cases.append((ss.Link((polygon(pts),)), probe))
        tol = ss.geometry.COINCIDENCE_TOL
        for link, mk in cases:
            z = complex(*mk.point)
            clearance = math.inf
            for j, lp in enumerate(link.loops):
                for a, b in zip(lp.planar, lp.planar[1:]):
                    u, w = complex(*a), complex(*b) - complex(*a)
                    s = min(1.0, max(0.0, ((z - u) / w).real))
                    d = abs(z - (u + s * w))
                    if not (j == mk.loop and d <= tol):
                        clearance = min(clearance, d)
            assert 0 < clearance < math.inf
            # rounding error grows with the coordinates
            err = 1e-13 * max(1.0, max(abs(c) for lp in link.loops for p in lp.planar for c in p))
            left, right = ss.geometry.mark_side_points(link, mk)
            normal = complex(-mk.tangent[1], mk.tangent[0])
            assert abs(complex(*left) - (z + clearance / 4 * normal)) <= err, (mk, clearance)
            assert abs(complex(*right) - (z - clearance / 4 * normal)) <= err, (mk, clearance)


class TestLiftScan:
    def test_matches_t0_cut_oracle(self):
        rng = random.Random(20261018)
        seen = {"marks": 0, "rejected": 0, "all on levels": 0}
        for _ in range(5000):
            seen[scan_matches_t0_cut_oracle(*random_lift_loop(rng))] += 1
        assert min(seen.values()) >= 50, seen

    def test_alternating_t0_match_oracle(self):
        # scans of one loop at t0 = a, b, a: the loop keeps the result of
        # one t0, and each scan is the oracle's at its own t0
        rng = random.Random(18)
        seen = {"marks": 0, "rejected": 0, "all on levels": 0}
        for _ in range(1500):
            lp, a, w = random_lift_loop(rng)
            b = rng.choice([0.0, a + 1e-6, rng.uniform(0.0, TAU)])
            for t0 in (a, b, a):
                seen[scan_matches_t0_cut_oracle(lp, t0, w)] += 1
                assert set(lp.lift_scans) == {t0}
            assert ss.geometry._lift_scan(lp, a) is ss.geometry._lift_scan(lp, a)
            assert len(lp.lift_scans) == 1
        assert min(seen.values()) >= 50, seen

    def test_threads_sharing_a_loop_get_their_own_t0(self):
        # threads scanning one loop at alternating t0 may scan twice, but
        # each gets the scan of its own t0
        lp = polygon_circle(0.0, 0.0, 1.0, 24, winding=2, theta0=0.4)
        t0s = (0.3, 1.7, 4.1)
        want = {t0: ss.geometry._lift_scan(dataclasses.replace(lp), t0) for t0 in t0s}
        wrong = []

        def scan(k):
            for n in range(400):
                t0 = t0s[(k + n) % len(t0s)]
                if ss.geometry._lift_scan(lp, t0) != want[t0]:
                    wrong.append(t0)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=scan, args=(k,)) for k in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []
        assert len(lp.lift_scans) <= len(t0s)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(3, 12), st.integers(-3, 3).filter(bool), st.floats(0.0, 6.28),
           st.floats(0.0, 1.0), st.integers(0, 10_000))
    def test_validated_snapped_monotone_lift_has_marks(self, n, w, t0, snap, salt):
        """On a monotone lift with vertices snapped onto the levels, a link
        that `validate` accepts has crossing marks summing to the winding."""
        rng = random.Random(salt)
        start = t0 + TAU * rng.randint(-1, 1) if rng.random() < snap else rng.uniform(-7.0, 7.0)
        end = start + TAU * w
        inner = sorted(rng.uniform(min(start, end), max(start, end)) for _ in range(n - 1))
        if w < 0:
            inner.reverse()
        inner = [t0 + TAU * round((x - t0) / TAU) if rng.random() < snap else x for x in inner]
        lifts = [start] + inner + [end]
        pts = [(math.cos(TAU * i / n + 0.1), math.sin(TAU * i / n + 0.1)) for i in range(n)]
        lp = ss.make_loop([(x, y, t) for (x, y), t in zip(pts + [pts[0]], lifts)])
        link = ss.Link((lp,), t0=t0, level=1)
        if not ss.validate(link).ok:
            return
        assert sum(m.eps for m in ss.crossing_marks(link)) == w

    @pytest.mark.parametrize("err", [-5e-9, -2e-9, 2e-9, 5e-9])
    def test_vertex_zero_on_a_level_with_closing_error(self, err):
        # make_loop accepts a lift that closes up to 2*pi*1e-9, wider than
        # the 1e-9 level tolerance; the crossing at vertex 0 must survive
        lp = ss.make_loop([(0.0, 0.0, 0.0), (1.0, 0.0, 1.0), (0.0, 1.0, 2.0),
                           (0.0, 0.0, TAU + err)])
        link = ss.Link((lp,), t0=0.0, level=1)
        assert ss.validate(link).ok
        assert [m.eps for m in ss.crossing_marks(link)] == [1]

    def test_every_vertex_on_a_level(self):
        # the lift is 0, 2pi, 4pi, 6pi: each vertex crossing is counted at
        # the end of the segment that reaches it, vertex 0 at the last one
        lp = ss.make_loop([(0.0, 0.0, 0.0), (1.0, 0.0, TAU), (0.0, 1.0, 2 * TAU),
                           (0.0, 0.0, 3 * TAU)])
        link = ss.Link((lp,), t0=0.0, level=1)
        assert ss.validate(link).ok
        marks = ss.crossing_marks(link)
        assert [(m.param, m.eps) for m in marks] == [(0.0, 1), (1 / 3, 1), (2 / 3, 1)]
        assert [m.point for m in marks] == [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]


class TestInd:
    def test_ccw_circle(self):
        lp = polygon_circle(0, 0, 1.0, 16, phase=0.1)
        assert ss.ind(lp, (0.0, 0.0)) == 1
        assert ss.ind(lp, (5.0, 0.0)) == 0

    def test_point_on_curve(self):
        lp = polygon_circle(0, 0, 1.0, 16)
        with pytest.raises(PointOnCurve):
            ss.ind(lp, (1.0, 0.0))
        # every vertex and segment midpoint, also those that the one pass
        # reaches after it has counted a crossing
        for (ax, ay), (bx, by) in zip(lp.planar, lp.planar[1:]):
            for p in ((ax, ay), ((ax + bx) / 2, (ay + by) / 2)):
                with pytest.raises(PointOnCurve):
                    ss.ind(lp, p)

    def test_vertical_loop(self):
        # the loop projects to its base point (1, 2): no winding off it,
        # on the curve within the coincidence tolerance of it
        lp = ss.make_loop([(1, 2, 0.2), (1, 2, 3.2), (1, 2, 0.2 + TAU)], vertical=True)
        for p in ((0.0, 0.0), (1.0, 2.0 + 1e-6), (1.0 + 2e-9, 2.0), (-5.0, 7.0)):
            assert ss.ind(lp, p) == 0
        for p in ((1.0, 2.0), (1.0 + 5e-10, 2.0), (1.0, 2.0 - 9e-10)):
            with pytest.raises(PointOnCurve):
                ss.ind(lp, p)

    def test_doubled_circle(self):
        # traversed twice with modulated radius: winding 2 around the center
        n = 40
        pts = []
        for i in range(n + 1):
            a = 2 * TAU * i / n + 0.05
            r = 1.0 + 0.15 * math.cos(a / 2.0)
            pts.append((r * math.cos(a), r * math.sin(a), 0.5))
        lp = ss.make_loop(pts)
        assert ss.ind(lp, (0.0, 0.0)) == 2
        assert winding_oracle(lp, (0.0, 0.0)) == 2

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_matches_angle_oracle(self, salt):
        rng = random.Random(salt)
        lp = polygon_circle(rng.uniform(-1, 1), rng.uniform(-1, 1),
                            rng.uniform(0.5, 2.0), rng.randint(8, 20),
                            ccw=rng.random() < 0.5, phase=rng.uniform(0, TAU))
        p = (rng.uniform(-3, 3), rng.uniform(-3, 3))
        try:
            mine = ss.ind(lp, p)
        except PointOnCurve:
            return
        assert mine == winding_oracle(lp, p)

    @staticmethod
    def outcome(fn, loop, p):
        try:
            return fn(loop, p)
        except (PointOnCurve, OverflowError, ValueError) as exc:
            # the oracle's _orient exact fallback rejects an infinite or NaN point
            return (type(exc), str(exc))

    @pytest.mark.parametrize("shift", [0.0, 1e6, 1e9, 1e12])
    def test_box_filter_matches_oracle(self, shift):
        # probes at and around the coincidence tolerance from segment
        # interiors and vertices: the filter skips no segment whose
        # distance test would fire, at any offset of the coordinates
        tol = ss.geometry.COINCIDENCE_TOL
        rng = random.Random(int(shift) % 1000 + 3)
        dists = (0.0, tol / 2, tol, tol * (1 - 1e-6), tol * (1 + 1e-6), 2 * tol, 1e-6)
        tally = {"raised": 0, "counted": 0}
        for _ in range(12):
            pts = [(x + shift, y - shift) for x, y in scan_polygon(rng, 16)]
            try:
                lp = polygon(pts)
            except DegenerateGeometry:
                continue  # rounding to 0.1 made a zero-length segment
            for (ax, ay), (bx, by) in zip(lp.planar, lp.planar[1:]):
                dx, dy = bx - ax, by - ay
                norm = math.hypot(dx, dy)
                nx, ny = -dy / norm, dx / norm
                bases = [((ax + t * dx, ay + t * dy), (nx, ny)) for t in (0.5, rng.random())]
                a = rng.uniform(0, TAU)
                bases.append(((ax, ay), (math.cos(a), math.sin(a))))
                for (qx, qy), (ux, uy) in bases:
                    for d in dists:
                        for sign in (1, -1):
                            p = (qx + sign * d * ux, qy + sign * d * uy)
                            got = self.outcome(ss.ind, lp, p)
                            assert got == self.outcome(ind_oracle, lp, p)
                            tally["counted" if isinstance(got, int) else "raised"] += 1
        assert min(tally.values()) >= 100, tally

    def test_box_filter_on_mixed_magnitudes(self):
        # segments from near the origin to 1e12: b - a rounds, so
        # _seg_point_dist places its nearest point up to an ulp of 1e12
        # outside the segment's box; probes there and at the rounded
        # far ends must still be tested
        rng = random.Random(5)
        for _ in range(200):
            big = (rng.uniform(0.5, 1.0) * 1e12, rng.uniform(0.5, 1.0) * 1e12)
            pts = [big, (rng.uniform(-1, 1), rng.uniform(-2, -1)),
                   (rng.uniform(1, 2), rng.uniform(-1, 1))]
            lp = polygon(pts)
            for (ax, ay), (bx, by) in zip(lp.planar, lp.planar[1:]):
                dx, dy = bx - ax, by - ay
                for t in (1.0, 1.0 - 2 ** -53, 0.5 ** 40, 0.0):
                    for ex, ey in ((0, 0), (1e-4, 0), (0, -1e-4), (-1e-4, 1e-4)):
                        p = (ax + t * dx + ex, ay + t * dy + ey)
                        assert self.outcome(ss.ind, lp, p) == self.outcome(ind_oracle, lp, p)

    def test_box_filter_on_extreme_inputs(self):
        # coordinates near the float limit, and a vertical loop, whose boxes
        # are its base point; ind rejects an infinite or NaN probe up front,
        # where the oracle returns a winding number or fails in _orient
        loops = [polygon_circle(0, 0, 1.0, 16),
                 ss.make_loop([(1e308, 0, 0), (-1e308, 1e308, 0), (-1e308, -1e308, 0),
                               (1e308, 0, 0)]),
                 ss.make_loop([(1, 2, 0.2), (1, 2, 3.2), (1, 2, 0.2 + TAU)], vertical=True)]
        values = (0.0, 1.0, -1.0, 2.0, 1e-320, 1e308, -1e308, math.inf, -math.inf, math.nan)
        oracle = {"int": 0, "OverflowError": 0, "ValueError": 0}
        for lp in loops:
            for p in itertools.product(values, repeat=2):
                expected = self.outcome(ind_oracle, lp, p)
                if all(map(math.isfinite, p)):
                    assert self.outcome(ss.ind, lp, p) == expected
                    continue
                oracle["int" if isinstance(expected, int) else expected[0].__name__] += 1
                with pytest.raises(PreconditionError,
                                   match=re.escape(f"point {(float(p[0]), float(p[1]))} "
                                                   "is not finite")):
                    ss.ind(lp, p)
        assert oracle == {"int": 126, "OverflowError": 18, "ValueError": 9}

    def test_refinement_invariant(self):
        lp = polygon_circle(0, 0, 1.0, 12, phase=0.3)
        # insert the midpoint of every segment: same curve, same winding
        verts = []
        for i in range(lp.nseg):
            a, b = lp.vertices[i], lp.vertices[i + 1]
            verts.append(a)
            verts.append(tuple((ai + bi) / 2.0 for ai, bi in zip(a, b)))
        verts.append(lp.vertices[-1])
        refined = ss.make_loop(verts)
        for p in ((0.0, 0.0), (0.3, -0.4), (2.0, 1.0), (-1.5, 0.2)):
            assert ss.ind(lp, p) == ss.ind(refined, p)


class TestFaceComplex:
    def test_one_circle(self):
        link = ss.Link((polygon_circle(0, 0, 1, phase=0.1),), t0=0.0, level=1)
        fc = ss.face_complex(link)
        assert sorted(fc.chi) == [1, 1]
        assert fc.chi[fc.outer] == 1

    def test_two_nested(self):
        link = ss.Link((polygon_circle(0, 0, 1, phase=0.1),
                        polygon_circle(0, 0, 0.4, 14, phase=0.2)), t0=0.0, level=1)
        fc = ss.face_complex(link)
        assert fc.chi[fc.outer] == 1
        assert fc.chi[0] == 0    # annulus between the two circles
        assert fc.chi[1] == 1    # inner disk
        assert sum(fc.chi) == 2

    def test_two_disjoint(self):
        link = ss.Link((polygon_circle(0, 0, 1, phase=0.1),
                        polygon_circle(3, 0, 1, 14, phase=0.2)), t0=0.0, level=1)
        fc = ss.face_complex(link)
        assert fc.chi[fc.outer] == 0
        assert sum(fc.chi) == 2

    def test_rejects_double_points(self):
        a = polygon_circle(0, 0, 1.0, 16, theta0=0.4, phase=0.13)
        b = polygon_circle(1.0, 0.1, 1.0, 14, theta0=1.3, phase=0.31)
        with pytest.raises(HasDoublePoints):
            ss.face_complex(ss.Link((a, b), t0=0.0, level=1))

    def test_rejects_inadmissible_link(self):
        link = tangential_t0_link()
        assert not ss.validate(link).double_points
        with pytest.raises(PreconditionError, match="admissibility"):
            ss.face_complex(link)

    def test_ind_left_minus_right_is_one(self):
        rng = random.Random(21)
        for _ in range(20):
            link = random_dpfree_link(rng, max_loops=5, level=1)
            fc = ss.face_complex(link)
            for j in range(len(link.loops)):
                left, right = fc.loop_sides[j]
                assert fc.ind_table[left][j] - fc.ind_table[right][j] == 1

    def test_chi_sums_to_two_randomized(self):
        rng = random.Random(22)
        for _ in range(30):
            link = random_dpfree_link(rng, max_loops=5, level=1)
            fc = ss.face_complex(link)
            assert sum(fc.chi) == 2

    def test_matches_explicit_forest_oracle(self):
        rng = random.Random(11)
        deep = 0
        for _ in range(600):
            link = random_dpfree_link(rng, max_loops=9, level=1)
            fc = ss.face_complex(link)
            gleams = ss.gleams_dpfree(link, fc)
            faces, ind_table, loop_sides, outer, parent, oracle_gleams = face_complex_oracle(link)
            assert tuple(enumerate(fc.chi)) == faces
            assert fc.ind_table == ind_table
            assert fc.loop_sides == loop_sides
            assert fc.outer == outer
            assert fc.parent == parent
            assert gleams == oracle_gleams
            assert sum(fc.chi) == 2
            assert sum(gleams) == 0
            deep += any(p is not None and parent[p] is not None for p in parent)
        assert deep > 100  # many forests nest three loops deep

    def test_face_of_point_matches_ind_table(self):
        rng = random.Random(23)
        for _ in range(10):
            link = random_dpfree_link(rng, max_loops=4, level=1)
            fc = ss.face_complex(link)
            for f in range(len(fc.chi)):
                p = sample_point_oracle(link, fc, f)
                assert face_of_point_oracle(link, fc, p) == f
                for j, lp in enumerate(link.loops):
                    assert ss.ind(lp, p) == fc.ind_table[f][j]


class TestGleams:
    def test_wind_zero_all_zero(self):
        link = ss.Link((polygon_circle(0, 0, 1, winding=0, phase=0.1),), t0=0.0, level=1)
        fc = ss.face_complex(link)
        assert ss.gleams_dpfree(link, fc) == (0, 0)

    def test_wind_one_inside_plus(self):
        link = ss.Link((polygon_circle(0, 0, 1, winding=1, phase=0.1),), t0=0.0, level=1)
        fc = ss.face_complex(link)
        gleams = ss.gleams_dpfree(link, fc)
        assert gleams[0] == 1          # inner face of the ccw circle
        assert gleams[fc.outer] == -1

    def test_nested_pair_hand_count(self):
        link = ss.Link((polygon_circle(0, 0, 1, winding=1, phase=0.1),
                        polygon_circle(0, 0, 0.4, 14, winding=-1, phase=0.2)),
                       t0=0.0, level=1)
        fc = ss.face_complex(link)
        gleams = ss.gleams_dpfree(link, fc)
        assert gleams[fc.outer] == -1  # outer boundary only sees loop 0 from outside
        assert gleams[0] == 2          # annulus: +1 from loop 0, +1 from reversed loop 1
        assert gleams[1] == -1         # inner disk: loop 1 from inside, wind -1

    def test_matches_probe_oracle(self):
        rng = random.Random(31)
        for _ in range(15):
            link = random_dpfree_link(rng, max_loops=4, level=1)
            fc = ss.face_complex(link)
            gleams = ss.gleams_dpfree(link, fc)
            oracle = [0] * len(fc.chi)
            for j, lp in enumerate(link.loops):
                w = ss.winding_s1(lp)
                a, b = lp.planar[0], lp.planar[1]
                mx, my = (a[0] + b[0]) / 2, (a[1] + b[1]) / 2
                dx, dy = b[0] - a[0], b[1] - a[1]
                nrm = math.hypot(dx, dy)
                delta = 0.05 * nrm
                p_left = (mx - delta * dy / nrm, my + delta * dx / nrm)
                p_right = (mx + delta * dy / nrm, my - delta * dx / nrm)
                oracle[face_of_point_oracle(link, fc, p_left)] += w
                oracle[face_of_point_oracle(link, fc, p_right)] -= w
            assert list(gleams) == oracle
