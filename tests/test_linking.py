import math
import random
from collections import Counter
from fractions import Fraction

import pytest

import shadowsum as ss
import shadowsum.linking
from shadowsum.errors import (
    DegenerateGeometry,
    NotNullHomologous,
    OffsetTooLarge,
    TangentialCrossing,
)
from shadowsum.geometry import DoublePoint, _unit, loop_min_clearance
from shadowsum.random_links import polygon_circle, random_crossing_pair, self_crossing_loop

from conftest import diagram_linking_oracle, proper_crossings_oracle

TAU = 2 * math.pi


def hopf_pair():
    a = polygon_circle(0, 0, 1.0, 24, theta0=0.5, phase=0.13)
    b = polygon_circle(1.0, 0.0, 1.0, 22, phase=0.31,
                       theta_fn=lambda u: 0.55 + 0.35 * math.sin(TAU * u))
    return a, b


class TestLK:
    def test_concentric_no_crossings(self):
        a = polygon_circle(0, 0, 1.0, 16, theta0=0.3, phase=0.1)
        b = polygon_circle(0, 0, 2.0, 18, theta0=1.0, phase=0.2)
        assert ss.lk(ss.crossings_between(a, b), 0.0) == 0

    def test_two_crossings_cancel(self):
        # constant circle coordinates: both crossings carry the same order
        # sign but opposite planar signs
        a = polygon_circle(0, 0, 1.0, 16, theta0=0.3, phase=0.13)
        b = polygon_circle(1.0, 0.1, 1.0, 14, theta0=1.0, phase=0.31)
        assert ss.lk(ss.crossings_between(a, b), 0.0) == 0

    def test_hopf_is_unit(self):
        a, b = hopf_pair()
        assert abs(ss.lk(ss.crossings_between(a, b), 0.0)) == 1

    def test_symmetric(self):
        rng = random.Random(4)
        for _ in range(15):
            link = random_crossing_pair(rng)
            if not ss.validate(link).ok:
                continue
            a, b = link.loops
            assert (ss.lk(ss.crossings_between(a, b), link.t0)
                    == ss.lk(ss.crossings_between(b, a), link.t0))

    def test_half_integrality(self):
        rng = random.Random(5)
        for _ in range(15):
            link = random_crossing_pair(rng)
            if not ss.validate(link).ok:
                continue
            val = ss.lk(ss.crossings_between(*link.loops), link.t0)
            assert (2 * val).denominator == 1


class TestLinkNumber:
    def test_reduces_to_lk_away_from_t0(self):
        a, b = hopf_pair()
        crossings = ss.crossings_between(a, b)
        assert ss.link_number(a, b, crossings, 0.0) == ss.lk(crossings, 0.0)

    def test_hopf_matches_diagram_oracle(self):
        a, b = hopf_pair()
        val = ss.link_number(a, b, ss.crossings_between(a, b), 0.0)
        assert val in (-1, 1)
        assert val == diagram_linking_oracle((a, b), 0.0)

    def test_distant_loops_unlinked(self):
        a = polygon_circle(0, 0, 1.0, 16, theta0=0.3, phase=0.1)
        b = polygon_circle(5, 0, 1.0, 14, theta0=1.0, phase=0.2)
        assert ss.link_number(a, b, ss.crossings_between(a, b), 0.0) == 0

    def test_t0_invariance(self):
        a, b = hopf_pair()
        rng = random.Random(6)
        crossings = ss.crossings_between(a, b)
        values = set()
        for _ in range(40):
            t0 = rng.uniform(0.0, TAU - 1e-6)
            if not ss.validate(ss.Link((a, b), t0=t0, level=2)).ok:
                continue
            values.add(ss.link_number(a, b, crossings, t0))
        assert len(values) == 1

    def test_requires_null_homologous(self):
        a = polygon_circle(0, 0, 1.0, 16, winding=1, theta0=0.3, phase=0.1)
        b = polygon_circle(5, 0, 1.0, 14, theta0=1.0, phase=0.2)
        with pytest.raises(NotNullHomologous):
            ss.link_number(a, b, ss.crossings_between(a, b), 0.0)

    def test_tangential_lift_names_its_loop(self):
        # the second loop's lift 1 - cos touches t0 = 0 at parameter 0;
        # crossing_marks on the same link also names loop 1
        a = polygon_circle(5, 0, 1.0, 14, theta0=1.0)
        b = polygon_circle(0, 0, 1.0, 16, theta_fn=lambda u: 1 - math.cos(TAU * u))
        message = "loop 1: tangential lift at parameter 0.0"
        with pytest.raises(TangentialCrossing, match=message):
            ss.link_number(a, b, ss.crossings_between(a, b), 0.0)
        with pytest.raises(TangentialCrossing, match=message):
            ss.crossing_marks(ss.Link((a, b), t0=0.0, level=1))

    def test_integral_on_random_pairs(self):
        rng = random.Random(7)
        done = 0
        while done < 20:
            link = random_crossing_pair(rng)
            if not ss.validate(link).ok:
                continue
            done += 1
            a, b = link.loops
            val = ss.link_number(a, b, ss.crossings_between(a, b), link.t0)
            assert isinstance(val, int)


class TestPushoff:
    def test_circle_offset_inward(self):
        lp = polygon_circle(0, 0, 1.0, 24, theta0=0.4, phase=0.1)
        off, crossings = ss.pushoff(lp, 0.01)
        # ccw circle: left is the inside, so radii shrink
        for (x, y, t), (ox, oy, ot) in zip(lp.vertices, off.vertices):
            assert math.hypot(ox, oy) == pytest.approx(math.hypot(x, y) - 0.01, abs=1e-3)
            assert ot == t
        assert crossings == ss.crossings_between(lp, off) == ()

    def test_cw_offset_outward(self):
        lp = polygon_circle(0, 0, 1.0, 24, theta0=0.4, ccw=False, phase=0.1)
        off, _ = ss.pushoff(lp, 0.01)
        assert math.hypot(*off.planar[0]) == pytest.approx(1.01, abs=1e-3)

    def test_segment_frames_match_hypot_and_unit(self):
        # what the clearance, the framing offset and the push-off read:
        # each segment's hypot length (`lengths`) and `_unit` vector
        # (`segment_frames`), to the bit, and None for a zero-length
        # segment, where `_unit` raises
        rng = random.Random(31)
        for _ in range(200):
            lp = self_crossing_loop(rng)
            assert len(lp.lengths) == len(lp.segment_frames) == lp.nseg
            for (a, b), n, u in zip(zip(lp.planar, lp.planar[1:]), lp.lengths,
                                    lp.segment_frames):
                d = (b[0] - a[0], b[1] - a[1])
                assert (n.hex(), u[0].hex(), u[1].hex()) == (
                    math.hypot(*d).hex(), *(c.hex() for c in _unit(d)))
        folded = ss.Loop(((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0),
                          (0.0, 0.0, 0.0)))
        r = math.hypot(-1.0, 1.0)
        assert folded.lengths == (1.0, 0.0, r, 1.0)
        assert folded.segment_frames == ((1.0, 0.0), None, (-1.0 / r, 1.0 / r), (0.0, -1.0))

    def test_offset_too_large(self):
        lp = polygon_circle(0, 0, 1.0, 24, theta0=0.4, phase=0.1)
        with pytest.raises(OffsetTooLarge):
            ss.pushoff(lp, loop_min_clearance(lp) / 2.0)


def grid_polygon(rng):
    """4-12 vertices on a small integer grid: a walk of axis-parallel and
    diagonal steps, closed by a last segment of any slope.  Offsets by 0.5
    to 2 move corners between axis-parallel steps exactly, onto other
    segments and onto the lines of diagonal ones."""
    x, y = rng.randint(0, 6), rng.randint(0, 6)
    pts = [(x, y)]
    for _ in range(rng.randint(3, 11)):
        r = rng.choice((-2, -1, 1, 2))
        kind = rng.random()
        if kind < 0.35:
            x += r
        elif kind < 0.7:
            y += r
        else:
            x, y = x + r, y + rng.choice((-r, r))
        pts.append((x, y))
    return pts


def offset_crossings_oracle(l, off, tally):
    """`pushoff`'s checks on the offset loop `off` with all-pairs scans:
    the offset's own pairs, then its pairs with `l`; the records as
    `validate_oracle` builds them."""
    try:
        if proper_crossings_oracle(off, off, True, tally) and not l.self_crossings:
            raise OffsetTooLarge("offset curve of a simple projection self-intersects")
        pairs = proper_crossings_oracle(l, off, False, tally)
    except DegenerateGeometry as exc:
        raise OffsetTooLarge(f"offset curve degenerates: {exc}") from exc
    out = []
    for si, sj, ta, tb, pt, sign in pairs:
        ua, ub = float((si + ta) / l.nseg), float((sj + tb) / off.nseg)
        out.append(DoublePoint(pt, ((0, ua), (1, ub)), (l.theta_at(ua), off.theta_at(ub)), sign))
    return tuple(out)


class TestPushoffSweep:
    def test_matches_all_pairs_oracle(self, monkeypatch):
        # pushoff's one sweep over the loop and its offset against two
        # all-pairs scans, exceptions included.  The threshold is lifted so
        # that offsets of 0.5 to 2 on the grid meet the loop exactly; the
        # offset's own pairs are checked on self-crossing loops too
        monkeypatch.setattr(shadowsum.linking, "loop_min_clearance", lambda loop: math.inf)
        offsets = []
        real_sweep = shadowsum.linking._segment_sweep

        def sweep(loops, *selves):
            offsets.append(loops[1])
            return real_sweep(loops, *selves)

        monkeypatch.setattr(shadowsum.linking, "_segment_sweep", sweep)
        rng = random.Random(18)
        tally = Counter()
        cases = 0
        while cases < 400:
            pts = grid_polygon(rng) if rng.random() < 0.8 else [
                (rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(rng.randint(3, 10))]
            try:
                l = ss.make_loop([(x, y, 0.5) for x, y in pts + pts[:1]])
                l.self_crossings  # pushoff's input has passed validate's scan
            except DegenerateGeometry:
                continue
            cases += 1
            offset = rng.choice((0.5, 1.0, 1.5, 2.0, rng.uniform(1e-3, 0.3)))
            try:
                got = ss.pushoff(l, offset)[1]
            except OffsetTooLarge as exc:
                got = (OffsetTooLarge, str(exc))
            try:
                want = offset_crossings_oracle(l, offsets[-1], tally)
            except OffsetTooLarge as exc:
                want = (OffsetTooLarge, str(exc))
            assert got == want
            tally["degenerate"] += "degenerates" in str(want)
            tally["degenerate, self-crossing loop"] += (
                "degenerates" in str(want) and bool(l.self_crossings))
            tally["crossings"] += bool(want) and want[0] is not OffsetTooLarge
        assert min(tally.values()) >= 20, tally


class TestSelfLink:
    def test_constant_theta_zero(self):
        lp = polygon_circle(0, 0, 1.0, 16, theta0=0.4, phase=0.1)
        assert ss.self_link(lp, 0.0) == 0

    def test_oscillating_circle_zero(self):
        # simple projection: each mark contributes ind_left + ind_right = 1,
        # and the signs sum to the winding 0
        lp = polygon_circle(0, 0, 1.0, 20, phase=0.07,
                            theta_fn=lambda u: 0.3 + 0.5 * math.sin(TAU * u))
        assert ss.self_link(lp, 0.0) == 0

    def test_matches_declared_framing_in_corpus(self, corpus_dir):
        # the values these files declared as their framing while loops
        # carried one
        link = ss.load_link(corpus_dir / "oscillating_circle.link.json")
        assert ss.self_link(link.loops[0], link.t0) == 0
        link = ss.load_link(corpus_dir / "figure8.link.json")
        assert ss.self_link(link.loops[0], link.t0) == 1

    def test_left_right_offset_agree(self):
        lp = polygon_circle(0, 0, 1.0, 20, phase=0.07,
                            theta_fn=lambda u: 0.9 + 1.1 * math.sin(TAU * u))
        delta = loop_min_clearance(lp) / 6.0
        left, left_crossings = ss.pushoff(lp, delta)
        # the miter construction is linear in the offset, so the right
        # push-off is the reflection of the left one through the vertex
        right_verts = tuple(
            (2 * vx - lx, 2 * vy - ly, vt)
            for (vx, vy, vt), (lx, ly, _t) in zip(lp.vertices, left.vertices)
        )
        right = ss.Loop(right_verts, lp.color2, lp.vertical)
        assert (ss.link_number(lp, left, left_crossings, 0.0)
                == ss.link_number(lp, right, ss.crossings_between(lp, right), 0.0))

    def test_figure8_stable(self, corpus_dir):
        link = ss.load_link(corpus_dir / "figure8.link.json")
        lp = link.loops[0]
        val = ss.self_link(lp, link.t0)
        assert isinstance(val, int)


class TestLinkFormIdentity:
    def test_three_loop_decomposition(self, corpus_dir):
        # sum_{j!=k} Link = sum_{j!=k} LK
        #                 - sum_j sum_{marks of other loops} 2 eps ind_j(sigma)
        link = ss.load_link(corpus_dir / "three_chain.link.json")
        loops = link.loops
        t0 = link.t0
        lhs = Fraction(0)
        rhs = Fraction(0)
        for j in range(3):
            for k in range(3):
                if j != k:
                    crossings = ss.crossings_between(loops[j], loops[k])
                    lhs += ss.link_number(loops[j], loops[k], crossings, t0)
                    rhs += ss.lk(crossings, t0)
        marks = ss.crossing_marks(link)
        for j, lp in enumerate(loops):
            for m in marks:
                if m.loop != j:
                    rhs -= 2 * m.eps * ss.ind(lp, m.point)
        assert lhs == rhs

    def test_three_loop_decomposition_randomized(self):
        rng = random.Random(9)
        done = 0
        while done < 8:
            loops = []
            for t in range(3):
                base = rng.uniform(0.3, 5.9)
                amp = rng.uniform(0.2, 1.2)
                ph = rng.uniform(0, TAU)
                loops.append(polygon_circle(
                    1.35 * t, 0.05 * t, 1.0, rng.randint(14, 18),
                    phase=rng.uniform(0, TAU), ccw=rng.random() < 0.5,
                    theta_fn=lambda u, b=base, a=amp, p=ph: b + a * math.sin(TAU * u + p)))
            link = ss.Link(tuple(loops), t0=0.0, level=3)
            if not ss.validate(link).ok:
                continue
            done += 1
            lhs = Fraction(0)
            rhs = Fraction(0)
            for j in range(3):
                for k in range(3):
                    if j != k:
                        crossings = ss.crossings_between(loops[j], loops[k])
                        lhs += ss.link_number(loops[j], loops[k], crossings, link.t0)
                        rhs += ss.lk(crossings, link.t0)
            for j, lp in enumerate(loops):
                for m in ss.crossing_marks(link):
                    if m.loop != j:
                        rhs -= 2 * m.eps * ss.ind(lp, m.point)
            assert lhs == rhs
