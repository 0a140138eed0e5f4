import cmath
import math
import random

import pytest
from conftest import small_offset_self_link_oracle, tangential_t0_link
from hypothesis import assume, given, reject, settings, strategies as st

import shadowsum as ss
import shadowsum.evaluators
import shadowsum.geometry
import shadowsum.linking
from shadowsum.errors import (
    InvariantViolation,
    OffsetTooLarge,
    PreconditionError,
    ShadowsumError,
)
from shadowsum.geometry import COINCIDENCE_TOL
from shadowsum.random_links import narrow_gap, polygon_circle, self_crossing_loop

TAU = 2 * math.pi


def distant_pair(level=2):
    a = polygon_circle(0, 0, 1.0, 16, theta0=0.3, phase=0.1)
    b = polygon_circle(5, 0, 1.0, 14, theta0=1.0, phase=0.2)
    return ss.Link((a, b), t0=0.0, level=level)


def hopf_link(level=2):
    a = polygon_circle(0, 0, 1.0, 24, theta0=0.5, phase=0.13)
    b = polygon_circle(1.0, 0.0, 1.0, 22, phase=0.31,
                       theta_fn=lambda u: 0.55 + 0.35 * math.sin(TAU * u))
    return ss.Link((a, b), t0=0.0, level=level)


@pytest.fixture
def mark_side_point_calls(monkeypatch):
    """The crossing marks passed to `mark_side_points` by the evaluators."""
    calls = []
    real = shadowsum.evaluators.mark_side_points

    def counting(link, mark):
        calls.append(mark)
        return real(link, mark)

    monkeypatch.setattr(shadowsum.evaluators, "mark_side_points", counting)
    return calls


class TestAbelian:
    def test_distant_unlinked(self):
        assert ss.wlo_abelian(distant_pair()) == pytest.approx(1.0)

    def test_wind_one_gives_exact_zero(self):
        lp = polygon_circle(0, 0, 1.0, 16, winding=1, theta0=0.5, phase=0.1)
        link = ss.Link((lp,), t0=0.0, level=1)
        assert ss.wlo_abelian(link) == 0

    def test_hopf_level_two(self):
        assert ss.wlo_abelian(hopf_link(2)) == pytest.approx(-1.0)

    def test_unit_modulus_when_nonzero(self):
        val = ss.wlo_abelian(hopf_link(3))
        assert abs(val) == pytest.approx(1.0)

    def test_vertical_rejected(self):
        lp = ss.make_loop([(0, 0, 0.0), (0, 0, 3.0), (0, 0, TAU)], vertical=True)
        with pytest.raises(PreconditionError):
            ss.wlo_abelian(ss.Link((lp,), t0=0.5, level=1))

    @pytest.mark.parametrize("pts, lifts, level, sl", [
        ([(0, 0), (4, 0), (1, 3)], (1.0, 7.5, 3.0), 5, 0),  # counterclockwise
        ([(0, 0), (1, 3), (4, 0)], (1.0, 7.5, 3.0), 5, 0),  # clockwise
        ([(0, 0), (5, 0), (4.5, 0.4)], (0.5, 3.0, 8.0), 5, 0),  # obtuse
        ([(math.cos(math.pi / 2 + 2 * TAU * i / 5), math.sin(math.pi / 2 + 2 * TAU * i / 5))
          for i in range(5)], [1 + 0.8 * math.sin(TAU * i / 5 + 0.3) for i in range(5)], 5, 1),
        ([(math.cos(0.2 + 3 * TAU * i / 7), math.sin(0.2 + 3 * TAU * i / 7)) for i in range(7)],
         [1 + 0.8 * math.sin(TAU * i / 7 + 0.3) for i in range(7)], 7, 2),
    ], ids=["ccw-triangle", "cw-triangle", "obtuse-triangle", "pentagram", "star-7-3"])
    def test_no_two_segments_miss_each_other(self, pts, lifts, level, sl):
        # every non-adjacent segment pair crosses, so the push-off is sized
        # by the least distance from a vertex to a segment it does not bound
        verts = [(x, y, t) for (x, y), t in zip(pts, lifts)]
        link = ss.Link((ss.make_loop(verts + verts[:1]),), t0=0.0, level=level)
        report = ss.validate(link)
        expected = cmath.exp(1j * math.pi * sl / level)
        assert report.ok
        assert ss.wlo_abelian_intermediate(link, report) == pytest.approx(expected, abs=1e-9)
        assert ss.wlo_abelian(link) == pytest.approx(expected, abs=1e-9)


class TestAbelianIntermediate:
    def test_no_marks_reduces_to_lk_product(self):
        # all circle coordinates avoid t0, so only the crossing pairings
        # remain: the Hopf pair's two orders
        link = hopf_link(3)
        expected = 2 * ss.lk(ss.crossings_between(*link.loops), link.t0)
        assert abs(expected) == 2
        assert ss.wlo_abelian_intermediate(link, ss.validate(link)) == pytest.approx(
            cmath.exp(1j * math.pi * float(expected) / link.level))

    def test_matches_abelian_on_corpus(self, corpus_dir):
        for name in ("hopf", "concentric", "oscillating_circle", "three_chain", "figure8"):
            link = ss.load_link(corpus_dir / f"{name}.link.json")
            a = ss.wlo_abelian(link)
            b = ss.wlo_abelian_intermediate(link, ss.validate(link))
            assert a == pytest.approx(b, abs=1e-10), name

    def test_side_points_once_per_mark(self, corpus_dir, mark_side_point_calls):
        # two loops and two crossing marks: one probe pair per mark, not
        # one per (loop, mark)
        link = ss.load_link(corpus_dir / "nested_pair.link.json")
        marks = ss.crossing_marks(link)
        assert len(link.loops) == 2 and len(marks) == 2
        ss.wlo_abelian_intermediate(link, ss.validate(link))
        assert list(mark_side_point_calls) == list(marks)

    def test_wind_one_gives_exact_zero(self):
        lp = polygon_circle(0, 0, 1.0, 16, winding=1, theta0=0.5, phase=0.1)
        link = ss.Link((lp,), t0=0.0, level=1)
        assert ss.wlo_abelian_intermediate(link, ss.validate(link)) == 0

    def test_inadmissible_report_rejected(self):
        link = tangential_t0_link()
        report = ss.validate(link)
        assert not report.ok
        with pytest.raises(PreconditionError):
            ss.wlo_abelian_intermediate(link, report)

    def test_reads_only_the_report(self, corpus_dir, monkeypatch):
        # no push-off, no clearance and no segment sweep: the crossing
        # terms come from the report's double points
        calls = []
        modules = (ss, shadowsum.evaluators, shadowsum.geometry, shadowsum.linking)
        for module, name in ((shadowsum.linking, "pushoff"),
                             (shadowsum.geometry, "loop_min_clearance"),
                             (shadowsum.geometry, "_segment_sweep")):
            real = getattr(module, name)

            def counting(*args, name=name, real=real, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            for mod in modules:
                if getattr(mod, name, None) is real:
                    monkeypatch.setattr(mod, name, counting)
        for name in ("hopf", "figure8", "three_chain"):
            link = ss.load_link(corpus_dir / f"{name}.link.json")
            report = ss.validate(link)
            assert report.double_points and calls.count("_segment_sweep") > 0, name
            calls.clear()
            ss.wlo_abelian_intermediate(link, report)
            assert calls == [], name
        ss.wlo_abelian(link)
        assert {"pushoff", "loop_min_clearance", "_segment_sweep"} <= set(calls)

    def test_self_crossing_loops_match_small_offset_oracle(self):
        # seeded self-crossing loops: both routes equal the small-offset
        # limit, which a push-off at clearance / 6 misses on some of them
        rng = random.Random(1)
        checked = missed = 0
        for _ in range(80):
            loop = self_crossing_loop(rng)
            link = ss.Link((loop,), t0=0.0, level=97)
            report = ss.validate(link)
            sl = small_offset_self_link_oracle(loop, link.t0)
            if not (report.ok and report.double_points) or sl is None:
                continue
            checked += 1
            expected = cmath.exp(1j * math.pi * sl / link.level)
            assert ss.wlo_abelian_intermediate(link, report) == pytest.approx(expected, abs=1e-9)
            assert ss.wlo_abelian(link) == pytest.approx(expected, abs=1e-9)
            offset = shadowsum.geometry.loop_min_clearance(loop) / 6
            try:
                pushed = ss.link_number(loop, *ss.pushoff(loop, offset), link.t0)
            except ShadowsumError:
                pushed = None
            missed += pushed != sl
        assert checked >= 60 and missed >= 1, (checked, missed)

    def test_fixed_loops_match_small_offset_oracle(self):
        # draw 2633 of the seed-1 stream turns by 170 degrees at a vertex,
        # and the miter there carried a push-off at clearance / 6 or / 12
        # past the other strand's circle coordinate (self-linking 2); the
        # first draw with its crossing's gap narrowed to 1e-3 rad gave 3.
        # The small-offset limit is 1 on both
        rng = random.Random(1)
        draws = [self_crossing_loop(rng) for _ in range(2634)]
        for loop in (draws[2633], narrow_gap(draws[0], 1e-3)):
            link = ss.Link((loop,), t0=0.0, level=97)
            report = ss.validate(link)
            assert report.ok and small_offset_self_link_oracle(loop, link.t0) == 1
            expected = cmath.exp(1j * math.pi / link.level)
            assert ss.self_link(loop, link.t0) == 1
            assert ss.wlo_abelian(link) == pytest.approx(expected, abs=1e-9)
            assert ss.wlo_abelian_intermediate(link, report) == pytest.approx(expected, abs=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(-5.0, -2.0), st.booleans())
    def test_small_gaps_match_small_offset_oracle(self, seed, log_gap, below):
        # gaps of 1e-5 to 1e-2 rad: a push-off at clearance / 6 often
        # carries the crossing past the other strand's circle coordinate,
        # the oracle's far smaller offsets do not from 3e-4 rad on (at
        # 1.8e-4 rad one loop with a sharp turn misleads them).  Below that
        # the crossing-mark route is the reference, and `wlo_abelian`
        # may take its documented exit: its offset falls under the
        # coincidence tolerance, the push-off lies that close to the loop,
        # and `pushoff` raises OffsetTooLarge
        loop = self_crossing_loop(random.Random(seed))
        assume(loop.self_crossings)
        gap = 10.0 ** log_gap
        try:
            loop = narrow_gap(loop, -gap if below else gap)
            link = ss.Link((loop,), t0=0.0, level=97)
            report = ss.validate(link)
        except ShadowsumError:
            reject()
        assume(report.ok)
        if gap >= 3e-4:
            sl = small_offset_self_link_oracle(loop, link.t0)
            assume(sl is not None)
            expected = cmath.exp(1j * math.pi * sl / link.level)
            assert ss.wlo_abelian_intermediate(link, report) == pytest.approx(
                expected, abs=1e-9)
        else:
            expected = ss.wlo_abelian_intermediate(link, report)
        try:
            assert ss.wlo_abelian(link) == pytest.approx(expected, abs=1e-9)
        except OffsetTooLarge:
            # the offset vertices lie the offset from their segments' lines
            assert shadowsum.linking._framing_offset(loop) < 2 * COINCIDENCE_TOL

        # with a far, unlinked partner whose lift crosses t0, listed after
        # the loop and then before it: each route gives the same value in
        # both orders, the crossing-mark route the reference value
        partner = polygon_circle(10.0, 0.0, 1.0, 16, phase=0.1,
                                 theta_fn=lambda u: 0.4 + 0.8 * math.sin(TAU * u))
        pair = ss.Link((loop, partner), t0=0.0, level=97)
        swapped = ss.Link((partner, loop), t0=0.0, level=97)

        def outcome(route, link):
            try:
                return route(link)
            except ShadowsumError as exc:
                return type(exc)

        for route in (ss.wlo_abelian,
                      lambda link: ss.wlo_abelian_intermediate(link, ss.validate(link))):
            assert outcome(route, swapped) == outcome(route, pair)
        assert ss.wlo_abelian_intermediate(swapped, ss.validate(swapped)) == pytest.approx(
            expected, abs=1e-9)


class TestVertical:
    def test_no_loops_torus(self):
        for k in range(1, 8):
            assert ss.wlo_vertical(k, 1) == k + 1

    def test_fundamental_loop_vanishes(self):
        for k in range(1, 13):
            assert ss.wlo_vertical(k, 0, (2,)) == pytest.approx(0.0, abs=1e-12)

    def test_level_two_sphere(self):
        assert ss.wlo_vertical(2, 0) == pytest.approx(2.0, abs=1e-12)

    def test_half_rbar_identity(self):
        for k in range(1, 13):
            brute = sum(math.sin(l * math.pi / (k + 2)) ** 2 for l in range(1, k + 2))
            assert ss.wlo_vertical(k, 0) == pytest.approx(brute, abs=1e-12)
            assert ss.wlo_vertical(k, 0) == pytest.approx((k + 2) / 2, abs=1e-10)

    def test_dims_permutation_invariance(self):
        rng = random.Random(44)
        for _ in range(10):
            k = rng.randint(2, 8)
            dims = [rng.randint(1, k + 1) for _ in range(rng.randint(2, 4))]
            a = ss.wlo_vertical(k, 0, tuple(dims))
            rng.shuffle(dims)
            b = ss.wlo_vertical(k, 0, tuple(dims))
            assert abs(a) == pytest.approx(abs(b), abs=1e-10)

    def test_reflection_golden_table(self):
        # frozen values for d -> (k+2) - d at k = 3 (rbar = 5), genus 0
        table = {
            (3, (2,)): 0.0,
            (3, (3,)): ss.wlo_vertical(3, 0, (3,)),
            (3, (2, 2)): ss.wlo_vertical(3, 0, (2, 2)),
        }
        assert table[(3, (2,))] == pytest.approx(0.0, abs=1e-12)
        # reflection d=2 -> d=3 flips the sign of each term's character factor
        assert ss.wlo_vertical(3, 0, (3,)) == pytest.approx(
            sum(math.sin(3 * l * math.pi / 5) * math.sin(l * math.pi / 5)
                for l in range(1, 5)), abs=1e-12)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            ss.wlo_vertical(0, 0)
        with pytest.raises(ValueError):
            ss.wlo_vertical(2, -1)
        with pytest.raises(ValueError):
            ss.wlo_vertical(2, 0, (0,))


@pytest.mark.parametrize("make, error", [
    (lambda: ss.Level(True), ValueError),
    (lambda: ss.Link((), level=True), InvariantViolation),
    (lambda: ss.wlo_vertical(True, 0), ValueError),
    (lambda: ss.wlo_vertical(2, True), ValueError),
    (lambda: ss.wlo_vertical(2, 0, (True,)), ValueError),
], ids=["Level", "Link", "wlo_vertical-k", "wlo_vertical-genus", "wlo_vertical-dims"])
def test_bool_is_no_level_genus_or_dimension(make, error):
    # bool is a subclass of int: unchecked, True would evaluate as 1
    with pytest.raises(error):
        make()
