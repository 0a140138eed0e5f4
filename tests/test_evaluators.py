import math
import random

import pytest
from hypothesis import given, strategies as st

import shadowsum as ss
import shadowsum.evaluators
from shadowsum.errors import PreconditionError
from shadowsum.random_links import polygon_circle

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


class TestAbelianIntermediate:
    def test_no_marks_reduces_to_lk_product(self):
        link = distant_pair()
        lam = 1.0 / link.level
        # all circle coordinates avoid t0, so only the push-off pairings remain
        expected = 0.0
        for lp in link.loops:
            _, crossings = ss.pushoff(lp, 1e-3)
            expected += float(ss.lk(crossings, link.t0))
        import cmath
        assert ss.wlo_abelian_intermediate(link) == pytest.approx(
            cmath.exp(1j * math.pi * lam * expected))

    def test_matches_abelian_on_corpus(self, corpus_dir):
        for name in ("hopf", "concentric", "oscillating_circle", "three_chain", "figure8"):
            link = ss.load_link(corpus_dir / f"{name}.link.json")
            a = ss.wlo_abelian(link)
            b = ss.wlo_abelian_intermediate(link)
            assert a == pytest.approx(b, abs=1e-10), name

    def test_side_points_once_per_mark(self, corpus_dir, mark_side_point_calls):
        # two loops and two crossing marks: one probe pair per mark, not
        # one per (loop, mark)
        link = ss.load_link(corpus_dir / "nested_pair.link.json")
        marks = ss.crossing_marks(link)
        assert len(link.loops) == 2 and len(marks) == 2
        ss.wlo_abelian_intermediate(link)
        assert list(mark_side_point_calls) == list(marks)

    def test_wind_one_gives_exact_zero(self):
        lp = polygon_circle(0, 0, 1.0, 16, winding=1, theta0=0.5, phase=0.1)
        link = ss.Link((lp,), t0=0.0, level=1)
        assert ss.wlo_abelian_intermediate(link) == 0


class TestConditionalAbelian:
    def test_zero_fields_reduce_to_lk_product(self):
        link = hopf_link(2)
        fields = ss.FieldSample(loop_integrals=(0.0, 0.0))
        lam = 0.5
        base = ss.conditional_wlo_abelian(link, lam, fields)
        import cmath
        expected = cmath.exp(1j * math.pi * lam * float(
            sum((ss.lk(ss.pushoff(link.loops[j], 1e-3)[1], link.t0) for j in range(2)),
                start=ss.lk(ss.crossings_between(*link.loops), link.t0) * 2)))
        assert base == pytest.approx(expected, abs=1e-10)

    def test_all_trivial_gives_one(self):
        link = distant_pair()
        fields = ss.FieldSample(loop_integrals=(0.0, 0.0))
        assert ss.conditional_wlo_abelian(link, 0.5, fields) == pytest.approx(1.0)

    def test_constant_background_counts_windings(self):
        lp = polygon_circle(0, 0, 1.0, 16, winding=2, theta0=0.4, phase=0.1)
        link = ss.Link((lp,), t0=0.0, level=2)
        beta = 0.731
        base = ss.conditional_wlo_abelian(link, 0.5, ss.FieldSample((0.0,)))
        with_b = ss.conditional_wlo_abelian(
            link, 0.5, ss.FieldSample((0.0,), background=lambda x, y: beta))
        import cmath
        total_wind = sum(ss.winding_s1(l) for l in link.loops)
        assert with_b / base == pytest.approx(cmath.exp(1j * beta * total_wind), abs=1e-10)

    def test_line_integrals_enter_as_phases(self):
        link = distant_pair()
        a = ss.conditional_wlo_abelian(link, 0.5, ss.FieldSample((0.2, -0.7)))
        b = ss.conditional_wlo_abelian(link, 0.5, ss.FieldSample((0.0, 0.0)))
        import cmath
        assert a / b == pytest.approx(cmath.exp(1j * (0.2 - 0.7)), abs=1e-12)


class TestCharacter:
    def test_identity_value(self):
        for d in range(1, 7):
            assert ss.character_su2(d, 0.0) == d

    def test_d2_at_half_pi(self):
        assert ss.character_su2(2, math.pi / 2) == pytest.approx(0.0, abs=1e-12)

    def test_continuity_at_pi(self):
        # limit of sin(dx)/sin(x) as x -> pi is d * (-1)^(d-1)
        for d in range(1, 6):
            lim = ss.character_su2(d, math.pi)
            near = math.sin(d * (math.pi - 1e-7)) / math.sin(math.pi - 1e-7)
            assert lim == pytest.approx(near, abs=1e-5)

    @given(st.integers(1, 6), st.floats(-10, 10, allow_nan=False))
    def test_even_function(self, d, x):
        assert ss.character_su2(d, -x) == pytest.approx(ss.character_su2(d, x),
                                                        abs=1e-9, nan_ok=False)

    def test_product_at_zero_fields(self):
        link = distant_pair()
        fields = ss.FieldSample((0.0, 0.0))
        # both loops carry color 1/2, i.e. dimension 2
        assert ss.conditional_holonomy_su2(link, fields) == pytest.approx(4.0)

    def test_single_loop_zero(self):
        lp = polygon_circle(0, 0, 1.0, 16, theta0=0.4, phase=0.1)
        link = ss.Link((lp,), t0=0.0, level=1)
        val = ss.conditional_holonomy_su2(link, ss.FieldSample((math.pi / 2,)))
        assert val == pytest.approx(0.0, abs=1e-12)


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
