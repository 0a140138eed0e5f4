"""Acceptance gate: every criterion runs at its stated tolerance and prints
one PASS line (a failing criterion fails its test)."""

import itertools
import math
import random
from fractions import Fraction

import pytest

import shadowsum as ss
from shadowsum.quantum import Level, quantum_int, sixj, triple_admissible
from shadowsum.random_links import polygon_circle, random_crossing_pair, random_dpfree_link

from conftest import SIXJ_SYMMETRIES, diagram_linking_oracle
from test_quantum import admissible_oracle, pentagon_residual, random_pentagon_tuple
from test_shadow import brute_force_colorings

F = Fraction

LINK_CORPUS = [
    "empty", "circle_w0", "circle_wp1", "circle_wm1", "nested_pair",
    "disjoint_pair", "hopf", "concentric", "oscillating_circle",
    "three_chain", "figure8", "vertical_pair",
]
SHADOW_CORPUS = ["empty.shadow", "circle_w0.shadow", "twocircles.shadow"]


@pytest.fixture(scope="module")
def random_configs():
    """200 randomized double-point-free configurations with <= 5 circles and
    windings in {-2..2}, cycling k through 1..6."""
    rng = random.Random(2024)
    configs = []
    while len(configs) < 200:
        k = 1 + len(configs) % 6
        link = random_dpfree_link(rng, max_loops=5, level=k)
        if not ss.validate(link).ok:
            continue
        configs.append((link, Level(k), ss.face_complex(link)))
    return configs


def test_criterion_1_pairsum_equals_final(random_configs):
    worst = 0.0
    for link, lev, fc in random_configs:
        a = ss.wlo_dpfree_pairsum(link, lev, fc)
        b = ss.wlo_dpfree_final(link, lev, fc)
        scale = max(abs(a), abs(b))
        rel = abs(a - b) / scale if scale > 1e-12 else abs(a - b)
        worst = max(worst, rel)
        assert rel <= 1e-9, (link, lev.k, a, b)
    print(f"ACCEPTANCE 1 PASS: pair-sum equals closed form on 200 configs "
          f"(worst rel {worst:.2e} <= 1e-9)")


def test_criterion_2_bijection(random_configs):
    for link, lev, fc in random_configs:
        report = ss.check_bijection(link, lev, fc)
        assert report.ok, report
        assert report.pairs_count == report.colorings_count
    print("ACCEPTANCE 2 PASS: pair/coloring bijection exact on 200 configs "
          "(zero failures)")


def test_criterion_3_linking(corpus_dir):
    rng = random.Random(77)
    pairs_checked = 0
    while pairs_checked < 6:
        link = random_crossing_pair(rng)
        if not ss.validate(link).ok:
            continue
        pairs_checked += 1
        l, lt = link.loops
        crossings = ss.crossings_between(l, lt)
        values = set()
        samples = 0
        while samples < 32:
            t0 = rng.uniform(0.0, 6.283)
            if not ss.validate(ss.Link((l, lt), t0=t0, level=2)).ok:
                continue
            samples += 1
            val = ss.link_number(l, lt, crossings, t0)
            assert isinstance(val, int)
            values.add(val)
        assert len(values) == 1, values
    hopf = ss.load_link(corpus_dir / "hopf.link.json")
    val = ss.link_number(*hopf.loops, ss.crossings_between(*hopf.loops), hopf.t0)
    oracle = diagram_linking_oracle(hopf.loops, hopf.t0)
    assert val in (-1, 1) and val == oracle
    print(f"ACCEPTANCE 3 PASS: linking number t0-invariant and integral on "
          f"{pairs_checked} random pairs x 32 t0; corpus pair = {val} = oracle")


def test_criterion_4_abelian_cross_path(corpus_dir):
    names = ["hopf", "concentric", "oscillating_circle", "three_chain", "figure8",
             "disjoint_pair", "circle_w0", "empty"]
    worst = 0.0
    for name in names:
        link = ss.load_link(corpus_dir / f"{name}.link.json")
        a = ss.wlo_abelian(link)
        b = ss.wlo_abelian_intermediate(link, ss.validate(link))
        diff = abs(a - b)
        worst = max(worst, diff)
        assert diff <= 1e-9, name
    wind_one = ss.load_link(corpus_dir / "circle_wp1.link.json")
    assert ss.wlo_abelian(wind_one) == 0
    print(f"ACCEPTANCE 4 PASS: abelian routes agree on {len(names)} corpus links "
          f"(worst diff {worst:.2e}); wind-1 loop gives exactly 0")


def test_criterion_5_vertical_identities():
    for k in range(1, 13):
        assert ss.wlo_vertical(k, 0) == pytest.approx((k + 2) / 2, abs=1e-10)
        assert ss.wlo_vertical(k, 0, (2,)) == pytest.approx(0.0, abs=1e-12)
        assert ss.wlo_vertical(k, 1) == k + 1
    print("ACCEPTANCE 5 PASS: vertical identities for k <= 12 "
          "((k+2)/2 at 1e-10, fundamental-loop zero at 1e-12, torus count exact)")


def test_criterion_6_quantum_data():
    for k in range(1, 9):
        lev = Level(k)
        for ts in itertools.product(range(k + 1), repeat=3):
            assert triple_admissible(lev, *(F(t, 2) for t in ts)) == admissible_oracle(k, *ts)
    checked = 0
    for k in range(1, 5):
        lev = Level(k)
        for ts in itertools.product(range(k + 1), repeat=6):
            base = sixj(lev, *(F(t, 2) for t in ts))
            if base == 0.0:
                continue
            checked += 1
            for sym in SIXJ_SYMMETRIES(*ts):
                assert abs(sixj(lev, *(F(t, 2) for t in sym)) - base) <= 1e-12
    rng = random.Random(6)
    worst = 0.0
    for i in range(500):
        k = 1 + i % 6
        lev = Level(k)
        ts = random_pentagon_tuple(rng, k)
        lhs, rhs = pentagon_residual(lev, ts)
        worst = max(worst, abs(lhs - rhs))
        assert abs(lhs - rhs) < 1e-10, (k, ts)
    print(f"ACCEPTANCE 6 PASS: admissibility exhaustive k<=8; tetrahedral "
          f"symmetries exact on {checked} tuples k<=4; pentagon residual "
          f"{worst:.2e} < 1e-10 on 500 tuples")


def test_criterion_7_structure_conservation(corpus_dir, random_configs):
    dpfree_checked = 0
    for name in LINK_CORPUS:
        link = ss.load_link(corpus_dir / f"{name}.link.json")
        if any(lp.vertical for lp in link.loops):
            continue
        if ss.validate(link).double_points:
            continue  # covered by the shadow-file Euler identity below
        fc = ss.face_complex(link)
        assert sum(fc.chi) == 2, name
        dpfree_checked += 1
    assert dpfree_checked >= 6
    from shadowsum.shadow import euler_identity_holds
    for name in SHADOW_CORPUS:
        shadow = ss.load_shadow(corpus_dir / f"{name}.json")
        total = len(shadow.vertices) - len(shadow.edges) + sum(f.chi for f in shadow.faces)
        if shadow.vertices:
            assert total == 2, name
        else:
            assert sum(f.chi for f in shadow.faces) == 2, name
        assert euler_identity_holds(shadow), name
    checked = 0
    for link, lev, fc in random_configs:
        if lev.k > 4 or len(fc.chi) > 4:
            continue
        shadow = ss.shadow_from_dpfree(link, fc)
        assert ss.enumerate_colorings(shadow, lev) == brute_force_colorings(shadow, lev)
        checked += 1
    assert checked >= 20
    print(f"ACCEPTANCE 7 PASS: Euler counts hold on all corpus inputs; "
          f"coloring enumeration matches brute force on {checked} small configs")


def test_criterion_8_golden_values(corpus_dir):
    lev1 = Level(1)
    empty = ss.load_link(corpus_dir / "empty.link.json")
    fc_e = ss.face_complex(empty)
    sh_e = ss.shadow_from_dpfree(empty, fc_e)
    assert ss.state_sum_dpfree(sh_e, lev1) == pytest.approx(2.0, abs=1e-12)

    circle = ss.load_link(corpus_dir / "circle_w0.link.json")
    fc_c = ss.face_complex(circle)
    sh_c = ss.shadow_from_dpfree(circle, fc_c)
    assert ss.state_sum_dpfree(sh_c, lev1) == pytest.approx(-2.0, abs=1e-12)
    assert ss.wlo_dpfree_final(circle, lev1, fc_c) == pytest.approx(-1.5, abs=1e-12)

    hopf = ss.load_link(corpus_dir / "hopf.link.json")
    assert hopf.level == 2
    assert ss.wlo_abelian(hopf) == pytest.approx(-1.0, abs=1e-12)
    print("ACCEPTANCE 8 PASS: golden values (state sums 2 and -2, closed form "
          "-1.5, abelian Hopf -1)")
