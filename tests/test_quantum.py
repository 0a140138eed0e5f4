import itertools
import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from shadowsum.errors import ColorOutOfRange
from shadowsum.quantum import (
    Level,
    _qfactorials,
    _sixj_doubled,
    _u_exponent_doubled,
    _v_dim_doubled,
    doubled,
    quantum_int,
    sixj,
    triple_admissible,
    u_exponent,
    v_dim,
)

from conftest import (
    SIXJ_SYMMETRIES,
    colors,
    doubled_oracle,
    sixj_doubled_oracle,
    u_exponent_oracle,
    v_dim_oracle,
)

F = Fraction
HALF = F(1, 2)


def admissible_oracle(k, ti, tj, tk):
    """Fusion-range membership, written independently of the packaged check."""
    if (ti + tj) % 2 != tk % 2:
        return False
    return tk in range(abs(ti - tj), min(ti + tj, 2 * k - ti - tj) + 1, 2)


class TestWeights:
    def test_u_of_zero_vanishes(self):
        for k in range(1, 7):
            assert u_exponent(Level(k), 0) == 0

    def test_u_half_at_level_one(self):
        # pi*i*(1/2 - (1/2)(3/2)/3) = pi*i/4
        assert u_exponent(Level(1), HALF) == pytest.approx(complex(0, math.pi / 4))

    def test_exp_2u_unit_modulus(self):
        for k in range(1, 7):
            lev = Level(k)
            for j in colors(lev):
                import cmath
                assert abs(cmath.exp(2 * u_exponent(lev, j))) == pytest.approx(1.0)

    def test_v_of_zero(self):
        for k in range(1, 7):
            assert v_dim(Level(k), 0) == pytest.approx(1.0)

    def test_v_half_at_level_one(self):
        # sin(2pi/3) = sin(pi/3), so the signed dimension is exactly -1
        assert v_dim(Level(1), HALF) == pytest.approx(-1.0, abs=1e-12)

    def test_v_mirror_symmetry(self):
        for k in range(1, 9):
            lev = Level(k)
            for t in range(k + 1):
                a = abs(v_dim(lev, F(t, 2)))
                b = abs(v_dim(lev, F(k - t, 2)))
                assert a == pytest.approx(b, abs=1e-12)

    def test_color_range_checked(self):
        with pytest.raises(ColorOutOfRange):
            v_dim(Level(1), 1)
        with pytest.raises(ColorOutOfRange):
            u_exponent(Level(2), F(1, 3))

    def test_level_must_be_positive(self):
        with pytest.raises(ValueError):
            Level(0)


def _outcome(fn, j):
    """fn(j) with its type, or the class and message of what it raised."""
    try:
        value = fn(j)
    except Exception as exc:  # the exception is the outcome
        return type(exc), str(exc)
    return type(value), value


class TestBitIdentity:
    """The weights keep the bits of their exact-Fraction definitions."""

    def test_weights_match_fraction_oracles_to_the_bit(self):
        for k in range(1, 301):
            lev = Level(k)
            for t, spin in enumerate(colors(lev)):
                assert v_dim(lev, spin).hex() == v_dim_oracle(lev, spin).hex(), (k, t)
                u, want = u_exponent(lev, spin), u_exponent_oracle(lev, spin)
                assert (u.real.hex(), u.imag.hex()) == (want.real.hex(), want.imag.hex()), (k, t)

    def test_doubled_kernels_match_fraction_oracles_to_the_bit(self):
        # the kernels the state sums call, on the doubled color itself
        for k in range(1, 301):
            lev = Level(k)
            s1 = math.sin(math.pi / lev.rbar)
            for t in range(k + 1):
                spin = F(t, 2)
                assert _v_dim_doubled(lev.rbar, s1, t).hex() == v_dim_oracle(lev, spin).hex(), \
                    (k, t)
                u, want = _u_exponent_doubled(lev.rbar, t), u_exponent_oracle(lev, spin)
                assert (u.real.hex(), u.imag.hex()) == (want.real.hex(), want.imag.hex()), (k, t)

    def test_sixj_kernel_matches_closure_form_to_the_bit(self):
        # the kernel reads the level's [n]! table, the oracle its own; every
        # 6-tuple of colors, at k <= 3 also with the colors -1/2 and
        # (k+1)/2, which no triad admits
        for k in range(1, 7):
            lev = Level(k)
            qf = _qfactorials(lev, k + 1)
            admissible = 0
            for ts in itertools.product(range(-1, k + 2) if k <= 3 else range(k + 1), repeat=6):
                t1, t2, t3, t4, t5, t6 = ts
                admissible += all(admissible_oracle(k, *triad) for triad in (
                    (t1, t2, t3), (t1, t5, t6), (t4, t2, t6), (t4, t5, t3)))
                assert _sixj_doubled(qf, k, *ts).hex() == sixj_doubled_oracle(lev, *ts).hex(), ts
            assert admissible > 0
        # longer Racah sums, on tuples whose triads (0, 1, 2) and (0, 4, 5)
        # are drawn admissible
        rng = random.Random(17)
        for k in (32, 128, 200):
            lev = Level(k)
            qf = _qfactorials(lev, k + 1)
            for _ in range(500):
                ts = [rng.randint(0, k) for _ in range(6)]
                for a, b, c in ((0, 1, 2), (0, 4, 5)):
                    ta, tb = ts[a], ts[b]
                    fusion = range(abs(ta - tb), min(ta + tb, 2 * k - ta - tb) + 1, 2)
                    ts[c] = rng.choice(fusion) if fusion else 0
                assert _sixj_doubled(qf, k, *ts).hex() == sixj_doubled_oracle(lev, *ts).hex(), ts

    @given(st.one_of(
        st.integers(),
        st.booleans(),
        st.integers().map(lambda n: F(n, 2)),
        st.fractions(),
        st.floats(),
        st.integers().map(lambda n: n / 2),
    ))
    def test_doubled_matches_oracle(self, j):
        assert _outcome(doubled, j) == _outcome(doubled_oracle, j)

    @pytest.mark.parametrize("j", [math.nan, math.inf, -math.inf, None, "1/2"])
    def test_doubled_rejects_what_is_no_finite_number(self, j):
        with pytest.raises(ColorOutOfRange, match="is not a half-integer"):
            doubled(j)


class TestAdmissibility:
    def test_examples(self):
        lev = Level(1)
        assert triple_admissible(lev, HALF, 0, HALF)
        assert not triple_admissible(lev, HALF, HALF, HALF)
        for k in range(1, 9):
            assert triple_admissible(Level(k), 0, 0, 0)

    def test_matches_independent_filter(self):
        for k in range(1, 9):
            lev = Level(k)
            for ti, tj, tk in itertools.product(range(k + 1), repeat=3):
                mine = triple_admissible(lev, F(ti, 2), F(tj, 2), F(tk, 2))
                assert mine == admissible_oracle(k, ti, tj, tk)

    @given(st.integers(1, 8), st.data())
    def test_fully_symmetric(self, k, data):
        ts = [data.draw(st.integers(0, k)) for _ in range(3)]
        lev = Level(k)
        vals = {
            triple_admissible(lev, *(F(t, 2) for t in perm))
            for perm in itertools.permutations(ts)
        }
        assert len(vals) == 1


def _spins(ts):
    return [F(t, 2) for t in ts]


class TestSixJ:
    def test_inadmissible_is_zero(self):
        lev = Level(2)
        assert sixj(lev, HALF, HALF, HALF, 0, 0, 0) == 0.0

    def test_qfactorial_table_grows_on_demand(self, monkeypatch):
        # a huge level builds only the [n]! entries its colors reach, and
        # no level builds past [rbar-1]!
        import shadowsum.quantum

        tables = []

        def recording(level, n):
            tables.append(_qfactorials(level, n))
            return tables[-1]

        monkeypatch.setattr(shadowsum.quantum, "_qfactorials", recording)
        lev = Level(10**7 - 2)
        assert sixj(lev, HALF, HALF, 0, HALF, HALF, 0) != 0.0
        assert tables == [tuple(itertools.accumulate(
            (quantum_int(lev, n) for n in range(1, 4)), operator.mul, initial=1.0))]
        lev = Level(3)  # the triad (3/2, 3/2, 1) sums past k, so the value is 0
        assert sixj(lev, F(3, 2), F(3, 2), 1, F(3, 2), F(3, 2), 1) == 0.0
        assert len(tables[-1]) == lev.rbar
        assert _qfactorials(lev, 100) == _qfactorials(lev, lev.rbar - 1)
        assert _qfactorials(lev, 0) == (1.0,)

    def test_evaluation_order_immaterial(self):
        # the table grows at different points when the same symbols come in
        # another order; every value must come out bit for bit the same
        rng = random.Random(8)
        for k in (4, 32, 200):
            ts_list = []
            while len(ts_list) < 40:
                ts = [rng.randint(0, k) for _ in range(6)]
                # draw the third color of two triads from their fusion ranges
                for a, b, c in ((0, 1, 2), (0, 4, 5)):
                    ta, tb = ts[a], ts[b]
                    fusion = range(abs(ta - tb), min(ta + tb, 2 * k - ta - tb) + 1, 2)
                    ts[c] = rng.choice(fusion) if fusion else 0
                if sixj(Level(k), *_spins(ts)) != 0.0:
                    ts_list.append(ts)
            forward, backward = Level(k), Level(k)
            a = [sixj(forward, *_spins(ts)) for ts in ts_list]
            b = [sixj(backward, *_spins(ts)) for ts in reversed(ts_list)][::-1]
            assert a == b

    def test_column_swap(self):
        lev = Level(4)
        rng = random.Random(3)
        seen = 0
        while seen < 25:
            ts = [rng.randint(0, 4) for _ in range(6)]
            a = sixj(lev, *_spins(ts))
            if a == 0.0:
                continue
            seen += 1
            i, j, k, l, m, n = ts
            b = sixj(lev, *_spins((j, i, k, m, l, n)))
            assert a == pytest.approx(b, abs=1e-13)

    def test_tetrahedral_symmetries_sample(self):
        lev = Level(3)
        for ts in itertools.product(range(4), repeat=6):
            a = sixj(lev, *_spins(ts))
            if a == 0.0:
                continue
            for sym in SIXJ_SYMMETRIES(*ts):
                assert sixj(lev, *_spins(sym)) == pytest.approx(a, abs=1e-12)

    def test_zero_color_reduction(self):
        # {a b c; 0 c b} = (-1)^(a+b+c) / sqrt([2b+1][2c+1])
        for k in (2, 3, 4):
            lev = Level(k)
            for ta, tb, tc in itertools.product(range(k + 1), repeat=3):
                val = sixj(lev, *_spins((ta, tb, tc)), 0, *_spins((tc, tb)))
                if not admissible_oracle(k, ta, tb, tc):
                    assert val == 0.0
                    continue
                sign = -1.0 if ((ta + tb + tc) // 2) % 2 else 1.0
                expect = sign / math.sqrt(quantum_int(lev, tb + 1) * quantum_int(lev, tc + 1))
                assert val == pytest.approx(expect, abs=1e-12)

    def test_orthogonality(self):
        # sum_x [2x+1] {a b x; c d p} {a b x; c d q} = delta_pq / [2p+1]
        for k in (2, 3, 4):
            lev = Level(k)
            rng = random.Random(k)
            for _ in range(80):
                ta, tb, tc, td, tp, tq = (rng.randint(0, k) for _ in range(6))
                total = 0.0
                for tx in range(k + 1):
                    total += quantum_int(lev, tx + 1) * sixj(
                        lev, *_spins((ta, tb, tx, tc, td, tp))
                    ) * sixj(lev, *_spins((ta, tb, tx, tc, td, tq)))
                if (
                    tp == tq
                    and admissible_oracle(k, ta, td, tp)
                    and admissible_oracle(k, tc, tb, tp)
                ):
                    assert total == pytest.approx(1.0 / quantum_int(lev, tp + 1), abs=1e-12)
                else:
                    assert total == pytest.approx(0.0, abs=1e-12)

    def test_classical_limit_against_sympy(self):
        wigner = pytest.importorskip("sympy.physics.wigner")
        lev = Level(10**7 - 2)
        rng = random.Random(0)

        def triad(a, b, c):
            return (a + b + c) % 2 == 0 and abs(a - b) <= c <= a + b

        nonzero = 0
        for _ in range(15):
            # an admissible tuple: all four triads satisfy the triangle
            # inequalities with even doubled sums
            while True:
                ts = [rng.randint(0, 4) for _ in range(6)]
                i, j, k, l, m, n = ts
                if all(triad(*t) for t in ((i, j, k), (i, m, n), (l, j, n), (l, m, k))):
                    break
            mine = sixj(lev, *_spins(ts))
            ref = float(wigner.wigner_6j(*_spins(ts)))
            nonzero += ref != 0.0
            assert mine == pytest.approx(ref, abs=1e-9)
        assert nonzero >= 10


def pentagon_residual(lev, ts):
    """Both sides of the recoupling pentagon for doubled spins
    (a, b, c, d, e, f, p, q, r)."""
    ta, tb, tc, td, te, tf, tp, tq, tr = ts
    lhs = 0.0
    for tx in range(lev.k + 1):
        t1 = sixj(lev, *_spins((ta, tb, tx, tc, td, tp)))
        if t1 == 0.0:
            continue
        t2 = sixj(lev, *_spins((tc, td, tx, te, tf, tq)))
        if t2 == 0.0:
            continue
        t3 = sixj(lev, *_spins((te, tf, tx, tb, ta, tr)))
        if t3 == 0.0:
            continue
        tphi = ta + tb + tc + td + te + tf + tp + tq + tr + tx
        sign = -1.0 if (tphi // 2) % 2 else 1.0
        lhs += sign * quantum_int(lev, tx + 1) * t1 * t2 * t3
    rhs = sixj(lev, *_spins((tp, tq, tr, te, ta, td))) * sixj(
        lev, *_spins((tp, tq, tr, tf, tb, tc)))
    return lhs, rhs


def random_pentagon_tuple(rng, k):
    """Doubled 9-tuple whose right-hand-side triads are all admissible."""
    for _ in range(400):
        ta, td, tb, tf = (rng.randint(0, k) for _ in range(4))
        tp = rng.choice(range(abs(ta - td), min(ta + td, 2 * k - ta - td) + 1, 2) or [None])
        if tp is None:
            continue
        tq = rng.randint(0, k)
        rs = range(abs(tp - tq), min(tp + tq, 2 * k - tp - tq) + 1, 2)
        if not rs:
            continue
        tr = rng.choice(list(rs))
        te_opts = [te for te in range(k + 1)
                   if admissible_oracle(k, te, tq, td) and admissible_oracle(k, te, ta, tr)]
        tc_opts = [tc for tc in range(k + 1)
                   if admissible_oracle(k, tp, tb, tc) and admissible_oracle(k, tf, tq, tc)]
        if not te_opts or not tc_opts:
            continue
        te = rng.choice(te_opts)
        tc = rng.choice(tc_opts)
        if not admissible_oracle(k, tf, tb, tr):
            continue
        return (ta, tb, tc, td, te, tf, tp, tq, tr)
    raise AssertionError("could not build a pentagon tuple")


def test_pentagon_smoke():
    rng = random.Random(11)
    for k in (2, 4, 6):
        lev = Level(k)
        for _ in range(40):
            ts = random_pentagon_tuple(rng, k)
            lhs, rhs = pentagon_residual(lev, ts)
            assert lhs == pytest.approx(rhs, abs=1e-11)
