"""SU(2) level-k quantum data at q = exp(2*pi*i/rbar), rbar = k + 2.

Colors are half-integer spins stored as doubled integers (2j), which keeps
all admissibility arithmetic exact.  Each formula lives once, in a kernel on
doubled ints with no range check, which the state sums call directly.  The
kernels take rbar as an int, and those of the quantum integer and the
quantum dimension also take s1 = sin(pi/rbar), so a caller that evaluates
many of them (a state sum's face weights, the [n]! table) computes it
once.  The public spin API (sixj, v_dim, u_exponent) is a thin wrapper:
check_color on spins given as int, float, or Fraction with 2j integral,
then the kernel; quantum_int computes s1 and calls its kernel.  The
package holds colors and gleams as doubled ints, so check_color is the
only caller of doubled, and _u_exponent_doubled's int division rounds
as float() of the exact exponent does.

The 6j kernel is table-fed: _sixj_doubled(qf, k, ...) takes the [n]!
table and the level, so a state sum fetches the table from _qfactorials
once per call and passes it to every 6j-symbol it evaluates; sixj fetches
it per call.  A Level holds only k: _qfactorials builds the table afresh,
only as far as asked and never past [k+1]!.  The kernel reads the table
only in products, quotients and square roots, so a rescaled table fits
the same kernel: with qf[n] times lam**n every Racah term gains one factor
lam and every triad factor lam**-0.5, so the kernel returns the 6j-symbol
divided by lam.  The plain [n]! overflows from k = 202; with
lam = [k+1]!**(-1/(k+1)), taken in logs, the rescaled entries span about
e**62 at k = 202 and e**319 at k = 1000.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ColorOutOfRange

__all__ = [
    "Level",
    "doubled",
    "quantum_int",
    "u_exponent",
    "v_dim",
    "triple_admissible",
    "sixj",
]


def doubled(j) -> int:
    """Return 2j as an exact integer; raise ColorOutOfRange for anything
    but a finite half-integral number."""
    try:  # Fraction parses strings, but a color is a number
        t = None if isinstance(j, str) else Fraction(j) * 2
    except (TypeError, ValueError, OverflowError):  # not a number, NaN, +-inf
        t = None
    if t is None or t.denominator != 1:
        raise ColorOutOfRange(f"color {j!r} is not a half-integer")
    return int(t)


@dataclass(frozen=True)
class Level:
    """Level k with rbar = k + 2 and color set {0, 1/2, ..., k/2}."""

    k: int

    def __post_init__(self):
        if isinstance(self.k, bool) or not isinstance(self.k, int) or self.k < 1:
            raise ValueError(f"level k must be a positive integer, got {self.k!r}")

    @property
    def rbar(self) -> int:
        return self.k + 2

    def check_color(self, j) -> int:
        t = doubled(j)
        if not 0 <= t <= self.k:
            raise ColorOutOfRange(f"color {j!r} outside color set of level {self.k}")
        return t


def _quantum_int(r: int, s1: float, n: int) -> float:
    return math.sin(n * math.pi / r) / s1


def quantum_int(level: Level, n: int) -> float:
    """Quantum integer [n] = sin(n*pi/rbar)/sin(pi/rbar)."""
    r = level.rbar
    return _quantum_int(r, math.sin(math.pi / r), n)


def _u_exponent_doubled(r: int, t: int) -> complex:
    val = (2 * t * r - t * (t + 2)) / (4 * r)
    return complex(0.0, math.pi * val)


def u_exponent(level: Level, j) -> complex:
    """Exponential weight of color j: pi*i*(j - j(j+1)/rbar), purely imaginary."""
    return _u_exponent_doubled(level.rbar, level.check_color(j))


def _v_dim_doubled(r: int, s1: float, t: int) -> float:
    sign = -1.0 if t % 2 else 1.0
    return sign * _quantum_int(r, s1, t + 1)


def v_dim(level: Level, j) -> float:
    """Signed quantum dimension of color j: (-1)^{2j} [2j+1]."""
    r = level.rbar
    return _v_dim_doubled(r, math.sin(math.pi / r), level.check_color(j))


def triple_admissible(level: Level, i, j, k) -> bool:
    """True iff (i, j, k) couples at this level: integral total spin, the
    three triangle inequalities, and i + j + k <= rbar - 2."""
    ti, tj, tk = level.check_color(i), level.check_color(j), level.check_color(k)
    return ((ti + tj + tk) % 2 == 0
            and ti + tj + tk <= 2 * level.k
            and abs(ti - tj) <= tk <= ti + tj)


def _qfactorials(level: Level, n: int) -> tuple[float, ...]:
    """[0]!, ..., [min(n, rbar-1)]! ([rbar-1]! is the last nonzero value),
    built as [m]! = [m-1]! * [m], so a huge level pays only for the
    entries its colors reach."""
    r = level.rbar
    s1 = math.sin(math.pi / r)
    qf = [1.0]
    for m in range(1, min(n, r - 1) + 1):
        qf.append(qf[-1] * _quantum_int(r, s1, m))
    return tuple(qf)


def _sixj_doubled(qf, km: int, t1: int, t2: int, t3: int, t4: int, t5: int, t6: int) -> float:
    """The Racah sum of the 6j-symbol at level km on doubled colors, read
    off the table qf of [0]!, [1]!, ...; 0.0 when a triad is inadmissible.

    qf must reach index min(km + 1, (t1 + ... + t6) // 2 + 1).  Each
    triad factor and each Racah term is formed in a fixed order, so the
    value does not depend on who built the table.
    """
    # a triad (a, b, c) with even sum 2h couples iff h <= km and each of
    # h - a, h - b, h - c, the three triangle inequalities, is at least 0;
    # they are its [.]! arguments besides h + 1, and an int OR of them is
    # negative iff one is
    s1, s2, s3, s4 = t1 + t2 + t3, t1 + t5 + t6, t4 + t2 + t6, t4 + t5 + t3
    if (s1 | s2 | s3 | s4) & 1:
        return 0.0
    h1, h2, h3, h4 = s1 >> 1, s2 >> 1, s3 >> 1, s4 >> 1
    a1, a2, a3 = h1 - t1, h1 - t2, h1 - t3
    b1, b5, b6 = h2 - t1, h2 - t5, h2 - t6
    c4, c2, c6 = h3 - t4, h3 - t2, h3 - t6
    d4, d5, d3 = h4 - t4, h4 - t5, h4 - t3
    hmax = max(h1, h2, h3, h4)
    if hmax > km or (a1 | a2 | a3 | b1 | b5 | b6 | c4 | c2 | c6 | d4 | d5 | d3) < 0:
        return 0.0

    delta = 1.0
    delta *= math.sqrt(qf[a1] * qf[a2] * qf[a3] / qf[h1 + 1])
    delta *= math.sqrt(qf[b1] * qf[b5] * qf[b6] / qf[h2 + 1])
    delta *= math.sqrt(qf[c4] * qf[c2] * qf[c6] / qf[h3 + 1])
    delta *= math.sqrt(qf[d4] * qf[d5] * qf[d3] / qf[h4 + 1])

    # the three sums of opposite pairs, halved; each is even for
    # admissible triads
    q1, q2, q3 = (t1 + t2 + t4 + t5) >> 1, (t2 + t3 + t5 + t6) >> 1, (t3 + t1 + t6 + t4) >> 1
    # z beyond km = rbar-2 only adds terms with a vanishing [z+1]! numerator
    total = 0.0
    for z in range(hmax, min(q1, q2, q3, km) + 1):
        term = (qf[z + 1] / qf[z - h1] / qf[z - h2] / qf[z - h3] / qf[z - h4]
                / qf[q1 - z] / qf[q2 - z] / qf[q3 - z])
        total += -term if z % 2 else term
    return delta * total


def sixj(level: Level, i, j, k, l, m, n) -> float:
    """Quantum 6j-symbol of the tuple arranged as

        { i  j  k }
        { l  m  n }

    in the symmetric (tetrahedral) normalization with quantum integers
    [n] = sin(n*pi/rbar)/sin(pi/rbar).  The coupled triads are
    (i,j,k), (i,m,n), (l,j,n), (l,m,k); the value is 0 whenever any of
    them is inadmissible at this level.
    """
    ts = tuple(map(level.check_color, (i, j, k, l, m, n)))
    qf = _qfactorials(level, sum(ts) // 2 + 1)
    return _sixj_doubled(qf, level.k, *ts)
