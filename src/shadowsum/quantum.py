"""SU(2) level-k quantum data at q = exp(2*pi*i/rbar), rbar = k + 2.

Colors are half-integer spins stored as doubled integers (2j), which keeps
all admissibility arithmetic exact.  Each formula lives once, in a kernel on
doubled ints with no range check, which the state sums call directly.  The
public spin API (sixj, v_dim, u_exponent) is a thin wrapper: check_color on
spins given as int, float, or Fraction with 2j integral, then the kernel.
doubled reads a Fraction's 2j off its numerator, and _u_exponent_doubled's
int division rounds as float(Fraction) does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
    """Return 2j as an exact integer; reject non-half-integer input."""
    if isinstance(j, Fraction) and j.denominator <= 2:
        return j.numerator * (2 // j.denominator)
    t = Fraction(j) * 2
    if t.denominator != 1:
        raise ColorOutOfRange(f"color {j!r} is not a half-integer")
    return int(t)


@dataclass(frozen=True)
class Level:
    """Level k with rbar = k + 2 and color set {0, 1/2, ..., k/2}."""

    k: int
    # [0]!, [1]!, ...: the prefix of the [n]! table that the 6j-symbols
    # evaluated so far have needed (see _qfactorials)
    _qfactorial_table: tuple = field(default=(1.0,), init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.k, int) or self.k < 1:
            raise ValueError(f"level k must be a positive integer, got {self.k!r}")

    @property
    def rbar(self) -> int:
        return self.k + 2

    def check_color(self, j) -> int:
        t = doubled(j)
        if not 0 <= t <= self.k:
            raise ColorOutOfRange(f"color {j!r} outside color set of level {self.k}")
        return t


def quantum_int(level: Level, n: int) -> float:
    """Quantum integer [n] = sin(n*pi/rbar)/sin(pi/rbar)."""
    r = level.rbar
    return math.sin(n * math.pi / r) / math.sin(math.pi / r)


def _u_exponent_doubled(level: Level, t: int) -> complex:
    val = (2 * t * level.rbar - t * (t + 2)) / (4 * level.rbar)
    return complex(0.0, math.pi * val)


def u_exponent(level: Level, j) -> complex:
    """Exponential weight of color j: pi*i*(j - j(j+1)/rbar), purely imaginary."""
    return _u_exponent_doubled(level, level.check_color(j))


def _v_dim_doubled(level: Level, t: int) -> float:
    sign = -1.0 if t % 2 else 1.0
    return sign * quantum_int(level, t + 1)


def v_dim(level: Level, j) -> float:
    """Signed quantum dimension of color j: (-1)^{2j} [2j+1]."""
    return _v_dim_doubled(level, level.check_color(j))


def _triple_ok(tk_max: int, ta: int, tb: int, tc: int) -> bool:
    return (
        (ta + tb + tc) % 2 == 0
        and ta + tb + tc <= 2 * tk_max
        and abs(ta - tb) <= tc <= ta + tb
    )


def triple_admissible(level: Level, i, j, k) -> bool:
    """True iff (i, j, k) couples at this level: integral total spin, the
    three triangle inequalities, and i + j + k <= rbar - 2."""
    ti, tj, tk = level.check_color(i), level.check_color(j), level.check_color(k)
    return _triple_ok(level.k, ti, tj, tk)


def _qfactorials(level: Level, n: int) -> tuple[float, ...]:
    """[0]!, ..., [n]! for n <= rbar-1 ([rbar-1]! is the last nonzero value).

    The level keeps the table and extends it on demand by [m]! = [m-1]! * [m],
    so each entry is the same product whenever it was built, and a huge
    level pays only for the entries its colors reach.
    """
    qf = level._qfactorial_table
    if len(qf) <= n:
        grown = list(qf)
        for m in range(len(qf), n + 1):
            grown.append(grown[-1] * quantum_int(level, m))
        qf = tuple(grown)
        # one rebinding publishes the whole longer table; a concurrent
        # caller keeps the table it read and at worst repeats the work
        object.__setattr__(level, "_qfactorial_table", qf)
    return qf


def _sixj_doubled(level: Level, t1: int, t2: int, t3: int, t4: int, t5: int, t6: int) -> float:
    triads = (
        (t1, t2, t3),
        (t1, t5, t6),
        (t4, t2, t6),
        (t4, t5, t3),
    )
    km = level.k
    for ta, tb, tc in triads:
        if not _triple_ok(km, ta, tb, tc):
            return 0.0

    # every index below is at most half the color sum plus one, and at most
    # rbar-1 for admissible triads
    qf = _qfactorials(level, min(level.rbar - 1, (t1 + t2 + t3 + t4 + t5 + t6) // 2 + 1))

    # each doubled sum below is even, and its [.]! argument is half of it
    delta = 1.0
    for ta, tb, tc in triads:
        delta *= math.sqrt(
            qf[(-ta + tb + tc) // 2] * qf[(ta - tb + tc) // 2] * qf[(ta + tb - tc) // 2]
            / qf[(ta + tb + tc + 2) // 2]
        )

    tT = [ta + tb + tc for ta, tb, tc in triads]
    tQ = (t1 + t2 + t4 + t5, t2 + t3 + t5 + t6, t3 + t1 + t6 + t4)
    # z beyond rbar-2 only adds terms with a vanishing [z+1]! numerator
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


def sixj(level: Level, i, j, k, l, m, n) -> float:
    """Quantum 6j-symbol of the tuple arranged as

        { i  j  k }
        { l  m  n }

    in the symmetric (tetrahedral) normalization with quantum integers
    [n] = sin(n*pi/rbar)/sin(pi/rbar).  The coupled triads are
    (i,j,k), (i,m,n), (l,j,n), (l,m,k); the value is 0 whenever any of
    them is inadmissible at this level.
    """
    return _sixj_doubled(level, *map(level.check_color, (i, j, k, l, m, n)))
