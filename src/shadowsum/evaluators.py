"""Closed-form loop-observable evaluators: the Abelian product formulas,
field-conditional holonomy products, and the vertical-loop finite sum.

Gauge fields never appear as function objects; they enter only through
sampled numbers (per-loop line integrals and point values of the diagonal
background), which is all the closed formulas consume.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable

from .errors import PreconditionError
from .geometry import (
    Link,
    crossing_marks,
    ind,
    loop_min_clearance,
    mark_side_points,
    winding_s1,
)
from .linking import crossings_between, link_number, lk, pushoff, self_link

__all__ = [
    "FieldSample",
    "wlo_abelian",
    "wlo_abelian_intermediate",
    "conditional_wlo_abelian",
    "conditional_holonomy_su2",
    "character_su2",
    "wlo_vertical",
]


@dataclass(frozen=True)
class FieldSample:
    """Sampled field data: one line-integral value per loop, plus point
    values of the diagonal background field at queried planar points."""

    loop_integrals: tuple[float, ...] = ()
    background: Callable[[float, float], float] | None = None

    def __post_init__(self):
        object.__setattr__(self, "loop_integrals", tuple(float(a) for a in self.loop_integrals))
        if any(not math.isfinite(a) for a in self.loop_integrals):
            raise ValueError("loop integrals must be finite")

    def b(self, point) -> float:
        if self.background is None:
            return 0.0
        v = float(self.background(point[0], point[1]))
        if not math.isfinite(v):
            raise ValueError(f"background field value at {point} is not finite")
        return v


def _reject_vertical(link: Link):
    if any(lp.vertical for lp in link.loops):
        raise PreconditionError("vertical loops are only legal inputs to wlo_vertical")


def _lk_products(link: Link) -> Fraction:
    """Sum of self push-off pairings and all ordered cross pairings (the two
    orders of a pair give equal pairings, so each pair is counted twice)."""
    total = Fraction(0)
    loops = link.loops
    for lp in loops:
        _, crossings = pushoff(lp, loop_min_clearance(lp) / 6.0)
        total += lk(crossings, link.t0)
    for a, b in combinations(loops, 2):
        total += 2 * lk(crossings_between(a, b), link.t0)
    return total


def wlo_abelian(link: Link) -> complex:
    """Abelian loop observable from integer linking data, lam = 1/level.

    Returns exactly 0 unless the circle windings sum to zero; otherwise the
    product of exp(lam*pi*i*framing_j) over loops and exp(lam*pi*i*Link_jk)
    over ordered pairs, with each loop framed by its horizontal
    self-linking.
    """
    _reject_vertical(link)
    lam = 1.0 / link.level
    if sum(winding_s1(lp) for lp in link.loops) != 0:
        return complex(0.0)
    loops = link.loops
    total = sum(self_link(lp, link.t0) for lp in loops)
    for a, b in combinations(loops, 2):
        total += 2 * link_number(a, b, crossings_between(a, b), link.t0)
    return cmath.exp(complex(0.0, math.pi * lam * total))


def wlo_abelian_intermediate(link: Link) -> complex:
    """Abelian loop observable assembled from the t0-cut pairings and the
    winding numbers at the two push-off sides of every crossing mark; equal
    to wlo_abelian on null-homologous links.  lam = 1/level."""
    _reject_vertical(link)
    lam = 1.0 / link.level
    if sum(winding_s1(lp) for lp in link.loops) != 0:
        return complex(0.0)
    exponent = _lk_products(link)
    for m in crossing_marks(link):
        p_left, p_right = mark_side_points(link, m)
        for lp in link.loops:
            exponent -= m.eps * (ind(lp, p_left) + ind(lp, p_right))
    return cmath.exp(complex(0.0, math.pi * lam * float(exponent)))


def conditional_wlo_abelian(link: Link, lam: float, fields: FieldSample) -> complex:
    """Loop observable conditional on the sampled fields: the t0-cut pairing
    products times exp(i a_j) per loop and exp(i eps_m b(sigma_m)) per
    crossing mark."""
    _reject_vertical(link)
    if len(fields.loop_integrals) != len(link.loops):
        raise ValueError("need one line-integral value per loop")
    phase = math.pi * lam * float(_lk_products(link))
    phase += sum(fields.loop_integrals)
    for m in crossing_marks(link):
        phase += m.eps * fields.b(m.point)
    return cmath.exp(complex(0.0, phase))


def character_su2(d: int, x: float) -> float:
    """SU(2) character of the d-dimensional irreducible at a diagonal angle:
    sin(d x)/sin(x), extended by continuity at multiples of pi."""
    if d < 1:
        raise ValueError("representation dimension must be at least 1")
    m = round(x / math.pi)
    if abs(x - m * math.pi) < 1e-12:
        return float(d) * (-1.0 if (m * (d - 1)) % 2 else 1.0)
    return math.sin(d * x) / math.sin(x)


def conditional_holonomy_su2(link: Link, fields: FieldSample) -> complex:
    """Product of characters of the diagonal holonomy totals x_j supplied by
    the caller, in the representation of each loop's color."""
    if len(fields.loop_integrals) != len(link.loops):
        raise ValueError("need one holonomy total per loop")
    value = 1.0
    for lp, x in zip(link.loops, fields.loop_integrals):
        value *= character_su2(lp.color2 + 1, x)
    return complex(value)


def wlo_vertical(k: int, genus: int, dims=()) -> float:
    """Loop observable of a family of vertical loops with representation
    dimensions `dims` on a genus-g surface:

        sum_{l=1}^{k+1} prod_j [sin(l d_j pi/(k+2)) / sin(l pi/(k+2))]
                        * sin(l pi/(k+2))^(2-2g)
    """
    if not isinstance(k, int) or k < 1:
        raise ValueError(f"level k must be a positive integer, got {k!r}")
    if not isinstance(genus, int) or genus < 0:
        raise ValueError(f"genus must be a non-negative integer, got {genus!r}")
    dims = tuple(dims)
    if any(not isinstance(d, int) or d < 1 for d in dims):
        raise ValueError("representation dimensions must be positive integers")
    r = k + 2
    total = 0.0
    for l in range(1, k + 2):
        s = math.sin(l * math.pi / r)
        term = s ** (2 - 2 * genus)
        for d in dims:
            term *= math.sin(l * d * math.pi / r) / s
        total += term
    return total
