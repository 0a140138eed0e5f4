"""Closed-form loop-observable evaluators: the Abelian product formulas and
the vertical-loop finite sum.

The two Abelian routes share no crossing data.  `wlo_abelian` frames each
loop by its push-off and scans each loop pair itself; the crossing-mark
route `wlo_abelian_intermediate` reads the double points of the link's
`validate` report and the winding numbers beside its crossing marks.
"""

from __future__ import annotations

import cmath
import math
from itertools import combinations

from .errors import PreconditionError
from .geometry import (
    AdmissibilityReport,
    Link,
    crossing_marks,
    ind,
    mark_side_points,
    winding_s1,
)
from .linking import crossings_between, link_number, self_link

__all__ = [
    "wlo_abelian",
    "wlo_abelian_intermediate",
    "wlo_vertical",
]


def _reject_vertical(link: Link):
    if any(lp.vertical for lp in link.loops):
        raise PreconditionError("vertical loops are only legal inputs to wlo_vertical")


def wlo_abelian(link: Link) -> complex:
    """Abelian loop observable from integer linking data, lam = 1/level.

    Returns exactly 0 unless the circle windings sum to zero; otherwise the
    product of exp(lam*pi*i*self_link_j) over loops and exp(lam*pi*i*Link_jk)
    over ordered pairs: each loop is framed by its horizontal push-off.
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


def wlo_abelian_intermediate(link: Link, report: AdmissibilityReport) -> complex:
    """Abelian loop observable assembled from the t0-cut order of the
    strands at every double point of `report`, the link's `validate`
    report, and the winding numbers at the two push-off sides of every
    crossing mark; equal to wlo_abelian on null-homologous links.
    lam = 1/level.

    A self double point counts once: it gives the loop's push-off two
    crossings with equal pairings.  A double point of two loops also
    counts once: half a crossing count, for both orders of the pair.
    """
    if not report.ok:
        raise PreconditionError("link failed admissibility validation")
    lam = 1.0 / link.level
    if sum(winding_s1(lp) for lp in link.loops) != 0:
        return complex(0.0)
    exponent = sum(d.s1_order(link.t0) * d.cross_sign for d in report.double_points)
    for m in crossing_marks(link):
        p_left, p_right = mark_side_points(link, m)
        for lp in link.loops:
            exponent -= m.eps * (ind(lp, p_left) + ind(lp, p_right))
    return cmath.exp(complex(0.0, math.pi * lam * float(exponent)))


def wlo_vertical(k: int, genus: int, dims=()) -> float:
    """Loop observable of a family of vertical loops with representation
    dimensions `dims` on a genus-g surface:

        sum_{l=1}^{k+1} prod_j [sin(l d_j pi/(k+2)) / sin(l pi/(k+2))]
                        * sin(l pi/(k+2))^(2-2g)
    """
    if isinstance(k, bool) or not isinstance(k, int) or k < 1:
        raise ValueError(f"level k must be a positive integer, got {k!r}")
    if isinstance(genus, bool) or not isinstance(genus, int) or genus < 0:
        raise ValueError(f"genus must be a non-negative integer, got {genus!r}")
    dims = tuple(dims)
    if any(isinstance(d, bool) or not isinstance(d, int) or d < 1 for d in dims):
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
