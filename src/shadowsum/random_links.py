"""Seeded random link configurations for cross-checks and experiments.

Configurations are families of pairwise-disjoint polygonal circles with a
random nesting forest, random orientations, and circle windings drawn from
a bounded range; geometry is placed so that disjointness holds by
construction.  For the Abelian routes there are pairs of crossing circles,
single loops that usually cross themselves, whose circle coordinates at a
self-crossing can be brought within a chosen gap, and triangles and star
polygons, whose non-adjacent segments all cross.  Everything is driven by
a caller-supplied random.Random, so runs are reproducible.
"""

from __future__ import annotations

import math
import random

from .geometry import TAU, Link, Loop, make_loop

__all__ = ["polygon_circle", "random_dpfree_link", "random_crossing_pair", "self_crossing_loop",
           "star_polygon_loop", "narrow_gap"]


def polygon_circle(cx: float, cy: float, r: float, n: int = 16, *,
                   winding: int = 0, theta0: float = 0.5, ccw: bool = True,
                   phase: float = 0.0, color2: int = 1, theta_fn=None) -> Loop:
    """Regular n-gon approximation of a circle of doubled color color2 with
    a linear (or supplied) circle-coordinate profile.  The closing vertex repeats vertex 0's x and
    y: cos and sin of the full turn miss them by a rounding error times r,
    which fails `make_loop`'s closure test from r = 1e7 on."""
    pts = []
    for i in range(n + 1):
        a = phase + 2.0 * math.pi * i / n * (1 if ccw else -1)
        if theta_fn is not None:
            th = theta_fn(i / n)
        else:
            th = theta0 + 2.0 * math.pi * winding * i / n
        x, y = (cx + r * math.cos(a), cy + r * math.sin(a)) if i < n else pts[0][:2]
        pts.append((x, y, th))
    return make_loop(pts, color2=color2)


def random_dpfree_link(rng: random.Random, max_loops: int = 5, level: int = 1,
                       t0: float = 0.0, wind_range: tuple[int, int] = (-2, 2)) -> Link:
    """Random double-point-free link: disjoint circles with a random nesting
    forest, random orientations, and windings in wind_range."""
    n_loops = rng.randint(1, max_loops)
    parents = []
    for i in range(n_loops):
        parents.append(rng.choice([None] + list(range(i))))
    children = [[] for _ in range(n_loops)]
    roots = []
    for i, p in enumerate(parents):
        (roots if p is None else children[p]).append(i)

    geom = {}

    def place(node, cx, cy, r):
        geom[node] = (cx, cy, r)
        kids = children[node]
        for t, kid in enumerate(kids):
            ang = 2.0 * math.pi * t / max(len(kids), 1) + 0.37
            place(kid, cx + 0.52 * r * math.cos(ang), cy + 0.52 * r * math.sin(ang), 0.2 * r)

    for t, root in enumerate(roots):
        place(root, 4.0 * t, 0.0, 1.0)

    loops = []
    for i in range(n_loops):
        cx, cy, r = geom[i]
        w = rng.randint(*wind_range)
        theta0 = rng.uniform(0.1, 6.1)
        loops.append(polygon_circle(
            cx, cy, r, rng.randint(12, 18), winding=w, theta0=theta0,
            ccw=rng.random() < 0.5, phase=rng.uniform(0.0, 2.0 * math.pi)))
    return Link(tuple(loops), t0=t0, level=level)


def random_crossing_pair(rng: random.Random, level: int = 2, t0: float = 0.0) -> Link:
    """Two circles whose projections cross twice, with oscillating
    null-homologous circle coordinates; used for linking-number checks."""
    r1 = rng.uniform(0.8, 1.2)
    r2 = rng.uniform(0.8, 1.2)
    d = rng.uniform(0.6, 0.9) * (r1 + r2) / 2.0

    def profile(rng_):
        base = rng_.uniform(0.5, 5.8)
        amp = rng_.uniform(0.2, 1.4)
        ph = rng_.uniform(0.0, 2.0 * math.pi)
        return lambda u: base + amp * math.sin(2.0 * math.pi * u + ph)

    a = polygon_circle(0.0, 0.0, r1, rng.randint(14, 20),
                       ccw=rng.random() < 0.5, phase=rng.uniform(0, 6.28),
                       theta_fn=profile(rng))
    b = polygon_circle(d, 0.0, r2, rng.randint(14, 20),
                       ccw=rng.random() < 0.5, phase=rng.uniform(0, 6.28),
                       theta_fn=profile(rng))
    return Link((a, b), t0=t0, level=level)


def self_crossing_loop(rng: random.Random) -> Loop:
    """A random polygon of 5-14 vertices around the origin, half of whose
    angles are random, so that it usually crosses itself, with an
    oscillating lift of winding 0."""
    n = rng.randint(5, 14)
    angles = [TAU * i / n for i in range(n)]
    for i in rng.sample(range(n), n // 2):
        angles[i] = rng.uniform(0.0, TAU)
    base, amp = rng.uniform(0.5, 5.8), rng.uniform(0.2, 3.0)
    freq, phase = rng.randint(1, 3), rng.uniform(0.0, TAU)
    pts = [(r * math.cos(a), r * math.sin(a), base + amp * math.sin(TAU * freq * i / n + phase))
           for i, (a, r) in enumerate(zip(angles, [rng.uniform(0.5, 1.5) for _ in range(n)]))]
    return make_loop(pts + [pts[0]])


def star_polygon_loop(rng: random.Random) -> Loop:
    """A triangle or a {5/2}, {7/3} or {9/4} star polygon: p vertices, each
    q steps of 2*pi/p around the origin from the last, with a random phase
    and radii jittered by 0.7-1.3, and an oscillating lift of winding 0."""
    p, q = rng.choice(((3, 1), (5, 2), (7, 3), (9, 4)))
    phase = rng.uniform(0.0, TAU)
    base, amp = rng.uniform(0.5, 5.8), rng.uniform(0.2, 3.0)
    freq, lift_phase = rng.randint(1, p // 2), rng.uniform(0.0, TAU)
    pts = []
    for i in range(p):
        a, r = phase + TAU * q * i / p, rng.uniform(0.7, 1.3)
        pts.append((r * math.cos(a), r * math.sin(a),
                    base + amp * math.sin(TAU * freq * i / p + lift_phase)))
    return make_loop(pts + [pts[0]])


def narrow_gap(loop: Loop, gap: float) -> Loop:
    """`loop` with the lift of the second strand's segment at its first
    self-crossing shifted so that its circle coordinate there exceeds the
    first strand's by `gap`.  The two segments cross, so they share no
    vertex, and the first strand's lift is unchanged."""
    i, j, tan, tbn, den, *_ = loop.self_crossings[0]
    lifts = loop.lifts
    shift = (lifts[i] + tan / den * (lifts[i + 1] - lifts[i]) + gap
             - lifts[j] - tbn / den * (lifts[j + 1] - lifts[j]))
    moved = {j, j + 1} | ({0} if j + 1 == loop.nseg else set())
    return make_loop([(x, y, t + shift if v in moved else t)
                      for v, (x, y, t) in enumerate(loop.vertices)])
