#!/usr/bin/env python3
"""Randomized cross-check experiment.

With --route dpfree (the default), on seeded random double-point-free
configurations, compare the pair-sum route against the gleam state-sum
route and verify the pair/coloring bijection.  Each configuration is also
evaluated with its loops listed in reverse, children before parents, and
in one seeded random order: each of these links' pair sums must match its
state sum, its state sum the original's, and its bijection check must
pass; a configuration with any failing check counts as one bijection
failure.  The orders are drawn from a
generator of their own, so a seed draws the same configurations as it
would without them.

With --route abelian, on seeded random pairs of circles that cross twice
(`random_crossing_pair`) with a random t0, compare the push-off framed
Abelian product `wlo_abelian` against the crossing-mark route
`wlo_abelian_intermediate`; links that are not admissible at their t0
are drawn again.  Each link is also evaluated with its loops listed in
reverse, by both routes, and all four values must agree.  Then, on as many
single self-crossing loops (`self_crossing_loop`) at a random t0, every
second one with the circle coordinates at its first self-crossing brought
within 1e-4 to 1e-1 rad of each other (`narrow_gap`), the two routes must
agree as well; loops that do not cross themselves or are not admissible
are drawn again.  Last, on as many triangles and {5/2}, {7/3} and {9/4}
star polygons (`star_polygon_loop`), whose non-adjacent segments all cross,
each at a random t0, the two routes must agree; polygons that are not
admissible there are drawn again.  The loops and the polygons come from
generators of their own, so a seed draws the same pairs and loops as it
would without them.

    python scripts/crosscheck_random.py --configs 200 --seed 2024
    python scripts/crosscheck_random.py --route abelian --configs 300 --seed 3
"""

import argparse
import math
import pathlib
import random
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

import shadowsum as ss
from shadowsum.quantum import Level
from shadowsum.random_links import (
    narrow_gap,
    random_crossing_pair,
    random_dpfree_link,
    self_crossing_loop,
    star_polygon_loop,
)


def rel_diff(a: complex, b: complex) -> float:
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale > 1e-12 else abs(a - b)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--route", choices=("dpfree", "abelian"), default="dpfree")
    ap.add_argument("--configs", type=int, default=200)
    ap.add_argument("--seed", type=int, default=2024)
    ap.add_argument("--max-loops", type=int, default=5)
    ap.add_argument("--kmax", type=int, default=6)
    args = ap.parse_args()
    return abelian(args) if args.route == "abelian" else dpfree(args)


def abelian(args):
    rng = random.Random(args.seed)
    start = time.perf_counter()
    pairs = abelian_runs(args, "link", lambda done, k: crossing_pair_links(rng, k),
                         args.configs)
    loop_rng = random.Random(f"{args.seed}:self-crossing")
    loops = abelian_runs(args, "loop",
                         lambda done, k: self_crossing_links(loop_rng, k, done % 2 == 1),
                         args.configs)
    polygon_rng = random.Random(f"{args.seed}:polygon")
    polygons = abelian_runs(args, "polygon", lambda done, k: polygon_links(polygon_rng, k),
                            args.configs)
    elapsed = time.perf_counter() - start

    print(f"links, self-crossing loops and polygons: {args.configs} each   seed: {args.seed}"
          f"   elapsed: {elapsed:.2f}s")
    ok = True
    for label, (worst, worst_case, errors, by_k) in (("link", pairs), ("loop", loops),
                                                     ("polygon", polygons)):
        print(f"{'k':>3} {label + 's':>8} {'worst abs diff':>16}")
        for k in sorted(by_k):
            count, w = by_k[k]
            print(f"{k:>3} {count:>8} {w:>16.3e}")
        print(f"overall worst abs diff: {worst:.3e} at {label} {worst_case}")
        print(f"errors: {errors}")
        ok = ok and worst <= 1e-9
    print("RESULT:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def crossing_pair_links(rng, k):
    """A random pair of crossing circles at a random t0, admissible there,
    with its validate report, then with its loops listed in reverse."""
    while True:
        link = random_crossing_pair(rng, level=k, t0=rng.uniform(0.0, 2.0 * math.pi))
        report = ss.validate(link)
        if report.ok:
            rev = ss.Link(link.loops[::-1], t0=link.t0, level=k)
            return [(link, report), (rev, None)]


def self_crossing_links(rng, k, narrowed):
    """A random self-crossing loop at a random t0, admissible there, with
    its validate report; if `narrowed`, with the gap at its first
    self-crossing narrowed.  Each try draws the same numbers either way."""
    while True:
        loop = self_crossing_loop(rng)
        t0 = rng.uniform(0.0, 2.0 * math.pi)
        gap = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-4.0, -1.0)
        try:
            if not loop.self_crossings:
                continue
            if narrowed:
                loop = narrow_gap(loop, gap)
            link = ss.Link((loop,), t0=t0, level=k)
            report = ss.validate(link)
        except ss.ShadowsumError:
            continue
        if report.ok:
            return [(link, report)]


def polygon_links(rng, k):
    """A random triangle or star polygon at a random t0, admissible there,
    with its validate report."""
    while True:
        link = ss.Link((star_polygon_loop(rng),), t0=rng.uniform(0.0, 2.0 * math.pi), level=k)
        report = ss.validate(link)
        if report.ok:
            return [(link, report)]


def abelian_runs(args, label, draw, count):
    """`wlo_abelian` against `wlo_abelian_intermediate` on `count` drawn
    links, k = 1..kmax in turn; every value of a draw must agree with its
    first.  Returns (worst diff, its case, errors, per-k rows)."""
    worst = 0.0
    worst_case = None
    errors = 0
    by_k = {}
    for done in range(count):
        k = 1 + done % args.kmax
        try:
            values = []
            for link, report in draw(done, k):
                values += [ss.wlo_abelian(link), ss.wlo_abelian_intermediate(
                    link, ss.validate(link) if report is None else report)]
            diff = max(abs(v - values[0]) for v in values)
        except ss.ShadowsumError as exc:  # an admissible link either route rejects
            errors += 1
            print(f"{label} {done} (k = {k}): {type(exc).__name__}: {exc}")
            diff = math.inf
        if diff > worst:
            worst = diff
            worst_case = (done, k)
        row = by_k.setdefault(k, [0, 0.0])
        row[0] += 1
        row[1] = max(row[1], diff)
    return worst, worst_case, errors, by_k


def dpfree(args):
    rng = random.Random(args.seed)
    order_rng = random.Random(f"{args.seed}:loop order")
    start = time.perf_counter()
    worst_rel = 0.0
    worst_case = None
    bij_failures = 0
    by_k = {}
    done = 0
    while done < args.configs:
        k = 1 + done % args.kmax
        link = random_dpfree_link(rng, max_loops=args.max_loops, level=k)
        try:
            fc = ss.face_complex(link)  # validates the link once
        except ss.PreconditionError:
            continue
        lev = Level(k)
        a = ss.wlo_dpfree_pairsum(link, lev, fc)
        b = ss.wlo_dpfree_final(link, lev, fc)
        rel = rel_diff(a, b)
        reports = [ss.check_bijection(link, lev, fc)]
        shuffled = list(link.loops)
        order_rng.shuffle(shuffled)
        for loops in (link.loops[::-1], tuple(shuffled)):
            other = ss.Link(loops, t0=link.t0, level=k)
            other_fc = ss.face_complex(other)
            other_a = ss.wlo_dpfree_pairsum(other, lev, other_fc)
            other_b = ss.wlo_dpfree_final(other, lev, other_fc)
            rel = max(rel, rel_diff(other_a, other_b), rel_diff(other_b, b))
            reports.append(ss.check_bijection(other, lev, other_fc))
        if rel > worst_rel:
            worst_rel = rel
            worst_case = (done, k, len(link.loops))
        if not all(report.ok for report in reports):
            bij_failures += 1
        row = by_k.setdefault(k, [0, 0.0])
        row[0] += 1
        row[1] = max(row[1], rel)
        done += 1
    elapsed = time.perf_counter() - start

    print(f"configs: {done}   seed: {args.seed}   elapsed: {elapsed:.2f}s")
    print(f"{'k':>3} {'count':>6} {'worst rel diff':>16}")
    for k in sorted(by_k):
        count, worst = by_k[k]
        print(f"{k:>3} {count:>6} {worst:>16.3e}")
    print(f"overall worst rel diff: {worst_rel:.3e} at config {worst_case}")
    print(f"bijection failures: {bij_failures}")
    ok = worst_rel <= 1e-9 and bij_failures == 0
    print("RESULT:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
