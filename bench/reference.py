#!/usr/bin/env python3
"""50-digit reference values of shadow state sums, computed with mpmath.

This is an oracle for the benchmark's output checks.  It reads the shadow
JSON file itself and evaluates the state sum from the formulas alone:

    sum over admissible area colorings eta of
        prod_vertices {e1 eta_j eta_k / e2 eta_m eta_n}
      * prod_faces v(eta_t)^chi_t * exp(2 (gleam_t - z_t/2) u(eta_t))

with rbar = k + 2, [n] = sin(n pi/rbar)/sin(pi/rbar), v(j) = (-1)^(2j)
[2j+1], u(j) = pi i (j - j(j+1)/rbar), and the 6j-symbol in the symmetric
normalization given by the Racah sum.  It shares no code with
shadowsum.quantum or shadowsum.shadow, and mpmath numbers cannot overflow,
so it holds at every level.

    python3 bench/reference.py corpus/twocircles.shadow.json 200 256
"""

from __future__ import annotations

import argparse
import json
import sys

import mpmath

DIGITS = 50


def _triad_ok(k: int, a: int, b: int, c: int) -> bool:
    """Doubled spins a, b, c couple at level k."""
    return (a + b + c) % 2 == 0 and a + b + c <= 2 * k and abs(a - b) <= c <= a + b


class _Level:
    def __init__(self, k: int):
        self.k = k
        self.r = k + 2
        s1 = mpmath.sin(mpmath.pi / self.r)
        self.qint = [mpmath.sin(n * mpmath.pi / self.r) / s1 for n in range(self.r + 1)]
        self.qfact = [mpmath.mpf(1)]
        for n in range(1, self.r):
            self.qfact.append(self.qfact[-1] * self.qint[n])
        self.sixj_memo = {}

    def weight(self, t: int, chi: int, x) -> mpmath.mpc:
        """v^chi * exp(2 x u) for doubled color t and modified gleam x."""
        j = mpmath.mpf(t) / 2
        v = (-1 if t % 2 else 1) * self.qint[t + 1]
        u = mpmath.mpc(0, mpmath.pi * (j - j * (j + 1) / self.r))
        return v ** chi * mpmath.exp(2 * x * u)

    def sixj(self, t1, t2, t3, t4, t5, t6):
        key = (t1, t2, t3, t4, t5, t6)
        if key not in self.sixj_memo:
            self.sixj_memo[key] = self._racah(*key)
        return self.sixj_memo[key]

    def _racah(self, t1, t2, t3, t4, t5, t6):
        triads = ((t1, t2, t3), (t1, t5, t6), (t4, t2, t6), (t4, t5, t3))
        if not all(_triad_ok(self.k, *tr) for tr in triads):
            return mpmath.mpf(0)
        f = self.qfact
        delta = mpmath.mpf(1)
        for a, b, c in triads:
            delta *= mpmath.sqrt(f[(b + c - a) // 2] * f[(a + c - b) // 2] * f[(a + b - c) // 2]
                                 / f[(a + b + c) // 2 + 1])
        sums = [a + b + c for a, b, c in triads]
        quads = (t1 + t2 + t4 + t5, t2 + t3 + t5 + t6, t3 + t1 + t6 + t4)
        total = mpmath.mpf(0)
        for z in range(max(sums) // 2, min(min(quads) // 2, self.r - 2) + 1):
            term = f[z + 1]
            for s in sums:
                term /= f[z - s // 2]
            for q in quads:
                term /= f[q // 2 - z]
            total += -term if z % 2 else term
        return delta * total


def _doubled(x) -> int:
    t = round(2 * x)
    if abs(2 * x - t) > 1e-9:
        raise ValueError(f"{x!r} is not a half-integer")
    return t


def state_sum(shadow: dict, k: int) -> complex:
    """State sum of a parsed shadow file at level k, rounded to complex."""
    with mpmath.workdps(DIGITS):
        lev = _Level(k)
        faces = shadow["faces"]
        edges = [(_doubled(e["color"]), e["left"], e["right"]) for e in shadow["edges"]]
        verts = [(_doubled(v["e1"]), _doubled(v["e2"]), v["j"], v["k"], v["m"], v["n"])
                 for v in shadow.get("vertices", [])]
        # weight tables per face: index t is the doubled face color
        tables = []
        for f in faces:
            x = mpmath.mpf(_doubled(f["gleam"])) / 2 - mpmath.mpf(f.get("z", 0)) / 2
            tables.append([lev.weight(t, f["chi"], x) for t in range(k + 1)])
        # check each edge as soon as both of its faces carry a color
        checks = [[] for _ in faces]
        for c, a, b in edges:
            checks[max(a, b)].append((c, a, b))
        total = mpmath.mpc(0)
        col = [0] * len(faces)

        def visit(f):
            nonlocal total
            if f == len(faces):
                term = mpmath.mpc(1)
                for e1, e2, j, kk, m, n in verts:
                    term *= lev.sixj(e1, col[j], col[kk], e2, col[m], col[n])
                for t, table in zip(col, tables):
                    term *= table[t]
                total += term
                return
            for t in range(k + 1):
                col[f] = t
                if all(_triad_ok(k, c, col[a], col[b]) for c, a, b in checks[f]):
                    visit(f + 1)

        visit(0)
        return complex(total)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("shadow")
    ap.add_argument("levels", nargs="+", type=int)
    args = ap.parse_args(argv)
    with open(args.shadow, encoding="utf-8") as fh:
        shadow = json.load(fh)
    for k in args.levels:
        v = state_sum(shadow, k)
        print(json.dumps({"level": k, "value": [v.real, v.imag]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
