"""Seeded inputs and job lists for the four benchmark workloads.

Every input the program sees is a file written here: link and shadow files
generated from the seed, plus copies of the corpus files that the golden
rows name.  The generators build the JSON file formats directly and import
nothing from shadowsum, so a change to the program cannot change its
benchmark inputs.

A workload is one *round*: an ordered list of jobs.  The benchmark repeats
the round in a closed loop.  Each job says what a correct output looks
like (see `Job`).
"""

from __future__ import annotations

import json
import math
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path

TAU = 2.0 * math.pi

ROW_SHAPES = [(n, k) for n in (2, 4, 6, 8) for k in (2, 6) if (n, k) != (8, 6)] + [(7, 6)]
CHAIN_SHAPES = [(n, k) for n in (2, 4, 6, 8) for k in (2, 6)]
# ROADMAP levels {1, 32, 128, 200}, the last level before sixj overflows,
# and one seeded level in each band; circle_w0 and empty (no vertices, so
# no sixj) also run past 201.
FIXED_LEVELS = (1, 2, 32, 128, 200, 201)
LEVEL_BANDS = (8, 24, 48, 80, 112, 160, 184)
BAND_WIDTH = 8
HIGH_LEVELS = (202, 256)
CROSSCHECK_LOOPS = (1, 2, 3, 4, 5)
CROSSCHECK_LEVELS = (1, 2, 3, 4, 5, 6)
CROSSCHECK_REPEATS = 8
PAIR_SEGMENTS = (16, 32, 48, 64)
PAIRS_PER_SIZE = 3


@dataclass
class Job:
    """One CLI call (`argv`) or one library cross-check config (`link`).

    `expect_value` is a golden value, `reference` names a shadow file and
    level whose value the mpmath reference supplies, `expect_pass` marks a
    `check` command whose printed value must be 1.  Every job must exit 0,
    print strict JSON with a finite value, and keep any route difference
    within 1e-9.
    """

    name: str
    argv: list[str] | None = None
    link: str | None = None
    expect_value: complex | None = None
    reference: tuple[str, int] | None = None
    expect_pass: bool = False
    group: str = ""


@dataclass
class Workload:
    name: str
    why: str
    jobs: list[Job] = field(default_factory=list)


# ---------------------------------------------------------------------------
# file writers (the link and shadow JSON formats of shadowsum.files)

def _write_json(path: Path, obj) -> str:
    path.write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return str(path)


def _circle(cx, cy, r, nseg, *, winding=0, theta0=0.5, ccw=True, phase=0.0,
            theta_fn=None) -> dict:
    """Regular nseg-gon with a linear (or supplied) circle-coordinate lift;
    the closing vertex repeats the first one in the plane."""
    verts = []
    for i in range(nseg + 1):
        a = phase + TAU * (i % nseg) / nseg * (1 if ccw else -1)
        th = theta_fn(i / nseg) if theta_fn else theta0 + TAU * winding * i / nseg
        verts.append([cx + r * math.cos(a), cy + r * math.sin(a), th])
    return {"color": 0.5, "framing": 0, "vertical": False, "vertices": verts}


def _link(loops, level, t0=0.0) -> dict:
    return {"level": level, "loops": loops, "t0": t0}


def _random_circle(rng, cx, cy, r, nseg) -> dict:
    return _circle(cx, cy, r, nseg, winding=rng.randint(-2, 2),
                   theta0=rng.uniform(0.1, 6.1), ccw=rng.random() < 0.5,
                   phase=rng.uniform(0.0, TAU))


def _copy_corpus(root: Path, inputs: Path, name: str) -> str:
    dst = inputs / name
    shutil.copyfile(root / "corpus" / name, dst)
    return str(dst)


def golden_rows(root: Path):
    """(command, file, args, value) for every row of corpus/golden.tsv."""
    rows = []
    for line in (root / "corpus" / "golden.tsv").read_text(encoding="utf-8").splitlines():
        if not line or line.startswith("#"):
            continue
        cmd, fname, args, re_s, im_s = line.split("\t")
        rows.append((cmd, fname, args.split(), complex(float(re_s), float(im_s))))
    return rows


def _golden_jobs(root: Path, inputs: Path, keep) -> list[Job]:
    jobs = []
    for cmd, fname, args, value in golden_rows(root):
        if not keep(cmd, fname, args):
            continue
        files = [] if fname == "-" else [_copy_corpus(root, inputs, fname)]
        jobs.append(Job(
            name=f"golden {cmd} {fname} {' '.join(args)}",
            argv=[cmd, *args, "--format", "json", *files],
            expect_value=None if cmd == "check" else value,
            expect_pass=cmd == "check",
            group="golden"))
    return jobs


# ---------------------------------------------------------------------------
# workloads

def dpfree_scale(rng: random.Random, root: Path, inputs: Path) -> list[Job]:
    """Flat rows and nested chains of 16-gon circles through `wlo --mode
    dpfree`, plus the golden dpfree, bijection and euler rows."""
    jobs = []
    for shape, sizes in (("row", ROW_SHAPES), ("chain", CHAIN_SHAPES)):
        for n, k in sizes:
            if shape == "row":
                loops = [_random_circle(rng, 3.0 * i, 0.0, 1.0, 16) for i in range(n)]
            else:
                loops = [_random_circle(rng, 0.0, 0.0, 0.75 ** i, 16) for i in range(n)]
            path = _write_json(inputs / f"{shape}{n}_k{k}.link.json", _link(loops, k))
            jobs.append(Job(name=f"{shape} n={n} k={k}",
                            argv=["wlo", "--mode", "dpfree", "--format", "json", path],
                            group=f"{shape} n={n} k={k}"))
    jobs += _golden_jobs(root, inputs, lambda cmd, f, args: (
        (cmd == "wlo" and "dpfree" in args) or (cmd == "check" and "lem2" not in args)))
    return jobs


def _random_dpfree_link(rng: random.Random, n_loops: int, level: int) -> dict:
    """Disjoint circles with a random nesting forest, placed so that
    disjointness holds by construction (the distribution of
    scripts/crosscheck_random.py, with the loop count given)."""
    parents = [rng.choice([None] + list(range(i))) for i in range(n_loops)]
    children = [[] for _ in range(n_loops)]
    roots = []
    for i, p in enumerate(parents):
        (roots if p is None else children[p]).append(i)
    geom = {}

    def place(node, cx, cy, r):
        geom[node] = (cx, cy, r)
        kids = children[node]
        for t, kid in enumerate(kids):
            ang = TAU * t / len(kids) + 0.37
            place(kid, cx + 0.52 * r * math.cos(ang), cy + 0.52 * r * math.sin(ang), 0.2 * r)

    for t, node in enumerate(roots):
        place(node, 4.0 * t, 0.0, 1.0)
    loops = [_random_circle(rng, *geom[i], rng.randint(12, 18)) for i in range(n_loops)]
    return _link(loops, level)


def crosscheck_random(rng: random.Random, root: Path, inputs: Path) -> list[Job]:
    """Random double-point-free links, every loop count 1..5 at every level
    1..6, each run through the library cross-check."""
    jobs = []
    for rep in range(CROSSCHECK_REPEATS):
        for n in CROSSCHECK_LOOPS:
            for k in CROSSCHECK_LEVELS:
                path = _write_json(inputs / f"config_{rep}_{n}_{k}.link.json",
                                   _random_dpfree_link(rng, n, k))
                jobs.append(Job(name=f"config rep={rep} loops={n} k={k}", link=path,
                                group=f"loops={n}"))
    return jobs


def shadow_levels(rng: random.Random, root: Path, inputs: Path) -> list[Job]:
    """`eval` of the corpus shadows over levels 1..256 (twocircles, the
    only one with vertices, up to 201), plus the golden eval rows."""
    seeded = tuple(b + rng.randrange(BAND_WIDTH) for b in LEVEL_BANDS)
    levels = sorted(FIXED_LEVELS + seeded)
    jobs = []
    for stem, extra in (("twocircles", ()), ("circle_w0", HIGH_LEVELS), ("empty", HIGH_LEVELS)):
        name = f"{stem}.shadow.json"
        path = _copy_corpus(root, inputs, name)
        for k in levels + list(extra):
            jobs.append(Job(name=f"eval {stem} k={k}",
                            argv=["eval", "--level", str(k), "--format", "json", path],
                            reference=(name, k), group=f"{stem} k={k}"))
    jobs += _golden_jobs(root, inputs, lambda cmd, f, args: cmd == "eval")
    return jobs


def known_defect_jobs(root: Path, inputs: Path) -> list[Job]:
    """twocircles above level 201, where the float [n]! of sixj overflows;
    probed outside the timed loop (see README.md)."""
    name = "twocircles.shadow.json"
    path = _copy_corpus(root, inputs, name)
    return [Job(name=f"eval twocircles k={k}",
                argv=["eval", "--level", str(k), "--format", "json", path],
                reference=(name, k), group="known defect")
            for k in HIGH_LEVELS]


def _crossing_pair(rng: random.Random, nseg: int, level: int) -> dict:
    """Two unit circles at distance 1, so their projections cross twice,
    with oscillating null-homologous circle coordinates.  The seed turns
    the polygons and moves the lifts; the shape, and so the cost, stays."""

    def profile():
        base, ph = rng.uniform(0.5, 5.8), rng.uniform(0.0, TAU)
        return lambda u: base + 0.8 * math.sin(TAU * u + ph)

    a = _circle(0.0, 0.0, 1.0, nseg, ccw=rng.random() < 0.5, phase=rng.uniform(0, TAU),
                theta_fn=profile())
    b = _circle(1.0, 0.0, 1.0, nseg, ccw=rng.random() < 0.5, phase=rng.uniform(0, TAU),
                theta_fn=profile())
    return _link([a, b], level)


def abelian_links(rng: random.Random, root: Path, inputs: Path) -> list[Job]:
    """Crossing pairs of 16..64-gons, three of each size, through `wlo
    --mode abelian` and `check --what lem2`, plus the golden abelian, lem2
    and vertical rows.  Three pairs per size keep the latency percentiles
    inside a run of jobs of one size."""
    jobs = []
    for nseg in PAIR_SEGMENTS:
        for i in range(PAIRS_PER_SIZE):
            path = _write_json(inputs / f"pair{nseg}_{i}.link.json",
                               _crossing_pair(rng, nseg, rng.randint(1, 6)))
            jobs.append(Job(name=f"abelian pair{nseg}_{i}",
                            argv=["wlo", "--mode", "abelian", "--format", "json", path],
                            group=f"abelian segments={nseg}"))
            jobs.append(Job(name=f"lem2 pair{nseg}_{i}",
                            argv=["check", "--what", "lem2", "--format", "json", path],
                            expect_pass=True, group=f"lem2 segments={nseg}"))
    jobs += _golden_jobs(root, inputs, lambda cmd, f, args: (
        "abelian" in args or "vertical" in args or "lem2" in args))
    return jobs


WORKLOADS = {
    "dpfree-scale": (dpfree_scale,
                     "rows cost (k+1)^n colorings in shadow enumeration, chains of the same n "
                     "do not"),
    "crosscheck-random": (crosscheck_random,
                          "library cross-check of random dpfree links; geometry (validate, "
                          "face_complex) dominates"),
    "shadow-levels": (shadow_levels,
                      "the only workload that calls sixj; enumeration and 6j cost grow with "
                      "the level"),
    "abelian-links": (abelian_links,
                      "the only workload that runs linking and evaluators; no enumeration "
                      "and no 6j"),
}


def generate(name: str, seed: int, root: Path, inputs: Path) -> Workload:
    """Write the inputs of workload `name` for `seed` into `inputs` and
    return its round of jobs."""
    build, why = WORKLOADS[name]
    if inputs.exists():
        shutil.rmtree(inputs)
    inputs.mkdir(parents=True)
    rng = random.Random(f"{name}:{seed}")
    return Workload(name, why, build(rng, root, inputs))
