"""Compare two checkouts on one benchmark workload in alternating pairs.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload W --pairs N \
        --seed S --seconds T --out BENCH_<n>.json

PARENT and CHANGE are checkout roots, each with its own bench/run.py.
Before the runs every `__pycache__` under both roots is deleted and both
are byte-compiled the same way (`python3 -m compileall -q src bench
scripts`), since `setup_s` and `peak_rss_mb` depend on how the bytecode
was built.  Pair i runs the parent first when i is even and the change
first when it is odd.  Each run is `bench/run.py --trace 0` from its
checkout root; its last stdout line gives the correctness verdict and the
metrics, and its report line the stdout digest.

The output file holds, per workload, every pair's end-to-end metrics (the
`end_to_end` list of the change's BENCHMARK.json) and, per metric, each
side's median and quartiles, the change's median over the parent's, the
number of pairs the change wins and a verdict:

  * `gain`: the change wins at least 9 of every 10 pairs, and its median
    is better than the parent's by more than the parent's interquartile
    range;
  * `worse than bound`: its median is worse than the parent's by more
    than the metric's `bound` (a fraction of the parent's median);
  * `unresolved`: the parent's interquartile range is wider than the
    bound's share of its median, so the runs cannot show a change within
    the bound, and some run of the change is no better than some run of
    the parent;
  * `within noise`: none of these.

The verdicts are tested in that order.

A warning line is printed when the parent's and the change's stdout
digests differ or a run fails its output checks.  An existing output file
keeps its other workloads, so one file can collect several invocations.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys


def byte_compile(root: pathlib.Path) -> None:
    for cache in sorted(root.rglob("__pycache__")):
        shutil.rmtree(cache)
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "bench", "scripts"],
                   cwd=root, check=True, stdout=subprocess.DEVNULL)


def describe(root: pathlib.Path) -> str:
    """The checkout's commit, marked when its tree differs from it."""
    git = ["git", "-C", str(root)]
    head = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True)
    if head.returncode != 0:
        return f"{root.name} (no git history)"
    dirty = subprocess.run(git + ["status", "--porcelain", "--untracked-files=no"],
                           capture_output=True, text=True).stdout.strip()
    return head.stdout.strip() + (" with uncommitted changes" if dirty else "")


def run_once(root: pathlib.Path, args) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"bench/run.py failed in {root} (exit {proc.returncode}):\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    last = json.loads(lines[-1])
    digest = next(line.split()[1] for line in lines if line.startswith("  stdout_sha256 "))
    return {
        "correct": last["correct"], "attempted": last["attempted"], "failed": last["failed"],
        "stdout_sha256": digest,
        "metrics": {name: m["value"] for name, m in last["metrics"].items()},
    }


def summary(runs: list[dict], better: str, bound: float) -> dict:
    """Median and quartiles of each side, the change's wins by pair and
    the verdict."""
    out = {"better": better, "bound": bound}
    for side in ("parent", "change"):
        values = [r[side] for r in runs]
        q1, med, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                       if len(values) > 1 else values * 3)
        out[side] = {"runs": values, "median": med, "q1": q1, "q3": q3}
    sign = 1 if better == "higher" else -1
    out["change_wins"] = sum(sign * (r["change"] - r["parent"]) > 0 for r in runs)
    out["change_over_parent"] = out["change"]["median"] / out["parent"]["median"]
    parent = out["parent"]
    gain = sign * (out["change"]["median"] - parent["median"])
    spread = parent["q3"] - parent["q1"]
    if 10 * out["change_wins"] >= 9 * len(runs) and gain > spread:
        out["verdict"] = "gain"
    elif -gain > bound * parent["median"]:
        out["verdict"] = "worse than bound"
    elif (spread > bound * parent["median"]
          and min(sign * r["change"] for r in runs) <= max(sign * r["parent"] for r in runs)):
        out["verdict"] = "unresolved"
    else:
        out["verdict"] = "within noise"
    return out


def warnings(pairs: list[dict]) -> list[str]:
    """A line for each side's runs that failed their output checks, and
    one when the two sides' stdout digests differ."""
    out = []
    for side in ("parent", "change"):
        failed = [i + 1 for i, p in enumerate(pairs) if not p[side]["correct"]]
        if failed:
            out.append(f"WARNING: {side} runs of pairs {failed} failed their output checks")
    digests = {side: sorted({p[side]["stdout_sha256"] for p in pairs})
               for side in ("parent", "change")}
    if digests["parent"] != digests["change"]:
        out.append(f"WARNING: stdout digests differ: parent {digests['parent']}, "
                   f"change {digests['change']}")
    return out


def pair_line(i: int, total: int, pair: dict, end_to_end: list[dict]) -> str:
    """One pair's line: which side ran first, each side's attempted job
    count, against which `peak_rss_mb` grows, and each end-to-end metric,
    parent -> change."""
    return f"pair {i + 1}/{total} ({pair['first']} first): " + ", ".join(
        [f"attempted {pair['parent']['attempted']} -> {pair['change']['attempted']}"]
        + [f"{m['name']} {pair['parent']['metrics'][m['name']]:.4g} -> "
           f"{pair['change']['metrics'][m['name']]:.4g}" for m in end_to_end])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=pathlib.Path)
    ap.add_argument("change", type=pathlib.Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--out", type=pathlib.Path, required=True)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, root in roots.items():
        if not (root / "bench" / "run.py").is_file():
            ap.error(f"{side} checkout {root} has no bench/run.py")
    end_to_end = json.loads((roots["change"] / "BENCHMARK.json").read_text())["end_to_end"]

    for root in roots.values():
        byte_compile(root)
    pairs = []
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"first": order[0]}
        for side in order:
            pair[side] = run_once(roots[side], args)
        pairs.append(pair)
        print(pair_line(i, args.pairs, pair, end_to_end), flush=True)

    record = json.loads(args.out.read_text()) if args.out.is_file() else {}
    record["method"] = {
        "command": "python3 bench/run.py --workload W --seed S --seconds T --trace 0, "
                   "run from the root of each checkout by scripts/bench_pairs.py",
        "bytecode": "every __pycache__ deleted, then python3 -m compileall -q src bench "
                    "scripts in both checkouts, before the runs",
        "order": "pair i runs the parent first when i is even, the change first when odd",
        "host": f"{platform.machine()}, Python {platform.python_version()}",
    }
    record.setdefault("workloads", {})[args.workload] = {
        "parent": describe(roots["parent"]),
        "change": describe(roots["change"]),
        "seed": args.seed,
        "seconds": args.seconds,
        "correct_all": all(p[s]["correct"] for p in pairs for s in roots),
        "stdout_sha256": sorted({p[s]["stdout_sha256"] for p in pairs for s in roots}),
        "summary": {m["name"]: summary(
            [{s: p[s]["metrics"][m["name"]] for s in roots} for p in pairs], m["better"],
            m["bound"]) for m in end_to_end},
        "pairs": pairs,
    }
    args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    for name, s in record["workloads"][args.workload]["summary"].items():
        p = s["parent"]
        print(f"  {name:12s} parent {p['median']:.4g} (quartiles {p['q1']:.4g}-{p['q3']:.4g}) "
              f"change {s['change']['median']:.4g} ({s['change_over_parent']:.3f}x, "
              f"change wins {s['change_wins']}/{args.pairs}): {s['verdict']}")
    for line in warnings(pairs):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
