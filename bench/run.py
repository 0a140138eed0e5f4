#!/usr/bin/env python3
"""Benchmark of shadowsum: four closed-loop workloads, one caller each.

    python3 bench/run.py --workload dpfree-scale --seed 1 --seconds 20 --trace 0

Run from the repository root.  The benchmark writes the workload's input
files from the seed, then repeats the workload's round of jobs until
`--seconds` have passed (always finishing the round).  A job is one
`shadowsum.cli.main(argv)` call with stdout captured, or one library
cross-check config.  Every output is checked (strict JSON, finite values,
golden rows, route differences, mpmath references) and every failed check
counts as a failed job.  Reported times are scaled to nominal machine
speed (see speed.py); the plain wall times are reported as `wall.*`.

With `--trace 0` the last line of stdout is a JSON object carrying the
end-to-end metrics; with `--trace 1` untraced and traced rounds alternate
and it carries the per-layer metrics (see README.md).  Lines before it
are a readable report; the full record, with metadata, is written under
bench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

from speed import NOMINAL_S, Sampler

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 9
MIN_SAMPLES = 100      # so that at least 10 timed jobs lie beyond p90
TOLERANCE = 1e-9

perf = time.perf_counter


# ---------------------------------------------------------------------------
# set-up

def _import_shadowsum():
    """Import shadowsum from scratch, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "shadowsum" or n.startswith("shadowsum.")]:
        del sys.modules[name]
    importlib.import_module("shadowsum")
    importlib.import_module("shadowsum.cli")


def setup(workload: str, seed: int, inputs: Path, sampler):
    """Import shadowsum and write the inputs, SETUP_REPEATS times; return
    the median scaled and wall durations and the workload of the last
    repeat."""
    import workloads

    spans = []
    with sampler:
        for _ in range(SETUP_REPEATS):
            t = perf()
            _import_shadowsum()
            wl = workloads.generate(workload, seed, ROOT, inputs)
            spans.append((t, perf()))
    return (statistics.median(sampler.scaled(t0, t1) for t0, t1 in spans),
            statistics.median(t1 - t0 for t0, t1 in spans), wl)


# ---------------------------------------------------------------------------
# jobs

def run_cli(argv):
    """(exit code, stdout) of one in-process CLI call."""
    cli = sys.modules["shadowsum.cli"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is a failed job, not a failed benchmark
            code = f"exception {type(exc).__name__}: {exc}"
    return code, out.getvalue()


def run_crosscheck(path):
    """(status, output line) of one library cross-check config: validate,
    face_complex, pair sum, final state sum, bijection."""
    ss = sys.modules["shadowsum"]
    try:
        link = ss.load_link(path)
        report = ss.validate(link)
        if not report.ok or report.double_points:
            return "not an admissible dpfree link", ""
        level = ss.Level(link.level)
        fc = ss.face_complex(link)
        a = ss.wlo_dpfree_pairsum(link, level, fc)
        b = ss.wlo_dpfree_final(link, level, fc)
        br = ss.check_bijection(link, level, fc)
    except Exception as exc:  # a crash is a failed job, not a failed benchmark
        return f"exception {type(exc).__name__}: {exc}", ""
    return 0, json.dumps({
        "bijection": br.ok, "colorings": br.colorings_count, "final": [b.real, b.imag],
        "pairs": br.pairs_count, "pairsum": [a.real, a.imag]}, sort_keys=True) + "\n"


def run_job(job):
    return run_cli(job.argv) if job.argv is not None else run_crosscheck(job.link)


# ---------------------------------------------------------------------------
# output checks

def _reject_constant(name):
    raise ValueError(f"non-finite constant {name}")


def strict_json(text):
    """Parse like json.loads, but reject NaN and Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def _finite(z: complex) -> bool:
    return math.isfinite(z.real) and math.isfinite(z.imag)


def check(job, code, out, refs):
    """(failure reason or None, route differences) of one job's output."""
    if code != 0:
        return f"exit {code}", []
    try:
        obj = strict_json(out)
    except ValueError as exc:
        return f"stdout is not strict JSON ({exc})", []
    try:
        return _check_fields(job, obj, refs)
    except (KeyError, TypeError) as exc:
        return f"stdout lacks a field ({type(exc).__name__}: {exc})", []


def _check_fields(job, obj, refs):
    diffs = []
    if job.link is not None:
        a, b = complex(*obj["pairsum"]), complex(*obj["final"])
        if not (_finite(a) and _finite(b)):
            return "value not finite", diffs
        scale = max(abs(a), abs(b))
        diffs.append(abs(a - b) / scale if scale > 1e-12 else abs(a - b))
        if not obj["bijection"]:
            return "pair/coloring bijection fails", diffs
    else:
        value = complex(*obj["value"])
        if not _finite(value):
            return "value not finite", diffs
        if "difference" in obj["diagnostics"]:
            diffs.append(obj["diagnostics"]["difference"])
        if job.expect_value is not None:
            diffs.append(abs(value - job.expect_value))
        if job.reference is not None:
            ref = refs[job.reference]
            diffs.append(abs(value - ref) / max(1.0, abs(ref)))
        if job.expect_pass and value != 1:
            return "check reported failure", diffs
    if any(not d <= TOLERANCE for d in diffs):
        return f"route difference {max(diffs):.3e} above {TOLERANCE}", diffs
    return None, diffs


def references(jobs, inputs: Path):
    """mpmath values for every (shadow file, level) the jobs name."""
    import reference

    wanted = sorted({job.reference for job in jobs if job.reference})
    refs = {}
    for name, k in wanted:
        with open(inputs / name, encoding="utf-8") as fh:
            refs[(name, k)] = reference.state_sum(json.load(fh), k)
    return refs


# ---------------------------------------------------------------------------
# the closed loop

class Loop:
    """Runs rounds of a job list and keeps the start and end of every job,
    the stdout of round 1, and whether later rounds repeated it."""

    def __init__(self, jobs):
        self.jobs = jobs
        self.first = None               # (code, stdout) per job of round 1
        self.executions = []            # (job index, same stdout as round 1)
        self.rounds = []                # per round, (start, end) per job

    def warm_up(self):
        """One round that fills caches and sets the reference outputs; its
        timings are dropped."""
        self.round()
        self.rounds.clear()

    def round(self, tracer=None):
        gc.collect()
        spans, outs = [], []
        for i, job in enumerate(self.jobs):
            if tracer is not None:
                tracer.begin_job(i)
            t0 = perf()
            outs.append(run_job(job))
            t1 = perf()
            if tracer is not None:
                tracer.end_job()
            spans.append((t0, t1))
        if self.first is None:
            self.first = outs
        for i, co in enumerate(outs):
            self.executions.append((i, co == self.first[i]))
        self.rounds.append(spans)

    def latencies(self, sampler=None):
        """Per round, per job seconds: wall time, or with a sampler, the
        time scaled to nominal machine speed (see speed.py)."""
        if sampler is None:
            return [[t1 - t0 for t0, t1 in r] for r in self.rounds]
        return [[sampler.scaled(t0, t1) for t0, t1 in r] for r in self.rounds]

    def verdicts(self, refs):
        """Failure reason per job of round 1, and the route differences."""
        reasons, diffs = [], []
        for job, (code, out) in zip(self.jobs, self.first):
            reason, d = check(job, code, out, refs)
            reasons.append(reason)
            diffs.extend(d)
        return reasons, diffs

    def failures(self, reasons):
        """Failed executions: a failed round-1 check, or output that
        differs from round 1."""
        failed = Counter()
        for i, same in self.executions:
            reason = reasons[i] if same else "stdout differs from round 1"
            if reason:
                failed[reason] += 1
        return failed

    def digest(self):
        return hashlib.sha256("".join(out for _, out in self.first).encode()).hexdigest()


def _slowdown_summary(sampler):
    """Kernel time over nominal, across the speed samples of the run."""
    if not sampler.kernel_s:
        return {}
    q = statistics.quantiles([k / NOMINAL_S for k in sampler.kernel_s], n=4)
    return {"samples": len(sampler.kernel_s), "q1": q[0], "median": q[1], "q3": q[2]}


def _quantile(values, q):
    return statistics.quantiles(values, n=100)[q - 1]


# ---------------------------------------------------------------------------
# metadata

def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _metadata(args, wl, rounds):
    per_round = Counter(job.group for job in wl.jobs)
    return {
        "workload": wl.name, "why": wl.why, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(), "nproc": os.cpu_count(),
        "cpu": _cpu_model(), "git_commit": _git_commit(), "rounds": rounds,
        "jobs_per_round": len(wl.jobs),
        "jobs_per_group": {g: n * rounds for g, n in sorted(per_round.items())},
    }


# ---------------------------------------------------------------------------
# runs

def _latency_metrics(rounds):
    lat = [x for r in rounds for x in r]
    return {
        "jobs_per_s": (statistics.median(len(r) / sum(r) for r in rounds), "1/s"),
        "job_ms_p50": (_quantile(lat, 50) * 1e3, "ms"),
        "job_ms_p90": (_quantile(lat, 90) * 1e3, "ms"),
    }


def untraced(args, wl, sampler):
    loop = Loop(wl.jobs)
    with sampler:
        loop.warm_up()
        start = perf()
        while True:
            loop.round()
            if perf() - start >= args.seconds \
                    and len(loop.rounds) * len(wl.jobs) >= MIN_SAMPLES:
                break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {**_latency_metrics(loop.latencies(sampler)), "peak_rss_mb": (rss_mb, "MB")}
    wall = {f"wall.{k}": v for k, v in _latency_metrics(loop.latencies()).items()}
    return loop, metrics, wall


def traced(args, wl, out_dir):
    """Alternate untraced and traced rounds; per-layer metrics come from
    the traced rounds, trace.overhead_frac from the pair."""
    from tracer import LAYERS, Tracer

    loop_u, loop_t = Loop(wl.jobs), Loop(wl.jobs)
    loop_u.warm_up()
    tracer = Tracer()
    per_round = []                     # (totals, counters) per traced round
    start = perf()
    while True:
        t_pair = perf()
        loop_u.round()
        first = len(tracer.spans)
        tracer.counters.clear()
        tracer.install()
        try:
            loop_t.round(tracer)
        finally:
            tracer.uninstall()
        per_round.append((tracer.layer_totals(first), dict(tracer.counters)))
        pair = perf() - t_pair
        if perf() - start + pair > args.seconds:
            break
    tracer.write(out_dir / "spans.jsonl")

    totals, counters = per_round[0]
    calls_repeat = all(
        {m: t[m][0] for m in LAYERS} == {m: totals[m][0] for m in LAYERS} and c == counters
        for t, c in per_round)
    metrics = {}
    for m in LAYERS:
        metrics[f"{m}.calls"] = (totals[m][0], "count")
        metrics[f"{m}.self_ms"] = (statistics.median(t[m][1] for t, _ in per_round) * 1e3, "ms")
    metrics["shadow.enumerate_colorings.accepted"] = (
        counters.get("shadow.enumerate_colorings.accepted", 0), "count")
    cand = counters.get("shadow.enumerate_pairs.candidates", 0)
    metrics["shadow.enumerate_pairs.accept_ratio"] = (
        counters.get("shadow.enumerate_pairs.accepted", 0) / cand if cand else 0.0, "ratio")
    metrics["quantum.sixj.distinct"] = (counters.get("quantum.sixj.distinct", 0), "count")
    # each traced round is paired with the untraced round just before it
    slowdown = [sum(t) / sum(u) for u, t in zip(loop_u.latencies(), loop_t.latencies())]
    metrics["trace.overhead_frac"] = (1.0 - 1.0 / statistics.median(slowdown), "ratio")
    return loop_u, loop_t, metrics, calls_repeat


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="shadowsum benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "shadowsum" / "cli.py").is_file() \
            or not (ROOT / "corpus" / "golden.tsv").is_file():
        print(f"error: no shadowsum checkout at {ROOT} (src/shadowsum, corpus/)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    out_dir = BENCH / "out" / f"{args.workload}-seed{args.seed}"
    sampler = Sampler()
    setup_s, setup_wall_s, wl = setup(args.workload, args.seed, out_dir / "inputs", sampler)

    if args.trace:
        loop_u, loop_t, metrics, calls_repeat = traced(args, wl, out_dir)
        loops = (loop_u, loop_t)
        wall = {}
    else:
        loop, metrics, wall = untraced(args, wl, sampler)
        metrics = {"setup_s": (setup_s, "s"), **metrics}
        wall = {"wall.setup_s": (setup_wall_s, "s"), **wall}
        loops = (loop,)
        calls_repeat = True
    samples = sum(len(r) for r in loops[-1].rounds)

    # checks, after the timed loop (mpmath is not timed and not in peak RSS)
    probe = workloads.known_defect_jobs(ROOT, out_dir / "inputs") \
        if args.workload == "shadow-levels" else []
    refs = references(wl.jobs + probe, out_dir / "inputs")
    failed, diffs = Counter(), []
    for lp in loops:
        reasons, d = lp.verdicts(refs)
        failed += lp.failures(reasons)
        diffs += d
    attempted = sum(len(lp.executions) for lp in loops)
    digests = {lp.digest() for lp in loops}
    if len(digests) != 1:
        failed["traced stdout differs from untraced"] += 1
    if not calls_repeat:
        failed["traced call counts differ between rounds"] += 1
    n_failed = sum(failed.values())
    probe_results = [(job.name, check(job, *run_job(job), refs)[0]) for job in probe]

    rounds = len(loops[-1].rounds)
    record = {
        "metadata": _metadata(args, wl, rounds),
        "stdout_sha256": digests.pop() if len(digests) == 1 else sorted(digests),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "wall_metrics": {k: {"value": v, "unit": u} for k, (v, u) in wall.items()},
        "samples": samples,
        "machine_slowdown": _slowdown_summary(sampler),
        "job_names": [job.name for job in wl.jobs],
        "round_latencies_ms": [[x * 1e3 for x in r] for r in loops[0].latencies()],
        "route_diff_max": max(diffs, default=0.0),
        "fail_frac": n_failed / attempted,
        "failures": dict(failed),
        "known_defect_probe": [{"job": n, "failure": r} for n, r in probe_results],
    }
    (out_dir / f"result-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    print(f"workload {wl.name} seed {args.seed} trace {args.trace}: "
          f"{rounds} rounds of {len(wl.jobs)} jobs, {samples} timed samples")
    for name, (value, unit) in {**metrics, **wall}.items():
        print(f"  {name:42s} {value:14.6g} {unit}")
    print(f"  {'route_diff_max':42s} {record['route_diff_max']:14.3g} abs")
    print(f"  {'fail_frac':42s} {record['fail_frac']:14.6g} ratio "
          f"({n_failed} of {attempted} jobs)")
    for reason, count in sorted(failed.items()):
        print(f"    failed: {count} x {reason}")
    for name, reason in probe_results:
        print(f"  known-defect probe {name}: {'FAILED, ' + reason if reason else 'ok'}")
    print(f"  stdout_sha256 {record['stdout_sha256']}")
    print(json.dumps({
        "correct": n_failed == 0, "attempted": attempted, "failed": n_failed,
        "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
