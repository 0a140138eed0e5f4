"""Self-tests of the benchmark.

    python3 -m pytest bench/test_bench.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads
from workloads import Job

ROOT = Path(__file__).resolve().parent.parent


def _snapshot(name, seed, dest):
    """Bytes of every input file plus the job list of one generated round."""
    wl = workloads.generate(name, seed, ROOT, dest)
    files = {p.name: p.read_bytes() for p in sorted(dest.iterdir())}
    jobs = [(j.name, [Path(a).name for a in j.argv or []], Path(j.link).name if j.link else None)
            for j in wl.jobs]
    return files, jobs


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_determines_inputs(name, tmp_path):
    a = _snapshot(name, 7, tmp_path / "a")
    b = _snapshot(name, 7, tmp_path / "b")
    c = _snapshot(name, 8, tmp_path / "c")
    assert a == b
    assert a != c


def test_every_golden_row_runs_once(tmp_path):
    golden = 0
    for name in workloads.WORKLOADS:
        wl = workloads.generate(name, 1, ROOT, tmp_path / name)
        golden += sum(1 for j in wl.jobs if j.group == "golden")
    assert golden == len(workloads.golden_rows(ROOT))


@pytest.mark.parametrize("stdout", [
    '{"diagnostics": {}, "value": [NaN, NaN]}\n',
    '{"diagnostics": {}, "value": [Infinity, 0.0]}\n',
    '{"diagnostics": {}, "value": [1.0, 0.0]',
])
def test_invalid_output_fails(stdout):
    reason, _ = run.check(Job(name="x", argv=["eval"]), 0, stdout, {})
    assert reason is not None


def test_check_rules():
    job = Job(name="x", argv=["wlo"], expect_value=complex(-1.5, 0))
    ok = '{"diagnostics": {"difference": 1e-15}, "value": [-1.5, 0.0]}\n'
    assert run.check(job, 0, ok, {})[0] is None
    assert run.check(job, 4, ok, {})[0] == "exit 4"
    off = '{"diagnostics": {"difference": 1e-15}, "value": [-1.4, 0.0]}\n'
    assert "route difference" in run.check(job, 0, off, {})[0]
    split = '{"diagnostics": {"difference": 1e-6}, "value": [-1.5, 0.0]}\n'
    assert "route difference" in run.check(job, 0, split, {})[0]


def test_nan_job_counts_as_failed():
    """A job printing NaN fails in every round that runs it."""
    job = Job(name="nan", argv=["eval"])
    loop = run.Loop([job])
    loop.first = [(0, '{"diagnostics": {}, "value": [NaN, NaN]}\n')]
    loop.executions = [(0, True), (0, True)]
    reasons, _ = loop.verdicts({})
    assert sum(loop.failures(reasons).values()) == 2


def _bench(name, trace):
    out = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", name, "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    last = json.loads(out.stdout.strip().splitlines()[-1])
    record = json.loads(
        (ROOT / "bench" / "out" / f"{name}-seed3" / f"result-trace{trace}.json").read_text())
    return last, record


@pytest.mark.parametrize("name", ["shadow-levels", "crosscheck-random"])
def test_traced_and_untraced_agree(name):
    plain, plain_rec = _bench(name, 0)
    traced_a, rec_a = _bench(name, 1)
    traced_b, rec_b = _bench(name, 1)
    assert plain["correct"] and traced_a["correct"] and traced_b["correct"]
    assert plain_rec["stdout_sha256"] == rec_a["stdout_sha256"] == rec_b["stdout_sha256"]
    counts = lambda m: {k: v for k, v in m.items() if v["unit"] == "count"}
    assert counts(traced_a["metrics"]) == counts(traced_b["metrics"])
    assert plain_rec["samples"] >= run.MIN_SAMPLES
    assert set(plain["metrics"]) == {"setup_s", "jobs_per_s", "job_ms_p50", "job_ms_p90",
                                     "peak_rss_mb"}
