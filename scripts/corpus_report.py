#!/usr/bin/env python3
"""Evaluate every corpus file through the command line and compare against
the frozen values in corpus/golden.tsv.  After the summary line it prints
the median and largest wall time of the `python -m shadowsum.cli`
subprocesses, interpreter start and imports included."""

import json
import pathlib
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"


def main():
    rows = []
    for line in (CORPUS / "golden.tsv").read_text().splitlines():
        if not line or line.startswith("#"):
            continue
        cmd, fname, args, re_s, im_s = line.split("\t")
        rows.append((cmd, fname, args, complex(float(re_s), float(im_s))))

    failures = 0
    walls = []
    for cmd, fname, args, expected in rows:
        argv = [sys.executable, "-m", "shadowsum.cli", cmd, *args.split(),
                "--format", "json"]
        if fname != "-":
            argv.append(str(CORPUS / fname))
        start = time.perf_counter()
        proc = subprocess.run(argv, capture_output=True, text=True,
                              env={"PYTHONPATH": str(ROOT / "src")})
        walls.append(time.perf_counter() - start)
        label = f"{cmd} {args} {fname}"
        if cmd == "check":
            status = "pass" if proc.returncode == 0 else "FAIL"
            if proc.returncode != 0:
                failures += 1
            print(f"{status:5} {label}")
            continue
        if proc.returncode != 0:
            failures += 1
            print(f"FAIL  {label} (exit {proc.returncode}): {proc.stderr.strip()}")
            continue
        value = complex(*json.loads(proc.stdout)["value"])
        ok = abs(value - expected) <= 1e-9
        if not ok:
            failures += 1
        print(f"{'pass' if ok else 'FAIL':5} {label}: {value:.12g} "
              f"(expected {expected:.12g})")
    print(f"\n{len(rows)} rows, {failures} failures")
    print(f"cli wall time per call: median {statistics.median(walls) * 1e3:.1f} ms, "
          f"max {max(walls) * 1e3:.1f} ms over {len(walls)} calls")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
