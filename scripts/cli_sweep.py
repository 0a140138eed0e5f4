#!/usr/bin/env python3
"""Run every corpus file through the command line and digest what it prints.

Each `corpus/*.json` file goes through `eval --level 2`, `wlo` in the
dpfree, abelian and vertical modes, `wlo --mode dpfree --level 6` (where a
link that lists a loop before its ancestor has pairs enough for the order
of their terms to matter), and `check --what bijection --level 3`,
`check --what euler` and `check --what lem2`, in both output formats.  Each
run prints one line: the exit code, the sha256 of its stdout and its argv.
The last line is the sha256 of all of those lines.  Stdout is
deterministic, so the digest moves only when some run's output or exit
code does; a change that must keep every output compares it with the
digest of its parent commit.

    python3 scripts/cli_sweep.py
"""

import contextlib
import hashlib
import io
import pathlib
import sys
import traceback

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from shadowsum.cli import main as cli_main  # noqa: E402

COMMANDS = (
    ("eval", "--level", "2"),
    ("wlo", "--mode", "dpfree"),
    ("wlo", "--mode", "dpfree", "--level", "6"),
    ("wlo", "--mode", "abelian"),
    ("wlo", "--mode", "vertical"),
    ("check", "--what", "bijection", "--level", "3"),
    ("check", "--what", "euler"),
    ("check", "--what", "lem2"),
)


def run(argv) -> tuple[int, str]:
    """Exit code and stdout of one in-process command-line run, with the
    exit code Python gives an uncaught exception (1)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli_main(list(argv))
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
        except Exception:
            code = 1
            print(traceback.format_exc(), file=sys.__stderr__)
    return code, out.getvalue()


def main() -> int:
    lines = []
    for path in sorted((ROOT / "corpus").glob("*.json")):
        rel = path.relative_to(ROOT).as_posix()
        for command in COMMANDS:
            for fmt in ("text", "json"):
                argv = (*command, "--format", fmt)
                code, out = run((*argv, str(path)))
                digest = hashlib.sha256(out.encode()).hexdigest()
                lines.append(f"{code} {digest} {' '.join(argv)} {rel}")
                print(lines[-1])
    print("sweep_sha256", hashlib.sha256("\n".join(lines).encode()).hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
