"""Command-line front end.

    shadowsum eval  [--level K] [--format text|json] FILE
    shadowsum wlo   --mode dpfree|abelian [--level K] [--format ...] FILE
    shadowsum wlo   --mode vertical [--level K] [--genus G] [--dims a,b,...]
                    [--format ...] [FILE]
    shadowsum check --what bijection|euler|lem2 [--level K] [--samples N] FILE

Exit codes: 0 success/pass, 1 check failed, 2 parse error (including an
argument out of range, --dims outside vertical mode and an input file
that cannot be read or is not UTF-8), 3 invariant violation (including a
value that is not finite), 4 mode precondition violated.

Each command and mode has a handler that returns a `RunResult`; `main`
alone times it, checks the result is finite, prints it and maps errors to
exit codes.  Output on stdout is deterministic: byte-identical input
produces byte-identical output.  The wall-clock time of the whole command,
reading and parsing included, goes to stderr.
"""

from __future__ import annotations

import argparse
import cmath
import dataclasses
import functools
import hashlib
import json
import random
import sys
import time
from typing import NamedTuple

from .errors import ParseError, PreconditionError, ShadowsumError
from .evaluators import wlo_abelian, wlo_abelian_intermediate, wlo_vertical
from .files import loads_link, loads_link_or_shadow, loads_shadow
from .geometry import admissible_at, crossing_marks, face_complex, validate, winding_s1
from .linking import link_number
from .quantum import Level
from .shadow import (
    Shadow,
    _pair_walk,
    check_bijection,
    enumerate_colorings,
    euler_identity_holds,
    state_sum_general,
    wlo_dpfree_final,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_INVARIANT = 3
EXIT_PRECONDITION = 4


class RunResult(NamedTuple):
    command: str
    digest: str
    value: complex
    diagnostics: dict
    passed: bool = True  # a check's value is 1 or 0, and a failed check exits 1

    def to_json(self) -> str:
        obj = {
            "command": self.command,
            "digest": self.digest,
            "value": [self.value.real, self.value.imag],
            "diagnostics": self.diagnostics,
        }
        return json.dumps(obj, sort_keys=True, allow_nan=False)

    def to_text(self) -> str:
        lines = [
            f"command: {self.command}",
            f"digest: {self.digest}",
            f"value: [{self.value.real!r}, {self.value.imag!r}]",
        ]
        for key in sorted(self.diagnostics):
            lines.append(f"{key}: {json.dumps(self.diagnostics[key], sort_keys=True)}")
        return "\n".join(lines)


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _read_input(path) -> tuple[bytes, str]:
    """The input file's bytes, read once, and the digest of those bytes."""
    with open(path, "rb") as fh:
        data = fh.read()
    return data, _digest(data)


def _finite(obj) -> bool:
    if isinstance(obj, dict):
        return all(_finite(x) for x in obj.values())
    if isinstance(obj, list):
        return all(_finite(x) for x in obj)
    if isinstance(obj, (float, complex)):
        return cmath.isfinite(obj)
    return True


def _require_level(args) -> int:
    if args.level is None:
        raise ParseError("--level is required for this command")
    return args.level


def _with_level_arg(link, args):
    return link if args.level is None else dataclasses.replace(link, level=args.level)


def _load_link_arg(args):
    """The link in the input file, with --level applied, and its digest."""
    if args.file is None:
        raise ParseError("this mode requires a link file")
    data, digest = _read_input(args.file)
    return _with_level_arg(loads_link(data), args), digest


def _spherical_link_arg(args):
    """`_load_link_arg` for the wlo modes on the sphere, which take no --dims."""
    if args.dims:
        raise ParseError(f"argument --dims: not allowed with --mode {args.mode}")
    return _load_link_arg(args)


def _require_genus_zero(args) -> None:
    if args.genus != 0:
        raise PreconditionError(
            f"{args.mode} mode evaluates spherical geometry; --genus must be 0")


def _eval(args) -> RunResult:
    data, digest = _read_input(args.file)
    shadow = loads_shadow(data)
    level = Level(_require_level(args))
    colorings = enumerate_colorings(shadow, level)
    value = state_sum_general(shadow, level, colorings=colorings)
    return RunResult("eval", digest, value, {
        "colorings": len(colorings), "edges": len(shadow.edges),
        "faces": len(shadow.faces), "vertices": len(shadow.vertices)})


def _wlo_vertical(args) -> RunResult:
    if args.file is not None and args.dims:
        raise ParseError("argument file: not allowed with --dims")
    if args.file is not None:
        link, digest = _load_link_arg(args)
        if not all(lp.vertical for lp in link.loops):
            raise PreconditionError("vertical mode requires vertical loops or --dims")
        dims = tuple(lp.color2 + 1 for lp in link.loops)
        k = link.level
    else:
        dims = args.dims
        k = _require_level(args)
        digest = _digest(f"vertical:{k}:{args.genus}:{dims}".encode())
    value = complex(wlo_vertical(k, args.genus, dims))
    return RunResult("wlo", digest, value, {"dims": list(dims), "genus": args.genus, "level": k})


def _wlo_abelian(args) -> RunResult:
    link, digest = _spherical_link_arg(args)
    _require_genus_zero(args)
    report = validate(link)
    if not report.ok:
        raise PreconditionError("link failed admissibility validation")
    winds = [winding_s1(lp) for lp in link.loops]
    value = wlo_abelian(link)
    marks = crossing_marks(link)
    diag = {"crossing_marks": [[m.loop, m.eps] for m in marks],
            "double_points": len(report.double_points), "level": link.level, "windings": winds}
    if not any(winds):
        other = wlo_abelian_intermediate(link, report)
        diag["intermediate"] = [other.real, other.imag]
        diag["difference"] = abs(value - other)
    return RunResult("wlo", digest, value, diag)


def _wlo_dpfree(args) -> RunResult:
    link, digest = _spherical_link_arg(args)
    _require_genus_zero(args)
    fc = face_complex(link)
    level = Level(link.level)
    value = wlo_dpfree_final(link, level, fc)
    pair_value, pairs = _pair_walk(link, level, fc)
    return RunResult("wlo", digest, value, {
        "difference": abs(value - pair_value), "faces": len(fc.chi), "level": link.level,
        "pairs": pairs, "pairsum": [pair_value.real, pair_value.imag]})


def _check_euler(args) -> RunResult:
    data, digest = _read_input(args.file)
    parsed = loads_link_or_shadow(data)
    if isinstance(parsed, Shadow):
        ok = euler_identity_holds(parsed)
        return RunResult("check:euler", digest, complex(ok), {
            "chi_sum": sum(f.chi for f in parsed.faces), "edges": len(parsed.edges),
            "vertices": len(parsed.vertices)}, ok)
    link = _with_level_arg(parsed, args)
    chi = list(face_complex(link).chi)
    ok = sum(chi) == 2
    return RunResult("check:euler", digest, complex(ok),
                     {"chi": chi, "chi_sum": sum(chi), "level": link.level}, ok)


def _check_bijection(args) -> RunResult:
    link, digest = _load_link_arg(args)
    br = check_bijection(link, Level(link.level), face_complex(link))
    return RunResult("check:bijection", digest, complex(br.ok), {
        "colorings": br.colorings_count, "injective": br.injective, "level": link.level,
        "pairs": br.pairs_count, "surjective": br.surjective}, br.ok)


def _check_lem2(args) -> RunResult:
    link, digest = _load_link_arg(args)
    if len(link.loops) != 2:
        raise PreconditionError("lem2 check requires a two-loop link")
    report = validate(link)
    if not report.ok:
        raise PreconditionError("lem2 check requires an admissible link")
    crossings = tuple(d for d in report.double_points if d.strands[0][0] != d.strands[1][0])
    rng = random.Random(0xC0FFEE)
    values = []
    tries = 0
    while len(values) < args.samples and tries < 100 * args.samples:
        tries += 1
        t0 = rng.uniform(0.0, 6.283185)
        if admissible_at(link, report, t0):
            values.append(link_number(*link.loops, crossings, t0))
    ok = len(values) == args.samples and len(set(values)) == 1
    return RunResult("check:lem2", digest, complex(ok), {
        "level": link.level, "samples": len(values), "values": sorted(set(values))}, ok)


_HANDLERS = {  # by command and --mode or --what
    ("eval", None): _eval, ("wlo", "dpfree"): _wlo_dpfree, ("wlo", "abelian"): _wlo_abelian,
    ("wlo", "vertical"): _wlo_vertical, ("check", "euler"): _check_euler,
    ("check", "bijection"): _check_bijection, ("check", "lem2"): _check_lem2}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shadowsum",
        description="Shadow state sums and loop observables for links in S^2 x S^1.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def int_at_least(low):
        def parse(text):
            value = int(text)
            if value < low:
                raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
            return value
        parse.__name__ = "int"  # argparse names the type when int() fails
        return parse

    positive = int_at_least(1)

    def dims(text):  # a comma list of positive ints; "", the default, is ()
        return tuple(positive(d) for d in text.split(",")) if text else ()

    def common(p, file_optional=False):
        p.add_argument("file", nargs="?" if file_optional else None, default=None)
        p.add_argument("--level", type=positive, default=None)
        p.add_argument("--format", choices=("text", "json"), default="text")

    p_eval = sub.add_parser("eval", help="evaluate the state sum of a shadow file")
    common(p_eval)

    p_wlo = sub.add_parser("wlo", help="evaluate a loop observable")
    common(p_wlo, file_optional=True)
    p_wlo.add_argument("--mode", choices=("dpfree", "abelian", "vertical"), required=True)
    p_wlo.add_argument("--genus", type=int_at_least(0), default=0)
    p_wlo.add_argument("--dims", type=dims, default="")

    p_check = sub.add_parser("check", help="run a structural cross-check")
    common(p_check)
    p_check.add_argument("--what", choices=("bijection", "euler", "lem2"), required=True)
    p_check.add_argument("--samples", type=positive, default=8)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler = _HANDLERS[args.command, getattr(args, "mode", getattr(args, "what", None))]
    start = time.perf_counter()
    try:
        result = handler(args)
        finite = _finite([result.value, result.diagnostics])
    except OverflowError:  # a term past the float range
        finite = False
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except ShadowsumError as exc:
        print(f"invariant violated: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    wall_ms = (time.perf_counter() - start) * 1e3
    if not finite:
        print(f"invariant violated: {args.command} result is not finite", file=sys.stderr)
        return EXIT_INVARIANT
    print(result.to_json() if args.format == "json" else result.to_text())
    print(f"wall_ms: {wall_ms:.3f}", file=sys.stderr)
    return EXIT_OK if result.passed else EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
