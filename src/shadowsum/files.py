"""Readers and writers for the link and shadow file formats (JSON, UTF-8).

Link files:
    { "t0": real, "level": int,
      "loops": [ { "vertices": [[x, y, theta], ...],   # closing vertex repeated
                   "color": half-integer, "vertical": bool,
                   "framing": 0 } ] }                    # optional, only 0

Shadow files:
    { "faces": [ { "chi": int, "gleam": number|null, "z": int } ],
      "edges": [ { "color": half-integer, "left": faceId, "right": faceId } ],
      "vertices": [ { "e1": half-integer, "e2": half-integer,
                      "j": faceId, "k": faceId, "m": faceId, "n": faceId } ] }

Loops are framed by their horizontal push-off (`self_link`).  A loop's
optional "framing" key, which older files wrote as 0, is accepted only as
0: any other value raises ParseError rather than being ignored.

Parsers reject NaN/Inf, colors and gleams whose value is not exactly a
half-integer (a JSON int past 2^53 that no float holds included),
non-closing loops, files that are not UTF-8 and JSON nested
too deeply to parse with ParseError; violated structural
invariants of the parsed objects raise InvariantViolation.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from .errors import InvariantViolation, ParseError
from .geometry import Link, make_loop
from .shadow import Shadow, ShadowEdge, ShadowFace, ShadowVertex

__all__ = ["loads_link", "load_link", "loads_shadow", "load_shadow",
           "loads_link_or_shadow", "dumps_link", "dumps_shadow"]


def _reject_specials(name):
    raise ParseError(f"non-finite number {name!r} in input")


def _load_json(data: str | bytes):
    """Parse JSON text, or the UTF-8 bytes of a file; every failure to
    decode or parse raises ParseError."""
    try:
        text = data.decode("utf-8") if isinstance(data, bytes) else data
        return json.loads(text, parse_constant=_reject_specials)
    except UnicodeDecodeError as exc:
        raise ParseError(f"input is not UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ParseError("JSON nested too deeply") from exc


def _read(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _number(obj, what: str, *args) -> float:
    if type(obj) is float and obj - obj == 0.0:  # finite: inf - inf and NaN give NaN
        return obj
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise ParseError(f"{what.format(*args)} must be a number, got {obj!r}")
    try:
        val = float(obj)
    except OverflowError:  # an int past the float range
        val = math.inf
    if not math.isfinite(val):
        raise ParseError(f"{what.format(*args)} is not finite")
    return val


def _integer(obj, what: str) -> int:
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise ParseError(f"{what} must be an integer, got {obj!r}")
    return obj


def _half_integer(obj, what: str) -> Fraction:
    val = _number(obj, what)
    if val != obj:  # a JSON int that float() rounds; int == float compares exactly
        raise ParseError(f"{what} has no exact float value, got {obj!r}")
    doubled = val * 2
    if not math.isfinite(doubled):
        raise ParseError(f"{what} is too large, got {obj!r}")
    if not doubled.is_integer():
        raise ParseError(f"{what} must be a half-integer, got {obj!r}")
    return Fraction(int(doubled), 2)


def _link_from_json(obj) -> Link:
    if not isinstance(obj, dict):
        raise ParseError("link file must contain a JSON object")
    missing = {"t0", "level", "loops"} - obj.keys()
    if missing:
        raise ParseError(f"link file missing fields {sorted(missing)}")
    t0 = _number(obj["t0"], "t0")
    level = _integer(obj["level"], "level")
    if not isinstance(obj["loops"], list):
        raise ParseError("loops must be a list")
    loops = []
    for i, rec in enumerate(obj["loops"]):
        if not isinstance(rec, dict) or "vertices" not in rec:
            raise ParseError(f"loop {i} must be an object with vertices")
        verts = rec["vertices"]
        if not isinstance(verts, list) or any(
            not isinstance(v, list) or len(v) != 3 for v in verts
        ):
            raise ParseError(f"loop {i} vertices must be [x, y, theta] triples")
        what = "loop {} vertex coordinate"
        triples = [(_number(x, what, i), _number(y, what, i), _number(t, what, i))
                   for x, y, t in verts]
        color = _half_integer(rec.get("color", 0.5), f"loop {i} color")
        if _integer(rec.get("framing", 0), f"loop {i} framing"):
            raise ParseError(f"loop {i} framing must be 0, got {rec['framing']!r}")
        vertical = rec.get("vertical", False)
        if not isinstance(vertical, bool):
            raise ParseError(f"loop {i} vertical flag must be a boolean")
        try:
            loops.append(make_loop(triples, color=color, vertical=vertical))
        except InvariantViolation as exc:
            raise ParseError(f"loop {i}: {exc}") from exc
    return Link(loops=tuple(loops), t0=t0, level=level)


def loads_link(text: str | bytes) -> Link:
    return _link_from_json(_load_json(text))


def load_link(path) -> Link:
    return _link_from_json(_load_json(_read(path)))


def _shadow_from_json(obj) -> Shadow:
    if not isinstance(obj, dict):
        raise ParseError("shadow file must contain a JSON object")
    if "faces" not in obj or "edges" not in obj:
        raise ParseError("shadow file needs faces and edges")
    for key in ("faces", "edges", "vertices"):
        if not isinstance(obj.get(key, []), list):
            raise ParseError(f"{key} must be a list")
    faces = []
    for i, rec in enumerate(obj["faces"]):
        if not isinstance(rec, dict) or "chi" not in rec:
            raise ParseError(f"face {i} must be an object with chi")
        gleam = rec.get("gleam")
        faces.append(ShadowFace(
            chi=_integer(rec["chi"], f"face {i} chi"),
            gleam=None if gleam is None else _half_integer(gleam, f"face {i} gleam"),
            z=_integer(rec.get("z", 0), f"face {i} z"),
        ))
    edges = []
    for i, rec in enumerate(obj["edges"]):
        if not isinstance(rec, dict) or {"color", "left", "right"} - rec.keys():
            raise ParseError(f"edge {i} must carry color, left, right")
        color = _half_integer(rec["color"], f"edge {i} color")
        if color < 0:
            raise ParseError(f"edge {i} color must be non-negative")
        edges.append(ShadowEdge(
            color2=int(color * 2),
            left=_integer(rec["left"], f"edge {i} left"),
            right=_integer(rec["right"], f"edge {i} right"),
        ))
    vertices = []
    for i, rec in enumerate(obj.get("vertices", [])):
        if not isinstance(rec, dict) or {"e1", "e2", "j", "k", "m", "n"} - rec.keys():
            raise ParseError(f"vertex {i} must carry e1, e2, j, k, m, n")
        vertices.append(ShadowVertex(
            e1_2=int(_half_integer(rec["e1"], f"vertex {i} e1") * 2),
            e2_2=int(_half_integer(rec["e2"], f"vertex {i} e2") * 2),
            j=_integer(rec["j"], f"vertex {i} j"),
            k=_integer(rec["k"], f"vertex {i} k"),
            m=_integer(rec["m"], f"vertex {i} m"),
            n=_integer(rec["n"], f"vertex {i} n"),
        ))
    return Shadow(faces=tuple(faces), edges=tuple(edges), vertices=tuple(vertices))


def loads_shadow(text: str | bytes) -> Shadow:
    return _shadow_from_json(_load_json(text))


def load_shadow(path) -> Shadow:
    return _shadow_from_json(_load_json(_read(path)))


def loads_link_or_shadow(text: str | bytes) -> Link | Shadow:
    """Parse a file's text once: a JSON object with "faces" is a shadow
    file, anything else is read as a link file."""
    obj = _load_json(text)
    if isinstance(obj, dict) and "faces" in obj:
        return _shadow_from_json(obj)
    return _link_from_json(obj)


def dumps_link(link: Link) -> str:
    obj = {
        "t0": link.t0,
        "level": link.level,
        "loops": [
            {
                "vertices": [[x, y, t] for x, y, t in lp.vertices],
                "color": float(lp.color),
                "vertical": lp.vertical,
            }
            for lp in link.loops
        ],
    }
    return json.dumps(obj, indent=1, sort_keys=True)


def dumps_shadow(shadow: Shadow) -> str:
    obj = {
        "faces": [
            {"chi": f.chi, "gleam": None if f.gleam is None else float(f.gleam), "z": f.z}
            for f in shadow.faces
        ],
        "edges": [
            {"color": e.color2 / 2, "left": e.left, "right": e.right}
            for e in shadow.edges
        ],
        "vertices": [
            {"e1": v.e1_2 / 2, "e2": v.e2_2 / 2, "j": v.j, "k": v.k, "m": v.m, "n": v.n}
            for v in shadow.vertices
        ],
    }
    return json.dumps(obj, indent=1, sort_keys=True)
