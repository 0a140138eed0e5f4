import argparse
import builtins
import hashlib
import json
import math

import pytest

import shadowsum as ss
import shadowsum.cli
import shadowsum.geometry
import shadowsum.linking
import shadowsum.quantum
import shadowsum.shadow
from shadowsum.cli import main
from shadowsum.errors import ParseError
from shadowsum.random_links import polygon_circle

from conftest import enumerate_pairs_oracle, pairsum_oracle, tangential_t0_link

TAU = 2 * math.pi


class TestLinkFiles:
    def test_round_trip(self, corpus_dir):
        for name in ("hopf", "nested_pair", "vertical_pair"):
            text = (corpus_dir / f"{name}.link.json").read_text()
            link = ss.loads_link(text)
            again = ss.loads_link(ss.dumps_link(link))
            assert again == link

    def test_framing_zero_loads_as_no_key(self, corpus_dir):
        # older files wrote "framing": 0 on every loop; any other value is
        # rejected (LINK_PROBES)
        obj = json.loads((corpus_dir / "hopf.link.json").read_text())
        assert all("framing" not in rec for rec in obj["loops"])
        link = ss.loads_link(json.dumps(obj))
        for rec in obj["loops"]:
            rec["framing"] = 0
        assert ss.loads_link(json.dumps(obj)) == link

    def test_rejects_nan(self):
        with pytest.raises(ParseError):
            ss.loads_link('{"t0": NaN, "level": 1, "loops": []}')

    def test_rejects_infinity(self):
        with pytest.raises(ParseError):
            ss.loads_link(
                '{"t0": 0, "level": 1, "loops": [{"vertices": '
                '[[0,0,Infinity],[1,0,0],[1,1,0],[0,0,0]], "color": 0.5, '
                '"framing": 0, "vertical": false}]}')

    def test_rejects_non_closing(self):
        with pytest.raises(ParseError):
            ss.loads_link(
                '{"t0": 0, "level": 1, "loops": [{"vertices": '
                '[[0,0,0],[1,0,0],[1,1,0],[0.5,0.5,0]], "color": 0.5, '
                '"framing": 0, "vertical": false}]}')

    def test_rejects_bad_color(self):
        with pytest.raises(ParseError):
            ss.loads_link(
                '{"t0": 0, "level": 1, "loops": [{"vertices": '
                '[[0,0,0],[1,0,0],[1,1,0],[0,0,0]], "color": 0.3, '
                '"framing": 0, "vertical": false}]}')

    def test_rejects_missing_fields(self):
        with pytest.raises(ParseError):
            ss.loads_link('{"t0": 0, "loops": []}')


class TestShadowFiles:
    def test_round_trip(self, corpus_dir):
        text = (corpus_dir / "twocircles.shadow.json").read_text()
        shadow = ss.loads_shadow(text)
        assert ss.loads_shadow(ss.dumps_shadow(shadow)) == shadow

    def test_rejects_bad_reference(self):
        with pytest.raises(ss.InvariantViolation):
            ss.loads_shadow(
                '{"faces": [{"chi": 1, "gleam": 0, "z": 0}], '
                '"edges": [{"color": 0.5, "left": 0, "right": 7}]}')

    def test_null_gleam_allowed_but_not_summable(self):
        shadow = ss.loads_shadow(
            '{"faces": [{"chi": 2, "gleam": null, "z": 0}], "edges": []}')
        with pytest.raises(ss.MissingGleams):
            ss.state_sum_general(shadow, ss.Level(1))


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def last_value(out: str):
    for line in out.splitlines():
        if line.startswith("value: "):
            re_s, im_s = line[len("value: ["):-1].split(", ")
            return complex(float(re_s), float(im_s))
    raise AssertionError(f"no value line in output: {out!r}")


@pytest.fixture
def validate_calls(monkeypatch):
    """The links passed to `validate`, from the CLI or from geometry."""
    calls = []
    real = shadowsum.geometry.validate

    def counting(link):
        calls.append(link)
        return real(link)

    monkeypatch.setattr(shadowsum.cli, "validate", counting)
    monkeypatch.setattr(shadowsum.geometry, "validate", counting)
    return calls


@pytest.fixture
def loop_scans(monkeypatch):
    """The loops whose clearance is computed, the loops swept for their
    clearance (`_segment_sweep` given a margin), the loops swept for their
    own crossings (`_segment_sweep` on one loop, or named in its `selves`
    argument), the loop tuples swept against each other (on several
    loops), and the number of crossing sweeps, in call order."""
    scans = {"clearance": [], "clearance_sweeps": [], "self_crossings": [], "pairs": [],
             "sweeps": 0}
    real_clearance = shadowsum.geometry._min_clearance
    real_sweep = shadowsum.geometry._segment_sweep

    def clearance(loop):
        scans["clearance"].append(loop)
        return real_clearance(loop)

    def sweep(loops, *selves, **margin):
        if margin:
            scans["clearance_sweeps"].extend(loops)
            return real_sweep(loops, *selves, **margin)
        scans["sweeps"] += 1
        if len(loops) == 1:
            scans["self_crossings"].append(loops[0])
        else:
            scans["pairs"].append(tuple(loops))
            scans["self_crossings"].extend(loops[a] for a in (selves[0] if selves else ()))
        return real_sweep(loops, *selves)

    monkeypatch.setattr(shadowsum.geometry, "_min_clearance", clearance)
    monkeypatch.setattr(shadowsum.geometry, "_segment_sweep", sweep)
    monkeypatch.setattr(shadowsum.linking, "_segment_sweep", sweep)
    return scans


class _LiftReads:
    """A loop whose lift reads are recorded: a scan reads its `lift_table`
    (built from `lifts` on the loop's first scan), and a lift scan that
    returns a kept result reads neither."""

    def __init__(self, loop):
        self.loop, self.read = loop, False

    def __getattr__(self, name):
        self.read = self.read or name in ("lifts", "lift_table")
        return getattr(self.loop, name)


@pytest.fixture
def lift_scans(monkeypatch):
    """The lift scans that do the work, as (loop, t0): the calls of
    `_lift_scan` that read the loop's lift or its lift table."""
    scans = []
    real = shadowsum.geometry._lift_scan

    def scan(loop, t0):
        watched = _LiftReads(loop)
        result = real(watched, t0)
        if watched.read:
            scans.append((loop, t0))
        return result

    monkeypatch.setattr(shadowsum.geometry, "_lift_scan", scan)
    return scans


@pytest.fixture
def enumerate_colorings_calls(monkeypatch):
    """The shadows passed to `enumerate_colorings`, from the CLI or from
    the state sum."""
    calls = []
    real = shadowsum.shadow.enumerate_colorings

    def counting(shadow, level):
        calls.append(shadow)
        return real(shadow, level)

    monkeypatch.setattr(shadowsum.cli, "enumerate_colorings", counting)
    monkeypatch.setattr(shadowsum.shadow, "enumerate_colorings", counting)
    return calls


@pytest.fixture
def sixj_evaluations(monkeypatch):
    """The doubled 6-tuples whose 6j-symbol is computed from scratch: the
    state sum calls the kernel by the name it imported."""
    calls = []
    real = shadowsum.shadow._sixj_doubled

    def counting(qf, km, ts):
        calls.append(ts)
        return real(qf, km, ts)

    monkeypatch.setattr(shadowsum.shadow, "_sixj_doubled", counting)
    return calls


def _not_utf8(tmp_path):
    path = tmp_path / "latin1.link.json"
    path.write_bytes('{"t0": 0.0, "level": 1, "loops": [], "note": "caf\u00e9"}'
                     .encode("latin-1"))
    return path


def _deep_json(tmp_path):
    path = tmp_path / "deep.link.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    return path


def _directory(tmp_path):
    path = tmp_path / "dir.link.json"
    path.mkdir()
    return path


@pytest.mark.parametrize("make_input", [_not_utf8, _deep_json, _directory])
@pytest.mark.parametrize("command", [
    ("eval", "--level", "1"),
    ("wlo", "--mode", "abelian"),
    ("wlo", "--mode", "dpfree"),
    ("check", "--what", "euler"),
    ("check", "--what", "bijection"),
], ids=["eval", "wlo-abelian", "wlo-dpfree", "check-euler", "check-bijection"])
def test_unreadable_input_exit_2(capsys, tmp_path, make_input, command):
    code = main([*command, str(make_input(tmp_path))])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "error" in captured.err


class TestCliEval:
    def test_empty_shadow(self, capsys, corpus_dir):
        code, out = run_cli(capsys, "eval", "--level", "1",
                            str(corpus_dir / "empty.shadow.json"))
        assert code == 0
        assert last_value(out) == pytest.approx(2.0)

    def test_circle_shadow(self, capsys, corpus_dir):
        code, out = run_cli(capsys, "eval", "--level", "1",
                            str(corpus_dir / "circle_w0.shadow.json"))
        assert code == 0
        assert last_value(out) == pytest.approx(-2.0)

    def test_enumerates_once(self, capsys, corpus_dir, enumerate_colorings_calls):
        code, out = run_cli(capsys, "eval", "--level", "3",
                            str(corpus_dir / "twocircles.shadow.json"))
        assert code == 0
        assert len(enumerate_colorings_calls) == 1
        shadow = ss.load_shadow(corpus_dir / "twocircles.shadow.json")
        count = len(ss.enumerate_colorings(shadow, ss.Level(3)))
        assert f"colorings: {count}" in out.splitlines()

    def test_long_face_chain(self, capsys, tmp_path, corpus_dir):
        # 1100 faces in a row, split by color-0 edges: far past the
        # interpreter's recursion limit if enumeration recursed per face
        nf = 1100
        chain = ss.Shadow(
            faces=[ss.ShadowFace(chi=1 if f in (0, nf - 1) else 0, gleam2=0)
                   for f in range(nf)],
            edges=[ss.ShadowEdge(color2=0, left=f, right=f + 1) for f in range(nf - 1)],
        )
        path = tmp_path / "chain.shadow.json"
        path.write_text(ss.dumps_shadow(chain))
        code, out = run_cli(capsys, "eval", "--level", "1", str(path))
        assert code == 0
        assert "colorings: 2" in out.splitlines()
        # color-0 edges are invisible: the chain evaluates like the empty shadow
        _, empty = run_cli(capsys, "eval", "--level", "1", str(corpus_dir / "empty.shadow.json"))
        assert last_value(out) == pytest.approx(last_value(empty))

    def test_malformed_reference_exit_3(self, capsys, tmp_path):
        bad = tmp_path / "bad.shadow.json"
        bad.write_text('{"faces": [{"chi": 1, "gleam": 0, "z": 0}], '
                       '"edges": [{"color": 0.5, "left": 0, "right": 5}]}')
        code, _ = run_cli(capsys, "eval", "--level", "1", str(bad))
        assert code == 3

    def test_each_sixj_computed_once(self, capsys, corpus_dir, sixj_evaluations):
        # the state sum's per-call memo is the only store of 6j values, and
        # it evaluates each distinct doubled 6-tuple exactly once
        code, _ = run_cli(capsys, "eval", "--level", "6",
                          str(corpus_dir / "twocircles.shadow.json"))
        assert code == 0
        assert sixj_evaluations
        assert len(sixj_evaluations) == len(set(sixj_evaluations))

    def test_bad_json_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _ = run_cli(capsys, "eval", "--level", "1", str(bad))
        assert code == 2

    def test_missing_file_exit_2(self, capsys, tmp_path):
        code, _ = run_cli(capsys, "eval", "--level", "1", str(tmp_path / "nope.json"))
        assert code == 2

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_non_finite_value_exit_3(self, capsys, corpus_dir, fmt):
        # [n]! overflows a float at this level, so the 6j factors are NaN
        code = main(["eval", "--level", "250", "--format", fmt,
                     str(corpus_dir / "twocircles.shadow.json")])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert "not finite" in captured.err


    @pytest.mark.parametrize("shadow", [
        # (1/2, t, t) never couples: every term vanishes before its face weight
        '{"faces": [{"chi": 2, "gleam": null, "z": 1}], "edges": [], '
        '"vertices": [{"e1": 0.5, "e2": 0.5, "j": 0, "k": 0, "m": 0, "n": 0}]}',
        # a color-1/2 edge from face 0 to itself admits no coloring
        '{"faces": [{"chi": 2, "gleam": 0, "z": 1}], '
        '"edges": [{"color": 0.5, "left": 0, "right": 0}], '
        '"vertices": [{"e1": 2.5, "e2": 0, "j": 0, "k": 0, "m": 0, "n": 0}]}',
    ], ids=["missing-gleam", "strand-color-above-level"])
    def test_unsummable_shadow_exit_3(self, capsys, tmp_path, shadow):
        path = tmp_path / "bad.shadow.json"
        path.write_text(shadow)
        level = "3" if "null" in shadow else "1"
        code = main(["eval", "--level", level, "--format", "json", str(path)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert "invariant violated" in captured.err

    def test_every_level_pinned(self, capsys, corpus_dir):
        # the stdout of eval at every level the float 6j data reaches on
        # twocircles (1..201) and at 1..256 on the vertex-free shadows;
        # the benchmark samples only some of these levels
        out = []
        for stem, top in (("twocircles", 201), ("circle_w0", 256), ("empty", 256)):
            path = str(corpus_dir / f"{stem}.shadow.json")
            for k in range(1, top + 1):
                code, text = run_cli(capsys, "eval", "--level", str(k), "--format", "json", path)
                assert code == 0, (stem, k)
                out.append(text)
        digest = hashlib.sha256("".join(out).encode()).hexdigest()
        assert digest == "01fc7fee50151cd2497889f9ec48c406c348e6a172ae5fcfa0888f937d85918a"


def _outcome(capsys, argv):
    """main's exit code (or SystemExit code) and its stdout."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = ("SystemExit", exc.code)
    return code, capsys.readouterr().out


@pytest.fixture
def fresh_parser():
    """An empty parser cache before and after the test."""
    shadowsum.cli._build_parser.cache_clear()
    yield
    shadowsum.cli._build_parser.cache_clear()


def test_one_parser_per_process(capsys, corpus_dir, monkeypatch, fresh_parser):
    hopf = str(corpus_dir / "hopf.link.json")
    nested = str(corpus_dir / "nested_pair.link.json")
    two = str(corpus_dir / "twocircles.shadow.json")
    runs = [
        [cmd, *args, "--format", fmt, path]
        for cmd, args, path in (
            ("eval", ["--level", "3"], two),
            ("wlo", ["--mode", "abelian"], hopf),
            ("wlo", ["--mode", "dpfree"], nested),
            ("check", ["--what", "bijection", "--level", "3"], nested),
            ("check", ["--what", "lem2"], hopf),
        )
        for fmt in ("text", "json")
    ]
    runs.insert(5, ["eval", "--level", "3", "--format", "xml", two])
    fresh = []
    for argv in runs:
        shadowsum.cli._build_parser.cache_clear()
        fresh.append(_outcome(capsys, argv))
    assert fresh[5] == (("SystemExit", 2), "")
    assert all(code == 0 and out for code, out in fresh[:5] + fresh[6:])

    progs = []
    real_init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        progs.append(self.prog)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    shadowsum.cli._build_parser.cache_clear()
    assert [_outcome(capsys, argv) for argv in runs] == fresh
    # one tree: the top-level parser and its three subcommand parsers
    assert progs == ["shadowsum", "shadowsum eval", "shadowsum wlo", "shadowsum check"]


class TestCliWlo:
    def test_vertical_no_dims(self, capsys):
        code, out = run_cli(capsys, "wlo", "--mode", "vertical",
                            "--level", "2", "--genus", "0")
        assert code == 0
        assert last_value(out) == pytest.approx(2.0)

    def test_vertical_from_file(self, capsys, corpus_dir):
        code, out = run_cli(capsys, "wlo", "--mode", "vertical",
                            str(corpus_dir / "vertical_pair.link.json"))
        assert code == 0
        assert last_value(out) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_vertical_overflow_exit_3(self, capsys, fmt):
        # sin(pi/52)^(2 - 2*200) is past the float range
        code = main(["wlo", "--mode", "vertical", "--level", "50", "--genus", "200",
                     "--format", fmt])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert "not finite" in captured.err

    def test_dpfree_circle(self, capsys, corpus_dir):
        code, out = run_cli(capsys, "wlo", "--mode", "dpfree",
                            str(corpus_dir / "circle_w0.link.json"))
        assert code == 0
        assert last_value(out) == pytest.approx(-1.5)
        diff = [l for l in out.splitlines() if l.startswith("difference")]
        assert diff and float(json.loads(diff[0].split(": ", 1)[1])) < 1e-9

    def test_abelian_wind_one_zero(self, capsys, corpus_dir):
        code, out = run_cli(capsys, "wlo", "--mode", "abelian",
                            str(corpus_dir / "circle_wp1.link.json"))
        assert code == 0
        assert last_value(out) == 0

    def test_abelian_scans_each_loop_once(self, capsys, corpus_dir, loop_scans):
        # both Abelian routes run; self_link asks twice per loop for the
        # clearance (its offset, then pushoff's check), the crossing-mark
        # route not at all
        path = corpus_dir / "hopf.link.json"
        code, out = run_cli(capsys, "wlo", "--mode", "abelian", str(path))
        assert code == 0
        assert any(line.startswith("intermediate") for line in out.splitlines())
        for lp in ss.load_link(path).loops:
            assert loop_scans["clearance"].count(lp) == 1
            assert loop_scans["clearance_sweeps"].count(lp) == 1
            assert loop_scans["self_crossings"].count(lp) == 1

    def test_abelian_scans_each_pushoff_once(self, capsys, corpus_dir, loop_scans):
        # validate sweeps the loop pair once, with each loop against itself,
        # and wlo_abelian sweeps the pair once more; self_link makes one
        # push-off per loop, and pushoff sweeps each once, against its loop
        # and against itself; wlo_abelian_intermediate reads validate's
        # records
        path = corpus_dir / "hopf.link.json"
        code, _ = run_cli(capsys, "wlo", "--mode", "abelian", str(path))
        assert code == 0
        loops = ss.load_link(path).loops
        pairs = loop_scans["pairs"]
        offsets = [(la, lb) for la, lb in pairs if lb not in loops]
        assert len(offsets) == 2 and all(la in loops for la, _ in offsets)
        for _, off in offsets:
            assert sum(lb is off for _, lb in pairs) == 1
            assert sum(lp is off for lp in loop_scans["self_crossings"]) == 1
        assert pairs.count(loops) == 2
        assert len(pairs) == 4
        assert loop_scans["sweeps"] == 4
        # validate's sweep, the first, scans each hopf loop's own pairs, and
        # no later sweep scans them again
        assert pairs[0] == loops and loop_scans["self_crossings"][:2] == list(loops)
        for lp in loops:
            assert loop_scans["self_crossings"].count(lp) == 1
        # each hopf loop's clearance takes one sweep of its own, at its margin
        assert loop_scans["clearance_sweeps"] == list(loops)

    def test_abelian_scans_each_lift_once(self, capsys, corpus_dir, lift_scans):
        # validate scans both loops; the CLI's crossing marks and the
        # crossing-mark route reuse those scans, and so do the pair's
        # link_number and each loop's self_link, which reads hopf's second
        # loop as loop 0; each of the two push-offs is scanned once
        code, _ = run_cli(capsys, "wlo", "--mode", "abelian", str(corpus_dir / "hopf.link.json"))
        assert code == 0
        assert len(lift_scans) == 4  # two in validate, one per push-off
        assert len({(id(lp), t0) for lp, t0 in lift_scans}) == len(lift_scans)

    def test_abelian_every_vertex_on_a_level(self, capsys, tmp_path):
        # a triangle whose lift is 0, 2pi, 4pi, 6pi at t0 = 0 passes
        # validate, so its three crossing marks are reported
        tau = 2 * math.pi
        path = tmp_path / "triangle.link.json"
        path.write_text(json.dumps({"t0": 0.0, "level": 1, "loops": [{
            "color": 0.5, "framing": 0, "vertical": False,
            "vertices": [[0.0, 0.0, 0.0], [1.0, 0.0, tau], [0.0, 1.0, 2 * tau],
                         [0.0, 0.0, 3 * tau]]}]}))
        code, out = run_cli(capsys, "wlo", "--mode", "abelian", "--format", "json", str(path))
        assert code == 0
        diag = json.loads(out)["diagnostics"]
        assert diag["crossing_marks"] == [[0, 1], [0, 1], [0, 1]]
        assert diag["windings"] == [3]

    def test_abelian_triangle(self, capsys, tmp_path):
        # every two segments of a triangle are adjacent, so its clearance
        # is its least altitude and its push-off evaluates
        path = tmp_path / "triangle.link.json"
        path.write_text(json.dumps({"t0": 0.0, "level": 5, "loops": [{
            "color": 0.5, "framing": 0, "vertical": False,
            "vertices": [[0.0, 0.0, 1.0], [4.0, 0.0, 7.5], [1.0, 3.0, 3.0],
                         [0.0, 0.0, 1.0]]}]}))
        code, out = run_cli(capsys, "wlo", "--mode", "abelian", "--format", "json", str(path))
        assert code == 0
        assert json.loads(out)["value"] == [1.0, 0.0]

    def test_dpfree_genus_must_be_zero(self, capsys, corpus_dir, validate_calls):
        # the argument is checked before any geometry
        code, out = run_cli(capsys, "wlo", "--mode", "dpfree", "--genus", "1",
                            str(corpus_dir / "circle_w0.link.json"))
        assert code == 4
        assert out == ""
        assert validate_calls == []

    def test_abelian_genus_must_be_zero(self, capsys, corpus_dir, validate_calls):
        code = main(["wlo", "--mode", "abelian", "--genus", "3",
                     str(corpus_dir / "hopf.link.json")])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert "abelian mode evaluates spherical geometry; --genus must be 0" in captured.err
        assert validate_calls == []

    @pytest.mark.parametrize("mode, name", [("dpfree", "circle_w0"), ("abelian", "hopf")])
    def test_dims_only_in_vertical_mode(self, capsys, corpus_dir, mode, name):
        code = main(["wlo", "--mode", mode, "--dims", "3,2",
                     str(corpus_dir / f"{name}.link.json")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("parse error: argument --dims:")

    def test_dpfree_rejects_double_points(self, capsys, corpus_dir):
        code, _ = run_cli(capsys, "wlo", "--mode", "dpfree",
                          str(corpus_dir / "hopf.link.json"))
        assert code == 4

    def test_dpfree_rejects_vertical(self, capsys, corpus_dir):
        code, _ = run_cli(capsys, "wlo", "--mode", "dpfree",
                          str(corpus_dir / "vertical_pair.link.json"))
        assert code == 4

    def test_level_flag_overrides(self, capsys, corpus_dir):
        code, out = run_cli(capsys, "wlo", "--mode", "dpfree", "--level", "2",
                            str(corpus_dir / "circle_w0.link.json"))
        assert code == 0
        # k = 2: states (0,1/2),(1/2,0),(1/2,1),(1,1/2) with signed dimensions
        lev = ss.Level(2)
        link = ss.load_link(corpus_dir / "circle_w0.link.json")
        link = ss.Link(link.loops, link.t0, 2)
        fc = ss.face_complex(link)
        assert last_value(out) == pytest.approx(
            ss.wlo_dpfree_final(link, lev, fc), abs=1e-12)

    def test_dpfree_pairs_of_a_loop_listed_before_its_ancestor(self, capsys, corpus_dir):
        # concentric lists its inner loop first, so the pair walk takes the
        # loops out of file order and adds each level's terms sorted
        path = corpus_dir / "concentric.link.json"
        loaded = ss.load_link(path)
        assert ss.face_complex(loaded).parent == (1, None)
        for k in range(1, 9):
            code, out = run_cli(capsys, "wlo", "--mode", "dpfree", "--level", str(k),
                                "--format", "json", str(path))
            assert code == 0
            diag = json.loads(out)["diagnostics"]
            link = ss.Link(loaded.loops, loaded.t0, k)
            pairs = enumerate_pairs_oracle(link, ss.Level(k))
            want = pairsum_oracle(link, ss.Level(k), ss.face_complex(link), pairs)
            assert diag["pairs"] == len(pairs)
            assert diag["pairsum"] == [want.real, want.imag]


class TestCliCheck:
    def test_bijection_pass(self, capsys, corpus_dir):
        code, _ = run_cli(capsys, "check", "--what", "bijection", "--level", "3",
                          str(corpus_dir / "nested_pair.link.json"))
        assert code == 0

    def test_bijection_on_a_long_row(self, capsys, tmp_path):
        # 40 disjoint circles: the outer face has the highest id, so a walk
        # in id order would try both colors on every circle's inside first
        loops = tuple(polygon_circle(3.0 * i, 0, 1.0, 16, winding=i % 3 - 1,
                                     theta0=0.5, phase=0.13)
                      for i in range(40))
        path = tmp_path / "row.link.json"
        path.write_text(ss.dumps_link(ss.Link(loops, t0=0.0, level=1)))
        code, out = run_cli(capsys, "check", "--what", "bijection", str(path))
        assert code == 0
        lines = out.splitlines()
        assert "pairs: 2" in lines and "colorings: 2" in lines

    def test_euler_pass(self, capsys, corpus_dir):
        code, _ = run_cli(capsys, "check", "--what", "euler",
                          str(corpus_dir / "circle_w0.link.json"))
        assert code == 0

    def test_euler_on_shadow_file(self, capsys, corpus_dir):
        code, _ = run_cli(capsys, "check", "--what", "euler",
                          str(corpus_dir / "twocircles.shadow.json"))
        assert code == 0

    def test_euler_fail_exit_1(self, capsys, tmp_path):
        bad = tmp_path / "bad_euler.shadow.json"
        bad.write_text('{"faces": [{"chi": 5, "gleam": 0, "z": 0}], "edges": []}')
        code, _ = run_cli(capsys, "check", "--what", "euler", str(bad))
        assert code == 1

    def test_lem2_hopf(self, capsys, corpus_dir):
        code, out = run_cli(capsys, "check", "--what", "lem2",
                            str(corpus_dir / "hopf.link.json"))
        assert code == 0
        values = [l for l in out.splitlines() if l.startswith("values")]
        assert values and json.loads(values[0].split(": ", 1)[1]) in ([1], [-1])

    def test_lem2_validates_once(self, capsys, corpus_dir, validate_calls):
        code, _ = run_cli(capsys, "check", "--what", "lem2",
                          str(corpus_dir / "hopf.link.json"))
        assert code == 0
        assert len(validate_calls) == 1

    def test_lem2_scans_the_pair_once(self, capsys, corpus_dir, loop_scans):
        # the samples read the crossing records of the validate report
        code, _ = run_cli(capsys, "check", "--what", "lem2",
                          str(corpus_dir / "hopf.link.json"))
        assert code == 0
        assert len(loop_scans["pairs"]) == 1

    def test_lem2_scans_each_lift_once_per_sample(self, capsys, corpus_dir, lift_scans):
        # validate scans both loops at the file's t0; each sample's
        # admissible_at scans them at its own t0 and link_number reuses that
        code, _ = run_cli(capsys, "check", "--what", "lem2", str(corpus_dir / "hopf.link.json"))
        assert code == 0
        assert len(lift_scans) <= 18  # 34 when nothing was kept
        assert len({(id(lp), t0) for lp, t0 in lift_scans}) == len(lift_scans)

    def test_lem2_needs_two_loops(self, capsys, corpus_dir, validate_calls):
        # the loop count is checked before any geometry
        for name in ("circle_w0", "three_chain"):
            code, _ = run_cli(capsys, "check", "--what", "lem2",
                              str(corpus_dir / f"{name}.link.json"))
            assert code == 4
        assert validate_calls == []


DPFREE_COMMANDS = (
    ("wlo", "--mode", "dpfree"),
    ("check", "--what", "euler"),
    ("check", "--what", "bijection"),
)


class TestDpfreeAdmissibility:
    """face_complex is the one admissibility check of every dpfree command."""

    @pytest.mark.parametrize("command", DPFREE_COMMANDS)
    def test_validates_once(self, capsys, corpus_dir, validate_calls, command):
        code, _ = run_cli(capsys, *command, str(corpus_dir / "nested_pair.link.json"))
        assert code == 0
        assert len(validate_calls) == 1

    @pytest.mark.parametrize("command", DPFREE_COMMANDS)
    def test_inadmissible_link_exit_4(self, capsys, tmp_path, command):
        path = tmp_path / "tangential.link.json"
        path.write_text(ss.dumps_link(tangential_t0_link()))
        code = main([*command, str(path)])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert "precondition violated" in captured.err

    @pytest.mark.parametrize("command", DPFREE_COMMANDS[1:])
    def test_check_rejects_double_points(self, capsys, corpus_dir, command):
        code, out = run_cli(capsys, *command, str(corpus_dir / "hopf.link.json"))
        assert code == 4
        assert out == ""


@pytest.fixture
def opened(monkeypatch):
    """The files passed to `open`, by anyone, while the fixture is active."""
    paths = []
    real = builtins.open

    def counting(file, *args, **kwargs):
        paths.append(str(file))
        return real(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting)
    return paths


# a passing corpus run of every handler, the last argument a corpus file
PASSING_RUNS = [
    ("eval", "--level", "2", "twocircles.shadow.json"),
    ("wlo", "--mode", "dpfree", "nested_pair.link.json"),
    ("wlo", "--mode", "abelian", "hopf.link.json"),
    ("wlo", "--mode", "vertical", "vertical_pair.link.json"),
    ("check", "--what", "euler", "circle_w0.link.json"),
    ("check", "--what", "euler", "twocircles.shadow.json"),
    ("check", "--what", "bijection", "--level", "3", "nested_pair.link.json"),
    ("check", "--what", "lem2", "hopf.link.json"),
]


def _run_id(argv):
    return "-".join(argv[:3]) + "-" + argv[-1].split(".")[0]


@pytest.mark.parametrize("argv", PASSING_RUNS, ids=_run_id)
def test_reads_input_once(capsys, corpus_dir, opened, argv):
    path = str(corpus_dir / argv[-1])
    code = main([*argv[:-1], path])
    opens = list(opened)
    out = capsys.readouterr().out
    assert code == 0
    assert opens == [path]
    with open(path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    assert f"digest: {digest}" in out.splitlines()


@pytest.mark.parametrize("argv", PASSING_RUNS, ids=_run_id)
def test_one_record_and_one_timing_line(capsys, corpus_dir, argv):
    code = main([*argv[:-1], "--format", "json", str(corpus_dir / argv[-1])])
    captured = capsys.readouterr()
    assert code == 0
    assert len(captured.out.splitlines()) == 1
    assert json.loads(captured.out)["command"].startswith(argv[0])
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("wall_ms: ")


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("evaluator, argv", [
    ("state_sum_general", PASSING_RUNS[0]),
    ("wlo_dpfree_final", PASSING_RUNS[1]),
    ("wlo_abelian", PASSING_RUNS[2]),
    ("wlo_vertical", PASSING_RUNS[3]),
], ids=["eval", "wlo-dpfree", "wlo-abelian", "wlo-vertical"])
def test_non_finite_evaluator_value_exit_3(capsys, corpus_dir, monkeypatch, evaluator, argv, fmt):
    monkeypatch.setattr(shadowsum.cli, evaluator, lambda *args, **kwargs: complex("nan"))
    code = main([*argv[:-1], "--format", fmt, str(corpus_dir / argv[-1])])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "not finite" in captured.err


@pytest.mark.parametrize("argv", [
    ("wlo", "--mode", "vertical", "--level", "2", "--dims", "a"),
    ("wlo", "--mode", "vertical", "--level", "2", "--dims", "0"),
    ("wlo", "--mode", "vertical", "--level", "2", "--dims", "2,,3"),
    ("wlo", "--mode", "vertical", "--level", "2", "--genus", "-1"),
    ("wlo", "--mode", "vertical", "--level", "0"),
    ("wlo", "--mode", "vertical", "--dims", "3", "--level", "3", "nonexistent.link.json"),
    ("wlo", "--mode", "dpfree", "--level", "0", "circle_w0.link.json"),
    ("wlo", "--mode", "dpfree", "--genus", "-1", "circle_w0.link.json"),
    ("wlo", "--mode", "dpfree", "--dims", "3,2", "circle_w0.link.json"),
    ("wlo", "--mode", "abelian", "--dims", "3,2", "hopf.link.json"),
    ("eval", "--level", "0", "twocircles.shadow.json"),
    ("eval", "--level", "-3", "twocircles.shadow.json"),
    ("check", "--what", "lem2", "--samples", "0", "hopf.link.json"),
    ("check", "--what", "lem2", "--samples", "-2", "hopf.link.json"),
], ids=" ".join)
def test_bad_argument_exit_2(capsys, corpus_dir, argv):
    argv = [str(corpus_dir / a) if a.endswith(".json") else a for a in argv]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects the argument on its own
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "error: argument" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv", [
    ("eval", "--level", "2", "--threads", "0", "twocircles.shadow.json"),
    ("wlo", "--mode", "dpfree", "--threads", "4", "circle_w0.link.json"),
    ("wlo", "--mode", "vertical", "--level", "3", "--dims", "3", "--threads", "1"),
    ("check", "--what", "euler", "--threads", "1", "circle_w0.link.json"),
], ids=" ".join)
def test_threads_flag_rejected(capsys, corpus_dir, argv):
    # evaluation is sequential and nothing read the flag, so no command
    # takes it
    argv = [str(corpus_dir / a) if a.endswith(".json") else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "error: unrecognized arguments: --threads" in captured.err


LOOP = '"vertices": [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 0, 0]]'
FACE = '{"chi": 2, "gleam": 0}'
LINK_PROBES = [  # (file text, the parse error it raises)
    ('{"t0": "x", "level": 1, "loops": []}', "t0 must be a number"),
    ('{"t0": 1e999, "level": 1, "loops": []}', "t0 is not finite"),
    ('{"t0": 0, "level": 1.5, "loops": []}', "level must be an integer"),
    ('[1, 2]', "link file must contain a JSON object"),
    ('{"t0": 0, "level": 1, "loops": {}}', "loops must be a list"),
    ('{"t0": 0, "level": 1, "loops": [{"color": 0.5}]}', "loop 0 must be an object with vertices"),
    ('{"t0": 0, "level": 1, "loops": [{"vertices": [[0, 0]]}]}',
     "loop 0 vertices must be"),
    ('{"t0": 0, "level": 1, "loops": [{%s, "vertical": 1}]}' % LOOP,
     "loop 0 vertical flag must be a boolean"),
    ('{"t0": 0, "level": 1, "loops": [{%s, "framing": 0}, {%s, "framing": 1}]}' % (LOOP, LOOP),
     "loop 1 framing must be 0"),
    ('{"t0": 0, "level": 1, "loops": [{%s, "framing": 0.0}]}' % LOOP,
     "loop 0 framing must be an integer"),
    ('{"t0": 0, "level": 1, "loops": [{%s, "color": -0.5}]}' % LOOP,
     "loop 0 color must be non-negative"),
]
SHADOW_PROBES = [
    ('[]', "shadow file must contain a JSON object"),
    ('{"faces": [{"gleam": 0}], "edges": []}', "face 0 must be an object with chi"),
    ('{"faces": [%s], "edges": [{"color": 0.5, "left": 0}]}' % FACE,
     "edge 0 must carry color, left, right"),
    ('{"faces": [%s], "edges": [{"color": -0.5, "left": 0, "right": 0}]}' % FACE,
     "edge 0 color must be non-negative"),
    ('{"faces": [%s], "edges": [], "vertices": [{"e1": 0, "j": 0, "k": 0, "m": 0, "n": 0}]}'
     % FACE, "vertex 0 must carry e1, e2, j, k, m, n"),
    ('{"faces": [%s], "edges": [], "vertices": [{"e1": -0.5, "e2": 0, %s}]}'
     % (FACE.replace("}", ', "z": 1}'), '"j": 0, "k": 0, "m": 0, "n": 0'),
     "vertex 0 e1 must be non-negative"),
    ('{"faces": [%s], "edges": [], "vertices": [{"e1": 0, "e2": -1, %s}]}'
     % (FACE.replace("}", ', "z": 1}'), '"j": 0, "k": 0, "m": 0, "n": 0'),
     "vertex 0 e2 must be non-negative"),
]
NOT_A_LIST = [
    ('{"faces": 5, "edges": []}', "faces must be a list"),
    ('{"faces": [%s], "edges": null}' % FACE, "edges must be a list"),
    ('{"faces": [%s], "edges": [], "vertices": 3}' % FACE, "vertices must be a list"),
]
PARSE_ERROR_PROBES = (
    [(("wlo", "--mode", "dpfree"), *probe) for probe in LINK_PROBES]
    + [(("eval", "--level", "2"), *probe) for probe in SHADOW_PROBES + NOT_A_LIST]
    + [(("check", "--what", "euler"), *probe) for probe in NOT_A_LIST])


@pytest.mark.parametrize("command, text, message", PARSE_ERROR_PROBES,
                         ids=[f"{c[0]} {m}" for c, _t, m in PARSE_ERROR_PROBES])
def test_malformed_file_exit_2(capsys, tmp_path, command, text, message):
    path = tmp_path / "probe.json"
    path.write_text(text)
    code = main([*command, str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"parse error: {message}" in captured.err
    assert "Traceback" not in captured.err


ABELIAN = ("wlo", "--mode", "abelian")
# loops with more than one defect: the first check to fail names its own,
# (vertices, color, exit code, message).  Coordinates are checked in file
# order before the color, the color before make_loop, and make_loop
# checks closure before segment lengths
PRECEDENCE_PROBES = [
    ('[[0, 0, 0], [1, "a", 0], [1, 1, 0], [0, 0, 0]]', 0.3, 2,
     "parse error: loop 0 vertex coordinate must be a number, got 'a'"),
    ('[[0, 0, 0], [1, 0, 1e999], [1, true, 0], [0, 0, 0]]', 0.5, 2,
     "parse error: loop 0 vertex coordinate is not finite"),
    ('[[0, 0, 0], [1, 0, 0], [1, 0, 0], [1, null, 0], [0, 0, 0]]', 0.5, 2,
     "parse error: loop 0 vertex coordinate must be a number, got None"),
    ('[[0, 0, 0], [1, 0, 0], [1, 0], [0, 0, "a"]]', 0.5, 2,
     "parse error: loop 0 vertices must be [x, y, theta] triples"),
    ('[[0, 0, 0], [1, 0, 0], [1, 0, 0], [1, 1, 0], [0, 0, 0]]', 0.3, 2,
     "parse error: loop 0 color must be a half-integer, got 0.3"),
    ('[[0, 0, 0], [1, 0, 0], [1, 0, 0], [1, 1, 0], [0.5, 0.5, 0]]', 0.5, 2,
     "parse error: loop 0: loop does not close in the plane"),
    ('[[0, 0, 0], [1, 0, 0], [1, 0, 0], [1, 1, 0], [0, 0, 1]]', 0.5, 2,
     "parse error: loop 0: circle-coordinate lift does not close"),
    ('[[0, 0, 0], [1, 0, 0], [1, 0, 0], [1, 1, 0], [0, 0, 0]]', 0.5, 3,
     "invariant violated: zero-length projected segment at vertex 1"),
]


@pytest.mark.parametrize("vertices, color, exit_code, message", PRECEDENCE_PROBES,
                         ids=[m for *_rest, m in PRECEDENCE_PROBES])
def test_loader_reports_the_first_defect(capsys, tmp_path, vertices, color, exit_code, message):
    path = tmp_path / "probe.link.json"
    path.write_text('{"t0": 0, "level": 1, "loops": [{"vertices": %s, "color": %r}]}'
                    % (vertices, color))
    code = main([*ABELIAN, str(path)])
    captured = capsys.readouterr()
    assert code == exit_code
    assert captured.out == ""
    assert message in captured.err


HUGE_NUMBER_PROBES = [  # (file, command, key path, value, the parse error it raises)
    ("hopf.link.json", ABELIAN, ("loops", 0, "vertices", 1, 0), 10**400,
     "loop 0 vertex coordinate is not finite"),
    ("hopf.link.json", ABELIAN, ("t0",), 10**400, "t0 is not finite"),
    ("hopf.link.json", ABELIAN, ("loops", 1, "color"), 10**400, "loop 1 color is not finite"),
    ("twocircles.shadow.json", ("eval", "--level", "3"), ("faces", 0, "gleam"), 10**400,
     "face 0 gleam is not finite"),
    # finite, but twice the value is past the float range
    ("hopf.link.json", ABELIAN, ("loops", 1, "color"), 1e308, "loop 1 color is too large"),
    ("twocircles.shadow.json", ("eval", "--level", "3"), ("faces", 0, "gleam"), 1e308,
     "face 0 gleam is too large"),
]


def run_on_edited_corpus_file(capsys, corpus_dir, tmp_path, name, command, keys, value):
    """Run the command on a copy of a corpus file with one value replaced;
    return the exit code and the captured output."""
    obj = json.loads((corpus_dir / name).read_text())
    parent = obj
    for key in keys[:-1]:
        parent = parent[key]
    parent[keys[-1]] = value
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    code = main([*command, str(path)])
    return code, capsys.readouterr()


@pytest.mark.parametrize("name, command, keys, big, message", HUGE_NUMBER_PROBES,
                         ids=[m for *_rest, m in HUGE_NUMBER_PROBES])
def test_number_past_float_range_exit_2(capsys, corpus_dir, tmp_path, name, command, keys,
                                        big, message):
    # float() of a JSON integer too large for a float raises OverflowError,
    # which must not pass for a result that is not finite (exit 3)
    code, captured = run_on_edited_corpus_file(capsys, corpus_dir, tmp_path, name, command,
                                               keys, big)
    assert code == 2
    assert captured.out == ""
    assert f"parse error: {message}" in captured.err


NEAR_HALF_INTEGER_PROBES = [  # (file, command, key path, value, the parse error it raises)
    ("hopf.link.json", ABELIAN, ("loops", 1, "color"), 0.5000000001,
     "loop 1 color must be a half-integer, got 0.5000000001"),
    ("twocircles.shadow.json", ("eval", "--level", "3"), ("faces", 0, "gleam"), 1.0000000001,
     "face 0 gleam must be a half-integer, got 1.0000000001"),
]


@pytest.mark.parametrize("name, command, keys, value, message", NEAR_HALF_INTEGER_PROBES,
                         ids=[m for *_rest, m in NEAR_HALF_INTEGER_PROBES])
def test_near_half_integer_exit_2(capsys, corpus_dir, tmp_path, name, command, keys, value,
                                  message):
    # a value within rounding distance of a half-integer is not one: it is
    # rejected, not rounded, as make_loop rejects such a color
    code, captured = run_on_edited_corpus_file(capsys, corpus_dir, tmp_path, name, command,
                                               keys, value)
    assert code == 2
    assert captured.out == ""
    assert f"parse error: {message}" in captured.err


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_integer_past_2_53_exit_2(capsys, corpus_dir, tmp_path, fmt):
    # 2^53 + 1 has no float: it is rejected, not rounded to 2^53
    code, captured = run_on_edited_corpus_file(
        capsys, corpus_dir, tmp_path, "twocircles.shadow.json",
        ("eval", "--level", "3", "--format", fmt), ("faces", 0, "gleam"), 2**53 + 1)
    assert code == 2
    assert captured.out == ""
    assert ("parse error: face 0 gleam has no exact float value, got 9007199254740993"
            in captured.err)


@pytest.mark.parametrize("argv", [
    ("eval", "twocircles.shadow.json"),
    ("wlo", "--mode", "vertical", "--dims", "2"),
    ("wlo", "--mode", "dpfree"),
    ("wlo", "--mode", "abelian"),
], ids=" ".join)
def test_missing_level_or_file_exit_2(capsys, corpus_dir, argv):
    argv = [str(corpus_dir / a) if a.endswith(".json") else a for a in argv]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "parse error:" in captured.err
    assert "Traceback" not in captured.err


class TestDeterminism:
    def test_byte_identical_output(self, capsys, corpus_dir):
        argv = ["wlo", "--mode", "dpfree", str(corpus_dir / "nested_pair.link.json")]
        code1 = main(list(argv))
        out1 = capsys.readouterr().out
        code2 = main(list(argv))
        out2 = capsys.readouterr().out
        assert code1 == code2 == 0
        assert out1 == out2

    def test_json_round_trips(self, capsys, corpus_dir):
        code, out = run_cli(capsys, "wlo", "--mode", "dpfree", "--format", "json",
                            str(corpus_dir / "circle_w0.link.json"))
        assert code == 0
        obj = json.loads(out)
        assert obj["value"] == [-1.5, 0.0]
        assert json.loads(json.dumps(obj)) == obj


class TestGolden:
    def test_golden_table(self, capsys, corpus_dir):
        rows = []
        for line in (corpus_dir / "golden.tsv").read_text().splitlines():
            if not line or line.startswith("#"):
                continue
            cmd, fname, args, re_s, im_s = line.split("\t")
            rows.append((cmd, fname, args.split(), complex(float(re_s), float(im_s))))
        assert len(rows) >= 12
        for cmd, fname, args, expected in rows:
            argv = [cmd] + args + ([] if fname == "-" else [str(corpus_dir / fname)])
            code = main(argv)
            out = capsys.readouterr().out
            if cmd == "check":
                assert code == 0, (argv, out)
            else:
                assert code == 0, (argv, out)
                assert last_value(out) == pytest.approx(expected, abs=1e-9), argv
