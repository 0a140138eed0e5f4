"""The contract of shadowsum's plain records.

Nine records neither validate nor cache: they are named tuples, so each
is immutable, compared by value, hashed by value when its fields hash,
printed as `Name(field=value, ...)`, and also a tuple of its fields.
`Loop`, `Link`, `Level` and `Shadow` stay frozen dataclasses: each
validates when it is built or caches per-loop geometry.  A named tuple
costs a fraction of a dataclass to define, and defining the classes was
most of the package's import time, so a new dataclass record fails here
until its reason is stated in `DATACLASSES`.
"""

import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import shadowsum
from shadowsum.cli import RunResult

# name -> (class, its fields in order, the defaults of its trailing fields)
RECORDS = {
    "DoublePoint": (shadowsum.DoublePoint, ("point", "strands", "thetas", "cross_sign"), {}),
    "CrossingMark": (shadowsum.CrossingMark, ("loop", "param", "point", "eps", "tangent"), {}),
    "AdmissibilityReport": (shadowsum.AdmissibilityReport, (
        "ok", "double_points", "triple_points", "t0_degeneracies", "t0_double_point_hits",
        "strand_collisions", "vertical_loops"), {}),
    "FaceComplex": (shadowsum.FaceComplex, ("chi", "loop_sides", "parent"), {}),
    "ShadowFace": (shadowsum.ShadowFace, ("chi", "gleam2", "z"), {"z": 0}),
    "ShadowEdge": (shadowsum.ShadowEdge, ("color2", "left", "right"), {}),
    "ShadowVertex": (shadowsum.ShadowVertex, ("e1_2", "e2_2", "j", "k", "m", "n"), {}),
    "BijectionReport": (shadowsum.BijectionReport, (
        "pairs_count", "colorings_count", "injective", "surjective", "missing", "extra"), {}),
    "RunResult": (RunResult, ("command", "digest", "value", "diagnostics", "passed"),
                  {"passed": True}),
}

# the dataclasses, each with the reason it is not a named tuple
DATACLASSES = {
    "Loop": "builds its projections and boxes when made and caches scans on itself",
    "Link": "checks t0, the level and its loops' colors when made",
    "Level": "checks that the level is a positive int when made",
    "Shadow": "checks the shadow's structural invariants when made",
}


def sample(fields, offset=0):
    """Distinct hashable values, one per field."""
    return tuple((i + offset, f) for i, f in enumerate(fields))


@pytest.mark.parametrize("name", RECORDS)
class TestRecord:
    def test_fields_and_defaults(self, name):
        cls, fields, defaults = RECORDS[name]
        params = inspect.signature(cls).parameters.values()
        assert cls.__name__ == name
        assert tuple(p.name for p in params) == fields
        assert {p.name: p.default for p in params if p.default is not p.empty} == defaults

    def test_named_tuple(self, name):
        cls, fields, _ = RECORDS[name]
        assert issubclass(cls, tuple) and not dataclasses.is_dataclass(cls)
        assert cls._fields == fields
        assert tuple(cls(*sample(fields))) == sample(fields)

    def test_immutable(self, name):
        cls, fields, _ = RECORDS[name]
        rec = cls(*sample(fields))
        for f in fields:
            with pytest.raises(AttributeError):
                setattr(rec, f, None)
        with pytest.raises(AttributeError):
            rec.extra_attribute = None
        assert rec == cls(*sample(fields))

    def test_equal_and_hashed_by_value(self, name):
        cls, fields, _ = RECORDS[name]
        a, b = cls(*sample(fields)), cls(**dict(zip(fields, sample(fields))))
        assert a is not b and a == b and hash(a) == hash(b)
        assert a != cls(*sample(fields, offset=1))
        assert [getattr(a, f) for f in fields] == list(sample(fields))

    def test_repr(self, name):
        cls, fields, _ = RECORDS[name]
        rec = cls(*sample(fields))
        assert repr(rec) == f"{name}({', '.join(f'{f}={getattr(rec, f)!r}' for f in fields)})"


def test_dataclasses_are_the_validating_types():
    found = set()
    for info in pkgutil.iter_modules(shadowsum.__path__):
        module = importlib.import_module(f"shadowsum.{info.name}")
        found |= {name for name, obj in vars(module).items()
                  if inspect.isclass(obj) and obj.__module__ == module.__name__
                  and dataclasses.is_dataclass(obj)}
    assert found == set(DATACLASSES)
