"""How gapcert's record classes are declared: importing them generates no
code, the tuple records annotate exactly their fields, and the key types
compare, hash and refuse assignment as their fields' tuple."""

import copy
import inspect
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import gapcert
from gapcert import config, domination, flow, limits, report
from gapcert.domination import CertifyOptions
from gapcert.flow import ShiftPoint, shift, shift_point
from gapcert.subsets import AxisFamily, Directed, FullBoundary, Primitive
from gapcert.words import parse_boundary_point, parse_word


def test_import_leaves_dataclasses_unloaded():
    # a child process, as pytest itself imports dataclasses
    script = "import sys, gapcert\nprint('dataclasses' in sys.modules)\n"
    env = dict(os.environ, PYTHONPATH=str(Path(gapcert.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    assert done.stdout.split() == ["False"], done.stderr


def tuple_records():
    return [
        cls
        for module in (config, domination, flow, limits, report)
        for _, cls in inspect.getmembers(module, inspect.isclass)
        if cls.__module__ == module.__name__ and issubclass(cls, tuple)
    ]


def test_tuple_records_annotate_exactly_their_fields():
    # the records are namedtuple subclasses, whose field names are spelled
    # twice: in the namedtuple call and as the annotations that type them
    records = tuple_records()
    assert len(records) == 16
    for cls in records:
        assert tuple(cls.__annotations__) == cls._fields, cls.__name__
        assert cls.__slots__ == (), cls.__name__


def key_values():
    x, y = parse_boundary_point("b|(ab)"), parse_boundary_point("(BA)")
    # two steps along the line, its ends seen from the new marker
    ahead, behind = parse_boundary_point("(ba)"), parse_boundary_point("AB|(BA)")
    return [
        (parse_word("abA"), ((0, 2, 1),)),
        (x, (x.preperiod, x.period)),
        (Directed(2, [0, 2]), (2, frozenset({0, 2}))),
        (AxisFamily(2, (parse_word("ba"),)), (2, (parse_word("ab"),))),
        (Primitive(2, 5), (2, 5)),
        (CertifyOptions(0.5), (0.5,)),
        (ShiftPoint(Primitive(2, 5), x, y), (Primitive(2, 5), x, y)),
        (shift_point(FullBoundary(2), x, y), (FullBoundary(2), x, y)),
        (shift(shift_point(FullBoundary(2), x, y), 2), (FullBoundary(2), ahead, behind)),
    ]


@pytest.mark.parametrize("value, fields", key_values())
def test_key_types_compare_and_hash_as_their_fields(value, fields):
    assert hash(value) == hash(fields)
    again = copy.copy(value)
    assert again == value and hash(again) == hash(value)
    assert pickle.loads(pickle.dumps(value)) == value
    assert value != fields or isinstance(value, tuple)
    assert repr(value).startswith(type(value).__name__ + "(")


@pytest.mark.parametrize("value, fields", key_values())
def test_key_types_refuse_assignment(value, fields):
    name = value._fields[0]
    with pytest.raises(AttributeError):
        setattr(value, name, getattr(value, name))
    with pytest.raises(AttributeError):
        delattr(value, name)

