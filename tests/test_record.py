"""The contract of the immutable value types (`perigid.record.Record`).

Each type is checked against a twin made by `dataclasses.make_dataclass` with
the same fields and `frozen=True`, the form these types had before they
became slots classes.
"""

import copy
import dataclasses
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perigid.body_bar import CountReport, count_rank
from perigid.document import Document, parse_document
from perigid.framework import Framework, Lattice, identity_lattice
from perigid.gain_graph import (
    BAR_JOINT,
    BODY_BAR,
    CoveringWindow,
    GainEdge,
    GainGraph,
    InvalidGainGraphError,
    covering_window,
    gain_graph,
)
from perigid.motion import FlexPath, PairWitness, PathCertificate, build_flex_path, verify_path
from perigid.record import Record
from perigid.rigidity import GlobalVerdict, RigidityVerdict, decide_global_rigidity, is_rigid
from support import PinSpec, fig2_flip_placement, fig2_framework, fig2_graph, pair_witness

SRC = Path(__file__).resolve().parent.parent / "src"


def _examples() -> dict:
    """One valid instance of each value type, built through the library."""
    graph = fig2_graph()
    framework = fig2_framework()
    path = build_flex_path(framework, fig2_flip_placement())
    multigraph = gain_graph(1, ["b0", "b1"], [("b0", "b1", (0,)), ("b0", "b0", (1,))], mode=BODY_BAR)
    edges = [{"tail": "a", "head": "b", "gain": []}]
    doc = {"dim": 2, "periodicity": 0, "mode": BAR_JOINT, "vertices": ["a", "b"], "edges": edges}
    return {
        GainEdge: graph.edges[1],
        GainGraph: graph,
        CoveringWindow: covering_window(graph, 1),
        Lattice: identity_lattice(2, 2),
        Framework: framework,
        PinSpec: PinSpec.default(graph, 2, 1),
        RigidityVerdict: is_rigid(graph, 2),
        GlobalVerdict: decide_global_rigidity(graph, 2),
        CountReport: count_rank(multigraph, 2),
        FlexPath: path,
        PairWitness: pair_witness(path, "a", "b", (1, 0)),
        PathCertificate: verify_path(path, framework, fig2_flip_placement()),
        Document: parse_document(doc),
    }


EXAMPLES = _examples()
TYPES = list(EXAMPLES)


def _values(obj) -> tuple:
    return tuple(getattr(obj, name) for name in obj.__slots__)


def _unchecked(cls, values):
    """An instance with arbitrary field values, past the validation hook."""
    obj = object.__new__(cls)
    for name, value in zip(cls.__slots__, values):
        cls.__dict__[name].__set__(obj, value)
    return obj


TWINS = {cls: dataclasses.make_dataclass(cls.__name__, cls.__slots__, frozen=True) for cls in TYPES}


def test_every_value_type_is_covered():
    # the library's 12 value types, and PinSpec, which the tests keep
    assert len(TYPES) == 13
    library = {c for c in Record.__subclasses__() if c.__module__.startswith("perigid.")}
    assert set(TYPES) == library | {PinSpec}


# hashable and unhashable values, with a small pool so that equal fields occur
FIELD_VALUES = st.one_of(
    st.integers(-3, 3),
    st.sampled_from(["a", "b", "", "e'1"]),
    st.none(),
    st.booleans(),
    st.tuples(st.integers(-2, 2)),
    st.fractions(max_denominator=3).filter(lambda x: abs(x) < 3),
    st.dictionaries(st.sampled_from(["a", "b"]), st.integers(0, 1), max_size=2),
)


def _hash_or_error(obj):
    try:
        return hash(obj)
    except TypeError:
        return TypeError


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_agrees_with_dataclass_twin(data):
    cls = data.draw(st.sampled_from(TYPES))
    n = len(cls.__slots__)
    first = data.draw(st.tuples(*[FIELD_VALUES] * n))
    keep = data.draw(st.tuples(*[st.booleans()] * n))
    second = tuple(v if same else data.draw(FIELD_VALUES) for v, same in zip(first, keep))
    twin = TWINS[cls]
    a, b = _unchecked(cls, first), _unchecked(cls, second)
    ta, tb = twin(*first), twin(*second)
    assert repr(a) == repr(ta) and repr(b) == repr(tb)
    assert (a == b) == (ta == tb) and (a != b) == (ta != tb)
    assert _hash_or_error(a) == _hash_or_error(ta)


def test_repr_has_the_dataclass_form():
    assert repr(GainEdge("e", "a", "b", (1,))) == "GainEdge(id='e', tail='a', head='b', gain=(1,))"


@pytest.mark.parametrize("rtype", TYPES, ids=lambda c: c.__name__)
class TestValueType:
    def test_fields_cannot_be_assigned_or_deleted(self, rtype):
        obj = EXAMPLES[rtype]
        for name in rtype.__slots__:
            with pytest.raises(AttributeError):
                setattr(obj, name, None)
            with pytest.raises(AttributeError):
                delattr(obj, name)
        with pytest.raises(AttributeError):
            obj.not_a_field = 1

    def test_pickle_and_copy_round_trip(self, rtype):
        obj = EXAMPLES[rtype]
        for clone in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj), copy.copy(obj)):
            assert type(clone) is rtype and clone == obj

    def test_keyword_and_positional_construction_agree(self, rtype):
        values = _values(EXAMPLES[rtype])
        assert rtype(*values) == rtype(**dict(zip(rtype.__slots__, values))) == EXAMPLES[rtype]
        head = len(values) // 2
        assert rtype(*values[:head], **dict(zip(rtype.__slots__[head:], values[head:]))) == EXAMPLES[rtype]

    def test_wrong_arguments_raise_type_error(self, rtype):
        values = _values(EXAMPLES[rtype])
        with pytest.raises(TypeError):
            rtype(*values, None)
        with pytest.raises(TypeError):
            rtype(*values[: len(values) - len(rtype._defaults) - 1])
        with pytest.raises(TypeError):
            rtype(*values, not_a_field=None)
        with pytest.raises(TypeError, match="multiple values"):
            rtype(*values, **{rtype.__slots__[0]: values[0]})

    def test_other_types_are_unequal(self, rtype):
        obj = EXAMPLES[rtype]
        values = _values(obj)
        twin = TWINS[rtype](*values)
        assert obj != twin and twin != obj
        assert obj != values and obj.__eq__(values) is NotImplemented
        other = type(rtype.__name__, (Record,), {"__slots__": rtype.__slots__})
        assert obj != _unchecked(other, values)
        assert obj != EXAMPLES[GainEdge if rtype is not GainEdge else GainGraph]


class TestValidation:
    def test_default_mode(self):
        g = GainGraph(0, ("a",), ())
        assert g.mode == BAR_JOINT and g == GainGraph(k=0, vertices=("a",), edges=())

    def test_runs_on_every_construction(self):
        with pytest.raises(InvalidGainGraphError):
            GainGraph(k=-1, vertices=(), edges=())
        with pytest.raises(ValueError):
            Lattice(2, 1, ((Fraction(0), Fraction(0)),))

    def test_runs_on_unpickle_and_copy(self):
        bad = _unchecked(GainGraph, (-1, (), (), BAR_JOINT))
        with pytest.raises(InvalidGainGraphError):
            pickle.loads(pickle.dumps(bad))
        with pytest.raises(InvalidGainGraphError):
            copy.deepcopy(bad)

    def test_global_verdict_is_unhashable(self):
        # its detail is a dict
        with pytest.raises(TypeError):
            hash(EXAMPLES[GlobalVerdict])


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    probe = "import sys; print(sorted(m for m in ('csv', 'dataclasses', 'inspect') if m in sys.modules))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    bare = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    if bare.stdout.strip() != "[]":
        pytest.skip(f"the interpreter loads {bare.stdout.strip()} at start")
    cli = subprocess.run(
        [sys.executable, "-c", "import perigid.cli; " + probe], env=env, capture_output=True, text=True, check=True
    )
    assert cli.stdout.strip() == "[]"
