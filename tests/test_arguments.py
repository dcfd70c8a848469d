"""Every public decision rejects bad arguments with a ValueError, also where
no rank is ever taken: a one-vertex graph (every vertex deletion leaves the
empty graph) and a body-bar graph with no bars (nothing to delete)."""

import inspect

import pytest

from perigid import framework, rigidity
from perigid.body_bar import (
    body_bar_rank,
    build_body_bar_gain_graph,
    count_rank,
    decide_body_bar_global,
    is_bar_redundantly_rigid,
)
from perigid.framework import generic_rank, identity_lattice
from perigid.gain_graph import BAR_JOINT, BODY_BAR, gain_graph
from perigid.rigidity import decide_global_rigidity, is_rigid, is_vertex_redundantly_rigid
from support import complete_graph, random_generic_framework

GRAPHS = {
    BAR_JOINT: lambda k: gain_graph(k, ["a"], []),
    BODY_BAR: lambda k: gain_graph(k, ["b0", "b1"], [], mode=BODY_BAR),
}

SAMPLED = {"lattice", "seed"}

# (decision, the mode it takes, its parameters besides graph and d)
DECISIONS = [
    (generic_rank, BAR_JOINT, SAMPLED),
    (is_rigid, BAR_JOINT, SAMPLED),
    (is_vertex_redundantly_rigid, BAR_JOINT, SAMPLED),
    (decide_global_rigidity, BAR_JOINT, SAMPLED),
    (random_generic_framework, BAR_JOINT, {"lattice", "seed"}),
    (body_bar_rank, BODY_BAR, SAMPLED),
    (is_bar_redundantly_rigid, BODY_BAR, SAMPLED),
    (decide_body_bar_global, BODY_BAR, SAMPLED),
    (count_rank, BODY_BAR, {"edge_cap"}),
    (build_body_bar_gain_graph, BODY_BAR, set()),
]

# bad argument -> (parameter it needs, graph in the other mode, graph k, d, keywords)
CASES = {
    "wrong-mode": (None, True, 1, 2, {}),
    "d-0": (None, False, 0, 0, {}),
    "k-above-d": (None, False, 3, 2, {}),
    "lattice-shape": ("lattice", False, 1, 2, {"lattice": identity_lattice(3, 1)}),
}

COMBINATIONS = [
    pytest.param(decision, mode, case, id=f"{decision.__name__}-{case}")
    for decision, mode, params in DECISIONS
    for case, (needs, *_) in CASES.items()
    if needs is None or needs in params
]


@pytest.mark.parametrize("decision, mode, case", COMBINATIONS)
def test_bad_argument_rejected(decision, mode, case):
    _, other_mode, k, d, kwargs = CASES[case]
    if other_mode:
        mode = BODY_BAR if mode == BAR_JOINT else BAR_JOINT
    with pytest.raises(ValueError):
        decision(GRAPHS[mode](k), d, **kwargs)


@pytest.mark.parametrize(
    "decision, params", [pytest.param(f, params, id=f.__name__) for f, _, params in DECISIONS]
)
def test_table_lists_every_parameter(decision, params):
    # the graph's own k is no parameter: a no-op knob that comes back fails here
    _graph, d, *rest = inspect.signature(decision).parameters
    assert d == "d" and set(rest) == params


@pytest.mark.parametrize(
    "decision, mode",
    [
        pytest.param(f, mode, id=f.__name__)
        for f, mode, params in DECISIONS
        if params == SAMPLED and f is not random_generic_framework
    ],
)
def test_seed_is_keyword_only(decision, mode):
    # a fourth positional argument is refused, not read as the seed
    graph = GRAPHS[mode](1)
    with pytest.raises(TypeError):
        decision(graph, 2, None, 3)
    decision(graph, 2, None, seed=3)


def test_global_cascade_checks_once(monkeypatch):
    # the base rank and all 14 vertex deletions come from one elimination,
    # which takes no check of its own
    calls = []
    check = framework._check_args

    def counted(*args, **kwargs):
        calls.append(args)
        return check(*args, **kwargs)

    for module in (framework, rigidity):
        monkeypatch.setattr(module, "_check_args", counted)
    verdict = decide_global_rigidity(complete_graph(14), 2)
    assert verdict.reason == "thm-2-rigid-and-rank"
    assert len(verdict.detail["vertex_deletions"]) == 14
    assert len(calls) == 1
