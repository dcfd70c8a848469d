import random

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from perigid.gain_graph import (
    BAR_JOINT,
    BODY_BAR,
    GainEdge,
    GainGraph,
    InvalidGainGraphError,
    COVERING_MAX_VERTICES,
    covering_window,
    gain_graph,
    gain_rank,
    reverse_edge,
    switch,
)
from support import (
    cycle_space_generators,
    delete_vertex,
    fig2_graph,
    random_bar_joint_graph,
    reference_gain_rank,
)


class TestValidate:
    """Every GainGraph is valid by construction: the constructor raises
    InvalidGainGraphError with all mode-rule messages joined by "; "."""

    def test_fig2_is_valid(self):
        g = fig2_graph()
        assert GainGraph(g.k, g.vertices, g.edges, g.mode) == g

    def test_loop_rejected_in_bar_joint(self):
        with pytest.raises(InvalidGainGraphError, match=r"^loop 'e0' not allowed in bar-joint mode$"):
            gain_graph(2, ["a"], [("a", "a", (1, 0))])

    def test_parallel_same_gain_after_reorientation(self):
        with pytest.raises(
            InvalidGainGraphError, match=r"^edges 'e0' and 'e1' are parallel with the same gain$"
        ):
            gain_graph(2, ["a", "b"], [("a", "b", (1, 0)), ("b", "a", (-1, 0))])

    def test_every_violation_reported(self):
        with pytest.raises(InvalidGainGraphError) as info:
            gain_graph(1, ["a", "b"], [("a", "b", (1,)), ("a", "a", (1,)), ("a", "b", (1,))])
        assert str(info.value) == (
            "loop 'e1' not allowed in bar-joint mode; "
            "edges 'e0' and 'e2' are parallel with the same gain"
        )

    def test_body_bar_identity_loop_rejected(self):
        with pytest.raises(InvalidGainGraphError, match=r"^loop 'e0' has identity gain$"):
            gain_graph(2, ["a"], [("a", "a", (0, 0))], mode=BODY_BAR)

    def test_body_bar_allows_equal_parallels_and_gain_loops(self):
        g = gain_graph(
            2,
            ["a", "b"],
            [("a", "b", (0, 0)), ("a", "b", (0, 0)), ("a", "a", (1, 0))],
            mode=BODY_BAR,
        )
        assert len(g.edges) == 3


@st.composite
def valid_graphs(draw):
    """Gain graphs of either mode, drawn edge by edge and kept only where the
    constructor accepts them, so every result is a valid graph."""
    k = draw(st.integers(0, 3))
    mode = draw(st.sampled_from([BAR_JOINT, BODY_BAR]))
    vertices = [f"v{i}" for i in range(draw(st.integers(1, 4)))]
    edges: list[GainEdge] = []
    for i in range(draw(st.integers(0, 8))):
        edge = GainEdge(
            f"e{i}",
            draw(st.sampled_from(vertices)),
            draw(st.sampled_from(vertices)),
            tuple(draw(st.lists(st.integers(-2, 2), min_size=k, max_size=k))),
        )
        try:
            GainGraph(k, tuple(vertices), tuple(edges + [edge]), mode)
        except InvalidGainGraphError:
            continue
        edges.append(edge)
    return GainGraph(k, tuple(vertices), tuple(edges), mode)


@given(valid_graphs(), st.data())
def test_operations_preserve_validity(g, data):
    """Switching, reversal and deletion of a valid graph never raise."""
    v = data.draw(st.sampled_from(g.vertices))
    gamma = data.draw(st.lists(st.integers(-3, 3), min_size=g.k, max_size=g.k))
    switch(g, v, gamma)
    delete_vertex(g, v)
    if g.edges:
        e = data.draw(st.sampled_from(g.edges))
        reverse_edge(g, e.id)
        g.delete_edge(e.id)


class TestSwitch:
    def test_fig2_switch_at_b(self):
        # both edges point into b, so both gains lose (1, 0)
        g = switch(fig2_graph(), "b", (1, 0))
        assert sorted(e.gain for e in g.edges) == [(-1, 0), (0, 0)]

    def test_switch_at_tail_adds(self):
        g = switch(fig2_graph(), "a", (1, 0))
        assert sorted(e.gain for e in g.edges) == [(1, 0), (2, 0)]

    def test_zero_switch_is_identity(self):
        g = fig2_graph()
        assert switch(g, "a", (0, 0)) == g

    def test_switch_then_inverse(self):
        g = fig2_graph()
        assert switch(switch(g, "a", (3, -2)), "a", (-3, 2)) == g

    def test_unknown_vertex(self):
        with pytest.raises(KeyError):
            switch(fig2_graph(), "zz", (0, 0))

    def test_loop_unchanged(self):
        g = gain_graph(1, ["a"], [("a", "a", (2,))], mode=BODY_BAR)
        assert switch(g, "a", (5,)) == g


class TestReverse:
    def test_reverse(self):
        g = reverse_edge(fig2_graph(), "e1")
        e = g.edge("e1")
        assert (e.tail, e.head, e.gain) == ("b", "a", (-1, 0))

    def test_reverse_twice(self):
        g = fig2_graph()
        assert reverse_edge(reverse_edge(g, "e0"), "e0") == g

    def test_reverse_loop(self):
        g = gain_graph(2, ["a"], [("a", "a", (1, 1))], mode=BODY_BAR)
        assert reverse_edge(g, "e0").edge("e0").gain == (-1, -1)


class TestGainRank:
    def test_fig2_rank_one(self):
        assert gain_rank(fig2_graph()) == 1

    def test_forest_rank_zero(self):
        g = gain_graph(2, ["a", "b", "c"], [("a", "b", (1, 0)), ("b", "c", (0, 1))])
        assert gain_rank(g) == 0

    def test_two_loops(self):
        g = gain_graph(
            2, ["a"], [("a", "a", (1, 0)), ("a", "a", (0, 1))], mode=BODY_BAR
        )
        # oracle: the cycle gains of a one-vertex graph are exactly the
        # integer combinations of the loop gains
        assert gain_rank(g) == sympy.Matrix([[1, 0], [0, 1]]).rank()
        assert gain_rank(g) == 2

    def test_empty_subset(self):
        assert gain_rank(fig2_graph(), []) == 0

    def test_unknown_edge_id(self):
        for k in (0, 2):
            g = gain_graph(k, ["a", "b"], [("a", "b", (0,) * k)])
            with pytest.raises(KeyError, match=r"unknown edges \['x', 'y'\]"):
                gain_rank(g, ["e0", "y", "x"])

    def test_merge_shifts_potentials(self):
        # a->b and c->d form two components before b->c joins them; the
        # last edge d->a closes the one cycle, of gain 1 + 1 + 1 - 3 = 0
        g = gain_graph(1, "abcd", [("a", "b", (1,)), ("c", "d", (1,)), ("b", "c", (1,)), ("d", "a", (-3,))])
        assert gain_rank(g) == reference_gain_rank(g) == 0

    def test_generators_match_enumerated_cycles(self):
        # triangle with gains: single independent cycle gain = sum around it
        g = gain_graph(
            2,
            ["a", "b", "c"],
            [("a", "b", (1, 0)), ("b", "c", (0, 1)), ("c", "a", (1, 1))],
        )
        gens = cycle_space_generators(g)
        nonzero = [x for x in gens if any(x)]
        assert nonzero == [(2, 2)] or nonzero == [(-2, -2)]

    def test_switch_invariance(self):
        rng = random.Random(5)
        for trial in range(20):
            g = random_bar_joint_graph(rng, k=2, n=4, max_edges=6)
            r = gain_rank(g)
            v = rng.choice(g.vertices)
            gamma = tuple(rng.randint(-3, 3) for _ in range(2))
            assert gain_rank(switch(g, v, gamma)) == r
            if g.edges:
                e = rng.choice(g.edges)
                assert gain_rank(reverse_edge(g, e.id)) == r

    def test_monotone_under_edge_addition(self):
        g = fig2_graph()
        assert gain_rank(g, ["e0"]) <= gain_rank(g, ["e0", "e1"])

    def test_bounded_by_k_and_edges(self):
        rng = random.Random(6)
        for _ in range(10):
            g = random_bar_joint_graph(rng, k=3, n=4, max_edges=5)
            assert gain_rank(g) <= min(3, len(g.edges))


@st.composite
def rank_graphs(draw):
    """Valid graphs of either mode with k in 0..3 for the gain-rank property:
    up to 7 vertices and 12 edges, so isolated vertices and several
    components are common; in body-bar mode loops and equal-gain parallels
    (an edge may repeat the one before it); gain entries are small or up to
    2^70 in absolute value."""
    k = draw(st.integers(0, 3))
    mode = draw(st.sampled_from([BAR_JOINT, BODY_BAR]))
    vertices = [f"v{i}" for i in range(draw(st.integers(1, 7)))]
    entries = st.one_of(st.integers(-2, 2), st.integers(-(2**70), 2**70))
    edges: list[GainEdge] = []
    for i in range(draw(st.integers(0, 12))):
        if edges and draw(st.integers(0, 3)) == 0:
            prev = edges[-1]
            edge = GainEdge(f"e{i}", prev.tail, prev.head, prev.gain)
        else:
            edge = GainEdge(
                f"e{i}",
                draw(st.sampled_from(vertices)),
                draw(st.sampled_from(vertices)),
                tuple(draw(st.lists(entries, min_size=k, max_size=k))),
            )
        try:
            GainGraph(k, tuple(vertices), tuple(edges + [edge]), mode)
        except InvalidGainGraphError:
            continue
        edges.append(edge)
    return GainGraph(k, tuple(vertices), tuple(edges), mode)


@settings(max_examples=300)
@given(rank_graphs(), st.data())
def test_gain_rank_matches_reference(g, data):
    """The merged-potential kernel against the depth-first spanning forest of
    `support.cycle_space_generators`, on all edges, none, a subset and a
    subset with repeated ids; an unknown id raises the same KeyError."""
    ids = [e.id for e in g.edges]
    subset = data.draw(st.lists(st.sampled_from(ids), unique=True)) if ids else []
    repeated = subset + data.draw(st.lists(st.sampled_from(subset), min_size=1)) if subset else []
    for edge_ids in (None, [], subset, repeated):
        assert gain_rank(g, edge_ids) == reference_gain_rank(g, edge_ids)
    with pytest.raises(KeyError) as got:
        gain_rank(g, subset + ["unknown"])
    with pytest.raises(KeyError) as want:
        reference_gain_rank(g, subset + ["unknown"])
    assert got.value.args == want.value.args


class TestCoveringWindow:
    def test_fig2_window_counts(self):
        w = covering_window(fig2_graph(), 1)
        assert len(w.vertices) == 2 * 3**2

    def test_zero_radius_identity_gains_only(self):
        w = covering_window(fig2_graph(), 0)
        assert len(w.vertices) == 2
        assert w.edges == ((("a", (0, 0)), ("b", (0, 0))),)

    def test_lonely_vertex(self):
        g = gain_graph(1, ["a"], [])
        w = covering_window(g, 2)
        assert len(w.vertices) == 5
        assert w.edges == ()

    def test_vertex_count_formula(self):
        g = random_bar_joint_graph(random.Random(3), k=2, n=3, max_edges=4)
        for m in (0, 1, 2):
            assert len(covering_window(g, m).vertices) == 3 * (2 * m + 1) ** 2

    def test_size_bound_checked_before_building(self):
        # 2 * 1001^2 vertices, just over the bound; a radius of 10^9 would
        # exhaust memory if the window were built before the check
        assert 2 * 1001**2 > COVERING_MAX_VERTICES
        for radius in (500, 10**9):
            with pytest.raises(ValueError, match="exceeds the limit"):
                covering_window(fig2_graph(), radius)
