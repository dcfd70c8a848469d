import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perigid.framework import Lattice, generic_rank, identity_lattice, max_generic_rank
from perigid.gain_graph import GainEdge, GainGraph, InvalidGainGraphError, gain_graph, reverse_edge, switch
from perigid.rigidity import (
    GLOBALLY_RIGID,
    NOT_GLOBALLY_RIGID,
    SATURATED_COMPARISON,
    STANDARD_COUNT,
    UNKNOWN,
    decide_global_rigidity,
    is_rigid,
    is_vertex_redundantly_rigid,
)
from support import (
    complete_graph,
    deletion_loop_global,
    deletion_loop_redundancy,
    fig2_graph,
    four_cycle,
    minimally_rigid_graph,
    random_bar_joint_graph,
    random_rational_lattice,
    saturated_complete_graph,
    saturated_complete_rank,
    triangle,
    twin_graph,
)


def fig2_plus():
    return gain_graph(
        2,
        ["a", "b"],
        [("a", "b", (0, 0)), ("a", "b", (1, 0)), ("a", "b", (0, 1))],
    )


class TestIsRigid:
    def test_triangle(self):
        v = is_rigid(triangle(), 2)
        assert v.rigid and v.achieved_rank == 3 and v.target_rank == 3
        assert v.method == STANDARD_COUNT

    def test_four_cycle_flexible(self):
        v = is_rigid(four_cycle(), 2)
        assert not v.rigid and v.achieved_rank == 4 and v.target_rank == 5

    def test_k4(self):
        assert is_rigid(complete_graph(4), 2).rigid

    def test_fig2(self):
        v = is_rigid(fig2_graph(), 2)
        assert v.rigid and v.achieved_rank == 2 and v.target_rank == 2

    def test_single_vertex_rigid_any_k(self):
        for d, k in [(2, 0), (2, 2), (3, 1)]:
            g = gain_graph(k, ["a"], [])
            assert is_rigid(g, d).rigid
        # the empty vertex set is vacuously rigid, with target 0
        for d in (1, 2, 3):
            for k in range(d + 1):
                v = is_rigid(gain_graph(k, [], []), d)
                assert v.rigid and v.target_rank == 0

    def test_small_graph_edge_is_rigid(self):
        g = gain_graph(0, ["a", "b"], [("a", "b", ())])
        v = is_rigid(g, 2)
        assert v.rigid and v.method == SATURATED_COMPARISON

    def test_small_graph_no_edge_not_rigid(self):
        g = gain_graph(0, ["a", "b"], [])
        v = is_rigid(g, 2)
        assert not v.rigid and v.method == SATURATED_COMPARISON

    def test_small_graph_k1_two_vertices(self):
        # one orbit pair joined by enough independent-gain edges in d=3, k=1
        g = gain_graph(
            1,
            ["a", "b"],
            [("a", "b", (0,)), ("a", "b", (1,)), ("a", "b", (2,)), ("a", "b", (-1,))],
        )
        v = is_rigid(g, 3)
        assert v.method == SATURATED_COMPARISON
        # comparison target equals what the saturated complete graph achieves
        assert v.target_rank >= v.achieved_rank

    def test_mode_and_dimension_validation(self):
        g = gain_graph(2, ["a"], [("a", "a", (1, 0))], mode="body-bar")
        with pytest.raises(ValueError):
            is_rigid(g, 2)
        with pytest.raises(ValueError):
            is_rigid(fig2_graph(), 1)  # k=2 > d=1

    def test_monotone_under_edge_addition(self):
        g4 = four_cycle()
        g5 = gain_graph(
            0,
            ["a", "b", "c", "d"],
            [("a", "b", ()), ("b", "c", ()), ("c", "d", ()), ("a", "d", ()), ("a", "c", ())],
        )
        assert not is_rigid(g4, 2).rigid
        assert is_rigid(g5, 2).rigid


class TestSaturatedComplete:
    def test_structure(self):
        sat = saturated_complete_graph(["a", "b"], 2, 1)
        assert len(sat.edges) == 9  # one vertex pair x 3^2 gains
        assert len({(e.tail, e.head, e.gain) for e in sat.edges}) == 9

    def test_k0_is_complete_graph(self):
        sat = saturated_complete_graph(["a", "b", "c"], 0, 1)
        assert len(sat.edges) == 3


def _rational_lattice(d: int, k: int) -> Lattice:
    """A non-generic lattice: columns e_j + e_{j+1}/2 (e_j alone for the last)."""
    cols = tuple(
        tuple(Fraction(1) if i == j else Fraction(1, 2) if i == j + 1 else Fraction(0) for i in range(d))
        for j in range(k)
    )
    return Lattice(d, k, cols)


class TestMaxGenericRank:
    def test_standard_count_when_large(self):
        for d in (1, 2, 3):
            for k in range(d + 1):
                for n in range(d + 1, d + 5):
                    assert max_generic_rank(n, d, k) == d * n - d - (d - k) * (d - k - 1) // 2

    @pytest.mark.parametrize("make_lattice", [None, identity_lattice, _rational_lattice])
    def test_matches_window_search_below_d_plus_1(self, make_lattice):
        for d in (1, 2, 3):
            for k in range(d):
                lattice = make_lattice(d, k) if make_lattice else None
                for n in range(1, d + 1):
                    oracle = saturated_complete_rank([f"v{i}" for i in range(n)], d, k, lattice, n)
                    assert max_generic_rank(n, d, k) == oracle, (d, k, n)

    def test_generic_rank_never_exceeds_bound(self):
        rng = random.Random(11)
        for _ in range(40):
            d = rng.randint(1, 3)
            k = rng.randint(0, d)
            n = rng.randint(1, 6)
            g = random_bar_joint_graph(rng, k, n, rng.randint(0, 3 * n))
            assert generic_rank(g, d, seed=rng.randint(0, 10**6)) <= max_generic_rank(n, d, k)


class TestVertexRedundant:
    def test_fig2(self):
        ok, details = is_vertex_redundantly_rigid(fig2_graph(), 2)
        assert ok
        assert [d["vertex"] for d in details] == ["a", "b"]
        assert all(d["rigid"] for d in details)

    def test_triangle(self):
        # deleting any corner leaves a bar, which is rigid in the small-graph regime
        ok, details = is_vertex_redundantly_rigid(triangle(), 2)
        assert ok and len(details) == 3

    def test_two_vertices_one_edge(self):
        g = gain_graph(0, ["a", "b"], [("a", "b", ())])
        ok, _ = is_vertex_redundantly_rigid(g, 2)
        assert ok

    def test_four_cycle_not_vrr(self):
        ok, details = is_vertex_redundantly_rigid(four_cycle(), 2)
        assert not ok
        assert any(not d["rigid"] for d in details)

    def test_gain_bound_on_whole_graph(self):
        # each vertex deletion of a two-vertex graph drops the large gain
        g = gain_graph(1, ["a", "b"], [("a", "b", (0,)), ("a", "b", (2**60,))])
        with pytest.raises(ValueError, match="2\\^60"):
            is_vertex_redundantly_rigid(g, 2)


class TestGlobalDecision:
    def test_fig2_not_globally_rigid(self):
        v = decide_global_rigidity(fig2_graph(), 2)
        assert v.status == NOT_GLOBALLY_RIGID
        assert v.reason == "gain-rank-below-k"
        assert v.detail["gain_rank"] == 1

    def test_fig2_plus_globally_rigid(self):
        v = decide_global_rigidity(fig2_plus(), 2)
        assert v.status == GLOBALLY_RIGID
        assert v.reason == "thm-2-rigid-and-rank"

    def test_disconnected_pair_not_rigid(self):
        g = gain_graph(0, ["a", "b"], [])
        v = decide_global_rigidity(g, 2)
        assert v.status == NOT_GLOBALLY_RIGID and v.reason == "not-rigid"

    def test_single_vertex_small_graph_corollary(self):
        g = gain_graph(2, ["a"], [])
        v = decide_global_rigidity(g, 2)
        assert v.status == GLOBALLY_RIGID and v.reason == "small-graph-corollary"

    def test_triangle_small_graph_corollary(self):
        v = decide_global_rigidity(triangle(), 2)
        assert v.status == GLOBALLY_RIGID and v.reason == "small-graph-corollary"

    def test_globally_rigid_implies_rigid(self):
        for g, d in [(fig2_plus(), 2), (triangle(), 2), (complete_graph(4), 2)]:
            v = decide_global_rigidity(g, d)
            if v.status == GLOBALLY_RIGID:
                assert is_rigid(g, d).rigid

    def test_unknown_branch_exists(self):
        # K4 in the plane is rigid with gain rank 0 = k, 4 > d-k+1 = 3, but a
        # vertex deletion leaves a flexible triangle-with-tail? K4 - v = K3 is
        # rigid, so K4 is 2-rigid and lands in the theorem branch instead.
        v = decide_global_rigidity(complete_graph(4), 2)
        assert v.status == GLOBALLY_RIGID
        # rigid but not vertex-redundant: two triangles glued along b-c;
        # deleting b leaves the flexible path a-c-d
        g = gain_graph(
            0,
            ["a", "b", "c", "d"],
            [("a", "b", ()), ("a", "c", ()), ("b", "c", ()), ("b", "d", ()), ("c", "d", ())],
        )
        assert is_rigid(g, 2).rigid
        v = decide_global_rigidity(g, 2)
        assert v.status == UNKNOWN and v.reason == "inconclusive"


class TestInvariance:
    def test_verdicts_invariant_under_relabelling_switch_reverse(self):
        rng = random.Random(77)
        for g, d in [(fig2_graph(), 2), (fig2_plus(), 2), (triangle(), 2)]:
            base = decide_global_rigidity(g, d, seed=1)
            mutated = g
            for step in range(10):
                v = rng.choice(mutated.vertices)
                gamma = tuple(rng.randint(-3, 3) for _ in range(g.k))
                mutated = switch(mutated, v, gamma)
                if mutated.edges:
                    mutated = reverse_edge(mutated, rng.choice(mutated.edges).id)
            after = decide_global_rigidity(mutated, d, seed=1)
            assert (after.status, after.reason) == (base.status, base.reason)


@st.composite
def bar_joint_cases(draw):
    """(d, graph): d in 1..3, k in 0..d, 1-5 vertex orbits and at most 10
    edges with gains in {-2..2}^k."""
    d = draw(st.integers(1, 3))
    k = draw(st.integers(0, d))
    rng = random.Random(draw(st.integers(0, 10**6)))
    n = draw(st.integers(1, 5))
    return d, random_bar_joint_graph(rng, k, n, draw(st.integers(0, 10)))


def verdicts(g, d: int, seed: int) -> tuple:
    """Every bar-joint verdict on g, with no vertex names in it."""
    rigid = is_rigid(g, d, seed=seed)
    vrr, _ = is_vertex_redundantly_rigid(g, d, seed=seed)
    glob = decide_global_rigidity(g, d, seed=seed)
    return rigid.rigid, rigid.achieved_rank, vrr, glob.status, glob.reason


@settings(deadline=None, max_examples=100)
@given(bar_joint_cases(), st.data())
def test_verdicts_invariant_under_switching_reversal_relabelling(case, data):
    d, g = case
    seed = data.draw(st.integers(0, 999))
    base = verdicts(g, d, seed)
    v = data.draw(st.sampled_from(g.vertices))
    moved = switch(g, v, data.draw(st.lists(st.integers(-3, 3), min_size=g.k, max_size=g.k)))
    if g.edges:
        moved = reverse_edge(moved, data.draw(st.sampled_from(g.edges)).id)
    # new names in a new order
    order = data.draw(st.permutations(moved.vertices))
    name = {w: f"u{i}" for i, w in enumerate(order)}
    relabelled = GainGraph(
        g.k,
        tuple(name[w] for w in order),
        tuple(GainEdge(e.id, name[e.tail], name[e.head], e.gain) for e in moved.edges),
    )
    assert verdicts(moved, d, seed) == base
    assert verdicts(relabelled, d, seed) == base


@settings(deadline=None, max_examples=150)
@given(bar_joint_cases(), st.data())
def test_rank_bounded_and_monotone_under_edge_addition(case, data):
    d, g = case
    n = len(g.vertices)
    seed = data.draw(st.integers(0, 999))
    r = generic_rank(g, d, seed=seed)
    assert r <= min(len(g.edges), max_generic_rank(n, d, g.k))
    if n < 2:
        return
    u, v = data.draw(st.permutations(g.vertices))[:2]
    gain = tuple(data.draw(st.lists(st.integers(-3, 3), min_size=g.k, max_size=g.k)))
    try:
        bigger = GainGraph(g.k, g.vertices, g.edges + (GainEdge("new", u, v, gain),))
    except InvalidGainGraphError:
        return  # parallel to an edge of the same gain
    assert r <= generic_rank(bigger, d, seed=seed) <= r + 1


@st.composite
def redundancy_cases(draw):
    """(d, graph, lattice, seed): d in 1..3, k in 0..d, 1-6 vertex orbits,
    at most 18 edges with gains in {-2..2}^k, and no lattice, the identity
    or a rational one."""
    d = draw(st.integers(1, 3))
    k = draw(st.integers(0, d))
    rng = random.Random(draw(st.integers(0, 10**6)))
    graph = random_bar_joint_graph(rng, k, draw(st.integers(1, 6)), draw(st.integers(0, 18)))
    lattice = draw(
        st.sampled_from([None, identity_lattice(d, k), random_rational_lattice(rng, d, k)])
    )
    return d, graph, lattice, draw(st.integers(0, 999))


@settings(deadline=None, max_examples=100)
@given(redundancy_cases())
def test_deletions_match_the_deletion_loop(case):
    # one elimination against a fresh graph and sample per deletion: the
    # same (rigid, achieved_rank, target_rank, method, seed) everywhere
    d, g, lattice, seed = case
    vrr, details = is_vertex_redundantly_rigid(g, d, lattice, seed=seed)
    assert (vrr, details) == deletion_loop_redundancy(g, d, lattice, seed)
    r = generic_rank(g, d, lattice, seed=seed)
    for x in details:
        if "verdict" in x:
            degree = sum(x["vertex"] in (e.tail, e.head) for e in g.edges)
            assert r - degree <= x["verdict"]["achieved_rank"] <= r
    assert decide_global_rigidity(g, d, lattice, seed=seed) == deletion_loop_global(g, d, lattice, seed)


@pytest.mark.parametrize("d,k", [(d, k) for d in (1, 2, 3) for k in range(d + 1)])
def test_twin_graphs_are_globally_rigid(d, k):
    # GloballyRigid by construction (`twin_graph`) up to |V| = 20.  Every
    # vertex has more than d edges, so none peels and every deletion is
    # read off the stresses
    rng = random.Random(10 * d + k)
    for n in (d + 2, 10):
        g = twin_graph(minimally_rigid_graph(rng, d, k, n))
        assert all(sum(v in (e.tail, e.head) for e in g.edges) > d for v in g.vertices)
        verdict = decide_global_rigidity(g, d, seed=n)
        assert (verdict.status, verdict.reason) == (GLOBALLY_RIGID, "thm-2-rigid-and-rank")
        assert verdict == deletion_loop_global(g, d, seed=n)
