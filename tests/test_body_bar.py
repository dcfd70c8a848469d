import random
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perigid.body_bar import (
    body_bar_rank,
    build_body_bar_gain_graph,
    count_rank,
    decide_body_bar_global,
    is_bar_redundantly_rigid,
)
from perigid.framework import identity_lattice
from perigid.gain_graph import BODY_BAR, GainEdge, GainGraph, gain_graph, gain_rank, reverse_edge, switch
from perigid.rigidity import GLOBALLY_RIGID, NOT_GLOBALLY_RIGID, is_rigid
from support import (
    CountMatroid,
    enumerated_count_rank,
    expansion_bar_redundancy,
    random_body_bar_multigraph,
    random_rational_lattice,
)


def one_body(loops, k=2):
    return gain_graph(k, ["b0"], [("b0", "b0", g) for g in loops], mode=BODY_BAR)


def two_bodies(gains, k=0):
    return gain_graph(k, ["b0", "b1"], [("b0", "b1", g) for g in gains], mode=BODY_BAR)


class TestBuild:
    def test_single_body_no_bars(self):
        built = build_body_bar_gain_graph(one_body([]), 2)
        assert built.vertices == ("b0#c1", "b0#c2", "b0#c3")  # d+1 core joints
        assert len(built.edges) == comb(3, 2)
        assert all(e.gain == (0, 0) for e in built.edges)

    def test_loop_gets_two_attachments(self):
        built = build_body_bar_gain_graph(one_body([(1, 0)]), 2)
        # 3 cores + 2 attachments, complete body graph + 1 bar
        assert len(built.vertices) == 5
        assert len(built.edges) == comb(5, 2) + 1
        bar = built.edge("bar:e0")
        assert bar.gain == (1, 0)
        assert (bar.tail, bar.head) == ("b0#ae0-", "b0#ae0+")  # lifted loop is a genuine edge

    def test_two_bodies_one_bar(self):
        g = two_bodies([()])
        built = build_body_bar_gain_graph(g, 2)
        assert len(built.vertices) == 2 * (3 + 1)
        assert len(built.edges) == 2 * comb(4, 2) + 1
        # each joint is named after its body
        bodies = {j.split("#")[0] for j in built.vertices}
        assert bodies == {"b0", "b1"}
        assert sum(j.startswith("b0#") for j in built.vertices) == 4

    def test_result_is_valid_bar_joint(self):
        rng = random.Random(2)
        for _ in range(10):
            g = random_body_bar_multigraph(rng, 2, 1)
            built = build_body_bar_gain_graph(g, 2)
            assert built.mode == "bar-joint"
            assert [e.id for e in built.edges if e.id.startswith("bar:")] == [f"bar:{e.id}" for e in g.edges]

    def test_gain_rank_preserved(self):
        g = one_body([(1, 0), (0, 2)])
        built = build_body_bar_gain_graph(g, 3)
        assert gain_rank(built) == gain_rank(g) == 2

    def test_rejects_bar_joint_mode(self):
        g = gain_graph(0, ["a", "b"], [("a", "b", ())])
        with pytest.raises(ValueError):
            build_body_bar_gain_graph(g, 2)

    def test_rejects_identity_loop(self):
        # an identity-gain loop cannot reach build_body_bar_gain_graph: the
        # multigraph constructor already rejects it
        with pytest.raises(ValueError, match="identity gain"):
            gain_graph(2, ["b0"], [("b0", "b0", (0, 0))], mode=BODY_BAR)


class TestBarLess:
    @pytest.mark.parametrize(
        "d,k,n", [(d, k, n) for d in (2, 3) for k in range(d + 1) for n in (1, 2, 3)]
    )
    def test_verdict_matches_count_rank(self, d, k, n):
        # with no bar to delete, bar-redundancy is rigidity of the bodies alone
        g = gain_graph(k, [f"b{i}" for i in range(n)], [], mode=BODY_BAR)
        rigid = count_rank(g, d).rigid
        assert is_bar_redundantly_rigid(g, d) == (rigid, [])
        assert (decide_body_bar_global(g, d).status == GLOBALLY_RIGID) == rigid


class TestCountRank:
    def test_one_body_one_loop_rigid(self):
        rep = count_rank(one_body([(1, 0)]), 2)
        # C(3,2)*1 - 2 - C(0,2) = 1
        assert rep.target == 1
        assert rep.rigid and rep.matroid_rank == 1
        assert rep.basis == ("e0",)
        assert rep.violating_subset is None

    def test_one_body_no_loops_not_rigid(self):
        rep = count_rank(one_body([]), 2)
        assert rep.target == 1 and rep.matroid_rank == 0
        assert not rep.rigid and rep.basis is None

    def test_two_bodies_three_bars_rigid(self):
        rep = count_rank(two_bodies([(), (), ()]), 2)
        # C(3,2)*2 - 2 - C(2,2) = 3
        assert rep.target == 3 and rep.rigid
        assert rep.basis is not None and len(rep.basis) == 3

    def test_extra_parallel_bar_still_rigid(self):
        # a fourth parallel bar is dependent but cannot lower the rank
        rep = count_rank(two_bodies([(), (), (), ()]), 2)
        assert rep.rigid and rep.matroid_rank == rep.target == 3

    def test_overcount_reports_violating_subset(self):
        # 4 bars piled between b0 and b1 while b2 hangs free: not rigid,
        # and the 4-bar set exceeds its own count bound
        g = gain_graph(
            0,
            ["b0", "b1", "b2"],
            [("b0", "b1", ()) for _ in range(4)],
            mode=BODY_BAR,
        )
        rep = count_rank(g, 2)
        assert not rep.rigid
        assert rep.matroid_rank == 3
        assert rep.violating_subset == ("e0", "e1", "e2", "e3")

    def test_violating_subset_ties_go_to_smallest_mask(self):
        # two loops on each body: each pair has excess 1 and two bars, and
        # the pair with the smaller bar mask is reported
        g = gain_graph(
            1,
            ["b0", "b1"],
            [("b1", "b1", (1,)), ("b1", "b1", (3,)), ("b0", "b0", (1,)), ("b0", "b0", (2,))],
            mode=BODY_BAR,
        )
        rep = count_rank(g, 2)
        assert not rep.rigid and rep.matroid_rank == 2
        assert rep.violating_subset == ("e0", "e1")

    def test_loop_pair_full_lattice(self):
        rep = count_rank(one_body([(1, 0), (0, 1)]), 2)
        # target C(3,2) - 2 - 0 = 1, so a single loop already suffices
        assert rep.rigid and rep.target == 1

    def test_edge_cap(self):
        g = two_bodies([()] * 5)
        with pytest.raises(ValueError):
            count_rank(g, 2, edge_cap=4)

    def test_matches_geometric_rigidity(self):
        rng = random.Random(31)
        for _ in range(25):
            d = rng.choice([2, 3])
            k = rng.randint(0, d)
            g = random_body_bar_multigraph(rng, d, k)
            built = build_body_bar_gain_graph(g, d)
            combinatorial = count_rank(g, d).rigid
            geometric = is_rigid(built, d, seed=rng.randint(0, 999)).rigid
            assert combinatorial == geometric

    def test_independence_is_hereditary(self):
        # checks the oracle's independence, which the property below holds
        # `count_rank` to
        g = two_bodies([(), (), (), ()])
        matroid = CountMatroid(g, 2)
        for mask in range(1, 1 << 4):
            if matroid.independent(mask):
                rest = mask
                while rest:
                    bit = rest & -rest
                    assert matroid.independent(mask ^ bit)
                    rest ^= bit


@st.composite
def count_cases(draw):
    """(d, multigraph) with 1-3 bodies and at most 10 bars, about a third of
    them copies of an earlier bar (equal-gain parallels, or repeated loops);
    loops get a nonzero gain."""
    d = draw(st.integers(1, 3))
    k = draw(st.integers(0, d))
    bodies = [f"b{i}" for i in range(draw(st.integers(1, 3)))]
    edges = []
    for i in range(draw(st.integers(0, 10))):
        if edges and draw(st.integers(0, 2)) == 0:
            e = draw(st.sampled_from(edges))
            u, v, gain = e.tail, e.head, e.gain
        else:
            u = draw(st.sampled_from(bodies))
            v = draw(st.sampled_from(bodies))
            gain = tuple(draw(st.lists(st.integers(-2, 2), min_size=k, max_size=k)))
        if u != v or any(gain):
            edges.append(GainEdge(f"e{i}", u, v, gain))
    return d, GainGraph(k, tuple(bodies), tuple(edges), BODY_BAR)


@settings(deadline=None)
@given(count_cases())
def test_count_rank_matches_enumeration(case):
    d, g = case
    got = count_rank(g, d)
    want = enumerated_count_rank(g, d)
    assert (got.rigid, got.target, got.matroid_rank) == (want.rigid, want.target, want.matroid_rank)
    assert got.basis == want.basis
    assert got.violating_subset == want.violating_subset
    if got.basis is not None:
        # no nonempty subset of the basis breaks the count
        matroid = CountMatroid(g, d)
        index = {e.id: i for i, e in enumerate(g.edges)}
        basis = sum(1 << index[e] for e in got.basis)
        sub = basis
        while sub:
            assert not matroid.violates(sub), sub
            sub = (sub - 1) & basis


class TestBarRedundancy:
    def test_two_loops_redundant(self):
        ok, details = is_bar_redundantly_rigid(one_body([(1, 0), (0, 1)]), 2)
        assert ok and len(details) == 2
        assert all(x["rigid"] for x in details)

    def test_single_loop_not_redundant(self):
        ok, details = is_bar_redundantly_rigid(one_body([(1, 0)]), 2)
        assert not ok
        assert details[0]["edge"] == "e0" and not details[0]["rigid"]

    def test_two_bodies_one_bar_not_redundant(self):
        ok, _ = is_bar_redundantly_rigid(two_bodies([()]), 2)
        assert not ok


class TestScrewMatrix:
    """The screw-coordinate decision against the joint expansion it replaced."""

    @pytest.mark.parametrize("d,k", [(d, k) for d in (1, 2, 3) for k in range(d + 1)])
    def test_bar_deletions_match_expansion(self, d, k):
        rng = random.Random(10 * d + k)
        lattices = (None, identity_lattice(d, k), random_rational_lattice(rng, d, k))
        loops = [tuple(int(i == j) for i in range(k)) for j in range(k)]
        graphs = [random_body_bar_multigraph(rng, d, k) for _ in range(6)] + [
            gain_graph(k, ["b0"], [], mode=BODY_BAR),
            gain_graph(k, ["b0", "b1"], [], mode=BODY_BAR),
            gain_graph(k, ["b0"], [("b0", "b0", g) for g in loops], mode=BODY_BAR),
            # equal-gain parallel bars, plus a loop when there is a gain
            gain_graph(
                k,
                ["b0", "b1"],
                [("b0", "b1", (0,) * k)] * (d + 1) + [("b1", "b1", g) for g in loops[:1]],
                mode=BODY_BAR,
            ),
        ]
        for g in graphs:
            for lattice in lattices:
                seed = rng.randint(0, 999)
                got = is_bar_redundantly_rigid(g, d, lattice=lattice, seed=seed)
                assert got == expansion_bar_redundancy(g, d, lattice, seed=seed), (g, lattice)

    def test_rank_never_exceeds_target(self):
        rng = random.Random(5)
        for _ in range(30):
            d = rng.randint(1, 3)
            k = rng.randint(0, d)
            g = random_body_bar_multigraph(rng, d, k)
            target = comb(d + 1, 2) * len(g.vertices) - d - comb(d - k, 2)
            assert body_bar_rank(g, d, seed=rng.randint(0, 999)) <= min(len(g.edges), target)

    def test_gain_bound(self):
        g = two_bodies([(2**60,), (0,)], k=1)
        with pytest.raises(ValueError, match="2\\^60"):
            body_bar_rank(g, 2)
        with pytest.raises(ValueError, match="2\\^60"):
            decide_body_bar_global(g, 2)

    @pytest.mark.parametrize("gains", [[(2**60,)], [(2**60,), (0,)], [(0,), (-(2**60),)]])
    def test_gain_bound_on_whole_multigraph(self, gains):
        # with one bar, no bar deletion keeps the large gain; it is refused all the same
        g = two_bodies(gains, k=1)
        for decide in (body_bar_rank, is_bar_redundantly_rigid, decide_body_bar_global):
            with pytest.raises(ValueError, match="2\\^60"):
                decide(g, 2)

    def test_gain_bound_leaves_exact_paths(self):
        g = two_bodies([(2**60,)], k=1)
        assert count_rank(g, 2).matroid_rank == 1
        assert build_body_bar_gain_graph(g, 2).edge("bar:e0").gain == (2**60,)


@st.composite
def body_bar_cases(draw):
    """(d, multigraph) with 1-3 bodies and at most 8 bars; loops get a
    nonzero gain, and equal-gain parallel bars are allowed."""
    d = draw(st.integers(1, 3))
    k = draw(st.integers(0, d))
    bodies = [f"b{i}" for i in range(draw(st.integers(1, 3)))]
    edges = []
    for i in range(draw(st.integers(0, 8))):
        u = draw(st.sampled_from(bodies))
        v = draw(st.sampled_from(bodies))
        gain = tuple(draw(st.lists(st.integers(-2, 2), min_size=k, max_size=k)))
        if u != v or any(gain):
            edges.append(GainEdge(f"e{i}", u, v, gain))
    return d, GainGraph(k, tuple(bodies), tuple(edges), BODY_BAR)


def count_status(g, d: int) -> str:
    """The global status that `count_rank` gives: every single-bar deletion
    (or, with no bars, the graph itself) rigid by counts, and gain rank d
    when k = d."""
    remaining = [g.delete_edge(e.id) for e in g.edges] or [g]
    if not all(count_rank(h, d).rigid for h in remaining):
        return NOT_GLOBALLY_RIGID
    if g.k == d and gain_rank(g) != d:
        return NOT_GLOBALLY_RIGID
    return GLOBALLY_RIGID


@settings(deadline=None)
@given(body_bar_cases(), st.data())
def test_status_matches_counts_and_is_invariant(case, data):
    d, g = case
    seed = data.draw(st.integers(0, 999))
    status = decide_body_bar_global(g, d, seed=seed).status
    assert status == count_status(g, d)
    v = data.draw(st.sampled_from(g.vertices))
    moved = switch(g, v, data.draw(st.lists(st.integers(-3, 3), min_size=g.k, max_size=g.k)))
    if g.edges:
        moved = reverse_edge(moved, data.draw(st.sampled_from(g.edges)).id)
    assert decide_body_bar_global(moved, d, seed=seed).status == status


class TestGlobalDecision:
    def test_two_independent_loops_globally_rigid(self):
        v = decide_body_bar_global(one_body([(1, 0), (0, 1)]), 2)
        assert v.status == GLOBALLY_RIGID
        assert v.reason == "bar-redundant-and-rank"
        assert v.detail["gain_rank"] == 2

    def test_collinear_loops_fail_gain_rank(self):
        v = decide_body_bar_global(one_body([(1, 0), (2, 0)]), 2)
        assert v.status == NOT_GLOBALLY_RIGID
        assert v.reason == "gain-rank-below-k"
        assert v.detail["gain_rank"] == 1

    def test_three_parallel_bars_not_redundant(self):
        v = decide_body_bar_global(two_bodies([(), (), ()]), 2)
        assert v.status == NOT_GLOBALLY_RIGID
        assert v.reason == "not-bar-redundantly-rigid"

    def test_never_unknown(self):
        rng = random.Random(47)
        for _ in range(15):
            d = rng.choice([2, 3])
            k = rng.randint(0, d)
            g = random_body_bar_multigraph(rng, d, k)
            v = decide_body_bar_global(g, d, seed=rng.randint(0, 999))
            assert v.status in (GLOBALLY_RIGID, NOT_GLOBALLY_RIGID)

    def test_partial_period_skips_rank_check(self):
        # k=1 < d=2: gain rank is irrelevant, redundancy alone decides
        g = gain_graph(
            1, ["b0"], [("b0", "b0", (1,)), ("b0", "b0", (2,))], mode=BODY_BAR
        )
        v = decide_body_bar_global(g, 2)
        assert v.status == GLOBALLY_RIGID
