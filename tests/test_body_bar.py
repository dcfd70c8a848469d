import random
from math import comb

import pytest

from perigid.body_bar import (
    build_body_bar_gain_graph,
    count_rank,
    decide_body_bar_global,
    is_bar_redundantly_rigid,
)
from perigid.gain_graph import BODY_BAR, gain_graph, gain_rank
from perigid.rigidity import GLOBALLY_RIGID, NOT_GLOBALLY_RIGID, is_rigid
from support import random_body_bar_multigraph


def one_body(loops, k=2):
    return gain_graph(k, ["b0"], [("b0", "b0", g) for g in loops], mode=BODY_BAR)


def two_bodies(gains, k=0):
    return gain_graph(k, ["b0", "b1"], [("b0", "b1", g) for g in gains], mode=BODY_BAR)


class TestBuild:
    def test_single_body_no_bars(self):
        built = build_body_bar_gain_graph(one_body([]), 2)
        assert len(built.graph.vertices) == 3  # d+1 core joints
        assert len(built.graph.edges) == comb(3, 2)
        assert all(e.gain == (0, 0) for e in built.graph.edges)

    def test_loop_gets_two_attachments(self):
        built = build_body_bar_gain_graph(one_body([(1, 0)]), 2)
        # 3 cores + 2 attachments, complete body graph + 1 bar
        assert len(built.graph.vertices) == 5
        assert len(built.graph.edges) == comb(5, 2) + 1
        bar = built.graph.edge(built.bar_edges["e0"])
        assert bar.gain == (1, 0)
        assert bar.tail != bar.head  # lifted loop is a genuine edge

    def test_two_bodies_one_bar(self):
        g = two_bodies([()])
        built = build_body_bar_gain_graph(g, 2)
        assert len(built.graph.vertices) == 2 * (3 + 1)
        assert len(built.graph.edges) == 2 * comb(4, 2) + 1
        assert set(built.bodies) == {"b0", "b1"}
        assert len(built.bodies["b0"]) == 4

    def test_result_is_valid_bar_joint(self):
        rng = random.Random(2)
        for _ in range(10):
            g = random_body_bar_multigraph(rng, 2, 1)
            built = build_body_bar_gain_graph(g, 2)
            assert built.graph.mode == "bar-joint"
            assert len(built.bar_edges) == len(g.edges)

    def test_gain_rank_preserved(self):
        g = one_body([(1, 0), (0, 2)])
        built = build_body_bar_gain_graph(g, 3)
        assert gain_rank(built.graph) == gain_rank(g) == 2

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

    def test_loop_pair_full_lattice(self):
        rep = count_rank(one_body([(1, 0), (0, 1)]), 2)
        # target C(3,2) - 2 - 0 = 1, so a single loop already suffices
        assert rep.rigid and rep.target == 1

    def test_edge_cap(self):
        g = two_bodies([()] * 5)
        with pytest.raises(ValueError):
            count_rank(g, 2, edge_cap=4)

    def test_k_mismatch_rejected(self):
        with pytest.raises(ValueError):
            count_rank(two_bodies([()]), 2, k=1)

    def test_matches_geometric_rigidity(self):
        rng = random.Random(31)
        for _ in range(25):
            d = rng.choice([2, 3])
            k = rng.randint(0, d)
            g = random_body_bar_multigraph(rng, d, k)
            built = build_body_bar_gain_graph(g, d)
            combinatorial = count_rank(g, d).rigid
            geometric = is_rigid(built.graph, d, k, seed=rng.randint(0, 999)).rigid
            assert combinatorial == geometric

    def test_independence_is_hereditary(self):
        from perigid.body_bar import _CountMatroid

        g = two_bodies([(), (), (), ()])
        matroid = _CountMatroid(g, 2)
        for mask in range(1, 1 << 4):
            if matroid.independent(mask):
                rest = mask
                while rest:
                    bit = rest & -rest
                    assert matroid.independent(mask ^ bit)
                    rest ^= bit


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
