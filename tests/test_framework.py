import random
import types
from fractions import Fraction
from math import comb

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import perigid
from perigid import framework
from perigid.framework import (
    Framework,
    Lattice,
    _rigidity_rank,
    _rigidity_rows,
    generic_rank,
    identity_lattice,
)
from perigid.gain_graph import gain_graph
from perigid.linalg import MOD_P, mod_rank, sparse_mod_rank
from support import (
    PinSpec,
    are_congruent,
    are_equivalent,
    bareiss_generic_rank,
    edge_measurements,
    fig2_flip_placement,
    fig2_framework,
    fig2_graph,
    lattice_image,
    minimally_rigid_graph,
    pinned_rigidity_matrix,
    random_bar_joint_graph,
    random_generic_framework,
    random_lattice,
    random_rational_lattice,
    rank,
    rigidity_matrix,
    triangle,
    zero_extend,
)


def sympy_rank(matrix):
    return sympy.Matrix(
        [[matrix.entry(i, j) for j in range(matrix.cols)] for i in range(matrix.rows)]
    ).rank()


PUBLIC_NAMES = {
    "CountReport", "CoveringWindow", "FlexPath", "Framework", "GainEdge", "GainGraph",
    "GlobalVerdict", "InvalidGainGraphError", "Lattice", "PathCertificate", "RigidityVerdict",
    "body_bar_rank", "build_body_bar_gain_graph", "build_flex_path", "count_rank",
    "covering_window", "decide_body_bar_global", "decide_global_rigidity", "gain_graph",
    "gain_rank", "generic_rank", "identity_lattice", "integer_rank", "is_bar_redundantly_rigid",
    "is_rigid", "is_vertex_redundantly_rigid", "reverse_edge", "sample_path", "switch",
    "verify_path",
}


def test_public_names():
    # the Fraction oracles live in tests/support.py; none of them is public
    names = {
        n for n in dir(perigid) if not n.startswith("_") and not isinstance(getattr(perigid, n), types.ModuleType)
    }
    assert names == PUBLIC_NAMES
    assert not hasattr(perigid.Lattice, "image")


class TestLattice:
    def test_nonsingular_required(self):
        with pytest.raises(ValueError):
            Lattice(2, 2, ((Fraction(1), Fraction(2)), (Fraction(2), Fraction(4))))

    def test_image(self):
        lat = identity_lattice(2, 2)
        assert lattice_image(lat, (3, -1)) == (Fraction(3), Fraction(-1))

    def test_k_zero(self):
        lat = identity_lattice(3, 0)
        assert lattice_image(lat, ()) == (0, 0, 0)


class TestMeasurements:
    def test_three_four_five(self):
        g = gain_graph(0, ["a", "b"], [("a", "b", ())])
        fw = Framework(
            g,
            identity_lattice(2, 0),
            {"a": (Fraction(0), Fraction(0)), "b": (Fraction(3), Fraction(4))},
        )
        assert edge_measurements(fw) == [25]

    def test_gain_shifts_endpoint(self):
        g = gain_graph(2, ["a", "b"], [("a", "b", (1, 0))])
        fw = Framework(
            g,
            identity_lattice(2, 2),
            {"a": (Fraction(0), Fraction(0)), "b": (Fraction(3), Fraction(4))},
        )
        # ||(0,0) - ((3,4) + (1,0))||^2
        assert edge_measurements(fw) == [32]

    def test_no_edges(self):
        g = gain_graph(0, ["a"], [])
        fw = Framework(g, identity_lattice(2, 0), {"a": (Fraction(1), Fraction(2))})
        assert edge_measurements(fw) == []

    def test_translation_invariant(self):
        fw = fig2_framework()
        shifted = {
            v: (p[0] + Fraction(7, 3), p[1] - Fraction(1, 9))
            for v, p in fw.placement.items()
        }
        moved = Framework(fw.graph, fw.lattice, shifted)
        assert edge_measurements(moved) == edge_measurements(fw)


class TestRigidityMatrix:
    def test_single_edge_row(self):
        g = gain_graph(0, ["a", "b"], [("a", "b", ())])
        fw = Framework(
            g,
            identity_lattice(2, 0),
            {"a": (Fraction(0), Fraction(0)), "b": (Fraction(1), Fraction(0))},
        )
        m = rigidity_matrix(fw)
        assert (m.rows, m.cols) == (1, 4)
        assert [m.entry(0, j) for j in range(4)] == [-1, 0, 1, 0]

    def test_fig2_rank_two_against_sympy(self):
        g = fig2_graph()
        for seed in (1, 2, 3):
            fw = random_generic_framework(g, 2, seed=seed)
            m = rigidity_matrix(fw)
            assert rank(m) == sympy_rank(m) == 2

    def test_empty_edge_set(self):
        g = gain_graph(0, ["a", "b"], [])
        fw = random_generic_framework(g, 2, seed=0)
        m = rigidity_matrix(fw)
        assert (m.rows, m.cols) == (0, 4)
        assert rank(m) == 0


class TestPinning:
    def test_pin_counts_d2_k2(self):
        spec = PinSpec.default(fig2_graph(), 2, 2)
        assert spec.counts == (2,)
        assert spec.total() == 2

    def test_pin_counts_d3_k1(self):
        g = gain_graph(1, ["a", "b", "c"], [("a", "b", (0,))])
        spec = PinSpec.default(g, 3, 1)
        # d + C(d-k, 2) = 4 pins: 3 at the first vertex, 1 at the second
        assert spec.counts == (3, 1)
        assert spec.total() == 3 + comb(2, 2)

    def test_pin_counts_classical(self):
        spec = PinSpec.default(triangle(), 2, 0)
        assert spec.counts == (2, 1)

    def test_too_few_vertices(self):
        g = gain_graph(0, ["a"], [])
        with pytest.raises(ValueError):
            PinSpec.default(g, 3, 0)

    @pytest.mark.parametrize("seed", range(8))
    def test_rank_identity_sample(self, seed):
        rng = random.Random(seed)
        d = rng.choice([1, 2, 3])
        k = rng.randint(0, d)
        n = rng.randint(max(d - k, 1), 6)
        g = random_bar_joint_graph(rng, k, n, rng.randint(0, 8))
        fw = random_generic_framework(g, d, seed=rng.randint(0, 10**9))
        unpinned = rank(rigidity_matrix(fw))
        pinned = rank(pinned_rigidity_matrix(fw))
        assert pinned == unpinned + d + comb(d - k, 2)


class TestGenericSampling:
    def test_deterministic(self):
        g = fig2_graph()
        a = random_generic_framework(g, 2, seed=17)
        b = random_generic_framework(g, 2, seed=17)
        assert a.placement == b.placement
        assert a.lattice == b.lattice

    def test_k_zero_lattice_empty(self):
        g = triangle()
        fw = random_generic_framework(g, 2, seed=0)
        assert fw.lattice.k == 0
        assert fw.lattice.columns == ()

    def test_sampled_lattice_nonsingular(self):
        g = fig2_graph()
        for seed in range(5):
            fw = random_generic_framework(g, 2, seed=seed)
            # Lattice construction re-validates column rank
            assert fw.lattice.k == 2

    def test_dependent_lattice_draw_is_redrawn(self):
        class Draws:
            def __init__(self, values):
                self.values = iter(values)

            def randint(self, lo, hi):
                return next(self.values)

        # columns (1,2), (2,4) are dependent; the next draw (1,2), (3,4) is kept
        lat = random_lattice(Draws([1, 2, 2, 4, 1, 2, 3, 4]), 2, 2)
        assert lat.columns == ((1, 2), (3, 4))

    def test_k_above_d_rejected(self):
        with pytest.raises(ValueError):
            random_generic_framework(gain_graph(3, ["a"], []), 2)


class TestGenericRank:
    def test_triangle(self):
        assert generic_rank(triangle(), 2) == 3

    def test_fig2(self):
        assert generic_rank(fig2_graph(), 2) == 2

    def test_no_edges(self):
        g = gain_graph(0, ["a", "b"], [])
        assert generic_rank(g, 3) == 0

    def test_bounded(self):
        rng = random.Random(13)
        for _ in range(5):
            d = rng.choice([2, 3])
            k = rng.randint(0, d)
            g = random_bar_joint_graph(rng, k, d + 1 + rng.randint(0, 2), 10)
            r = generic_rank(g, d, seed=rng.randint(0, 999))
            cap = d * len(g.vertices) - d - comb(d - k, 2)
            assert r <= min(len(g.edges), cap)

    @pytest.mark.parametrize("d,k", [(d, k) for d in (2, 3) for k in range(d + 1)])
    def test_matches_bareiss_reference(self, d, k):
        rng = random.Random(100 * d + k)
        rational = random_rational_lattice(rng, d, k)
        for _ in range(4):
            n = rng.randint(1, 6)
            g = random_bar_joint_graph(rng, k, n, rng.randint(0, d * n))
            for lattice in (None, identity_lattice(d, k), rational):
                seed = rng.randint(0, 999)
                assert generic_rank(g, d, lattice=lattice, seed=seed) == bareiss_generic_rank(
                    g, d, lattice, seed=seed
                ), (g, lattice)

    def test_lattice_denominator_divisible_by_p_rejected(self):
        g = gain_graph(1, ["a", "b"], [("a", "b", (0,)), ("a", "b", (1,))])
        lattice = Lattice(2, 1, ((Fraction(1, MOD_P), Fraction(1)),))
        with pytest.raises(ValueError, match="denominator"):
            generic_rank(g, 2, lattice=lattice)


    # gains 0 and p differ but coincide mod p, so that pair would read as
    # flexible; below 2^60 in absolute value distinct gains stay distinct
    @pytest.mark.parametrize("gain", [MOD_P, 2**60, -(2**60)])
    def test_gain_at_or_above_bound_rejected(self, gain):
        g = gain_graph(1, ["a", "b"], [("a", "b", (0,)), ("a", "b", (gain,))])
        with pytest.raises(ValueError, match="2\\^60"):
            generic_rank(g, 2)

    @pytest.mark.parametrize("gain", [2**60 - 1, 1 - 2**60])
    def test_gain_just_below_bound_accepted(self, gain):
        g = gain_graph(1, ["a", "b"], [("a", "b", (0,)), ("a", "b", (gain,))])
        assert generic_rank(g, 2) == 2


@st.composite
def peel_cases(draw):
    """(d, graph, lattice, seed): d in 1..3, k in 0..d, a `random_bar_joint_graph`
    core on 1-6 vertex orbits with at most 18 edges, with a `zero_extend` tail
    of 0-4 vertices, and no lattice, the identity or a rational one."""
    d = draw(st.integers(1, 3))
    k = draw(st.integers(0, d))
    rng = random.Random(draw(st.integers(0, 10**6)))
    core = random_bar_joint_graph(rng, k, draw(st.integers(1, 6)), draw(st.integers(0, 18)))
    graph = zero_extend(rng, core, d, draw(st.integers(0, 4)))
    lattice = draw(st.sampled_from([None, identity_lattice(d, k), random_rational_lattice(rng, d, k)]))
    return d, graph, lattice, draw(st.integers(0, 999))


def stress_rank(stresses, m):
    return mod_rank([[y.get(i, 0) for i in range(m)] for y in stresses], m)


@settings(deadline=None, max_examples=150)
@given(peel_cases())
def test_peeling_keeps_the_rank_and_the_stresses(case):
    # the same matrix at the same sample: the same rank, and stresses that
    # span the left kernel of the whole matrix
    d, g, lattice, seed = case
    full, whole = sparse_mod_rank(_rigidity_rows(g, d, lattice, seed), stresses=True)
    rank, stresses = _rigidity_rank(g, d, lattice, seed, stresses=True)
    assert rank == full == _rigidity_rank(g, d, lattice, seed)[0]
    m = len(g.edges)
    assert stress_rank(stresses, m) == stress_rank(whole, m) == stress_rank(stresses + whole, m) == m - full


def test_a_vertex_with_a_deficient_block_stays_in_the_core():
    # x's three edges to w0 have collinear gains 0, 1, 2, so on x's three
    # columns they have rank 2: x must not peel, even once w1 has
    g = gain_graph(
        1,
        ["w0", "w1", "x"],
        [("w0", "w1", (0,)), ("w0", "w1", (1,)), ("x", "w0", (0,)), ("x", "w0", (1,)), ("x", "w0", (2,))],
    )
    rank, stresses = _rigidity_rank(g, 3, None, 0, stresses=True)
    assert rank == 4
    assert [set(y) for y in stresses] == [{2, 3, 4}]


def test_a_minimally_rigid_graph_peels_to_an_empty_core(monkeypatch):
    cores = []

    def spy(rows, **kwargs):
        cores.append(len(rows))
        return sparse_mod_rank(rows, **kwargs)

    monkeypatch.setattr(framework, "sparse_mod_rank", spy)
    for d in (1, 2, 3):
        for k in range(d + 1):
            g = minimally_rigid_graph(random.Random(10 * d + k), d, k, 12)
            assert generic_rank(g, d) == len(g.edges)
    assert cores == [0] * 9


class TestEquivalenceCongruence:
    def test_identity(self):
        fw = fig2_framework()
        assert are_equivalent(fw, fw.placement)
        assert are_congruent(fw, fw.placement)

    def test_translation(self):
        fw = fig2_framework()
        q = {
            v: (p[0] + Fraction(5, 2), p[1] + Fraction(1, 3))
            for v, p in fw.placement.items()
        }
        assert are_equivalent(fw, q)
        assert are_congruent(fw, q)

    def test_fig2_flip_equivalent_not_congruent(self):
        fw = fig2_framework()
        q = fig2_flip_placement()
        assert are_equivalent(fw, q)
        assert not are_congruent(fw, q)

    def test_rotation_congruent_at_k0(self):
        g = triangle()
        p = {
            "a": (Fraction(0), Fraction(0)),
            "b": (Fraction(3), Fraction(1)),
            "c": (Fraction(1), Fraction(2)),
        }
        fw = Framework(g, identity_lattice(2, 0), p)
        # rational rotation by the 3-4-5 angle: (x,y) -> ((3x-4y)/5, (4x+3y)/5)
        q = {
            v: ((3 * x - 4 * y) / 5, (4 * x + 3 * y) / 5) for v, (x, y) in p.items()
        }
        assert are_equivalent(fw, q)
        assert are_congruent(fw, q)

    def test_congruent_implies_equivalent_random(self):
        rng = random.Random(23)
        for _ in range(10):
            g = random_bar_joint_graph(rng, 2, 3, 5)
            fw = random_generic_framework(g, 2, seed=rng.randint(0, 999))
            q = {
                v: tuple(c + Fraction(rng.randint(-5, 5)) for c in p)
                for v, p in fw.placement.items()
            }
            if are_congruent(fw, q):
                assert are_equivalent(fw, q)

    def test_dimension_mismatch(self):
        fw = fig2_framework()
        with pytest.raises(ValueError):
            are_equivalent(fw, {"a": (Fraction(0),), "b": (Fraction(1),)})
