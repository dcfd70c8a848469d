import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from perigid.framework import Framework, identity_lattice
from perigid.gain_graph import gain_graph
from perigid.motion import (
    CONSTANT,
    DECREASING,
    build_flex_path,
    sample_path,
    verify_path,
)
from perigid.rigidity import is_rigid
from support import (
    are_congruent,
    are_equivalent,
    edge_measurements,
    fig2_flip_placement,
    fig2_framework,
    lattice_image,
    pair_witness,
    random_bar_joint_graph,
    random_rational_lattice,
)


class TestBuild:
    def test_midpoint_and_half_difference(self):
        g = gain_graph(0, ["a"], [])
        fw = Framework(g, identity_lattice(2, 0), {"a": (Fraction(0), Fraction(0))})
        path = build_flex_path(fw, {"a": (Fraction(1), Fraction(0))})
        assert path.midpoint["a"] == (Fraction(1, 2), Fraction(0))
        assert path.half_difference["a"] == (Fraction(-1, 2), Fraction(0))

    def test_same_placement_gives_zero_difference(self):
        fw = fig2_framework()
        path = build_flex_path(fw, fw.placement)
        assert all(all(x == 0 for x in b) for b in path.half_difference.values())

    def test_bad_target_placement(self):
        fw = fig2_framework()
        with pytest.raises(ValueError):
            build_flex_path(fw, {"a": (Fraction(0), Fraction(0))})  # b missing


class TestWitness:
    def test_zero_difference_is_constant(self):
        fw = fig2_framework()
        path = build_flex_path(fw, fw.placement)
        w = pair_witness(path, "a", "b", (0, 0))
        assert w.inner_product == 0 and w.direction == CONSTANT

    def test_sign_convention(self):
        # a fixed, b moves from (2,0) to (1,0): the gap shrinks from 2 to 1,
        # so the witness is positive and the direction is "decreasing"
        g = gain_graph(0, ["a", "b"], [])
        fw = Framework(
            g,
            identity_lattice(2, 0),
            {"a": (Fraction(0), Fraction(0)), "b": (Fraction(2), Fraction(0))},
        )
        path = build_flex_path(fw, {"a": (Fraction(0), Fraction(0)), "b": (Fraction(1), Fraction(0))})
        w = pair_witness(path, "a", "b", ())
        assert w.inner_product == Fraction(3, 4)
        assert w.direction == DECREASING
        assert pair_witness(path, "b", "a", ()).direction == DECREASING

    def test_gain_shifts_witness(self):
        fw = fig2_framework()
        path = build_flex_path(fw, fig2_flip_placement())
        w0 = pair_witness(path, "a", "b", (0, 0))
        w1 = pair_witness(path, "a", "b", (1, 0))
        # the two edge gains give the same witness here: the shift (1,0) is
        # orthogonal to the vertical half-difference
        assert w0.inner_product == w1.inner_product == 0


class TestCertificate:
    def test_fig2_flip(self):
        fw = fig2_framework()
        q = fig2_flip_placement()
        path = build_flex_path(fw, q)
        cert = verify_path(path, fw, q)
        assert cert.endpoints_exact
        assert cert.all_edges_preserved
        assert cert.flexibility  # some non-edge pair strictly changes length
        moving = [w for w in cert.pair_witnesses if w.direction != CONSTANT]
        assert moving and all(w.gamma == (0, 1) for w in moving)

    def test_identity_path_not_flexible(self):
        fw = fig2_framework()
        path = build_flex_path(fw, fw.placement)
        cert = verify_path(path, fw, fw.placement)
        assert cert.all_edges_preserved and cert.all_pairs_constant
        assert not cert.flexibility

    def test_non_equivalent_target_breaks_an_edge(self):
        fw = fig2_framework()
        q = {"a": (Fraction(0), Fraction(0)), "b": (Fraction(1), Fraction(1))}
        path = build_flex_path(fw, q)
        cert = verify_path(path, fw, q)
        assert not cert.all_edges_preserved

    def test_pair_set_shape(self):
        fw = fig2_framework()
        q = fig2_flip_placement()
        cert = verify_path(build_flex_path(fw, q), fw, q)
        # one unordered vertex pair x (zero + 2 generators)
        assert len(cert.pair_witnesses) == 3
        assert len(cert.edge_witnesses) == 2

    def test_to_json_roundtrippable(self):
        import json

        fw = fig2_framework()
        q = fig2_flip_placement()
        cert = verify_path(build_flex_path(fw, q), fw, q)
        blob = json.dumps(cert.to_json(), sort_keys=True)
        assert '"flexibility": true' in blob

    def test_mismatched_framework_rejected(self):
        fw = fig2_framework()
        path = build_flex_path(fw, fw.placement)
        g = gain_graph(0, ["a", "b"], [])
        other = Framework(
            g,
            identity_lattice(2, 0),
            {"a": (Fraction(0), Fraction(0)), "b": (Fraction(1), Fraction(0))},
        )
        with pytest.raises(ValueError):
            verify_path(path, other, other.placement)


class TestSampling:
    def test_endpoints_and_midpoint(self):
        fw = fig2_framework()
        q = fig2_flip_placement()
        path = build_flex_path(fw, q)
        rows = sample_path(path, samples=3, window=0)
        ts = sorted({r["t"] for r in rows})
        assert ts == [0.0, 0.5, 1.0]
        start = {r["vertex"]: r["coords"] for r in rows if r["t"] == 0.0}
        end = {r["vertex"]: r["coords"] for r in rows if r["t"] == 1.0}
        for v in ("a", "b"):
            p = [float(x) for x in fw.placement[v]]
            assert start[v][:2] == pytest.approx(p, abs=1e-12)
            assert start[v][2:] == pytest.approx([0, 0], abs=1e-12)
            assert end[v][:2] == pytest.approx([float(x) for x in q[v]], abs=1e-12)

    def test_squared_distance_affine_in_cosine(self):
        fw = fig2_framework()
        q = fig2_flip_placement()
        path = build_flex_path(fw, q)
        rows = sample_path(path, samples=3, window=0)

        def sq(t):
            at = {r["vertex"]: r["coords"] for r in rows if r["t"] == t}
            return sum((x - y) ** 2 for x, y in zip(at["a"], at["b"]))

        # cos(pi/2) = 0 is the average of cos(0) and cos(pi)
        assert sq(0.5) == pytest.approx((sq(0.0) + sq(1.0)) / 2, abs=1e-6)

    def test_window_orbit_count(self):
        fw = fig2_framework()
        path = build_flex_path(fw, fw.placement)
        rows = sample_path(path, samples=2, window=1)
        assert len(rows) == 2 * 2 * 3**2

    def test_too_few_samples(self):
        fw = fig2_framework()
        path = build_flex_path(fw, fw.placement)
        with pytest.raises(ValueError):
            sample_path(path, samples=1)


class TestSmallGraphCheck:
    def test_single_orbit(self):
        g = gain_graph(2, ["a"], [])
        fw = Framework(g, identity_lattice(2, 2), {"a": (Fraction(0), Fraction(0))})
        assert is_rigid(fw.graph, fw.d, fw.lattice).rigid

    def test_k0_edge(self):
        g = gain_graph(0, ["a", "b"], [("a", "b", ())])
        fw = Framework(
            g,
            identity_lattice(2, 0),
            {"a": (Fraction(0), Fraction(0)), "b": (Fraction(1), Fraction(0))},
        )
        assert is_rigid(fw.graph, fw.d, fw.lattice).rigid

    def test_flip_preserves_edges_numerically(self):
        # the motion from the flip certificate really keeps the bar lengths
        fw = fig2_framework()
        q = fig2_flip_placement()
        path = build_flex_path(fw, q)
        rows = sample_path(path, samples=5, window=0)
        base = [float(m) for m in edge_measurements(fw)]
        for t in sorted({r["t"] for r in rows}):
            at = {r["vertex"]: r["coords"] for r in rows if r["t"] == t}
            for e, expect in zip(fw.graph.edges, base):
                shift = [float(x) for x in lattice_image(fw.lattice, e.gain)] + [0.0] * fw.d
                dist = sum(
                    (at[e.tail][i] - at[e.head][i] - shift[i]) ** 2
                    for i in range(2 * fw.d)
                )
                assert dist == pytest.approx(expect, abs=1e-9)


@st.composite
def flex_cases(draw):
    """(framework, q): d in 1..3, k in 0..d, a rational lattice, 1-5 vertex
    orbits and rational p and q; q keeps, reflects or moves each orbit."""
    d = draw(st.integers(1, 3))
    k = draw(st.integers(0, d))
    rng = random.Random(draw(st.integers(0, 10**6)))
    n = draw(st.integers(1, 5))
    graph = random_bar_joint_graph(rng, k, n, draw(st.integers(0, 2 * n)))
    coord = st.fractions(min_value=-9, max_value=9, max_denominator=12)
    p, q = {}, {}
    for v in graph.vertices:
        p[v] = tuple(draw(st.lists(coord, min_size=d, max_size=d)))
        q[v] = draw(
            st.sampled_from([p[v], p[v][:-1] + (-p[v][-1],)])
            | st.lists(coord, min_size=d, max_size=d).map(tuple)
        )
    return Framework(graph, random_rational_lattice(rng, d, k), p), q


@settings(deadline=None, max_examples=30)
@given(flex_cases())
def test_witnesses_match_fraction_oracle(case):
    fw, q = case
    path = build_flex_path(fw, q)
    cert = verify_path(path, fw, q)
    for eid, w in cert.edge_witnesses:
        e = fw.graph.edge(eid)
        assert w == pair_witness(path, e.tail, e.head, e.gain)
    for w in cert.pair_witnesses:
        assert w == pair_witness(path, w.u, w.v, w.gamma)
    assert cert.flexibility == any(w.direction != CONSTANT for w in cert.pair_witnesses)


@st.composite
def oracle_cases(draw):
    """(framework, q): d in 1..3, k in 0..d, the identity or a rational
    lattice, 1-4 vertex orbits; q is p itself, a translate, a reflection or a
    perturbation of p, or any placement of an edgeless graph, which is
    equivalent to p but rarely congruent."""
    d = draw(st.integers(1, 3))
    k = draw(st.integers(0, d))
    rng = random.Random(draw(st.integers(0, 10**6)))
    n = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["same", "translate", "reflect", "perturb", "edgeless"]))
    graph = random_bar_joint_graph(rng, k, n, 0 if kind == "edgeless" else draw(st.integers(0, 2 * n)))
    lattice = identity_lattice(d, k) if draw(st.booleans()) else random_rational_lattice(rng, d, k)
    coord = st.fractions(min_value=-9, max_value=9, max_denominator=12)
    point = st.lists(coord, min_size=d, max_size=d).map(tuple)
    p = {v: draw(point) for v in graph.vertices}
    if kind == "same":
        q = dict(p)
    elif kind == "translate":
        shift = draw(point)
        q = {v: tuple(x + t for x, t in zip(a, shift)) for v, a in p.items()}
    elif kind == "reflect":
        q = {v: a[:-1] + (-a[-1],) for v, a in p.items()}
    elif kind == "perturb":
        q = {v: tuple(x + draw(coord) / 12 for x in a) for v, a in p.items()}
    else:
        q = {v: draw(point) for v in graph.vertices}
    return Framework(graph, lattice, p), q


@settings(deadline=None, max_examples=100)
@given(oracle_cases())
@example((fig2_framework(), fig2_flip_placement()))
def test_certificate_decides_equivalence_and_congruence(case):
    # the integer witnesses decide the same facts as the Fraction measurements
    fw, q = case
    cert = verify_path(build_flex_path(fw, q), fw, q)
    assert cert.all_edges_preserved == are_equivalent(fw, q)
    assert cert.all_pairs_constant == are_congruent(fw, q)


@settings(deadline=None, max_examples=15)
@given(flex_cases())
def test_samples_match_fraction_reference(case):
    # each coordinate is the float of the exact rational, as it always was
    fw, q = case
    path = build_flex_path(fw, q)
    for row in sample_path(path, samples=2, window=1):
        v, c, sn = row["vertex"], math.cos(math.pi * row["t"]), math.sin(math.pi * row["t"])
        lat = lattice_image(path.lattice, row["shift"])
        a, b = path.midpoint[v], path.half_difference[v]
        first = [float(a[i] + lat[i]) + c * float(b[i]) for i in range(path.lattice.d)]
        assert row["coords"] == first + [sn * float(x) for x in b]


@pytest.mark.parametrize(
    "p, q", [(10**400, 10**400), (27 * 10**307, 7 * 10**307)], ids=["no-float", "sum-overflows"]
)
def test_sampling_beyond_float_range_rejected(p, q):
    # 10^400 has no float; in the second case a = 1.7e308 and b = 1e308 have
    # floats, but the position a + b at t = 0 has none
    g = gain_graph(0, ["a"], [])
    fw = Framework(g, identity_lattice(1, 0), {"a": (Fraction(p),)})
    path = build_flex_path(fw, {"a": (Fraction(q),)})
    with pytest.raises(ValueError, match="float range"):
        sample_path(path, samples=2, window=0)
