"""The explicit flex between two equivalent periodic placements.

Two placements p, q of the same quotient graph with the same lattice lift to
a continuous motion in R^{2d}: each orbit moves along

    t |-> (a + cos(pi t) b,  sin(pi t) b),   a = (p+q)/2,  b = (p-q)/2,

with the lattice lifted to (L, 0^d).  The squared distance between any two
orbit paths is affine in cos(pi t), so every analytic claim about the motion
(endpoints, length preservation, monotonicity) reduces to exact rational
identities; floating point only ever appears in the trajectory sampler.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .framework import Framework, Placement, check_placement
from .gain_graph import GainGraph, GainVector, covering_window
from .record import Record

CONSTANT = "constant"
INCREASING = "increasing"
DECREASING = "decreasing"


class FlexPath(Record):
    # lattice: the original d-dimensional Lattice, lifted as (L, 0^d), which
    # fixes d and k; midpoint a = (p + q) / 2 and half_difference
    # b = (p - q) / 2 are Placements
    __slots__ = ("lattice", "midpoint", "half_difference")


class PairWitness(Record):
    __slots__ = ("u", "v", "gamma", "inner_product")  # a GainVector and a Fraction

    @property
    def direction(self) -> str:
        # squared distance = const + 2 cos(pi t) <da - L(gamma), db>; cos(pi t)
        # decreases on [0, 1]
        if self.inner_product == 0:
            return CONSTANT
        return DECREASING if self.inner_product > 0 else INCREASING


class PathCertificate(Record):
    # edge_witnesses: (edge id, PairWitness) pairs; pair_witnesses: the
    # PairWitnesses of the congruence-criterion pair set
    __slots__ = ("endpoints_exact", "edge_witnesses", "pair_witnesses", "flexibility")

    @property
    def all_edges_preserved(self) -> bool:
        return all(w.inner_product == 0 for _, w in self.edge_witnesses)

    @property
    def all_pairs_constant(self) -> bool:
        return all(w.direction == CONSTANT for w in self.pair_witnesses)

    def to_json(self) -> dict:
        return {
            "endpoints_exact": self.endpoints_exact,
            "all_edges_preserved": self.all_edges_preserved,
            "all_pairs_constant": self.all_pairs_constant,
            "flexibility": self.flexibility,
            "edges": [
                {
                    "edge": eid,
                    "preserved": w.inner_product == 0,
                    "witness": str(w.inner_product),
                }
                for eid, w in self.edge_witnesses
            ],
            "pairs": [
                {
                    "u": w.u,
                    "v": w.v,
                    "gamma": list(w.gamma),
                    "direction": w.direction,
                }
                for w in self.pair_witnesses
            ],
        }


def build_flex_path(framework: Framework, q: Placement) -> FlexPath:
    """Exact midpoint/half-difference data of the lifted motion from p to q."""
    check_placement(framework.graph, framework.d, q)
    p = framework.placement
    mid = {}
    half = {}
    for v in framework.graph.vertices:
        mid[v] = tuple((p[v][i] + q[v][i]) / 2 for i in range(framework.d))
        half[v] = tuple((p[v][i] - q[v][i]) / 2 for i in range(framework.d))
    return FlexPath(framework.lattice, mid, half)


def _scaled(path: FlexPath):
    """The path times the common denominator D of its midpoints,
    half-differences and lattice columns, in integers: D, the scaled a and b
    of each orbit, and gamma |-> D L(gamma)."""
    points = [*path.midpoint.values(), *path.half_difference.values(), *path.lattice.columns]
    den = math.lcm(*(x.denominator for point in points for x in point))

    def scale(point):
        return tuple([x.numerator * (den // x.denominator) for x in point])

    cols = [scale(col) for col in path.lattice.columns]

    def shift_of(gamma: GainVector) -> list[int]:
        return [sum(g * col[i] for g, col in zip(gamma, cols)) for i in range(path.lattice.d)]

    mid = {v: scale(a) for v, a in path.midpoint.items()}
    half = {v: scale(b) for v, b in path.half_difference.items()}
    return den, mid, half, shift_of


def verify_path(path: FlexPath, framework: Framework, q: Placement) -> PathCertificate:
    """Exact certificate that the path is the advertised motion.

    Endpoints are rational identities (lattice periodicity needs no check:
    the lift shifts every orbit by (L(gamma), 0^d) for all t).  The witness of
    the pair (u at shift 0, v at shift gamma) is <a_u - a_v - L(gamma),
    b_u - b_v> = (|P - L(gamma)|^2 - |Q - L(gamma)|^2) / 4 with P = p_u - p_v
    and Q = q_u - q_v.  So an edge keeps its length iff its witness is 0, and
    `all_edges_preserved` is the equivalence of p and q; the pairs of the
    finite congruence criterion (all vertex pairs at shift 0 and at each
    lattice generator e_j) are constant iff |P| = |Q| and
    <P, L e_j> = <Q, L e_j>, so `all_pairs_constant` is their congruence.

    The witnesses are computed in integers: with a, b and L scaled by their
    common denominator D, each is the integer inner product of the scaled
    vectors over D^2, and L(gamma) is taken once per gain.
    """
    check_placement(framework.graph, framework.d, q)
    if path.lattice != framework.lattice:
        raise ValueError("path was not built from this framework")
    p = framework.placement
    d = framework.d
    endpoints = all(
        tuple(path.midpoint[v][i] + path.half_difference[v][i] for i in range(d)) == p[v]
        and tuple(path.midpoint[v][i] - path.half_difference[v][i] for i in range(d)) == tuple(q[v])
        for v in framework.graph.vertices
    )
    den, mid, half, shift_of = _scaled(path)
    den2 = den * den
    k = path.lattice.k
    gammas: list[GainVector] = [(0,) * k]
    for j in range(k):
        gammas.append(tuple(1 if i == j else 0 for i in range(k)))
    shifts = {gamma: shift_of(gamma) for gamma in {*gammas, *(e.gain for e in framework.graph.edges)}}

    def witness(u: str, v: str, gamma: GainVector) -> PairWitness:
        num = sum(
            (au - av - s) * (bu - bv)
            for au, av, s, bu, bv in zip(mid[u], mid[v], shifts[gamma], half[u], half[v])
        )
        return PairWitness(u, v, gamma, Fraction(num, den2))

    edge_witnesses = tuple((e.id, witness(e.tail, e.head, e.gain)) for e in framework.graph.edges)
    verts = framework.graph.vertices
    pairs = tuple(
        witness(u, v, g) for i, u in enumerate(verts) for v in verts[i + 1 :] for g in gammas
    )
    flexibility = any(w.direction != CONSTANT for w in pairs)
    return PathCertificate(endpoints, edge_witnesses, pairs, flexibility)


def sample_path(path: FlexPath, samples: int, window: int = 1) -> list[dict]:
    """Float positions in R^{2d} of all covering orbits in the window at
    `samples` evenly spaced parameters.  Presentation-grade output only;
    certificates never consult these numbers.  Raises ValueError when a
    position could leave the float range."""
    if samples < 2:
        raise ValueError("need at least 2 samples")
    verts = sorted(path.midpoint)
    cover = covering_window(GainGraph(path.lattice.k, tuple(verts), ()), window)
    # each orbit in floats, once: the point a + L(shift) and the half-difference
    # b as their scaled integers over D; int / int rounds correctly, so these
    # are the floats of the rationals themselves
    den, mid, half_diff, shift_of = _scaled(path)
    orbits = []
    for v, shift in cover.vertices:
        try:
            base = [(x + y) / den for x, y in zip(mid[v], shift_of(shift))]
            half = [x / den for x in half_diff[v]]
            # |a + cos(pi t) b| <= |a| + |b|, also after rounding
            finite = all(math.isfinite(abs(x) + abs(y)) for x, y in zip(base, half))
        except OverflowError:
            finite = False
        if not finite:
            raise ValueError(f"coordinates of {v!r} are beyond the float range")
        orbits.append((v, shift, base, half))
    rows = []
    for s in range(samples):
        t = s / (samples - 1)
        c = math.cos(math.pi * t)
        sn = math.sin(math.pi * t)
        for v, shift, base, half in orbits:
            first = [x + c * y for x, y in zip(base, half)]
            second = [sn * y for y in half]
            rows.append({"t": t, "vertex": v, "shift": shift, "coords": first + second})
    return rows
