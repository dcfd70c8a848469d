"""Shared builders for the test suite."""

import random
from fractions import Fraction
from itertools import product

from perigid.body_bar import build_body_bar_gain_graph
from perigid.framework import (
    Framework,
    Lattice,
    _trial_seed,
    generic_rank,
    identity_lattice,
    max_generic_rank,
    random_generic_framework,
    rigidity_matrix,
)
from perigid.gain_graph import BAR_JOINT, BODY_BAR, GainEdge, GainGraph, gain_graph
from perigid.linalg import rank
from perigid.rigidity import _sub_seed, is_rigid


def fig2_graph() -> GainGraph:
    """Two vertex orbits joined by two parallel edges with gains (0,0), (1,0)."""
    return gain_graph(2, ["a", "b"], [("a", "b", (0, 0)), ("a", "b", (1, 0))])


def fig2_framework() -> Framework:
    placement = {
        "a": (Fraction(0), Fraction(0)),
        "b": (Fraction(2, 5), Fraction(3, 7)),
    }
    return Framework(fig2_graph(), identity_lattice(2, 2), placement)


def fig2_flip_placement() -> dict:
    """Reflection of b across the axis through a in the (1,0) direction:
    equivalent but not congruent to the fig2 placement."""
    return {
        "a": (Fraction(0), Fraction(0)),
        "b": (Fraction(2, 5), Fraction(-3, 7)),
    }


def triangle() -> GainGraph:
    return gain_graph(0, ["a", "b", "c"], [("a", "b", ()), ("b", "c", ()), ("a", "c", ())])


def four_cycle() -> GainGraph:
    return gain_graph(
        0,
        ["a", "b", "c", "d"],
        [("a", "b", ()), ("b", "c", ()), ("c", "d", ()), ("a", "d", ())],
    )


def complete_graph(n: int, k: int = 0) -> GainGraph:
    verts = [f"v{i}" for i in range(n)]
    edges = [
        (u, v, (0,) * k) for i, u in enumerate(verts) for v in verts[i + 1 :]
    ]
    return gain_graph(k, verts, edges)


def random_bar_joint_graph(rng: random.Random, k: int, n: int, max_edges: int) -> GainGraph:
    verts = [f"v{i}" for i in range(n)]
    edges = []
    seen = set()
    for _ in range(max_edges):
        if n < 2:
            break
        u, v = rng.sample(verts, 2)
        g = tuple(rng.randint(-2, 2) for _ in range(k))
        key = (u, v, g) if u < v else (v, u, tuple(-x for x in g))
        if key in seen:
            continue
        seen.add(key)
        edges.append((u, v, g))
    return gain_graph(k, verts, edges)


def random_body_bar_multigraph(rng: random.Random, d: int, k: int) -> GainGraph:
    """Instance from the oracle-equivalence corpus: up to 3 bodies, up to 5
    bars, gains in {-2..2}^k, loops only with nonzero gain."""
    nv = rng.randint(1, 3)
    verts = [f"b{i}" for i in range(nv)]
    edges = []
    for i in range(rng.randint(0, 5)):
        if k >= 1 and rng.random() < 0.3:
            v = rng.choice(verts)
            while True:
                g = tuple(rng.randint(-2, 2) for _ in range(k))
                if any(g):
                    break
            edges.append(GainEdge(f"h{i}", v, v, g))
        elif nv >= 2:
            u, v = rng.sample(verts, 2)
            g = tuple(rng.randint(-2, 2) for _ in range(k))
            edges.append(GainEdge(f"h{i}", u, v, g))
    return GainGraph(k, tuple(verts), tuple(edges), BODY_BAR)


def saturated_complete_graph(vertices, k: int, window: int) -> GainGraph:
    """All edges u -> v (u < v) with every gain in {-window..window}^k.

    Loops are omitted: a loop contributes no length constraint under a fixed
    lattice, so it never changes a rank.
    """
    verts = tuple(sorted(vertices))
    edges = []
    idx = 0
    for i, u in enumerate(verts):
        for v in verts[i + 1 :]:
            for g in product(range(-window, window + 1), repeat=k):
                edges.append(GainEdge(f"s{idx}", u, v, tuple(g)))
                idx += 1
    return GainGraph(k, verts, tuple(edges), BAR_JOINT)


def saturated_complete_rank(vertices, d, k, lattice, trials, seed, max_window=8) -> int:
    """Oracle for `max_generic_rank`: generic rank of the complete gain graph
    on `vertices`, found by growing the gain window until two consecutive
    radii agree."""
    prev = None
    for m in range(1, max_window + 1):
        r = generic_rank(saturated_complete_graph(vertices, k, m), d, k, lattice, trials, seed)
        if r == prev:
            return r
        prev = r
    raise RuntimeError("saturated complete rank did not stabilise")


def bareiss_generic_rank(graph: GainGraph, d: int, lattice=None, trials: int = 3, seed: int = 0) -> int:
    """Reference for `generic_rank`: the exact rank over Q (Fraction entries,
    Bareiss elimination) of each seeded `random_generic_framework`, best over
    the trials, stopping early at `max_generic_rank`."""
    best = 0
    cap = min(len(graph.edges), max_generic_rank(len(graph.vertices), d, graph.k))
    for t in range(trials):
        fw = random_generic_framework(graph, d, lattice, _trial_seed(seed, t))
        best = max(best, rank(rigidity_matrix(fw)))
        if best == cap:
            break
    return best


def random_rational_lattice(rng: random.Random, d: int, k: int) -> Lattice:
    """A d x k lattice with small random rational entries, redrawn until its
    columns are independent."""
    while True:
        cols = tuple(
            tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(d)) for _ in range(k)
        )
        try:
            return Lattice(d, k, cols)
        except ValueError:
            pass


def expansion_bar_redundancy(multigraph: GainGraph, d: int, lattice=None, trials: int = 3, seed: int = 0):
    """Reference for `is_bar_redundantly_rigid` on the joint expansion: each
    bar's gain edge is deleted from `build_body_bar_gain_graph` and the rest
    decided by `is_rigid`, with the decision's per-deletion seeds."""
    k = multigraph.k
    built = build_body_bar_gain_graph(multigraph, d)
    if not multigraph.edges:
        return is_rigid(built.graph, d, k, lattice, trials, seed).rigid, []
    details = []
    for i, e in enumerate(multigraph.edges):
        reduced = built.graph.delete_edge(built.bar_edges[e.id])
        verdict = is_rigid(reduced, d, k, lattice, trials, _sub_seed(seed, i))
        details.append({"edge": e.id, "rigid": verdict.rigid, "verdict": verdict.to_json()})
    return all(x["rigid"] for x in details), details
