"""Rigidity, vertex-redundant rigidity and the global-rigidity decision.

A quotient framework on n vertex orbits is generically rigid iff its generic
rigidity-matrix rank reaches that of the complete gain graph on the same
orbits, which has the closed form d*n - d - C(d-k, 2) + C(max(d-k-n+1, 0), 2)
(`framework.max_generic_rank`); for n >= d-k the last term vanishes, leaving
the standard count.
"""

from __future__ import annotations

from .framework import Lattice, _check_args, _rigidity_rank, _sub_seed, generic_rank, max_generic_rank
from .gain_graph import BAR_JOINT, GainGraph, gain_rank
from .linalg import mod_rank
from .record import Record

STANDARD_COUNT = "standard-count"
SATURATED_COMPARISON = "saturated-complete-comparison"

GLOBALLY_RIGID = "GloballyRigid"
NOT_GLOBALLY_RIGID = "NotGloballyRigid"
UNKNOWN = "Unknown"


class RigidityVerdict(Record):
    __slots__ = ("rigid", "achieved_rank", "target_rank", "method", "seed")


class GlobalVerdict(Record):
    __slots__ = ("status", "reason", "detail", "seed")


def _rigidity_verdict(n: int, d: int, k: int, achieved: int, seed: int) -> RigidityVerdict:
    target = max_generic_rank(n, d, k)
    method = STANDARD_COUNT if n >= d + 1 or k == d else SATURATED_COMPARISON
    return RigidityVerdict(achieved == target, achieved, target, method, seed)


def is_rigid(graph: GainGraph, d: int, lattice: Lattice | None = None, *, seed: int = 0) -> RigidityVerdict:
    # generic_rank checks the arguments
    achieved = generic_rank(graph, d, lattice, seed=seed)
    return _rigidity_verdict(len(graph.vertices), d, graph.k, achieved, seed)


def _vertex_deletions(
    graph: GainGraph, d: int, rank: int, stresses: list[dict[int, int]], seed: int
) -> tuple[bool, list[dict]]:
    """Every vertex deletion from one elimination.

    Deleting v deletes the rows of its edges delta(v), since v's columns are
    zero in every other row.  Removing rows S from a matrix of rank r and
    self-stress basis K leaves rank r - |S| + rank(K restricted to S), so
    each deletion costs one small dense `mod_rank`.
    """
    verts, edges = graph.vertices, graph.edges
    n, k = len(verts), graph.k
    incident: dict[str, list[int]] = {v: [] for v in verts}
    for i, e in enumerate(edges):
        incident[e.tail].append(i)
        incident[e.head].append(i)
    restricted: dict[str, list[list[int]]] = {v: [] for v in verts}
    for y in stresses:
        for v in {w for i in y for w in (edges[i].tail, edges[i].head)}:
            restricted[v].append([y.get(i, 0) for i in incident[v]])
    details = []
    for i, v in enumerate(verts):
        if n == 1:
            details.append({"vertex": v, "rigid": True, "note": "empty graph, vacuously rigid"})
            continue
        achieved = rank - len(incident[v]) + mod_rank(restricted[v], len(incident[v]))
        verdict = _rigidity_verdict(n - 1, d, k, achieved, _sub_seed(seed, i))
        details.append({"vertex": v, "rigid": verdict.rigid, "verdict": verdict.to_json()})
    return all(x["rigid"] for x in details), details


def is_vertex_redundantly_rigid(
    graph: GainGraph, d: int, lattice: Lattice | None = None, *, seed: int = 0
) -> tuple[bool, list[dict]]:
    """True iff deleting any single vertex (orbit) leaves a rigid graph.

    Deleting down to the empty vertex set counts as rigid.  Returns the
    verdict and a per-vertex detail list.  Every deletion's rank is the rank
    of a submatrix at the one sample of `seed` (`_vertex_deletions`); the
    `seed` of each deletion's verdict, `_sub_seed(seed, i)`, is reported but
    no longer drawn.
    """
    _check_args(graph, BAR_JOINT, d, lattice, sampled=True)
    rank, stresses = _rigidity_rank(graph, d, lattice, seed, stresses=True)
    return _vertex_deletions(graph, d, rank, stresses, seed)


def decide_global_rigidity(
    graph: GainGraph, d: int, lattice: Lattice | None = None, *, seed: int = 0
) -> GlobalVerdict:
    """Three-way global rigidity decision.

    Cascade: not rigid -> NotGloballyRigid; gain rank below k (with at least
    two vertices) -> NotGloballyRigid; at most d-k+1 vertices -> GloballyRigid;
    vertex-redundantly rigid -> GloballyRigid (the gain-rank branch has
    already ensured gain rank k, which is Theorem 2's rank-d condition at
    k = d); otherwise Unknown (the sufficient condition is not necessary).
    The base rank and every vertex deletion come from one elimination at
    the sample of `seed`, as in `is_vertex_redundantly_rigid`.
    """
    k = _check_args(graph, BAR_JOINT, d, lattice, sampled=True)
    n = len(graph.vertices)
    rank, stresses = _rigidity_rank(graph, d, lattice, seed, stresses=True)
    base = _rigidity_verdict(n, d, k, rank, seed)

    def verdict(status: str, reason: str, **detail) -> GlobalVerdict:
        return GlobalVerdict(status, reason, {**detail, "rigidity": base.to_json()}, seed)

    if not base.rigid:
        return verdict(NOT_GLOBALLY_RIGID, "not-rigid")
    g_rank = gain_rank(graph)
    if n >= 2 and g_rank < k:
        return verdict(NOT_GLOBALLY_RIGID, "gain-rank-below-k", gain_rank=g_rank, k=k)
    if n <= d - k + 1:
        return verdict(GLOBALLY_RIGID, "small-graph-corollary", vertices=n, bound=d - k + 1)
    vrr, details = _vertex_deletions(graph, d, rank, stresses, seed)
    if vrr:
        return verdict(GLOBALLY_RIGID, "thm-2-rigid-and-rank", gain_rank=g_rank, vertex_deletions=details)
    return verdict(UNKNOWN, "inconclusive", gain_rank=g_rank, vertex_deletions=details)
