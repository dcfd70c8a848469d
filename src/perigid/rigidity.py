"""Rigidity, vertex-redundant rigidity and the global-rigidity decision.

A quotient framework on n vertex orbits is generically rigid iff its generic
rigidity-matrix rank reaches that of the complete gain graph on the same
orbits, which has the closed form d*n - d - C(d-k, 2) + C(max(d-k-n+1, 0), 2)
(`framework.max_generic_rank`); for n >= d-k the last term vanishes, leaving
the standard count.
"""

from __future__ import annotations

from .framework import Lattice, _check_args, generic_rank, max_generic_rank
from .gain_graph import BAR_JOINT, GainGraph, gain_rank
from .record import Record

STANDARD_COUNT = "standard-count"
SATURATED_COMPARISON = "saturated-complete-comparison"

GLOBALLY_RIGID = "GloballyRigid"
NOT_GLOBALLY_RIGID = "NotGloballyRigid"
UNKNOWN = "Unknown"


class RigidityVerdict(Record):
    __slots__ = ("rigid", "achieved_rank", "target_rank", "method", "trials", "seed")

    def to_json(self) -> dict:
        return {
            "rigid": self.rigid,
            "achieved_rank": self.achieved_rank,
            "target_rank": self.target_rank,
            "method": self.method,
            "trials": self.trials,
            "seed": self.seed,
        }


class GlobalVerdict(Record):
    __slots__ = ("status", "reason", "detail", "trials", "seed")

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "reason": self.reason,
            "detail": self.detail,
            "trials": self.trials,
            "seed": self.seed,
        }


def is_rigid(
    graph: GainGraph,
    d: int,
    k: int | None = None,
    lattice: Lattice | None = None,
    trials: int = 3,
    seed: int = 0,
) -> RigidityVerdict:
    # generic_rank checks the arguments
    achieved = generic_rank(graph, d, k, lattice, trials, seed)
    k = graph.k
    n = len(graph.vertices)
    target = max_generic_rank(n, d, k)
    method = STANDARD_COUNT if n >= d + 1 or k == d else SATURATED_COMPARISON
    return RigidityVerdict(achieved == target, achieved, target, method, trials, seed)


def is_vertex_redundantly_rigid(
    graph: GainGraph,
    d: int,
    k: int | None = None,
    lattice: Lattice | None = None,
    trials: int = 3,
    seed: int = 0,
) -> tuple[bool, list[dict]]:
    """True iff deleting any single vertex (orbit) leaves a rigid graph.

    Deleting down to the empty vertex set counts as rigid.  Returns the
    verdict and a per-vertex detail list.
    """
    k = _check_args(graph, BAR_JOINT, d, k, lattice, trials)
    details = []
    all_rigid = True
    for i, v in enumerate(graph.vertices):
        reduced = graph.delete_vertex(v)
        if not reduced.vertices:
            details.append({"vertex": v, "rigid": True, "note": "empty graph, vacuously rigid"})
            continue
        verdict = is_rigid(reduced, d, k, lattice, trials, _sub_seed(seed, i))
        details.append({"vertex": v, "rigid": verdict.rigid, "verdict": verdict.to_json()})
        if not verdict.rigid:
            all_rigid = False
    return all_rigid, details


def _sub_seed(seed: int, index: int) -> int:
    # a distinct, stable seed for each vertex deletion
    return seed * 7_368_787 + index + 1


def decide_global_rigidity(
    graph: GainGraph,
    d: int,
    k: int | None = None,
    lattice: Lattice | None = None,
    trials: int = 3,
    seed: int = 0,
) -> GlobalVerdict:
    """Three-way global rigidity decision.

    Cascade: not rigid -> NotGloballyRigid; gain rank below k (with at least
    two vertices) -> NotGloballyRigid; at most d-k+1 vertices -> GloballyRigid;
    vertex-redundantly rigid -> GloballyRigid (the gain-rank branch has
    already ensured gain rank k, which is Theorem 2's rank-d condition at
    k = d); otherwise Unknown (the sufficient condition is not necessary).
    """
    base = is_rigid(graph, d, k, lattice, trials, seed)  # checks the arguments
    k = graph.k
    n = len(graph.vertices)
    if not base.rigid:
        return GlobalVerdict(
            NOT_GLOBALLY_RIGID, "not-rigid", {"rigidity": base.to_json()}, trials, seed
        )
    g_rank = gain_rank(graph)
    if n >= 2 and g_rank < k:
        return GlobalVerdict(
            NOT_GLOBALLY_RIGID,
            "gain-rank-below-k",
            {"gain_rank": g_rank, "k": k, "rigidity": base.to_json()},
            trials,
            seed,
        )
    if n <= d - k + 1:
        return GlobalVerdict(
            GLOBALLY_RIGID,
            "small-graph-corollary",
            {"vertices": n, "bound": d - k + 1, "rigidity": base.to_json()},
            trials,
            seed,
        )
    vrr, details = is_vertex_redundantly_rigid(graph, d, k, lattice, trials, seed)
    if vrr:
        return GlobalVerdict(
            GLOBALLY_RIGID,
            "thm-2-rigid-and-rank",
            {"gain_rank": g_rank, "vertex_deletions": details, "rigidity": base.to_json()},
            trials,
            seed,
        )
    return GlobalVerdict(
        UNKNOWN,
        "inconclusive",
        {
            "gain_rank": g_rank,
            "vertex_redundantly_rigid": vrr,
            "vertex_deletions": details,
            "rigidity": base.to_json(),
        },
        trials,
        seed,
    )
