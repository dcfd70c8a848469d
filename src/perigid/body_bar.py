"""Periodic body-bar frameworks.

The input is a multigraph of bodies whose edges are bars; loops must carry a
nonzero gain and equal-gain parallel edges are allowed.  Rigidity is decided
geometrically, on the body-bar rigidity matrix in screw coordinates, or
combinatorially, via the count matroid
|F| <= C(d+1,2)|V(F)| - d - C(d-k(F),2).

The rigidity matrix has C(d+1,2) columns (t, Omega) per body, the velocity
t + Omega x of a body being fixed by a translation t and a skew-symmetric
Omega, and one row per bar.  A bar from point a on body u to point b on body
v with gain gamma has w = a - b - L(gamma) and the row (w, w^a) on u and
-(w, w^b) on v, where (w^a)_ij = w_i a_j - w_j a_i for i < j; on a loop the
two ends add up to (0, w^L(gamma)).  The framework is rigid when the generic
rank reaches C(d+1,2)|B| - d - C(d-k,2), the target of `count_rank`.

`build_body_bar_gain_graph` exports the equivalent bar-joint gain graph:
each body becomes d+1 core joints plus one attachment joint per bar end,
joined by a complete graph of identity-gain edges, and each bar a single
gain edge between attachment joints.  Each body cluster is generically
rigid, so the expansion's generic rank is the screw rank plus the sum of the
cluster ranks, d*(#joints) - C(d+1,2)|B|, and its rigidity target exceeds the
screw target by the same offset.  Per-bar verdicts report their ranks on the
expansion's scale through this identity.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

from .framework import Lattice, _check_args, _sampled_rank, _sub_seed
from .gain_graph import BAR_JOINT, BODY_BAR, GainEdge, GainGraph, _gain_rank, gain_rank
from .linalg import MOD_P
from .record import Record
from .rigidity import (
    GLOBALLY_RIGID,
    NOT_GLOBALLY_RIGID,
    STANDARD_COUNT,
    GlobalVerdict,
    RigidityVerdict,
)

DEFAULT_EDGE_CAP = 20


def build_body_bar_gain_graph(multigraph: GainGraph, d: int) -> GainGraph:
    """Expand a body-bar multigraph into its bar-joint gain graph (the
    `bodybar build` export; the decisions use `body_bar_rank`).

    Body v becomes the joints `v#c1` .. `v#c<d+1>` and one attachment joint
    per bar end, `v#a<id>` (`v#a<id>-` and `v#a<id>+` for a loop), joined by
    identity-gain edges `B:<joint>|<joint>`.  Bar <id> becomes the edge
    `bar:<id>` with the bar's gain."""
    k = _check_args(multigraph, BODY_BAR, d)
    zero = (0,) * k
    bodies: dict[str, tuple[str, ...]] = {}
    attachment: dict[tuple[str, str], str] = {}  # (edge id, end marker) -> joint
    for v in multigraph.vertices:
        joints = [f"{v}#c{i}" for i in range(1, d + 2)]
        for e in multigraph.edges:
            if e.is_loop() and e.tail == v:
                for marker in ("-", "+"):
                    name = f"{v}#a{e.id}{marker}"
                    attachment[(e.id, marker)] = name
                    joints.append(name)
            elif e.tail == v:
                name = f"{v}#a{e.id}"
                attachment[(e.id, "-")] = name
                joints.append(name)
            elif e.head == v:
                name = f"{v}#a{e.id}"
                attachment[(e.id, "+")] = name
                joints.append(name)
        bodies[v] = tuple(joints)

    edges: list[GainEdge] = []
    for v in multigraph.vertices:
        for a, b in combinations(bodies[v], 2):
            edges.append(GainEdge(f"B:{a}|{b}", a, b, zero))
    for e in multigraph.edges:
        edges.append(GainEdge(f"bar:{e.id}", attachment[(e.id, "-")], attachment[(e.id, "+")], e.gain))

    vertices = tuple(j for v in multigraph.vertices for j in bodies[v])
    return GainGraph(k, vertices, tuple(edges), BAR_JOINT)


def body_bar_target(n_bodies: int, d: int, k: int) -> int:
    """Rank of a rigid body-bar framework on n bodies: C(d+1,2)n - d - C(d-k,2)."""
    return comb(d + 1, 2) * n_bodies - d - comb(d - k, 2)


def body_bar_rank(multigraph: GainGraph, d: int, lattice: Lattice | None = None, *, seed: int = 0) -> int:
    """Generic rank of the body-bar rigidity matrix in screw coordinates.

    One sample draws both attachment points of every bar (and the lattice
    columns when no `lattice` is given) from GF(p), p = 2^61 - 1, as
    `framework.generic_rank` does, and shares its exactness contract: the
    result never over-reports, and gain entries of absolute value 2^60 or
    more raise ValueError.
    """
    _check_args(multigraph, BODY_BAR, d, lattice, sampled=True)
    p = MOD_P
    s = comb(d + 1, 2)
    pairs = list(combinations(range(d), 2))
    col_of = {v: i * s for i, v in enumerate(multigraph.vertices)}
    ncols = s * len(multigraph.vertices)

    def rows_of(rng, cols: list[list[int]]) -> list[list[int]]:
        rows = []
        for e in multigraph.edges:
            a = [rng.randrange(p) for _ in range(d)]
            b = [rng.randrange(p) for _ in range(d)]
            w = [(a[i] - b[i] - sum(g * col[i] for g, col in zip(e.gain, cols))) % p for i in range(d)]
            row = [0] * ncols
            for sign, x, c in ((1, a, col_of[e.tail]), (-1, b, col_of[e.head])):
                for i in range(d):
                    row[c + i] += sign * w[i]
                for j, (i1, i2) in enumerate(pairs):
                    row[c + d + j] += sign * (w[i1] * x[i2] - w[i2] * x[i1])
            rows.append([x % p for x in row])
        return rows

    return _sampled_rank(multigraph, d, lattice, seed, ncols, rows_of)


def is_bar_redundantly_rigid(
    multigraph: GainGraph, d: int, lattice: Lattice | None = None, *, seed: int = 0
) -> tuple[bool, list[dict]]:
    """True iff removing any single bar (attachments retained) leaves a rigid
    body-bar framework.  Returns the verdict plus per-bar detail.  With no
    bars there is nothing to remove, and the verdict is whether the bodies
    alone are rigid.

    Each deletion i takes `body_bar_rank` with seed `_sub_seed(seed, i)`.
    Its `achieved_rank` and `target_rank` are those of the joint expansion
    (`build_body_bar_gain_graph`), which exceed the screw rank and target by
    the ranks of the rigid body clusters, C(d+1,2)|B| + 2d|E| in all.
    """
    k = _check_args(multigraph, BODY_BAR, d, lattice, sampled=True)
    n = len(multigraph.vertices)
    target = body_bar_target(n, d, k)
    if not multigraph.edges:
        return body_bar_rank(multigraph, d, lattice, seed=seed) == target, []
    offset = comb(d + 1, 2) * n + 2 * d * len(multigraph.edges)
    details = []
    for i, e in enumerate(multigraph.edges):
        sub = _sub_seed(seed, i)
        achieved = body_bar_rank(multigraph.delete_edge(e.id), d, lattice, seed=sub)
        verdict = RigidityVerdict(achieved == target, achieved + offset, target + offset, STANDARD_COUNT, sub)
        details.append({"edge": e.id, "rigid": verdict.rigid, "verdict": verdict.to_json()})
    return all(x["rigid"] for x in details), details


def decide_body_bar_global(
    multigraph: GainGraph, d: int, lattice: Lattice | None = None, *, seed: int = 0
) -> GlobalVerdict:
    """Global rigidity of a generic periodic body-bar realisation: bar
    redundancy, plus gain rank d when k = d.  Never returns Unknown."""
    k = _check_args(multigraph, BODY_BAR, d, lattice, sampled=True)
    redundant, details = is_bar_redundantly_rigid(multigraph, d, lattice, seed=seed)

    def verdict(status: str, reason: str, **detail) -> GlobalVerdict:
        return GlobalVerdict(status, reason, {**detail, "bar_deletions": details}, seed)

    if not redundant:
        return verdict(NOT_GLOBALLY_RIGID, "not-bar-redundantly-rigid")
    g_rank = gain_rank(multigraph)  # the expansion has the same gain rank
    if k == d and g_rank != d:
        return verdict(NOT_GLOBALLY_RIGID, "gain-rank-below-k", gain_rank=g_rank, k=k)
    return verdict(GLOBALLY_RIGID, "bar-redundant-and-rank", gain_rank=g_rank)


class CountReport(Record):
    # basis and violating_subset are tuples of edge ids or None
    __slots__ = ("rigid", "target", "matroid_rank", "basis", "violating_subset")


def count_rank(multigraph: GainGraph, d: int, edge_cap: int = DEFAULT_EDGE_CAP) -> CountReport:
    """Combinatorial rigidity of a generic body-bar realisation via the count
    matroid on the bars: F is independent when no nonempty F' in F has
    excess(F') = |F'| - (C(d+1,2)|V(F')| - d - C(d-k(F'),2)) above 0.

    The basis is taken greedily in bar order, and bar i joins it when no
    subset S of the basis so far has excess(S + i) > 0.  That basis is
    Gale-minimal, so when it reaches the target it is the numerically
    smallest independent bar mask of that size.  Only the violating subset,
    reported when the bars fall short, scans every mask: largest excess,
    then fewest bars, then smallest mask.  Exact but exponential; refuses
    more than `edge_cap` edges."""
    k = _check_args(multigraph, BODY_BAR, d)
    edges = multigraph.edges
    m = len(edges)
    if m > edge_cap:
        raise ValueError(f"{m} edges exceed the enumeration cap of {edge_cap}")
    target = body_bar_target(len(multigraph.vertices), d, k)
    vidx = {v: i for i, v in enumerate(multigraph.vertices)}
    bits = [(1 << i, e, (1 << vidx[e.tail]) | (1 << vidx[e.head])) for i, e in enumerate(edges)]
    s = comb(d + 1, 2)
    memo: dict[int, int] = {}

    def ids(mask: int) -> list[str]:
        return [e.id for i, e in enumerate(edges) if mask >> i & 1]

    def excess(mask: int) -> int:
        x = memo.get(mask)
        if x is None:
            vmask = 0
            bars = []
            for one, e, vm in bits:
                if mask & one:
                    vmask |= vm
                    bars.append(e)
            kf = _gain_rank(bars, k)
            x = memo[mask] = mask.bit_count() - (s * vmask.bit_count() - d - comb(d - kf, 2))
        return x

    basis = 0
    for i in range(m):
        if basis.bit_count() == target:
            break
        bit = 1 << i
        sub = basis
        while excess(sub | bit) <= 0:
            if not sub:
                basis |= bit
                break
            sub = (sub - 1) & basis
    rank = basis.bit_count()
    if rank == target:
        return CountReport(True, target, rank, tuple(ids(basis)), None)
    violating = (mask for mask in range(1, 1 << m) if excess(mask) > 0)
    worst = min(violating, key=lambda mask: (-excess(mask), mask.bit_count(), mask), default=0)
    return CountReport(False, target, rank, None, tuple(ids(worst)) if worst else None)
