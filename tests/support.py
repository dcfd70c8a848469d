"""Shared builders for the test suite, and the oracles the library's fast
paths are checked against: the exact Fraction rigidity matrix of a seeded
framework, with its pinned form, the Fraction monotonicity witness of a
flex path, the Fraction edge measurements with the equivalence and
congruence tests they decide, the gain rank from a depth-first spanning
forest per subgraph, the vertex-deletion loop of the global cascade, one
fresh graph and one sample per deletion, and the enumeration of the body-bar
count matroid."""

import random
from fractions import Fraction
from itertools import product
from math import comb, lcm
from typing import Iterable, Sequence

from perigid.body_bar import DEFAULT_EDGE_CAP, CountReport, body_bar_target, build_body_bar_gain_graph
from perigid.framework import (
    Framework,
    Lattice,
    Placement,
    Point,
    _check_args,
    _sub_seed,
    check_placement,
    generic_rank,
    identity_lattice,
)
from perigid.gain_graph import BAR_JOINT, BODY_BAR, GainEdge, GainGraph, GainVector, gain_graph
from perigid.linalg import integer_rank
from perigid.motion import FlexPath, PairWitness
from perigid.record import Record
from perigid.rigidity import (
    GLOBALLY_RIGID,
    NOT_GLOBALLY_RIGID,
    UNKNOWN,
    GlobalVerdict,
    is_rigid,
)

SAMPLE_MAX = 2**30  # placement/lattice coordinates drawn from [1, SAMPLE_MAX]


class RationalMatrix:
    """Immutable matrix of exact rationals, row-major."""

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, rows: int, cols: int, entries: Iterable[Iterable[Fraction]]):
        data = tuple(tuple(Fraction(x) for x in row) for row in entries)
        if len(data) != rows or any(len(r) != cols for r in data):
            raise ValueError("entry grid does not match declared shape")
        self.rows = rows
        self.cols = cols
        self._data = data

    @classmethod
    def from_rows(cls, entries: Sequence[Sequence[Fraction]], cols: int | None = None) -> "RationalMatrix":
        data = [list(r) for r in entries]
        if cols is None:
            cols = len(data[0]) if data else 0
        return cls(len(data), cols, data)

    def entry(self, i: int, j: int) -> Fraction:
        return self._data[i][j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self._data[i]

    def transpose(self) -> "RationalMatrix":
        if self.rows == 0 or self.cols == 0:
            return RationalMatrix(self.cols, self.rows, [[] for _ in range(self.cols)])
        return RationalMatrix(self.cols, self.rows, zip(*self._data))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RationalMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self._data == other._data
        )

    def __repr__(self) -> str:
        return f"RationalMatrix({self.rows}x{self.cols})"


def rank(matrix: RationalMatrix) -> int:
    """Exact rank over the rationals: each row scaled by the lcm of its
    denominators, then `integer_rank`."""
    scaled = []
    for i in range(matrix.rows):
        row = matrix.row(i)
        mult = lcm(*(x.denominator for x in row)) if row else 1
        scaled.append([x.numerator * (mult // x.denominator) for x in row])
    return integer_rank(scaled, matrix.cols)


# the reference's own gain arithmetic, independent of the library's helpers
def _vec_add(a: GainVector, b: GainVector) -> GainVector:
    return tuple([x + y for x, y in zip(a, b)])


def _vec_sub(a: GainVector, b: GainVector) -> GainVector:
    return tuple([x - y for x, y in zip(a, b)])


def _vec_neg(a: GainVector) -> GainVector:
    return tuple([-x for x in a])


def cycle_space_generators(graph: GainGraph, edge_ids=None) -> list[GainVector]:
    """Gains of a generating set of closed walks of the subgraph on `edge_ids`.

    Per connected component: spanning-tree potentials, one generator per
    non-tree edge; loops are their own generators.
    """
    if edge_ids is None:
        subset = list(graph.edges)
    else:
        wanted = set(edge_ids)
        subset = [e for e in graph.edges if e.id in wanted]
        missing = wanted - {e.id for e in subset}
        if missing:
            raise KeyError(f"unknown edges {sorted(missing)!r}")
    zero = (0,) * graph.k
    adj: dict[str, list[tuple[str, GainVector]]] = {}
    loops: list[GainEdge] = []
    nonloop: list[GainEdge] = []
    for e in subset:
        if e.is_loop():
            loops.append(e)
        else:
            nonloop.append(e)
            adj.setdefault(e.tail, [])
            adj.setdefault(e.head, [])
    for e in nonloop:
        adj[e.tail].append((e.head, e.gain))
        adj[e.head].append((e.tail, _vec_neg(e.gain)))
    generators = [e.gain for e in loops]
    potential: dict[str, GainVector] = {}
    for root in sorted(adj):
        if root in potential:
            continue
        potential[root] = zero
        stack = [root]
        while stack:
            u = stack.pop()
            for w, g in adj[u]:
                if w not in potential:
                    potential[w] = _vec_add(potential[u], g)
                    stack.append(w)
    # every edge closes a walk through spanning-forest potentials; tree edges
    # contribute the zero vector and are harmless to include
    for e in nonloop:
        g = _vec_sub(_vec_add(potential[e.tail], e.gain), potential[e.head])
        if g != zero:
            generators.append(g)
    return generators


def reference_gain_rank(graph: GainGraph, edge_ids=None) -> int:
    """Reference for `gain_rank`: the rank of the generators that
    `cycle_space_generators` reads off a depth-first spanning forest."""
    return integer_rank(cycle_space_generators(graph, edge_ids), graph.k)


def lattice_image(lattice: Lattice, gamma: GainVector) -> Point:
    """L(gamma) as a point of R^d."""
    if len(gamma) != lattice.k:
        raise ValueError("gain vector has wrong length")
    out = [Fraction(0)] * lattice.d
    for g, col in zip(gamma, lattice.columns):
        if g:
            for i in range(lattice.d):
                out[i] += g * col[i]
    return tuple(out)


def edge_measurements(framework: Framework) -> list[Fraction]:
    """Squared edge lengths of the quotient edges, in edge order."""
    return _measurements(framework, framework.placement)


def _measurements(framework: Framework, placement: Placement) -> list[Fraction]:
    out = []
    for e in framework.graph.edges:
        shift = lattice_image(framework.lattice, e.gain)
        diff = [
            placement[e.tail][i] - placement[e.head][i] - shift[i]
            for i in range(framework.d)
        ]
        out.append(sum(x * x for x in diff))
    return out


def are_equivalent(framework: Framework, q: Placement) -> bool:
    """Oracle for `PathCertificate.all_edges_preserved`: exact equality of
    all squared edge measurements for p and q."""
    check_placement(framework.graph, framework.d, q)
    return edge_measurements(framework) == _measurements(framework, q)


def are_congruent(framework: Framework, q: Placement) -> bool:
    """Oracle for `PathCertificate.all_pairs_constant`: exact congruence as
    L-periodic placements.

    Equality of measurements over the complete gain graph reduces to: equal
    squared distances on all vertex pairs, and equal inner products of all
    pair differences with each lattice column.
    """
    check_placement(framework.graph, framework.d, q)
    p = framework.placement
    d = framework.d
    verts = framework.graph.vertices
    for i, u in enumerate(verts):
        for v in verts[i + 1 :]:
            dp = [p[u][c] - p[v][c] for c in range(d)]
            dq = [q[u][c] - q[v][c] for c in range(d)]
            if sum(x * x for x in dp) != sum(x * x for x in dq):
                return False
            for col in framework.lattice.columns:
                if sum(x * y for x, y in zip(dp, col)) != sum(
                    x * y for x, y in zip(dq, col)
                ):
                    return False
    return True


def rigidity_matrix(framework: Framework) -> RationalMatrix:
    """Jacobian of the squared-length map, one row per edge, d columns per
    vertex (the constant factor 2 is dropped; it never changes the rank)."""
    d = framework.d
    verts = framework.graph.vertices
    col_of = {v: i * d for i, v in enumerate(verts)}
    rows = []
    for e in framework.graph.edges:
        row = [Fraction(0)] * (d * len(verts))
        shift = lattice_image(framework.lattice, e.gain)
        for i in range(d):
            x = framework.placement[e.tail][i] - framework.placement[e.head][i] - shift[i]
            row[col_of[e.tail] + i] += x
            row[col_of[e.head] + i] -= x
        rows.append(row)
    return RationalMatrix(len(rows), d * len(verts), rows)


class PinSpec(Record):
    """Pinned vertices with per-vertex pinned coordinate counts.

    The first vertex is pinned in all d coordinates; each further vertex
    pins one coordinate fewer than the remaining rotational freedom, giving
    exactly d + C(d-k, 2) pinned coordinates in total.
    """

    __slots__ = ("vertices", "counts")

    @classmethod
    def default(cls, graph: GainGraph, d: int, k: int) -> "PinSpec":
        t = max(d - k, 1)
        if len(graph.vertices) < t:
            raise ValueError(f"need at least {t} vertices to pin")
        counts = [d] + [d - k - j for j in range(1, t)]
        return cls(tuple(graph.vertices[:t]), tuple(counts))

    def total(self) -> int:
        return sum(self.counts)


def pinned_rigidity_matrix(framework: Framework, pins: PinSpec | None = None) -> RationalMatrix:
    """Rigidity matrix plus unit rows selecting the pinned coordinates."""
    d = framework.d
    k = framework.lattice.k
    if pins is None:
        pins = PinSpec.default(framework.graph, d, k)
    base = rigidity_matrix(framework)
    verts = framework.graph.vertices
    col_of = {v: i * d for i, v in enumerate(verts)}
    rows = [list(base.row(i)) for i in range(base.rows)]
    for v, count in zip(pins.vertices, pins.counts):
        for c in range(count):
            row = [Fraction(0)] * base.cols
            row[col_of[v] + c] = Fraction(1)
            rows.append(row)
    return RationalMatrix(len(rows), base.cols, rows)


def _random_point(rng: random.Random, d: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(rng.randint(1, SAMPLE_MAX)) for _ in range(d))


def random_lattice(rng: random.Random, d: int, k: int) -> Lattice:
    if not (0 <= k <= d):
        raise ValueError("need 0 <= k <= d")
    while True:
        try:
            return Lattice(d, k, tuple(_random_point(rng, d) for _ in range(k)))
        except ValueError:  # dependent columns: draw again
            pass


def random_generic_framework(
    graph: GainGraph,
    d: int,
    lattice: Lattice | None = None,
    seed: int = 0,
) -> Framework:
    """Seeded random framework; coordinates uniform integers in [1, 2^30]."""
    _check_args(graph, BAR_JOINT, d, lattice)
    rng = random.Random(seed)
    if lattice is None:
        lattice = random_lattice(rng, d, graph.k)
    placement = {v: _random_point(rng, d) for v in graph.vertices}
    return Framework(graph, lattice, placement)


def pair_witness(path: FlexPath, u: str, v: str, gamma: GainVector) -> PairWitness:
    """Oracle for the witnesses of `verify_path`, in Fractions: the inner
    product <a_u - a_v - L(gamma), b_u - b_v> for the pair (u at shift 0,
    v at shift gamma)."""
    shift = lattice_image(path.lattice, gamma)
    da = [path.midpoint[u][i] - path.midpoint[v][i] - shift[i] for i in range(path.lattice.d)]
    db = [path.half_difference[u][i] - path.half_difference[v][i] for i in range(path.lattice.d)]
    return PairWitness(u, v, tuple(gamma), sum(x * y for x, y in zip(da, db)))


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


def delete_vertex(graph: GainGraph, v: str) -> GainGraph:
    """`graph` without the vertex v and its edges."""
    return GainGraph(
        graph.k,
        tuple(w for w in graph.vertices if w != v),
        tuple(e for e in graph.edges if v not in (e.tail, e.head)),
        graph.mode,
    )


def zero_extend(rng: random.Random, graph: GainGraph, d: int, count: int) -> GainGraph:
    """`graph`, which has a vertex, with `count` new vertices x0, x1, ...
    each added by a Henneberg 0-extension as `bench/instances.py` builds
    them: c distinct anchors with one gain each, and one more endpoint at
    +-e_j off an anchor's gain for each of min(d - c, k) distinct units j.
    The lifted endpoints are affinely independent, so at a generic point
    the new rows are independent of each other and of the old ones.  With
    at least d - k vertices in `graph` each new vertex gets d edges, and a
    minimally rigid graph stays minimally rigid.
    """
    k = graph.k
    verts, edges = list(graph.vertices), list(graph.edges)
    for x in [f"x{i}" for i in range(count)]:
        c = rng.randint(min(max(d - k, 1), len(verts)), min(d, len(verts)))
        anchors = rng.sample(verts, c)
        extras: dict[str, list[int]] = {u: [] for u in anchors}
        for j in rng.sample(range(k), min(d - c, k)):
            extras[rng.choice(anchors)].append(j)
        for u in anchors:
            base = [rng.randint(-1, 1) for _ in range(k)]
            gains = [tuple(base)]
            for j in extras[u]:
                sign = rng.choice((-1, 1))
                gains.append(tuple(b + sign * (i == j) for i, b in enumerate(base)))
            for g in gains:
                e = GainEdge(f"{x}:{len(edges)}", x, u, g)
                edges.append(e if rng.random() < 0.5 else e.reversed())
        verts.append(x)
    return GainGraph(k, tuple(verts), tuple(edges))


def minimally_rigid_graph(rng: random.Random, d: int, k: int, n: int) -> GainGraph:
    """A minimally rigid graph on n vertex orbits for 1 <= d <= 3: the base
    `bench/instances.py` starts from (K_{d+1} for k = 0, two vertices joined
    with gains 0 and e_1 for d = 3, k = 1, one vertex for k >= d - 1), then
    n minus its size `zero_extend` steps."""
    if k == 0:
        base = complete_graph(d + 1)
    elif d == 3 and k == 1:
        base = gain_graph(1, ["v0", "v1"], [("v0", "v1", (0,)), ("v0", "v1", (1,))])
    else:
        base = gain_graph(k, ["v0"], [])
    return zero_extend(rng, base, d, n - len(base.vertices))


def twin_graph(graph: GainGraph) -> GainGraph:
    """Each vertex u of `graph` with a twin u' that copies its edges, gain
    for gain, and k + 1 edges u - u' with gains 0, e_1, ..., e_k.  Built on
    a minimally rigid graph R, every G - v holds a copy of R with v's twin
    in v's place and the other twins attached to it rigidly, so G is
    GloballyRigid by `thm-2-rigid-and-rank`."""
    k = graph.k
    twin = {v: f"{v}'" for v in graph.vertices}
    edges = []
    for e in graph.edges:
        edges += [(e.tail, e.head, e.gain), (twin[e.tail], e.head, e.gain), (e.tail, twin[e.head], e.gain)]
    for v in graph.vertices:
        edges += [(v, twin[v], tuple(int(i == j) for i in range(k))) for j in range(-1, k)]
    return gain_graph(k, graph.vertices + tuple(twin.values()), edges)


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


def saturated_complete_rank(vertices, d, k, lattice, seed, max_window=8) -> int:
    """Oracle for `max_generic_rank`: generic rank of the complete gain graph
    on `vertices`, found by growing the gain window until two consecutive
    radii agree."""
    prev = None
    for m in range(1, max_window + 1):
        r = generic_rank(saturated_complete_graph(vertices, k, m), d, lattice, seed=seed)
        if r == prev:
            return r
        prev = r
    raise RuntimeError("saturated complete rank did not stabilise")


def bareiss_generic_rank(graph: GainGraph, d: int, lattice=None, seed: int = 0) -> int:
    """Reference for `generic_rank`: the exact rank over Q (Fraction entries,
    Bareiss elimination) at one sampled point, the `random_generic_framework`
    of seed `seed * 1_000_003`."""
    return rank(rigidity_matrix(random_generic_framework(graph, d, lattice, seed * 1_000_003)))


def deletion_loop_redundancy(graph: GainGraph, d: int, lattice=None, seed: int = 0):
    """Reference for `is_vertex_redundantly_rigid`: each vertex deleted from
    a fresh graph and the rest decided by `is_rigid` at its own sample, seed
    `_sub_seed(seed, i)`."""
    _check_args(graph, BAR_JOINT, d, lattice, sampled=True)
    details = []
    for i, v in enumerate(graph.vertices):
        reduced = delete_vertex(graph, v)
        if not reduced.vertices:
            details.append({"vertex": v, "rigid": True, "note": "empty graph, vacuously rigid"})
            continue
        verdict = is_rigid(reduced, d, lattice, seed=_sub_seed(seed, i))
        details.append({"vertex": v, "rigid": verdict.rigid, "verdict": verdict.to_json()})
    return all(x["rigid"] for x in details), details


def deletion_loop_global(graph: GainGraph, d: int, lattice=None, seed: int = 0) -> GlobalVerdict:
    """Reference for `decide_global_rigidity`: the same cascade on the base
    rank of `is_rigid` and the deletions of `deletion_loop_redundancy`."""
    base = is_rigid(graph, d, lattice, seed=seed)

    def verdict(status: str, reason: str, **detail) -> GlobalVerdict:
        return GlobalVerdict(status, reason, {**detail, "rigidity": base.to_json()}, seed)

    k = graph.k
    n = len(graph.vertices)
    if not base.rigid:
        return verdict(NOT_GLOBALLY_RIGID, "not-rigid")
    g_rank = reference_gain_rank(graph)
    if n >= 2 and g_rank < k:
        return verdict(NOT_GLOBALLY_RIGID, "gain-rank-below-k", gain_rank=g_rank, k=k)
    if n <= d - k + 1:
        return verdict(GLOBALLY_RIGID, "small-graph-corollary", vertices=n, bound=d - k + 1)
    vrr, details = deletion_loop_redundancy(graph, d, lattice, seed=seed)
    if vrr:
        return verdict(GLOBALLY_RIGID, "thm-2-rigid-and-rank", gain_rank=g_rank, vertex_deletions=details)
    return verdict(UNKNOWN, "inconclusive", gain_rank=g_rank, vertex_deletions=details)


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


def expansion_bar_redundancy(multigraph: GainGraph, d: int, lattice=None, seed: int = 0):
    """Reference for `is_bar_redundantly_rigid` on the joint expansion: each
    bar's gain edge is deleted from `build_body_bar_gain_graph` and the rest
    decided by `is_rigid`, with the decision's per-deletion seeds."""
    k = multigraph.k
    built = build_body_bar_gain_graph(multigraph, d)
    if not multigraph.edges:
        return is_rigid(built, d, lattice, seed=seed).rigid, []
    details = []
    for i, e in enumerate(multigraph.edges):
        reduced = built.delete_edge(f"bar:{e.id}")
        verdict = is_rigid(reduced, d, lattice, seed=_sub_seed(seed, i))
        details.append({"edge": e.id, "rigid": verdict.rigid, "verdict": verdict.to_json()})
    return all(x["rigid"] for x in details), details


class CountMatroid:
    """Independence oracle for the bound |F| <= C(d+1,2)|V(F)| - d - C(d-k(F),2)."""

    def __init__(self, multigraph: GainGraph, d: int):
        self.graph = multigraph
        self.d = d
        self.edges = list(multigraph.edges)
        vidx = {v: i for i, v in enumerate(multigraph.vertices)}
        self.vertex_masks = [
            (1 << vidx[e.tail]) | (1 << vidx[e.head]) for e in self.edges
        ]
        self._bound: dict[int, int] = {}
        self._ok: dict[int, bool] = {0: True}

    def _edge_ids(self, mask: int) -> list[str]:
        return [e.id for i, e in enumerate(self.edges) if mask >> i & 1]

    def bound(self, mask: int) -> int:
        b = self._bound.get(mask)
        if b is None:
            vmask = 0
            for i, vm in enumerate(self.vertex_masks):
                if mask >> i & 1:
                    vmask |= vm
            kf = reference_gain_rank(self.graph, self._edge_ids(mask))
            b = comb(self.d + 1, 2) * vmask.bit_count() - self.d - comb(self.d - kf, 2)
            self._bound[mask] = b
        return b

    def violates(self, mask: int) -> bool:
        return mask != 0 and mask.bit_count() > self.bound(mask)

    def independent(self, mask: int) -> bool:
        ok = self._ok.get(mask)
        if ok is None:
            if self.violates(mask):
                ok = False
            else:
                ok = True
                rest = mask
                while rest:
                    bit = rest & -rest
                    if not self.independent(mask ^ bit):
                        ok = False
                        break
                    rest ^= bit
            self._ok[mask] = ok
        return ok


def enumerated_count_rank(multigraph: GainGraph, d: int, edge_cap: int = DEFAULT_EDGE_CAP) -> CountReport:
    """Oracle for `count_rank`: the independence of every bar mask by
    recursion over its subsets, the first independent mask of each larger
    size in numeric order, and a scan of every mask for the violating
    subset."""
    k = _check_args(multigraph, BODY_BAR, d)
    m = len(multigraph.edges)
    if m > edge_cap:
        raise ValueError(f"{m} edges exceed the enumeration cap of {edge_cap}")
    target = body_bar_target(len(multigraph.vertices), d, k)
    matroid = CountMatroid(multigraph, d)

    # exhaustive search; any independent set satisfies |F| <= b(F) <= target,
    # so the scan can stop as soon as the target size is reached
    rank = 0
    best_mask = 0
    for mask in range(1 << m):
        if mask.bit_count() > rank and matroid.independent(mask):
            rank = mask.bit_count()
            best_mask = mask
            if rank == target:
                break
    rigid = rank == target

    violating = None
    if not rigid:
        best = None
        for mask in range(1, 1 << m):
            if matroid.violates(mask):
                excess = mask.bit_count() - matroid.bound(mask)
                key = (-excess, mask.bit_count(), mask)
                if best is None or key < best[0]:
                    best = (key, mask)
        if best is not None:
            violating = tuple(matroid._edge_ids(best[1]))
    basis = tuple(matroid._edge_ids(best_mask)) if rigid else None
    return CountReport(rigid, target, rank, basis, violating)
