"""Seeded instances whose expected verdicts are known from how they were built.

Everything here is plain data (lists, tuples, ints, strings) and imports
nothing from `perigid`, so the expected answers never come from the code the
benchmark measures.  The same seed always gives byte-identical instances;
`canonical_json` is the byte form the self-test compares.

Bar-joint construction.  A Henneberg 0-extension adds a vertex x with d new
edges whose lifted endpoints p(u_i) + L(gamma_i) are affinely independent;
the d new rows are then independent of each other and of the old rows (which
vanish on x's columns), so rank and rank target both grow by d.  Endpoints
are grouped by vertex: c distinct vertices, one base gain each, plus d - c
extra endpoints at +-e_j offsets with every unit index j used once, which
keeps the affine span at (c - 1) + (d - c) = d - 1.  Starting from a
minimally rigid base this gives minimally rigid graphs; over-braced graphs
add edges to those, and flexible graphs drop one edge.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from math import comb

MINIMAL = "minimal"
OVERBRACED = "overbraced"
FLEXIBLE = "flexible"


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def standard_target(n: int, d: int, k: int) -> int:
    """Rank of a rigid quotient framework with n >= d+1 vertices or k = d."""
    return d * n - d - comb(d - k, 2)


def body_bar_target(n: int, d: int, k: int) -> int:
    return comb(d + 1, 2) * n - d - comb(d - k, 2)


def _edge_key(tail: str, head: str, gain: tuple) -> tuple:
    """Orientation-free identity of a bar-joint edge."""
    if head < tail:
        return (head, tail, tuple(-g for g in gain))
    return (tail, head, tuple(gain))


def _random_gain(rng: random.Random, k: int) -> tuple:
    return tuple(rng.randint(-1, 1) for _ in range(k))


def _gain_box(k: int, r: int) -> list[tuple]:
    """All gains in [-r, r]^k."""
    box = [()]
    for _ in range(k):
        box = [g + (x,) for g in box for x in range(-r, r + 1)]
    return box


def _base(d: int, k: int) -> tuple[list[str], list[tuple]]:
    """A minimally rigid starting graph for (d, k)."""
    if k == 0:
        verts = [f"w{i}" for i in range(d + 1)]
        edges = [(u, v, ()) for i, u in enumerate(verts) for v in verts[i + 1 :]]
        return verts, edges
    if d == 3 and k == 1:
        return ["w0", "w1"], [("w0", "w1", (0,)), ("w0", "w1", (1,))]
    if k >= d - 1:
        return ["w0"], []
    raise ValueError(f"no minimally rigid base for d={d}, k={k}")


def _zero_extension(rng: random.Random, d: int, k: int, verts: list[str], edges: list[tuple]) -> None:
    x = f"w{len(verts)}"
    lo = max(d - k, 1)
    hi = min(d, len(verts))
    c = rng.randint(lo, hi)
    anchors = rng.sample(verts, c)
    units = rng.sample(range(k), d - c)
    extras: dict[str, list[int]] = {u: [] for u in anchors}
    for j in units:
        extras[rng.choice(anchors)].append(j)
    shift = _random_gain(rng, k)  # a switching at x
    for u in anchors:
        base = _random_gain(rng, k)
        gains = [base]
        for j in extras[u]:
            sign = rng.choice((-1, 1))
            gains.append(tuple(b + (sign if i == j else 0) for i, b in enumerate(base)))
        for g in gains:
            g = tuple(a + b for a, b in zip(g, shift))
            if rng.random() < 0.5:
                edges.append((x, u, g))
            else:
                edges.append((u, x, tuple(-a for a in g)))
    verts.append(x)


def _relabel(rng: random.Random, verts: list[str], edges: list[tuple]) -> tuple[list[str], list[tuple]]:
    order = list(verts)
    rng.shuffle(order)
    name = {v: f"v{i}" for i, v in enumerate(order)}
    new_verts = [f"v{i}" for i in range(len(order))]
    new_edges = [(name[t], name[h], tuple(g)) for t, h, g in edges]
    rng.shuffle(new_edges)
    return new_verts, new_edges


def degrees(verts: list[str], edges: list[tuple]) -> dict[str, int]:
    deg = {v: 0 for v in verts}
    for t, h, _ in edges:
        deg[t] += 1
        deg[h] += 1
    return deg


def vector_rank(vectors: list[tuple], k: int) -> int:
    """Rank over Q of a few small integer vectors (plain Gaussian elimination)."""
    rows = [[Fraction(x) for x in v] for v in vectors if any(v)]
    rank = 0
    for col in range(k):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col] / rows[rank][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def cycle_gain_rank(verts: list[str], edges: list[tuple], k: int) -> int:
    """Rank of the group generated by closed-walk gains (spanning-forest
    potentials; every edge contributes potential(t) + gain - potential(h))."""
    adj: dict[str, list[tuple[str, tuple]]] = {v: [] for v in verts}
    gens = []
    for t, h, g in edges:
        if t == h:
            gens.append(tuple(g))
            continue
        adj[t].append((h, tuple(g)))
        adj[h].append((t, tuple(-x for x in g)))
    pot: dict[str, tuple] = {}
    for root in verts:
        if root in pot:
            continue
        pot[root] = (0,) * k
        stack = [root]
        while stack:
            u = stack.pop()
            for w, g in adj[u]:
                if w not in pot:
                    pot[w] = tuple(a + b for a, b in zip(pot[u], g))
                    stack.append(w)
    for t, h, g in edges:
        if t != h:
            gens.append(tuple(pot[t][i] + g[i] - pot[h][i] for i in range(k)))
    return vector_rank(gens, k)


def bar_joint_instance(seed: int, label: str, d: int, k: int, n: int, kind: str) -> dict:
    """One bar-joint gain graph with its expected rank data.

    `rank` is the generic rank the construction guarantees, `rigid` the
    expected verdict, and `deletion_rigid` (minimal and flexible kinds, n >=
    d+2) the exact verdict of every vertex deletion: all edge sets of these
    graphs are independent, so G - v is rigid iff it keeps exactly
    target(n-1) edges.
    """
    rng = random.Random(f"barjoint:{seed}:{label}")
    verts, edges = _base(d, k)
    if n < len(verts):
        raise ValueError("n is smaller than the base graph")
    while len(verts) < n:
        _zero_extension(rng, d, k, verts, edges)
    verts, edges = _relabel(rng, verts, edges)
    target = standard_target(n, d, k) if (n >= d + 1 or k == d) else len(edges)
    rank = len(edges)
    if kind == OVERBRACED:
        # Extra edges until every vertex has degree >= d+1.  With room for
        # it (n >= 2d+2), also until the surplus over the target exceeds
        # max degree - d: then G and every G - v have more edges than their
        # rank target, so every generic-rank call runs all its trials and
        # the cost does not hinge on which deletions happen to be
        # independent.
        seen = {_edge_key(*e) for e in edges}
        deg = degrees(verts, edges)
        dense = n >= 2 * (d + 1)
        while min(deg.values()) < d + 1 or (dense and len(edges) - rank <= max(deg.values()) - d):
            u = min(verts, key=lambda v: (deg[v], v))
            top = max(deg.values())
            fresh = [(w, g) for w in verts if w != u for g in _gain_box(k, 2) if _edge_key(u, w, g) not in seen]
            if not fresh:
                raise ValueError(f"cannot over-brace {label}")
            w, g = rng.choice([o for o in fresh if deg[o[0]] < top] or fresh)
            e = (u, w, g) if rng.random() < 0.5 else (w, u, tuple(-x for x in g))
            seen.add(_edge_key(*e))
            edges.append(e)
            deg[u] += 1
            deg[w] += 1
    elif kind == FLEXIBLE:
        edges.pop(rng.randrange(len(edges)))
        rank = len(edges)
    elif kind != MINIMAL:
        raise ValueError(f"unknown kind {kind!r}")
    inst = {
        "label": label,
        "d": d,
        "k": k,
        "kind": kind,
        "vertices": verts,
        "edges": [[t, h, list(g)] for t, h, g in edges],
        "rank": rank,
        "target": target,
        "rigid": kind != FLEXIBLE,
        "gain_rank": cycle_gain_rank(verts, edges, k),
    }
    if kind != OVERBRACED and n >= d + 2:
        deg = degrees(verts, edges)
        inst["deletion_rigid"] = {
            v: len(edges) - deg[v] == standard_target(n - 1, d, k) for v in verts
        }
    return inst


def body_bar_instance(seed: int, label: str, d: int, k: int, n: int, offset: int) -> dict:
    """A body-bar multigraph on n bodies with target + offset bars.

    At least one bar touches every body; loops carry a nonzero gain.  With
    offset -1 the count bound alone makes it flexible; the rest is decided
    against `count_rank` after the timed region.
    """
    rng = random.Random(f"bodybar:{seed}:{label}")
    bodies = [f"b{i}" for i in range(n)]
    m = body_bar_target(n, d, k) + offset
    edges = []
    order = list(bodies)
    rng.shuffle(order)
    for a, b in zip(order, order[1:]):  # a spanning path keeps it connected
        edges.append((a, b, _random_gain(rng, k)))
    while len(edges) < m:
        u = rng.choice(bodies)
        if k >= 1 and rng.random() < 0.25:
            g = _random_gain(rng, k)
            if any(g):
                edges.append((u, u, g))
            continue
        w = rng.choice([b for b in bodies if b != u])
        edges.append((u, w, _random_gain(rng, k)))
    rng.shuffle(edges)
    return {
        "label": label,
        "d": d,
        "k": k,
        "bodies": bodies,
        "edges": [[f"r{i}", t, h, list(g)] for i, (t, h, g) in enumerate(edges)],
        "target": body_bar_target(n, d, k),
        "offset": offset,
        "gain_rank": cycle_gain_rank(bodies, edges, k),
    }


def reflected_placement(rng: random.Random, d: int, k: int, verts: list[str]):
    """Placement p, lattice L (first k unit vectors, scaled) and q equal to p
    with the last coordinate negated.  The last axis is orthogonal to the
    lattice span when k < d, so every edge length is preserved."""
    scale = [rng.randint(2, 5) for _ in range(k)]
    lattice = [[scale[j] if i == j else 0 for j in range(k)] for i in range(d)]
    p = {v: [Fraction(rng.randint(-40, 40), rng.randint(1, 9)) for _ in range(d)] for v in verts}
    q = {v: c[:-1] + [-c[-1]] for v, c in p.items()}
    return (
        lattice,
        {v: [_json_rational(x) for x in c] for v, c in p.items()},
        {v: [_json_rational(x) for x in c] for v, c in q.items()},
    )


def _json_rational(x: Fraction):
    """A rational as the document schema writes it: int or "num/den"."""
    return int(x) if x.denominator == 1 else str(x)
