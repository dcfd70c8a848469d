"""Directed multigraphs with edge gains in Z^k and the operations on them.

Gains are written additively: reversing an edge negates its gain, a switching
at a vertex adds a fixed vector to every outgoing gain and subtracts it from
every incoming one.  A graph is either in "bar-joint" mode (no loops, no
parallel edges with equal gain) or "body-bar" mode (loops with nonzero gain
and equal-gain parallels allowed).  The constructor enforces these rules, so
every `GainGraph` is valid, and switching, reversal and deletion keep it so.
`gain_rank` is exact: Bareiss on the cycle gains of spanning-forest potentials.
"""

from __future__ import annotations

from itertools import product
from operator import add, neg, sub

from .linalg import integer_rank
from .record import Record

BAR_JOINT = "bar-joint"
BODY_BAR = "body-bar"

GainVector = tuple[int, ...]

COVERING_MAX_VERTICES = 10**6  # the largest covering window built


class InvalidGainGraphError(ValueError):
    """Raised when a gain graph breaks a structural or mode rule."""


def _vec_add(a: GainVector, b: GainVector) -> GainVector:
    return tuple(map(add, a, b))


def _vec_sub(a: GainVector, b: GainVector) -> GainVector:
    return tuple(map(sub, a, b))


def _vec_neg(a: GainVector) -> GainVector:
    return tuple(map(neg, a))


class GainEdge(Record):
    __slots__ = ("id", "tail", "head", "gain")  # gain: a GainVector

    def is_loop(self) -> bool:
        return self.tail == self.head

    def reversed(self) -> "GainEdge":
        return GainEdge(self.id, self.head, self.tail, _vec_neg(self.gain))


class GainGraph(Record):
    __slots__ = ("k", "vertices", "edges", "mode")  # tuples of str and of GainEdge
    _defaults = (BAR_JOINT,)

    def __post_init__(self):
        if self.k < 0:
            raise InvalidGainGraphError("periodicity rank must be >= 0")
        if self.mode not in (BAR_JOINT, BODY_BAR):
            raise InvalidGainGraphError(f"unknown mode {self.mode!r}")
        if len(set(self.vertices)) != len(self.vertices):
            raise InvalidGainGraphError("duplicate vertex identifiers")
        vset = set(self.vertices)
        seen_ids = set()
        for e in self.edges:
            if e.id in seen_ids:
                raise InvalidGainGraphError(f"duplicate edge id {e.id!r}")
            seen_ids.add(e.id)
            if e.tail not in vset or e.head not in vset:
                raise InvalidGainGraphError(f"edge {e.id!r} references unknown vertex")
            if len(e.gain) != self.k:
                raise InvalidGainGraphError(f"edge {e.id!r} gain has length {len(e.gain)}, expected {self.k}")
        problems = _mode_violations(self)
        if problems:
            raise InvalidGainGraphError("; ".join(problems))

    def edge(self, edge_id: str) -> GainEdge:
        for e in self.edges:
            if e.id == edge_id:
                return e
        raise KeyError(f"unknown edge {edge_id!r}")

    def delete_edge(self, edge_id: str) -> "GainGraph":
        self.edge(edge_id)
        return GainGraph(
            self.k,
            self.vertices,
            tuple([e for e in self.edges if e.id != edge_id]),
            self.mode,
        )


def gain_graph(k, vertices, edges, mode=BAR_JOINT) -> GainGraph:
    """Convenience constructor; edges are (id, tail, head, gain) tuples or
    (tail, head, gain) with ids assigned as e0, e1, ..."""
    built = []
    for i, spec in enumerate(edges):
        if len(spec) == 4:
            eid, tail, head, gain = spec
        else:
            tail, head, gain = spec
            eid = f"e{i}"
        built.append(GainEdge(eid, tail, head, tuple(gain)))
    return GainGraph(k, tuple(vertices), tuple(built), mode)


def _mode_violations(graph: GainGraph) -> list[str]:
    """Messages for every breach of the mode rules: loops and equal-gain
    parallels in bar-joint mode, identity-gain loops in body-bar mode."""
    if graph.mode == BODY_BAR:
        zero = (0,) * graph.k
        return [f"loop {e.id!r} has identity gain" for e in graph.edges if e.is_loop() and e.gain == zero]
    out = [f"loop {e.id!r} not allowed in bar-joint mode" for e in graph.edges if e.is_loop()]
    seen: dict[tuple[str, str, GainVector], str] = {}
    for e in graph.edges:
        if e.is_loop():
            continue
        # canonical orientation so that a->b gain g and b->a gain -g collide
        if e.head < e.tail:
            key = (e.head, e.tail, _vec_neg(e.gain))
        else:
            key = (e.tail, e.head, e.gain)
        if key in seen:
            out.append(f"edges {seen[key]!r} and {e.id!r} are parallel with the same gain")
        else:
            seen[key] = e.id
    return out


def switch(graph: GainGraph, v: str, gamma: GainVector) -> GainGraph:
    """Add `gamma` to every gain leaving v, subtract from every gain entering v."""
    if v not in graph.vertices:
        raise KeyError(f"unknown vertex {v!r}")
    gamma = tuple(gamma)
    if len(gamma) != graph.k:
        raise ValueError("switching vector has wrong length")
    new_edges = []
    for e in graph.edges:
        if e.is_loop() or (e.tail != v and e.head != v):
            new_edges.append(e)
        elif e.tail == v:
            new_edges.append(GainEdge(e.id, e.tail, e.head, _vec_add(e.gain, gamma)))
        else:
            new_edges.append(GainEdge(e.id, e.tail, e.head, _vec_sub(e.gain, gamma)))
    return GainGraph(graph.k, graph.vertices, tuple(new_edges), graph.mode)


def reverse_edge(graph: GainGraph, edge_id: str) -> GainGraph:
    graph.edge(edge_id)  # raises on unknown id
    return GainGraph(
        graph.k,
        graph.vertices,
        tuple(e.reversed() if e.id == edge_id else e for e in graph.edges),
        graph.mode,
    )


def _gain_rank(edges, k: int) -> int:
    """`gain_rank` of the subgraph on `edges`, a sequence of GainEdges.

    Each vertex carries a potential and each component a member list.  An
    edge inside a component adds its cycle gain pot(t) + g - pot(h) (a loop
    its own gain); an edge joining two components shifts the smaller one's
    potentials so that it becomes a tree edge.  A shift is a switching, so
    the gains collected generate the group of closed-walk gains."""
    if not k:
        return 0
    pot: dict[str, GainVector] = {}
    members: dict[str, list[str]] = {}
    gains = []
    for e in edges:
        t, h = e.tail, e.head
        if t not in pot:
            pot[t] = (0,) * k
            members[t] = [t]
        if h not in pot:
            pot[h] = _vec_add(pot[t], e.gain)
            members[h] = members[t]
            members[h].append(h)
            continue
        gap = _vec_sub(_vec_add(pot[t], e.gain), pot[h])
        small, large = members[t], members[h]
        if small is large:
            if any(gap):
                gains.append(gap)
            continue
        if len(small) > len(large):
            small, large, gap = large, small, _vec_neg(gap)
        for v in small:
            pot[v] = _vec_sub(pot[v], gap)
            members[v] = large
        large.extend(small)
    return integer_rank(gains, k)


def gain_rank(graph: GainGraph, edge_ids=None) -> int:
    """Rank of the subgroup of Z^k generated by closed-walk gains of the
    subgraph spanned by `edge_ids` (all edges when omitted)."""
    edges = graph.edges
    if edge_ids is not None:
        wanted = set(edge_ids)
        edges = [e for e in edges if e.id in wanted]
        missing = wanted - {e.id for e in edges}
        if missing:
            raise KeyError(f"unknown edges {sorted(missing)!r}")
    return _gain_rank(edges, graph.k)


class CoveringWindow(Record):
    # vertices are (vertex, shift) pairs, edges sorted pairs of them
    __slots__ = ("radius", "k", "vertices", "edges")


def covering_window(graph: GainGraph, radius: int) -> CoveringWindow:
    """Finite window of the covering: one copy of each quotient vertex per
    shift in [-radius, radius]^k, and every covering edge inside the window.
    A window of more than COVERING_MAX_VERTICES vertices raises ValueError
    before any of it is built."""
    if radius < 0:
        raise ValueError("window radius must be >= 0")
    size = len(graph.vertices) * (2 * radius + 1) ** graph.k
    if size > COVERING_MAX_VERTICES:
        raise ValueError(
            f"covering window of {size} vertices exceeds the limit of {COVERING_MAX_VERTICES}"
        )
    shifts = [tuple(s) for s in product(range(-radius, radius + 1), repeat=graph.k)]
    vertices = tuple(sorted((v, s) for v in graph.vertices for s in shifts))
    inside = set(vertices)
    edges = set()
    for e in graph.edges:
        for s in shifts:
            a = (e.tail, s)
            b = (e.head, _vec_add(s, e.gain))
            if a in inside and b in inside and a != b:
                edges.add((a, b) if a <= b else (b, a))
    return CoveringWindow(radius, graph.k, vertices, tuple(sorted(edges)))
