"""Periodic frameworks on quotient gain graphs.

A framework is a bar-joint gain graph together with a lattice map
L: Z^k -> R^d (d x k rational matrix of full column rank) and a rational
placement of the quotient vertices.  The squared-length measurement of an
edge (u, v, gamma) is ||p(u) - p(v) - L(gamma)||^2.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb, lcm

from .gain_graph import BAR_JOINT, BODY_BAR, GainGraph
from .linalg import MOD_P, integer_rank, mod_rank, sparse_mod_rank
from .record import Record

Point = tuple[Fraction, ...]
Placement = dict[str, Point]

GAIN_BOUND = 2**60  # the sampled decisions take gain entries below this in absolute value


class Lattice(Record):
    __slots__ = ("d", "k", "columns")  # k columns, each a Point of length d

    def __post_init__(self):
        if not (0 <= self.k <= self.d):
            raise ValueError("need 0 <= k <= d")
        if len(self.columns) != self.k or any(len(c) != self.d for c in self.columns):
            raise ValueError("lattice needs k columns of length d")
        scaled = []
        for col in self.columns:
            den = lcm(*(x.denominator for x in col))
            scaled.append([x.numerator * (den // x.denominator) for x in col])
        if integer_rank(scaled, self.d) != self.k:
            raise ValueError("lattice columns are not linearly independent")


def identity_lattice(d: int, k: int) -> Lattice:
    cols = tuple(
        tuple(Fraction(1 if i == j else 0) for i in range(d)) for j in range(k)
    )
    return Lattice(d, k, cols)


class Framework(Record):
    __slots__ = ("graph", "lattice", "placement")  # the placement is treated as immutable

    def __post_init__(self):
        if self.graph.mode != BAR_JOINT:
            raise ValueError("frameworks are defined on bar-joint gain graphs")
        if self.graph.k != self.lattice.k:
            raise ValueError("graph and lattice periodicity ranks differ")
        check_placement(self.graph, self.lattice.d, self.placement)

    @property
    def d(self) -> int:
        return self.lattice.d


def check_placement(graph: GainGraph, d: int, placement: Placement) -> None:
    for v in graph.vertices:
        if v not in placement:
            raise ValueError(f"placement missing vertex {v!r}")
        if len(placement[v]) != d:
            raise ValueError(f"placement of {v!r} has wrong dimension")


def _check_args(
    graph: GainGraph, mode: str, d: int, lattice: Lattice | None = None, sampled: bool = False
) -> int:
    """The argument rules of every public decision; returns graph.k.

    The graph itself is valid by construction, and fixes k; what is left is
    that it is in `mode` (a body-bar graph needs a body), that 0 <= k <= d
    with d >= 1 and that a lattice is d x k.  A decision that is `sampled`
    mod p also needs every gain entry of the whole graph below 2^60 in
    absolute value, so the bound does not depend on which subgraphs it goes
    on to rank.
    """
    if graph.mode != mode:
        raise ValueError(f"expected a {mode} gain graph, got {graph.mode}")
    if mode == BODY_BAR and not graph.vertices:
        raise ValueError("need at least one body")
    if d < 1:
        raise ValueError("d must be >= 1")
    if graph.k > d:
        raise ValueError("need 0 <= k <= d")
    if lattice is not None and (lattice.d != d or lattice.k != graph.k):
        raise ValueError("lattice dimensions do not match")
    if sampled and any(abs(g) >= GAIN_BOUND for e in graph.edges for g in e.gain):
        raise ValueError("gain entries must be below 2^60 in absolute value")
    return graph.k


def _sub_seed(seed: int, index: int) -> int:
    # a distinct, stable seed for each vertex or bar deletion
    return seed * 7_368_787 + index + 1


def _lattice_mod_p(lattice: Lattice) -> list[list[int]]:
    """The lattice columns reduced mod p through denominator inverses."""
    cols = []
    for col in lattice.columns:
        reduced = []
        for x in col:
            x = Fraction(x)
            if x.denominator % MOD_P == 0:
                raise ValueError(f"lattice entry {x} has a denominator divisible by 2^61-1")
            reduced.append(x.numerator * pow(x.denominator, -1, MOD_P) % MOD_P)
        cols.append(reduced)
    return cols


def _sample(graph: GainGraph, d: int, lattice: Lattice | None, seed: int):
    """The generator and lattice columns mod p of one generic sample.

    It seeds `random.Random(seed * 1_000_003)` and takes the lattice columns
    mod p, drawn from that generator when no `lattice` is given; the caller
    goes on to draw its points from the same generator.
    """
    rng = random.Random(seed * 1_000_003)
    if lattice is not None:
        cols = _lattice_mod_p(lattice)
    else:
        cols = [[rng.randrange(MOD_P) for _ in range(d)] for _ in range(graph.k)]
    return rng, cols


def _sampled_rank(graph, d, lattice, seed, ncols, rows_of) -> int:
    """The one sample of `body_bar.body_bar_rank`: the dense rows mod p that
    `rows_of(rng, cols)` builds at `_sample`, with entries in [0, p), and
    their `mod_rank`.  The caller has checked the gain bound (`_check_args`).
    """
    rng, cols = _sample(graph, d, lattice, seed)
    return mod_rank(rows_of(rng, cols), ncols)


def _rigidity_rows(graph: GainGraph, d: int, lattice: Lattice | None, seed: int) -> list[dict[int, int]]:
    """The rigidity matrix mod p at the sample of `seed`, one sparse row
    {column: value} per edge in `graph.edges` order.

    After the lattice columns (`_sample`), each vertex in `graph.vertices`
    order draws its d coordinates from GF(p).  The row of an edge u -> v with
    gain gamma is x = p(u) - p(v) - L(gamma) on u's columns and -x on v's.
    The caller has checked the arguments (`_check_args`).
    """
    p = MOD_P
    rng, cols = _sample(graph, d, lattice, seed)
    point = {v: [rng.randrange(p) for _ in range(d)] for v in graph.vertices}
    col_of = {v: i * d for i, v in enumerate(graph.vertices)}
    shift_of: dict[tuple[int, ...], list[int]] = {}  # L(gamma) mod p, once per gain
    rows = []
    for e in graph.edges:
        shift = shift_of.get(e.gain)
        if shift is None:
            shift = shift_of[e.gain] = [sum(g * col[i] for g, col in zip(e.gain, cols)) for i in range(d)]
        row = {}
        a, b = point[e.tail], point[e.head]
        ct, ch = col_of[e.tail], col_of[e.head]
        for i in range(d):
            x = (a[i] - b[i] - shift[i]) % p
            if x:
                row[ct + i] = x
                row[ch + i] = p - x
        rows.append(row)
    return rows


def _rigidity_rank(
    graph: GainGraph, d: int, lattice: Lattice | None, seed: int, *, stresses: bool = False
) -> tuple[int, list[dict[int, int]] | None]:
    """Rank mod p of the rigidity matrix at the sample of `seed`
    (`_rigidity_rows`), and on request a basis of its self-stresses as
    {edge index: coefficient}; stresses None when not asked for.

    Only v's edges have entries in v's d columns.  So if the rows of v's
    edges, restricted to those columns, have full row rank (a small dense
    `mod_rank`), they are independent of all other rows and no self-stress
    is nonzero on them: they add their number to the rank and are peeled
    off.  This is a Henneberg 0-extension taken back.  Every vertex is
    tried, and a peel tries its neighbours again; peeling only removes
    rows, so the core left over does not depend on the order.
    `linalg.sparse_mod_rank` ranks the core alone.  The rank and the span
    of the stresses are those of the whole matrix.  The caller has checked
    the arguments (`_check_args`).
    """
    rows = _rigidity_rows(graph, d, lattice, seed)
    edges = graph.edges
    live: dict[str, set[int]] = {v: set() for v in graph.vertices}  # the rows not yet peeled
    for i, e in enumerate(edges):
        live[e.tail].add(i)
        live[e.head].add(i)
    col_of = {v: i * d for i, v in enumerate(graph.vertices)}
    gone: set[int] = set()
    todo = list(graph.vertices)
    while todo:
        v = todo.pop()
        mine = live[v]
        if not 0 < len(mine) <= d:
            continue
        c = col_of[v]
        if mod_rank([[rows[i].get(c + j, 0) for j in range(d)] for i in mine], d) < len(mine):
            continue
        gone |= mine
        live[v] = set()
        for i in mine:
            e = edges[i]
            w = e.head if e.tail == v else e.tail
            live[w].discard(i)
            todo.append(w)
    if not gone:  # the core is the whole matrix: no stress to relabel
        return sparse_mod_rank(rows, stresses=stresses)
    core = [i for i in range(len(rows)) if i not in gone]
    rank, kernel = sparse_mod_rank([rows[i] for i in core], stresses=stresses)
    if kernel is not None:
        kernel = [{core[j]: x for j, x in y.items()} for y in kernel]
    return len(gone) + rank, kernel


def generic_rank(graph: GainGraph, d: int, lattice: Lattice | None = None, *, seed: int = 0) -> int:
    """Rank of the rigidity matrix at a generic placement.

    One sample draws the placement, and the lattice columns when no
    `lattice` is given, uniformly from GF(p) with p = 2^61 - 1, and takes the
    rank of the rigidity matrix mod p (`_rigidity_rank`: exact peeling of
    vertices, then `linalg.sparse_mod_rank` on the core left).  A rank mod p
    is at most the rank over Q at the same point, which is at most the
    generic rank, so the result never over-reports; by Schwartz-Zippel it
    falls short with probability at most rank/p.  A rational `lattice` is
    reduced mod p once; a denominator divisible by p raises ValueError.  So
    does a gain entry of absolute value 2^60 or more: below that, distinct
    gains stay distinct mod p.
    """
    _check_args(graph, BAR_JOINT, d, lattice, sampled=True)
    return _rigidity_rank(graph, d, lattice, seed)[0]


def max_generic_rank(n_vertices: int, d: int, k: int) -> int:
    """Largest rigidity-matrix rank of any framework on n vertex orbits:
    d|V| - d - C(d-k, 2) + C(max(d-k-|V|+1, 0), 2).

    The kernel always holds the d translations and the C(d-k, 2) rotations
    fixing span(L) pointwise; with |V| <= d-k orbits, C(d-k-|V|+1, 2) of those
    rotations also fix every orbit and so are no motion at all.  A framework
    is rigid exactly when its generic rank reaches this bound.
    """
    free = comb(max(d - k - n_vertices + 1, 0), 2)
    return max(0, d * n_vertices - d - comb(d - k, 2) + free)
