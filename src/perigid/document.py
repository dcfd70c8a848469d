"""JSON input documents and exporters.

A document describes a gain graph (either mode) with dimension, periodicity,
and optionally a lattice and one or two placements.  Rationals cross the JSON
boundary as integers or "num/den" strings so nothing is rounded.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any

from .framework import Lattice, Placement
from .gain_graph import (
    BAR_JOINT,
    BODY_BAR,
    CoveringWindow,
    GainEdge,
    GainGraph,
)
from .record import Record


class DocumentError(ValueError):
    """Malformed input document."""


_DOC_FIELDS = {"dim", "periodicity", "mode", "lattice", "vertices", "edges", "placement", "q"}
_EDGE_FIELDS = {"id", "tail", "head", "gain"}

# the interpreter's own limit on the digits of an int; Fraction builds 10**e
# before anything else, which takes seconds for an exponent like 10**7
MAX_EXPONENT = 4300


def parse_rational(value: Any, where: str) -> Fraction:
    if isinstance(value, bool):
        raise DocumentError(f"{where}: expected a rational, got a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        _, e, exponent = value.lower().partition("e")
        try:
            if not e or abs(int(exponent)) <= MAX_EXPONENT:
                return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise DocumentError(f"{where}: bad rational {value!r}") from exc
        raise DocumentError(f"{where}: exponent of {value!r} is beyond {MAX_EXPONENT} in magnitude")
    raise DocumentError(f"{where}: expected an integer or 'num/den' string")


class Document(Record):
    # lattice, placement and q are None when the document leaves them out
    __slots__ = ("d", "graph", "lattice", "placement", "q")


def _parse_placement(obj: Any, d: int, vertices, where: str) -> Placement:
    if not isinstance(obj, dict):
        raise DocumentError(f"{where}: expected an object mapping vertex to coordinates")
    out: Placement = {}
    for v, coords in obj.items():
        if v not in vertices:
            raise DocumentError(f"{where}: unknown vertex {v!r}")
        if not isinstance(coords, list) or len(coords) != d:
            raise DocumentError(f"{where}: {v!r} needs exactly {d} coordinates")
        out[v] = tuple(parse_rational(c, f"{where}.{v}") for c in coords)
    missing = set(vertices) - set(out)
    if missing:
        raise DocumentError(f"{where}: missing vertices {sorted(missing)}")
    return out


def parse_lattice_matrix(obj: Any, d: int, k: int, where: str = "lattice") -> Lattice:
    """Parse a d x k matrix (row-major) into a Lattice."""
    if not isinstance(obj, list) or len(obj) != d or any(
        not isinstance(row, list) or len(row) != k for row in obj
    ):
        raise DocumentError(f"{where}: expected a {d}x{k} matrix")
    rows = [[parse_rational(x, f"{where}[{i}][{j}]") for j, x in enumerate(row)] for i, row in enumerate(obj)]
    columns = tuple(tuple(rows[i][j] for i in range(d)) for j in range(k))
    try:
        return Lattice(d, k, columns)
    except ValueError as exc:
        raise DocumentError(f"{where}: {exc}") from exc


def parse_document(obj: Any) -> Document:
    if not isinstance(obj, dict):
        raise DocumentError("document must be a JSON object")
    unknown = set(obj) - _DOC_FIELDS
    if unknown:
        raise DocumentError(f"unknown fields: {sorted(unknown)}")
    for required in ("dim", "periodicity", "mode", "vertices", "edges"):
        if required not in obj:
            raise DocumentError(f"missing field {required!r}")
    d = obj["dim"]
    k = obj["periodicity"]
    if not isinstance(d, int) or isinstance(d, bool) or d < 1:
        raise DocumentError("dim must be a positive integer")
    if not isinstance(k, int) or isinstance(k, bool) or not (0 <= k <= d):
        raise DocumentError("periodicity must be an integer with 0 <= k <= dim")
    mode = obj["mode"]
    if mode not in (BAR_JOINT, BODY_BAR):
        raise DocumentError(f"mode must be {BAR_JOINT!r} or {BODY_BAR!r}")
    vertices = obj["vertices"]
    if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
        raise DocumentError("vertices must be a list of strings")

    edges = []
    if not isinstance(obj["edges"], list):
        raise DocumentError("edges must be a list")
    for i, e in enumerate(obj["edges"]):
        where = f"edges[{i}]"
        if not isinstance(e, dict):
            raise DocumentError(f"{where}: expected an object")
        unknown = set(e) - _EDGE_FIELDS
        if unknown:
            raise DocumentError(f"{where}: unknown fields {sorted(unknown)}")
        for required in ("tail", "head", "gain"):
            if required not in e:
                raise DocumentError(f"{where}: missing {required!r}")
        for end in ("tail", "head"):
            if not isinstance(e[end], str):
                raise DocumentError(f"{where}: {end} must be a string")
        gain = e["gain"]
        if (
            not isinstance(gain, list)
            or len(gain) != k
            or not all(isinstance(g, int) and not isinstance(g, bool) for g in gain)
        ):
            raise DocumentError(f"{where}: gain must be a list of {k} integers")
        eid = e.get("id", f"e{i}")
        if not isinstance(eid, str):
            raise DocumentError(f"{where}: id must be a string")
        edges.append(GainEdge(eid, e["tail"], e["head"], tuple(gain)))
    try:
        graph = GainGraph(k, tuple(vertices), tuple(edges), mode)
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc

    lattice = None
    if "lattice" in obj:
        lattice = parse_lattice_matrix(obj["lattice"], d, k)
    placement = None
    if "placement" in obj:
        placement = _parse_placement(obj["placement"], d, vertices, "placement")
    q = None
    if "q" in obj:
        q = _parse_placement(obj["q"], d, vertices, "q")
    return Document(d, graph, lattice, placement, q)


def graph_to_document(graph: GainGraph, d: int) -> dict:
    """Serialize a gain graph back into the input document schema."""
    return {
        "dim": d,
        "periodicity": graph.k,
        "mode": graph.mode,
        "vertices": list(graph.vertices),
        "edges": [
            {"id": e.id, "tail": e.tail, "head": e.head, "gain": list(e.gain)}
            for e in graph.edges
        ],
    }


def _dot_id(v: str, shift) -> str:
    """The covering vertex `v|(shift)` as a quoted DOT identifier."""
    name = f"{v}|({','.join(str(s) for s in shift)})"
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def covering_to_json(window: CoveringWindow) -> dict:
    return {
        "radius": window.radius,
        "periodicity": window.k,
        "vertices": [{"vertex": v, "shift": list(s)} for v, s in window.vertices],
        "edges": [
            {
                "from": {"vertex": a[0], "shift": list(a[1])},
                "to": {"vertex": b[0], "shift": list(b[1])},
            }
            for a, b in window.edges
        ],
    }


def covering_to_dot(window: CoveringWindow) -> str:
    lines = ["graph covering {"]
    for v, s in window.vertices:
        lines.append(f"  {_dot_id(v, s)};")
    for a, b in window.edges:
        lines.append(f"  {_dot_id(*a)} -- {_dot_id(*b)};")
    lines.append("}")
    return "\n".join(lines) + "\n"
