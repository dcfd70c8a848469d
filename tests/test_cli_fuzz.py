"""Property: `perigid` exits 0 or 2 on any document and flags, never raising.

Documents start valid and are then, in most examples, broken in one way:
malformed JSON, a missing or extra field, a wrong type, a short gain, a loop
or a gain of 2^60 or more.  One flag in eight is out of range.
"""

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from perigid.cli import EXIT_INVALID, EXIT_OK, main
from perigid.gain_graph import BAR_JOINT, BODY_BAR

NAMES = ["a", "b", "c", "d"]
COMMANDS = [
    ["rigid"],
    ["vrr"],
    ["global"],
    ["bodybar", "global"],
    ["bodybar", "counts"],
    ["bodybar", "build"],
    ["flexpath"],
    ["covering"],
]
DEFECTS = ["json", "missing", "extra", "type", "short-gain", "loop", "huge-gain"]
WRONG_TYPES = [None, True, "2", 1.5, [], {}]
HUGE = [2**60, -(2**60), 2**61 - 1]
OUT_OF_RANGE = ["-1", "0", "x", "2.5"]


def valid_document(draw, mode: str) -> dict:
    """A document of `mode` that parses; loops and equal-gain parallels
    follow the mode's rules."""
    d = draw(st.integers(1, 3))
    k = draw(st.integers(0, d))
    vertices = NAMES[: draw(st.integers(1, 4))]
    edges, seen = [], set()
    for _ in range(draw(st.integers(0, 6))):
        tail, head = draw(st.sampled_from(vertices)), draw(st.sampled_from(vertices))
        gain = draw(st.lists(st.integers(-2, 2), min_size=k, max_size=k))
        key = (min(tail, head), max(tail, head), tuple(gain if tail <= head else [-g for g in gain]))
        if tail == head and (mode == BAR_JOINT or not any(gain)) or mode == BAR_JOINT and key in seen:
            continue
        seen.add(key)
        edges.append({"id": f"e{len(edges)}", "tail": tail, "head": head, "gain": gain})
    doc = {"dim": d, "periodicity": k, "mode": mode, "vertices": vertices, "edges": edges}
    coordinate = st.one_of(st.integers(-3, 3), st.sampled_from(["1/2", "-2/3", "5/7"]))
    if draw(st.integers(0, 3)):
        doc["lattice"] = [
            [draw(coordinate) if draw(st.booleans()) else int(i == j) for j in range(k)] for i in range(d)
        ]
    for key in ("placement", "q"):
        if draw(st.integers(0, 3)):
            doc[key] = {v: draw(st.lists(coordinate, min_size=d, max_size=d)) for v in vertices}
    return doc


def broken(draw, doc: dict) -> str:
    """The JSON text of `doc` after one defect, or of `doc` itself."""
    if draw(st.booleans()):
        return json.dumps(doc)
    defect = draw(st.sampled_from(DEFECTS))
    edges = doc["edges"]
    target = draw(st.sampled_from([doc, *edges]))
    if defect == "json":
        text = json.dumps(doc)
        return text[: draw(st.integers(0, len(text) - 1))]
    if defect == "missing":
        del target[draw(st.sampled_from(sorted(target)))]
    elif defect == "extra":
        target[draw(st.sampled_from(["extra", "weight"]))] = 1
    elif defect == "type":
        target[draw(st.sampled_from(sorted(target)))] = draw(st.sampled_from(WRONG_TYPES))
    elif edges:
        edge = draw(st.sampled_from(edges))
        if defect == "short-gain":
            edge["gain"] = edge["gain"][:-1]
        elif defect == "loop":
            edge["head"] = edge["tail"]
        elif edge["gain"]:
            edge["gain"][0] = draw(st.sampled_from(HUGE))
    return json.dumps(doc)


def flag(draw, *good: str) -> str:
    return draw(st.sampled_from(OUT_OF_RANGE if draw(st.integers(0, 7)) == 0 else good))


def flags(draw, command: str) -> list[str]:
    out = []
    if command in ("rigid", "vrr", "global", "bodybar"):
        out += ["--seed", draw(st.sampled_from(["0", "7", "-3"]))]
    if command == "bodybar":
        out += ["--edge-cap", flag(draw, "3", "20")]
    if command in ("flexpath", "covering"):
        out += ["--window", flag(draw, "0", "1", "1000000000")]
    if command == "flexpath":
        out += ["--samples", flag(draw, "2", "3")]
    if command == "covering":
        out += ["--format", draw(st.sampled_from(["json", "dot"]))]
    return out


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_exits_0_or_2_and_never_raises(data):
    draw = data.draw
    command = draw(st.sampled_from(COMMANDS))
    mode = BODY_BAR if command[0] == "bodybar" else BAR_JOINT
    if draw(st.integers(0, 7)) == 0:
        mode = BAR_JOINT if mode == BODY_BAR else BODY_BAR
    doc = valid_document(draw, mode)
    text = broken(draw, doc)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(text)
        argv = [*command, str(path), *flags(draw, command[0])]
        if command[0] == "flexpath" and draw(st.booleans()):
            argv += ["--out", str(Path(tmp) / "path.csv")]
        if command[0] != "covering" and draw(st.integers(0, 3)) == 0:
            lattice = Path(tmp) / "lattice.json"
            lattice.write_text(json.dumps(doc.get("lattice", [[1]])))
            argv += ["--lattice-file", str(lattice)]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    assert code in (EXIT_OK, EXIT_INVALID), (argv, text, err.getvalue())
    if code == EXIT_OK:
        assert out.getvalue() and not err.getvalue(), (argv, text)
    else:
        assert not out.getvalue() and err.getvalue().startswith("error: "), (argv, text)
