"""CLI stdout pinned byte for byte on fourteen fixture documents.

`golden_cli_stdout.json` maps each invocation below to its stdout.  A change
that keeps the mathematics keeps this test passing unchanged; after an
intended change of output, rewrite the file with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from perigid.cli import EXIT_OK, main

GOLDEN = Path(__file__).with_name("golden_cli_stdout.json")

DOCUMENTS = {
    # the input document of the README
    "FIG2": {
        "dim": 2,
        "periodicity": 2,
        "mode": "bar-joint",
        "vertices": ["a", "b"],
        "edges": [
            {"tail": "a", "head": "b", "gain": [0, 0]},
            {"tail": "a", "head": "b", "gain": [1, 0]},
        ],
        "lattice": [[1, 0], [0, 1]],
        "placement": {"a": [0, 0], "b": ["2/5", "3/7"]},
        "q": {"a": [0, 0], "b": ["2/5", "-3/7"]},
    },
    # two bodies, three parallel bars and two loops: bar-redundantly rigid
    "BODYBAR": {
        "dim": 2,
        "periodicity": 1,
        "mode": "body-bar",
        "vertices": ["b0", "b1"],
        "edges": [
            {"tail": "b0", "head": "b1", "gain": [0]},
            {"tail": "b0", "head": "b1", "gain": [1]},
            {"tail": "b0", "head": "b1", "gain": [0]},
            {"tail": "b1", "head": "b1", "gain": [1]},
            {"tail": "b0", "head": "b0", "gain": [2]},
        ],
    },
    # d=3, k=0: seven bars b0-b1 and six b1-b2, rigid but not bar-redundant
    "BODYBAR_D3": {
        "dim": 3,
        "periodicity": 0,
        "mode": "body-bar",
        "vertices": ["b0", "b1", "b2"],
        "edges": [{"tail": "b0", "head": "b1", "gain": []}] * 7
        + [{"tail": "b1", "head": "b2", "gain": []}] * 6,
    },
    # d=2, k=2 with a rational lattice: equal-gain parallels and two loops
    "BODYBAR_D2K2": {
        "dim": 2,
        "periodicity": 2,
        "mode": "body-bar",
        "vertices": ["b0", "b1"],
        "edges": [
            {"tail": "b0", "head": "b1", "gain": [0, 0]},
            {"tail": "b0", "head": "b1", "gain": [0, 0]},
            {"tail": "b1", "head": "b0", "gain": [0, 1]},
            {"tail": "b0", "head": "b0", "gain": [1, 1]},
            {"tail": "b1", "head": "b1", "gain": [2, -1]},
        ],
        "lattice": [["3/2", -1], [0, "2/5"]],
    },
    # one bar between two vertices at d=2, k=1: global stops at not-rigid
    "NOT_RIGID": {
        "dim": 2,
        "periodicity": 1,
        "mode": "bar-joint",
        "vertices": ["a", "b"],
        "edges": [{"tail": "a", "head": "b", "gain": [0]}],
    },
    # two vertices, gains (0) and (1) at d=2, k=1: rigid with |V| <= d-k+1
    "SMALL": {
        "dim": 2,
        "periodicity": 1,
        "mode": "bar-joint",
        "vertices": ["a", "b"],
        "edges": [
            {"tail": "a", "head": "b", "gain": [0]},
            {"tail": "a", "head": "b", "gain": [1]},
        ],
    },
    # a triangle of doubled bars, gains (0) and (1): vertex-redundantly rigid
    "TRIANGLE": {
        "dim": 2,
        "periodicity": 1,
        "mode": "bar-joint",
        "vertices": ["a", "b", "c"],
        "edges": [
            {"tail": u, "head": v, "gain": [g]}
            for u, v in (("a", "b"), ("a", "c"), ("b", "c"))
            for g in (0, 1)
        ],
    },
    # K4 minus an edge at d=2, k=0: rigid, but deleting b or c leaves a path
    "K4_MINUS": {
        "dim": 2,
        "periodicity": 0,
        "mode": "bar-joint",
        "vertices": ["a", "b", "c", "d"],
        "edges": [
            {"tail": u, "head": v, "gain": []}
            for u, v in (("a", "b"), ("a", "c"), ("b", "c"), ("b", "d"), ("c", "d"))
        ],
    },
    # one vertex: its deletion leaves the empty graph
    "ONE_VERTEX": {
        "dim": 2,
        "periodicity": 1,
        "mode": "bar-joint",
        "vertices": ["a"],
        "edges": [],
    },
    # three bodies, four bars b0-b1 and none to b2: not rigid, with a
    # violating subset
    "BODYBAR_FLEX": {
        "dim": 2,
        "periodicity": 0,
        "mode": "body-bar",
        "vertices": ["b0", "b1", "b2"],
        "edges": [{"tail": "b0", "head": "b1", "gain": []}] * 4,
    },
    # d=2, k=0: four bars b0-b1, then three b1-b2; the basis skips e3, so
    # it pins the order in which `count_rank` takes bars
    "BODYBAR_CHAIN": {
        "dim": 2,
        "periodicity": 0,
        "mode": "body-bar",
        "vertices": ["b0", "b1", "b2"],
        "edges": [{"tail": "b0", "head": "b1", "gain": []}] * 4
        + [{"tail": "b1", "head": "b2", "gain": []}] * 3,
    },
    # d=3, k=1: loops on b0 of gain 1, 2 and 3, then seven b0-b1 bars with
    # gains 0,1,2,0,1,2,0; the basis skips the third loop, e2
    "BODYBAR_LOOPS_D3": {
        "dim": 3,
        "periodicity": 1,
        "mode": "body-bar",
        "vertices": ["b0", "b1"],
        "edges": [{"tail": "b0", "head": "b0", "gain": [g]} for g in (1, 2, 3)]
        + [{"tail": "b0", "head": "b1", "gain": [g]} for g in (0, 1, 2, 0, 1, 2, 0)],
    },
    # d=2, k=1: five bars b2-b3 with gain rank 1, then five b0-b1 of gain 0;
    # both groups break the count, and the later one has the larger excess
    # only because the earlier one's gain rank is 1
    "BODYBAR_TWO_PAIRS": {
        "dim": 2,
        "periodicity": 1,
        "mode": "body-bar",
        "vertices": ["b0", "b1", "b2", "b3"],
        "edges": [
            {"tail": u, "head": v, "gain": [g]}
            for u, v, g in (("b2", "b3", 0), ("b3", "b2", 1), ("b2", "b3", 0), ("b2", "b3", 1), ("b3", "b2", 0))
        ]
        + [{"tail": u, "head": v, "gain": [0]} for u, v in (("b0", "b1"), ("b1", "b0")) * 2 + (("b0", "b1"),)],
    },
    # d=3, k=2: four loops on b1, one on b2, six bars b0-b1 and one b2-b1;
    # the violating subset is the one triple of b1 loops with collinear
    # gains: gain rank 1 gives it excess 1, gain rank 2 a triple excess 0
    "BODYBAR_LOOPS_D3K2": {
        "dim": 3,
        "periodicity": 2,
        "mode": "body-bar",
        "vertices": ["b0", "b1", "b2"],
        "edges": [
            {"tail": u, "head": v, "gain": list(g)}
            for u, v, g in (
                ("b1", "b1", (1, 0)), ("b1", "b1", (-1, 0)), ("b0", "b1", (0, 0)), ("b2", "b1", (1, 1)),
                ("b0", "b1", (0, 0)), ("b1", "b0", (0, 0)), ("b1", "b1", (1, 1)), ("b0", "b1", (0, 1)),
                ("b0", "b1", (2, 0)), ("b2", "b2", (2, 0)), ("b1", "b1", (-1, 0)), ("b0", "b1", (0, 0)),
            )
        ],
    },
}

INVOCATIONS = [
    *[(cmd, "FIG2", "--seed", seed) for cmd in ("rigid", "vrr", "global") for seed in ("0", "5")],
    ("covering", "FIG2", "--window", "1"),
    ("covering", "FIG2", "--window", "1", "--format", "dot"),
    ("flexpath", "FIG2"),
    *[
        ("bodybar", "global", doc, "--seed", seed)
        for doc in ("BODYBAR", "BODYBAR_D3", "BODYBAR_D2K2")
        for seed in ("0", "5")
    ],
    ("bodybar", "counts", "BODYBAR"),
    ("bodybar", "build", "BODYBAR"),
    ("covering", "BODYBAR", "--window", "1"),
    *[
        ("global", doc, "--seed", seed)
        for doc in ("NOT_RIGID", "SMALL", "TRIANGLE", "K4_MINUS")
        for seed in ("0", "5")
    ],
    ("vrr", "ONE_VERTEX"),
    ("bodybar", "counts", "BODYBAR_FLEX"),
    ("bodybar", "counts", "BODYBAR_CHAIN"),
    ("bodybar", "counts", "BODYBAR_LOOPS_D3"),
    ("bodybar", "counts", "BODYBAR_TWO_PAIRS"),
    ("bodybar", "counts", "BODYBAR_LOOPS_D3K2"),
]


def stdout_of(argv, workdir: Path) -> str:
    args = []
    for a in argv:
        if a in DOCUMENTS:
            path = workdir / f"{a}.json"
            path.write_text(json.dumps(DOCUMENTS[a]))
            a = str(path)
        args.append(a)
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(args)
    assert code == EXIT_OK, argv
    return out.getvalue()


@pytest.mark.parametrize("argv", INVOCATIONS, ids=" ".join)
def test_stdout_matches_golden(argv, tmp_path):
    golden = json.loads(GOLDEN.read_text())
    assert stdout_of(argv, tmp_path) == golden[" ".join(argv)]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        golden = {" ".join(argv): stdout_of(argv, Path(tmp)) for argv in INVOCATIONS}
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"wrote {len(golden)} entries to {GOLDEN}", file=sys.stderr)
