"""`flexpath --out` pinned byte for byte: stdout and the CSV trajectory of a
d=3, k=2 document with a rational lattice.

One orbit is moved off the reflected placement, so the edge witnesses at it
are nonzero rationals and some pairs are increasing or decreasing; every
witness, direction and sampled float is pinned.  After an intended change of
output, rewrite `golden_flexpath.json` with

    PYTHONPATH=src python tests/test_flexpath_golden.py
"""

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

from perigid.cli import EXIT_OK, main

GOLDEN = Path(__file__).with_name("golden_flexpath.json")

# the lattice spans a plane of z = 0, so reflecting z preserves every edge
# length; "e" also moves within that plane, which breaks the edges at "e"
DOCUMENT = {
    "dim": 3,
    "periodicity": 2,
    "mode": "bar-joint",
    "vertices": ["a", "b", "c", "d", "e"],
    "edges": [
        {"tail": "a", "head": "b", "gain": [0, 0]},
        {"tail": "a", "head": "b", "gain": [1, 0]},
        {"tail": "b", "head": "c", "gain": [0, -1]},
        {"tail": "c", "head": "d", "gain": [2, 1]},
        {"tail": "d", "head": "a", "gain": [0, 0]},
        {"tail": "a", "head": "e", "gain": [-1, 1]},
        {"tail": "e", "head": "c", "gain": [0, 0]},
        {"tail": "d", "head": "e", "gain": [1, 1]},
    ],
    "lattice": [["3/2", "-1/3"], ["1/4", "2/5"], [0, 0]],
    "placement": {
        "a": [0, 0, 0],
        "b": ["2/5", "3/7", "-5/3"],
        "c": ["-7/2", 1, "9/11"],
        "d": [3, "-4/9", 2],
        "e": ["1/6", "5/8", "-2/13"],
    },
    "q": {
        "a": [0, 0, 0],
        "b": ["2/5", "3/7", "5/3"],
        "c": ["-7/2", 1, "-9/11"],
        "d": [3, "-4/9", -2],
        "e": ["7/6", "5/8", "2/13"],
    },
}

ARGV = ["--samples", "3", "--window", "1"]


def outputs(workdir: Path) -> dict:
    doc = workdir / "doc.json"
    doc.write_text(json.dumps(DOCUMENT))
    out_csv = workdir / "path.csv"
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["flexpath", str(doc), *ARGV, "--out", str(out_csv)])
    assert code == EXIT_OK
    # the stdout names the CSV path, which differs from run to run
    stdout = out.getvalue().replace(json.dumps(str(out_csv)), '"PATH"')
    return {"stdout": stdout, "csv": out_csv.read_bytes().decode("ascii")}


def test_flexpath_matches_golden(tmp_path):
    assert outputs(tmp_path) == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        golden = outputs(Path(tmp))
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
