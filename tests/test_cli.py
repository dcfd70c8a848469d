import csv
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from perigid.cli import EXIT_INVALID, EXIT_OK, main
from perigid.document import DocumentError, parse_document, parse_rational

FIG2 = {
    "dim": 2,
    "periodicity": 2,
    "mode": "bar-joint",
    "vertices": ["a", "b"],
    "edges": [
        {"tail": "a", "head": "b", "gain": [0, 0]},
        {"tail": "a", "head": "b", "gain": [1, 0]},
    ],
}

FIG2_WITH_PATH = {
    **FIG2,
    "lattice": [[1, 0], [0, 1]],
    "placement": {"a": [0, 0], "b": ["2/5", "3/7"]},
    "q": {"a": [0, 0], "b": ["2/5", "-3/7"]},
}

ONE_VERTEX = {"dim": 2, "periodicity": 0, "mode": "bar-joint", "vertices": ["a"], "edges": []}

NO_BARS = {"dim": 2, "periodicity": 1, "mode": "body-bar", "vertices": ["b0"], "edges": []}

BODYBAR = {
    "dim": 2,
    "periodicity": 2,
    "mode": "body-bar",
    "vertices": ["b0"],
    "edges": [
        {"tail": "b0", "head": "b0", "gain": [1, 0]},
        {"tail": "b0", "head": "b0", "gain": [0, 1]},
    ],
}


def write(tmp_path, obj, name="doc.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRigid:
    def test_fig2(self, tmp_path, capsys):
        code, out, _ = run(capsys, "rigid", write(tmp_path, FIG2))
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["rigid"] is True
        assert payload["achieved_rank"] == 2 and payload["target_rank"] == 2

    def test_lattice_file_override(self, tmp_path, capsys):
        lat = tmp_path / "lat.json"
        lat.write_text(json.dumps([[2, 0], [1, 1]]))
        code, out, _ = run(
            capsys, "rigid", write(tmp_path, FIG2), "--lattice-file", str(lat)
        )
        assert code == EXIT_OK and json.loads(out)["rigid"] is True


class TestGlobalAndVrr:
    def test_fig2_not_globally_rigid(self, tmp_path, capsys):
        code, out, _ = run(capsys, "global", write(tmp_path, FIG2))
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["status"] == "NotGloballyRigid"
        assert payload["reason"] == "gain-rank-below-k"

    def test_vrr(self, tmp_path, capsys):
        code, out, _ = run(capsys, "vrr", write(tmp_path, FIG2))
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["vertex_redundantly_rigid"] is True
        assert [v["vertex"] for v in payload["vertices"]] == ["a", "b"]


class TestInvalidInput:
    def test_malformed_gain(self, tmp_path, capsys):
        bad = json.loads(json.dumps(FIG2))
        bad["edges"][0]["gain"] = [0]  # wrong arity
        code, out, err = run(capsys, "rigid", write(tmp_path, bad))
        assert code == EXIT_INVALID and out == "" and "gain" in err

    @pytest.mark.parametrize("end", ["tail", "head"])
    @pytest.mark.parametrize("value", [[], {}, 1, None])
    def test_edge_end_not_a_string(self, tmp_path, capsys, end, value):
        bad = json.loads(json.dumps(FIG2))
        bad["edges"][1][end] = value
        code, out, err = run(capsys, "covering", write(tmp_path, bad))
        assert code == EXIT_INVALID and out == "" and f"{end} must be a string" in err

    def test_unknown_field_rejected(self, tmp_path, capsys):
        bad = {**FIG2, "extra": 1}
        code, _, err = run(capsys, "rigid", write(tmp_path, bad))
        assert code == EXIT_INVALID and "extra" in err

    def test_loop_in_bar_joint_rejected(self, tmp_path, capsys):
        bad = json.loads(json.dumps(FIG2))
        bad["edges"].append({"tail": "a", "head": "a", "gain": [1, 1]})
        code, _, err = run(capsys, "rigid", write(tmp_path, bad))
        assert code == EXIT_INVALID and "loop" in err

    def test_missing_file(self, tmp_path, capsys):
        code, _, err = run(capsys, "rigid", str(tmp_path / "nope.json"))
        assert code == EXIT_INVALID and err != ""

    def test_wrong_mode(self, tmp_path, capsys):
        code, _, err = run(capsys, "rigid", write(tmp_path, BODYBAR))
        assert code == EXIT_INVALID and "bar-joint" in err

    def test_bad_flag(self, tmp_path, capsys):
        code, _, _ = run(capsys, "rigid", write(tmp_path, FIG2), "--bogus")
        assert code == 2

    @pytest.mark.parametrize(
        "command", [("rigid",), ("vrr",), ("global",), ("bodybar", "global")], ids=" ".join
    )
    def test_trials_flag_removed(self, tmp_path, capsys, command):
        doc = BODYBAR if command[0] == "bodybar" else FIG2
        code, out, err = run(capsys, *command, write(tmp_path, doc), "--trials", "3")
        assert code == EXIT_INVALID and out == ""
        assert "unrecognized arguments: --trials 3" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("rigid", "FIG2", "--trials", "0"),
            ("rigid", "FIG2", "--trials", "-1"),
            ("vrr", "FIG2", "--trials", "0"),
            ("global", "FIG2", "--trials", "0"),
            ("bodybar", "global", "BODYBAR", "--trials", "0"),
            ("covering", "FIG2", "--window", "-1"),
            ("flexpath", "FIG2_WITH_PATH", "--samples", "1", "--out", "OUT"),
            ("vrr", "ONE_VERTEX", "--trials", "0"),
            ("bodybar", "global", "NO_BARS", "--trials", "0"),
            ("flexpath", "FIG2_WITH_PATH", "--window", "-1"),
            ("flexpath", "FIG2_WITH_PATH", "--samples", "1"),
            ("flexpath", "FIG2_WITH_PATH", "--samples", "many"),
            ("bodybar", "counts", "BODYBAR", "--edge-cap", "-1"),
            ("bodybar", "build", "BODYBAR", "--trials", "0"),
            ("covering", "FIG2", "--window", "1000000000"),
            ("flexpath", "FIG2_WITH_PATH", "--window", "1000000000", "--out", "OUT"),
        ],
    )
    def test_bad_flag_value(self, tmp_path, capsys, argv):
        docs = {
            "FIG2": FIG2,
            "FIG2_WITH_PATH": FIG2_WITH_PATH,
            "BODYBAR": BODYBAR,
            "ONE_VERTEX": ONE_VERTEX,
            "NO_BARS": NO_BARS,
        }
        args = [
            write(tmp_path, docs[a]) if a in docs else str(tmp_path / "f.csv") if a == "OUT" else a
            for a in argv
        ]
        code, out, err = run(capsys, *args)
        assert code == EXIT_INVALID and out == ""
        assert err.startswith("error: ") and "Traceback" not in err

    def test_lattice_denominator_divisible_by_p(self, tmp_path, capsys):
        doc = {**FIG2, "lattice": [[f"1/{2**61 - 1}", 0], [0, 1]]}
        code, out, err = run(capsys, "rigid", write(tmp_path, doc))
        assert code == EXIT_INVALID and out == "" and "denominator" in err

    def test_gain_aliasing_mod_p_rejected(self, tmp_path, capsys):
        # gains 0 and 2^61 - 1 coincide mod p
        edges = [
            {"tail": "a", "head": "b", "gain": [0]},
            {"tail": "a", "head": "b", "gain": [2**61 - 1]},
        ]
        doc = {**FIG2, "periodicity": 1, "edges": edges}
        code, out, err = run(capsys, "rigid", write(tmp_path, doc))
        assert code == EXIT_INVALID and out == "" and "2^60" in err

    @pytest.mark.parametrize("gains", [[[2**60]], [[2**60], [0]]])
    def test_body_bar_gain_bound(self, tmp_path, capsys, gains):
        # one bar of gain 2^60 is refused as two bars are, though no bar
        # deletion of it keeps the large gain
        edges = [{"tail": "b0", "head": "b1", "gain": g} for g in gains]
        doc = {"dim": 2, "periodicity": 1, "mode": "body-bar", "vertices": ["b0", "b1"], "edges": edges}
        code, out, err = run(capsys, "bodybar", "global", write(tmp_path, doc))
        assert code == EXIT_INVALID and out == "" and "2^60" in err

    @pytest.mark.parametrize("target", ["missing/path.csv", "."])
    def test_out_not_writable(self, tmp_path, capsys, target):
        out_path = str(tmp_path / target)
        code, out, err = run(capsys, "flexpath", write(tmp_path, FIG2_WITH_PATH), "--out", out_path)
        assert code == EXIT_INVALID and out == ""
        assert err.startswith(f"error: cannot write {out_path}: ") and "Traceback" not in err

    @pytest.mark.parametrize("where", ["placement", "lattice"])
    def test_coordinate_beyond_float_range(self, tmp_path, capsys, where):
        doc = json.loads(json.dumps(FIG2_WITH_PATH))
        if where == "lattice":
            doc["lattice"][0][0] = "1e400"
        else:
            doc["placement"]["b"][0] = doc["q"]["b"][0] = "1e400"
        out_csv = tmp_path / "path.csv"
        code, out, err = run(capsys, "flexpath", write(tmp_path, doc), "--out", str(out_csv))
        assert code == EXIT_INVALID and out == "" and "float range" in err
        assert not out_csv.exists()

    @pytest.mark.parametrize("content", [b"[" * 100000, b'{"dim": "\xe9"}'], ids=["deep", "latin-1"])
    def test_unreadable_json(self, tmp_path, capsys, content):
        path = tmp_path / "doc.json"
        path.write_bytes(content)
        code, out, err = run(capsys, "rigid", str(path))
        assert code == EXIT_INVALID and out == ""
        assert err.startswith(f"error: {path}: not valid JSON: ") and "Traceback" not in err

    @pytest.mark.parametrize("coordinate", ["1e10000000", "-1E-10000000", "1e4301"])
    def test_exponent_beyond_int_limit(self, tmp_path, capsys, coordinate):
        doc = json.loads(json.dumps(FIG2_WITH_PATH))
        doc["placement"]["b"][0] = coordinate
        start = time.perf_counter()
        code, out, err = run(capsys, "rigid", write(tmp_path, doc))
        assert time.perf_counter() - start < 1
        assert code == EXIT_INVALID and out == ""
        where = f"{tmp_path / 'doc.json'}: placement.b"
        assert err == f"error: {where}: exponent of {coordinate!r} is beyond 4300 in magnitude\n"

    @pytest.mark.parametrize(
        "content, message",
        [
            (None, "cannot read {path}: "),
            ("[[1, 0], [0", "{path}: not valid JSON: "),
            ("[[1], [0]]", "{path}: expected a 2x2 matrix"),
            ('[[1, 0], [0, "x"]]', "{path}[1][1]: bad rational 'x'"),
            ("[[1, 2], [2, 4]]", "{path}: lattice columns are not linearly independent"),
        ],
        ids=["missing", "not-json", "shape", "entry", "dependent"],
    )
    def test_lattice_file_messages_name_the_file(self, tmp_path, capsys, content, message):
        lat = tmp_path / "lat.json"
        if content is not None:
            lat.write_text(content)
        code, out, err = run(capsys, "rigid", write(tmp_path, FIG2), "--lattice-file", str(lat))
        assert code == EXIT_INVALID and out == ""
        assert err.startswith("error: " + message.format(path=lat)) and "Traceback" not in err

    def test_covering_takes_no_lattice_file(self, tmp_path, capsys):
        lat = write(tmp_path, [[1, 0], [0, 1]], "lat.json")
        code, out, _ = run(capsys, "covering", write(tmp_path, FIG2), "--lattice-file", lat)
        assert code == EXIT_INVALID and out == ""


class TestBodyBar:
    def test_global(self, tmp_path, capsys):
        code, out, _ = run(capsys, "bodybar", "global", write(tmp_path, BODYBAR))
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["status"] == "GloballyRigid"
        assert payload["reason"] == "bar-redundant-and-rank"

    def test_counts(self, tmp_path, capsys):
        code, out, _ = run(capsys, "bodybar", "counts", write(tmp_path, BODYBAR))
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["rigid"] is True and payload["target"] == 1

    def test_build_roundtrip(self, tmp_path, capsys):
        code, out, _ = run(capsys, "bodybar", "build", write(tmp_path, BODYBAR))
        assert code == EXIT_OK
        built_doc = json.loads(out)
        assert built_doc["mode"] == "bar-joint"
        # the emitted expansion is itself a valid input document and its
        # rigidity verdict matches the counts verdict above
        code, out, _ = run(capsys, "rigid", write(tmp_path, built_doc, "built.json"))
        assert code == EXIT_OK and json.loads(out)["rigid"] is True

    def test_global_without_bars(self, tmp_path, capsys):
        path = write(tmp_path, NO_BARS)
        code, out, _ = run(capsys, "bodybar", "global", path)
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["status"] == "NotGloballyRigid"
        assert payload["detail"] == {"bar_deletions": []}
        _, out, _ = run(capsys, "bodybar", "counts", path)
        assert json.loads(out)["rigid"] is False

    @pytest.mark.parametrize("action", ["counts", "build"])
    def test_lattice_file_read_by_global_only(self, tmp_path, capsys, action):
        path, missing = write(tmp_path, BODYBAR), str(tmp_path / "missing.json")
        code, _, _ = run(capsys, "bodybar", action, path, "--lattice-file", missing)
        assert code == EXIT_OK
        code, _, _ = run(capsys, "bodybar", "global", path, "--lattice-file", missing)
        assert code == EXIT_INVALID

    def test_edge_cap_enforced(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "bodybar", "counts", write(tmp_path, BODYBAR), "--edge-cap", "1"
        )
        assert code == EXIT_INVALID and "cap" in err


class TestFlexPath:
    def test_fig2_flip_certificate(self, tmp_path, capsys):
        code, out, _ = run(capsys, "flexpath", write(tmp_path, FIG2_WITH_PATH))
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["endpoints_exact"] is True
        assert payload["all_edges_preserved"] is True
        assert payload["flexibility"] is True
        assert payload["csv"] is None

    def test_csv_output(self, tmp_path, capsys):
        out_csv = tmp_path / "path.csv"
        code, out, _ = run(
            capsys,
            "flexpath",
            write(tmp_path, FIG2_WITH_PATH),
            "--samples",
            "3",
            "--window",
            "0",
            "--out",
            str(out_csv),
        )
        assert code == EXIT_OK and json.loads(out)["csv"] == str(out_csv)
        with open(out_csv, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "vertex", "shift", "x1", "x2", "x3", "x4"]
        assert len(rows) == 1 + 3 * 2  # header + samples x orbits

    def test_missing_lattice(self, tmp_path, capsys):
        code, _, err = run(capsys, "flexpath", write(tmp_path, FIG2))
        assert code == EXIT_INVALID and "lattice" in err

    def test_missing_placement(self, tmp_path, capsys):
        doc = {**FIG2, "lattice": [[1, 0], [0, 1]]}
        code, _, err = run(capsys, "flexpath", write(tmp_path, doc))
        assert code == EXIT_INVALID and "placement" in err


class TestCovering:
    def test_json_counts(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "covering", write(tmp_path, FIG2), "--window", "1"
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert len(payload["vertices"]) == 2 * 3**2

    def test_dot_format(self, tmp_path, capsys):
        code, out, _ = run(
            capsys,
            "covering",
            write(tmp_path, FIG2),
            "--window",
            "0",
            "--format",
            "dot",
        )
        assert code == EXIT_OK
        assert out.startswith("graph covering {")
        assert '"a|(0,0)" -- "b|(0,0)";' in out

    def test_dot_escapes_quotes_and_backslashes(self, tmp_path, capsys):
        doc = {
            "dim": 2,
            "periodicity": 0,
            "mode": "bar-joint",
            "vertices": ['a"b', "c\\d"],
            "edges": [{"tail": 'a"b', "head": "c\\d", "gain": []}],
        }
        code, out, _ = run(capsys, "covering", write(tmp_path, doc), "--format", "dot")
        assert code == EXIT_OK
        assert out.splitlines() == [
            "graph covering {",
            '  "a\\"b|()";',
            '  "c\\\\d|()";',
            '  "a\\"b|()" -- "c\\\\d|()";',
            "}",
        ]
        quoted = r'"(?:[^"\\]|\\.)*"'  # a backslash escapes the next character
        assert all(re.fullmatch(rf"  {quoted}( -- {quoted})?;", line) for line in out.splitlines()[1:-1])


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("rigid",),
            ("global",),
            ("vrr",),
        ],
    )
    def test_byte_identical_stdout(self, tmp_path, capsys, argv):
        path = write(tmp_path, FIG2)
        _, first, _ = run(capsys, *argv, path, "--seed", "5")
        _, second, _ = run(capsys, *argv, path, "--seed", "5")
        assert first == second


class TestEncoding:
    def test_utf8_whatever_the_locale(self, tmp_path):
        # JSON is UTF-8 (RFC 8259) and Graphviz reads DOT as UTF-8: a vertex
        # "\u00e9" reads and writes the same under the C locale as under
        # UTF-8 mode
        doc = json.loads(json.dumps(FIG2_WITH_PATH).replace('"b"', '"\u00e9"'))
        path = tmp_path / "doc.json"
        path.write_bytes(json.dumps(doc, ensure_ascii=False).encode("utf-8"))
        src = str(Path(__file__).resolve().parent.parent / "src")
        out = tmp_path / "path.csv"
        commands = (["flexpath", str(path), "--out", str(out)], ["covering", str(path), "--format", "dot", "--window", "0"])
        for command in commands:
            results = []
            for env in ({"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}, {"PYTHONUTF8": "1"}):
                out.unlink(missing_ok=True)
                env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]), **env)
                done = subprocess.run([sys.executable, "-m", "perigid.cli", *command], env=env, capture_output=True)
                table = out.read_bytes() if out.exists() else None
                results.append((done.returncode, done.stdout, table))
            assert results[0] == results[1], command
            code, stdout, table = results[0]
            assert code == EXIT_OK and "\u00e9".encode("utf-8") in (table or stdout), command


class TestDocumentParsing:
    def test_rational_strings(self):
        doc = parse_document(FIG2_WITH_PATH)
        from fractions import Fraction

        assert doc.placement["b"] == (Fraction(2, 5), Fraction(3, 7))
        assert doc.q["b"][1] == Fraction(-3, 7)

    def test_exponent_within_int_limit_parses(self):
        assert parse_rational("1e400", "x") == 10**400
        assert parse_rational("-2.5E-4300", "x") == Fraction(-25, 10**4301)
        with pytest.raises(DocumentError, match="beyond 4300"):
            parse_rational("1e-4301", "x")

    def test_auto_edge_ids(self):
        doc = parse_document(FIG2)
        assert [e.id for e in doc.graph.edges] == ["e0", "e1"]
