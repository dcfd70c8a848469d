"""The three workloads: seeded inputs, the timed op of each, and its check.

A workload is built from the seed alone (the functions in `WORKLOADS`),
which is the set-up the benchmark times.  Each `Op` runs one instance to its final verdict, or one
CLI invocation, and `check` classifies the output outside the timed region:

- "ok": the output matches what the construction guarantees; the message
  names the verdict class, so that a run can report its verdict mix;
- "wrong": a verdict or output contradicts it (this makes the run incorrect);
- "error": the op raised, or the CLI exited with a code other than 0 or 2.

Every op of a round runs once per round, and rounds repeat unchanged.
"""

from __future__ import annotations

import csv
import json
import os
import random
import subprocess
import sys
from math import comb
from pathlib import Path

import instances as gen
from instances import FLEXIBLE, MINIMAL, OVERBRACED

OK, WRONG, ERROR = "ok", "wrong", "error"

GLOBALLY_RIGID = "GloballyRigid"
NOT_GLOBALLY_RIGID = "NotGloballyRigid"
UNKNOWN = "Unknown"


class Op:
    __slots__ = ("label", "d", "nv", "run", "check")

    def __init__(self, label, d, nv, run, check):
        self.label = label
        self.d = d
        self.nv = nv  # quotient vertex count, for the |V| buckets; None if not bar-joint
        self.run = run  # run(tracer) -> output; the timed part
        self.check = check  # check(output) -> (OK | WRONG | ERROR, message)


def _verdict(problem: str | None, kind: str = ""):
    return (OK, kind) if problem is None else (WRONG, problem)


# ---------------------------------------------------------------- expectations


def expected_global(inst: dict):
    """(status, reason) the global cascade must reach, or None when only its
    implications can be checked (over-braced graphs past the small-graph
    bound)."""
    d, k, n, g = inst["d"], inst["k"], len(inst["vertices"]), inst["gain_rank"]
    if not inst["rigid"]:
        return NOT_GLOBALLY_RIGID, "not-rigid"
    if n >= 2 and g < k:
        return NOT_GLOBALLY_RIGID, "gain-rank-below-k"
    if n <= d - k + 1:
        return GLOBALLY_RIGID, "small-graph-corollary"
    deletion = inst.get("deletion_rigid")
    if deletion is None:
        return None
    if all(deletion.values()) and (k < d or g == d):
        return GLOBALLY_RIGID, "thm-2-rigid-and-rank"
    return UNKNOWN, "inconclusive"


def check_rigidity(inst: dict, verdict: dict) -> str | None:
    d, k, n = inst["d"], inst["k"], len(inst["vertices"])
    method = "standard-count" if (n >= d + 1 or k == d) else "saturated-complete-comparison"
    got = (verdict["rigid"], verdict["achieved_rank"], verdict["target_rank"], verdict["method"])
    want = (inst["rigid"], inst["rank"], inst["target"], method)
    if got != want:
        return f"rigidity (rigid, rank, target, method) {got} != {want}"
    return None


def check_deletions(inst: dict, deletions: list[dict]) -> str | None:
    """Vertex-deletion details against the construction: exact where all edge
    sets are independent, else the count bound every rigid deletion meets."""
    if [x["vertex"] for x in deletions] != inst["vertices"]:
        return "vertex deletions do not cover the vertices in order"
    exact = inst.get("deletion_rigid")
    d, k, n = inst["d"], inst["k"], len(inst["vertices"])
    deg = gen.degrees(inst["vertices"], inst["edges"])
    for x in deletions:
        v = x["vertex"]
        if exact is not None and x["rigid"] != exact[v]:
            return f"deletion of {v}: rigid={x['rigid']}, expected {exact[v]}"
        if n - 1 >= d + 1 and x["rigid"] and len(inst["edges"]) - deg[v] < gen.standard_target(n - 1, d, k):
            return f"deletion of {v} reported rigid with too few edges"
    return None


def check_global(inst: dict, verdict: dict) -> str | None:
    problem = check_rigidity(inst, verdict["detail"]["rigidity"])
    if problem:
        return problem
    status, reason, detail = verdict["status"], verdict["reason"], verdict["detail"]
    want = expected_global(inst)
    if want is not None and (status, reason) != want:
        return f"global verdict {(status, reason)} != {want}"
    deletions = detail.get("vertex_deletions")
    if deletions is not None:
        problem = check_deletions(inst, deletions)
        if problem:
            return problem
        all_rigid = all(x["rigid"] for x in deletions)
        if status == GLOBALLY_RIGID and not all_rigid:
            return "GloballyRigid with a non-rigid vertex deletion"
        if status == UNKNOWN and all_rigid and (inst["k"] < inst["d"] or inst["gain_rank"] == inst["d"]):
            return "Unknown although every vertex deletion is rigid"
    elif want is None:
        return f"cascade stopped at {reason!r} before the vertex-deletion loop"
    return None


FLEXIBLE_BB, RIGID_BB, REDUNDANT_BB = "flexible", "rigid-not-bar-redundant", "bar-redundant"


class BodyBarOracle:
    """Expected body-bar answers from `count_rank` on the multigraph and on
    the multigraph minus each bar, computed once per instance and outside
    every timed region."""

    def __init__(self, pg):
        self.pg = pg
        self._cache: dict[str, dict] = {}

    def expected(self, inst: dict, graph) -> dict:
        got = self._cache.get(inst["label"])
        if got is None:
            bars = {
                eid: self.pg.count_rank(graph.delete_edge(eid), inst["d"]).rigid
                for eid, *_ in inst["edges"]
            }
            redundant = all(bars.values())
            if not self.pg.count_rank(graph, inst["d"]).rigid:
                kind = FLEXIBLE_BB
            else:
                kind = REDUNDANT_BB if redundant else RIGID_BB
            if not redundant:
                status = (NOT_GLOBALLY_RIGID, "not-bar-redundantly-rigid")
            elif inst["k"] == inst["d"] and inst["gain_rank"] != inst["d"]:
                status = (NOT_GLOBALLY_RIGID, "gain-rank-below-k")
            else:
                status = (GLOBALLY_RIGID, "bar-redundant-and-rank")
            got = {"bars": bars, "status": status, "kind": kind}
            self._cache[inst["label"]] = got
        return got


def check_counts(inst: dict, report: dict) -> str | None:
    target, m = inst["target"], len(inst["edges"])
    if report["target"] != target:
        return f"count target {report['target']} != {target}"
    if report["rigid"] != (report["matroid_rank"] == target) or report["matroid_rank"] > min(m, target):
        return f"count rank {report['matroid_rank']} inconsistent with rigid={report['rigid']}"
    if inst["offset"] < 0 and report["rigid"]:
        return "fewer bars than the target, yet rigid by counts"
    if report["rigid"] and len(report["basis"]) != target:
        return "basis size differs from the target"
    return None


def check_body_bar_global(inst: dict, expected: dict, verdict: dict) -> str | None:
    got = (verdict["status"], verdict["reason"])
    if got != expected["status"]:
        return f"body-bar verdict {got} != {expected['status']}"
    for x in verdict["detail"]["bar_deletions"]:
        if x["rigid"] != expected["bars"][x["edge"]]:
            return f"deletion of bar {x['edge']}: rigid={x['rigid']}, counts say {expected['bars'][x['edge']]}"
    return None


# ---------------------------------------------------------------- conversions


def bar_joint_graph(pg, inst: dict):
    return pg.gain_graph(inst["k"], inst["vertices"], [(t, h, tuple(g)) for t, h, g in inst["edges"]])


def body_bar_graph(pg, inst: dict):
    edges = [(i, t, h, tuple(g)) for i, t, h, g in inst["edges"]]
    return pg.gain_graph(inst["k"], inst["bodies"], edges, "body-bar")


def bar_joint_document(inst: dict) -> dict:
    return {
        "dim": inst["d"],
        "periodicity": inst["k"],
        "mode": "bar-joint",
        "vertices": inst["vertices"],
        "edges": [{"tail": t, "head": h, "gain": g} for t, h, g in inst["edges"]],
    }


def body_bar_document(inst: dict) -> dict:
    return {
        "dim": inst["d"],
        "periodicity": inst["k"],
        "mode": "body-bar",
        "vertices": inst["bodies"],
        "edges": [{"id": i, "tail": t, "head": h, "gain": g} for i, t, h, g in inst["edges"]],
    }


# ---------------------------------------------------------------- barjoint-grow

# (d, k, |V|) cells.  Sizes are staggered across k so that every |V| bucket
# from 8 to 24 holds instances of both dimensions.  Each cell gets three
# minimally rigid and three flexible instances, and three over-braced ones
# up to |V| = 16 (d = 2) or 13 (d = 3); past that one over-braced decision
# takes over a second at the time of writing.  Three instances of each kind
# keep the latency quantiles from hinging on a single graph's structure.
BARJOINT_CELLS = [
    (2, 0, 8), (2, 0, 14), (2, 0, 20),
    (2, 1, 10), (2, 1, 16), (2, 1, 22),
    (2, 2, 12), (2, 2, 18), (2, 2, 24),
    (3, 0, 8), (3, 0, 12), (3, 0, 16),
    (3, 1, 9), (3, 1, 13),
    (3, 2, 10), (3, 2, 14),
    (3, 3, 8), (3, 3, 12),
]
BARJOINT_COPIES = 3
OVERBRACED_MAX_V = {2: 16, 3: 13}


def barjoint_grow(pg, seed: int, workdir: Path, root: Path):
    insts = [
        gen.bar_joint_instance(seed, f"d{d}k{k}n{n}-{kind}{c}", d, k, n, kind)
        for d, k, n in BARJOINT_CELLS
        for kind in (MINIMAL, OVERBRACED, FLEXIBLE)
        if kind != OVERBRACED or n <= OVERBRACED_MAX_V[d]
        for c in range(BARJOINT_COPIES)
    ]
    ops = []
    for inst in insts:
        graph = bar_joint_graph(pg, inst)
        d = inst["d"]

        def run(tracer, graph=graph, d=d):
            return pg.decide_global_rigidity(graph, d)

        def check(verdict, inst=inst):
            return _verdict(check_global(inst, verdict.to_json()), verdict.status)

        ops.append(Op(inst["label"], d, len(inst["vertices"]), run, check))
    random.Random(f"order:{seed}").shuffle(ops)
    return insts, ops


# ---------------------------------------------------------------- bodybar-mix

# (d, k, bodies, bar offsets from the target, copies).  Mostly d = 2 with
# 2-4 bodies; a minority with d = 3 and 2 bodies, which cost 1.5-3 s each at
# the time of writing.  Only k = 0 for d = 3: with k = 1 and one bar over the
# target a decision takes 9-10 s.  Offset -1 only for 3-4 bodies where k = 2
# or k = 0, since their other offsets take several seconds each.
BODYBAR_CELLS = [
    (2, 0, 2, (-1, 0, 1), 3),
    (2, 1, 2, (-1, 0, 1), 3),
    (2, 2, 2, (-1, 0, 1), 3),
    (2, 0, 3, (-1, 0, 1), 1),
    (2, 1, 3, (-1, 0, 1), 1),
    (2, 2, 3, (-1,), 1),
    (2, 0, 4, (-1,), 1),
    (3, 0, 2, (-1, 0, 1), 1),
]


def bodybar_mix(pg, seed: int, workdir: Path, root: Path):
    insts = [
        gen.body_bar_instance(seed, f"d{d}k{k}b{n}o{off:+d}c{c}", d, k, n, off)
        for d, k, n, offsets, copies in BODYBAR_CELLS
        for off in offsets
        for c in range(copies)
    ]
    oracle = BodyBarOracle(pg)
    ops = []
    for inst in insts:
        graph = body_bar_graph(pg, inst)
        d = inst["d"]

        def run(tracer, graph=graph, d=d):
            return pg.count_rank(graph, d), pg.decide_body_bar_global(graph, d)

        def check(out, inst=inst, graph=graph):
            report, verdict = out
            expected = oracle.expected(inst, graph)
            problem = check_counts(inst, report.to_json())
            if problem is None:
                problem = check_body_bar_global(inst, expected, verdict.to_json())
            return _verdict(problem, expected["kind"])

        ops.append(Op(inst["label"], d, None, run, check))
    random.Random(f"order:{seed}").shuffle(ops)
    return insts, ops


# ---------------------------------------------------------------- cli-small

FLEX_SAMPLES = 11


class Cli:
    """Runs `perigid` as a child process, one at a time.

    Untraced ops run `python -m perigid.cli`; traced ops run the benchmark's
    launcher, which installs the same span wrappers before calling
    `perigid.cli.main`, and their spans are merged into the parent's tracer.
    """

    def __init__(self, root: Path, workdir: Path):
        here = Path(__file__).resolve().parent
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.traced_env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(here)]))
        self.launcher = str(here / "cli_launcher.py")
        self.spans_file = str(workdir / "child-spans.jsonl")

    def __call__(self, tracer, args):
        if tracer is None:
            cmd, env = [sys.executable, "-m", "perigid.cli", *args], self.env
        else:
            cmd, env = [sys.executable, self.launcher, self.spans_file, *args], self.traced_env
        proc = subprocess.run(
            cmd, cwd=self.workdir, env=env, stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=120
        )
        if tracer is not None:
            with open(self.spans_file) as fh:
                tracer.add([tuple(json.loads(line)) for line in fh], tracer.op)
            os.remove(self.spans_file)
        return proc


def _cli_check(expect_code: int, check_output=None):
    def check(proc):
        if proc.returncode not in (0, 2):
            tail = proc.stderr.strip().splitlines()[-1:] or [""]
            return ERROR, f"exit {proc.returncode}: {tail[0]}"
        if proc.returncode != expect_code:
            return WRONG, f"exit {proc.returncode}, expected {expect_code}"
        if check_output is None:
            return OK, ""
        return _verdict(check_output(proc.stdout))

    return check


def cli_small(pg, seed: int, workdir: Path, root: Path):
    # 43 ops make a round of about 5.7 s at the nominal machine speed, so a
    # 20 s run completes 4 rounds with a margin on both sides.  Near a round
    # boundary the round count, and with it the tail percentile, would
    # change from run to run.
    cli = Cli(root, workdir)
    oracle = BodyBarOracle(pg)
    insts = []
    ops = []

    def write(name: str, doc) -> str:
        path = workdir / name
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        return name

    def add(label, d, nv, args, expect_code=0, check_output=None):
        ops.append(Op(label, d, nv, lambda tracer, args=args: cli(tracer, args), _cli_check(expect_code, check_output)))

    def bar_joint(d, k, n, kind, tag):
        inst = gen.bar_joint_instance(seed, f"cli-{tag}-d{d}k{k}n{n}-{kind}", d, k, n, kind)
        insts.append(inst)
        return inst, write(f"{tag}-{len(insts)}.json", bar_joint_document(inst))

    def body_bar(d, k, n, off, tag):
        inst = gen.body_bar_instance(seed, f"cli-{tag}-d{d}k{k}b{n}o{off:+d}", d, k, n, off)
        insts.append(inst)
        return inst, write(f"{tag}-{len(insts)}.json", body_bar_document(inst))

    # rigid, including |V| <= d with k < d (the saturated-complete branch)
    for d, k, n, kind in [(2, 1, 8, MINIMAL), (3, 0, 6, OVERBRACED), (2, 2, 10, FLEXIBLE),
                          (3, 3, 7, MINIMAL), (3, 1, 2, MINIMAL), (3, 2, 3, FLEXIBLE), (2, 1, 2, MINIMAL)]:
        inst, path = bar_joint(d, k, n, kind, "rigid")
        add(f"rigid:{inst['label']}", d, n, ["rigid", path, "--seed", str(seed)],
            check_output=lambda out, inst=inst: check_rigidity(inst, json.loads(out)))

    def check_vrr(out, inst):
        got = json.loads(out)
        problem = check_deletions(inst, got["vertices"])
        if problem is None and got["vertex_redundantly_rigid"] != all(x["rigid"] for x in got["vertices"]):
            problem = "vertex_redundantly_rigid disagrees with the deletions"
        return problem

    for d, k, n, kind in [(2, 0, 7, MINIMAL), (3, 1, 6, FLEXIBLE), (2, 1, 9, OVERBRACED), (3, 2, 7, MINIMAL)]:
        inst, path = bar_joint(d, k, n, kind, "vrr")
        add(f"vrr:{inst['label']}", d, n, ["vrr", path], check_output=lambda out, inst=inst: check_vrr(out, inst))

    for d, k, n, kind in [(2, 2, 8, MINIMAL), (3, 2, 9, OVERBRACED), (2, 0, 10, FLEXIBLE),
                          (3, 1, 2, MINIMAL), (2, 1, 2, MINIMAL)]:
        inst, path = bar_joint(d, k, n, kind, "global")
        add(f"global:{inst['label']}", d, n, ["global", path, "--seed", str(seed)],
            check_output=lambda out, inst=inst: check_global(inst, json.loads(out)))

    # body-bar pipeline on small d = 2 documents
    for d, k, n, off in [(2, 1, 2, 0), (2, 0, 3, -1), (2, 2, 3, 1)]:
        inst, path = body_bar(d, k, n, off, "counts")
        add(f"counts:{inst['label']}", d, None, ["bodybar", "counts", path],
            check_output=lambda out, inst=inst: check_counts(inst, json.loads(out)))

    def check_build(out, inst):
        doc = json.loads(out)
        d, n, m = inst["d"], len(inst["bodies"]), len(inst["edges"])
        deg = gen.degrees(inst["bodies"], [(t, h, g) for _, t, h, g in inst["edges"]])
        joints = n * (d + 1) + 2 * m
        edges = m + sum(comb(d + 1 + deg[b], 2) for b in inst["bodies"])
        if (doc["mode"], len(doc["vertices"]), len(doc["edges"])) != ("bar-joint", joints, edges):
            return f"expansion has {len(doc['vertices'])} joints and {len(doc['edges'])} edges, expected {joints} and {edges}"
        return None

    for d, k, n, off in [(2, 1, 3, 1), (2, 2, 2, 0), (2, 0, 2, 1)]:
        inst, path = body_bar(d, k, n, off, "build")
        add(f"build:{inst['label']}", d, None, ["bodybar", "build", path],
            check_output=lambda out, inst=inst: check_build(out, inst))

    for d, k, n, off in [(2, 0, 2, 1), (2, 1, 2, -1)]:
        inst, path = body_bar(d, k, n, off, "bbglobal")
        graph = body_bar_graph(pg, inst)
        add(f"bbglobal:{inst['label']}", d, None, ["bodybar", "global", path],
            check_output=lambda out, inst=inst, graph=graph: check_body_bar_global(
                inst, oracle.expected(inst, graph), json.loads(out)))

    # flexpath: q reflects the coordinate orthogonal to the lattice span
    def check_flex(out, inst, csv_path):
        cert = json.loads(out)
        n, k = len(inst["vertices"]), inst["k"]
        flags = tuple(cert[f] for f in ("endpoints_exact", "all_edges_preserved", "all_pairs_constant", "flexibility"))
        if flags != (True, True, True, False):
            return f"certificate flags {flags} for a reflected placement"
        if len(cert["edges"]) != len(inst["edges"]) or len(cert["pairs"]) != comb(n, 2) * (k + 1):
            return "certificate edge or pair count is wrong"
        with open(workdir / csv_path, newline="") as fh:
            rows = sum(1 for _ in csv.reader(fh))
        if rows != 1 + FLEX_SAMPLES * n * 3**k:
            return f"csv has {rows} rows, expected {1 + FLEX_SAMPLES * n * 3**k}"
        return None

    for d, k, n in [(2, 1, 10), (3, 2, 25), (2, 0, 40)]:
        inst, _ = bar_joint(d, k, n, MINIMAL, "flexpath")
        lattice, p, q = gen.reflected_placement(random.Random(f"flex:{seed}:{n}"), d, k, inst["vertices"])
        doc = dict(bar_joint_document(inst), lattice=lattice, placement=p, q=q)
        path = write(f"flexpath-{len(insts)}.json", doc)
        csv_path = f"flexpath-{len(insts)}.csv"
        add(f"flexpath:{inst['label']}", d, n, ["flexpath", path, "--samples", str(FLEX_SAMPLES), "--out", csv_path],
            check_output=lambda out, inst=inst, csv_path=csv_path: check_flex(out, inst, csv_path))

    # covering windows: |V| * (2w+1)^k vertices
    def check_cover(out, n, k, w, fmt):
        want = n * (2 * w + 1) ** k
        if fmt == "json":
            got = len(json.loads(out)["vertices"])
        else:
            got = sum(1 for line in out.splitlines() if line.endswith('";') and " -- " not in line)
        return None if got == want else f"covering window has {got} vertices, expected {want}"

    for d, k, n, w, fmt in [(2, 2, 6, 1, "json"), (3, 1, 10, 2, "json"), (2, 1, 8, 1, "dot"), (3, 0, 5, 3, "dot"),
                            (2, 1, 6, 2, "json")]:
        inst, path = bar_joint(d, k, n, OVERBRACED, "covering")
        add(f"covering-{fmt}:{inst['label']}", d, None, ["covering", path, "--window", str(w), "--format", fmt],
            check_output=lambda out, n=n, k=k, w=w, fmt=fmt: check_cover(out, n, k, w, fmt))

    # invalid inputs: each must exit 2.  `rigid --trials 0` and
    # `covering --window -1` exit 1 with a traceback at the time of writing;
    # they stay in the slice and count as failed until the CLI rejects them.
    base, base_path = bar_joint(2, 1, 6, MINIMAL, "invalid")
    bb, bb_path = body_bar(2, 1, 3, 1, "invalid")
    looped = bar_joint_document(base)
    looped["edges"] = looped["edges"] + [{"tail": "v0", "head": "v0", "gain": [1]}]
    short_gain = bar_joint_document(base)
    short_gain["edges"][0] = dict(short_gain["edges"][0], gain=[])
    invalid = [
        ["rigid", write("invalid-garbage.json", "{not json")],
        ["global", write("invalid-field.json", dict(bar_joint_document(base), colour="red"))],
        ["rigid", write("invalid-loop.json", looped)],
        ["rigid", bb_path],
        ["vrr", base_path, "--bogus"],
        ["global", "missing.json"],
        ["covering", write("invalid-gain.json", short_gain)],
        ["bodybar", "counts", bb_path, "--edge-cap", "3"],
        ["flexpath", base_path],
        ["rigid", base_path, "--trials", "0"],
        ["covering", base_path, "--window", "-1"],
    ]
    for args in invalid:
        add("invalid:" + " ".join(args), None, None, args, expect_code=2)
    random.Random(f"order:{seed}").shuffle(ops)
    return insts, ops


WORKLOADS = {
    "barjoint-grow": barjoint_grow,
    "bodybar-mix": bodybar_mix,
    "cli-small": cli_small,
}
