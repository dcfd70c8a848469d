"""Self-tests of the benchmark's inputs.

    python3 -m pytest bench/test_bench.py

The same seed must give byte-identical instances, fixture documents and
expected verdicts, and the construction rules in instances.py must agree
with an independent sympy rank of the rigidity matrix on tiny instances.
"""

import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import instances as gen  # noqa: E402
import workloads  # noqa: E402

sympy = pytest.importorskip("sympy")


@pytest.fixture(scope="module")
def pg():
    import perigid

    return perigid


def _expected(name, insts, pg):
    if name == "bodybar-mix":
        oracle = workloads.BodyBarOracle(pg)
        return [oracle.expected(i, workloads.body_bar_graph(pg, i))["status"] for i in insts]
    return [workloads.expected_global(i) for i in insts if "vertices" in i]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_bytes(name, pg, tmp_path):
    builds = []
    for run in ("a", "b"):
        work = tmp_path / run
        work.mkdir()
        insts, ops = workloads.WORKLOADS[name](pg, 7, work, HERE.parent)
        files = {p.name: p.read_bytes() for p in sorted(work.iterdir())}
        builds.append((gen.canonical_json(insts), [op.label for op in ops], files, _expected(name, insts, pg)))
    assert builds[0] == builds[1]
    other, _ = workloads.WORKLOADS[name](pg, 8, tmp_path / "a", HERE.parent)
    assert gen.canonical_json(other) != builds[0][0]


def test_every_seed_builds(pg, tmp_path):
    for seed in range(15):
        for name, build in workloads.WORKLOADS.items():
            work = tmp_path / f"{name}-{seed}"
            work.mkdir()
            _, ops = build(pg, seed, work, HERE.parent)
            assert len({op.label for op in ops}) == len(ops)


def _sympy_rank(d, k, verts, edges, rng):
    lattice = [[rng.randint(1, 2**20) for _ in range(k)] for _ in range(d)]
    p = {v: [rng.randint(1, 2**20) for _ in range(d)] for v in verts}
    col = {v: i * d for i, v in enumerate(verts)}
    rows = []
    for t, h, g in edges:
        row = [0] * (d * len(verts))
        for i in range(d):
            x = p[t][i] - p[h][i] - sum(lattice[i][j] * g[j] for j in range(k))
            row[col[t] + i] += x
            row[col[h] + i] -= x
        rows.append(row)
    if not rows:
        return 0
    return sympy.Matrix(rows).rank()


def _generic_rank(d, k, verts, edges, seed):
    rng = random.Random(seed)
    return max(_sympy_rank(d, k, verts, edges, rng) for _ in range(2))


TINY = [(2, 0, 4), (2, 1, 4), (2, 2, 3), (3, 0, 5), (3, 1, 5), (3, 2, 4), (3, 3, 3), (2, 1, 2), (3, 1, 2)]


@pytest.mark.parametrize("d,k,n", TINY)
@pytest.mark.parametrize("kind", [gen.MINIMAL, gen.OVERBRACED, gen.FLEXIBLE])
def test_construction_matches_sympy(d, k, n, kind):
    for seed in range(3):
        inst = gen.bar_joint_instance(seed, "tiny", d, k, n, kind)
        verts, edges = inst["vertices"], inst["edges"]
        assert _generic_rank(d, k, verts, edges, seed) == inst["rank"]
        if n >= d + 1 or k == d:
            assert inst["target"] == gen.standard_target(n, d, k)
        assert inst["rigid"] == (inst["rank"] == inst["target"])
        for v, rigid in inst.get("deletion_rigid", {}).items():
            rest = [v2 for v2 in verts if v2 != v]
            kept = [e for e in edges if v not in (e[0], e[1])]
            got = _generic_rank(d, k, rest, kept, seed) == gen.standard_target(n - 1, d, k)
            assert got == rigid, (inst["label"], v)
        if n <= d and k < d:
            # saturated-complete branch: the target is the rank of all edges
            # u < v with gains in a window; radius 2 already saturates here
            window = [
                (u, w, g)
                for i, u in enumerate(verts)
                for w in verts[i + 1 :]
                for g in gen._gain_box(k, 2)
            ]
            assert _generic_rank(d, k, verts, window, seed) == inst["target"]


def test_vector_rank_matches_sympy():
    rng = random.Random(0)
    for _ in range(50):
        k = rng.randint(1, 3)
        vecs = [tuple(rng.randint(-2, 2) for _ in range(k)) for _ in range(rng.randint(1, 4))]
        assert gen.vector_rank(vecs, k) == sympy.Matrix(vecs).rank()


def test_reflected_placement_preserves_edges():
    inst = gen.bar_joint_instance(3, "flex", 3, 2, 6, gen.MINIMAL)
    lattice, p, q = gen.reflected_placement(random.Random(3), 3, 2, inst["vertices"])

    def length(place, t, h, g):
        diff = [
            Fraction(place[t][i]) - Fraction(place[h][i]) - sum(lattice[i][j] * g[j] for j in range(2))
            for i in range(3)
        ]
        return sum(x * x for x in diff)

    assert p != q
    for t, h, g in inst["edges"]:
        assert length(p, t, h, g) == length(q, t, h, g)


def test_too_few_bars_is_flexible_by_counts():
    for d, k, n in [(2, 0, 2), (2, 1, 3), (3, 0, 2)]:
        inst = gen.body_bar_instance(0, "few", d, k, n, -1)
        assert len(inst["edges"]) == inst["target"] - 1
        assert all(any(b in (t, h) for _, t, h, _ in inst["edges"]) for b in inst["bodies"])


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_bodybar_mix_has_every_verdict_class(seed, pg, tmp_path):
    """Flexible, rigid-not-redundant and bar-redundant instances occur in
    bodybar-mix for both dimensions (checked on its 2-body instances)."""
    insts, _ = workloads.bodybar_mix(pg, seed, tmp_path, HERE.parent)
    oracle = workloads.BodyBarOracle(pg)
    kinds = {2: set(), 3: set()}
    for inst in insts:
        if len(inst["bodies"]) == 2:
            kinds[inst["d"]].add(oracle.expected(inst, workloads.body_bar_graph(pg, inst))["kind"])
    everything = {workloads.FLEXIBLE_BB, workloads.RIGID_BB, workloads.REDUNDANT_BB}
    assert kinds == {2: everything, 3: everything}
