"""Acceptance suite: one criterion per test, one PASS/FAIL line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they print.
"""

import random
import time
from fractions import Fraction
from math import comb

from perigid.body_bar import build_body_bar_gain_graph, count_rank
from perigid.framework import generic_rank
from perigid.gain_graph import gain_graph, gain_rank, reverse_edge, switch
from perigid.motion import build_flex_path, verify_path
from perigid.rigidity import (
    GLOBALLY_RIGID,
    NOT_GLOBALLY_RIGID,
    decide_global_rigidity,
    is_rigid,
    is_vertex_redundantly_rigid,
)
from support import (
    are_congruent,
    are_equivalent,
    complete_graph,
    delete_vertex,
    fig2_flip_placement,
    fig2_framework,
    fig2_graph,
    four_cycle,
    pinned_rigidity_matrix,
    random_bar_joint_graph,
    random_body_bar_multigraph,
    random_generic_framework,
    rank,
    rigidity_matrix,
    triangle,
)


def report(number: int, name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} ({name}) failed"


def test_01_body_bar_count_matches_geometry():
    rng = random.Random(2024)
    start = time.monotonic()
    checked = 0
    mismatches = []
    while checked < 200:
        d = rng.choice([2, 3])
        k = rng.randint(0, d)
        g = random_body_bar_multigraph(rng, d, k)
        built = build_body_bar_gain_graph(g, d)
        combinatorial = count_rank(g, d).rigid
        geometric = is_rigid(built, d, seed=rng.randint(0, 10**6)).rigid
        if combinatorial != geometric:
            mismatches.append((d, k, g))
        checked += 1
    elapsed = time.monotonic() - start
    report(1, "body-bar count vs geometric rank (200 instances)",
           not mismatches and elapsed < 120)


def test_02_two_orbit_pipeline():
    g = fig2_graph()
    rigid = is_rigid(g, 2)
    vrr, _ = is_vertex_redundantly_rigid(g, 2)
    verdict = decide_global_rigidity(g, 2)
    ok = (
        rigid.rigid
        and vrr
        and gain_rank(g) == 1
        and verdict.status == NOT_GLOBALLY_RIGID
        and verdict.reason == "gain-rank-below-k"
    )
    report(2, "two-orbit example: rigid, 2-rigid, yet not globally rigid", ok)


def test_03_third_parallel_edge_globally_rigid():
    g = gain_graph(
        2,
        ["a", "b"],
        [("a", "b", (0, 0)), ("a", "b", (1, 0)), ("a", "b", (0, 1))],
    )
    verdict = decide_global_rigidity(g, 2)
    sub = [
        is_rigid(g, 2).rigid,
        is_rigid(delete_vertex(g, "a"), 2).rigid,
        is_rigid(delete_vertex(g, "b"), 2).rigid,
        gain_rank(g) == 2,
    ]
    ok = (
        all(sub)
        and verdict.status == GLOBALLY_RIGID
        and verdict.reason == "thm-2-rigid-and-rank"
    )
    report(3, "third parallel edge gives global rigidity with all sub-verdicts", ok)


def test_04_pinned_rank_identity():
    rng = random.Random(99)
    start = time.monotonic()
    failures = 0
    for _ in range(50):
        d = rng.choice([1, 2, 3])
        k = rng.randint(0, d)
        n = rng.randint(max(d - k, 1), 6)
        g = random_bar_joint_graph(rng, k, n, rng.randint(0, 10))
        fw = random_generic_framework(g, d, seed=rng.randint(0, 10**9))
        unpinned = rank(rigidity_matrix(fw))
        pinned = rank(pinned_rigidity_matrix(fw))
        if pinned != unpinned + d + comb(d - k, 2):
            failures += 1
    elapsed = time.monotonic() - start
    report(4, "pinned rank identity on 50 random frameworks", failures == 0 and elapsed < 60)


def test_05_flex_path_certificates():
    fw = fig2_framework()
    q = fig2_flip_placement()
    cert = verify_path(build_flex_path(fw, q), fw, q)
    flip_ok = (
        cert.endpoints_exact
        and cert.all_edges_preserved
        and cert.flexibility
    )
    same = verify_path(build_flex_path(fw, fw.placement), fw, fw.placement)
    identity_ok = same.all_pairs_constant and not same.flexibility
    report(5, "flip pair flex certificate and constant identity path", flip_ok and identity_ok)


def test_06_classical_reduction():
    ok = (
        is_rigid(triangle(), 2).rigid
        and not is_rigid(four_cycle(), 2).rigid
        and is_rigid(complete_graph(4), 2).rigid
    )
    report(6, "k=0 matches classical plane rigidity", ok)


def test_07_switch_reverse_invariance():
    rng = random.Random(7)
    corpus = [
        (fig2_graph(), 2),
        (gain_graph(2, ["a", "b"],
                    [("a", "b", (0, 0)), ("a", "b", (1, 0)), ("a", "b", (0, 1))]), 2),
        (triangle(), 2),
        (four_cycle(), 2),
        (random_bar_joint_graph(random.Random(41), 1, 3, 5), 2),
    ]
    ok = True
    for g, d in corpus:
        base = (
            generic_rank(g, d, seed=3),
            is_rigid(g, d, seed=3).rigid,
            decide_global_rigidity(g, d, seed=3).status,
        )
        mutated = g
        for step in range(100):
            v = rng.choice(mutated.vertices)
            gamma = tuple(rng.randint(-3, 3) for _ in range(g.k))
            mutated = switch(mutated, v, gamma)
            if mutated.edges and rng.random() < 0.5:
                mutated = reverse_edge(mutated, rng.choice(mutated.edges).id)
            if step % 20 == 19 or step == 99:
                now = (
                    generic_rank(mutated, d, seed=3),
                    is_rigid(mutated, d, seed=3).rigid,
                    decide_global_rigidity(mutated, d, seed=3).status,
                )
                if now != base:
                    ok = False
    report(7, "verdicts invariant under 100 switchings/reversals per instance", ok)


def test_08_congruence_equivalence_consistency():
    rng = random.Random(55)
    checked = 0
    ok = True
    while checked < 100:
        d = 2
        k = rng.randint(0, 2)
        n = rng.randint(1, 4)
        g = random_bar_joint_graph(rng, k, n, rng.randint(0, 6))
        fw = random_generic_framework(g, d, seed=rng.randint(0, 10**9))
        kind = rng.choice(["translate", "reflect", "perturb", "identity"])
        if kind == "translate":
            t = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(d))
            q = {v: tuple(c + t[i] for i, c in enumerate(p)) for v, p in fw.placement.items()}
        elif kind == "reflect":
            q = {v: (p[0], -p[1]) for v, p in fw.placement.items()}
        elif kind == "perturb":
            q = {
                v: tuple(c + Fraction(rng.randint(-3, 3), 7) for c in p)
                for v, p in fw.placement.items()
            }
        else:
            q = dict(fw.placement)
        congruent = are_congruent(fw, q)
        equivalent = are_equivalent(fw, q)
        if congruent and not equivalent:
            ok = False
        cert = verify_path(build_flex_path(fw, q), fw, q)
        if cert.all_pairs_constant != congruent:
            ok = False
        checked += 1
    report(8, "congruence implies equivalence and matches path constancy", ok)
