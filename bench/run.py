"""perigid benchmark: seeded workloads against the library and the CLI.

    python3 bench/run.py --workload barjoint-grow --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

Each workload is a closed loop with one caller on one thread: the op list
of a round runs in a fixed seeded order, and whole rounds repeat until the
ops have taken `--seconds` of timed run at the nominal machine speed (see
REF_NOMINAL_S).  Every op's output is checked against answers known from
how its instance was built (see workloads.py).

`--trace 0` prints the end-to-end metrics of BENCHMARK.json.  `--trace 1`
spends half the time untraced, then runs as many rounds again with spans
recorded around every public perigid function (tracer.py), and prints the
per-layer metrics; per-layer times and counts are per round.  The last line
of stdout is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from math import lcm
from pathlib import Path

from tracer import Tracer, install, self_and_busy
from workloads import ERROR, OK, WORKLOADS, WRONG

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 11
TAIL_ABOVE = 10  # samples the tail percentile leaves above it
RANK_BUCKETS = ((8, 11), (12, 15), (16, 19), (20, 24))

# The host's speed drifts within a run (shared cores), and perigid's work
# drifts with it.  A fixed reference loop runs before every op, and each
# reported time is scaled by the reference's nominal time over the median
# reference time around the op, so times read as at a fixed machine speed.
# The reference mixes what perigid spends its time on: fraction-free integer
# elimination, Fraction rescaling and small dicts.  It is the benchmark's own
# code, so a change to perigid moves scaled times as it moves wall time.  Raw
# wall times are printed beside the scaled ones.
REF_NOMINAL_S = 0.003
REF_WINDOW = 3  # reference samples taken on each side of an op


def _reference_inputs():
    rng = random.Random(0)
    matrix = [[rng.randint(1, 2**30) if rng.random() < 0.4 else 0 for _ in range(16)] for _ in range(18)]
    fractions = [Fraction(rng.randint(1, 2**30), rng.randint(1, 50)) for _ in range(200)]
    return matrix, fractions


_REF_MATRIX, _REF_FRACTIONS = _reference_inputs()


def reference_loop() -> float:
    """Wall time of the fixed reference workload."""
    t0 = time.perf_counter()
    for _ in range(2):
        rows = [list(r) for r in _REF_MATRIX]
        prev, r0 = 1, 0
        for pc in range(16):
            piv = next((i for i in range(r0, 18) if rows[i][pc]), None)
            if piv is None:
                continue
            rows[r0], rows[piv] = rows[piv], rows[r0]
            prow, pval = rows[r0], rows[r0][pc]
            for i in range(r0 + 1, 18):
                row, f = rows[i], rows[i][pc]
                for j in range(pc + 1, 16):
                    row[j] = (pval * row[j] - f * prow[j]) // prev
            prev, r0 = pval, r0 + 1
        for i in range(0, 200, 4):
            chunk = _REF_FRACTIONS[i : i + 4]
            mult = lcm(*(x.denominator for x in chunk))
            scaled = [x.numerator * (mult // x.denominator) for x in chunk]
            diffs = {(i, j): a - b for j, (a, b) in enumerate(zip(chunk, _REF_FRACTIONS[i + 1 : i + 5]))}
            scaled.extend(tuple(diffs))
    return time.perf_counter() - t0


def pin_to_one_cpu() -> None:
    """Run this process and its children on one CPU, so that the reference
    loop measures the speed of the core the ops, CLI children included, run on."""
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass  # not supported here: ops may then run on another core than the reference


def load_perigid():
    """(Re-)import perigid from this checkout's source tree."""
    src = ROOT / "src"
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "perigid" or m.startswith("perigid.")]:
        del sys.modules[name]
    pg = importlib.import_module("perigid")
    importlib.import_module("perigid.cli")
    if Path(pg.__file__).resolve().parent != (src / "perigid").resolve():
        sys.exit(f"error: perigid imported from {pg.__file__}, not from {src}")
    return pg


class Phase:
    """Latencies and outcomes of a run of whole rounds."""

    def __init__(self):
        self.latencies: list[float] = []  # raw wall time per op
        self.refs: list[float] = []  # reference before each op, and one after the last
        self.rounds = 0
        self.failed = 0
        self.wrong = 0
        self.verdicts: Counter[str] = Counter()  # verdict class of each correct op
        self.problems: dict[str, str] = {}

    @property
    def timed_s(self) -> float:
        """Op time so far, at the nominal machine speed."""
        return sum(self.latencies) * self.speed()

    def scaled(self) -> list[float]:
        """Latencies at the nominal machine speed."""
        return [
            t * REF_NOMINAL_S / statistics.median(self.refs[max(i - REF_WINDOW + 1, 0) : i + REF_WINDOW + 1])
            for i, t in enumerate(self.latencies)
        ]

    def speed(self) -> float:
        """Nominal over measured reference time for the whole phase."""
        return REF_NOMINAL_S / statistics.median(self.refs)


def run_rounds(ops, seconds=None, rounds=None, tracer=None) -> Phase:
    phase = Phase()
    while True:
        for i, op in enumerate(ops):
            phase.refs.append(reference_loop())
            if tracer is not None:
                tracer.op = i
            t0 = time.perf_counter()
            try:
                out = op.run(tracer)
                err = None
            except Exception as exc:  # an op that raises is a failed op, not a crash of the benchmark
                err = exc
            phase.latencies.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.op = None
            if err is not None:
                outcome = (ERROR, f"raised {err!r}")
            else:
                try:
                    outcome = op.check(out)
                except Exception as exc:
                    outcome = (WRONG, f"check raised {exc!r}")
            if outcome[0] == OK:
                if outcome[1]:
                    phase.verdicts[outcome[1]] += 1
            else:
                phase.failed += 1
                phase.wrong += outcome[0] == WRONG
                phase.problems.setdefault(op.label, f"{outcome[0]}: {outcome[1]}")
        phase.rounds += 1
        if (rounds is not None and phase.rounds >= rounds) or (rounds is None and phase.timed_s >= seconds):
            phase.refs.append(reference_loop())
            return phase


def latency_metrics(latencies: list[float], rounds: int) -> dict:
    """Median, tail and rate of a run of whole rounds.

    The tail is taken over each op's median across rounds, which stands for
    the op's `rounds` samples: it is the highest percentile that leaves at
    least TAIL_ABOVE samples above it.  The slowest ops of a round are few
    heavy instances; their medians keep the tail from following the noise
    of single samples.
    """
    n = len(latencies)
    per_round = n // rounds
    per_op = sorted(statistics.median(latencies[i::per_round]) for i in range(per_round))
    above = min(-(-TAIL_ABOVE // rounds), per_round - 1)  # ops above the tail
    return {
        "op_p50_ms": 1000 * statistics.median(latencies),
        "op_tail_ms": 1000 * per_op[per_round - above - 1],
        "ops_per_s": n / sum(latencies),
        "tail_pct": 100 * (n - above * rounds) / n,
    }


def end_to_end(phase: Phase, setup_s: float, cli: bool) -> dict:
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if cli:  # one child at a time: the largest child adds to the parent
        rss_kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        **latency_metrics(phase.scaled(), phase.rounds),
        "setup_s": setup_s,
        "ok_frac": 1 - phase.failed / len(phase.latencies),
        "peak_rss_mb": rss_kb / 1024,
    }


def per_layer(spans, ops, traced: Phase, untraced: Phase) -> dict:
    """Counts and times per round; times scaled by the traced phase's speed."""
    rounds = traced.rounds
    speed = traced.speed()
    out: dict[str, float] = {}
    for name, (calls, busy, self_s) in self_and_busy(spans).items():
        out[f"{name}.calls"] = calls / rounds
        out[f"{name}.busy_s"] = speed * busy / rounds
        out[f"{name}.self_s"] = speed * self_s / rounds
    cells = [s[6][0] for s in spans if s[2] == "linalg.rank"]
    out["linalg.rank.cells"] = sum(cells) / rounds

    # generic_rank runs one rank span per trial, in order
    ranks_of: dict[int, list[tuple[float, int | None]]] = {
        s[0]: [] for s in spans if s[2] == "framework.generic_rank"
    }
    for _, parent, name, t0, _, _, extra in spans:
        if name == "linalg.rank" and parent in ranks_of:
            ranks_of[parent].append((t0, extra[1]))
    trials = useful = 0
    for ranks in ranks_of.values():
        best = 0
        for _, r in sorted(ranks):
            trials += 1
            if r is not None and r > best:
                useful += 1
                best = r
    out["framework.trials_per_call"] = trials / len(ranks_of) if ranks_of else 0.0
    out["framework.trial_useful_ratio"] = useful / trials if trials else 0.0

    # rigidity-matrix rank cost per call by the op's dimension and |V|
    buckets: dict[str, list[float]] = {}
    for _, parent, name, t0, t1, op, _ in spans:
        if name != "linalg.rank" or parent not in ranks_of or op is None or ops[op].nv is None:
            continue
        for lo, hi in RANK_BUCKETS:
            if lo <= ops[op].nv <= hi:
                acc = buckets.setdefault(f"linalg.rank.ms_per_call.d{ops[op].d}.v{lo:02d}-{hi:02d}", [0, 0.0])
                acc[0] += 1
                acc[1] += t1 - t0
    for key, (count, total) in buckets.items():
        out[key] = speed * 1000 * total / count

    invocations = sum(1 for s in spans if s[2] == "cli.import")
    if invocations:
        out["cli.process_s"] = statistics.mean(traced.scaled())
        out["cli.import_s"] = speed * sum(s[4] - s[3] for s in spans if s[2] == "cli.import") / invocations
        out["cli.main_s"] = speed * sum(s[4] - s[3] for s in spans if s[2] == "cli.main") / invocations
    plain = len(untraced.latencies) / sum(untraced.scaled())
    out["trace.overhead_frac"] = (plain - len(traced.latencies) / sum(traced.scaled())) / plain
    return out


def metadata(args, insts, ops) -> str:
    try:
        import gmpy2  # noqa: F401

        has_gmpy2 = True
    except ImportError:
        has_gmpy2 = False
    return (
        f"meta python={platform.python_version()} gmpy2={has_gmpy2} nproc={os.cpu_count()} "
        f"workload={args.workload} seed={args.seed} instances={len(insts)} ops_per_round={len(ops)}"
    )


def run_workload(args, spec) -> dict:
    build = WORKLOADS[args.workload]
    pin_to_one_cpu()
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        setup_raw, setup_refs = [], []
        for _ in range(SETUP_REPEATS):
            setup_refs.append(reference_loop())
            t0 = time.perf_counter()
            pg = load_perigid()
            insts, ops = build(pg, args.seed, work, ROOT)
            setup_raw.append(time.perf_counter() - t0)
        setup_refs.append(reference_loop())
        setup_s = statistics.median(setup_raw) * REF_NOMINAL_S / statistics.median(setup_refs)
        print(metadata(args, insts, ops))
        gc.collect()
        budget = args.seconds / 2 if args.trace else args.seconds
        untraced = run_rounds(ops, seconds=budget)
        phases = [untraced]
        if args.trace:
            tracer = Tracer()
            uninstall = install(tracer)
            try:
                traced = run_rounds(ops, rounds=untraced.rounds, tracer=tracer)
            finally:
                uninstall()
            phases.append(traced)
            out_dir = ROOT / ".bench_out"
            out_dir.mkdir(exist_ok=True)
            tracer.write(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")
            values = per_layer(tracer.spans, ops, traced, untraced)
            wanted = spec["per_layer"]
        else:
            values = end_to_end(untraced, setup_s, args.workload == "cli-small")
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(len(p.latencies) for p in phases)
    failed = sum(p.failed for p in phases)
    wrong = sum(p.wrong for p in phases)
    print(f"rounds={untraced.rounds} ops={attempted} failed={failed} wrong={wrong} speed={untraced.speed():.3f}")
    if untraced.verdicts:
        mix = " ".join(f"{k}={v / untraced.rounds:g}" for k, v in sorted(untraced.verdicts.items()))
        print(f"verdicts per round: {mix}")
    for label, problem in sorted({k: v for p in phases for k, v in p.problems.items()}.items()):
        print(f"  failed op {label}: {problem}")
    if not args.trace:
        raw = latency_metrics(untraced.latencies, untraced.rounds)
        print(f"  {'failed_frac':<40} {failed / attempted:.6g} ({failed}/{attempted})")
        print(f"  {'op_tail percentile':<40} p{values['tail_pct']:.1f} of n={len(untraced.latencies)}")
        for name in ("op_p50_ms", "op_tail_ms", "ops_per_s"):
            print(f"  {name + ' (raw wall time)':<40} {raw[name]:.6g}")
        print(f"  {'setup_s (raw wall time)':<40} {statistics.median(setup_raw):.6g}")
    metrics = {}
    for m in wanted:
        # a layer this workload never calls reads 0
        value = float(values.get(m["name"], 0.0) if args.trace else values[m["name"]])
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"  {m['name']:<40} {value:.6g} {m['unit']}")
    return {"correct": wrong == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_all(args) -> dict:
    """Every workload in its own process, so import and memory stay separate."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"error: workload {name} exited with {proc.returncode}")
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = value
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "perigid" / "__init__.py").is_file():
        sys.exit(f"error: no perigid sources under {ROOT / 'src'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload == "all":
        result = run_all(args)
    else:
        print(f"# perigid benchmark: workload={args.workload} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace}")
        result = run_workload(args, spec)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
