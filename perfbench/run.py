"""Benchmark of the sympbranch CLI: four seeded workloads, timed end to end.

Run from the root of a checkout:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Each run is one process and one closed-loop client.  The seeded generator in
``workloads.py`` makes argv lists, which go one after another through
``sympbranch.cli.main`` with stdout captured; only the calls are timed, and
each op's output is checked after it returns (``checks.py``).  With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1`` it
runs a fixed number of rounds untraced and then traced (``tracing.py``) and
reports the per-layer metrics.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checks
import stats
import workloads
from tracing import Record, Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOADS = ("certify", "identities", "rewrite", "enumerate")
LAYERS = ("lattice", "diagrams", "monomials", "hibi", "straighten",
          "exacteval", "cli")

SETUP_STARTS = 7  # fresh interpreters per run; setup_s is their median
# Rounds in a traced run: a fixed amount of work, so its counts repeat
# exactly for a seed and the traced run takes about as long as a timed one.
TRACE_ROUNDS = {"certify": 2, "identities": 16, "rewrite": 4, "enumerate": 5}


# --- set-up ------------------------------------------------------------------

def prepare(name: str, seed: int):
    """Import the library from this checkout and make the first inputs."""
    if not (SRC / "sympbranch" / "__init__.py").is_file():
        raise SystemExit(f"error: no sympbranch sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from sympbranch import cli

    workload = workloads.Workload(name, seed)
    return cli, workload, workload.warmup(), workload.round(0)


def measure_setup(name: str, seed: int) -> float:
    """Median wall time from spawning a fresh interpreter to its first op
    being ready (``probe.py`` runs ``prepare`` and says so)."""
    times = []
    for _ in range(SETUP_STARTS):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, str(HERE / "probe.py"), name,
                               str(seed)], stdout=subprocess.PIPE) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - start)
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != b"ready":
            raise SystemExit("error: set-up probe failed")
    return stats.median(times)


# --- ops ---------------------------------------------------------------------

def run_op(cli, op) -> tuple[float, bool, int]:
    """Time one CLI call, then check its output: (seconds, ok, output bytes)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.main(list(op.argv))
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # counted as a failed op, with its traceback
            rc = None
            traceback.print_exc()
        elapsed = time.perf_counter() - start
    text = out.getvalue()
    ok = rc is not None and checks.check(op.argv, rc, text, op.expect)
    if not ok:
        print(f"FAILED rc={rc}: {op.argv}\n{err.getvalue()}", file=sys.stderr)
    return elapsed, ok, len(text)


class Tally:
    def __init__(self):
        self.latencies: list[float] = []
        self.failed = 0
        self.output_bytes = 0

    def run(self, cli, ops) -> "Tally":
        for op in ops:
            elapsed, ok, size = run_op(cli, op)
            self.latencies.append(elapsed)
            self.failed += not ok
            self.output_bytes += size
        return self

    @property
    def busy_s(self) -> float:
        return sum(self.latencies)


# --- end to end --------------------------------------------------------------

def end_to_end(name: str, seed: int, seconds: float):
    setup_s = measure_setup(name, seed)
    cli, workload, warm, first = prepare(name, seed)
    warm_failed = Tally().run(cli, warm).failed
    timed = Tally().run(cli, first)
    r = 1
    while timed.busy_s < seconds:
        timed.run(cli, workload.round(r))
        r += 1
    ms = [t * 1000 for t in timed.latencies]
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(ms) / timed.busy_s, "1/s"),
        "op_p50_ms": (stats.median(ms), "ms"),
        "op_p90_ms": (stats.percentile(ms, 0.9), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }
    return len(ms), timed.failed, warm_failed, metrics


# --- traced ------------------------------------------------------------------

# Small hot functions that a metric counts: counted, not timed, so their time
# stays in the caller's self time.
COUNT_ONLY = frozenset({
    "lattice.ColumnIndex.__post_init__", "lattice.comparable",
    "lattice.column_from_set", "monomials.StandardMonomial.__post_init__",
    "hibi.PatternMap.is_order_preserving", "straighten.canonical_monomial",
})
# Accessors called up to a million times a round that no metric needs: even a
# count-only wrapper would add a third to the traced run, so they stay bare.
UNWRAPPED = frozenset({
    "lattice.ColumnIndex.ones_triple", "lattice.ColumnIndex.sort_key",
    "lattice.ColumnIndex.size", "lattice.ColumnIndex.column_set",
    "lattice.ColumnIndex.token", "lattice.leq", "diagrams.part",
    "diagrams.normalize", "hibi.PatternMap.__post_init__",
})


def _add(counters, key, value):
    counters[key] = counters.get(key, 0) + value


def _observe_rank(counters, args, result):
    rows = args[0]
    _add(counters, "rank_cells", len(rows) * len(rows[0]) if rows else 0)
    bits = max((max(x.numerator.bit_length(), x.denominator.bit_length())
                for row in rows for x in row), default=0)
    counters["entry_bits"] = max(counters.get("entry_bits", 0), bits)


def _observe_certificate(counters, args, result):
    _add(counters, "certificate_rank", result["rank"])
    _add(counters, "certificate_points", result["points"])


def _observe_straighten(counters, args, result):
    _add(counters, "straighten_terms", len(result.terms))


def _observe_count_patterns(counters, args, result):
    _add(counters, "patterns_counted", result)


OBSERVERS = {
    "exacteval.exact_rank": _observe_rank,
    "exacteval.independence_certificate": _observe_certificate,
    "straighten.straighten": _observe_straighten,
    "hibi.count_patterns": _observe_count_patterns,
}

CALLS = ("exacteval.random_symplectic", "exacteval.ExactMatrix.__matmul__",
         "exacteval.ExactMatrix.inverse", "exacteval.det",
         "exacteval.exact_rank", "straighten.straighten",
         "straighten.canonical_monomial",
         "monomials.StandardMonomial.__post_init__",
         "lattice.ColumnIndex.__post_init__", "lattice.comparable",
         "lattice.column_from_set")
# random_symplectic spends most of its time in ExactMatrix calls, which its
# self time leaves out; its total time is the cost of sampling a point.
TOTAL = ("exacteval.random_symplectic",)
SELF = ("exacteval.random_symplectic", "exacteval.random_unipotent",
        "exacteval.ExactMatrix.__matmul__", "exacteval.ExactMatrix.inverse",
        "exacteval.det", "exacteval.delta_table", "exacteval.exact_rank",
        "straighten.straighten", "straighten.parse_poly",
        "straighten.format_poly", "straighten.sorted_terms",
        "straighten.hibi_normal_form", "hibi.count_patterns",
        "hibi.chain_to_pattern", "monomials.enumerate_standard",
        "monomials.from_triple", "monomials.to_tableau",
        "monomials.middle_diagram", "diagrams.tl_weight",
        "diagrams.enumerate_middle")


def layer_metrics(tracer: Tracer, untraced: Tally, traced: Tally) -> dict:
    records, counters = tracer.records, tracer.counters

    def rec(name) -> Record:
        return records.get(name, Record())

    metrics = {f"{name}.calls": (rec(name).calls, "count") for name in CALLS}
    metrics.update({f"{name}.total_s": (rec(name).total_ns / 1e9, "s")
                    for name in TOTAL})
    metrics.update({f"{name}.self_s": (rec(name).self_ns / 1e9, "s")
                    for name in SELF})
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (sum(
            r.self_ns for name, r in records.items()
            if name.split(".", 1)[0] == layer) / 1e9, "s")
    all_self_s = sum(r.self_ns for r in records.values()) / 1e9
    metrics.update({
        "exacteval.exact_rank.cells": (counters.get("rank_cells", 0), "count"),
        "exacteval.max_entry_bits": (counters.get("entry_bits", 0), "bit"),
        "exacteval.independence_certificate.rank_per_point": (stats.ratio(
            counters.get("certificate_rank", 0),
            counters.get("certificate_points", 0)), "ratio"),
        "straighten.terms_per_step": (stats.ratio(
            counters.get("straighten_terms", 0),
            rec("straighten.canonical_monomial").calls), "ratio"),
        "hibi.count_patterns.hit_ratio": (stats.ratio(
            counters.get("patterns_counted", 0),
            rec("hibi.PatternMap.is_order_preserving").calls), "ratio"),
        "cli.output_bytes": (traced.output_bytes, "B"),
        "trace.overhead_ratio": (stats.ratio(traced.busy_s, untraced.busy_s),
                                 "ratio"),
        "trace.accounted_ratio": (stats.ratio(all_self_s, traced.busy_s),
                                  "ratio"),
        "failed_ratio": (stats.ratio(untraced.failed + traced.failed,
                                     len(untraced.latencies)
                                     + len(traced.latencies)), "ratio"),
    })
    return metrics


def traced_run(name: str, seed: int):
    """Each round runs untraced, then traced, so both passes see the same
    machine conditions and ``trace.overhead_ratio`` compares like with like."""
    cli, workload, warm, first = prepare(name, seed)
    warm_failed = Tally().run(cli, warm).failed
    modules = [getattr(sys.modules["sympbranch"], layer) for layer in LAYERS]
    tracer, untraced, traced = Tracer(), Tally(), Tally()
    for r in range(TRACE_ROUNDS[name]):
        ops = first if r == 0 else workload.round(r)
        untraced.run(cli, ops)
        tracer.install(modules, COUNT_ONLY, OBSERVERS, UNWRAPPED)
        try:
            traced.run(cli, ops)
        finally:
            tracer.uninstall()
    return (len(untraced.latencies) + len(traced.latencies),
            untraced.failed + traced.failed, warm_failed,
            layer_metrics(tracer, untraced, traced))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.trace:
        attempted, failed, warm_failed, metrics = traced_run(args.workload,
                                                             args.seed)
    else:
        attempted, failed, warm_failed, metrics = end_to_end(
            args.workload, args.seed, args.seconds)
    print(json.dumps({
        "correct": failed == 0 and warm_failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
