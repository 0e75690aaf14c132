"""Tests of the benchmark's own arithmetic: percentiles, self time, ratios.

    python3 -m pytest perfbench
"""

import json
import random
import statistics
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

import checks
import run
import stats
import workloads
from tracing import Record, Tracer

ROOT = Path(__file__).resolve().parent.parent


# --- percentiles and ratios --------------------------------------------------

def test_percentile_matches_statistics_inclusive():
    rng = random.Random(5)
    for size in (2, 3, 10, 101):
        values = [rng.random() for _ in range(size)]
        cuts = statistics.quantiles(values, n=10, method="inclusive")
        for k, cut in enumerate(cuts, start=1):
            assert stats.percentile(values, k / 10) == pytest.approx(cut)


def test_percentile_interpolates_between_ranks():
    values = [40, 10, 30, 20]  # sorted 10 20 30 40, h = 3q
    assert stats.percentile(values, 0) == 10
    assert stats.percentile(values, 1) == 40
    assert stats.percentile(values, 0.5) == 25
    assert stats.percentile(values, 0.9) == pytest.approx(37)
    assert stats.median([7]) == 7


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        stats.percentile([], 0.5)
    with pytest.raises(ValueError):
        stats.percentile([1], 1.5)


def test_ratio_of_nothing_attempted_is_zero():
    assert stats.ratio(3, 4) == 0.75
    assert stats.ratio(3, 0) == 0.0


# --- self time ---------------------------------------------------------------

class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


def test_self_time_subtracts_enclosed_spans():
    clock = FakeClock()
    tracer = Tracer(clock)

    def leaf():
        clock.now += 3

    leaf = tracer.span("m.leaf", leaf)

    def inner():
        clock.now += 2
        leaf()
        clock.now += 1

    inner = tracer.span("m.inner", inner)

    def outer():
        clock.now += 10
        inner()
        leaf()
        clock.now += 4

    tracer.span("m.outer", outer)()
    recs = tracer.records
    assert (recs["m.leaf"].calls, recs["m.leaf"].self_ns) == (2, 6)
    assert (recs["m.inner"].total_ns, recs["m.inner"].self_ns) == (6, 3)
    assert (recs["m.outer"].total_ns, recs["m.outer"].self_ns) == (23, 14)
    # self times partition the outermost span
    assert sum(r.self_ns for r in recs.values()) == recs["m.outer"].total_ns


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    tracer = Tracer(clock)

    def boom():
        clock.now += 5
        raise KeyError("x")

    boom = tracer.span("m.boom", boom)

    def caller():
        clock.now += 1
        with pytest.raises(KeyError):
            boom()

    tracer.span("m.caller", caller)()
    assert tracer.records["m.boom"].self_ns == 5
    assert tracer.records["m.caller"].self_ns == 1


def test_count_only_wrapper_leaves_time_with_caller():
    clock = FakeClock()
    tracer = Tracer(clock)

    def tiny():
        clock.now += 2

    tiny = tracer.count("m.tiny", tiny)

    def caller():
        tiny()
        tiny()

    tracer.span("m.caller", caller)()
    assert tracer.records["m.tiny"].calls == 2
    assert tracer.records["m.tiny"].self_ns == 0
    assert tracer.records["m.caller"].self_ns == 4


def test_observer_runs_outside_the_span():
    clock = FakeClock()
    tracer = Tracer(clock)

    def observe(counters, args, result):
        clock.now += 100
        counters["seen"] = counters.get("seen", 0) + result

    def double(x):
        clock.now += 1
        return 2 * x

    assert tracer.span("m.double", double, observe)(4) == 8
    assert tracer.records["m.double"].self_ns == 1
    assert tracer.counters["seen"] == 8


# --- install -----------------------------------------------------------------

def helper():
    return "helper"


def _private():
    return "private"


class Thing:
    def method(self):
        return 1

    @classmethod
    def make(cls):
        return cls()


HOME = __name__.rsplit(".", 1)[-1]


def _fake_modules():
    home = types.ModuleType(__name__)  # the classes' __module__
    home.__file__ = __file__
    home.helper, home._private, home.Thing = helper, _private, Thing
    importer = types.ModuleType("pkg.importer")
    importer.__file__ = "elsewhere.py"
    importer.helper = helper  # as after "from <home> import helper"
    return home, importer


def test_install_patches_every_binding_and_uninstall_restores():
    home, importer = _fake_modules()
    originals = dict(vars(Thing))
    tracer = Tracer()
    tracer.install([home, importer], count_only={f"{HOME}.Thing.make"})
    try:
        assert home.helper is importer.helper is not helper
        assert home._private is _private
        Thing.make().method()
        importer.helper()
    finally:
        tracer.uninstall()
    assert home.helper is importer.helper is helper
    assert dict(vars(Thing)) == originals
    assert tracer.records[f"{HOME}.helper"].calls == 1
    assert tracer.records[f"{HOME}.Thing.method"].calls == 1
    assert tracer.records[f"{HOME}.Thing.make"].calls == 1
    assert tracer.records[f"{HOME}.Thing.make"].total_ns == 0  # count only
    assert f"{HOME}._private" not in tracer.records


# --- layer ratios ------------------------------------------------------------

def _record(calls, self_ns):
    rec = Record()
    rec.calls, rec.self_ns = calls, self_ns
    return rec


def test_layer_metric_ratios():
    tracer = Tracer()
    tracer.records.update({
        "cli.main": _record(4, 1_000_000_000),
        "straighten.straighten": _record(2, 2_000_000_000),
        "straighten.canonical_monomial": _record(40, 0),
        "hibi.PatternMap.is_order_preserving": _record(50, 0),
    })
    tracer.counters.update({"straighten_terms": 10, "patterns_counted": 20,
                            "certificate_rank": 9, "certificate_points": 12})
    untraced, traced = run.Tally(), run.Tally()
    untraced.latencies = [1.0, 1.0]
    traced.latencies = [1.5, 1.5]
    traced.failed = 1
    m = {k: v for k, (v, _) in run.layer_metrics(tracer, untraced,
                                                  traced).items()}
    assert m["trace.overhead_ratio"] == 1.5
    assert m["trace.accounted_ratio"] == 1.0
    assert m["straighten.self_s"] == 2.0
    assert m["cli.self_s"] == 1.0
    assert m["straighten.terms_per_step"] == 0.25
    assert m["hibi.count_patterns.hit_ratio"] == 0.4
    assert m["exacteval.independence_certificate.rank_per_point"] == 0.75
    assert m["exacteval.det.calls"] == 0
    assert m["failed_ratio"] == 0.25


def test_reported_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    reported = run.layer_metrics(Tracer(), run.Tally(), run.Tally())
    assert {k: u for k, (_, u) in reported.items()} == per_layer
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


# --- generator and oracles ---------------------------------------------------

def test_rounds_repeat_for_a_seed_and_differ_across_seeds():
    for name in run.WORKLOADS:
        a = workloads.Workload(name, 3).round(2)
        b = workloads.Workload(name, 3).round(2)
        c = workloads.Workload(name, 4).round(2)
        assert [op.argv for op in a] == [op.argv for op in b]
        assert [op.argv for op in a] != [op.argv for op in c]


def test_rewrite_expressions_follow_a_double_dash():
    for op in workloads.Workload("rewrite", 1).round(0):
        assert op.argv[-2] == "--"


def test_straighten_oracle_matches_the_library():
    sys.path.insert(0, str(ROOT / "src"))
    from sympbranch import straighten

    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(2, 4)
        terms = workloads._random_poly(rng, n)
        poly = straighten.parse_poly(workloads.render_poly(terms), n)
        for fn, oracle in ((straighten.straighten, checks.straighten_oracle),
                           (straighten.hibi_normal_form, checks.hibi_oracle)):
            got = {tuple(sorted(c.token() for c in mono)): coeff
                   for mono, coeff in fn(poly).terms.items()}
            assert got == oracle(terms, n)


def test_multiplicity_oracle_counts_interlacing_middles():
    d, f, n = (2, 1), (3, 2, 1), 3
    middles = [(a, b, c) for a in range(4) for b in range(a + 1)
               for c in range(b + 1)
               if checks.interlaces(d, (a, b, c)) and checks.interlaces(
                   (a, b, c), f)]
    assert checks.multiplicity(d, f, n) == len(middles) == 8


def test_chain_and_pattern_checks_reject_bad_output():
    assert checks.is_chain(["J1", "J'1", "I1", "J0"], 2)
    assert not checks.is_chain(["I1", "K0"], 2)
    assert checks.is_order_preserving([3, 1], [2, 1], [1])
    assert not checks.is_order_preserving([3, 1], [2, 2], [1])
    coeff = Fraction(1)
    expansion = checks.straighten_oracle([(coeff, ("I1", "K0"))], 2)
    assert expansion == {("J'1", "J0"): 1, ("J'0", "J1"): -1}
