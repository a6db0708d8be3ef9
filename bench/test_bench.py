"""Tests of the benchmark itself: metric arithmetic, tracing and references.

Run with ``python3 -m pytest bench`` from the repository root.
"""

import json
from pathlib import Path

import numpy as np
import pytest

import harness
import tracing
import workloads
from lipcert import bnb, estimators, interval, lp, mip, network, oracle, reduction, vector_ext
from lipcert.interval import Hyperbox

REPO = Path(__file__).resolve().parents[1]


def span(name, start, end, parent=-1, info=None):
    return tracing.Span(name, start, end, parent, 0, info)


def test_self_time_is_duration_minus_child_coverage():
    spans = [
        span("workload", 0.0, 10.0),
        span("bnb", 1.0, 3.0, parent=0),
        span("mip.tighten", 2.0, 5.0, parent=0),  # overlaps its sibling
        span("interval.propagate", 1.5, 2.5, parent=1),
    ]
    assert tracing.self_times(spans) == pytest.approx([6.0, 1.0, 3.0, 1.0])


def test_retry_is_detected_as_nested_solve():
    lp_info = {"status": lp.OPTIMAL, "pivots": 4}
    spans = [
        span("workload", 0.0, 10.0),
        span("bnb", 0.0, 10.0, parent=0, info={"nodes": 2}),
        span("lp", 1.0, 4.0, parent=1, info=lp_info),
        span("lp", 2.0, 3.0, parent=2, info=lp_info),  # retry inside a node solve
        span("lp", 5.0, 6.0, parent=1, info=lp_info),
        span("mip.heur.rounded", 6.0, 8.0, parent=1, info={"hit": True, "improved": True}),
        span("lp", 6.5, 7.0, parent=5, info=lp_info),
    ]
    assert tracing.lp_classes(spans) == [None, None, "lp.node", "lp.node", "lp.node",
                                         None, "lp.witness"]
    m = tracing.layer_metrics(spans)
    assert m["lp.node.calls"] == 2
    assert m["lp.node.retries"] == 1
    assert m["lp.witness.calls"] == 1
    assert m["lp.node.self_s"] == pytest.approx(4.0)  # both node solves, retry included
    assert m["bnb.lp_solves_per_node"] == pytest.approx(1.0)
    assert m["trace.self_sum_frac"] == pytest.approx(1.0)


def test_bound_ratio_is_a_geometric_mean():
    outs = [harness.Outcome("a", 1.0, True, values={"upper": 2.0}),
            harness.Outcome("b", 1.0, True, values={"upper": 24.0})]
    batch = harness.Batch(outs, wall=2.0)
    m = harness.end_to_end("gap_capped", [batch], {"a": 1.0, "b": 3.0}, setup_s=0.5)
    assert m["bound_ratio"] == pytest.approx(4.0)  # sqrt(2 * 8)
    assert m["time_to_exact_s"] == pytest.approx(2.0)
    assert m["nets_per_s"] == pytest.approx(1.0)


def test_failed_frac_counts_raised_errors_and_violations():
    def boom():
        raise RuntimeError("solver failed")

    check = harness.check_exact
    good = {"status": bnb.EXACT, "incumbent": 2.0}
    outs = [
        harness.attempt("good", lambda: good, check, 2.0),
        harness.attempt("raised", boom, check, 2.0),
        harness.attempt("wrong", lambda: {**good, "incumbent": 2.5}, check, 2.0),
        harness.attempt("capped", lambda: {**good, "status": bnb.TIMEOUT}, check, 2.0),
    ]
    result = harness.report("exact_mix", 0, {"setup_s": 1.0}, harness.END_TO_END, outs, "")
    assert (result["attempted"], result["failed"], result["correct"]) == (4, 3, False)


def test_bounds_check_needs_the_whole_chain():
    ok = {"randomlb": 1.0, "liplp": 2.0, "fastlip": 2.0, "oracle": 1.5}
    assert harness.check_bounds(ok, 1.5)
    assert not harness.check_bounds({**ok, "liplp": 1.4}, 1.5)
    assert not harness.check_bounds({**ok, "oracle": 1.6}, 1.5)
    assert not harness.check_bounds({**ok, "fastlip": 1.9}, 1.5)


def _wrapped_attributes():
    owners = [(lp.SimplexSolver, "solve"), (bnb, "solve_mip"), (estimators, "estimate"),
              (mip.LipMIPProblem, "tightened_bounds"), (mip.LipMIPProblem, "incumbent_from_point"),
              (mip.LipMIPProblem, "rounded_pattern_value"), (interval, "propagate"),
              (oracle, "exact_lipschitz_bruteforce"), (oracle, "jacobian_from_multipliers")]
    owners += [(m, "build_lipmip_model") for m in (mip, estimators, vector_ext, reduction)]
    owners += [(m, "chain_rule_jacobian") for m in (mip, estimators)]
    return {(o, a): o.__dict__[a] for o, a in owners}


def test_traced_run_covers_layers_and_removes_wrappers():
    before = _wrapped_attributes()
    net = network.random_he([2, 4, 4, 1], 0)
    inst = workloads.Instance("tiny", net, Hyperbox.from_center_radius(np.full(2, 0.5), 0.5),
                              "linf")
    refs = {"tiny": workloads.oracle_reference(inst)}
    tracer = tracing.Tracer()
    with tracer, tracer.span("workload"):
        assert all(o.__dict__[a] is not f for (o, a), f in before.items())
        mix = harness.run_batch("exact_mix", [inst], refs, 0, tracer)
        sweep = harness.run_batch("bounds_sweep", [inst], refs, 0, tracer)
    assert all(o.__dict__[a] is f for (o, a), f in before.items())
    assert all(o.ok for o in mix.outcomes + sweep.outcomes)
    names = {s.name for s in tracer.spans}
    assert {"bnb", "lp", "mip.build", "mip.heur.chain", "interval.propagate",
            "network.jacobian", "oracle", "estimators.liplp", "estimators.randomlb"} <= names
    m = tracing.layer_metrics(tracer.spans, tracer.regions)
    assert m["trace.self_sum_frac"] == pytest.approx(1.0, abs=1e-9)
    assert m["lp.root.calls"] == 1 and m["lp.node.calls"] >= 1 and m["lp.oracle.calls"] >= 1
    assert m["oracle.regions"] >= 1
    assert m["bnb.nodes"] == mix.nodes


def test_benchmark_json_lists_the_emitted_metrics():
    with open(REPO / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["end_to_end"]] == list(harness.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == harness.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    emitted = set(tracing.layer_metrics([span("workload", 0.0, 1.0)]))
    emitted |= {"mip.incumbent_shortfall", "estimators.liplp_excess",
                "estimators.fastlip_excess", "trace.overhead_frac", "highs.s"}
    assert emitted == {name for name, _, _ in harness.PER_LAYER}


# -- reference values ------------------------------------------------------------


STORED = workloads.load_references()
INSTANCES = workloads.all_instances()


def test_every_instance_has_a_stored_reference():
    assert set(STORED) == set(INSTANCES)


@pytest.mark.parametrize("name", sorted(
    n for n, i in INSTANCES.items() if i.neurons <= workloads.ORACLE_NEURON_CAP))
def test_oracle_rederives_stored_reference(name):
    assert workloads.oracle_reference(INSTANCES[name]) == pytest.approx(
        STORED[name]["value"], rel=1e-9)


def test_petersen_reference_is_its_mis():
    assert reduction.brute_force_mis(reduction.petersen_graph()) == STORED["petersen-mis"]["value"]


@pytest.mark.parametrize("name", [i.name for i in workloads.make_inputs("gap_capped", 0)])
def test_highs_rederives_gap_capped_reference(name):
    pytest.importorskip("scipy.optimize")
    value, _ = workloads.highs_reference(INSTANCES[name])
    assert value == pytest.approx(STORED[name]["value"], rel=1e-7)


@pytest.mark.parametrize("seed", [1, 7])
def test_seeded_variants_keep_the_reference(seed):
    for inst in workloads.make_inputs("exact_mix", seed):
        base = INSTANCES[inst.name]
        assert not all(np.array_equal(a, b) for a, b in zip(inst.net.weights, base.net.weights))
        assert workloads.oracle_reference(inst) == pytest.approx(STORED[inst.name]["value"],
                                                                 rel=1e-9)
    g = workloads.relabel_graph(reduction.petersen_graph(), seed)
    assert g != reduction.petersen_graph()
    assert reduction.brute_force_mis(g) == 4
