"""Runs one workload, checks every result against its reference and reports.

One client solves the workload's instances one after another in this
process (a closed loop: the next solve starts when the previous one returns).
An untraced run solves the whole batch ``MIN_BATCHES`` times, and more while
``--seconds`` allows, and reports the end-to-end metrics.  A traced run (``--trace 1``)
solves the batch once untraced and once under ``tracing.Tracer`` and reports
the per-layer metrics; it also writes every span to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import tracing
import workloads
from lipcert import bnb, estimators, oracle, vector_ext

HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"

#: Per-instance time cap of ``exact_mix``; an instance that hits it fails.
EXACT_CAP_S = 20.0
#: Per-instance time cap of ``gap_capped``; the bounds are read when it hits.
GAP_CAP_S = 5.0
#: Batches every untraced run makes at least; one ``exact_mix`` batch (about
#: 22 s on a 2-core x86 machine) is too short to average out the machine's
#: speed changes.
MIN_BATCHES = 2
#: Fresh processes whose set-up time is measured; the median is reported.
SETUP_PROBES = 7
#: Relative slack of every comparison with a reference value.
REL_TOL = 1e-6
RANDOMLB_SAMPLES = 1000

END_TO_END = {
    "setup_s": "s",
    "time_to_exact_s": "s",
    "bound_ratio": "ratio",
    "nets_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = [
    *[(f"lp.node.{k}", u, "lower") for k, u in (
        ("calls", "count"), ("self_s", "s"), ("pivots_p50", "count"), ("pivots_p90", "count"),
        ("retries", "count"), ("infeasible", "count"), ("numerical_failure", "count"))],
    ("lp.witness.calls", "count", "lower"),
    ("lp.witness.self_s", "s", "lower"),
    ("lp.root.calls", "count", "lower"),
    ("lp.root.self_s", "s", "lower"),
    ("lp.root.pivots", "count", "lower"),
    ("lp.oracle.calls", "count", "lower"),
    ("lp.oracle.self_s", "s", "lower"),
    ("lp.other.calls", "count", "lower"),
    ("lp.other.self_s", "s", "lower"),
    ("bnb.nodes", "count", "lower"),
    ("bnb.nodes_per_s", "1/s", "higher"),
    ("bnb.self_s", "s", "lower"),
    ("bnb.lp_solves_per_node", "ratio", "lower"),
    ("mip.tighten.calls", "count", "lower"),
    ("mip.tighten.self_s", "s", "lower"),
    ("mip.tighten.refuted_frac", "ratio", "higher"),
    ("mip.heur.chain.self_s", "s", "lower"),
    ("mip.heur.chain.improvements", "count", "higher"),
    ("mip.heur.rounded.self_s", "s", "lower"),
    ("mip.heur.rounded.hit_frac", "ratio", "higher"),
    ("mip.heur.rounded.improvements", "count", "higher"),
    ("mip.incumbent_shortfall", "ratio", "lower"),
    ("mip.build_s", "s", "lower"),
    ("mip.vars", "count", "lower"),
    ("mip.rows", "count", "lower"),
    ("mip.binaries", "count", "lower"),
    *[(f"mip.unstable.L{k}", "count", "lower") for k in range(tracing.NET_LAYERS)],
    *[(f"mip.bigm_width.L{k}", "width", "lower") for k in range(tracing.NET_LAYERS)],
    ("interval.propagate.calls", "count", "lower"),
    ("interval.propagate.self_s", "s", "lower"),
    ("network.jacobian.calls", "count", "lower"),
    ("network.jacobian.self_s", "s", "lower"),
    ("oracle.regions", "count", "lower"),
    ("oracle.self_s", "s", "lower"),
    ("estimators.fastlip_s", "s", "lower"),
    ("estimators.liplp_s", "s", "lower"),
    ("estimators.randomlb_s", "s", "lower"),
    ("estimators.self_s", "s", "lower"),
    ("estimators.liplp_excess", "ratio", "lower"),
    ("estimators.fastlip_excess", "ratio", "lower"),
    ("highs.s", "s", "lower"),
    ("bench.self_s", "s", "lower"),
    ("trace.self_sum_frac", "ratio", "higher"),
    ("trace.overhead_frac", "ratio", "lower"),
]


@dataclass
class Outcome:
    """One attempted operation: a solve (B&B workloads) or the estimation of
    one net in one norm (``bounds_sweep``)."""

    name: str
    wall: float = 0.0
    ok: bool = False
    error: str | None = None
    values: dict = field(default_factory=dict)


@dataclass
class Batch:
    outcomes: list[Outcome]
    wall: float

    @property
    def nodes(self) -> int:
        return sum(o.values.get("nodes", 0) for o in self.outcomes)


# -- checks against the reference ------------------------------------------


def close(value: float, ref: float) -> bool:
    return abs(value - ref) <= REL_TOL * max(1.0, abs(ref))


def below(value: float, ref: float) -> bool:
    """value <= ref up to the comparison slack."""
    return value <= ref + REL_TOL * max(1.0, abs(ref))


def check_exact(v: dict, ref: float) -> bool:
    return v["status"] == bnb.EXACT and close(v["incumbent"], ref)


def check_sandwich(v: dict, ref: float) -> bool:
    ok = below(v["incumbent"], ref) and below(ref, v["upper"])
    return ok and (v["status"] != bnb.EXACT or close(v["incumbent"], ref))


def check_bounds(v: dict, ref: float) -> bool:
    ok = below(v["randomlb"], ref) and below(ref, v["liplp"]) and below(v["liplp"], v["fastlip"])
    return ok and ("oracle" not in v or close(v["oracle"], ref))


CHECKS = {"exact_mix": check_exact, "gap_capped": check_sandwich, "bounds_sweep": check_bounds}


def attempt(name: str, fn, check, ref: float) -> Outcome:
    """Run one operation; it fails if it raises or violates its reference."""
    out = Outcome(name)
    start = time.perf_counter()
    try:
        out.values = fn()
    except Exception:  # a failing operation is counted, the run goes on
        out.error = traceback.format_exc()
        print(f"{name}: raised\n{out.error}", file=sys.stderr)
    out.wall = time.perf_counter() - start
    if out.error is None:
        out.ok = bool(check(out.values, ref))
        if not out.ok:
            print(f"{name}: violates reference {ref!r}: {out.values}", file=sys.stderr)
    return out


# -- operations ---------------------------------------------------------------


def solve_bnb(inst: workloads.Instance, cap: float) -> dict:
    if inst.output_norm is None:
        rec = estimators.estimate(inst.net, inst.domain, inst.alpha, "lipmip", timeout=cap)
        exact = rec.guarantee == estimators.EXACT
        return {
            "status": rec.metadata["status"], "nodes": rec.metadata["nodes"],
            "upper": rec.value,
            "incumbent": rec.value if exact else rec.metadata["incumbent"],
        }
    res = vector_ext.lipmip_vector(
        inst.net, inst.domain, inst.alpha, inst.output_norm,
        opts=bnb.SolveOptions(timeout_seconds=cap),
    )
    return {"status": res.status, "nodes": res.nodes_explored,
            "upper": res.upper_bound, "incumbent": res.incumbent_value}


def estimate_bounds(inst: workloads.Instance, seed: int) -> dict:
    out = {}
    for method in ("fastlip", "liplp", "randomlb"):
        rec = estimators.estimate(inst.net, inst.domain, inst.alpha, method,
                                  samples=RANDOMLB_SAMPLES, seed=seed)
        out[method] = rec.value
    if inst.neurons <= workloads.ORACLE_NEURON_CAP:
        out["oracle"] = oracle.exact_lipschitz_bruteforce(inst.net, inst.domain, inst.alpha)
    return out


def run_batch(workload: str, insts, refs: dict, seed: int, tracer=None) -> Batch:
    """Solve every instance once, in order."""
    outcomes = []
    start = time.perf_counter()
    for k, inst in enumerate(insts):
        if workload == "bounds_sweep":
            fn = functools.partial(estimate_bounds, inst, seed)
        else:
            cap = EXACT_CAP_S if workload == "exact_mix" else GAP_CAP_S
            fn = functools.partial(solve_bnb, inst, cap)
        if tracer is not None:
            tracer.instance = k
        with tracer.span("instance") if tracer else contextlib.nullcontext():
            outcomes.append(attempt(inst.name, fn, CHECKS[workload], refs[inst.name]))
    return Batch(outcomes, time.perf_counter() - start)


def measure(workload: str, insts, refs: dict, seed: int, seconds: float) -> list[Batch]:
    """``MIN_BATCHES`` whole batches, then more while the next one is
    expected to fit in ``seconds``."""
    batches, spent = [], 0.0
    while len(batches) < MIN_BATCHES or spent + batches[-1].wall <= seconds:
        batches.append(run_batch(workload, insts, refs, seed))
        spent += batches[-1].wall
    return batches


# -- references and set-up ---------------------------------------------------


def reference_values(insts, seed: int) -> dict[str, float]:
    """Stored values for seed 0.  For other seeds the oracle re-derives every
    instance it can; the others keep the stored value, which a permutation of
    inputs and neurons leaves unchanged."""
    stored = workloads.load_references()
    refs = {}
    for inst in insts:
        if seed != 0 and inst.neurons <= workloads.ORACLE_NEURON_CAP:
            refs[inst.name] = workloads.oracle_reference(inst)
        else:
            refs[inst.name] = stored[inst.name]["value"]
    return refs


def measure_setup(workload: str, seed: int, probes: int = SETUP_PROBES) -> float:
    """Median seconds from the start of a fresh process to the point where the
    first timed call would begin (imports plus input generation)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    samples = []
    for _ in range(probes):
        start = time.monotonic()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.split()[-1]) - start)
    return statistics.median(samples)


# -- metrics ------------------------------------------------------------------


def upper_ratio(workload: str, out: Outcome, ref: float) -> float:
    """Best certified upper bound over the reference value."""
    if workload == "bounds_sweep":
        return min(out.values["liplp"], out.values["fastlip"]) / ref
    return out.values["upper"] / ref


def end_to_end(workload: str, batches: list[Batch], refs: dict, setup_s: float) -> dict:
    exact_s = [sum(o.wall for o in b.outcomes) for b in batches]
    ratios = [
        tracing.geomean(upper_ratio(workload, o, refs[o.name]) for o in b.outcomes if o.ok)
        for b in batches
    ]
    n_ops = len(batches[0].outcomes)
    return {
        "setup_s": setup_s,
        "time_to_exact_s": statistics.median(exact_s),
        "bound_ratio": statistics.median(ratios),
        "nets_per_s": n_ops / statistics.median(b.wall for b in batches),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced_extras(workload: str, untraced: Batch, traced: Batch, refs: dict) -> dict:
    """Per-layer numbers that need references or the untraced batch."""
    ok = [o for o in traced.outcomes if o.ok]
    m = {"mip.incumbent_shortfall": 0.0, "estimators.liplp_excess": 0.0,
         "estimators.fastlip_excess": 0.0}
    if workload == "bounds_sweep":
        for method in ("liplp", "fastlip"):
            m[f"estimators.{method}_excess"] = tracing.geomean(
                o.values[method] / refs[o.name] for o in ok) - 1.0
    elif ok:
        m["mip.incumbent_shortfall"] = float(np.mean(
            [1.0 - o.values["incumbent"] / refs[o.name] for o in ok]))
    # wall time per unit of work: B&B nodes where B&B runs, else batches
    work_u, work_t = untraced.nodes or 1, traced.nodes or 1
    m["trace.overhead_frac"] = (traced.wall / work_t) / (untraced.wall / work_u) - 1.0
    return m


def highs_yardstick(workload: str, insts) -> tuple[float, list]:
    """HiGHS value and seconds for every B&B instance, when scipy imports."""
    if workload == "bounds_sweep":
        return 0.0, []
    rows = []
    try:
        for inst in insts:
            value, secs = workloads.highs_reference(inst)
            rows.append({"instance": inst.name, "value": value, "s": secs})
    except ImportError:
        print("scipy not importable: highs.s reported as 0", file=sys.stderr)
        return 0.0, []
    return sum(r["s"] for r in rows), rows


# -- reporting ------------------------------------------------------------------


def report(workload: str, seed: int, metrics: dict, units: dict, outcomes: list[Outcome],
           note: str) -> dict:
    failed = sum(not o.ok for o in outcomes)
    print(f"workload {workload}  seed {seed}  {note}")
    for name, value in metrics.items():
        print(f"  {name:32s} {value:14.6g} {units[name]}")
    if "bound_ratio" in metrics:
        print(f"  {'bound_excess':32s} {metrics['bound_ratio'] - 1.0:14.6g} ratio")
    frac = failed / len(outcomes) if outcomes else 0.0
    print(f"  {'failed_frac':32s} {frac:14.6g} ratio ({failed} of {len(outcomes)} operations)")
    return {
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }


def _seed(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError("seed must be >= 0")
    return seed


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=_seed, default=0)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def run(args) -> dict:
    insts = workloads.make_inputs(args.workload, args.seed)
    if args.setup_probe:
        print(time.monotonic())
        return {}
    refs = reference_values(insts, args.seed)
    if not args.trace:
        setup_s = measure_setup(args.workload, args.seed)
        batches = measure(args.workload, insts, refs, args.seed, args.seconds)
        metrics = end_to_end(args.workload, batches, refs, setup_s)
        outcomes = [o for b in batches for o in b.outcomes]
        return report(args.workload, args.seed, metrics, END_TO_END, outcomes,
                      f"{len(batches)} batch(es) of {len(insts)} instances")

    untraced = run_batch(args.workload, insts, refs, args.seed)
    tracer = tracing.Tracer()
    with tracer, tracer.span("workload"):
        traced = run_batch(args.workload, insts, refs, args.seed, tracer)
    metrics = tracing.layer_metrics(tracer.spans, tracer.regions)
    metrics.update(traced_extras(args.workload, untraced, traced, refs))
    metrics["highs.s"], highs_rows = highs_yardstick(args.workload, insts)
    for row in highs_rows:
        print(f"HiGHS {row['instance']}: {row['value']:.10g} in {row['s']:.3f} s")
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"trace-{args.workload}-seed{args.seed}.json"
    with open(path, "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "instances": [i.name for i in insts], "highs": highs_rows,
                   "spans": tracer.to_json()}, fh)
    units = {name: unit for name, unit, _ in PER_LAYER}
    ordered = {name: metrics[name] for name, _, _ in PER_LAYER}
    return report(args.workload, args.seed, ordered, units,
                  untraced.outcomes + traced.outcomes, f"traced; spans in {path.relative_to(HERE.parent)}")


def write_references() -> int:
    refs = {}
    for name, inst in sorted(workloads.all_instances().items()):
        value, source = workloads.derive_reference(inst)
        refs[name] = {"value": value, "source": source}
        print(f"{name:40s} {value:.12g} ({source})", flush=True)
    with open(workloads.REFERENCE_FILE, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv) -> int:
    if argv == ["--write-references"]:
        return write_references()
    result = run(parse_args(argv))
    if result:
        print(json.dumps(result))
    return 0
