"""Comparable Lipschitz estimators over one record format.

Five methods, ordered by cost: a sampled gradient lower bound, the layerwise
operator-norm product upper bound, the interval-propagation upper bound
(fastlip), the LP relaxation (liplp), and the exact mixed-integer solve
(lipmip, optionally stopped at a target integrality gap).  ``compare`` runs a
selection and reports signed relative errors against the lipmip value, which
is the ground truth whenever it ran to optimality.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import bnb, interval, norms
from .interval import Hyperbox
from .mip import build_lipmip_model
from .network import ALWAYS_ZERO, ReLUNetwork, chain_rule_jacobian

LOWER = "lower"
UPPER = "upper"
EXACT = "exact"
GAPPED_UPPER = "gapped_upper"

METHODS = ("randomlb", "naiveub", "fastlip", "liplp", "lipmip")

CSV_HEADER = "method,value,guarantee,gap,time_s,rel_err,samples,nodes"


@dataclass
class EstimateRecord:
    method: str
    value: float
    guarantee: str
    wall_time_seconds: float
    gap: float | None = None
    rel_err: float | None = None
    metadata: dict = field(default_factory=dict)


def random_lb(net: ReLUNetwork, domain: Hyperbox, norm: str = "linf",
              n_samples: int = 1000, seed: int = 0) -> EstimateRecord:
    """Max chain-rule gradient dual norm over uniform samples: a lower bound.

    A ReLU network is differentiable almost everywhere (Rademacher), so the
    chain-rule gradient at a uniform sample is almost surely a true gradient,
    whose dual norm cannot exceed the Lipschitz constant.  All samples are
    drawn in one call from a single Philox stream, which yields them row by
    row in the order that one-at-a-time draws would; so for a fixed seed the
    first k samples of any two runs coincide and the estimate is monotone in
    n_samples.  One batched ``chain_rule_jacobian`` call differentiates them
    all and one ``norms.operator_dual_value`` call scores the stack.
    """
    if n_samples <= 0:
        raise ValueError("n_samples must be positive")
    start = time.perf_counter()
    rng = np.random.Generator(np.random.Philox(key=seed))
    jacs = chain_rule_jacobian(net, domain.sample(rng, n_samples), ALWAYS_ZERO)
    best = norms.operator_dual_value(jacs, norm, None)
    return EstimateRecord(
        "randomlb", best, LOWER, time.perf_counter() - start,
        metadata={"samples": n_samples},
    )


def naive_ub(net: ReLUNetwork) -> EstimateRecord:
    """Product of layer spectral norms scaled by sqrt(input_dim).

    The sqrt(d) factor converts the l2 bound to the l1/linf gradient norms
    it is compared against; it is valid (if loose) for both.
    """
    start = time.perf_counter()
    value = np.sqrt(net.input_dim)
    for w in (*net.weights, net.head):
        value *= np.linalg.norm(w, 2)
    return EstimateRecord("naiveub", float(value), UPPER, time.perf_counter() - start)


def estimate(
    net: ReLUNetwork,
    domain: Hyperbox | None,
    norm: str,
    method: str,
    *,
    samples: int = 1000,
    seed: int = 0,
    gap: float = 0.0,
    timeout: float = float("inf"),
) -> EstimateRecord:
    """Run one named estimator and wrap its result in an EstimateRecord.

    Every method bounds the Lipschitz constant of a scalar network; a
    multi-output network is rejected (see ``vector_ext.lipmip_vector``).
    """
    if net.output_dim != 1:
        raise ValueError(
            f"estimate needs a scalar network, got {net.output_dim} outputs; "
            "use vector_ext.lipmip_vector for multi-output networks"
        )
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; valid: {', '.join(METHODS)}")
    norms.check_input_norm(norm)
    if method == "naiveub":
        return naive_ub(net)
    if domain is None:
        raise ValueError(f"method {method!r} needs a domain")
    if method == "randomlb":
        return random_lb(net, domain, norm, n_samples=samples, seed=seed)
    start = time.perf_counter()
    if method == "fastlip":
        value = interval.fastlip(net, domain, norm)
        return EstimateRecord("fastlip", value, UPPER, time.perf_counter() - start)
    # LipLP is the backward encoding's relaxation
    problem = build_lipmip_model(net, domain, alpha=norm, backward=method == "liplp")
    if method == "liplp":
        value = bnb.solve_liplp(problem)
        return EstimateRecord("liplp", value, UPPER, time.perf_counter() - start)
    opts = bnb.SolveOptions(target_gap=gap, timeout_seconds=timeout)
    res = bnb.solve_mip(problem, opts)
    elapsed = time.perf_counter() - start
    if res.status == bnb.EXACT:
        return EstimateRecord(
            "lipmip", res.incumbent_value, EXACT, elapsed, gap=0.0,
            metadata={"nodes": res.nodes_explored, "status": res.status},
        )
    return EstimateRecord(
        "lipmip", res.upper_bound, GAPPED_UPPER, elapsed, gap=res.gap,
        metadata={
            "nodes": res.nodes_explored,
            "status": res.status,
            "incumbent": res.incumbent_value,
        },
    )


def compare(net, domain, norm, methods, **kwargs) -> list[EstimateRecord]:
    """Run several estimators; fill rel_err against the lipmip value."""
    records = [estimate(net, domain, norm, m, **kwargs) for m in methods]
    ref = next((r.value for r in records if r.method == "lipmip"), None)
    if ref is not None and ref != 0:
        for r in records:
            r.rel_err = (r.value - ref) / ref
    return records


def _csv_num(v) -> str:
    if v is None:
        return ""
    return format(float(v), ".12g")


def record_to_csv_row(record: EstimateRecord, include_time: bool = False) -> str:
    """One CSV row in the stable schema; timing is opt-in so that fixed-seed
    runs emit byte-identical files."""
    return ",".join(
        [
            record.method,
            _csv_num(record.value),
            record.guarantee,
            _csv_num(record.gap),
            _csv_num(record.wall_time_seconds) if include_time else "",
            _csv_num(record.rel_err),
            str(record.metadata.get("samples", "")),
            str(record.metadata.get("nodes", "")),
        ]
    )


def records_to_csv(records, include_time: bool = False) -> str:
    lines = [CSV_HEADER]
    lines.extend(record_to_csv_row(r, include_time) for r in records)
    return "\n".join(lines) + "\n"
