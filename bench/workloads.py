"""Benchmark instances, their seeded variants and their reference values.

Every instance is a network, a box and a norm pair.  Seed 0 gives the
instances exactly as listed below.  Any other seed permutes the input
coordinates and the neurons of every hidden layer (and relabels the
vertices of the MIS graph).  A permuted network computes the same function
up to a permutation of its inputs, over a box that the permutation maps onto
itself, so its Lipschitz constant is the stored reference while the model the
solver sees has a different variable order.  Drawing new net seeds instead
would change the difficulty of each instance by orders of magnitude and make
run-to-run comparison meaningless.

``python3 bench/run.py --write-references`` re-derives every reference and
rewrites ``references.json``; it needs scipy for the instances above the
oracle's neuron cap and takes several minutes.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from lipcert import mip, network, oracle, reduction
from lipcert.interval import Hyperbox

WORKLOADS = ("exact_mix", "gap_capped", "bounds_sweep")
REFERENCE_FILE = Path(__file__).with_name("references.json")

#: Instances whose reference the region oracle can derive.
ORACLE_NEURON_CAP = oracle.DEFAULT_NEURON_CAP

# (arch, net seed, radius, alpha, output norm); boxes are centred at 0.5.
EXACT_MIX = (
    ((4, 8, 8, 1), 12, 0.5, "linf", None),
    ((3, 8, 8, 1), 1, 0.5, "linf", None),
    ((4, 6, 6, 1), 2, 0.5, "linf", None),
    ((3, 8, 8, 1), 1, 0.5, "l1", None),
    ((3, 8, 8, 3), 4, 0.5, "linf", "cross"),
)
GAP_CAPPED = (
    ((2, 16, 16, 1), 1, 1.0, "linf", None),
    ((10, 20, 20, 1), 3, 0.1, "linf", None),
    "petersen",
)
# Each net is estimated in both input norms.
BOUNDS_SWEEP = (
    ((2, 8, 8, 1), 1, 0.5),
    ((4, 8, 8, 1), 12, 0.5),
    ((3, 8, 8, 1), 1, 0.5),
    ((4, 6, 6, 1), 2, 0.5),
    ((2, 12, 12, 1), 6, 0.5),
    ((6, 12, 12, 1), 5, 0.25),
    ((10, 32, 32, 1), 3, 0.1),
)


@dataclass(frozen=True)
class Instance:
    """One Lipschitz problem; ``name`` does not depend on the seed."""

    name: str
    net: network.ReLUNetwork
    domain: Hyperbox
    alpha: str
    output_norm: str | None = None

    @property
    def neurons(self) -> int:
        return self.net.total_neurons


def _rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


def permute_network(net: network.ReLUNetwork, seed: int, index: int = 0):
    """The same network with inputs and hidden neurons reordered; seed 0 is
    the identity."""
    if seed == 0:
        return net
    rng = _rng(seed, index)
    perms = [rng.permutation(net.input_dim)] + [rng.permutation(n) for n in net.layer_sizes]
    weights = tuple(w[np.ix_(perms[i + 1], perms[i])] for i, w in enumerate(net.weights))
    biases = tuple(b[perms[i + 1]] for i, b in enumerate(net.biases))
    return network.ReLUNetwork(weights, biases, net.head[:, perms[-1]])


def relabel_graph(g: reduction.Graph, seed: int, index: int = 0) -> reduction.Graph:
    """The same graph with its vertices renumbered; seed 0 is the identity."""
    if seed == 0:
        return g
    perm = _rng(seed, index).permutation(g.n)
    return reduction.Graph.from_edges(g.n, [(int(perm[u]), int(perm[v])) for u, v in g.edges])


def _he(arch, net_seed, radius, alpha, output_norm, seed, index) -> Instance:
    name = f"he{list(arch)}-s{net_seed}-r{radius}-{alpha}".replace(" ", "")
    if output_norm is not None:
        name += f"-{output_norm}"
    net = permute_network(network.random_he(arch, net_seed), seed, index)
    domain = Hyperbox.from_center_radius(np.full(arch[0], 0.5), radius)
    return Instance(name, net, domain, alpha, output_norm)


def _petersen(seed: int, index: int) -> Instance:
    net = reduction.build_mis_network(relabel_graph(reduction.petersen_graph(), seed, index))
    domain = Hyperbox.from_center_radius(np.zeros(net.input_dim), 2.0)
    return Instance("petersen-mis", net, domain, "linf")


def make_inputs(workload: str, seed: int) -> list[Instance]:
    """The instances of one workload for one seed, in solve order."""
    if workload == "exact_mix":
        return [_he(*spec, seed, i) for i, spec in enumerate(EXACT_MIX)]
    if workload == "gap_capped":
        return [
            _petersen(seed, i) if spec == "petersen" else _he(*spec, seed, i)
            for i, spec in enumerate(GAP_CAPPED)
        ]
    if workload == "bounds_sweep":
        return [
            _he(arch, net_seed, radius, alpha, None, seed, i)
            for i, (arch, net_seed, radius) in enumerate(BOUNDS_SWEEP)
            for alpha in ("linf", "l1")
        ]
    raise ValueError(f"unknown workload {workload!r}; valid: {', '.join(WORKLOADS)}")


# -- reference values ------------------------------------------------------


def oracle_reference(inst: Instance) -> float:
    return oracle.exact_lipschitz_bruteforce(
        inst.net, inst.domain, inst.alpha, inst.output_norm
    )


def highs_reference(inst: Instance) -> tuple[float, float]:
    """Optimum of the exported LipMIP model by scipy's HiGHS ``milp`` and the
    seconds it took.  Raises ImportError without scipy."""
    from scipy.optimize import Bounds, LinearConstraint, milp

    model = mip.build_lipmip_model(inst.net, inst.domain, inst.alpha, inst.output_norm).model
    p = model.to_lp_problem()
    rel = np.array(p.relations)
    lower = np.where(rel == "<=", -np.inf, p.rhs)
    upper = np.where(rel == ">=", np.inf, p.rhs)
    integrality = np.zeros(p.num_vars)
    integrality[model.binary_vars] = 1
    start = time.perf_counter()
    res = milp(
        -p.objective,
        constraints=LinearConstraint(p.a, lower, upper),
        integrality=integrality,
        bounds=Bounds(p.lo, p.hi),
        options={"mip_rel_gap": 1e-9},
    )
    elapsed = time.perf_counter() - start
    if res.status != 0:
        raise RuntimeError(f"HiGHS did not solve {inst.name}: {res.message}")
    return float(-res.fun + model.objective_const), elapsed


def derive_reference(inst: Instance) -> tuple[float, str]:
    """(value, source) computed from scratch, cheapest exact method first."""
    if inst.name == "petersen-mis":
        return float(reduction.brute_force_mis(reduction.petersen_graph())), "mis"
    if inst.neurons <= ORACLE_NEURON_CAP:
        return oracle_reference(inst), "oracle"
    return highs_reference(inst)[0], "highs"


def load_references() -> dict[str, dict]:
    with open(REFERENCE_FILE) as fh:
        return json.load(fh)


def all_instances() -> dict[str, Instance]:
    """Every seed-0 instance by name."""
    return {inst.name: inst for w in WORKLOADS for inst in make_inputs(w, 0)}
