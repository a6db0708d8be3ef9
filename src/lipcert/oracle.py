"""Ground-truth Lipschitz values by exhausting activation regions.

Within one linear region the Jacobian is constant, and the maximal gradient
norm over a box is attained at a point interior to some region, so for tiny
networks the exact value is the max of the per-region dual norm over all
regions that intersect the domain with at least ``interior_eps`` of
pre-activation slack.  Regions are enumerated depth-first in layer order:
once the signs of earlier layers are fixed, every pre-activation of the next
layer is affine in the input, so each partial sign assignment is an LP
feasibility question and infeasible prefixes prune whole subtrees.

This path shares no interval analysis and no big-M encoding with the MIP
pipeline (only the LP solver and the per-pattern affine maps), which is what
makes it a meaningful cross-check.

Deliberately capped: the region count is exponential in neurons.  Boundary
(lower-dimensional) regions are excluded by construction; chain-rule values
that exist only on such boundaries can exceed this oracle on networks whose
kernels are degenerately placed (see the identity-network demo).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import lp, norms
from .interval import Hyperbox
from .network import ReLUNetwork, jacobian_from_multipliers, next_layer_affine

DEFAULT_INTERIOR_EPS = 1e-6
DEFAULT_NEURON_CAP = 24


class NeuronCapExceeded(RuntimeError):
    """Refusal to enumerate regions of a network above the neuron cap."""


@dataclass(frozen=True)
class RegionCertificate:
    """One linear region: its sign pattern, an interior witness, and the
    constant Jacobian of the region."""

    pattern: tuple[np.ndarray, ...]  # 1 = on, 0 = off, per layer
    witness: np.ndarray
    jacobian: np.ndarray
    dual_norm_value: float


def enumerate_regions(
    net: ReLUNetwork,
    domain: Hyperbox,
    interior_eps: float = DEFAULT_INTERIOR_EPS,
    neuron_cap: int = DEFAULT_NEURON_CAP,
    alpha: str = "linf",
    output_norm: str | None = None,
):
    """Yield a certificate for every region with an eps-deep point in the box.

    Each certificate's witness satisfies all its sign constraints with slack
    >= interior_eps.  Full-dimensional regions intersecting the domain deeply
    enough are produced exactly once; thinner slivers are skipped.  A witness
    LP that fails raises ``lp.SolverNumericalError`` rather than pruning.
    """
    if net.total_neurons > neuron_cap:
        raise NeuronCapExceeded(
            f"network has {net.total_neurons} neurons, cap is {neuron_cap}; "
            "raise neuron_cap explicitly if the exponential cost is intended"
        )
    if domain.dim != net.input_dim:
        raise ValueError("domain dimension does not match the network")
    # running LP: box bounds plus one >= row per decided neuron
    rows: list[np.ndarray] = []
    rhs: list[float] = []

    # flattened neuron order: layer by layer
    sizes = net.layer_sizes
    d = net.depth

    def recurse(layer, idx, m, v, signs_so_far, witness):
        if layer == d:
            mults = [s.astype(float) for s in signs_so_far]
            jac = jacobian_from_multipliers(net, mults)
            value = norms.operator_dual_value(jac, alpha, output_norm)
            pattern = tuple(s.copy() for s in signs_so_far)
            yield RegionCertificate(pattern, witness.copy(), jac, value)
            return
        row = m[idx]
        off = v[idx]
        for sign in (1, 0):
            if sign == 1:
                extra_row, extra_rhs = row, interior_eps - off
            else:
                extra_row, extra_rhs = -row, interior_eps + off
            # cheap test: does the current witness already satisfy the branch?
            if witness is not None and extra_row @ witness >= extra_rhs:
                new_witness = witness
            else:
                new_witness = lp.box_witness(
                    rows + [extra_row], rhs + [extra_rhs], domain.l, domain.u
                )
                if new_witness is None:
                    continue
            rows.append(extra_row)
            rhs.append(extra_rhs)
            signs_so_far[layer][idx] = sign
            if idx + 1 == sizes[layer]:
                if layer + 1 == d:
                    yield from recurse(d, 0, None, None, signs_so_far, new_witness)
                else:
                    signs = signs_so_far[layer].astype(float)
                    nm, nv = next_layer_affine(net, layer, signs, m, v)
                    yield from recurse(layer + 1, 0, nm, nv, signs_so_far, new_witness)
            else:
                yield from recurse(layer, idx + 1, m, v, signs_so_far, new_witness)
            rows.pop()
            rhs.pop()
        signs_so_far[layer][idx] = 0

    signs0 = [np.zeros(s, dtype=np.int8) for s in sizes]
    m0 = net.weights[0].copy()
    v0 = net.biases[0].copy()
    root_witness = lp.box_witness(rows, rhs, domain.l, domain.u)
    yield from recurse(0, 0, m0, v0, signs0, root_witness)


def exact_lipschitz_bruteforce(
    net: ReLUNetwork,
    domain: Hyperbox,
    alpha: str = "linf",
    output_norm: str | None = None,
    interior_eps: float = DEFAULT_INTERIOR_EPS,
    neuron_cap: int = DEFAULT_NEURON_CAP,
) -> float:
    """Exact max of the region-Jacobian dual norm over the domain.

    Scalar networks use the plain dual vector norm of the gradient row;
    vector-valued networks maximize ||J||_{alpha->beta} per region by
    enumerating the dual ball's spanning points.
    """
    best = 0.0
    for cert in enumerate_regions(
        net, domain, interior_eps, neuron_cap, alpha, output_norm
    ):
        best = max(best, cert.dual_norm_value)
    return best
