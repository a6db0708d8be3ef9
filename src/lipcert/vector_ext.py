"""Vector-valued Lipschitz constants and the untargeted robustness radius.

For a multi-output network the constant L^(alpha,beta) is computed by the
same mixed-integer machinery with one change: the backward recursion is
seeded with head^T z for a dual-ball variable z instead of the constant head
row, so the solver optimizes over inputs and output directions jointly.  Any
output norm whose dual unit ball is a polytope works; l1, linf and the
cross-norm (dual ball = hull of {e_i} and {e_i - e_j}) are provided.

The cross-norm exists for one purpose: a single Lipschitz constant that
certifies an untargeted classification radius, because it dominates every
pairwise logit-difference constant at once.
"""

from __future__ import annotations

import warnings

import numpy as np

from . import bnb, norms
from .interval import Hyperbox
from .mip import build_lipmip_model
from .network import ReLUNetwork, forward


def lipmip_vector(
    net: ReLUNetwork,
    domain: Hyperbox,
    alpha: str = "linf",
    output_norm: str = "linf",
    opts: bnb.SolveOptions | None = None,
) -> bnb.MIPResult:
    """Exact L^(alpha,beta) of a multi-output network over a box."""
    if net.output_dim < 2:
        raise ValueError("vector-valued solve needs a head with at least 2 rows")
    if output_norm not in norms.OUTPUT_NORMS:
        raise ValueError(
            f"unsupported output norm {output_norm!r}; valid: l1, linf, cross"
        )
    problem = build_lipmip_model(net, domain, alpha=alpha, output_norm=output_norm)
    return bnb.solve_mip(problem, opts)


def difference_network(net: ReLUNetwork, i: int, j: int) -> ReLUNetwork:
    """Scalar network computing f_i - f_j (same hidden layers)."""
    row = (net.head[i] - net.head[j]).reshape(1, -1)
    return ReLUNetwork(weights=net.weights, biases=net.biases, head=row)


def robustness_radius(
    net: ReLUNetwork,
    x,
    domain: Hyperbox,
    alpha: str = "linf",
    opts: bnb.SolveOptions | None = None,
    zero_tol: float = 1e-12,
) -> float:
    """Certified radius around x inside which the predicted label is constant.

    Radius = min_j |f_ij(x)| / L^(alpha, cross), using the certified upper
    bound for L so the radius stays valid even for gap-stopped solves.
    Degenerate cases: a tied argmax at x returns 0 (with a warning); a
    constant classifier (L = 0) returns +inf.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    logits = forward(net, x)
    order = np.argsort(logits)[::-1]
    top, second = order[0], order[1]
    if abs(logits[top] - logits[second]) <= zero_tol:
        warnings.warn("argmax tied at the query point; radius is 0")
        return 0.0
    margin = min(
        abs(logits[top] - logits[j]) for j in range(net.output_dim) if j != top
    )
    res = lipmip_vector(net, domain, alpha=alpha, output_norm="cross", opts=opts)
    lip = res.upper_bound
    if lip <= zero_tol:
        return float("inf")
    return float(margin / lip)
