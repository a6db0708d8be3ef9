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

from . import bnb
from .interval import Hyperbox
from .mip import build_lipmip_model
from .network import ReLUNetwork, forward

#: A logit gap or Lipschitz bound at most this large counts as zero.
ZERO_TOL = 1e-12


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
) -> float:
    """Certified radius around x inside which the predicted label is constant.

    Radius = min_j |f_ij(x)| / L^(alpha, cross), using the certified upper
    bound for L so the radius stays valid even for gap-stopped solves, and
    capped at the distance from x to the boundary of ``domain``, the only
    set over which L bounds the network.  That distance, min(x - l, u - x),
    is the same for both input norms, because the extreme points of either
    ball lie on the axes.  Degenerate cases, each up to ``ZERO_TOL``: a tied
    argmax at x returns 0 (with a warning); a constant classifier (L = 0)
    returns the distance to the boundary.  An x outside the domain or a
    one-row head raises ValueError.
    """
    if net.output_dim < 2:
        raise ValueError("robustness radius needs a head with at least 2 rows")
    x = np.asarray(x, dtype=float).reshape(-1)
    if not domain.contains(x):
        raise ValueError("x lies outside the domain")
    edge = float(np.min(np.minimum(x - domain.l, domain.u - x)))
    logits = forward(net, x)
    order = np.argsort(logits)[::-1]
    top, second = order[0], order[1]
    if abs(logits[top] - logits[second]) <= ZERO_TOL:
        warnings.warn("argmax tied at the query point; radius is 0")
        return 0.0
    margin = min(
        abs(logits[top] - logits[j]) for j in range(net.output_dim) if j != top
    )
    lip = lipmip_vector(net, domain, alpha=alpha, output_norm="cross", opts=opts).upper_bound
    return edge if lip <= ZERO_TOL else min(float(margin / lip), edge)
