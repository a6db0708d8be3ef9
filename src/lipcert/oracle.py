"""Ground-truth Lipschitz values by exhausting activation regions.

Within one linear region the Jacobian is constant, and the maximal gradient
norm over a box is attained at a point interior to some region, so for tiny
networks the exact value is the max of the per-region dual norm over all
regions that intersect the domain with at least ``interior_eps`` of
pre-activation slack.  Regions are enumerated depth-first in layer order:
once the signs of earlier layers are fixed, every pre-activation of the next
layer is affine in the input, so each partial sign assignment is an LP
feasibility question and infeasible prefixes prune whole subtrees.

One LP per layer prefix.  When the search enters layer k with the signs of
layers 0..k-1 fixed, it makes one ``lp.SignPatternLP`` over the input x and
layer k's pre-activations z.  Each decided neuron of layers 0..k-1, with
affine map m_j x + v_j from ``next_layer_affine`` and sign s (+1 on, -1 off),
is a row s m_j.x >= eps - s v_j over x alone.  Layer k's neurons are open:
each keeps a column z_j with the row m_j.x - z_j = -v_j, whose z box starts
as the interval range of m_j x + v_j over the domain, so an undecided neuron
constrains nothing.  Choosing a sign is a bound change on z_j alone (on:
[eps, hi], off: [lo, -eps]); an empty box is infeasible without a solve.
Every prefix owns its z bounds, which backtracking from a deeper layer finds
as it left them.  Every LP of the prefix warm-starts from the basis of the
nearest ancestor's OPTIMAL answer on the same solver, and a branch that the
current witness already satisfies needs no LP.

Box refutation.  The search carries an input box that contains every point
an LP of the subtree could accept.  Such an answer is checked by the solver
against its bounds and rows: x within FEAS_TOL of the domain, an open z_j
within FEAS_TOL of its sign box and each row within FEAS_TOL (1 + |rhs|), so
a decided neuron's signed pre-activation is at least
eps - FEAS_TOL (2 + eps + |v_j|) there, whether its sign was decided in the
open layer or in an earlier one.  The box starts as the domain widened by
FEAS_TOL and is cut by each accepted branch's row relaxed by twice that
amount (the factor two covers the rounding of the box arithmetic); a branch
whose signed pre-activation stays below eps minus the same margin over the
whole box has no point any LP could accept and is dropped unsolved.  The box
refutes only what the LP would reject, so the region set is the one the LPs
alone would give.

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


def _image(m, v, bl, bu):
    """Interval range of the rows of m x + v over the box [bl, bu]."""
    mp, mn = np.maximum(m, 0.0), np.minimum(m, 0.0)
    return mp @ bl + mn @ bu + v, mp @ bu + mn @ bl + v


def _cut(bl, bu, a, floor):
    """The box [bl, bu] cut by the row a.x >= floor, one coordinate at a time:
    each coordinate must make up what the others can at most contribute."""
    top = np.maximum(a * bl, a * bu)
    need = floor - (top.sum() - top)
    bound = np.divide(need, a, out=np.zeros_like(a), where=a != 0.0)
    return (np.where(a > 0.0, np.maximum(bl, bound), bl),
            np.where(a < 0.0, np.minimum(bu, bound), bu))


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
    >= interior_eps, up to the LP's feasibility tolerance.  Full-dimensional
    regions intersecting the domain deeply enough are produced exactly once;
    thinner slivers are skipped.  The search starts from the domain's centre
    as witness.  Per neuron, a sign is accepted without an LP when the
    witness satisfies it, dropped without one when its z box is empty or the
    carried input box refutes it (see the module docstring for why that
    drops nothing an LP would accept), and otherwise decided by the layer
    prefix's LP, warm-started from the nearest ancestor's optimal basis.  A
    sign-pattern LP that fails raises ``lp.SolverNumericalError`` rather than
    pruning.  ``interior_eps`` must be a finite number > 0: at 0 or below,
    neighbouring regions would overlap in the witnessed sets.  An unknown
    ``alpha``, or an ``output_norm`` that does not fit the head
    (``norms.check_output_norm``), raises ``ValueError`` before any LP.
    """
    if not 0.0 < interior_eps < np.inf:
        raise ValueError(f"interior_eps must be a finite number > 0, got {interior_eps!r}")
    norms.check_input_norm(alpha)
    norms.check_output_norm(output_norm, net.output_dim)
    if net.total_neurons > neuron_cap:
        raise NeuronCapExceeded(
            f"network has {net.total_neurons} neurons, cap is {neuron_cap}; "
            "raise neuron_cap explicitly if the exponential cost is intended"
        )
    if domain.dim != net.input_dim:
        raise ValueError("domain dimension does not match the network")
    eps = float(interior_eps)
    n0, sizes, depth = net.input_dim, net.layer_sizes, net.depth
    signs = [np.zeros(s, dtype=np.int8) for s in sizes]

    def enter(k, m, v, rows, floors, witness, bl, bu):
        """Start layer k, whose pre-activations are m x + v, below the rows
        ``rows.x >= floors`` of the decided layers."""
        zlo, zhi = _image(m, v, domain.l, domain.u)
        prefix = lp.SignPatternLP(rows, floors, np.concatenate([domain.l, zlo]),
                                  np.concatenate([domain.u, zhi]), m, v)
        yield from decide(k, 0, m, v, prefix, None, witness, bl, bu)

    def decide(k, idx, m, v, prefix, basis, witness, bl, bu):
        """Choose the sign of neuron idx of layer k, then of the rest."""
        if idx == sizes[k]:
            if k + 1 < depth:
                lam = signs[k].astype(float)
                s = 2.0 * lam - 1.0
                nm, nv = next_layer_affine(net, k, lam, m, v)
                yield from enter(k + 1, nm, nv, np.vstack([prefix.rows, s[:, None] * m]),
                                 np.concatenate([prefix.floors, eps - s * v]), witness, bl, bu)
                return
            jac = jacobian_from_multipliers(net, [s.astype(float) for s in signs])
            value = norms.operator_dual_value(jac, alpha, output_norm)
            pattern = tuple(s.copy() for s in signs)
            yield RegionCertificate(pattern, witness.copy(), jac, value)
            return
        row, off = m[idx], v[idx]
        lo, hi, col = prefix.lo, prefix.hi, n0 + idx
        zlo, zhi = lo[col], hi[col]
        at_witness = row @ witness
        margin = 2.0 * lp.FEAS_TOL * (2.0 + eps + abs(off))
        for sign, s in ((1, 1.0), (0, -1.0)):
            lo[col], hi[col] = (eps, zhi) if sign else (zlo, -eps)
            if lo[col] > hi[col]:
                continue
            a, floor = s * row, eps - s * off  # the branch is a.x >= floor
            child_basis, child_witness = basis, witness
            if not s * at_witness >= floor:
                if np.maximum(a * bl, a * bu).sum() < floor - margin:
                    continue
                sol = prefix.solve(basis)
                if sol.status != lp.OPTIMAL:
                    continue
                child_basis, child_witness = sol.basis, sol.x[:n0]
            signs[k][idx] = sign
            cbl, cbu = _cut(bl, bu, a, floor - margin)
            yield from decide(k, idx + 1, m, v, prefix, child_basis, child_witness, cbl, cbu)
        lo[col], hi[col] = zlo, zhi
        signs[k][idx] = 0

    yield from enter(
        0, net.weights[0], net.biases[0], np.zeros((0, n0)), np.zeros(0),
        domain.center, domain.l - lp.FEAS_TOL, domain.u + lp.FEAS_TOL,
    )


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
