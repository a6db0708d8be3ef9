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
layers 0..k-1 fixed, it makes one ``SignPatternLP`` from those layers' sigma'
vectors with floor eps.  The class is the one builder of sign-pattern
polytopes; B&B's rounded-pattern heuristic
(``mip.LipMIPProblem.rounded_pattern_value``) asks it too, with every layer
decided and floor 0.  It computes each decided neuron's affine map
m_j x + v_j with ``next_layer_affine``; with sign s (+1 on, -1 off) the
neuron is a row s m_j.x >= eps - s v_j over x alone.  Layer k's neurons are
open: each keeps a column z_j with the row m_j.x - z_j = -v_j, whose z box
starts as the interval range of m_j x + v_j over the domain, so an undecided
neuron constrains nothing.  Choosing a sign is a bound change on z_j alone
(on: [eps, hi], off: [lo, -eps]); an empty box is infeasible without a
solve.  Every prefix owns its z bounds, which backtracking from a deeper
layer finds as it left them.  Every LP of the prefix warm-starts from the
basis of the nearest ancestor's OPTIMAL answer on the same solver, and a
branch that the current witness already satisfies needs no LP.

Constant neurons.  A neuron whose map row over the prefix is exactly 0 has
z_j = v_j on the prefix's whole polytope, so it needs no eps depth: it takes
its constant's sign, off at v_j = 0, with no LP and no box cut, and the
builder gives it a row only when its sign disagrees with v_j (which the
rounded heuristic may propose, and the row then refutes).  At v_j = 0 either
sign gives the same Jacobian and the same downstream maps.  Asking eps depth
of such a neuron would refute both signs when |v_j| < eps and drop every
region below it.

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
    constant Jacobian of the region.  The witness has ``interior_eps`` of
    slack in every neuron that is not constant over its prefix's polytope;
    a constant neuron needs no eps depth (module docstring)."""

    pattern: tuple[np.ndarray, ...]  # 1 = on, 0 = off, per layer
    witness: np.ndarray
    jacobian: np.ndarray
    dual_norm_value: float


class SignPatternLP:
    """Some x in the domain that realizes a ReLU sign pattern: an LP over [x, z].

    ``lams`` holds the sigma' vectors (1.0 on, 0.0 off) of layers 0..k-1, the
    decided layers.  Each decided neuron, with affine map m_j.x + v_j and
    sign s (+1 on, -1 off), is a row ``rows[i].x >= floors[i]`` with
    rows[i] = s m_j and floors[i] = floor - s v_j: its signed pre-activation
    is at least ``floor``.  A constant neuron (m_j = 0) whose sign is its
    constant's (off at v_j = 0) has no row.  When k is below the network's
    depth, layer k is open: its neurons, whose signs are being chosen, keep a
    column z_j each with the row ``open_m[j].x - z_j = -open_v[j]`` and a z
    box from the interval range of their map over the domain.  The equality
    presolve eliminates z_j, so choosing a sign is a bound change on z_j and
    sibling LPs share one solver and its bases.  ``lo`` and ``hi`` bound
    [x, z]; callers may edit them between solves.  The solver is built on
    the first solve.
    """

    def __init__(self, net: ReLUNetwork, domain: Hyperbox, lams, floor: float):
        m, v = net.weights[0], net.biases[0]
        rows, floors = [np.zeros((0, net.input_dim))], [np.zeros(0)]
        for k, lam in enumerate(lams):
            s = 2.0 * lam - 1.0
            keep = m.any(axis=1) | (lam != (v > 0.0))
            rows.append(s[keep, None] * m[keep])
            floors.append(floor - s[keep] * v[keep])
            if k + 1 < net.depth:
                m, v = next_layer_affine(net, k, lam, m, v)
        if len(lams) == net.depth:
            m, v = m[:0], v[:0]
        mp, mn = np.maximum(m, 0.0), np.minimum(m, 0.0)
        self.rows, self.floors = np.vstack(rows), np.concatenate(floors)
        self.open_m, self.open_v = m, v
        self.lo = np.concatenate([domain.l, mp @ domain.l + mn @ domain.u + v])
        self.hi = np.concatenate([domain.u, mp @ domain.u + mn @ domain.l + v])
        self._solver = None

    def solve(self, basis: lp.Basis | None = None) -> lp.LPSolution:
        """Solve under the current bounds, warm from ``basis`` (an OPTIMAL
        answer of this LP) or cold.  Raises SolverNumericalError when the LP
        fails, so that a failure is never read as proof that no x exists."""
        if self._solver is None:
            (r, n0), k = self.rows.shape, self.open_v.size
            a = np.block([[self.rows, np.zeros((r, k))], [self.open_m, -np.eye(k)]])
            self._solver = lp.SimplexSolver(lp.LPProblem(
                np.zeros(n0 + k), a, (">=",) * r + ("=",) * k,
                np.concatenate([self.floors, -self.open_v]), self.lo.copy(), self.hi.copy(),
            ))
        sol = self._solver.solve(self.lo, self.hi, basis=basis)
        if sol.status == lp.NUMERICAL_FAILURE:
            raise lp.SolverNumericalError("sign-pattern LP failed")
        return sol


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
    A neuron constant over its prefix's polytope needs no eps depth: it
    takes its constant's sign without an LP (module docstring).  A network
    of more than ``DEFAULT_NEURON_CAP`` neurons raises ``NeuronCapExceeded``.
    """
    if not 0.0 < interior_eps < np.inf:
        raise ValueError(f"interior_eps must be a finite number > 0, got {interior_eps!r}")
    norms.check_input_norm(alpha)
    norms.check_output_norm(output_norm, net.output_dim)
    if net.total_neurons > DEFAULT_NEURON_CAP:
        raise NeuronCapExceeded(
            f"network has {net.total_neurons} neurons, cap is {DEFAULT_NEURON_CAP}"
        )
    if domain.dim != net.input_dim:
        raise ValueError("domain dimension does not match the network")
    eps = float(interior_eps)
    n0, sizes, depth = net.input_dim, net.layer_sizes, net.depth
    signs = [np.zeros(s, dtype=np.int8) for s in sizes]

    def enter(k, witness, bl, bu):
        """Start layer k below the signs of layers 0..k-1."""
        prefix = SignPatternLP(net, domain, [s.astype(float) for s in signs[:k]], eps)
        yield from decide(k, 0, prefix, None, witness, bl, bu)

    def decide(k, idx, prefix, basis, witness, bl, bu):
        """Choose the sign of neuron idx of layer k, then of the rest."""
        if idx == sizes[k]:
            if k + 1 < depth:
                yield from enter(k + 1, witness, bl, bu)
                return
            jac = jacobian_from_multipliers(net, [s.astype(float) for s in signs])
            value = norms.operator_dual_value(jac, alpha, output_norm)
            pattern = tuple(s.copy() for s in signs)
            yield RegionCertificate(pattern, witness.copy(), jac, value)
            return
        row, off = prefix.open_m[idx], prefix.open_v[idx]
        if not row.any():  # constant: its constant's sign (module docstring)
            signs[k][idx] = off > 0.0
            yield from decide(k, idx + 1, prefix, basis, witness, bl, bu)
            return
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
            yield from decide(k, idx + 1, prefix, child_basis, child_witness, cbl, cbu)
        lo[col], hi[col] = zlo, zhi
        signs[k][idx] = 0

    yield from enter(0, domain.center, domain.l - lp.FEAS_TOL, domain.u + lp.FEAS_TOL)


def exact_lipschitz_bruteforce(
    net: ReLUNetwork,
    domain: Hyperbox,
    alpha: str = "linf",
    output_norm: str | None = None,
    interior_eps: float = DEFAULT_INTERIOR_EPS,
) -> float:
    """Exact max of the region-Jacobian dual norm over the domain.

    Scalar networks use the plain dual vector norm of the gradient row;
    vector-valued networks maximize ||J||_{alpha->beta} per region by
    enumerating the dual ball's spanning points.
    """
    best = 0.0
    for cert in enumerate_regions(net, domain, interior_eps, alpha, output_norm):
        best = max(best, cert.dual_norm_value)
    return best
