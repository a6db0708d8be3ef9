"""Ground-truth Lipschitz values by exhausting activation regions.

Within one linear region the Jacobian is constant, and the maximal gradient
norm over a box is attained at a point interior to some region, so for tiny
networks the exact value is the max of the per-region dual norm over all
regions that intersect the domain with at least ``interior_eps`` of
pre-activation slack.  Regions are enumerated depth-first in layer order:
once the signs of earlier layers are fixed, every pre-activation of the next
layer is affine in the input, so each partial sign assignment is an LP
feasibility question and infeasible prefixes prune whole subtrees.

One solver per layer prefix.  When the search enters layer k with the signs
of layers 0..k-1 fixed, it makes one ``SignPatternLP`` from those layers'
sigma' vectors with floor eps.  The class is the one builder of sign-pattern
polytopes; B&B's rounded-pattern heuristic
(``mip.LipMIPProblem.rounded_pattern_value``) asks it too, with every layer
decided and floor 0.  It computes each neuron's affine map m_j x + v_j with
``next_layer_affine``.  Every neuron of layers 0..k is a row m_j.x over x
alone, and its sign is a box on that row's activity: on [eps - v_j, hi],
off [lo, -eps - v_j], where [lo, hi] is the interval range of m_j.x over the
domain.  Layer k's neurons are open, with that range as their box, so an
undecided neuron constrains nothing.  Choosing a sign changes one row box,
with no rebuild and no presolve; an empty box is infeasible without a solve.
Every prefix owns its row boxes, which backtracking from a deeper layer finds
as it left them.  A prefix's rows are its parent's, in the same order,
followed by layer k's, so its first LP starts from the parent's last basis
with the new rows' slacks basic; the objective is zero, so that basis is
dual feasible.  Only layer 0's prefix starts cold, with one solve of its open
polytope on entry.  Every later LP of a prefix warm-starts from the basis of
the nearest ancestor's OPTIMAL answer, whose factorized tableau the solver
keeps, and a branch that the current witness already satisfies needs no LP.

Constant neurons.  A neuron whose map row over the prefix is exactly 0 has
the pre-activation v_j on the prefix's whole polytope, so it needs no eps
depth: it takes its constant's sign, off at v_j = 0, with no LP and no box
cut, and the builder leaves its row's box open ([0, 0]) unless its sign
disagrees with v_j (which the rounded heuristic may propose, and the box
then refutes).  At v_j = 0 either sign gives the same Jacobian and the same
downstream maps.  Asking eps depth of such a neuron would refute both signs
when |v_j| < eps
and drop every region below it.

Box refutation.  The search carries an input box that contains every point
an LP of the subtree could accept.  Such an answer is checked by the solver
against its bounds and rows: x within FEAS_TOL of the domain and each row's
activity within FEAS_TOL (1 + |v_j|) of its box, so a decided neuron's
signed pre-activation is at least eps - FEAS_TOL (1 + |v_j|) there, whether
its sign was decided in the open layer or in an earlier one.  The box starts
as the domain widened by FEAS_TOL and is cut by each accepted branch's row
relaxed by 2 FEAS_TOL (2 + eps + |v_j|), more than twice that allowance (the
factor two covers the rounding of the box arithmetic); a branch whose signed
pre-activation stays below eps minus the same margin over the whole box has
no point any LP could accept and is dropped unsolved.  The box refutes only
what the LP would reject, so the region set is the one the LPs alone would
give.

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
    """Some x in the domain that realizes a ReLU sign pattern: an LP over x alone.

    ``lams`` holds the sigma' vectors (1.0 on, 0.0 off) of layers 0..k-1, the
    decided layers; when k is below the network's depth, layer k is open.
    Every neuron of layers 0..k, in layer order, with affine map m_j.x + v_j
    over the prefix, is a row ``m[j].x`` whose activity box
    ``[row_lo[j], row_hi[j]]`` holds its sign.  An open neuron's box is the
    interval range [lo_j, hi_j] of m_j.x over the domain, so it constrains
    nothing.  A decided neuron's box is [floor - v_j, hi_j] when on and
    [lo_j, -floor - v_j] when off: its pre-activation is at least ``floor``
    on its sign's side.  A constant neuron (m_j = 0) whose sign is its
    constant's (off at v_j = 0) keeps its open box [0, 0].  The LP's
    right-hand side is -v, so a row's slack is the neuron's negated
    pre-activation, and its relations, all ``>=``, are never used: every
    solve passes the row boxes.

    Choosing a sign is a change of one row box, with no presolve, so sibling
    LPs share one solver and its bases.  A prefix's rows are its parent
    prefix's, in the same order, followed by the open layer's, so a basis of
    the parent extends to one of the child (``lp.Basis.with_new_rows``).
    Callers may edit ``row_lo`` and ``row_hi`` between solves.  The solver is
    built on the first solve.
    """

    def __init__(self, net: ReLUNetwork, domain: Hyperbox, lams, floor: float):
        m, v = net.weights[0], net.biases[0]
        ms, vs, los, his = [], [], [], []
        for k in range(min(len(lams) + 1, net.depth)):
            if k:
                m, v = next_layer_affine(net, k - 1, lams[k - 1], m, v)
            mp, mn = np.maximum(m, 0.0), np.minimum(m, 0.0)
            lo, hi = mp @ domain.l + mn @ domain.u, mp @ domain.u + mn @ domain.l
            if k < len(lams):
                on = lams[k] == 1.0
                decided = m.any(axis=1) | (on != (v > 0.0))
                lo = np.where(decided & on, floor - v, lo)
                hi = np.where(decided & ~on, -floor - v, hi)
            ms.append(m)
            vs.append(v)
            los.append(lo)
            his.append(hi)
        self.m, self.v = np.vstack(ms), np.concatenate(vs)
        self.row_lo, self.row_hi = np.concatenate(los), np.concatenate(his)
        self.first_open = self.v.size - (vs[-1].size if len(lams) < net.depth else 0)
        self._domain = domain
        self._solver = None

    def solve(self, basis: lp.Basis | None = None) -> lp.LPSolution:
        """Solve under the current row boxes, warm from ``basis`` (an OPTIMAL
        answer of this LP, or a parent prefix's extended to it) or cold.
        Raises SolverNumericalError when the LP fails, so that a failure is
        never read as proof that no x exists."""
        if self._solver is None:
            r, n0 = self.m.shape
            self._solver = lp.SimplexSolver(lp.LPProblem(
                np.zeros(n0), self.m, (">=",) * r, -self.v, self._domain.l, self._domain.u,
            ))
        sol = self._solver.solve(basis=basis, row_lo=self.row_lo, row_hi=self.row_hi)
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
    witness satisfies it, dropped without one when its row box is empty or
    the carried input box refutes it (see the module docstring for why that
    drops nothing an LP would accept), and otherwise decided by the layer
    prefix's LP, warm-started from the nearest ancestor's optimal basis.  A
    sign-pattern LP that fails raises ``lp.SolverNumericalError`` rather than
    pruning.  ``interior_eps`` must be a finite number above the LP
    feasibility tolerance ``lp.FEAS_TOL``, else ``ValueError``: at or below
    it, the tolerance lets one LP point witness both signs of a neuron, so
    neighbouring regions would overlap in the witnessed sets.  An unknown
    ``alpha``, or an ``output_norm`` that does not fit the head
    (``norms.check_output_norm``), raises ``ValueError`` before any LP.
    A neuron constant over its prefix's polytope needs no eps depth: it
    takes its constant's sign without an LP (module docstring).  A network
    of more than ``DEFAULT_NEURON_CAP`` neurons raises ``NeuronCapExceeded``.
    """
    if not lp.FEAS_TOL < interior_eps < np.inf:
        raise ValueError(f"interior_eps must be a finite number above the LP feasibility "
                         f"tolerance {lp.FEAS_TOL!r}, got {interior_eps!r}")
    norms.check_input_norm(alpha)
    norms.check_output_norm(output_norm, net.output_dim)
    if net.total_neurons > DEFAULT_NEURON_CAP:
        raise NeuronCapExceeded(
            f"network has {net.total_neurons} neurons, cap is {DEFAULT_NEURON_CAP}"
        )
    if domain.dim != net.input_dim:
        raise ValueError("domain dimension does not match the network")
    eps = float(interior_eps)
    sizes, depth = net.layer_sizes, net.depth
    signs = [np.zeros(s, dtype=np.int8) for s in sizes]

    def enter(k, basis, witness, bl, bu):
        """Start layer k below the signs of layers 0..k-1, from the parent
        prefix's basis; layer 0 makes the one cold start."""
        prefix = SignPatternLP(net, domain, [s.astype(float) for s in signs[:k]], eps)
        if basis is None:
            basis = prefix.solve().basis
        else:
            basis = basis.with_new_rows(sizes[k])
        yield from decide(k, 0, prefix, basis, witness, bl, bu)

    def decide(k, idx, prefix, basis, witness, bl, bu):
        """Choose the sign of neuron idx of layer k, then of the rest."""
        if idx == sizes[k]:
            if k + 1 < depth:
                yield from enter(k + 1, basis, witness, bl, bu)
                return
            jac = jacobian_from_multipliers(net, [s.astype(float) for s in signs])
            value = norms.operator_dual_value(jac, alpha, output_norm)
            pattern = tuple(s.copy() for s in signs)
            yield RegionCertificate(pattern, witness.copy(), jac, value)
            return
        j = prefix.first_open + idx
        row, off = prefix.m[j], prefix.v[j]
        if not row.any():  # constant: its constant's sign (module docstring)
            signs[k][idx] = off > 0.0
            yield from decide(k, idx + 1, prefix, basis, witness, bl, bu)
            return
        rlo, rhi = prefix.row_lo[j], prefix.row_hi[j]
        at_witness = row @ witness
        margin = 2.0 * lp.FEAS_TOL * (2.0 + eps + abs(off))
        for sign, s in ((1, 1.0), (0, -1.0)):
            lo, hi = (eps - off, rhi) if sign else (rlo, -eps - off)
            if lo > hi:
                continue
            prefix.row_lo[j], prefix.row_hi[j] = lo, hi
            a, floor = s * row, eps - s * off  # the branch is a.x >= floor
            child_basis, child_witness = basis, witness
            if not s * at_witness >= floor:
                if np.maximum(a * bl, a * bu).sum() < floor - margin:
                    continue
                sol = prefix.solve(basis)
                if sol.status != lp.OPTIMAL:
                    continue
                child_basis, child_witness = sol.basis, sol.x
            signs[k][idx] = sign
            cbl, cbu = _cut(bl, bu, a, floor - margin)
            yield from decide(k, idx + 1, prefix, child_basis, child_witness, cbl, cbu)
        prefix.row_lo[j], prefix.row_hi[j] = rlo, rhi
        signs[k][idx] = 0

    yield from enter(0, None, domain.center, domain.l - lp.FEAS_TOL, domain.u + lp.FEAS_TOL)


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
    enumerating the dual ball's spanning points.  Raises ``ValueError`` when
    ``interior_eps`` is not above ``lp.FEAS_TOL`` (``enumerate_regions``),
    and when no region has ``interior_eps`` of depth in the domain: the
    maximum over no region is no value of L.
    """
    values = [cert.dual_norm_value
              for cert in enumerate_regions(net, domain, interior_eps, alpha, output_norm)]
    if not values:
        raise ValueError(f"no region has interior_eps = {interior_eps!r} of depth in the "
                         "domain; a smaller interior_eps or a wider domain may find one")
    return max(values)
