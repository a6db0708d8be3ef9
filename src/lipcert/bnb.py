"""Best-first branch-and-bound over the in-repo LP solver.

Nodes carry a set of binary fixes.  A child's LP relaxation is re-solved
once, at creation, by dual simplex from its parent's optimal basis, whose
snapshot the parent's heap entry keeps.  With the incumbent as cutoff, that
solve stops before the LP optimum once it certifies that the child cannot
beat the incumbent; such a node is pruned and never enters the heap.  A
node's bound is the certified ``SimplexSolver.dual_bound`` of its final
basis, not the LP's raw value.  Every
node in the heap therefore has a fully solved LP, the heap holds true subtree
upper bounds, and the best open bound is a certified global upper bound.
Lower bounds come from a structure-aware primal heuristic: the x part of any
node LP solution is a real network input, so its exact chain-rule gradient
norm is an attainable objective value.  Incumbent and upper bound therefore
sandwich the true optimum at every moment, which is what makes early
stopping at a target integrality gap sound.

When a Lipschitz problem context is available, bound tightening (optional,
default on) works at two points.  Before branching, ``tighten_root``
maximizes and minimizes each undecided pre-activation over the LP relaxation
of the layers below it, layer by layer, and rebuilds the model from the
tighter boxes: smaller big-Ms, and neurons whose sign the boxes decide lose
their binary.  During the search, fixing a binary re-runs interval
propagation with that neuron pinned, intersected with those boxes, and
tightens every affected variable bound in the child.
"""

from __future__ import annotations

import heapq
import logging
import time
from dataclasses import dataclass, field

import numpy as np

from . import lp
from .interval import Hyperbox
from .lp import SolverNumericalError
from .mip import LipMIPProblem, MIPModel

logger = logging.getLogger("lipcert")

EXACT = "exact"
GAP_REACHED = "gap_reached"
TIMEOUT = "timeout"
NODE_LIMIT = "node_limit"

_INT_TOL = 1e-6
_EXACT_GAP = 1e-8
_PRUNE_TOL = 1e-9  # relative slack when comparing a bound to the incumbent
_EPS_GAP = 1e-9  # floor of the gap's denominator near a zero incumbent


class InfeasibleModelError(RuntimeError):
    """The model admits no feasible point at all."""


@dataclass
class SolveOptions:
    """Termination and reproducibility controls for one solve."""

    target_gap: float = 0.0
    timeout_seconds: float = float("inf")
    node_limit: int = 10 ** 9
    tighten_bounds: bool = True
    keep_events: bool = False

    def __post_init__(self):
        if self.target_gap < 0:
            raise ValueError("target_gap must be >= 0")


@dataclass
class NodeEvent:
    """One row of the optional per-node progress log."""

    node: int
    upper_bound: float
    incumbent: float
    depth: int


@dataclass
class LayerTightening:
    """Root tightening of one hidden layer (see ``tighten_root``).

    ``unstable_*`` count the layer's neurons of undecided sign (those with a
    binary) and ``mean_width_*`` is the mean width of their pre-activation
    boxes, in the model before the tightening and in the rebuilt model
    after it.  ``lps`` and ``pivots`` are the LP solves and simplex pivots
    spent on the layer.
    """

    layer: int
    unstable_before: int
    unstable_after: int
    mean_width_before: float
    mean_width_after: float
    lps: int
    pivots: int


@dataclass
class MIPResult:
    """Certified sandwich around the optimum plus run accounting.

    ``root_tightening`` has one record per hidden layer when the solve
    tightened a LipMIPProblem's root, and is empty otherwise."""

    upper_bound: float
    incumbent_value: float
    incumbent_point: np.ndarray | None
    gap: float
    status: str
    nodes_explored: int
    wall_time: float
    events: list[NodeEvent] = field(default_factory=list)
    root_tightening: list[LayerTightening] = field(default_factory=list)


def _gap(upper: float, incumbent: float) -> float:
    if upper <= incumbent:
        return 0.0
    return (upper - incumbent) / max(abs(incumbent), _EPS_GAP)


def _unstable_width(problem: LipMIPProblem, layer: int) -> tuple[int, float]:
    """Undecided neurons of a layer and the mean width of their boxes."""
    free = problem.neuron_bins[layer] >= 0
    box = problem.pre_boxes[layer]
    widths = (box.u - box.l)[free]
    return int(free.sum()), float(widths.mean()) if widths.size else 0.0


def tighten_root(problem: LipMIPProblem, deadline: float = np.inf):
    """Progressive LP bound tightening of the pre-activation boxes.

    For each hidden layer i in order, every neuron whose sign is undecided
    has its pre-activation maximized and minimized over the LP relaxation of
    the layers below i; then the model is rebuilt from the tightened boxes
    before layer i+1 is tightened.  That LP needs no model of its own: the
    variables and rows are declared in forward order, so the variables up to
    layer i's pre-activations, with the rows that mention only them, are the
    LP relaxation of the layers below i.  Each LP starts from the previous
    optimal basis of the layer.  Each new bound is the certified
    ``SimplexSolver.dual_bound`` of the final basis, never the raw primal
    objective; a failed LP keeps that side's bound.  Layer 0's interval
    boxes are exact over a plain box, so it is tightened only under input
    constraints.  Past ``deadline`` (a ``time.perf_counter`` value) no
    further neuron is tightened.

    Returns the rebuilt problem and one LayerTightening per hidden layer.
    """
    depth = problem.net.depth
    spent = [[0, 0] for _ in range(depth)]  # LPs and pivots per layer
    current = problem
    first = 0 if problem.input_constraints else 1
    for i in range(first, depth):
        free = np.flatnonzero(current.neuron_bins[i] >= 0)
        if free.size == 0:
            continue
        full = current.model.to_lp_problem()
        pre = current.pre_vars[i]
        n = int(pre[-1]) + 1
        rows = ~full.a[:, n:].any(axis=1)
        solver = lp.SimplexSolver(lp.LPProblem(
            objective=np.zeros(n), a=full.a[rows, :n],
            relations=tuple(r for r, keep in zip(full.relations, rows) if keep),
            rhs=full.rhs[rows],
            lo=full.lo[:n], hi=full.hi[:n],
        ))
        box = current.pre_boxes[i]
        lo, hi = box.l.copy(), box.u.copy()
        basis = None
        for j in free:
            if time.perf_counter() > deadline:
                break
            for sign in (1.0, -1.0):
                c = np.zeros(n)
                c[pre[j]] = sign
                sol = solver.solve(objective=c, basis=basis)
                spent[i][0] += 1
                spent[i][1] += sol.iterations
                if sol.status != lp.OPTIMAL:
                    continue
                basis = sol.basis
                bound = solver.dual_bound()
                if not np.isfinite(bound):
                    continue
                if sign > 0:
                    hi[j] = min(hi[j], bound)
                else:
                    lo[j] = max(lo[j], -bound)
            if lo[j] > hi[j]:  # only by rounding: keep the interval box
                lo[j], hi[j] = box.l[j], box.u[j]
        if np.array_equal(lo, box.l) and np.array_equal(hi, box.u):
            continue
        boxes = list(current.pre_boxes)
        boxes[i] = Hyperbox(lo, hi)
        current = current.rebuild(boxes)
    records = []
    for i in range(depth):
        before, after = _unstable_width(problem, i), _unstable_width(current, i)
        records.append(LayerTightening(i, before[0], after[0], before[1], after[1], *spent[i]))
    return current, records


def solve_mip(problem, opts: SolveOptions | None = None) -> MIPResult:
    """Branch-and-bound solve of a MIPModel or LipMIPProblem (maximization).

    With a LipMIPProblem the solver uses the network-evaluation primal
    heuristic and, with ``opts.tighten_bounds``, LP tightening of the root
    (``tighten_root``, inside the timed window) and interval-based node
    tightening; with a bare MIPModel, incumbents come from integral LP
    solutions only.
    """
    opts = opts or SolveOptions()
    start = time.perf_counter()
    tightening: list[LayerTightening] = []
    if isinstance(problem, LipMIPProblem):
        if opts.tighten_bounds:
            problem, tightening = tighten_root(problem, start + opts.timeout_seconds)
            logger.debug(
                "root tightening in %.3f s: %s", time.perf_counter() - start,
                "; ".join(
                    f"L{r.layer} unstable {r.unstable_before}->{r.unstable_after} "
                    f"width {r.mean_width_before:.3g}->{r.mean_width_after:.3g} "
                    f"({r.lps} LPs, {r.pivots} pivots)"
                    for r in tightening
                ),
            )
        model: MIPModel = problem.model
        context = problem
    else:
        model = problem
        context = None
    solver = lp.SimplexSolver(model.to_lp_problem())
    binaries = model.binary_vars

    state = {
        "incumbent": -np.inf,
        "point": None,
        "nodes": 0,
        "counter": 0,
        "tightening": tightening,
    }
    events: list[NodeEvent] = []
    heap: list = []  # entries (-bound, counter, fixes, branch_var, depth, basis)

    def update_incumbent(value, point):
        if value > state["incumbent"]:
            state["incumbent"] = value
            state["point"] = None if point is None else np.array(point)

    def solve_node(fixes, lo, hi, depth, basis=None):
        """LP-solve one node (from its parent's basis) and push it if still
        interesting."""
        if lo is None:
            lo = np.array(model.lo)
            hi = np.array(model.hi)
            for v, val in fixes.items():
                lo[v] = hi[v] = float(val)
        inc = state["incumbent"]
        cutoff = inc * (1.0 + _PRUNE_TOL) - model.objective_const if np.isfinite(inc) else np.inf
        sol = solver.solve(lo=lo, hi=hi, basis=basis, cutoff=cutoff)
        if sol.status == lp.NUMERICAL_FAILURE:
            sol = solver.solve(lo=lo, hi=hi, pivot_tol=1e-11)
            if sol.status == lp.NUMERICAL_FAILURE:
                raise SolverNumericalError(
                    f"LP failed twice at node depth {depth} ({len(fixes)} fixes)"
                )
        state["nodes"] += 1
        if sol.status in (lp.INFEASIBLE, lp.CUTOFF):
            return
        value = sol.objective_value + model.objective_const
        # the heap keeps the certified bound; an unreadable one weakens to inf
        bound = solver.dual_bound() + model.objective_const
        if not np.isfinite(bound):
            bound = np.inf
        if context is not None:
            val, x = context.incumbent_from_point(sol.x)
            update_incumbent(val, x)
            rounded = context.rounded_pattern_value(sol.x)
            if rounded is not None:
                update_incumbent(*rounded)
        fractional = [
            b for b in binaries
            if b not in fixes and min(sol.x[b], 1.0 - sol.x[b]) > _INT_TOL
        ]
        if not fractional:
            # an incumbent must be attainable: the LP's own value at its point
            point = sol.x[context.input_vars] if context is not None else sol.x
            update_incumbent(value, point)
            return
        inc = state["incumbent"]
        if np.isfinite(inc) and bound <= inc * (1.0 + _PRUNE_TOL):
            return
        # most-fractional branching, ties to the lowest variable id
        branch_var = min((abs(sol.x[b] - 0.5), b) for b in fractional)[1]
        state["counter"] += 1
        heapq.heappush(heap, (-bound, state["counter"], fixes, branch_var, depth, sol.basis))

    solve_node({}, None, None, 0)

    status = EXACT
    while heap:
        neg_bound, _, fixes, branch_var, depth, basis = heapq.heappop(heap)
        bound = -neg_bound
        inc = state["incumbent"]
        upper = max(bound, inc) if np.isfinite(inc) else bound
        if opts.keep_events:
            events.append(NodeEvent(state["nodes"], upper, inc, depth))
        if np.isfinite(inc) and bound <= inc * (1.0 + _PRUNE_TOL):
            continue  # stale: incumbent improved after insertion
        gap = _gap(upper, inc) if np.isfinite(inc) else np.inf
        if gap <= _EXACT_GAP:
            return _finish(EXACT, upper, state, gap, start, events)
        if opts.target_gap > 0 and gap <= opts.target_gap:
            return _finish(GAP_REACHED, upper, state, gap, start, events)
        if time.perf_counter() - start > opts.timeout_seconds:
            return _finish(TIMEOUT, upper, state, gap, start, events)
        if state["nodes"] >= opts.node_limit:
            return _finish(NODE_LIMIT, upper, state, gap, start, events)

        for val in (1, 0):
            child_fixes = dict(fixes)
            child_fixes[branch_var] = val
            child_lo = child_hi = None
            if context is not None and opts.tighten_bounds:
                tightened = context.tightened_bounds(child_fixes)
                if tightened is None:
                    continue  # interval analysis refutes this branch
                child_lo, child_hi, implied = tightened
                child_fixes.update(implied)
                # objective bound from the tightened boxes alone: prunes the
                # child without an LP solve when it cannot beat the incumbent
                ibound = model.objective_const + sum(
                    c * (child_hi[v] if c > 0 else child_lo[v])
                    for v, c in model.objective.items()
                )
                inc = state["incumbent"]
                if np.isfinite(inc) and ibound <= inc * (1.0 + _PRUNE_TOL):
                    continue
            solve_node(child_fixes, child_lo, child_hi, depth + 1, basis)

    if not np.isfinite(state["incumbent"]):
        raise InfeasibleModelError("no feasible integral point")
    return _finish(status, state["incumbent"], state, 0.0, start, events)


def _finish(status, upper, state, gap, start, events) -> MIPResult:
    return MIPResult(
        upper_bound=float(upper),
        incumbent_value=float(state["incumbent"]),
        incumbent_point=state["point"],
        gap=float(gap),
        status=status,
        nodes_explored=state["nodes"],
        wall_time=time.perf_counter() - start,
        events=events,
        root_tightening=state["tightening"],
    )


def solve_liplp(problem) -> float:
    """Certified Lipschitz upper bound from the LP relaxation: the
    weak-duality bound of its optimal basis (``SimplexSolver.dual_bound``)."""
    model = problem.model if isinstance(problem, LipMIPProblem) else problem
    solver = lp.SimplexSolver(model.lp_relaxation().to_lp_problem())
    sol = solver.solve()
    if sol.status != lp.OPTIMAL:
        raise SolverNumericalError(f"LP relaxation returned {sol.status}")
    return solver.dual_bound() + model.objective_const


def write_event_log(events, path) -> None:
    """CSV dump of per-node progress (bound, incumbent, depth)."""
    with open(path, "w") as fh:
        fh.write("node,upper_bound,incumbent,depth\n")
        for e in events:
            fh.write(f"{e.node},{e.upper_bound:.12g},{e.incumbent:.12g},{e.depth}\n")
