"""Best-first branch-and-bound over the in-repo LP solver.

Nodes carry a set of binary fixes.  A child's LP relaxation is re-solved
once, at creation, by dual simplex from its parent's optimal basis, whose
snapshot the parent's heap entry keeps.  With the incumbent as cutoff, that
solve stops before the LP optimum once it certifies that the child cannot
beat the incumbent; such a node is pruned and never enters the heap.  Every
node in the heap therefore has a fully solved LP, the heap holds true subtree
upper bounds, and the best open bound is a certified global upper bound.
Lower bounds come from a structure-aware primal heuristic: the x part of any
node LP solution is a real network input, so its exact chain-rule gradient
norm is an attainable objective value.  Incumbent and upper bound therefore
sandwich the true optimum at every moment, which is what makes early
stopping at a target integrality gap sound.

When a Lipschitz problem context is available, fixing a binary also re-runs
interval propagation with that neuron pinned and tightens every affected
variable bound in the child (optional, default on).
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field

import numpy as np

from . import lp
from .lp import SolverNumericalError
from .mip import LipMIPProblem, MIPModel

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
class MIPResult:
    """Certified sandwich around the optimum plus run accounting."""

    upper_bound: float
    incumbent_value: float
    incumbent_point: np.ndarray | None
    gap: float
    status: str
    nodes_explored: int
    wall_time: float
    events: list[NodeEvent] = field(default_factory=list)


def _gap(upper: float, incumbent: float) -> float:
    if upper <= incumbent:
        return 0.0
    return (upper - incumbent) / max(abs(incumbent), _EPS_GAP)


def solve_mip(problem, opts: SolveOptions | None = None) -> MIPResult:
    """Branch-and-bound solve of a MIPModel or LipMIPProblem (maximization).

    With a LipMIPProblem the solver uses the network-evaluation primal
    heuristic and interval-based bound tightening; with a bare MIPModel,
    incumbents come from integral LP solutions only.
    """
    opts = opts or SolveOptions()
    if isinstance(problem, LipMIPProblem):
        model: MIPModel = problem.model
        context = problem
    else:
        model = problem
        context = None
    start = time.perf_counter()
    solver = lp.SimplexSolver(model.to_lp_problem())
    binaries = model.binary_vars

    state = {
        "incumbent": -np.inf,
        "point": None,
        "nodes": 0,
        "counter": 0,
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
        bound = sol.objective_value + model.objective_const
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
            point = sol.x[context.input_vars] if context is not None else sol.x
            update_incumbent(bound, point)
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
    )


def solve_liplp(problem) -> float:
    """Optimum of the LP relaxation: a certified Lipschitz upper bound."""
    model = problem.model if isinstance(problem, LipMIPProblem) else problem
    relaxed = model.lp_relaxation().to_lp_problem()
    sol = lp.solve_lp(relaxed)
    if sol.status != lp.OPTIMAL:
        raise SolverNumericalError(f"LP relaxation returned {sol.status}")
    return sol.objective_value + model.objective_const


def write_event_log(events, path) -> None:
    """CSV dump of per-node progress (bound, incumbent, depth)."""
    with open(path, "w") as fh:
        fh.write("node,upper_bound,incumbent,depth\n")
        for e in events:
            fh.write(f"{e.node},{e.upper_bound:.12g},{e.incumbent:.12g},{e.depth}\n")
