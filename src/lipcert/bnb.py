"""Best-first branch-and-bound over the in-repo LP solver.

Nodes carry a set of binary fixes.  A child's LP relaxation is solved once,
at creation, by dual simplex from its parent's optimal basis.  With the
incumbent as cutoff, that solve stops before the LP optimum once it
certifies that the child cannot beat the incumbent; such a node is pruned
and never enters the heap.  A node's bound is the certified
``SimplexSolver.dual_bound`` of its final basis, not the LP's raw value.
Every node in the heap therefore has a fully solved LP, the heap holds true
subtree upper bounds, and the best open bound is a certified global upper
bound.  Lower bounds come from a structure-aware primal heuristic: the x
part of any node LP solution is a real network input, so its exact
chain-rule gradient norm is an attainable objective value.  Incumbent and
upper bound therefore sandwich the true optimum at every moment, which is
what makes early stopping at a target integrality gap sound.

The branch binary is chosen when a node is popped, not when it is pushed,
so a node the incumbent prunes while it waits in the heap costs nothing;
its heap entry keeps the node's LP point and basis snapshot instead.  The
rule is reliability branching (T. Achterberg, T. Koch and A. Martin,
"Branching rules revisited", Oper. Res. Letters 33, 2005).  Each binary
keeps a pseudocost per direction: the mean drop of the certified bound per
unit of fractionality over the child LPs that fixed it that way, updated by
every child LP the search solves anyway.  Fractional binaries are ranked by
the product of their estimated down and up drops.  Those with fewer than
``_RELIABLE`` observations on a side are strong-branched in that order, at
most ``_STRONG_MAX`` of them and none after ``_STRONG_LOOKAHEAD`` in a row
that do not improve the best score: both children are built exactly as real
children (node tightening, the box-bound prune, a dual simplex solve from
the node's basis with the incumbent as cutoff), and the measured drops
replace the estimates.  Because the candidate children are real, the
winner's two solves become the node's children and are never solved again.
A candidate whose child is refuted, infeasible or cut off is taken at once:
the binary is in effect fixed at the node, whose only child is the other
side, if that one lives.  All candidates restore the one basis snapshot of
the node, so the solver refactorizes once per popped node.

A LipMIPProblem is always bound-tightened, at two points.  Before
branching, ``tighten_root`` maximizes and minimizes each undecided
pre-activation over the LP relaxation of the layers below it, layer by
layer, and rebuilds the model from the tighter boxes: smaller big-Ms, and
neurons whose sign the boxes decide lose their binary.  During the search,
fixing a binary re-runs interval propagation with that neuron pinned,
intersected with those boxes, and tightens every affected variable bound in
the child.  A bare MIPModel (``LipMIPProblem.model`` included) is searched
as it stands: no tightening and no network heuristics.
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
#: Observations a binary's pseudocost needs on each side to be reliable.
_RELIABLE = 4
#: Most unreliable candidates strong-branched at one node.
_STRONG_MAX = 8
#: Strong branching stops after this many candidates in a row that do not
#: improve the best score.
_STRONG_LOOKAHEAD = 4
_SCORE_EPS = 1e-6  # floor of each side's bound drop in the product score


class InfeasibleModelError(RuntimeError):
    """The model admits no feasible point at all."""


@dataclass
class SolveOptions:
    """Termination and reproducibility controls for one solve."""

    target_gap: float = 0.0
    timeout_seconds: float = float("inf")
    node_limit: int = 10 ** 9

    def __post_init__(self):
        if self.target_gap < 0:
            raise ValueError("target_gap must be >= 0")


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

    ``nodes_explored`` counts the root and every child LP solve that became
    a node: both children of each branched binary, solved then or taken
    over from strong branching, whether or not their LP pruned them; a
    binary strong branching found with a dead side gets its live side only.
    Strong-branch solves of candidates that were not chosen are not nodes.

    ``lp_solves`` and ``lp_pivots`` count every LP solve of the search, node
    and strong-branch solves and their retries (root tightening's LPs are in
    ``root_tightening``), and their simplex pivots.

    ``strong_branch_lps`` and ``strong_branch_pivots`` count every LP solve
    of strong branching (retries included), the chosen candidate's too, and
    their simplex pivots.  ``strong_branch_fixes`` counts the nodes where a
    candidate had a dead side (refuted, infeasible or cut off), which fixed
    the binary at the node.

    ``root_tightening`` has one record per hidden layer for a LipMIPProblem,
    and is empty for a bare MIPModel."""

    upper_bound: float
    incumbent_value: float
    incumbent_point: np.ndarray | None
    gap: float
    status: str
    nodes_explored: int
    wall_time: float
    lp_solves: int = 0
    lp_pivots: int = 0
    strong_branch_lps: int = 0
    strong_branch_pivots: int = 0
    strong_branch_fixes: int = 0
    root_tightening: list[LayerTightening] = field(default_factory=list)


@dataclass
class _Node:
    """An open node: its certified bound, binary fixes, depth, and the
    point and basis of its optimal LP."""

    bound: float
    fixes: dict
    depth: int
    x: np.ndarray
    basis: lp.Basis


class _Pseudocosts:
    """Per binary and direction (0 down, 1 up), the summed drop of the
    certified bound per unit of fractionality and the number of child LPs
    it was observed in."""

    def __init__(self, num_vars: int):
        self.sum = np.zeros((2, num_vars))
        self.count = np.zeros((2, num_vars), dtype=np.intp)

    def update(self, var: int, val: int, drop: float, frac: float) -> None:
        self.sum[val, var] += max(drop, 0.0) / frac
        self.count[val, var] += 1

    def scores(self, cands, xs):
        """Estimated product scores of binaries ``cands`` at LP values
        ``xs``, and whether each one's pseudocosts are reliable.  A side
        never observed takes the mean over all observations of its
        direction, or 1 before the first."""
        observed = self.count.sum(axis=1)
        mean = np.where(observed > 0, self.sum.sum(axis=1) / np.maximum(observed, 1), 1.0)
        counts = self.count[:, cands]
        unit = np.where(counts > 0, self.sum[:, cands] / np.maximum(counts, 1), mean[:, None])
        return _score(unit[0] * xs, unit[1] * (1.0 - xs)), counts.min(axis=0) >= _RELIABLE


def _score(down, up):
    """Product score of a branching candidate from the bound drops of its
    two children."""
    return np.maximum(down, _SCORE_EPS) * np.maximum(up, _SCORE_EPS)


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
    heuristics, LP tightening of the root (``tighten_root``, inside the
    timed window) and interval-based node tightening; with a bare MIPModel,
    incumbents come from integral LP solutions only.
    """
    opts = opts or SolveOptions()
    start = time.perf_counter()
    tightening: list[LayerTightening] = []
    if isinstance(problem, LipMIPProblem):
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
    binaries = np.array(model.binary_vars, dtype=np.intp)

    state = {
        "incumbent": -np.inf,
        "point": None,
        "nodes": 0,
        "counter": 0,
        "tightening": tightening,
        "lps": 0,  # node and candidate LP solves, retries included
        "pivots": 0,
        "sb_lps": 0,  # strong-branch LP solves, their pivots, fixed binaries
        "sb_pivots": 0,
        "sb_fixes": 0,
        # LP columns ([A I]) before and after the solver's equality presolve
        "columns": (solver.problem.num_vars + solver.problem.num_constraints, solver.n_total),
    }
    pseudocosts = _Pseudocosts(model.num_vars)
    # entries (-bound, counter, _Node): a node keeps its LP point and basis,
    # and its branch binary is chosen only when it is popped
    heap: list = []

    def update_incumbent(value, point):
        if value > state["incumbent"]:
            state["incumbent"] = value
            state["point"] = None if point is None else np.array(point)

    def pruned(bound) -> bool:
        inc = state["incumbent"]
        return bool(np.isfinite(inc) and bound <= inc * (1.0 + _PRUNE_TOL))

    def solve_lp(fixes, lo, hi, depth, basis=None):
        """LP of one node, from its parent's basis, with the incumbent as
        cutoff: the solution and its certified bound (None unless OPTIMAL)."""
        if lo is None:
            lo = np.array(model.lo)
            hi = np.array(model.hi)
            for v, val in fixes.items():
                lo[v] = hi[v] = float(val)
        inc = state["incumbent"]
        cutoff = inc * (1.0 + _PRUNE_TOL) - model.objective_const if np.isfinite(inc) else np.inf
        sol = solver.solve(lo=lo, hi=hi, basis=basis, cutoff=cutoff)
        state["lps"] += 1
        state["pivots"] += sol.iterations
        if sol.status == lp.NUMERICAL_FAILURE:
            sol = solver.solve(lo=lo, hi=hi, pivot_tol=1e-11)
            state["lps"] += 1
            state["pivots"] += sol.iterations
            if sol.status == lp.NUMERICAL_FAILURE:
                raise SolverNumericalError(
                    f"LP failed twice at node depth {depth} ({len(fixes)} fixes)"
                )
        if sol.status != lp.OPTIMAL:
            return sol, None
        # the heap keeps the certified bound; an unreadable one weakens to inf
        bound = solver.dual_bound() + model.objective_const
        return sol, bound if np.isfinite(bound) else np.inf

    def add_node(fixes, depth, sol, bound):
        """Count a solved node, try its point as an incumbent and push it
        while some binary is fractional and it may beat the incumbent."""
        state["nodes"] += 1
        if bound is None:
            return  # infeasible or cut off
        if context is not None:
            val, x = context.incumbent_from_point(sol.x)
            update_incumbent(val, x)
            rounded = context.rounded_pattern_value(sol.x)
            if rounded is not None:
                update_incumbent(*rounded)
        node = _Node(bound, fixes, depth, sol.x, sol.basis)
        if not fractional(node).size:
            # an incumbent must be attainable: the LP's own value at its point
            point = sol.x[context.input_vars] if context is not None else sol.x
            update_incumbent(sol.objective_value + model.objective_const, point)
            return
        if pruned(bound):
            return
        state["counter"] += 1
        heapq.heappush(heap, (-bound, state["counter"], node))

    def fractional(node) -> np.ndarray:
        """The node's unfixed binaries whose LP value is fractional."""
        x = node.x[binaries]
        frac = binaries[np.minimum(x, 1.0 - x) > _INT_TOL]
        return np.array([b for b in frac.tolist() if b not in node.fixes], dtype=np.intp)

    def child(node, var, val):
        """The child fixing ``var`` to ``val``, built, tightened and solved
        as ``(fixes, sol, bound)``; ``sol`` is None when interval analysis
        refutes it or its box bound prunes it.  A child solved to optimality
        adds its bound drop to ``var``'s pseudocost."""
        fixes = dict(node.fixes)
        fixes[var] = val
        lo = hi = None
        if context is not None:
            tightened = context.tightened_bounds(fixes)
            if tightened is None:
                return fixes, None, None  # interval analysis refutes this branch
            lo, hi, implied = tightened
            fixes.update(implied)
            # objective bound from the tightened boxes alone: prunes the
            # child without an LP solve when it cannot beat the incumbent
            ibound = model.objective_const + sum(
                c * (hi[v] if c > 0 else lo[v]) for v, c in model.objective.items()
            )
            if pruned(ibound):
                return fixes, None, None
        sol, bound = solve_lp(fixes, lo, hi, node.depth + 1, node.basis)
        if bound is not None and np.isfinite(bound) and np.isfinite(node.bound):
            frac = 1.0 - node.x[var] if val == 1 else node.x[var]
            pseudocosts.update(var, val, node.bound - bound, frac)
        return fixes, sol, bound

    def branch(node):
        """Reliability branching: the binary to branch on and, when strong
        branching solved them, the node's children, else None.

        Fractional binaries are ranked by the product score of their
        pseudocost estimates; unreliable ones are strong-branched in that
        order, within ``_STRONG_MAX`` candidates and ``_STRONG_LOOKAHEAD``
        in a row that do not improve the best score.  A candidate with a
        dead side is taken at once, with its live side as the only child."""
        cands = fractional(node)
        scores, reliable = pseudocosts.scores(cands, node.x[cands])
        best_var, best_score, best_children = None, -np.inf, None
        tried = stale = 0
        for k in np.lexsort((cands, -scores)):  # by score, ties to the lowest id
            var, score, children = int(cands[k]), scores[k], None
            if not reliable[k] and tried < _STRONG_MAX and stale < _STRONG_LOOKAHEAD:
                lps, pivots = state["lps"], state["pivots"]
                children = [child(node, var, val) for val in (1, 0)]
                state["sb_lps"] += state["lps"] - lps
                state["sb_pivots"] += state["pivots"] - pivots
                tried += 1
                live = [(fixes, sol, bound) for fixes, sol, bound in children
                        if bound is not None and not pruned(bound)]
                if len(live) < 2:
                    state["sb_fixes"] += 1
                    return var, live
                (_, _, up), (_, _, down) = children
                score = _score(node.bound - down, node.bound - up)
                stale = 0 if score > best_score else stale + 1
            if score > best_score:
                best_var, best_score, best_children = var, score, children
        return best_var, best_children

    add_node({}, 0, *solve_lp({}, None, None, 0))

    status = EXACT
    while heap:
        _, _, node = heapq.heappop(heap)
        bound = node.bound
        inc = state["incumbent"]
        upper = max(bound, inc) if np.isfinite(inc) else bound
        if pruned(bound):
            continue  # stale: incumbent improved after insertion
        gap = _gap(upper, inc) if np.isfinite(inc) else np.inf
        if gap <= _EXACT_GAP:
            return _finish(EXACT, upper, state, gap, start)
        if opts.target_gap > 0 and gap <= opts.target_gap:
            return _finish(GAP_REACHED, upper, state, gap, start)
        if time.perf_counter() - start > opts.timeout_seconds:
            return _finish(TIMEOUT, upper, state, gap, start)
        if state["nodes"] >= opts.node_limit:
            return _finish(NODE_LIMIT, upper, state, gap, start)

        var, children = branch(node)
        if children is None:
            children = [child(node, var, val) for val in (1, 0)]
        for fixes, sol, bound in children:
            if sol is not None:
                add_node(fixes, node.depth + 1, sol, bound)

    if not np.isfinite(state["incumbent"]):
        raise InfeasibleModelError("no feasible integral point")
    return _finish(status, state["incumbent"], state, 0.0, start)


def _finish(status, upper, state, gap, start) -> MIPResult:
    logger.debug(
        "%s after %d nodes: %d LPs (%d pivots), of which strong branching %d LPs "
        "(%d pivots), %d binaries fixed by a dead side; LP columns %d, %d after presolve",
        status, state["nodes"], state["lps"], state["pivots"],
        state["sb_lps"], state["sb_pivots"], state["sb_fixes"], *state["columns"],
    )
    return MIPResult(
        upper_bound=float(upper),
        incumbent_value=float(state["incumbent"]),
        incumbent_point=state["point"],
        gap=float(gap),
        status=status,
        nodes_explored=state["nodes"],
        wall_time=time.perf_counter() - start,
        lp_solves=state["lps"],
        lp_pivots=state["pivots"],
        strong_branch_lps=state["sb_lps"],
        strong_branch_pivots=state["sb_pivots"],
        strong_branch_fixes=state["sb_fixes"],
        root_tightening=state["tightening"],
    )


def solve_liplp(problem) -> float:
    """Certified Lipschitz upper bound from the LP relaxation: the
    weak-duality bound of its optimal basis (``SimplexSolver.dual_bound``)."""
    model = problem.model if isinstance(problem, LipMIPProblem) else problem
    solver = lp.SimplexSolver(model.to_lp_problem())
    sol = solver.solve()
    if sol.status != lp.OPTIMAL:
        raise SolverNumericalError(f"LP relaxation returned {sol.status}")
    return solver.dual_bound() + model.objective_const

