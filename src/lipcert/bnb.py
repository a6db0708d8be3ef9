"""Best-first branch-and-bound over the in-repo LP solver.

Nodes carry a set of binary fixes.  A child's LP relaxation is solved once,
at creation, by dual simplex from its parent's optimal basis.  With the
incumbent as cutoff, that solve stops before the LP optimum once it
certifies that the child cannot beat the incumbent; such a node is pruned
and never enters the heap.  A node's bound is the certified
``SimplexSolver.dual_bound`` of its final basis, not the LP's raw value.
Every node in the heap therefore has a fully solved LP, the heap holds true
subtree upper bounds, and the best open bound is a certified global upper
bound.  It never drops below ``closed``, the largest bound of a node left
unbranched (an integral leaf's ``dual_bound``, a failed LP's parent's bound,
+inf at the root), nor, once the heap is empty, below the incumbent widened
by the prune slack; a failed node that may still beat the incumbent then
gives the status ``lp_failed``, or ``timeout`` past the deadline.  Every LP
gets the search's deadline.  One that the deadline interrupts is left
unbranched like a failed one, with the smaller of its parent's bound and its
own ``dual_bound``, which holds for any basis: at the root, the latter.
Lower bounds come from a structure-aware
primal heuristic: the x part of any node LP solution is a real network
input, so its exact chain-rule gradient norm is an attainable objective
value.  Incumbent and upper bound therefore sandwich the true optimum at
every moment, which is what makes early stopping at a target gap sound.

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
intersected with those boxes, and tightens the box of every affected id in
the child (``LipMIPProblem.tightened_bounds``), the objective's too: a
backward model's gradient entries, a forward model's last tangent switches.
So the objective over the child's tightened boxes, ``ibound``, bounds the
child without an LP, and a child it cannot lift above the incumbent is
pruned unsolved.  A bare MIPModel (``LipMIPProblem.model`` included) is
searched as it stands: no tightening and no network heuristics.

Row boxes at each node.  Every LP of the search is the model's relaxation
(``MIPModel.relaxation``): its columns alone, and a row per affine
quantity.  ``MIPModel.lp_boxes`` maps a node's per-id boxes onto the LP's
column and row boxes, which each solve is given, so a tightened
pre-activation is a row box.  The LP point is mapped back to id values
(``MIPModel.values``) before branching and the heuristics read it, and every
bound and value read off the LP adds the objective's constant, which an
objective over an alias or a constant carries.
"""

from __future__ import annotations

import heapq
import itertools
import logging
import time
from dataclasses import dataclass, field

import numpy as np

from . import lp
from .interval import Hyperbox
from .mip import LipMIPProblem, MIPModel, ModelError

logger = logging.getLogger("lipcert")

EXACT = "exact"
GAP_REACHED = "gap_reached"
TIMEOUT = "timeout"
NODE_LIMIT = "node_limit"
LP_FAILED = "lp_failed"

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
        if not self.target_gap >= 0:  # NaN fails too: it would disable the limit
            raise ValueError("target_gap must be >= 0")
        if not self.timeout_seconds >= 0:
            raise ValueError("timeout_seconds must be >= 0")
        if not self.node_limit >= 0:
            raise ValueError("node_limit must be >= 0")


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
    """The search's one record: the certified sandwich around the optimum
    and the run's accounting, created when ``solve_mip`` starts and updated
    in place by the search.  The sandwich holds under every status; with
    LP_FAILED it stays open (module docstring).

    ``nodes_explored`` counts the root and every child LP solve that became
    a node: both children of each branched binary, solved then or taken
    over from strong branching, whether or not their LP pruned them; a
    binary strong branching found with a dead side gets its live side only.
    Strong-branch solves of candidates that were not chosen are not nodes.

    ``lp_solves`` and ``lp_pivots`` count every LP solve of the search (node
    and strong-branch solves; root tightening's are in ``root_tightening``)
    and their simplex pivots.

    ``strong_branch_lps`` and ``strong_branch_pivots`` count every LP solve
    of strong branching, the chosen candidate's too, and their simplex
    pivots.  ``strong_branch_fixes`` counts the nodes where a candidate had
    a dead side (refuted, infeasible or cut off), which fixed the binary at
    the node.

    ``root_tightening`` has one record per hidden layer for a LipMIPProblem,
    and is empty for a bare MIPModel; so is ``encoding``, which is the
    problem's (``mip.FORWARD`` or ``mip.BACKWARD``) for a LipMIPProblem."""

    upper_bound: float = np.inf
    incumbent_value: float = -np.inf
    incumbent_point: np.ndarray | None = None
    gap: float = np.inf
    status: str = ""
    nodes_explored: int = 0
    wall_time: float = 0.0
    lp_solves: int = 0
    lp_pivots: int = 0
    strong_branch_lps: int = 0
    strong_branch_pivots: int = 0
    strong_branch_fixes: int = 0
    root_tightening: list[LayerTightening] = field(default_factory=list)
    encoding: str = ""


@dataclass
class _Node:
    """An open node: its certified bound, binary fixes, and the point and
    basis of its optimal LP."""

    bound: float
    fixes: dict
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
    if incumbent == -np.inf:
        return np.inf
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
    the layers below i (``LipMIPProblem.layers_below``, under the model's row
    boxes); then the model is rebuilt from the tightened boxes before layer
    i+1 is tightened.  Each LP starts from the previous optimal basis of the
    layer.  Each new bound is the certified ``SimplexSolver.dual_bound`` of
    the final basis plus the pre-activation's constant, never the raw
    primal objective; a failed LP, or one that ``deadline`` (a
    ``time.perf_counter`` value) interrupts, keeps that side's bound, and a
    rebuild that fails (rounding left a box empty) keeps the model it started
    from.  Layer 0's interval boxes are exact over the domain box, so it is
    never tightened.  Past ``deadline`` no further neuron is tightened.

    Returns the rebuilt problem and one LayerTightening per hidden layer.
    """
    depth = problem.net.depth
    spent = [[0, 0] for _ in range(depth)]  # LPs and pivots per layer
    current = problem
    for i in range(1, depth):
        free = np.flatnonzero(current.neuron_bins[i] >= 0)
        if free.size == 0:
            continue
        model, below = current.model, current.layers_below(i)
        solver = lp.SimplexSolver(below)  # boxed by the model's own column boxes
        n, m = below.num_vars, below.num_constraints
        row_lo, row_hi = model.lp_boxes(model.lo, model.hi)[2:]
        pre = current.pre_vars[i]
        box = current.pre_boxes[i]
        lo, hi = box.l.copy(), box.u.copy()
        basis = None
        for j in free:
            if time.perf_counter() > deadline:
                break
            for sign in (1.0, -1.0):
                c, const = model.linear({int(pre[j]): sign})
                sol = solver.solve(objective=c[:n], basis=basis, row_lo=row_lo[:m],
                                   row_hi=row_hi[:m], deadline=deadline)
                spent[i][0] += 1
                spent[i][1] += sol.iterations
                if sol.status != lp.OPTIMAL:
                    continue
                basis = sol.basis
                bound = solver.dual_bound() + const
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
        try:
            current = current.rebuild(boxes)
        except ModelError as exc:  # rounding crossed two enclosures: keep the weaker boxes
            logger.debug("root tightening keeps layer %d's boxes: %s", i, exc)
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
    deadline = start + opts.timeout_seconds
    tightening: list[LayerTightening] = []
    if isinstance(problem, LipMIPProblem):
        problem, tightening = tighten_root(problem, deadline)
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
    solver = lp.SimplexSolver(model.relaxation())
    offset = model.linear(model.objective)[1]  # the objective's constant
    binaries = np.array(model.binary_vars, dtype=np.intp)

    res = MIPResult(root_tightening=tightening,
                    encoding=context.encoding if context is not None else "")
    counter = itertools.count()
    pseudocosts = _Pseudocosts(model.num_vars)
    # entries (-bound, counter, _Node): a node keeps its LP point and basis,
    # and its branch binary is chosen only when it is popped
    heap: list = []
    closed = failed = -np.inf  # largest bound of an unbranched node, of a failed one

    def update_incumbent(value, point):
        if value > res.incumbent_value:
            res.incumbent_value = float(value)
            res.incumbent_point = None if point is None else np.array(point)

    def pruned(bound) -> bool:
        inc = res.incumbent_value
        return bool(np.isfinite(inc) and bound <= inc * (1.0 + _PRUNE_TOL))

    def solve_lp(lo, hi, basis=None, parent_bound=np.inf):
        """A node's LP over per-id boxes from its parent's basis with the
        incumbent as cutoff: the solution and dual_bound (bounds add the
        objective's constant), the parent's bound if failed, the smaller of
        the two if the deadline interrupted it, else None."""
        inc = res.incumbent_value
        cutoff = inc * (1.0 + _PRUNE_TOL) - offset if np.isfinite(inc) else np.inf
        col_lo, col_hi, row_lo, row_hi = model.lp_boxes(lo, hi)
        sol = solver.solve(lo=col_lo, hi=col_hi, basis=basis, cutoff=cutoff, row_lo=row_lo,
                           row_hi=row_hi, deadline=deadline)
        res.lp_solves += 1
        res.lp_pivots += sol.iterations
        if sol.status == lp.OPTIMAL:
            return sol, solver.dual_bound() + offset
        if sol.status == lp.NUMERICAL_FAILURE:
            return sol, parent_bound
        if sol.status == lp.DEADLINE:
            return sol, min(parent_bound, solver.dual_bound() + offset)
        return sol, None

    def add_node(fixes, sol, bound):
        """Count a solved node, try its point as an incumbent and push it
        while it may beat the incumbent; a leaf or failed one is closed."""
        nonlocal closed, failed
        res.nodes_explored += 1
        if bound is None:
            return  # infeasible or cut off
        if sol.status != lp.OPTIMAL:  # failed: no point to branch on
            closed, failed = max(closed, bound), max(failed, bound)
            return
        values = model.values(sol.x)  # every id's value at the LP point
        if context is not None:
            val, x = context.incumbent_from_point(values)
            update_incumbent(val, x)
            rounded = context.rounded_pattern_value(values, res.incumbent_value)
            if rounded is not None:
                update_incumbent(*rounded)
        node = _Node(bound, fixes, values, sol.basis)
        if not fractional(node).size:
            # an incumbent must be attainable: the LP's own value at its point
            point = values[context.input_vars] if context is not None else values
            update_incumbent(sol.objective_value + offset, point)
            closed = max(closed, bound)
            return
        if pruned(bound):
            return
        heapq.heappush(heap, (-bound, next(counter), node))

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
        if context is None:
            lo, hi = np.array(model.lo), np.array(model.hi)
            for v, fixed in fixes.items():
                lo[v] = hi[v] = float(fixed)
        else:
            tightened = context.tightened_bounds(fixes)
            if tightened is None:
                return fixes, None, None  # interval analysis refutes this branch
            lo, hi, implied = tightened
            fixes.update(implied)
            # objective bound from the tightened boxes alone: prunes the
            # child without an LP solve when it cannot beat the incumbent
            ibound = sum(c * (hi[v] if c > 0 else lo[v]) for v, c in model.objective.items())
            if pruned(ibound):
                return fixes, None, None
        sol, bound = solve_lp(lo, hi, node.basis, node.bound)
        if sol.status == lp.OPTIMAL and np.isfinite(bound) and np.isfinite(node.bound):
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
                lps, pivots = res.lp_solves, res.lp_pivots
                children = [child(node, var, val) for val in (1, 0)]
                res.strong_branch_lps += res.lp_solves - lps
                res.strong_branch_pivots += res.lp_pivots - pivots
                tried += 1
                live = [(fixes, sol, bound) for fixes, sol, bound in children
                        if bound is not None and not pruned(bound)]
                if len(live) < 2:
                    res.strong_branch_fixes += 1
                    return var, live
                (_, _, up), (_, _, down) = children
                score = _score(node.bound - down, node.bound - up)
                stale = 0 if score > best_score else stale + 1
            if score > best_score:
                best_var, best_score, best_children = var, score, children
        return best_var, best_children

    add_node({}, *solve_lp(model.lo, model.hi))

    while heap:
        _, _, node = heapq.heappop(heap)
        bound = node.bound
        inc = res.incumbent_value
        upper = max(bound, inc, closed)
        if pruned(bound):
            continue  # stale: incumbent improved after insertion
        gap = _gap(upper, inc)
        if gap <= _EXACT_GAP:
            return _finish(res, EXACT, upper, start, solver)
        if opts.target_gap > 0 and gap <= opts.target_gap:
            return _finish(res, GAP_REACHED, upper, start, solver)
        if time.perf_counter() > deadline:
            return _finish(res, TIMEOUT, upper, start, solver)
        if res.nodes_explored >= opts.node_limit:
            return _finish(res, NODE_LIMIT, upper, start, solver)

        var, children = branch(node)
        if children is None:
            children = [child(node, var, val) for val in (1, 0)]
        for fixes, sol, bound in children:
            if sol is not None:
                add_node(fixes, sol, bound)

    inc = res.incumbent_value
    if inc == failed == -np.inf:
        raise InfeasibleModelError("no feasible integral point")
    upper = max(inc, inc * (1.0 + _PRUNE_TOL), closed)
    if pruned(failed):
        status = EXACT
    else:
        status = TIMEOUT if time.perf_counter() > deadline else LP_FAILED
    return _finish(res, status, upper, start, solver)


def _finish(res, status, upper, start, solver) -> MIPResult:
    """Close the search's record: its status, upper bound, gap and wall time."""
    res.status = status
    res.upper_bound = float(upper)
    res.gap = float(_gap(upper, res.incumbent_value))
    res.wall_time = time.perf_counter() - start
    logger.debug(
        "%s after %d nodes%s: %d LPs (%d pivots), of which strong branching %d LPs "
        "(%d pivots), %d binaries fixed by a dead side; LP columns %d, rows %d",
        status, res.nodes_explored, f" ({res.encoding} encoding)" if res.encoding else "",
        res.lp_solves, res.lp_pivots, res.strong_branch_lps,
        res.strong_branch_pivots, res.strong_branch_fixes,
        solver.problem.num_vars, solver.problem.num_constraints,
    )
    return res


def solve_liplp(problem) -> float:
    """Certified Lipschitz upper bound from the LP relaxation: the
    weak-duality bound (``SimplexSolver.dual_bound``) of the basis its solve
    ended at, which holds for any basis, a failed solve's too, plus the
    objective's constant."""
    model = problem.model if isinstance(problem, LipMIPProblem) else problem
    solver = lp.SimplexSolver(model.relaxation())
    col_lo, col_hi, row_lo, row_hi = model.lp_boxes(model.lo, model.hi)
    solver.solve(col_lo, col_hi, row_lo=row_lo, row_hi=row_hi)
    return solver.dual_bound() + model.linear(model.objective)[1]

