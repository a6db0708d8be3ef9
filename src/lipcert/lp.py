"""Dense bounded-variable primal simplex.

Solves  max c.x  s.t.  A x (<=,=,>=) b,  lo <= x <= hi  with finite bounds on
every variable.  Each row gets a slack with bounds derived from interval
arithmetic, so the working problem is an equality system over an all-finite
box and genuine unboundedness cannot occur.

Phase 1 restores feasibility by temporarily extending the bounds of violated
basic variables and maximizing a +-1 objective that pulls them back; a bound
is snapped to its true value the moment its variable re-enters range.  Phase 2
then optimizes the real objective.  Pricing is Dantzig (most negative-ish
reduced cost) until a run of degenerate pivots exceeds ``BLAND_STALL_FACTOR``
times the variable count, after which Bland's least-index rule takes over
permanently, which guarantees termination on degenerate instances.

The tableau is dense and kept explicitly; this is deliberate.  Target scale
is a few thousand variables and the branch-and-bound driver re-solves the
same matrix under many bound vectors, which the ``SimplexSolver`` class
supports without rebuilding anything.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
NUMERICAL_FAILURE = "numerical_failure"

FEAS_TOL = 1e-7
DEFAULT_PIVOT_TOL = 1e-9

#: Degenerate pivots tolerated (per variable) before switching to Bland's rule.
BLAND_STALL_FACTOR = 10

_DEGEN_STEP = 1e-11
_RATIO_TIE = 1e-9
_REFRESH_EVERY = 256  # pivots between full recomputations of costs/values


@dataclass(frozen=True)
class LPProblem:
    """max objective.x s.t. a x (relations) rhs, lo <= x <= hi, all finite."""

    objective: np.ndarray
    a: np.ndarray
    relations: tuple[str, ...]
    rhs: np.ndarray
    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.objective, dtype=float).reshape(-1)
        a = np.atleast_2d(np.asarray(self.a, dtype=float))
        rhs = np.asarray(self.rhs, dtype=float).reshape(-1)
        lo = np.asarray(self.lo, dtype=float).reshape(-1)
        hi = np.asarray(self.hi, dtype=float).reshape(-1)
        rels = tuple(self.relations)
        n = c.shape[0]
        if a.size == 0:
            a = np.zeros((0, n))
        if a.shape[1] != n or lo.shape[0] != n or hi.shape[0] != n:
            raise ValueError("inconsistent variable dimensions")
        if a.shape[0] != rhs.shape[0] or len(rels) != a.shape[0]:
            raise ValueError("inconsistent constraint dimensions")
        if any(r not in ("<=", "=", ">=") for r in rels):
            raise ValueError("relations must be one of <=, =, >=")
        for arr in (c, a, rhs, lo, hi):
            if not np.all(np.isfinite(arr)):
                raise ValueError("LP data must be finite (bounded variables required)")
        if np.any(lo > hi):
            raise ValueError("need lo <= hi for every variable")
        object.__setattr__(self, "objective", c)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "relations", rels)
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def num_vars(self) -> int:
        return self.objective.shape[0]

    @property
    def num_constraints(self) -> int:
        return self.a.shape[0]


@dataclass(frozen=True)
class LPSolution:
    status: str
    x: np.ndarray | None
    objective_value: float
    iterations: int


class SimplexSolver:
    """Reusable simplex over one constraint matrix and varying bounds.

    The constraint matrix, relations and right-hand side are fixed at
    construction; ``solve`` may override variable bounds and objective, which
    is exactly what branch-and-bound needs.  The internal basis persists
    between calls, so a solve after a small bound change usually takes only a
    few pivots.
    """

    def __init__(self, problem: LPProblem):
        self.problem = problem
        m, n = problem.num_constraints, problem.num_vars
        self.n_struct = n
        self.n_total = n + m
        # slack bounds: s = rhs - a.x ranges over an interval; intersecting it
        # with the relation's sign constraint keeps every bound finite.
        apos = np.maximum(problem.a, 0.0)
        aneg = np.minimum(problem.a, 0.0)
        row_hi = apos @ problem.hi + aneg @ problem.lo
        row_lo = apos @ problem.lo + aneg @ problem.hi
        s_lo = problem.rhs - row_hi
        s_hi = problem.rhs - row_lo
        self._slack_lo = s_lo.copy()
        self._slack_hi = s_hi.copy()
        self._row_infeasible = False
        for i, rel in enumerate(problem.relations):
            if rel == "<=":
                if s_hi[i] < 0:
                    self._row_infeasible = True
                self._slack_lo[i] = 0.0
                self._slack_hi[i] = max(s_hi[i], 0.0)
            elif rel == ">=":
                if s_lo[i] > 0:
                    self._row_infeasible = True
                self._slack_hi[i] = 0.0
                self._slack_lo[i] = min(s_lo[i], 0.0)
            else:
                self._slack_lo[i] = 0.0
                self._slack_hi[i] = 0.0
        self._r = np.hstack([problem.a, np.eye(m)])
        self._have_state = False
        self._tab = None
        self._beta0 = None
        self._basis = None
        self._at_upper = None
        self._pivots_since_refactor = 0
        # reusable workspaces for the hot loop
        self._wlo = np.empty(self.n_total)
        self._whi = np.empty(self.n_total)
        self._costs = np.zeros(self.n_total)
        self._ger_buf = np.empty((m, self.n_total))

    # -- state management ---------------------------------------------------

    def _cold_start(self, wlo, whi):
        self._tab = self._r.copy()
        self._beta0 = self.problem.rhs.astype(float).copy()
        self._basis = np.arange(self.n_struct, self.n_total)
        # nonbasic structurals rest at the bound of smaller magnitude
        self._at_upper = np.zeros(self.n_total, dtype=bool)
        self._at_upper[: self.n_struct] = np.abs(whi[: self.n_struct]) < np.abs(
            wlo[: self.n_struct]
        )
        self._have_state = True

    def _refactorize(self) -> bool:
        """Recompute the tableau from the basis columns of the original data.

        Rank-one pivot updates accumulate error over long warm-started runs;
        refactorizing at every reuse restores full accuracy for the cost of
        one dense solve.  Returns False on a (near-)singular basis.
        """
        bmat = self._r[:, self._basis]
        rhs = np.hstack([self._r, self.problem.rhs[:, None]])
        try:
            fac = np.linalg.solve(bmat, rhs)
        except np.linalg.LinAlgError:
            return False
        if not np.all(np.isfinite(fac)):
            return False
        self._tab = np.ascontiguousarray(fac[:, :-1])
        self._beta0 = fac[:, -1].copy()
        self._pivots_since_refactor = 0
        return True

    def _nonbasic_values(self, wlo, whi):
        vals = np.where(self._at_upper, whi, wlo)
        vals[self._basis] = 0.0
        return vals

    def _basic_values(self, wlo, whi):
        vn = self._nonbasic_values(wlo, whi)
        return self._beta0 - self._tab @ vn

    def _pivot(self, row, col, d):
        tab, beta0 = self._tab, self._beta0
        piv = tab[row, col]
        inv = 1.0 / piv
        prow = tab[row] * inv
        pbeta = beta0[row] * inv
        colvals = tab[:, col].copy()
        colvals[row] = 0.0
        buf = self._ger_buf
        np.multiply(colvals[:, None], prow[None, :], out=buf)
        np.subtract(tab, buf, out=tab)
        beta0 -= colvals * pbeta
        tab[row] = prow
        beta0[row] = pbeta
        tab[:, col] = 0.0
        tab[row, col] = 1.0
        self._pivots_since_refactor += 1
        if d is not None:
            d -= d[col] * prow
            d[col] = 0.0
        return prow

    # -- core iteration -----------------------------------------------------

    def _iterate(self, costs, wlo, whi, xb, d, state, pivot_tol):
        """One priced pivot.  Returns "optimal", "pivoted", or "stalled"."""
        free = whi - wlo > 0
        nonbasic = np.ones(self.n_total, dtype=bool)
        nonbasic[self._basis] = False
        up = d > pivot_tol
        down = d < -pivot_tol
        eligible = nonbasic & free & ((~self._at_upper & up) | (self._at_upper & down))
        idx = np.flatnonzero(eligible)
        if idx.size == 0:
            return "optimal"
        if state["bland"]:
            e = int(idx[0])
        else:
            e = int(idx[np.argmax(np.abs(d[idx]))])
        sigma = -1.0 if self._at_upper[e] else 1.0
        y = self._tab[:, e]
        sy = sigma * y
        t_flip = whi[e] - wlo[e]
        lo_b = wlo[self._basis]
        hi_b = whi[self._basis]
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(
                sy > pivot_tol,
                (xb - lo_b) / sy,
                np.where(sy < -pivot_tol, (hi_b - xb) / (-sy), np.inf),
            )
        np.maximum(ratio, 0.0, out=ratio)
        rmin = ratio.min() if ratio.size else np.inf
        if t_flip <= rmin:  # entering variable flips to its other bound
            self._at_upper[e] = ~self._at_upper[e]
            xb -= t_flip * sy
            state["degen"] = state["degen"] + 1 if t_flip <= _DEGEN_STEP else 0
            return "pivoted"
        cands = np.flatnonzero(ratio <= rmin + _RATIO_TIE)
        if cands.size == 0:
            return "stalled"
        if state["bland"]:
            r = int(cands[np.argmin(self._basis[cands])])
        else:
            r = int(cands[np.argmax(np.abs(y[cands]))])
        if abs(y[r]) < pivot_tol:
            return "stalled"
        t = max(ratio[r], 0.0)
        leaving = self._basis[r]
        self._at_upper[leaving] = sy[r] < 0  # hit its upper bound iff moving up
        xb -= t * sy
        xb[r] = (whi[e] if self._at_upper[e] else wlo[e]) + sigma * t
        self._basis[r] = e
        self._pivot(r, e, d)
        state["degen"] = state["degen"] + 1 if t <= _DEGEN_STEP else 0
        if state["degen"] > BLAND_STALL_FACTOR * self.n_total:
            state["bland"] = True
        state["pivots"] += 1
        if state["pivots"] % _REFRESH_EVERY == 0:
            d[:] = costs - costs[self._basis] @ self._tab
            d[self._basis] = 0.0
            xb[:] = self._basic_values(wlo, whi)
        return "pivoted"

    def _reduced_costs(self, costs):
        d = costs - costs[self._basis] @ self._tab
        d[self._basis] = 0.0
        return d

    # -- public solve ---------------------------------------------------------

    def solve(
        self,
        lo=None,
        hi=None,
        objective=None,
        pivot_tol: float = DEFAULT_PIVOT_TOL,
        from_scratch: bool = False,
        _second_try: bool = False,
    ) -> LPSolution:
        p = self.problem
        if self._row_infeasible:
            return LPSolution(INFEASIBLE, None, np.nan, 0)
        lo = p.lo if lo is None else np.asarray(lo, dtype=float)
        hi = p.hi if hi is None else np.asarray(hi, dtype=float)
        if np.any(lo > hi):
            return LPSolution(INFEASIBLE, None, np.nan, 0)
        cobj = p.objective if objective is None else np.asarray(objective, dtype=float)
        wlo, whi, costs = self._wlo, self._whi, self._costs
        wlo[: self.n_struct] = lo
        wlo[self.n_struct:] = self._slack_lo
        whi[: self.n_struct] = hi
        whi[self.n_struct:] = self._slack_hi
        costs[: self.n_struct] = cobj
        warm = self._have_state and not from_scratch
        if warm and self._pivots_since_refactor >= 128:
            warm = self._refactorize()
        if not warm:
            self._cold_start(wlo, whi)
        state = {"bland": _second_try, "degen": 0, "pivots": 0}
        max_pivots = 200 * (self.n_total + 10) + 20000

        status = self._solve_phases(costs, wlo, whi, state, pivot_tol, max_pivots)
        if status == OPTIMAL:
            x = self._extract(wlo, whi)
            if self._feasible(x, lo, hi):
                return LPSolution(OPTIMAL, x[: self.n_struct], float(cobj @ x[: self.n_struct]), state["pivots"])
            status = NUMERICAL_FAILURE
        if status == INFEASIBLE:
            if warm:
                # never trust infeasibility claimed from a reused basis
                return self.solve(
                    lo, hi, cobj, pivot_tol, from_scratch=True, _second_try=_second_try
                )
            return LPSolution(INFEASIBLE, None, np.nan, state["pivots"])
        if not _second_try:
            # one retry: cold start under Bland's rule from the first pivot
            self._have_state = False
            return self.solve(lo, hi, cobj, pivot_tol, from_scratch=True, _second_try=True)
        self._have_state = False
        return LPSolution(NUMERICAL_FAILURE, None, np.nan, state["pivots"])

    def _solve_phases(self, costs, wlo, whi, state, pivot_tol, max_pivots):
        # working copies; phase 1 may extend them
        ext_lo = wlo.copy()
        ext_hi = whi.copy()
        xb = self._basic_values(wlo, whi)

        below = xb < wlo[self._basis] - FEAS_TOL
        above = xb > whi[self._basis] + FEAS_TOL
        if below.any() or above.any():
            phase_costs = np.zeros(self.n_total)
            for r in np.flatnonzero(above):
                v = self._basis[r]
                ext_hi[v] = xb[r]
                phase_costs[v] = -1.0  # pull it down
            for r in np.flatnonzero(below):
                v = self._basis[r]
                ext_lo[v] = xb[r]
                phase_costs[v] = 1.0  # pull it up
            d = self._reduced_costs(phase_costs)
            while True:
                if state["pivots"] > max_pivots:
                    return NUMERICAL_FAILURE
                outcome = self._iterate(phase_costs, ext_lo, ext_hi, xb, d, state, pivot_tol)
                if outcome == "stalled":
                    return NUMERICAL_FAILURE
                # snap every extended variable that is back inside its range
                extended = np.flatnonzero(phase_costs != 0.0)
                vals = self._nonbasic_values(ext_lo, ext_hi)
                pos = np.full(self.n_total, -1)
                pos[self._basis] = np.arange(self._basis.size)
                changed = False
                for v in extended:
                    val = xb[pos[v]] if pos[v] >= 0 else vals[v]
                    if wlo[v] - FEAS_TOL <= val <= whi[v] + FEAS_TOL:
                        gamma = phase_costs[v]
                        phase_costs[v] = 0.0
                        ext_lo[v] = wlo[v]
                        ext_hi[v] = whi[v]
                        if pos[v] >= 0:
                            d += gamma * self._tab[pos[v]]
                            d[v] = 0.0
                        else:
                            d[v] -= gamma
                        changed = True
                if changed:
                    xb = self._basic_values(ext_lo, ext_hi)
                if not np.any(phase_costs != 0.0):
                    break
                if outcome == "optimal":
                    if changed:
                        continue  # snaps altered the objective; re-price
                    return INFEASIBLE
        # phase 2
        d = self._reduced_costs(costs)
        while True:
            if state["pivots"] > max_pivots:
                return NUMERICAL_FAILURE
            outcome = self._iterate(costs, wlo, whi, xb, d, state, pivot_tol)
            if outcome == "optimal":
                return OPTIMAL
            if outcome == "stalled":
                return NUMERICAL_FAILURE

    def _extract(self, wlo, whi):
        x = self._nonbasic_values(wlo, whi)
        x[self._basis] = self._basic_values(wlo, whi)
        return x

    def _feasible(self, v, lo, hi) -> bool:
        p = self.problem
        x = v[: self.n_struct]
        scale = 1.0 + np.abs(p.rhs) if p.rhs.size else 1.0
        if np.any(x < lo - FEAS_TOL) or np.any(x > hi + FEAS_TOL):
            return False
        if p.num_constraints == 0:
            return True
        act = p.a @ x
        for i, rel in enumerate(p.relations):
            tol = FEAS_TOL * scale[i]
            if rel == "<=" and act[i] > p.rhs[i] + tol:
                return False
            if rel == ">=" and act[i] < p.rhs[i] - tol:
                return False
            if rel == "=" and abs(act[i] - p.rhs[i]) > tol:
                return False
        return True


def solve_lp(problem: LPProblem) -> LPSolution:
    """Solve one LP from scratch; deterministic for identical inputs."""
    return SimplexSolver(problem).solve()


def box_witness(a, rhs, lo, hi) -> np.ndarray | None:
    """Some x with lo <= x <= hi and a @ x >= rhs, or None when the LP finds none."""
    prob = LPProblem(
        objective=np.zeros(len(lo)), a=a, relations=(">=",) * len(rhs), rhs=rhs, lo=lo, hi=hi,
    )
    sol = solve_lp(prob)
    return sol.x if sol.status == OPTIMAL else None
