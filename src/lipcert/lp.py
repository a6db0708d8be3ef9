"""Dense bounded-variable dual simplex.

Solves  max c.x  s.t.  A x (<=,=,>=) b,  lo <= x <= hi  with finite bounds on
every variable.  Each row gets a slack with bounds derived from interval
arithmetic, so the working problem is an equality system [A I] v = b over an
all-finite box and genuine unboundedness cannot occur.

Every solve runs one method, a bounded dual simplex.  It needs a dual
feasible start: a basis whose nonbasic columns each rest at the bound their
reduced cost prefers (upper for d_j > 0, lower for d_j < 0).  Because every
column is boxed, any basis can be made dual feasible by moving each
wrong-signed nonbasic column to its other bound, so the dual needs no phase 1.
A cold solve (the branch-and-bound root, ``solve_lp``, witness LPs) starts
from the slack basis, nonbasic columns at their bound of smaller magnitude
and then repaired that way.  A re-solve under changed bounds (a
branch-and-bound child) passes the ``Basis`` snapshot of an optimal solve
(its parent's) instead; changing bounds leaves that basis dual feasible, and
the dual usually re-optimizes it in a few pivots.  The solver keeps the
factorized tableau of the last snapshot it restored, so sibling re-solves
from one snapshot refactorize once.  A snapshot that is malformed, singular
or, under the problem's own objective, not dual feasible, and any warm answer
the dual cannot certify, is recomputed by a nested cold solve.  A solve with
an explicit objective (root bound tightening: one LP, many objectives) may
start from the snapshot of a solve under another objective; its wrong-signed
reduced costs are then expected and repaired as at a cold start.

Each pivot takes as leaving variable the basic variable outside its bounds
chosen by dual steepest edge pricing; it leaves at its violated bound, and a
ratio test over the reduced costs (Harris tolerance, largest pivot among
near-ties) picks the entering column.  Reference: A. Koberstein, *The dual
simplex method, techniques for a fast and stable implementation*, PhD
thesis, Paderborn 2005.

When no column can enter, row r of B^-1 is a Farkas certificate y: every
point of the working box satisfying the rows has y.[A I] v = y.b.  The solve
recomputes g = y.[A I] and y.b from the original data and returns INFEASIBLE
only if y.b lies outside the range of g.v over the box by more than the
feasibility tolerances could explain.  An infeasibility the certificate
cannot confirm is a NUMERICAL_FAILURE, never INFEASIBLE, as is a solve that
hits the pivot cap.  With a finite ``cutoff``, the solve stops with status
CUTOFF once the objective of a dual-feasible iterate, which bounds the LP
optimum from above, falls below it and the weak-duality bound
y.b + sum_j max(r_j lo_j, r_j hi_j), with y = c_B B^-1 and r = c - y.[A I]
recomputed from the original data, confirms it.  ``SimplexSolver.dual_bound``
is that bound, and after an OPTIMAL answer it is the certified value callers
report.  Every OPTIMAL answer passes a primal feasibility check against the
original data.

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
CUTOFF = "cutoff"
NUMERICAL_FAILURE = "numerical_failure"

FEAS_TOL = 1e-7
DEFAULT_PIVOT_TOL = 1e-9

_REFRESH_EVERY = 256  # pivots between full recomputations of costs/values
#: Largest wrong-signed reduced cost a restored basis may have under the
#: problem's own objective; smaller ones are repaired by moving the variable
#: to its other bound.
_DUAL_TOL = 1e-7
#: Relative rounding allowance of the certificate and cutoff checks.
_CERT_REL = 1e-12


class SolverNumericalError(RuntimeError):
    """An LP answer needed for a result could not be trusted."""


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
class Basis:
    """Snapshot of an optimal basis: the basic column of each row (int32) and,
    per column (structurals, then slacks), whether it rests at its upper
    bound when nonbasic."""

    basic: np.ndarray
    at_upper: np.ndarray


@dataclass(frozen=True)
class LPSolution:
    """``basis`` is set on OPTIMAL answers; on CUTOFF, ``objective_value`` is
    the certified upper bound on the LP optimum that fell below the cutoff."""

    status: str
    x: np.ndarray | None
    objective_value: float
    iterations: int
    basis: Basis | None = None


class SimplexSolver:
    """Reusable dual simplex over one constraint matrix and varying bounds.

    The constraint matrix, relations and right-hand side are fixed at
    construction; ``solve`` may override variable bounds and objective, which
    is exactly what branch-and-bound needs.  A solve given the ``basis`` of an
    earlier optimal answer re-optimizes it, usually in a few pivots; a solve
    without one starts cold from the slack basis.
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
        self._le = np.array([rel == "<=" for rel in problem.relations], dtype=bool)
        self._ge = np.array([rel == ">=" for rel in problem.relations], dtype=bool)
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
        # [A I | b]: the equality system and its right-hand side
        self._r_rhs = np.hstack([problem.a, np.eye(m), problem.rhs[:, None]])
        self._r = self._r_rhs[:, :-1]
        self._tab = None
        self._beta0 = None
        self._basis = None
        self._at_upper = None
        # the last restored snapshot and its factorized tableau
        self._snap = None
        self._snap_tab = None
        self._snap_beta0 = None
        # reusable workspaces for the hot loop
        self._wlo = np.empty(self.n_total)
        self._whi = np.empty(self.n_total)
        self._costs = np.zeros(self.n_total)
        self._ger_buf = np.empty((m, self.n_total))

    # -- state management ---------------------------------------------------

    def _cold_start(self):
        """The slack basis, nonbasic structurals at their bound of smaller
        magnitude (``_dual`` then repairs its dual feasibility)."""
        wlo, whi = self._wlo, self._whi
        self._tab = self._r.copy()
        self._beta0 = self.problem.rhs.copy()
        self._basis = np.arange(self.n_struct, self.n_total)
        self._at_upper = np.zeros(self.n_total, dtype=bool)
        self._at_upper[: self.n_struct] = np.abs(whi[: self.n_struct]) < np.abs(
            wlo[: self.n_struct]
        )

    def _refactorize(self) -> bool:
        """Recompute the tableau from the basis columns of the original data.

        Basic slacks are unit columns, so only the square block of A in the
        basic structural columns and the rows whose slack is nonbasic needs a
        factorization; the rows of basic slacks follow by substitution.
        Returns False on a (near-)singular basis.
        """
        n, a = self.n_struct, self.problem.a
        is_struct = self._basis < n
        cols = self._basis[is_struct]
        slack_rows = self._basis[~is_struct] - n  # rows whose slack is basic
        free_rows = np.ones(a.shape[0], dtype=bool)
        free_rows[slack_rows] = False
        try:
            top = np.linalg.solve(a[np.ix_(free_rows, cols)], self._r_rhs[free_rows])
        except np.linalg.LinAlgError:
            return False
        bottom = self._r_rhs[slack_rows] - a[np.ix_(slack_rows, cols)] @ top
        if not (np.all(np.isfinite(top)) and np.all(np.isfinite(bottom))):
            return False
        if self._tab is None:  # no cold solve yet
            self._tab = np.empty((a.shape[0], self.n_total))
            self._beta0 = np.empty(a.shape[0])
        self._tab[is_struct] = top[:, :-1]
        self._beta0[is_struct] = top[:, -1]
        self._tab[~is_struct] = bottom[:, :-1]
        self._beta0[~is_struct] = bottom[:, -1]
        return True

    def _restore(self, basis: Basis) -> bool:
        """Load a snapshot's basis and tableau; False if it cannot be used."""
        if basis is not self._snap:
            m = self.n_total - self.n_struct
            basic = np.asarray(basis.basic)
            at_upper = np.asarray(basis.at_upper)
            if basic.shape != (m,) or at_upper.shape != (self.n_total,):
                return False
            if m and (basic.min() < 0 or basic.max() >= self.n_total):
                return False
            if np.unique(basic).size != m:
                return False
            self._basis = basic.astype(np.intp)
            if not self._refactorize():
                return False
            self._snap = basis
            self._snap_tab = self._tab.copy()
            self._snap_beta0 = self._beta0.copy()
        else:
            np.copyto(self._tab, self._snap_tab)
            np.copyto(self._beta0, self._snap_beta0)
        self._basis = basis.basic.astype(np.intp)
        self._at_upper = np.array(basis.at_upper, dtype=bool)
        return True

    def _nonbasic(self):
        mask = np.ones(self.n_total, dtype=bool)
        mask[self._basis] = False
        return mask

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
        d -= d[col] * prow
        d[col] = 0.0

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
        basis: Basis | None = None,
        cutoff: float = np.inf,
    ) -> LPSolution:
        """Maximize under the given bounds and objective (default: the problem's).

        The dual simplex starts from ``basis`` (from an earlier OPTIMAL
        answer) when one is given, else from the slack basis; with an
        explicit ``objective`` that snapshot may come from a solve under
        another objective.  With a finite
        ``cutoff`` it may stop early with CUTOFF once the LP optimum is
        certified to lie below it.  A warm answer it cannot certify is
        recomputed by a nested cold solve.  A cold solve that cannot certify
        infeasibility, or hits the pivot cap, returns NUMERICAL_FAILURE.
        """
        p = self.problem
        if self._row_infeasible:
            return LPSolution(INFEASIBLE, None, np.nan, 0)
        lo = p.lo if lo is None else np.asarray(lo, dtype=float)
        hi = p.hi if hi is None else np.asarray(hi, dtype=float)
        if np.any(lo > hi):
            return LPSolution(INFEASIBLE, None, np.nan, 0)
        cobj = p.objective if objective is None else np.asarray(objective, dtype=float)
        self._wlo[: self.n_struct] = lo
        self._wlo[self.n_struct:] = self._slack_lo
        self._whi[: self.n_struct] = hi
        self._whi[self.n_struct:] = self._slack_hi
        self._costs[: self.n_struct] = cobj
        limit = _DUAL_TOL if objective is None else np.inf
        sol = self._dual(basis, lo, hi, cobj, cutoff, pivot_tol, limit)
        if sol.status == NUMERICAL_FAILURE and basis is not None:
            # uncertified or failed: a nested cold solve gives the answer
            return self.solve(lo, hi, cobj, pivot_tol, cutoff=cutoff)
        return sol

    def _optimal(self, lo, hi, cobj, pivots) -> LPSolution:
        """The OPTIMAL answer at the current basis, or NUMERICAL_FAILURE when
        its point fails the feasibility check."""
        x = self._extract(self._wlo, self._whi)
        if not self._feasible(x, lo, hi):
            return LPSolution(NUMERICAL_FAILURE, None, np.nan, pivots)
        xs = x[: self.n_struct]
        basis = Basis(self._basis.astype(np.int32), self._at_upper.copy())
        return LPSolution(OPTIMAL, xs, float(cobj @ xs), pivots, basis)

    # -- the dual simplex ------------------------------------------------------

    def _dual(self, basis, lo, hi, cobj, cutoff, pivot_tol, limit) -> LPSolution:
        """Bounded dual simplex from ``basis``, or from the slack basis when it
        is None.  NUMERICAL_FAILURE when the snapshot is unusable (or has a
        wrong-signed reduced cost beyond ``limit``), an infeasibility is
        uncertified, the pivot cap is hit, or an optimum fails the
        feasibility check."""
        pivots = 0
        if basis is None:
            self._cold_start()
            limit = np.inf
        elif not self._restore(basis):
            return LPSolution(NUMERICAL_FAILURE, None, np.nan, pivots)
        wlo, whi, costs = self._wlo, self._whi, self._costs
        free = whi > wlo
        d = self._reduced_costs(costs)
        if self._repair_dual(d, free, limit) is None:
            return LPSolution(NUMERICAL_FAILURE, None, np.nan, pivots)
        xb = self._basic_values(wlo, whi)
        max_pivots = 2 * self.n_total + 1000
        while pivots <= max_pivots:
            if cutoff < np.inf:
                bound = self._cutoff_bound(xb, cutoff)
                if bound is not None:
                    return LPSolution(CUTOFF, None, bound, pivots)
            basic_lo = wlo[self._basis]
            basic_hi = whi[self._basis]
            infeas = np.maximum(basic_lo - xb, xb - basic_hi)
            r = self._leaving_row(infeas)
            if r < 0:
                # primal feasible: confirm on fresh values and reduced costs
                xb = self._basic_values(wlo, whi)
                infeas = np.maximum(basic_lo - xb, xb - basic_hi)
                if (infeas > FEAS_TOL).any():
                    continue
                d = self._reduced_costs(costs)
                if not self._repair_dual(d, free, np.inf):
                    return self._optimal(lo, hi, cobj, pivots)
                xb = self._basic_values(wlo, whi)
                continue
            q = self._dual_ratio_test(r, xb[r] < basic_lo[r], d, free, pivot_tol)
            if q < 0:
                status = INFEASIBLE if self._certified_infeasible(r) else NUMERICAL_FAILURE
                return LPSolution(status, None, np.nan, pivots)
            leaving = self._basis[r]
            target = basic_lo[r] if xb[r] < basic_lo[r] else basic_hi[r]
            alpha = self._tab[:, q]
            step = (xb[r] - target) / alpha[r]
            xb -= step * alpha
            xb[r] = (whi[q] if self._at_upper[q] else wlo[q]) + step
            self._at_upper[leaving] = target == basic_hi[r]
            self._basis[r] = q
            self._pivot(r, q, d)
            pivots += 1
            if pivots % _REFRESH_EVERY == 0:
                d = self._reduced_costs(costs)
                xb = self._basic_values(wlo, whi)
        return LPSolution(NUMERICAL_FAILURE, None, np.nan, pivots)

    def _leaving_row(self, infeas) -> int:
        """Dual steepest edge: the row with the largest squared infeasibility
        per squared norm of its row of B^-1 (the tableau's slack columns), or
        -1 when every basic variable is within FEAS_TOL of its bounds."""
        bad = infeas > FEAS_TOL
        if not bad.any():
            return -1
        binv = self._tab[:, self.n_struct:]
        norms = np.einsum("ij,ij->i", binv, binv)
        return int(np.argmax(np.where(bad, infeas**2 / norms, -1.0)))

    def _repair_dual(self, d, free, limit) -> int | None:
        """Move each nonbasic column whose reduced cost has the wrong sign
        (beyond the pivot tolerance) to its other bound, which restores dual
        feasibility.  Returns how many moved, or None, changing nothing, when
        a wrong-signed reduced cost exceeds ``limit``."""
        nonbasic = self._nonbasic()
        wrong = nonbasic & free & np.where(self._at_upper, d < -DEFAULT_PIVOT_TOL,
                                           d > DEFAULT_PIVOT_TOL)
        if not wrong.any():
            return 0
        if np.abs(d[wrong]).max() > limit:
            return None
        self._at_upper[wrong] = ~self._at_upper[wrong]
        return int(wrong.sum())

    def _dual_ratio_test(self, r, increase, d, free, pivot_tol) -> int:
        """Entering column for leaving row ``r``, or -1 if none exists.

        The leaving variable must rise (``increase``) or fall to its violated
        bound; a nonbasic column qualifies if moving it off its bound does
        that.  Among the columns whose dual ratio |d_j / alpha_rj| is within
        the Harris tolerance of the smallest, the largest |alpha_rj| enters.
        """
        row = self._tab[r]
        nonbasic = self._nonbasic()
        direction = np.where(self._at_upper, -1.0, 1.0)
        if increase:
            direction = -direction
        eligible = nonbasic & free & (direction * row > pivot_tol)
        idx = np.flatnonzero(eligible)
        if idx.size == 0:
            return -1
        slack = np.maximum(np.where(self._at_upper[idx], d[idx], -d[idx]), 0.0)
        mag = np.abs(row[idx])
        bound = np.min((slack + DEFAULT_PIVOT_TOL) / mag)
        near = slack / mag <= bound
        return int(idx[near][np.argmax(mag[near])])

    def _certified_infeasible(self, r) -> bool:
        """Whether row r of B^-1 proves the working box infeasible, checked
        on the original data with room for the feasibility tolerances."""
        p = self.problem
        y = self._tab[r, self.n_struct:]
        g = y @ self._r
        yb = float(y @ p.rhs)
        gl, gh = g * self._wlo, g * self._whi
        g_min = float(np.minimum(gl, gh).sum())
        g_max = float(np.maximum(gl, gh).sum())
        mag = np.maximum(np.abs(self._wlo), np.abs(self._whi))
        margin = FEAS_TOL * float(np.abs(y) @ (1.0 + np.abs(p.rhs)) + np.abs(g).sum())
        margin += _CERT_REL * float(np.abs(y) @ np.abs(p.rhs) + np.abs(g) @ mag)
        return yb < g_min - margin or yb > g_max + margin

    def _cutoff_bound(self, xb, cutoff) -> float | None:
        """A certified upper bound on the LP optimum below ``cutoff``, or None.

        The current iterate's objective triggers the check; the bound itself
        is ``dual_bound``, valid whatever the accuracy of the iterate."""
        wlo, whi, costs = self._wlo, self._whi, self._costs
        estimate = costs[self._basis] @ xb + costs @ self._nonbasic_values(wlo, whi)
        if not estimate < cutoff:
            return None
        bound = self.dual_bound()
        return bound if bound < cutoff else None

    def dual_bound(self) -> float:
        """Certified upper bound on the optimum of the last solve's LP.

        The weak-duality bound y.b + sum_j max(r_j lo_j, r_j hi_j) of
        y = c_B B^-1 at the basis the solve ended at, with r = c - y.[A I]
        recomputed from the original data over that solve's bounds and rounded
        up by a relative allowance.  Every column is boxed, so it holds for any
        y, however inaccurate.  Read it after an OPTIMAL answer; it is not
        finite when the tableau is not.
        """
        wlo, whi, costs = self._wlo, self._whi, self._costs
        y = costs[self._basis] @ self._tab[:, self.n_struct:]
        red = costs - y @ self._r
        rl, rh = red * wlo, red * whi
        bound = float(y @ self.problem.rhs + np.maximum(rl, rh).sum())
        mag = np.maximum(np.abs(wlo), np.abs(whi))
        return bound + _CERT_REL * float(np.abs(y) @ np.abs(self.problem.rhs) + np.abs(red) @ mag)

    def _extract(self, wlo, whi):
        x = self._nonbasic_values(wlo, whi)
        x[self._basis] = self._basic_values(wlo, whi)
        return x

    def _feasible(self, v, lo, hi) -> bool:
        p = self.problem
        x = v[: self.n_struct]
        if np.any(x < lo - FEAS_TOL) or np.any(x > hi + FEAS_TOL):
            return False
        act = p.a @ x
        tol = FEAS_TOL * (1.0 + np.abs(p.rhs))
        bad = np.where(
            self._le, act > p.rhs + tol,
            np.where(self._ge, act < p.rhs - tol, np.abs(act - p.rhs) > tol),
        )
        return not bad.any()


def solve_lp(problem: LPProblem) -> LPSolution:
    """Solve one LP from scratch; deterministic for identical inputs."""
    return SimplexSolver(problem).solve()


def box_witness(a, rhs, lo, hi) -> np.ndarray | None:
    """Some x with lo <= x <= hi and a @ x >= rhs, or None when there is none.

    Raises SolverNumericalError when the LP fails, so that a failure is never
    read as proof that no such x exists.
    """
    prob = LPProblem(
        objective=np.zeros(len(lo)), a=a, relations=(">=",) * len(rhs), rhs=rhs, lo=lo, hi=hi,
    )
    sol = solve_lp(prob)
    if sol.status == NUMERICAL_FAILURE:
        raise SolverNumericalError("witness LP failed")
    return sol.x if sol.status == OPTIMAL else None
