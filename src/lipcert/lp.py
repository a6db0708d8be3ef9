"""Bounded-variable dual simplex over a condensed tableau.

Solves  max c.x  s.t.  A x (<=,=,>=) b,  lo <= x <= hi  with finite bounds on
every variable.  Each row gets a slack with bounds derived from interval
arithmetic, so the original problem is an equality system [A I] v = b over an
all-finite box (an equality row's slack is fixed at 0) and genuine
unboundedness cannot occur.

Construction presolves the equality rows (E. D. Andersen and K. D. Andersen,
"Presolving in linear programming", *Math. Programming* 71, 1995).
Gauss-Jordan elimination runs over the ``=`` rows in order; each pivots on
its largest-magnitude coefficient among the columns not yet eliminated, and
that column is eliminated from every other row.  Afterwards an eliminated
variable z appears in its own row only, with coefficient a, and takes the
place of the row's fixed slack: the presolved row's slack is s = a z, with box
a.[lo_z, hi_z] set from each solve's bounds (so a node's bound change on z
is a slack bound change) and cost c_z / a.  The presolved system is
R [A I] v = R b, where R, the product of the row operations, is the identity
except in its columns at the eliminated rows.  An equality row with no usable
pivot keeps its fixed slack.  ``LPSolution.x`` is mapped back to the original
variables (x_z = s / a); a ``Basis`` holds presolved column ids.

Every solve runs one method, a bounded dual simplex on the presolved system.
It needs a dual feasible start: a basis whose nonbasic columns each rest at
the bound their reduced cost prefers (upper for d_j > 0, lower for d_j < 0).
Because every column is boxed, any basis can be made dual feasible by moving
each wrong-signed nonbasic column to its other bound, so the dual needs no
phase 1.  A cold solve (the branch-and-bound root, ``solve_lp``, witness LPs)
starts from the slack basis, nonbasic columns at their bound of smaller
magnitude and then repaired that way.  A re-solve under changed bounds (a
branch-and-bound child) passes the ``Basis`` snapshot of an optimal solve
(its parent's) instead; changing bounds leaves that basis dual feasible, and
the dual usually re-optimizes it in a few pivots.  The solver keeps the
factorized tableau of the last snapshot it restored, so sibling re-solves
from one snapshot refactorize once.  Every start, cold or warm, is made dual
feasible by that one rule of bound flips, whatever objective its snapshot was
solved under, so root bound tightening (one LP, many objectives) starts each
objective from the previous one's basis.  Only a snapshot that is malformed
or singular, and a warm answer the dual cannot certify, is recomputed by a
nested cold solve.

The tableau is condensed: it stores B^-1 N for the nonbasic columns N only,
one column per tableau position, with an int array mapping each position to
its column id.  A pivot puts the leaving variable into the entering column's
position.  Every slack column is a unit vector, so B^-1 needs no storage of
its own: its column for a nonbasic slack is that slack's tableau column, and
for a slack basic in row r it is the unit vector e_r.  The dual steepest-edge
weights, y = c_B B^-1 and the Farkas rows are assembled from these.  Each
pivot takes as leaving variable the basic variable outside its bounds chosen
by dual steepest edge pricing; it leaves at its violated bound, and a ratio
test over the reduced costs (Harris tolerance, largest pivot among
near-ties, then the lowest column id) picks the entering column.  Reference:
A. Koberstein, *The dual simplex method, techniques for a fast and stable
implementation*, PhD thesis, Paderborn 2005.

Certification uses the original rows, never the presolved ones.  Presolved
multipliers y' map back to the original rows as y = y' R.  When no column can
enter, row r of B^-1 gives such a y, a Farkas certificate: every point of the
box satisfying the rows has y.[A I] v = y.b.  The solve recomputes
g = y.[A I] and y.b from the original data and returns INFEASIBLE only if y.b
lies outside the range of g.v over the box by more than the feasibility
tolerances could explain.  An infeasibility the certificate cannot confirm is
a NUMERICAL_FAILURE, never INFEASIBLE, as is a solve that hits the pivot cap.
With a finite ``cutoff``, the solve stops with status CUTOFF once the
objective of a dual-feasible iterate, which bounds the LP optimum from above,
falls below it and the weak-duality bound y.b + sum_j max(r_j lo_j, r_j hi_j),
with y the original-row image of c_B B^-1 and r = c - y.[A I] recomputed from
the original data, confirms it.  ``SimplexSolver.dual_bound`` is that bound,
and after an OPTIMAL answer it is the certified value callers report.  Every
OPTIMAL answer passes a primal feasibility check of the reconstructed x
against the original rows.  An error in the presolved data can therefore
only loosen a bound or turn an answer into a NUMERICAL_FAILURE.

The tableau is dense; this is deliberate.  Target scale is a few thousand
variables and the branch-and-bound driver re-solves the same matrix under
many bound vectors, which the ``SimplexSolver`` class supports without
rebuilding anything.
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
#: Relative rounding allowance of the certificate and cutoff checks.
_CERT_REL = 1e-12
#: An equality row whose coefficients on the columns not yet eliminated are
#: all below this, relative to its largest original coefficient, has no
#: usable presolve pivot and keeps its fixed slack.
_PRESOLVE_PIVOT_REL = 1e-9


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
    """Snapshot of an optimal basis in the solver's presolved column ids
    (structurals left after the presolve, then one slack per row): the basic
    column of each row (int32) and, per column, whether it rests at its upper
    bound when nonbasic.  Only the solver that produced it can read it."""

    basic: np.ndarray
    at_upper: np.ndarray


@dataclass(frozen=True)
class LPSolution:
    """``x`` is indexed by the original variables of the problem.  ``basis``
    is set on OPTIMAL answers; on CUTOFF, ``objective_value`` is the certified
    upper bound on the LP optimum that fell below the cutoff."""

    status: str
    x: np.ndarray | None
    objective_value: float
    iterations: int
    basis: Basis | None = None


class SimplexSolver:
    """Reusable dual simplex over one constraint matrix and varying bounds.

    The constraint matrix, relations and right-hand side are fixed, and their
    equality rows presolved, at construction; ``solve`` may override variable
    bounds and objective, which is exactly what branch-and-bound needs.  A
    solve given the ``basis`` of an earlier optimal answer re-optimizes it,
    usually in a few pivots; a solve without one starts cold from the slack
    basis.  ``n_struct`` and ``n_total`` count the presolved system's
    structural columns and all its columns (structurals, then slacks).
    """

    def __init__(self, problem: LPProblem):
        self.problem = problem
        m, n = problem.num_constraints, problem.num_vars
        # slack bounds: s = rhs - a.x ranges over an interval; intersecting it
        # with the relation's sign constraint keeps every bound finite.
        apos = np.maximum(problem.a, 0.0)
        aneg = np.minimum(problem.a, 0.0)
        row_hi = apos @ problem.hi + aneg @ problem.lo
        row_lo = apos @ problem.lo + aneg @ problem.hi
        s_lo = problem.rhs - row_hi
        s_hi = problem.rhs - row_lo
        self._le = np.array([rel == "<=" for rel in problem.relations], dtype=bool)
        self._ge = np.array([rel == ">=" for rel in problem.relations], dtype=bool)
        self._row_infeasible = bool(np.any(self._le & (s_hi < 0)) or np.any(self._ge & (s_lo > 0)))
        # the original columns' boxes and costs (structurals, then slacks):
        # the data every certificate is checked on
        self._olo = np.zeros(n + m)
        self._ohi = np.zeros(n + m)
        self._ocost = np.zeros(n + m)
        self._olo[n:] = np.where(self._ge, np.minimum(s_lo, 0.0), 0.0)
        self._ohi[n:] = np.where(self._le, np.maximum(s_hi, 0.0), 0.0)
        self._presolve()
        self.n_total = self.n_struct + m
        self._tab = np.empty((m, self.n_struct))
        self._beta0 = np.empty(m)
        self._basis = None
        self._nb = None
        self._at_upper = None
        # the last restored snapshot and its factorized tableau
        self._snap = None
        self._snap_tab = None
        self._snap_beta0 = None
        self._snap_nb = None
        # reusable workspaces for the hot loop
        self._wlo = np.empty(self.n_total)
        self._whi = np.empty(self.n_total)
        self._costs = np.zeros(self.n_total)
        self._ger_buf = np.empty((m, self.n_struct))

    def _presolve(self):
        """Gauss-Jordan elimination over the equality rows.

        Sets the presolved matrix ``_a`` (kept structural columns only) and
        right-hand side ``_b``, the kept columns' original ids ``_kept``, and
        per eliminated row its index, its variable's original id and
        coefficient, and its column of R (``_rcols``, m x k)."""
        p = self.problem
        m, n = p.a.shape
        eq = np.flatnonzero(~(self._le | self._ge))
        # [A | b | R at the equality rows], row-reduced in place
        work = np.zeros((m, n + 1 + eq.size))
        work[:, :n] = p.a
        work[:, n] = p.rhs
        work[eq, n + 1 + np.arange(eq.size)] = 1.0
        active = np.ones(n, dtype=bool)
        rows, cols, rcols = [], [], []
        for t, i in enumerate(eq):
            coefs = np.where(active, np.abs(work[i, :n]), 0.0)
            z = int(np.argmax(coefs))
            if not coefs[z] > _PRESOLVE_PIVOT_REL * np.abs(p.a[i]).max():
                work[i, :n] = 0.0  # only rounding left: 0 = b' or a redundant row
                continue
            f = work[:, z] / work[i, z]
            f[i] = 0.0
            hit = np.flatnonzero(f)
            work[hit] -= f[hit, None] * work[i]
            work[hit, z] = 0.0
            active[z] = False
            rows.append(i)
            cols.append(z)
            rcols.append(n + 1 + t)
        self._kept = np.flatnonzero(active)
        self.n_struct = self._kept.size
        self._a = work[:, self._kept]
        self._b = work[:, n].copy()
        self._elim_rows = np.array(rows, dtype=np.intp)
        self._elim_cols = np.array(cols, dtype=np.intp)
        self._elim_coef = work[self._elim_rows, self._elim_cols]
        self._rcols = work[:, rcols]

    # -- state management ---------------------------------------------------

    def _cold_start(self):
        """The slack basis, nonbasic structurals at their bound of smaller
        magnitude (``_dual`` then repairs its dual feasibility)."""
        n = self.n_struct
        wlo, whi = self._wlo, self._whi
        np.copyto(self._tab, self._a)
        np.copyto(self._beta0, self._b)
        self._basis = np.arange(n, self.n_total)
        self._nb = np.arange(n)
        self._at_upper = np.zeros(self.n_total, dtype=bool)
        self._at_upper[:n] = np.abs(whi[:n]) < np.abs(wlo[:n])

    def _refactorize(self) -> bool:
        """Recompute the tableau's nonbasic columns and B^-1 b from the
        presolved data.

        Basic slacks are unit columns, so only the square block of A in the
        basic structural columns and the rows whose slack is nonbasic needs a
        factorization; the rows of basic slacks follow by substitution.
        Returns False on a (near-)singular basis.
        """
        n, a, nb = self.n_struct, self._a, self._nb
        m = a.shape[0]
        is_struct = self._basis < n
        cols = self._basis[is_struct]
        slack_rows = self._basis[~is_struct] - n  # rows whose slack is basic
        free_rows = np.ones(m, dtype=bool)
        free_rows[slack_rows] = False
        # right-hand sides: the nonbasic columns of [A I], then b
        rhs = np.zeros((m, n + 1))
        slack = nb >= n
        rhs[:, np.flatnonzero(~slack)] = a[:, nb[~slack]]
        rhs[nb[slack] - n, np.flatnonzero(slack)] = 1.0
        rhs[:, n] = self._b
        try:
            top = np.linalg.solve(a[np.ix_(free_rows, cols)], rhs[free_rows])
        except np.linalg.LinAlgError:
            return False
        bottom = rhs[slack_rows] - a[np.ix_(slack_rows, cols)] @ top
        if not (np.all(np.isfinite(top)) and np.all(np.isfinite(bottom))):
            return False
        self._tab[is_struct] = top[:, :n]
        self._beta0[is_struct] = top[:, n]
        self._tab[~is_struct] = bottom[:, :n]
        self._beta0[~is_struct] = bottom[:, n]
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
            nonbasic = np.ones(self.n_total, dtype=bool)
            nonbasic[self._basis] = False
            self._nb = np.flatnonzero(nonbasic)
            if not self._refactorize():
                return False
            self._snap = basis
            self._snap_tab = self._tab.copy()
            self._snap_beta0 = self._beta0.copy()
            self._snap_nb = self._nb.copy()
        else:
            np.copyto(self._tab, self._snap_tab)
            np.copyto(self._beta0, self._snap_beta0)
            self._nb = self._snap_nb.copy()
        self._basis = basis.basic.astype(np.intp)
        self._at_upper = np.array(basis.at_upper, dtype=bool)
        return True

    def _nonbasic_values(self, wlo, whi):
        """Values of the nonbasic columns, by tableau position."""
        nb = self._nb
        return np.where(self._at_upper[nb], whi[nb], wlo[nb])

    def _basic_values(self, wlo, whi):
        return self._beta0 - self._tab @ self._nonbasic_values(wlo, whi)

    def _pivot(self, row, pos, d):
        """Exchange the basic variable of ``row`` with the nonbasic column
        at tableau position ``pos``, which the leaving variable takes."""
        tab, beta0 = self._tab, self._beta0
        alpha = tab[:, pos].copy()
        inv = 1.0 / alpha[row]
        prow = tab[row] * inv
        pbeta = beta0[row] * inv
        alpha[row] = 0.0
        buf = self._ger_buf
        np.multiply(alpha[:, None], prow[None, :], out=buf)
        np.subtract(tab, buf, out=tab)
        beta0 -= alpha * pbeta
        tab[row] = prow
        beta0[row] = pbeta
        np.multiply(alpha, -inv, out=tab[:, pos])
        tab[row, pos] = inv
        dq = d[pos]
        d -= dq * prow
        d[pos] = -dq * inv

    def _reduced_costs(self, costs):
        """Reduced costs of the nonbasic columns, by tableau position."""
        return costs[self._nb] - costs[self._basis] @ self._tab

    def _original_multipliers(self, w):
        """The multipliers y = (w B^-1) R of the original rows.  w B^-1 is
        assembled from the slack columns: a nonbasic slack's column of B^-1
        is its tableau column, a basic slack's is a unit vector."""
        n = self.n_struct
        y = np.zeros(self.n_total - n)
        slack_pos = np.flatnonzero(self._nb >= n)
        y[self._nb[slack_pos] - n] = w @ self._tab[:, slack_pos]
        basic_slack = np.flatnonzero(self._basis >= n)
        y[self._basis[basic_slack] - n] = w[basic_slack]
        y[self._elim_rows] = y @ self._rcols
        return y

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
        answer, under this objective or another) when one is given, else
        from the slack basis; either start is made dual feasible by moving
        each wrong-signed nonbasic column to its other bound.  With a finite
        ``cutoff`` it may stop early with CUTOFF once the LP optimum is
        certified to lie below it.  A malformed or singular snapshot, and a
        warm answer the dual cannot certify, is recomputed by a nested cold
        solve.  A cold solve that cannot certify infeasibility, or hits the
        pivot cap, returns NUMERICAL_FAILURE.
        """
        p = self.problem
        if self._row_infeasible:
            return LPSolution(INFEASIBLE, None, np.nan, 0)
        lo = p.lo if lo is None else np.asarray(lo, dtype=float)
        hi = p.hi if hi is None else np.asarray(hi, dtype=float)
        if np.any(lo > hi):
            return LPSolution(INFEASIBLE, None, np.nan, 0)
        cobj = p.objective if objective is None else np.asarray(objective, dtype=float)
        n, n0 = self.n_struct, p.num_vars
        self._olo[:n0] = lo
        self._ohi[:n0] = hi
        self._ocost[:n0] = cobj
        kept = self._kept
        self._wlo[:n] = lo[kept]
        self._whi[:n] = hi[kept]
        self._costs[:n] = cobj[kept]
        self._wlo[n:] = self._olo[n0:]
        self._whi[n:] = self._ohi[n0:]
        self._costs[n:] = 0.0
        # an eliminated variable's box and cost, moved onto its row's slack
        rows, cols, coef = n + self._elim_rows, self._elim_cols, self._elim_coef
        s_lo, s_hi = coef * lo[cols], coef * hi[cols]
        self._wlo[rows] = np.minimum(s_lo, s_hi)
        self._whi[rows] = np.maximum(s_lo, s_hi)
        self._costs[rows] = cobj[cols] / coef
        sol = self._dual(basis, lo, hi, cobj, cutoff, pivot_tol)
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
        basis = Basis(self._basis.astype(np.int32), self._at_upper.copy())
        return LPSolution(OPTIMAL, x, float(cobj @ x), pivots, basis)

    # -- the dual simplex ------------------------------------------------------

    def _dual(self, basis, lo, hi, cobj, cutoff, pivot_tol) -> LPSolution:
        """Bounded dual simplex from ``basis``, or from the slack basis when it
        is None.  NUMERICAL_FAILURE when the snapshot is malformed or
        singular, an infeasibility is uncertified, the pivot cap is hit, or
        an optimum fails the feasibility check."""
        pivots = 0
        if basis is None:
            self._cold_start()
        elif not self._restore(basis):
            return LPSolution(NUMERICAL_FAILURE, None, np.nan, pivots)
        wlo, whi, costs = self._wlo, self._whi, self._costs
        free = whi > wlo
        d = self._reduced_costs(costs)
        self._repair_dual(d, free)
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
                if not self._repair_dual(d, free):
                    return self._optimal(lo, hi, cobj, pivots)
                xb = self._basic_values(wlo, whi)
                continue
            k = self._dual_ratio_test(r, xb[r] < basic_lo[r], d, free, pivot_tol)
            if k < 0:
                status = INFEASIBLE if self._certified_infeasible(r) else NUMERICAL_FAILURE
                return LPSolution(status, None, np.nan, pivots)
            leaving, q = self._basis[r], self._nb[k]
            target = basic_lo[r] if xb[r] < basic_lo[r] else basic_hi[r]
            alpha = self._tab[:, k]
            step = (xb[r] - target) / alpha[r]
            xb -= step * alpha
            xb[r] = (whi[q] if self._at_upper[q] else wlo[q]) + step
            self._at_upper[leaving] = target == basic_hi[r]
            self._basis[r] = q
            self._nb[k] = leaving
            self._pivot(r, k, d)
            pivots += 1
            if pivots % _REFRESH_EVERY == 0:
                d = self._reduced_costs(costs)
                xb = self._basic_values(wlo, whi)
        return LPSolution(NUMERICAL_FAILURE, None, np.nan, pivots)

    def _leaving_row(self, infeas) -> int:
        """Dual steepest edge: the row with the largest squared infeasibility
        per squared norm of its row of B^-1, or -1 when every basic variable
        is within FEAS_TOL of its bounds.  Row r of B^-1 is row r of the
        nonbasic slacks' tableau columns, plus a 1 when row r's basic
        variable is a slack."""
        rows = (infeas > FEAS_TOL).nonzero()[0]
        if not rows.size:
            return -1
        n = self.n_struct
        binv = self._tab[rows]
        norms = (binv * binv) @ (self._nb >= n) + (self._basis[rows] >= n)
        return int(rows[np.argmax(infeas[rows] ** 2 / norms)])

    def _repair_dual(self, d, free) -> bool:
        """Move each nonbasic column whose reduced cost has the wrong sign
        (beyond the pivot tolerance) to its other bound, which restores dual
        feasibility.  Returns whether any column moved."""
        nb = self._nb
        at_upper = self._at_upper[nb]
        wrong = free[nb] & np.where(at_upper, d < -DEFAULT_PIVOT_TOL, d > DEFAULT_PIVOT_TOL)
        self._at_upper[nb[wrong]] = ~at_upper[wrong]
        return bool(wrong.any())

    def _dual_ratio_test(self, r, increase, d, free, pivot_tol) -> int:
        """Tableau position of the entering column for leaving row ``r``, or
        -1 if none exists.

        The leaving variable must rise (``increase``) or fall to its violated
        bound; a nonbasic column qualifies if moving it off its bound does
        that.  Among the columns whose dual ratio |d_j / alpha_rj| is within
        the Harris tolerance of the smallest, the largest |alpha_rj| enters,
        ties to the lowest column id.
        """
        row = self._tab[r]
        nb = self._nb
        at_upper = self._at_upper[nb]
        moves = np.where(at_upper ^ increase, -row, row)  # alpha_rj signed by direction
        idx = (free[nb] & (moves > pivot_tol)).nonzero()[0]
        if idx.size == 0:
            return -1
        dj = d[idx]
        slack = np.maximum(np.where(at_upper[idx], dj, -dj), 0.0)
        mag = np.abs(row[idx])
        near = slack / mag <= np.min((slack + DEFAULT_PIVOT_TOL) / mag)
        mag = np.where(near, mag, -1.0)
        best = idx[mag == mag.max()]
        return int(best[np.argmin(nb[best])]) if best.size > 1 else int(best[0])

    def _certified_infeasible(self, r) -> bool:
        """Whether row r of B^-1 proves the working box infeasible, checked
        on the original rows and box with room for the feasibility
        tolerances."""
        p = self.problem
        unit = np.zeros(self._basis.size)
        unit[r] = 1.0
        y = self._original_multipliers(unit)
        g = np.concatenate([y @ p.a, y])
        yb = float(y @ p.rhs)
        gl, gh = g * self._olo, g * self._ohi
        g_min = float(np.minimum(gl, gh).sum())
        g_max = float(np.maximum(gl, gh).sum())
        mag = np.maximum(np.abs(self._olo), np.abs(self._ohi))
        margin = FEAS_TOL * float(np.abs(y) @ (1.0 + np.abs(p.rhs)) + np.abs(g).sum())
        margin += _CERT_REL * float(np.abs(y) @ np.abs(p.rhs) + np.abs(g) @ mag)
        return yb < g_min - margin or yb > g_max + margin

    def _cutoff_bound(self, xb, cutoff) -> float | None:
        """A certified upper bound on the LP optimum below ``cutoff``, or None.

        The current iterate's objective triggers the check; the bound itself
        is ``dual_bound``, valid whatever the accuracy of the iterate."""
        wlo, whi, costs = self._wlo, self._whi, self._costs
        estimate = costs[self._basis] @ xb + costs[self._nb] @ self._nonbasic_values(wlo, whi)
        if not estimate < cutoff:
            return None
        bound = self.dual_bound()
        return bound if bound < cutoff else None

    def dual_bound(self) -> float:
        """Certified upper bound on the optimum of the last solve's LP.

        The weak-duality bound y.b + sum_j max(r_j lo_j, r_j hi_j) over the
        original rows and columns, where y is the original-row image of
        c_B B^-1 at the basis the solve ended at and r = c - y.[A I] is
        recomputed from the original data over that solve's bounds, rounded
        up by a relative allowance.  Every column is boxed, so it holds for
        any y, however inaccurate.  Read it after an OPTIMAL answer; it is
        not finite when the tableau is not.
        """
        p = self.problem
        olo, ohi = self._olo, self._ohi
        y = self._original_multipliers(self._costs[self._basis])
        red = self._ocost - np.concatenate([y @ p.a, y])
        rl, rh = red * olo, red * ohi
        bound = float(y @ p.rhs + np.maximum(rl, rh).sum())
        mag = np.maximum(np.abs(olo), np.abs(ohi))
        return bound + _CERT_REL * float(np.abs(y) @ np.abs(p.rhs) + np.abs(red) @ mag)

    def _extract(self, wlo, whi):
        """The basic solution in the original variables."""
        v = np.empty(self.n_total)
        v[self._nb] = self._nonbasic_values(wlo, whi)
        v[self._basis] = self._basic_values(wlo, whi)
        x = np.empty(self.problem.num_vars)
        x[self._kept] = v[: self.n_struct]
        x[self._elim_cols] = v[self.n_struct + self._elim_rows] / self._elim_coef
        return x

    def _feasible(self, x, lo, hi) -> bool:
        p = self.problem
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
