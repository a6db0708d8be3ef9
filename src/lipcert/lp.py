"""Bounded-variable dual simplex over a condensed tableau.

Solves  max c.x  s.t.  row_lo <= A x <= row_hi,  lo <= x <= hi  with finite
bounds on every variable.  Each row gets a slack s = b - a.x with the box
[b - row_hi, b - row_lo], so the problem is an equality system [A I] v = b
over an all-finite box and genuine unboundedness cannot occur.  A row's box
is its relation (``<=``, ``=`` or ``>=`` against b) unless the solve gives
one (``row_lo``, ``row_hi``), changed from solve to solve as column boxes
are; an infinite side stands for the row's interval range over the
problem's box, so a ``<=`` row's slack lies in [0, max(b - min a.x, 0)].
One row form serves every caller and nothing is eliminated: an ``=`` row
has a point box, the branch-and-bound LP (``mip.MIPModel.relaxation``) a
row per affine quantity boxed by its box, the region oracle a row per
neuron.

Every solve runs one method, a bounded dual simplex.  It needs a dual
feasible start: a basis whose nonbasic columns each rest at the bound their
reduced cost prefers (upper for d_j > 0, lower for d_j < 0).  Every column
is boxed, so any basis is made dual feasible by moving each wrong-signed
nonbasic column to its other bound, and the dual needs no phase 1.  A cold
solve (the branch-and-bound root, ``solve_lp``, the region oracle's first
layer) starts from the slack basis, nonbasic columns at their bound of
smaller magnitude.  A re-solve under changed bounds or row boxes (a
branch-and-bound child, a sign choice of the oracle) passes the ``Basis``
snapshot of an optimal solve (its parent's) instead, whatever objective it
was solved under, so root bound tightening (one LP, many objectives) starts
each objective from the previous one's basis; the dual usually
re-optimizes it in a few pivots.  A solve from the snapshot the previous
solve ended at finds the live tableau there, and every snapshot a solve
starts from keeps a factorized copy of its tableau while the caller holds
it (a weak reference keys it), so siblings and backtracking restore it by a
copy.  Only a snapshot never started from, and a tableau ``_REFRESH_EVERY``
pivots past its factorization, are refactorized.  ``Basis.with_new_rows``
carries a snapshot to an LP with more rows, their slacks basic.  Only a
snapshot that is malformed or singular, and a warm answer the dual cannot
certify, is recomputed by a nested cold solve.

The tableau is condensed and reduced.  Of B^-1 N, the nonbasic columns N
only, one column per tableau position with an int array mapping each position
to its column id, it stores just the rows whose basic variable is structural:
the block T_K, where K is the set of basic structurals.  Let F be the rows
whose slack is nonbasic (|F| = |K|) and S the rows whose slack is basic.
Ordering B's rows F first, B = [[A_FK, 0], [A_SK, I]], so T_K = A_FK^-1 N_F,
and every row of S follows from T_K and the rows: row i has the
tableau row N_i - A_iK T_K and the value b_i - a_i.x.  The nonbasic slacks
hold the last |K| tableau positions, so T_K's columns there, W, form A_FK^-1;
row i of B^-1 is -A_iK W on F plus a 1 of its own, and a row of T_K has its
row of W.  These rows are derived when needed, never stored.  So
``_refactorize`` solves only the square system in A_FK, and a pivot makes one
rank-1 update of T_K, then appends a row to it (a slack leaves and a
structural enters), deletes one (a structural leaves and a slack enters) or
neither.  The entering column's entries in the rows of S, which the basic
values need, cost one product A_SK alpha_K.  The dual steepest-edge weights
of the infeasible rows, y = c_B B^-1 and the Farkas rows are assembled from
these blocks.  The working bounds, costs and flags of the nonbasic columns are
kept by tableau position and those of the basic variables by row, and a pivot
swaps the two entries it exchanges.  Each pivot takes as leaving variable the
basic variable outside its bounds chosen by dual steepest edge pricing; it
leaves at its violated bound, and a ratio test over the reduced costs (Harris
tolerance, largest pivot among near-ties, then the lowest column id) picks
the entering column.  A solve given a ``deadline`` (a ``time.perf_counter``
value) checks it before every pivot and stops with status DEADLINE once it
has passed.  Reference: A. Koberstein, *The dual simplex method, techniques
for a fast and stable implementation*, PhD thesis, Paderborn 2005.

Every certificate is computed on the rows and boxes the solver is given,
never read off the tableau, by one weak-duality bound y.b + sum_j
max(r_j lo_j, r_j hi_j), r = c - y.[A I] over the column and slack boxes.
With y = c_B B^-1 it is ``SimplexSolver.dual_bound``, valid after any
answer (DEADLINE too) and after an OPTIMAL one the value callers report; a
finite ``cutoff`` stops the solve with CUTOFF once the objective of a dual
feasible iterate falls below it and that bound confirms it.  When no column
can enter, row r of B^-1 is a Farkas certificate y: every point of the box
satisfying the rows has y.[A I] v = y.b, so the bound at zero cost is at
least 0 for y and for -y, and INFEASIBLE needs one of them below zero by
more than the feasibility tolerances explain.  An uncertified infeasibility
is a NUMERICAL_FAILURE, as is the pivot cap, and every OPTIMAL x passes a
feasibility check against the rows.  An error in T_K can only loosen a
bound or turn an answer into a NUMERICAL_FAILURE.  The rows are the
caller's floating-point data: where a branch-and-bound row composes
W_{i+1} W_i (``mip``: an ON neuron's alias feeding the next layer), the
certificate holds for those composed rows, because they are the LP.

T_K is dense; this is deliberate.  Target scale is a few thousand
variables and the branch-and-bound driver re-solves the same matrix under
many bound vectors, which the ``SimplexSolver`` class supports without
rebuilding anything.
"""

from __future__ import annotations

import time
import weakref
from dataclasses import dataclass

import numpy as np

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
CUTOFF = "cutoff"
NUMERICAL_FAILURE = "numerical_failure"
DEADLINE = "deadline"

FEAS_TOL = 1e-7
PIVOT_TOL = 1e-9

#: Pivots between recomputations of costs and values within a solve, and the
#: most a kept tableau takes before it is refactorized.
_REFRESH_EVERY = 256
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


@dataclass(frozen=True, eq=False)
class Basis:
    """Snapshot of an optimal basis in the solver's column ids (the
    structurals, then one slack per row): the basic column of each row
    (int32) and, per column, whether it rests at its upper bound when
    nonbasic.  Only the solver that produced it can read it.  Snapshots
    compare by identity: the solver keys their factorized tableaus on
    them."""

    basic: np.ndarray
    at_upper: np.ndarray

    def with_new_rows(self, count: int) -> "Basis":
        """This basis for an LP over the same columns whose rows are this
        LP's followed by ``count`` more, the new rows' slacks basic; it is
        nonsingular whenever this basis is."""
        n_total = self.at_upper.size
        basic = np.concatenate([self.basic, np.arange(n_total, n_total + count, dtype=np.int32)])
        return Basis(basic, np.concatenate([self.at_upper, np.zeros(count, dtype=bool)]))


@dataclass(frozen=True)
class LPSolution:
    """``x`` is indexed by the variables of the problem.  ``basis``
    is set on OPTIMAL answers; on CUTOFF, ``objective_value`` is the certified
    upper bound on the LP optimum that fell below the cutoff.  A DEADLINE
    answer has no point; ``SimplexSolver.dual_bound`` still bounds the LP."""

    status: str
    x: np.ndarray | None
    objective_value: float
    iterations: int
    basis: Basis | None = None


class SimplexSolver:
    """Reusable dual simplex over one constraint matrix and varying bounds.

    The constraint matrix, relations and right-hand side are fixed at
    construction; ``solve`` may override variable bounds, row boxes and
    objective, which is exactly what branch-and-bound and the region oracle
    need.  A solve given the ``basis`` of an earlier optimal answer
    re-optimizes it, usually in a few pivots; a solve without one starts
    cold from the slack basis.  ``n_struct`` and ``n_total`` count the
    structural columns and all columns (structurals, then slacks).
    ``cold_starts`` and ``refactorizations`` count the solver's cold starts
    and tableau factorizations so far.
    """

    def __init__(self, problem: LPProblem):
        self.problem = problem
        m, n = problem.num_constraints, problem.num_vars
        self._a, self._b = np.asfortranarray(problem.a), problem.rhs  # pivots read columns
        # each row's interval range over the problem's box, which stands in
        # for an infinite side of its box, and the relations' boxes
        apos = np.maximum(problem.a, 0.0)
        aneg = np.minimum(problem.a, 0.0)
        self._range_lo = apos @ problem.lo + aneg @ problem.hi
        self._range_hi = apos @ problem.hi + aneg @ problem.lo
        rels = np.array(problem.relations)
        self._rel_lo = np.where(rels == "<=", -np.inf, problem.rhs)
        self._rel_hi = np.where(rels == ">=", np.inf, problem.rhs)
        self.n_struct = n
        self.n_total = n + m
        self.cold_starts = 0
        self.refactorizations = 0
        # [T_K | B^-1 b on its rows], and per row of T_K its tableau row.
        # ``_slot`` maps each tableau row to its constraint when its slack is
        # basic, else to m + its row of T_K (module docstring).  ``_a_k`` is
        # [-A_K; I]: row ``_slot[r]`` of it times ``_tab`` is row r of
        # [B^-1 N | B^-1 b], less [N_i | b_i] for a basic slack's row.  The
        # nonbasic slacks hold the last k tableau positions, so T_K's slack
        # columns are ``_tab[:k, n - k:n]``.
        rows = min(m, n)
        self._k = 0
        self._tab = np.empty((rows, n + 1))
        self._a_k = np.vstack([np.empty((m, rows)), np.eye(rows)])
        self._krow = np.empty(rows, dtype=np.intp)
        self._slot = np.arange(m)
        self._basis = None
        self._nb = None
        self._at_upper = None
        # the snapshot the live tableau rests at (the last OPTIMAL answer's),
        # the pivots it has taken since its factorization, and the factorized
        # tableau of every snapshot started from that the caller still holds
        self._live = None
        self._age = 0
        self._factors = weakref.WeakKeyDictionary()
        # reusable workspaces for the hot loop
        self._wlo = np.empty(self.n_total)
        self._whi = np.empty(self.n_total)
        self._costs = np.zeros(self.n_total)
        self._ger_buf = np.empty((rows, n + 1))

    # -- state management ---------------------------------------------------

    def _cold_start(self):
        """The slack basis, nonbasic structurals at their bound of smaller
        magnitude (``_dual`` then repairs its dual feasibility).  T_K is
        empty."""
        n = self.n_struct
        wlo, whi = self._wlo, self._whi
        self._basis = np.arange(n, self.n_total)
        self._nb = np.arange(n)
        self._set_rows(np.zeros(0, dtype=np.intp))
        self._at_upper = np.zeros(self.n_total, dtype=bool)
        self._at_upper[:n] = np.abs(whi[:n]) < np.abs(wlo[:n])
        self._live = None
        self._age = 0
        self.cold_starts += 1

    def _set_rows(self, krow, a_k=None):
        """Make ``krow`` (tableau rows whose basic variable is structural)
        the rows of T_K, in that order: their columns -A_K, taken from
        ``a_k`` when given, and every tableau row's slot.  T_K's entries are
        the caller's."""
        m, k = self._slot.size, krow.size
        self._k = k
        self._krow[:k] = krow
        if a_k is None:
            self._a_k[:m, :k] = -self._a[:, self._basis[krow]]
        else:
            self._a_k[:m, :k] = a_k
        self._slot = self._basis - self.n_struct
        self._slot[krow] = m + np.arange(k)

    def _refactorize(self) -> bool:
        """Recompute T_K and its B^-1 b from the rows: one solve
        with the square block of A in the basic structural columns and the
        rows whose slack is nonbasic.  Returns False on a (near-)singular
        basis."""
        self.refactorizations += 1
        n, a, nb, basis = self.n_struct, self._a, self._nb, self._basis
        m = a.shape[0]
        krow = np.flatnonzero(basis < n)
        free = np.ones(m, dtype=bool)
        free[basis[basis >= n] - n] = False  # F: the rows whose slack is nonbasic
        # right-hand sides: the nonbasic columns of [A I] and b, on F
        rhs = np.zeros((krow.size, n + 1))
        slack = nb >= n
        rhs[:, np.flatnonzero(~slack)] = a[np.ix_(free, nb[~slack])]
        f_index = np.cumsum(free) - 1
        rhs[f_index[nb[slack] - n], np.flatnonzero(slack)] = 1.0
        rhs[:, n] = self._b[free]
        if krow.size:
            try:
                rhs = np.linalg.solve(a[np.ix_(free, basis[krow])], rhs)
            except np.linalg.LinAlgError:
                return False
            if not np.all(np.isfinite(rhs)):
                return False
        self._set_rows(krow)
        self._tab[:krow.size] = rhs
        self._age = 0
        return True

    def _restore(self, basis: Basis) -> bool:
        """Load a snapshot's basis and tableau; False if it cannot be used.

        The live tableau serves the snapshot it rests at, and a snapshot
        started from before has its factorized copy; any other snapshot is
        checked and factorized.  A tableau ``_REFRESH_EVERY`` pivots past its
        factorization is refactorized.  The snapshot then keeps a copy of
        its tableau for as long as the caller holds it."""
        live, self._live = self._live, None  # the solve moves the tableau on
        factored = self._factors.get(basis)
        if factored is not None:
            tab, krow, a_k, nb, self._age = factored
            self._basis = basis.basic.astype(np.intp)
            self._nb = nb.copy()
            self._set_rows(krow, a_k)
            self._tab[:krow.size] = tab
        elif basis is not live:
            m = self.n_total - self.n_struct
            basic = np.asarray(basis.basic)
            at_upper = np.asarray(basis.at_upper)
            if basic.shape != (m,) or at_upper.shape != (self.n_total,):
                return False
            if m and (basic.min() < 0 or basic.max() >= self.n_total):
                return False
            self._basis = basic.astype(np.intp)
            nonbasic = np.ones(self.n_total, dtype=bool)
            nonbasic[self._basis] = False
            self._nb = np.flatnonzero(nonbasic)
            if self._nb.size != self.n_struct:  # a repeated basic column
                return False
            if not self._refactorize():
                return False
        if self._age >= _REFRESH_EVERY:
            if not self._refactorize():
                return False
            factored = None
        if factored is None:
            k = self._k
            m = self._slot.size
            self._factors[basis] = (self._tab[:k].copy(), self._krow[:k].copy(),
                                    self._a_k[:m, :k].copy(), self._nb.copy(), self._age)
        self._at_upper = np.array(basis.at_upper, dtype=bool)
        return True

    def _load_positions(self):
        """Gather the working bounds, costs and flags of the nonbasic
        columns by tableau position and of the basic ones by row; pivots
        then swap them in place (``_exchange``)."""
        nb, basis = self._nb, self._basis
        wlo, whi, costs = self._wlo, self._whi, self._costs
        self._nb_lo, self._nb_hi, self._nb_cost = wlo[nb], whi[nb], costs[nb]
        self._nb_up = self._at_upper[nb]
        # +1 at the upper bound, -1 at the lower one, 0 for a fixed column
        self._nb_dir = np.where(self._nb_up, 1.0, -1.0)
        self._nb_dir[self._nb_hi <= self._nb_lo] = 0.0
        self._b_lo, self._b_hi, self._b_cost = wlo[basis], whi[basis], costs[basis]

    def _exchange(self, r, k, up):
        """Swap the basic variable of row ``r`` with the nonbasic column at
        position ``k``; the leaving variable rests at its upper bound when
        ``up``."""
        b_lo, b_hi, nb_lo, nb_hi = self._b_lo, self._b_hi, self._nb_lo, self._nb_hi
        self._nb_dir[k] = (1.0 if up else -1.0) if b_hi[r] > b_lo[r] else 0.0
        self._nb_up[k] = up
        b_lo[r], nb_lo[k] = nb_lo[k], b_lo[r]
        b_hi[r], nb_hi[k] = nb_hi[k], b_hi[r]
        self._b_cost[r], self._nb_cost[k] = self._nb_cost[k], self._b_cost[r]
        self._basis[r], self._nb[k] = self._nb[k], self._basis[r]

    def _nonbasic_values(self):
        """Values of the nonbasic columns, by tableau position."""
        return np.where(self._nb_up, self._nb_hi, self._nb_lo)

    def _basic_values(self):
        """Values of the basic variables, by row: T_K's rows from the
        tableau, basic slacks as b - A x."""
        k, n, nb = self._k, self.n_struct, self._nb
        xn = self._nonbasic_values()
        x = np.empty(n)
        x[nb[:n - k]] = xn[:n - k]
        xk = self._tab[:k, n] - self._tab[:k, :n] @ xn
        x[self._basis[self._krow[:k]]] = xk
        return np.concatenate([self._b - self._a @ x, xk])[self._slot]

    def _tableau_row(self, r):
        """Row ``r`` of [B^-1 N | B^-1 b]: a row of ``_tab``, or for a basic
        slack's row i [N_i | b_i] - A_iK ``_tab``."""
        k, m, n = self._k, self._slot.size, self.n_struct
        i = self._slot[r]
        if i >= m:
            return self._tab[i - m]
        row = self._a_k[i, :k] @ self._tab[:k]
        row[:n - k] += self._a[i, self._nb[:n - k]]  # N_i is 0 at the nonbasic slacks
        row[n] += self._b[i]
        return row

    def _column(self, pos):
        """The column at tableau position ``pos`` of B^-1 N by row, and its
        entries in T_K's rows: A_SK alpha_K gives the basic slacks' ones."""
        m, k, j = self._slot.size, self._k, self._nb[pos]
        alpha_k = self._tab[:k, pos].copy()
        alpha = self._a_k[:m + k, :k] @ alpha_k
        if j < self.n_struct:
            alpha[:m] += self._a[:, j]
        return alpha[self._slot], alpha_k

    def _pivot(self, r, pos, d, row, alpha_k):
        """Exchange the basic variable of ``row`` with the nonbasic column at
        tableau position ``pos``, which the leaving variable takes, after
        ``_exchange``.  ``row`` is the leaving row's ``_tableau_row`` and
        ``alpha_k`` the entering column in T_K's rows."""
        m, k, n = self._slot.size, self._k, self.n_struct
        tab = self._tab[:k]
        i = self._slot[r]
        inv = 1.0 / row[pos]
        prow = row * inv
        if i >= m:
            t = i - m
            alpha_k[t] = 0.0
        buf = self._ger_buf[:k]
        np.einsum("i,j->ij", alpha_k, prow, out=buf)  # faster than a broadcast product
        np.subtract(tab, buf, out=tab)
        np.multiply(alpha_k, -inv, out=tab[:, pos])
        dq = d[pos]
        d -= dq * prow[:n]
        d[pos] = -dq * inv
        j = self._basis[r]  # the entering column
        if j < n:  # row r is, or joins, T_K
            if i < m:
                t, self._k = k, k + 1
                self._krow[t] = r
                self._slot[r] = m + t
            self._tab[t] = prow
            self._tab[t, pos] = inv
            # an assignment: numpy 2.4's np.negative(out=) misreads some column views
            self._a_k[:m, t] = -self._a[:, j]
            if i < m:
                self._swap(pos, n - self._k, d)  # the leaving slack joins the slacks
        else:  # row r is a basic slack's: it leaves T_K if it was there
            self._slot[r] = j - n
            if i >= m:
                self._drop(t)
                self._swap(pos, n - self._k - 1, d)  # the leaving structural leaves them
        self._age += 1

    def _swap(self, p, q, d):
        """Exchange tableau positions ``p`` and ``q``."""
        if p != q:
            for arr in (self._nb, self._nb_lo, self._nb_hi, self._nb_cost, self._nb_up,
                        self._nb_dir, d):
                arr[p], arr[q] = arr[q], arr[p]
            tab = self._tab[:self._k]
            col = tab[:, p].copy()
            tab[:, p] = tab[:, q]
            tab[:, q] = col

    def _drop(self, t):
        """Delete row ``t`` of T_K; its last row takes the place."""
        last = self._k - 1
        if t != last:
            for arr in (self._tab, self._krow):
                arr[t] = arr[last]
            m = self._slot.size
            self._a_k[:m, t] = self._a_k[:m, last]
            self._slot[self._krow[t]] = m + t
        self._k = last

    def _reduced_costs(self):
        """Reduced costs of the nonbasic columns, by tableau position.  A
        slack costs nothing, so only T_K's rows carry basic costs."""
        if not self._b_cost.any():
            return self._nb_cost.copy()
        k, n = self._k, self.n_struct
        return self._nb_cost - self._b_cost[self._krow[:k]] @ self._tab[:k, :n]

    def _multipliers(self, w):
        """The row multipliers y = w B^-1 of weights ``w`` on the tableau
        rows.  A basic slack's column of B^-1 is a unit vector, and a
        nonbasic slack's is its tableau column: T_K's entries, and -A_SK
        times them.  So y is w on the basic slacks' rows (``w_s``) and on F
        v W, with v = w_K - w_s A_K on T_K's rows."""
        m, k, n = self._slot.size, self._k, self.n_struct
        ext = np.zeros(m + k)
        ext[self._slot] = w
        y = ext[:m]
        v = ext @ self._a_k[:m + k, :k] if y.any() else ext[m:]
        y[self._nb[n - k:] - n] = v @ self._tab[:k, n - k:n]
        return y

    # -- public solve ---------------------------------------------------------

    def solve(
        self,
        lo=None,
        hi=None,
        objective=None,
        basis: Basis | None = None,
        cutoff: float = np.inf,
        row_lo=None,
        row_hi=None,
        deadline: float = np.inf,
    ) -> LPSolution:
        """Maximize under the given bounds and objective (default: the problem's).

        ``row_lo`` and ``row_hi`` box each row's activity a.x in place of its
        relation (either may be left out); an infinite side stands for the
        row's interval range over the problem's box.  The dual simplex
        starts from ``basis`` (of an earlier OPTIMAL answer, under any
        objective) when given, else from the slack basis, either made dual
        feasible by bound flips.  A finite ``cutoff`` may stop it with CUTOFF
        once the optimum is certified below it, and once
        ``time.perf_counter()`` passes ``deadline`` it stops with DEADLINE
        before the next pivot.  A malformed or singular snapshot, and a warm
        answer the dual cannot certify, is recomputed by a nested cold solve;
        a cold solve that cannot certify infeasibility, hits the pivot cap or
        fails the feasibility check returns NUMERICAL_FAILURE.
        """
        p = self.problem
        lo = p.lo if lo is None else np.asarray(lo, dtype=float)
        hi = p.hi if hi is None else np.asarray(hi, dtype=float)
        act_lo = self._rel_lo if row_lo is None else np.asarray(row_lo, dtype=float)
        act_hi = self._rel_hi if row_hi is None else np.asarray(row_hi, dtype=float)
        self._act_lo, self._act_hi = act_lo, act_hi
        if (lo > hi).any() or (act_lo > act_hi).any():
            return LPSolution(INFEASIBLE, None, np.nan, 0)
        cobj = p.objective if objective is None else np.asarray(objective, dtype=float)
        n = self.n_struct
        self._wlo[:n] = lo
        self._whi[:n] = hi
        self._costs[:n] = cobj  # a slack costs nothing
        # a slack's box is its row's box turned round, each infinite side
        # replaced by the row's interval range
        np.subtract(p.rhs, np.where(act_hi < np.inf, act_hi,
                                    np.maximum(self._range_hi, act_lo)), out=self._wlo[n:])
        np.subtract(p.rhs, np.where(act_lo > -np.inf, act_lo,
                                    np.minimum(self._range_lo, act_hi)), out=self._whi[n:])
        sol = self._dual(basis, lo, hi, cobj, cutoff, deadline)
        if sol.status == NUMERICAL_FAILURE and basis is not None:
            # uncertified or failed: a nested cold solve gives the answer
            return self.solve(lo, hi, cobj, cutoff=cutoff, row_lo=row_lo, row_hi=row_hi,
                              deadline=deadline)
        return sol

    def _optimal(self, lo, hi, cobj, pivots, xb) -> LPSolution:
        """The OPTIMAL answer at the current basis, whose basic values are
        ``xb``, or NUMERICAL_FAILURE when its point fails the feasibility
        check.  The live tableau rests at the answer's snapshot."""
        v = np.empty(self.n_total)
        v[self._nb] = self._nonbasic_values()
        v[self._basis] = xb
        x = v[:self.n_struct]
        if not self._feasible(x, lo, hi):
            return LPSolution(NUMERICAL_FAILURE, None, np.nan, pivots)
        at_upper = np.zeros(self.n_total, dtype=bool)
        at_upper[self._nb] = self._nb_up
        self._live = Basis(self._basis.astype(np.int32), at_upper)
        return LPSolution(OPTIMAL, x, float(cobj @ x), pivots, self._live)

    # -- the dual simplex ------------------------------------------------------

    def _dual(self, basis, lo, hi, cobj, cutoff, deadline) -> LPSolution:
        """Bounded dual simplex from ``basis``, or from the slack basis when it
        is None.  NUMERICAL_FAILURE when the snapshot is malformed or
        singular, an infeasibility is uncertified, the pivot cap is hit, or
        an optimum fails the feasibility check; DEADLINE past ``deadline``."""
        pivots = 0
        if basis is None:
            self._cold_start()
        elif not self._restore(basis):
            return LPSolution(NUMERICAL_FAILURE, None, np.nan, pivots)
        self._load_positions()
        basic_lo, basic_hi = self._b_lo, self._b_hi
        d = self._reduced_costs()
        self._repair_dual(d)
        xb = self._basic_values()
        fresh = True  # xb recomputed since the last pivot
        z = self._objective(xb, cutoff)  # of a dual feasible iterate: above the LP optimum
        max_pivots = 2 * self.n_total + 1000
        while pivots <= max_pivots:
            if time.perf_counter() > deadline:
                return LPSolution(DEADLINE, None, np.nan, pivots)
            if cutoff < np.inf:
                bound = self._cutoff_bound(z, cutoff)
                if bound is not None:
                    return LPSolution(CUTOFF, None, bound, pivots)
            infeas = np.maximum(basic_lo - xb, xb - basic_hi)
            r = self._leaving_row(infeas)
            if r < 0:
                # primal feasible: confirm on fresh values and reduced costs
                if not fresh:
                    xb, fresh = self._basic_values(), True
                    z = self._objective(xb, cutoff)
                    infeas = np.maximum(basic_lo - xb, xb - basic_hi)
                    if (infeas > FEAS_TOL).any():
                        continue
                d = self._reduced_costs()
                if not self._repair_dual(d):
                    return self._optimal(lo, hi, cobj, pivots, xb)
                xb = self._basic_values()
                z = self._objective(xb, cutoff)
                continue
            row = self._tableau_row(r)
            k = self._dual_ratio_test(row[:self.n_struct], xb[r] < basic_lo[r], d)
            if k < 0:
                status = INFEASIBLE if self._certified_infeasible(r) else NUMERICAL_FAILURE
                return LPSolution(status, None, np.nan, pivots)
            target = basic_lo[r] if xb[r] < basic_lo[r] else basic_hi[r]
            alpha, alpha_k = self._column(k)
            alpha[r] = row[k]
            step = (xb[r] - target) / alpha[r]
            xb -= step * alpha
            z += step * d[k]
            xb[r] = (self._nb_hi[k] if self._nb_up[k] else self._nb_lo[k]) + step
            self._exchange(r, k, target == basic_hi[r])
            self._pivot(r, k, d, row, alpha_k)
            pivots += 1
            fresh = False
            if pivots % _REFRESH_EVERY == 0:
                d = self._reduced_costs()
                xb, fresh = self._basic_values(), True
                z = self._objective(xb, cutoff)
        return LPSolution(NUMERICAL_FAILURE, None, np.nan, pivots)

    def _leaving_row(self, infeas) -> int:
        """Dual steepest edge: the row with the largest squared infeasibility
        per ``_edge_weights``, or -1 when every basic variable is within
        FEAS_TOL of its bounds."""
        rows = (infeas > FEAS_TOL).nonzero()[0]
        if not rows.size:
            return -1
        score = infeas[rows]
        np.square(score, out=score)
        score /= self._edge_weights(rows)
        return int(rows[score.argmax()])

    def _edge_weights(self, rows):
        """The squared norms of ``rows``' rows of B^-1.  On F, row r of B^-1
        is row r of T_K's slack columns W, or -A_iK W for the row of basic
        slack i, which also has a 1 at its own row."""
        k, slots = self._k, self._slot[rows]
        n = self.n_struct
        binv = self._a_k[slots, :k] @ self._tab[:k, n - k:n]
        np.square(binv, out=binv)
        norms = binv.sum(axis=1)
        norms += slots < self._slot.size
        return norms

    def _repair_dual(self, d) -> bool:
        """Move each nonbasic column whose reduced cost has the wrong sign
        (beyond the pivot tolerance) to its other bound, which restores dual
        feasibility.  Returns whether any column moved."""
        wrong = (self._nb_dir * d < -PIVOT_TOL).nonzero()[0]
        self._nb_up[wrong] = ~self._nb_up[wrong]
        self._nb_dir[wrong] = -self._nb_dir[wrong]
        return bool(wrong.size)

    def _dual_ratio_test(self, row, increase, d) -> int:
        """Tableau position of the entering column for the leaving row's
        tableau row ``row``, or -1 if none exists.

        The leaving variable must rise (``increase``) or fall to its violated
        bound; a nonbasic column qualifies if moving it off its bound does
        that.  Among the columns whose dual ratio |d_j / alpha_rj| is within
        the Harris tolerance of the smallest, the largest |alpha_rj| enters,
        ties to the lowest column id.
        """
        moves = row * self._nb_dir if increase else row * -self._nb_dir
        idx = (moves > PIVOT_TOL).nonzero()[0]  # alpha_rj signed by direction
        if idx.size == 0:
            return -1
        slack = d[idx] * self._nb_dir[idx]
        np.maximum(slack, 0.0, out=slack)
        mag = moves[idx]
        near = slack / mag <= ((slack + PIVOT_TOL) / mag).min()
        mag[~near] = -1.0
        best = idx[mag == mag.max()]
        return int(best[self._nb[best].argmin()]) if best.size > 1 else int(best[0])

    def _certified_infeasible(self, r) -> bool:
        """Whether row r of B^-1, y, proves the working box infeasible: the
        weak-duality bound at zero cost, for y or for -y, falls below zero by
        more than the feasibility tolerances allow, those of ``_feasible``:
        FEAS_TOL on each variable's bounds and FEAS_TOL (1 + |rhs_i|) on row
        i's activity, which is its slack's."""
        p = self.problem
        unit = np.zeros(self._basis.size)
        unit[r] = 1.0
        y = self._multipliers(unit)
        zero = np.zeros(self.n_total)
        margin = FEAS_TOL * float(np.abs(y) @ (1.0 + np.abs(p.rhs)) + np.abs(y @ p.a).sum())
        return min(self._weak_bound(y, zero), self._weak_bound(-y, zero)) < -margin

    def _cutoff_bound(self, estimate, cutoff) -> float | None:
        """A certified upper bound on the LP optimum below ``cutoff``, or None.

        ``estimate``, the objective of the current dual feasible iterate,
        triggers the check; the bound itself is ``dual_bound``, valid
        whatever the accuracy of the iterate."""
        if not estimate < cutoff:
            return None
        bound = self.dual_bound()
        return bound if bound < cutoff else None

    def _objective(self, xb, cutoff):
        """The objective at basic values ``xb`` and the nonbasic columns'
        values, which each pivot moves by step times the entering column's
        reduced cost; +inf when there is no finite ``cutoff`` to test it on."""
        if cutoff == np.inf:
            return np.inf
        return float(self._b_cost @ xb + self._nb_cost @ self._nonbasic_values())

    def dual_bound(self) -> float:
        """Certified upper bound on the optimum of the last solve's LP, after
        any answer: ``_weak_bound`` of y = c_B B^-1 at the basis it ended at."""
        return self._weak_bound(self._multipliers(self._costs[self._basis]), self._costs)

    def _weak_bound(self, y, cost) -> float:
        """The weak-duality bound y.b + sum_j max(r_j lo_j, r_j hi_j) on
        max cost.v over the last solve's box, r = cost - y.[A I], rounded up
        by a relative allowance.  Every column and slack is boxed, so it
        holds for any multipliers y; +inf if not finite."""
        p = self.problem
        lo, hi = self._wlo, self._whi
        red = cost - np.concatenate([y @ p.a, y])
        rl, rh = red * lo, red * hi
        bound = float(y @ p.rhs + np.maximum(rl, rh).sum())
        mag = np.maximum(np.abs(lo), np.abs(hi))
        bound += _CERT_REL * float(np.abs(y) @ np.abs(p.rhs) + np.abs(red) @ mag)
        return bound if np.isfinite(bound) else np.inf

    def _feasible(self, x, lo, hi) -> bool:
        """Whether x lies in its box and every row's activity in the row's
        box (its relation's, or the solve's), each within FEAS_TOL scaled by
        the row's right-hand side."""
        p = self.problem
        if (x < lo - FEAS_TOL).any() or (x > hi + FEAS_TOL).any():
            return False
        act = p.a @ x
        tol = FEAS_TOL * (1.0 + np.abs(p.rhs))
        return not ((act < self._act_lo - tol) | (act > self._act_hi + tol)).any()


def solve_lp(problem: LPProblem) -> LPSolution:
    """Solve one LP from scratch; deterministic for identical inputs."""
    return SimplexSolver(problem).solve()
