import itertools
import time

import numpy as np
import pytest

from lipcert import lp


def make_problem(c, a, rels, b, lo, hi):
    return lp.LPProblem(
        objective=np.asarray(c, float),
        a=np.asarray(a, float).reshape(len(rels), -1) if len(rels) else np.zeros((0, len(c))),
        relations=tuple(rels),
        rhs=np.asarray(b, float),
        lo=np.asarray(lo, float),
        hi=np.asarray(hi, float),
    )


def vertex_enumeration_max(problem, tol=1e-9):
    """Independent oracle: enumerate candidate vertices of the feasible box
    polytope by choosing n active constraints among rows (as equalities) and
    variable bounds, solve each square system, keep feasible points, maximize.

    Exponential; only for small instances.
    """
    n = problem.num_vars
    rows = [(problem.a[i], problem.rhs[i]) for i in range(problem.num_constraints)]
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        rows.append((e, problem.lo[j]))
        rows.append((e, problem.hi[j]))
    best = None
    for combo in itertools.combinations(range(len(rows)), n):
        a_sq = np.array([rows[i][0] for i in combo])
        b_sq = np.array([rows[i][1] for i in combo])
        try:
            x = np.linalg.solve(a_sq, b_sq)
        except np.linalg.LinAlgError:
            continue
        if np.any(x < problem.lo - tol) or np.any(x > problem.hi + tol):
            continue
        act = problem.a @ x if problem.num_constraints else np.zeros(0)
        ok = True
        for i, rel in enumerate(problem.relations):
            if rel == "<=" and act[i] > problem.rhs[i] + tol:
                ok = False
            elif rel == ">=" and act[i] < problem.rhs[i] - tol:
                ok = False
            elif rel == "=" and abs(act[i] - problem.rhs[i]) > tol:
                ok = False
        if not ok:
            continue
        val = problem.objective @ x
        if best is None or val > best:
            best = val
    return best


def highs_max(problem):
    """Independent oracle for larger instances: scipy's HiGHS, None when it
    finds the LP infeasible.  Skips the test without scipy."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    rel = np.array(problem.relations)
    sign = np.where(rel == ">=", -1.0, 1.0)
    ineq = rel != "="
    res = linprog(
        -problem.objective,
        A_ub=(sign[:, None] * problem.a)[ineq] if ineq.any() else None,
        b_ub=(sign * problem.rhs)[ineq] if ineq.any() else None,
        A_eq=problem.a[~ineq] if (~ineq).any() else None,
        b_eq=problem.rhs[~ineq] if (~ineq).any() else None,
        bounds=list(zip(problem.lo, problem.hi)),
        method="highs",
    )
    if res.status == 2:
        return None
    assert res.status == 0
    return -res.fun


def test_single_variable_cap():
    p = make_problem([1.0], [[1.0]], ["<="], [1.0], [0.0], [10.0])
    sol = lp.solve_lp(p)
    assert sol.status == lp.OPTIMAL
    assert sol.x[0] == pytest.approx(1.0, abs=1e-9)
    assert sol.objective_value == pytest.approx(1.0, abs=1e-9)


def test_degenerate_optimum_objective_unique():
    p = make_problem([1.0, 1.0], [[1.0, 1.0]], ["<="], [1.0], [0, 0], [1, 1])
    sol = lp.solve_lp(p)
    assert sol.status == lp.OPTIMAL
    assert sol.objective_value == pytest.approx(1.0, abs=1e-9)


def test_pure_box_no_constraints():
    p = make_problem([2.0, -3.0], np.zeros((0, 2)), [], [], [-1, -1], [2, 5])
    sol = lp.solve_lp(p)
    assert sol.status == lp.OPTIMAL
    assert sol.objective_value == pytest.approx(2 * 2 + -3 * -1, abs=1e-9)


def test_equality_row():
    p = make_problem([1.0, 0.0], [[1.0, 1.0]], ["="], [1.5], [0, 0], [1, 1])
    sol = lp.solve_lp(p)
    assert sol.status == lp.OPTIMAL
    assert sol.x[0] == pytest.approx(1.0, abs=1e-8)
    assert sol.x[1] == pytest.approx(0.5, abs=1e-8)


def test_infeasible_rows():
    p = make_problem([1.0], [[1.0], [1.0]], ["<=", ">="], [1.0, 2.0], [0.0], [5.0])
    sol = lp.solve_lp(p)
    assert sol.status == lp.INFEASIBLE


def test_infeasible_by_interval():
    # x <= -1 impossible for x in [0, 5]
    p = make_problem([1.0], [[1.0]], ["<="], [-1.0], [0.0], [5.0])
    sol = lp.solve_lp(p)
    assert sol.status == lp.INFEASIBLE


def test_infeasibility_just_past_the_tolerances_is_certified():
    # x >= d and x <= -d: once d > FEAS_TOL no x lies within FEAS_TOL of both
    # rows, and the certificate allows each row's tolerance once (counting
    # a row's slack bounds as well read NUMERICAL_FAILURE up to d = 2e-7)
    for d in (1.01 * lp.FEAS_TOL, 2 * lp.FEAS_TOL):
        p = make_problem([0.0], [[1.0], [1.0]], [">=", "<="], [d, -d], [-1.0], [1.0])
        assert lp.solve_lp(p).status == lp.INFEASIBLE


def test_negative_lower_bounds():
    p = make_problem([-1.0, 2.0], [[1.0, 1.0], [1.0, -1.0]], ["<=", ">="],
                     [1.0, -3.0], [-4, -4], [4, 4])
    sol = lp.solve_lp(p)
    oracle = vertex_enumeration_max(p)
    assert sol.status == lp.OPTIMAL
    assert sol.objective_value == pytest.approx(oracle, abs=1e-7)


def test_beale_cycling_example():
    # Beale's classic degenerate LP that cycles under naive Dantzig pricing;
    # optimum is 1/20 for the maximization form used here.
    c = [0.75, -150.0, 0.02, -6.0]
    a = [
        [0.25, -60.0, -1.0 / 25.0, 9.0],
        [0.5, -90.0, -1.0 / 50.0, 3.0],
        [0.0, 0.0, 1.0, 0.0],
    ]
    p = make_problem(c, a, ["<=", "<=", "<="], [0.0, 0.0, 1.0],
                     [0, 0, 0, 0], [1e4, 1e4, 1e4, 1e4])
    sol = lp.solve_lp(p)
    assert sol.status == lp.OPTIMAL
    assert sol.objective_value == pytest.approx(0.05, abs=1e-9)


def random_feasible_lp(rng, n_range=(2, 6), m_range=(1, 5)):
    """A random LP with mixed relations, kept feasible by an anchor point."""
    n = int(rng.integers(*n_range))
    m = int(rng.integers(*m_range))
    a = rng.normal(size=(m, n))
    lo = -rng.uniform(0.5, 2.0, size=n)
    hi = rng.uniform(0.5, 2.0, size=n)
    x0 = rng.uniform(lo, hi)
    rels, b = [], []
    for i in range(m):
        r = ["<=", ">=", "="][int(rng.integers(0, 3))]
        slack = float(rng.uniform(0.0, 1.0))
        v = float(a[i] @ x0)
        b.append(v + slack if r == "<=" else v - slack if r == ">=" else v)
        rels.append(r)
    return make_problem(rng.normal(size=n), a, rels, b, lo, hi)


def test_random_lps_match_vertex_enumeration():
    rng = np.random.Generator(np.random.Philox(key=12345))
    solved = 0
    for trial in range(50):
        p = random_feasible_lp(rng)
        sol = lp.solve_lp(p)
        oracle = vertex_enumeration_max(p)
        assert sol.status == lp.OPTIMAL
        assert oracle is not None
        assert sol.objective_value == pytest.approx(oracle, abs=1e-7)
        solved += 1
    assert solved == 50


def test_weak_duality_against_samples():
    rng = np.random.Generator(np.random.Philox(key=77))
    for trial in range(10):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, 6))
        a = rng.normal(size=(m, n))
        lo = np.full(n, -1.0)
        hi = np.full(n, 1.0)
        b = np.abs(a).sum(axis=1) * rng.uniform(0.3, 1.0, size=m)
        c = rng.normal(size=n)
        p = make_problem(c, a, ["<="] * m, b, lo, hi)
        sol = lp.solve_lp(p)
        assert sol.status == lp.OPTIMAL
        for _ in range(200):
            x = rng.uniform(lo, hi)
            if np.all(a @ x <= b + 1e-12):
                assert c @ x <= sol.objective_value + 1e-7


def test_determinism_same_bytes():
    rng = np.random.Generator(np.random.Philox(key=5))
    a = rng.normal(size=(6, 5))
    c = rng.normal(size=5)
    b = np.abs(a).sum(axis=1) * 0.5
    p = make_problem(c, a, ["<="] * 6, b, [-1] * 5, [1] * 5)
    s1 = lp.solve_lp(p)
    s2 = lp.solve_lp(p)
    assert s1.status == s2.status == lp.OPTIMAL
    assert s1.x.tobytes() == s2.x.tobytes()
    assert s1.objective_value == s2.objective_value
    assert s1.iterations == s2.iterations


def test_scipy_crosscheck_larger_instances():
    linprog = pytest.importorskip("scipy.optimize").linprog
    rng = np.random.Generator(np.random.Philox(key=99))
    for trial in range(10):
        n = int(rng.integers(8, 31))
        m = int(rng.integers(4, 16))
        a = rng.normal(size=(m, n))
        lo = np.full(n, -2.0)
        hi = np.full(n, 2.0)
        x0 = rng.uniform(lo / 2, hi / 2)
        b = a @ x0 + rng.uniform(0.1, 2.0, size=m)
        c = rng.normal(size=n)
        p = make_problem(c, a, ["<="] * m, b, lo, hi)
        sol = lp.solve_lp(p)
        ref = linprog(-c, A_ub=a, b_ub=b, bounds=list(zip(lo, hi)), method="highs")
        assert sol.status == lp.OPTIMAL
        assert ref.status == 0
        assert sol.objective_value == pytest.approx(-ref.fun, rel=1e-7, abs=1e-7)


def test_solver_reuse_with_changed_bounds():
    rng = np.random.Generator(np.random.Philox(key=31))
    a = rng.normal(size=(4, 6))
    c = rng.normal(size=6)
    b = np.abs(a).sum(axis=1)
    p = make_problem(c, a, ["<="] * 4, b, [-1] * 6, [1] * 6)
    solver = lp.SimplexSolver(p)
    base = solver.solve()
    assert base.status == lp.OPTIMAL
    lo = p.lo.copy()
    hi = p.hi.copy()
    lo[0] = hi[0] = 0.5  # pin one variable, warm solve
    warm = solver.solve(lo=lo, hi=hi)
    cold = lp.solve_lp(make_problem(c, a, ["<="] * 4, b, lo, hi))
    assert warm.status == cold.status == lp.OPTIMAL
    assert warm.objective_value == pytest.approx(cold.objective_value, abs=1e-8)
    oracle = vertex_enumeration_max(make_problem(c, a, ["<="] * 4, b, lo, hi))
    assert warm.objective_value == pytest.approx(oracle, abs=1e-8)


# -- dual re-solves from a basis snapshot ------------------------------------


def child_bounds(rng, p):
    """Tighten some bounds of p and pin others, as a branch-and-bound child."""
    lo, hi = p.lo.copy(), p.hi.copy()
    for j in range(p.num_vars):
        u = rng.uniform()
        if u < 0.3:
            lo[j] = hi[j] = rng.uniform(p.lo[j], p.hi[j])
        elif u < 0.6:
            lo[j], hi[j] = np.sort(rng.uniform(p.lo[j], p.hi[j], size=2))
    return lo, hi


def with_bounds(p, lo, hi):
    return make_problem(p.objective, p.a, p.relations, p.rhs, lo, hi)


def count_cold_starts(monkeypatch, solver):
    """Counts the solver's cold starts from here on."""
    calls = []
    original = solver._cold_start

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(solver, "_cold_start", counted)
    return calls


def test_dual_resolve_matches_cold_and_vertex_enumeration(monkeypatch):
    rng = np.random.Generator(np.random.Philox(key=2024))
    statuses = set()
    for trial in range(40):
        p = random_feasible_lp(rng)
        solver = lp.SimplexSolver(p)
        root = solver.solve()
        assert root.status == lp.OPTIMAL and root.basis is not None
        cold_starts = count_cold_starts(monkeypatch, solver)
        for _ in range(3):  # siblings share the parent's snapshot
            lo, hi = child_bounds(rng, p)
            sol = solver.solve(lo=lo, hi=hi, basis=root.basis)
            cold = lp.solve_lp(with_bounds(p, lo, hi))
            oracle = vertex_enumeration_max(with_bounds(p, lo, hi))
            assert sol.status == cold.status
            assert (oracle is None) == (sol.status == lp.INFEASIBLE)
            if sol.status == lp.OPTIMAL:
                assert sol.objective_value == pytest.approx(cold.objective_value, abs=1e-8)
                assert sol.objective_value == pytest.approx(oracle, abs=1e-8)
            statuses.add(sol.status)
        assert not cold_starts
    assert statuses == {lp.OPTIMAL, lp.INFEASIBLE}


def test_dual_resolve_chain_of_snapshots():
    # each solve starts from the previous child's basis, as deeper nodes do
    rng = np.random.Generator(np.random.Philox(key=7))
    p = random_feasible_lp(rng, n_range=(12, 13), m_range=(8, 9))
    solver = lp.SimplexSolver(p)
    sol = solver.solve()
    lo, hi = p.lo.copy(), p.hi.copy()
    for j in rng.permutation(p.num_vars)[:6]:
        trial_lo, trial_hi = lo.copy(), hi.copy()
        trial_lo[j] = trial_hi[j] = rng.uniform(lo[j], hi[j])
        child = solver.solve(lo=trial_lo, hi=trial_hi, basis=sol.basis)
        cold = lp.solve_lp(with_bounds(p, trial_lo, trial_hi))
        ref = highs_max(with_bounds(p, trial_lo, trial_hi))
        assert child.status == cold.status
        assert (ref is None) == (child.status == lp.INFEASIBLE)
        if child.status == lp.OPTIMAL:
            assert child.objective_value == pytest.approx(cold.objective_value, abs=1e-8)
            assert child.objective_value == pytest.approx(ref, rel=1e-7, abs=1e-7)
            sol, lo, hi = child, trial_lo, trial_hi


def pinned_pair():
    """max x + y s.t. x + y <= 1 over [0, 1]^2, and its optimal basis."""
    p = make_problem([1.0, 1.0], [[1.0, 1.0]], ["<="], [1.0], [0, 0], [1, 1])
    solver = lp.SimplexSolver(p)
    root = solver.solve()
    assert root.status == lp.OPTIMAL
    return p, solver, root


def test_infeasible_child_certified_without_cold_solve(monkeypatch):
    p, solver, root = pinned_pair()
    cold_starts = count_cold_starts(monkeypatch, solver)
    sol = solver.solve(lo=[1.0, 0.5], hi=[1.0, 1.0], basis=root.basis)
    assert sol.status == lp.INFEASIBLE
    assert not cold_starts


def test_uncertified_infeasibility_is_a_failure(monkeypatch):
    # an infeasibility the Farkas certificate cannot confirm is never reported
    # as INFEASIBLE: the warm solve makes one cold start, which fails too
    p, solver, root = pinned_pair()
    monkeypatch.setattr(lp.SimplexSolver, "_certified_infeasible", lambda self, r: False)
    cold_starts = count_cold_starts(monkeypatch, solver)
    sol = solver.solve(lo=[1.0, 0.5], hi=[1.0, 1.0], basis=root.basis)
    assert sol.status == lp.NUMERICAL_FAILURE
    assert len(cold_starts) == 1
    # random children: feasible ones are still solved, infeasible ones fail
    rng = np.random.Generator(np.random.Philox(key=11))
    statuses = set()
    for _ in range(20):
        q = random_feasible_lp(rng)
        qsolver = lp.SimplexSolver(q)
        qroot = qsolver.solve()
        lo, hi = child_bounds(rng, q)
        got = qsolver.solve(lo=lo, hi=hi, basis=qroot.basis)
        oracle = vertex_enumeration_max(with_bounds(q, lo, hi))
        if oracle is None:
            assert got.status == lp.NUMERICAL_FAILURE
        else:
            assert got.status == lp.OPTIMAL
            assert got.objective_value == pytest.approx(oracle, abs=1e-8)
        statuses.add(got.status)
    assert statuses == {lp.OPTIMAL, lp.NUMERICAL_FAILURE}


def test_unusable_snapshot_falls_back_to_cold_start(monkeypatch):
    # column 2 duplicates column 0, so a basis holding both is singular
    p = make_problem([1.0, 2.0, 1.0], [[1.0, 1.0, 1.0], [2.0, -1.0, 2.0]], ["<=", "<="],
                     [2.0, 1.0], [0, 0, 0], [1, 1, 1])
    solver = lp.SimplexSolver(p)
    root = solver.solve()
    lo, hi = p.lo.copy(), p.hi.copy()
    hi[1] = 0.5
    expected = lp.solve_lp(with_bounds(p, lo, hi))
    n_total = p.num_vars + p.num_constraints
    garbage = [
        lp.Basis(np.array([0, 2], dtype=np.int32), np.zeros(n_total, dtype=bool)),  # singular
        lp.Basis(np.array([1, 1], dtype=np.int32), np.zeros(n_total, dtype=bool)),  # repeated
        lp.Basis(np.array([0, 9], dtype=np.int32), np.zeros(n_total, dtype=bool)),  # out of range
        lp.Basis(np.array([0], dtype=np.int32), np.zeros(n_total, dtype=bool)),  # wrong length
        lp.Basis(root.basis.basic, np.zeros(2, dtype=bool)),  # wrong length
    ]
    for basis in garbage:
        cold_starts = count_cold_starts(monkeypatch, solver)
        sol = solver.solve(lo=lo, hi=hi, basis=basis)
        assert cold_starts
        assert sol.status == expected.status == lp.OPTIMAL
        assert sol.objective_value == pytest.approx(expected.objective_value, abs=1e-9)


def test_dual_infeasible_snapshot_repaired_by_bound_flips(monkeypatch):
    # the slack basis with every column at its lower bound is nonsingular, but
    # the positive costs make it far from dual feasible: like any well-formed
    # start it is repaired by bound flips, not replaced by a cold start
    p = make_problem([1.0, 2.0, 1.0], [[1.0, 1.0, 1.0], [2.0, -1.0, 2.0]], ["<=", "<="],
                     [2.0, 1.0], [0, 0, 0], [1, 1, 1])
    solver = lp.SimplexSolver(p)
    lo, hi = p.lo.copy(), p.hi.copy()
    hi[1] = 0.5
    optimum = vertex_enumeration_max(with_bounds(p, lo, hi))
    basis = lp.Basis(np.array([3, 4], dtype=np.int32), np.zeros(5, dtype=bool))
    cold_starts = count_cold_starts(monkeypatch, solver)
    sol = solver.solve(lo=lo, hi=hi, basis=basis)
    assert not cold_starts
    assert sol.status == lp.OPTIMAL
    assert sol.objective_value == pytest.approx(optimum, abs=1e-9)


def test_cutoff_only_below_true_optimum():
    # from the parent's snapshot and from a cold start alike
    rng = np.random.Generator(np.random.Philox(key=99))
    cut = 0
    for trial in range(40):
        p = random_feasible_lp(rng)
        solver = lp.SimplexSolver(p)
        root = solver.solve()
        lo, hi = child_bounds(rng, p)
        cold = lp.solve_lp(with_bounds(p, lo, hi))
        if cold.status != lp.OPTIMAL:
            continue
        opt = cold.objective_value
        assert opt == pytest.approx(vertex_enumeration_max(with_bounds(p, lo, hi)), abs=1e-8)
        for delta, start in itertools.product((-1.0, -1e-3, 1e-3, 1.0), (root.basis, None)):
            sol = solver.solve(lo=lo, hi=hi, basis=start, cutoff=opt + delta)
            if delta > 0:  # at the latest, the optimal basis proves it
                assert sol.status == lp.CUTOFF
                # the reported value is a valid upper bound below the cutoff
                assert opt - 1e-9 <= sol.objective_value < opt + delta
                cut += 1
            else:
                assert sol.status == lp.OPTIMAL
                assert sol.objective_value == pytest.approx(opt, abs=1e-8)
    assert cut > 0


def test_dual_bound_certifies_the_optimum():
    # the weak-duality bound of the final basis, recomputed on the original
    # data, is what callers report: never below the optimum, and tight
    rng = np.random.Generator(np.random.Philox(key=404))
    for trial in range(50):
        p = random_feasible_lp(rng)
        solver = lp.SimplexSolver(p)
        sol = solver.solve()
        oracle = vertex_enumeration_max(p)
        assert sol.status == lp.OPTIMAL
        bound = solver.dual_bound()
        assert bound >= oracle
        assert bound - oracle <= 1e-9 * max(1.0, abs(oracle))
    # multipliers that are not finite weaken the bound to +inf, never NaN
    solver._multipliers = lambda w: np.full(p.num_constraints, np.nan)
    assert solver.dual_bound() == np.inf


def test_snapshot_reused_under_another_objective(monkeypatch):
    # one LP, many objectives (root bound tightening): each solve starts from
    # the previous optimal basis, whose wrong-signed reduced costs are
    # repaired by bound flips rather than a cold start
    rng = np.random.Generator(np.random.Philox(key=505))
    for trial in range(20):
        p = random_feasible_lp(rng)
        solver = lp.SimplexSolver(p)
        basis = solver.solve().basis
        cold_starts = count_cold_starts(monkeypatch, solver)
        for _ in range(4):
            c = rng.normal(size=p.num_vars)
            sol = solver.solve(objective=c, basis=basis)
            q = make_problem(c, p.a, p.relations, p.rhs, p.lo, p.hi)
            assert sol.status == lp.OPTIMAL
            assert sol.objective_value == pytest.approx(vertex_enumeration_max(q), abs=1e-8)
            basis = sol.basis
        assert not cold_starts


# -- equality rows and condensed tableau -------------------------------------


def assert_answer(p, lo, hi, sol, solver, oracle):
    """``sol`` solves p over [lo, hi] with the optimum ``oracle`` (None when
    infeasible), its x satisfies the original rows, and an OPTIMAL answer's
    certified bound is tight."""
    if oracle is None:
        assert sol.status == lp.INFEASIBLE
        return
    assert sol.status == lp.OPTIMAL
    assert sol.objective_value == pytest.approx(oracle, abs=1e-8)
    assert sol.x.shape == (p.num_vars,)
    assert np.all(sol.x >= np.asarray(lo) - 1e-7) and np.all(sol.x <= np.asarray(hi) + 1e-7)
    act = p.a @ sol.x
    rel = np.array(p.relations)
    assert np.all(act[rel == "<="] <= p.rhs[rel == "<="] + 1e-7)
    assert np.all(act[rel == ">="] >= p.rhs[rel == ">="] - 1e-7)
    assert np.allclose(act[rel == "="], p.rhs[rel == "="], atol=1e-7)
    bound = solver.dual_bound()
    assert oracle - 1e-9 <= bound <= oracle + 1e-8


def check_cold_and_warm(p, boxes):
    """Solves p, then each (lo, hi) of ``boxes`` cold and warm from p's
    optimal basis; every answer must match the oracle, and every variable
    stays a column.  Returns the statuses seen."""
    solver = lp.SimplexSolver(p)
    assert solver.n_struct == p.num_vars
    root = solver.solve()
    assert_answer(p, p.lo, p.hi, root, solver, vertex_enumeration_max(p))
    statuses = {root.status}
    for lo, hi in boxes:
        oracle = vertex_enumeration_max(with_bounds(p, lo, hi))
        for start in (None, root.basis):
            sol = solver.solve(lo=lo, hi=hi, basis=start)
            assert_answer(p, lo, hi, sol, solver, oracle)
            statuses.add(sol.status)
    return statuses


def test_presolve_chained_equalities():
    # chained = rows: row 2 shares x0 with row 1, row 3 mentions x0 and x1;
    # each is a row with a point box
    p = make_problem(
        [0.5, -1.0, 2.0, 1.0, -0.5],
        [[1.0, -1.0, -1.0, 0.0, 0.0],
         [-2.0, 0.0, 0.0, 1.0, 0.0],
         [1.0, 1.0, 0.0, 0.0, 1.0],
         [0.0, 1.0, 0.0, 0.0, 1.0],
         [0.0, 0.0, 1.0, -1.0, 0.0]],
        ["=", "=", "=", "<=", ">="], [0.0, 0.5, 1.0, 1.2, -2.0],
        [-1, -1, -1, -2, -2], [1, 1, 1, 2, 2],
    )
    rng = np.random.Generator(np.random.Philox(key=808))
    boxes = [child_bounds(rng, p) for _ in range(6)]
    assert check_cold_and_warm(p, boxes) == {lp.OPTIMAL, lp.INFEASIBLE}
    # random bands of overlapping equalities, each row sharing variables
    # with the rows before it
    for trial in range(6):
        n, k = 5, 3
        a = np.zeros((k + 1, n))
        for i in range(k):
            a[i, i:i + 3] = rng.normal(size=3)
        a[k] = rng.normal(size=n)
        lo, hi = -rng.uniform(0.5, 2.0, size=n), rng.uniform(0.5, 2.0, size=n)
        x0 = rng.uniform(lo, hi)
        b = a @ x0 + np.r_[np.zeros(k), rng.uniform(0.0, 1.0)]
        q = make_problem(rng.normal(size=n), a, ["="] * k + ["<="], b, lo, hi)
        check_cold_and_warm(q, [child_bounds(rng, q) for _ in range(3)])


def test_presolve_redundant_equality():
    # the second row is twice the first: a redundant equality row, whose
    # fixed slack the basis may hold at 0
    p = make_problem([1.0, 2.0, -1.0], [[1.0, 1.0, 0.0], [2.0, 2.0, 0.0], [1.0, 0.0, -1.0]],
                     ["=", "=", "<="], [1.0, 2.0, 0.5], [0, 0, 0], [1, 1, 1])
    boxes = [([0.0, 0.0, 0.0], [0.3, 1.0, 1.0]), ([0.6, 0.0, 0.0], [1.0, 1.0, 0.05]),
             ([0.0, 0.0, 0.0], [0.4, 0.5, 1.0])]
    assert check_cold_and_warm(p, boxes) == {lp.OPTIMAL, lp.INFEASIBLE}


def test_presolve_inconsistent_equality(monkeypatch):
    # the second row contradicts the first: INFEASIBLE, and only with a
    # certificate checked on the rows
    p = make_problem([1.0, 2.0, -1.0], [[1.0, 1.0, 0.0], [2.0, 2.0, 0.0], [1.0, 0.0, -1.0]],
                     ["=", "=", "<="], [1.0, 2.5, 0.5], [0, 0, 0], [1, 1, 1])
    assert vertex_enumeration_max(p) is None
    assert highs_max(p) is None
    solver = lp.SimplexSolver(p)
    assert solver.solve().status == lp.INFEASIBLE
    monkeypatch.setattr(lp.SimplexSolver, "_certified_infeasible", lambda self, r: False)
    assert lp.SimplexSolver(p).solve().status == lp.NUMERICAL_FAILURE


def test_presolve_single_variable_rows():
    # y = 0 rows, as a switched-off copy makes them, beside a copy y2 = x0
    p = make_problem(
        [1.0, -1.0, 3.0, 1.0, 0.5],
        [[0.0, 0.0, 1.0, 0.0, 0.0],
         [0.0, 0.0, 0.0, 1.0, 0.0],
         [-1.0, 0.0, 0.0, 0.0, 1.0],
         [1.0, 1.0, 1.0, 1.0, 0.0],
         [1.0, -1.0, 0.0, 0.0, 1.0]],
        ["=", "=", "=", "<=", ">="], [0.0, 0.0, 0.0, 1.0, -0.5],
        [-1, -1, -1, 0, -1], [1, 1, 1, 2, 1],
    )
    boxes = [
        ([-1, -1, 0.2, 0, -1], [1, 1, 1, 2, 1]),  # y = 0 outside the box: infeasible
        ([-1, -1, -1, 0, -1], [0.5, 1, 0.0, 1, 1]),
        ([0.3, -1, -1, 0, 0.3], [1, 0.2, 1, 2, 1]),
    ]
    assert check_cold_and_warm(p, boxes) == {lp.OPTIMAL, lp.INFEASIBLE}


@pytest.mark.parametrize("coef", [3.0, -3.0])
def test_presolve_objective_on_an_eliminated_variable(coef):
    # only x0 carries the objective, and x0 has the largest coefficient of
    # its = row, of either sign
    p = make_problem([1.0, 0.0, 0.0], [[coef, 1.0, -2.0], [0.0, 1.0, 1.0]],
                     ["=", "<="], [0.5, 1.0], [-1, 0, 0], [1, 1, 1])
    boxes = [([-1, 0, 0], [0.2, 1, 1]), ([-1, 0.5, 0], [1, 1, 0.1]), ([0.9, 0, 0], [1, 1, 1])]
    assert check_cold_and_warm(p, boxes) == {lp.OPTIMAL, lp.INFEASIBLE}


def test_warm_resolve_changes_eliminated_bounds(monkeypatch):
    # bounds of the variables that = rows mention change, and the warm
    # basis re-optimizes without a cold start
    rng = np.random.Generator(np.random.Philox(key=909))
    statuses = set()
    for trial in range(30):
        p = random_feasible_lp(rng)
        solver = lp.SimplexSolver(p)
        equality = np.array(p.relations) == "="
        eliminated = np.flatnonzero(np.abs(p.a[equality]).sum(axis=0))
        if eliminated.size == 0:
            continue
        root = solver.solve()
        assert_answer(p, p.lo, p.hi, root, solver, vertex_enumeration_max(p))
        cold_starts = count_cold_starts(monkeypatch, solver)
        for _ in range(3):
            lo, hi = p.lo.copy(), p.hi.copy()
            for j in eliminated:
                lo[j], hi[j] = np.sort(rng.uniform(p.lo[j], p.hi[j], size=2))
            sol = solver.solve(lo=lo, hi=hi, basis=root.basis)
            assert_answer(p, lo, hi, sol, solver, vertex_enumeration_max(with_bounds(p, lo, hi)))
            statuses.add(sol.status)
        assert not cold_starts
    assert statuses == {lp.OPTIMAL, lp.INFEASIBLE}


def test_perturbed_presolve_never_overstates():
    # an error in the tableau's data may cost a bound its tightness or an
    # answer its status, never its validity: bounds and infeasibility are
    # checked on the problem's rows.  Each child is solved over its box and
    # pinned at a feasible point, which the perturbed rows miss
    rng = np.random.Generator(np.random.Philox(key=1212))
    checked = 0
    for trial in range(60):
        p = random_feasible_lp(rng, n_range=(3, 6), m_range=(2, 5))
        solver = lp.SimplexSolver(p)
        root = solver.solve()
        assert root.status == lp.OPTIMAL
        lo, hi = child_bounds(rng, p)
        ref = lp.solve_lp(with_bounds(p, lo, hi))
        if ref.status != lp.OPTIMAL:
            continue
        solver._a = p.a + 1e-3 * rng.normal(size=p.a.shape)
        solver._b = p.rhs + 1e-3 * rng.normal(size=p.rhs.shape)
        solver._live = None  # warm starts factorize the perturbed data
        pinned = np.clip(ref.x, lo, hi)
        for lo, hi in ((lo, hi), (pinned, pinned)):
            opt = vertex_enumeration_max(with_bounds(p, lo, hi))
            if opt is None:
                continue
            for cutoff, start in itertools.product((opt - 0.1, opt - 1e-4, opt + 1e-4, np.inf),
                                                   (None, root.basis)):
                sol = solver.solve(lo=lo, hi=hi, basis=start, cutoff=cutoff)
                assert sol.status != lp.INFEASIBLE
                if sol.status == lp.OPTIMAL:
                    assert solver.dual_bound() >= opt - 1e-8
                    checked += 1
                elif sol.status == lp.CUTOFF:
                    assert sol.objective_value >= opt - 1e-8
                    checked += 1
    assert checked > 0


# -- kept factorizations and ranged rows -------------------------------------


def test_kept_factorization_equals_a_fresh_one():
    # a snapshot restored once keeps its factorized tableau; the pivots of
    # later solves leave that copy as a fresh factorization would make it
    rng = np.random.Generator(np.random.Philox(key=1717))
    for trial in range(20):
        p = random_feasible_lp(rng, n_range=(4, 8), m_range=(3, 7))
        solver = lp.SimplexSolver(p)
        root = solver.solve()
        solver.solve()  # the live tableau leaves root's basis
        for _ in range(3):
            lo, hi = child_bounds(rng, p)
            solver.solve(lo=lo, hi=hi, basis=root.basis)
        count = solver.refactorizations
        assert solver._restore(root.basis)
        assert solver.refactorizations == count  # the kept copy, no factorization
        k = solver._k
        kept = solver._tab[:k].copy()
        assert solver._refactorize()
        assert solver._k == k and np.array_equal(solver._tab[:k], kept)


def test_restoring_a_live_basis_refactorizes_nothing(monkeypatch):
    # each re-solve from the previous answer's basis pivots on in place, and
    # backtracking to a basis started from before reloads its kept copy
    rng = np.random.Generator(np.random.Philox(key=2121))
    for trial in range(20):
        p = random_feasible_lp(rng)
        solver = lp.SimplexSolver(p)
        root = solver.solve()
        path = [root]
        for _ in range(3):
            lo, hi = child_bounds(rng, p)
            sol = solver.solve(lo=lo, hi=hi, basis=path[-1].basis)
            assert sol.status == lp.solve_lp(with_bounds(p, lo, hi)).status
            if sol.status == lp.OPTIMAL:
                path.append(sol)
        for back in reversed(path[:-1]):
            lo, hi = child_bounds(rng, p)
            solver.solve(lo=lo, hi=hi, basis=back.basis)
        assert (solver.cold_starts, solver.refactorizations) == (1, 0)
    # a tableau past _REFRESH_EVERY pivots since its factorization is
    # refactorized when restored, even in place
    monkeypatch.setattr(lp, "_REFRESH_EVERY", 1)
    p, solver, root = pinned_pair()
    assert root.iterations > 0
    solver.solve(basis=root.basis)
    assert solver.refactorizations == 1


def random_ranged_lp(rng):
    """A random LP over rows a.x with activity boxes [row_lo, row_hi] around
    an anchor point's activities, some boxes moved off it (often making the
    LP infeasible), and the same LP with each row written twice (>= row_lo
    and <= row_hi)."""
    n, m = int(rng.integers(2, 6)), int(rng.integers(1, 5))
    a = rng.normal(size=(m, n))
    lo, hi = -rng.uniform(0.5, 2.0, size=n), rng.uniform(0.5, 2.0, size=n)
    act = a @ rng.uniform(lo, hi)
    row_lo = act - rng.uniform(0.0, 1.0, size=m)
    row_hi = act + rng.uniform(0.0, 1.0, size=m)
    shift = np.where(rng.uniform(size=m) < 0.3, rng.normal(scale=3.0, size=m), 0.0)
    row_lo, row_hi = row_lo + shift, np.maximum(row_hi + shift, row_lo + shift)
    c = rng.normal(size=n)
    ranged = make_problem(c, a, [">="] * m, rng.normal(size=m), lo, hi)
    two = make_problem(c, np.vstack([a, a]), [">="] * m + ["<="] * m,
                       np.concatenate([row_lo, row_hi]), lo, hi)
    return ranged, row_lo, row_hi, two


def test_ranged_rows_match_two_inequalities(monkeypatch):
    # a row box is the pair of inequalities it stands for: same status and
    # optimum, a tight certified bound, and INFEASIBLE only with a Farkas
    # certificate checked on the rows and their boxes
    certified = []
    original = lp.SimplexSolver._certified_infeasible

    def recorded(self, r):
        certified.append(original(self, r))
        return certified[-1]

    monkeypatch.setattr(lp.SimplexSolver, "_certified_infeasible", recorded)
    rng = np.random.Generator(np.random.Philox(key=3131))
    statuses = set()
    for trial in range(60):
        ranged, row_lo, row_hi, two = random_ranged_lp(rng)
        oracle = vertex_enumeration_max(two)
        solver = lp.SimplexSolver(ranged)
        certified.clear()
        sol = solver.solve(row_lo=row_lo, row_hi=row_hi)
        statuses.add(sol.status)
        if oracle is None:
            assert sol.status == lp.INFEASIBLE and certified[-1]
            continue
        assert_answer(two, two.lo, two.hi, sol, solver, oracle)
        # a warm re-solve under a moved row box
        lo2, hi2 = row_lo + rng.normal(scale=0.3, size=row_lo.size), row_hi.copy()
        hi2 = np.maximum(hi2, lo2)
        moved = make_problem(two.objective, two.a, two.relations,
                             np.concatenate([lo2, hi2]), two.lo, two.hi)
        certified.clear()
        warm = solver.solve(row_lo=lo2, row_hi=hi2, basis=sol.basis)
        statuses.add(warm.status)
        expected = vertex_enumeration_max(moved)
        if expected is None:
            assert warm.status == lp.INFEASIBLE and certified[-1]
        else:
            assert_answer(moved, moved.lo, moved.hi, warm, solver, expected)
    assert statuses == {lp.OPTIMAL, lp.INFEASIBLE}


def test_row_boxes_on_an_lp_with_equality_rows():
    # row boxes replace the relations of an LP with = rows, warm or cold; an
    # infinite side stands for the row's interval range, and a point box is
    # an = row
    p = make_problem([1.0, 1.0], [[1.0, 1.0], [1.0, -1.0]], ["=", "<="], [1.0, 0.5],
                     [0, 0], [1, 1])
    solver = lp.SimplexSolver(p)
    root = solver.solve()
    assert root.status == lp.OPTIMAL and root.objective_value == pytest.approx(1.0)
    cases = [
        (([0.2, -np.inf], [1.6, 0.5]), 1.6),
        (([0.0, -0.2], [1.0, 0.2]), 1.0),
        (([-np.inf, 0.4], [np.inf, np.inf]), 1.6),
        (([1.5, 0.5], [1.5, 0.5]), 1.5),
        (([0.0, 0.6], [0.5, 1.0]), None),
    ]
    for (row_lo, row_hi), expected in cases:
        finite_lo = np.where(np.isfinite(row_lo), row_lo, -10.0)
        finite_hi = np.where(np.isfinite(row_hi), row_hi, 10.0)
        two = make_problem(p.objective, np.vstack([p.a, p.a]), [">="] * 2 + ["<="] * 2,
                           np.concatenate([finite_lo, finite_hi]), p.lo, p.hi)
        assert vertex_enumeration_max(two) == (None if expected is None
                                              else pytest.approx(expected))
        for start in (None, root.basis):
            sol = solver.solve(row_lo=row_lo, row_hi=row_hi, basis=start)
            if expected is None:
                assert sol.status == lp.INFEASIBLE
            else:
                assert_answer(two, two.lo, two.hi, sol, solver, expected)
    # one side alone keeps the other side's relation
    sol = solver.solve(row_lo=[0.5, 0.3])
    assert sol.status == lp.OPTIMAL and sol.objective_value == pytest.approx(1.0)
    assert 0.3 - 1e-9 <= sol.x[0] - sol.x[1] <= 0.5 + 1e-9
    assert solver.solve(row_hi=[0.8, 0.5]).status == lp.INFEASIBLE  # = row at 1


# -- the reduced tableau: T_K and the derived basic-slack rows ------------------


def reference_state(solver):
    """B^-1 N (by tableau position), B^-1 b and B^-1 from the rows at the
    solver's basis, factorized in full as a revised simplex would."""
    m = solver.n_total - solver.n_struct
    full = np.hstack([solver._a, np.eye(m)])
    binv = np.linalg.inv(full[:, solver._basis])
    return binv @ full[:, solver._nb], binv @ solver._b, binv


def check_reduced_state(solver, rng):
    """Every row, value and weight the solver derives equals the reference's;
    T_K holds exactly the rows whose basic variable is structural."""
    n, m = solver.n_struct, solver.n_total - solver.n_struct
    tab, beta, binv = reference_state(solver)
    scale = 1e-8 * max(1.0, np.abs(tab).max(initial=0.0), np.abs(beta).max(initial=0.0))
    k = solver._k
    assert k == np.count_nonzero(solver._basis < n)
    assert np.array_equal(np.sort(solver._krow[:k]), np.flatnonzero(solver._basis < n))
    assert np.all(solver._nb[n - k:] >= n) and np.all(solver._nb[:n - k] < n)
    for r in range(m):
        row = solver._tableau_row(r)
        assert np.allclose(row[:n], tab[r], atol=scale)
        assert np.isclose(row[n], beta[r], atol=scale)
    for pos in range(n):
        alpha, alpha_k = solver._column(pos)
        assert np.allclose(alpha, tab[:, pos], atol=scale)
        assert np.allclose(alpha_k, tab[solver._krow[:k], pos], atol=scale)
    assert np.allclose(solver._edge_weights(np.arange(m)), (binv * binv).sum(axis=1),
                       rtol=1e-8, atol=scale)
    xn = solver._nonbasic_values()
    assert np.allclose(solver._basic_values(), beta - tab @ xn, atol=scale)
    assert np.allclose(solver._reduced_costs(), solver._nb_cost - solver._b_cost @ tab,
                       atol=scale)
    w = rng.normal(size=m)
    assert np.allclose(solver._multipliers(w), w @ binv, atol=scale)


def checked_pivots(monkeypatch, rng):
    """Checks the reduced state after every pivot from here on; returns the
    pivot cases seen as (leaving is a slack, entering is a slack) pairs."""
    cases = []
    original = lp.SimplexSolver._pivot

    def checked(self, r, pos, d, row, alpha_k):
        n = self.n_struct
        cases.append((bool(self._nb[pos] >= n), bool(self._basis[r] >= n)))
        original(self, r, pos, d, row, alpha_k)
        check_reduced_state(self, rng)

    monkeypatch.setattr(lp.SimplexSolver, "_pivot", checked)
    return cases


def test_reduced_tableau_matches_a_full_factorization(monkeypatch):
    # along every pivot of cold and warm solves, with equality rows
    # and with row boxes, and at random bases: the derived basic-slack rows,
    # values and steepest-edge weights are the full tableau's, and T_K holds
    # one row per basic structural
    rng = np.random.Generator(np.random.Philox(key=4242))
    cases = checked_pivots(monkeypatch, rng)
    equalities = 0
    for trial in range(30):
        p = random_feasible_lp(rng, n_range=(2, 7), m_range=(1, 7))
        solver = lp.SimplexSolver(p)
        equalities += "=" in p.relations
        root = solver.solve()
        assert root.status == lp.OPTIMAL
        for _ in range(2):
            lo, hi = child_bounds(rng, p)
            sol = solver.solve(lo=lo, hi=hi, basis=root.basis)
            assert sol.status == lp.solve_lp(with_bounds(p, lo, hi)).status
        ranged, row_lo, row_hi, _ = random_ranged_lp(rng)
        ranged_solver = lp.SimplexSolver(ranged)
        sol = ranged_solver.solve(row_lo=row_lo, row_hi=row_hi)
        if sol.status == lp.OPTIMAL:
            ranged_solver.solve(row_lo=row_lo - 0.3, row_hi=row_hi - 0.3, basis=sol.basis)
        # a random nonsingular basis, factorized afresh
        m = solver.n_total - solver.n_struct
        for _ in range(5):
            basic = rng.choice(solver.n_total, size=m, replace=False).astype(np.int32)
            full = np.hstack([solver._a, np.eye(m)])
            if abs(np.linalg.det(full[:, basic])) < 1e-6:
                continue
            at_upper = rng.uniform(size=solver.n_total) < 0.5
            assert solver._restore(lp.Basis(basic, at_upper))
            solver._load_positions()
            check_reduced_state(solver, rng)
    assert equalities > 0
    # every pivot case: structural or slack, leaving and entering
    assert set(cases) == {(False, False), (False, True), (True, False), (True, True)}


def test_farkas_rows_of_basic_slacks(monkeypatch):
    # an infeasibility found on a basic slack's row, whose row of B^-1 the
    # solver derives, is certified with that row's multipliers
    rng = np.random.Generator(np.random.Philox(key=5353))
    seen = []
    original = lp.SimplexSolver._certified_infeasible

    def recorded(self, r):
        binv = reference_state(self)[2]
        unit = np.zeros(binv.shape[0])
        unit[r] = 1.0
        assert np.allclose(self._multipliers(unit), binv[r], atol=1e-8)
        certified = original(self, r)
        seen.append((bool(self._basis[r] >= self.n_struct), certified))
        return certified

    monkeypatch.setattr(lp.SimplexSolver, "_certified_infeasible", recorded)
    for trial in range(60):
        ranged, row_lo, row_hi, two = random_ranged_lp(rng)
        sol = lp.SimplexSolver(ranged).solve(row_lo=row_lo, row_hi=row_hi)
        assert (sol.status == lp.INFEASIBLE) == (vertex_enumeration_max(two) is None)
        p = random_feasible_lp(rng)
        solver = lp.SimplexSolver(p)
        root = solver.solve()
        lo, hi = child_bounds(rng, p)
        sol = solver.solve(lo=lo, hi=hi, basis=root.basis)
        assert (sol.status == lp.INFEASIBLE) == (vertex_enumeration_max(with_bounds(p, lo, hi))
                                                 is None)
    assert (True, True) in seen and (False, True) in seen


def test_snapshot_with_new_rows_keeps_its_block():
    # new rows with basic slacks leave F and K as they were: the larger LP's
    # T_K is the smaller one's, and its warm answer is the cold one's
    rng = np.random.Generator(np.random.Philox(key=6464))
    for trial in range(20):
        ranged, row_lo, row_hi, _ = random_ranged_lp(rng)
        solver = lp.SimplexSolver(ranged)
        sol = solver.solve(row_lo=row_lo, row_hi=row_hi)
        if sol.status != lp.OPTIMAL:
            continue
        assert solver._restore(sol.basis) and solver._refactorize()
        k = solver._k
        count = int(rng.integers(1, 4))
        a = np.vstack([ranged.a, rng.normal(size=(count, ranged.num_vars))])
        act = a[-count:] @ sol.x
        lo2 = np.concatenate([row_lo, act - rng.uniform(0.0, 1.0, size=count)])
        hi2 = np.concatenate([row_hi, act + rng.uniform(-0.5, 1.0, size=count)])
        hi2 = np.maximum(hi2, lo2)
        bigger = make_problem(ranged.objective, a, [">="] * a.shape[0], np.zeros(a.shape[0]),
                              ranged.lo, ranged.hi)
        big = lp.SimplexSolver(bigger)
        extended = sol.basis.with_new_rows(count)
        assert big._restore(extended)
        assert big._k == k
        by_id = np.argsort(big._nb), np.argsort(solver._nb)
        assert np.array_equal(big._nb[by_id[0]], solver._nb[by_id[1]])
        assert np.allclose(big._tab[:k, by_id[0]], solver._tab[:k, by_id[1]], atol=1e-9)
        warm = big.solve(row_lo=lo2, row_hi=hi2, basis=extended)
        cold = lp.SimplexSolver(bigger).solve(row_lo=lo2, row_hi=hi2)
        assert warm.status == cold.status
        if warm.status == lp.OPTIMAL:
            assert warm.objective_value == pytest.approx(cold.objective_value, abs=1e-8)


def test_a_past_deadline_stops_the_solve(monkeypatch):
    # the solve stops before its first pivot, warm or cold, with no nested
    # cold solve; the dual bound of where it stopped still bounds the optimum
    rng = np.random.Generator(np.random.Philox(key=7575))
    for trial in range(30):
        p = random_feasible_lp(rng)
        solver = lp.SimplexSolver(p)
        sol = solver.solve(deadline=time.perf_counter() - 1.0)
        assert sol.status == lp.DEADLINE and sol.iterations == 0 and sol.x is None
        assert solver.dual_bound() >= vertex_enumeration_max(p) - 1e-9
        root = solver.solve()
        cold_starts = count_cold_starts(monkeypatch, solver)
        lo, hi = child_bounds(rng, p)
        sol = solver.solve(lo=lo, hi=hi, basis=root.basis, deadline=0.0)
        assert sol.status == lp.DEADLINE and not cold_starts
        optimum = vertex_enumeration_max(with_bounds(p, lo, hi))
        if optimum is not None:
            assert solver.dual_bound() >= optimum - 1e-9
        assert solver.solve(lo=lo, hi=hi, basis=root.basis).status in (lp.OPTIMAL,
                                                                       lp.INFEASIBLE)
