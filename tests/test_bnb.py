import importlib.util
import logging
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lipcert import bnb, lp
from lipcert.bnb import MIPResult, SolveOptions, solve_liplp, solve_mip, tighten_root
from lipcert.estimators import random_lb
from lipcert.interval import Hyperbox, fastlip, head_seed_box, propagate
from lipcert.mip import LipMIPProblem, MIPModel, ModelError, build_lipmip_model
from lipcert.network import affine_network, identity_network, random_he
from lipcert.oracle import exact_lipschitz_bruteforce


def lipmip(net, box, alpha="linf", output_norm=None, **kw):
    return solve_mip(build_lipmip_model(net, box, alpha=alpha, output_norm=output_norm),
                     SolveOptions(**kw))


def test_affine_model_solved_at_root():
    net = affine_network([1.0, -2.0], b=0.0, bound=2.0)
    box = Hyperbox.from_center_radius(np.zeros(2), 1.0)
    res = lipmip(net, box)
    assert res.status == bnb.EXACT
    assert res.nodes_explored == 1
    assert res.incumbent_value == pytest.approx(3.0, abs=1e-9)
    assert res.upper_bound == pytest.approx(3.0, abs=1e-7)


def test_identity_net_exact_two():
    res = lipmip(identity_network(), Hyperbox([-1.0], [1.0]))
    assert res.status == bnb.EXACT
    assert res.incumbent_value == pytest.approx(2.0, abs=1e-6)
    assert res.upper_bound == pytest.approx(2.0, abs=1e-6)
    assert res.gap <= 1e-8


def test_generic_mip_model_branching():
    # max x1 + x2 + x3 s.t. x1 + x2 <= 1, binaries: knapsack-style
    model = MIPModel()
    b = [model.add_binary() for _ in range(3)]
    model.add_constraint({b[0]: 1.0, b[1]: 1.0}, "<=", 1.0)
    model.add_constraint({b[1]: 1.0, b[2]: 1.0}, "<=", 1.0)
    model.set_objective({b[0]: 1.0, b[1]: 1.5, b[2]: 1.0})
    res = solve_mip(model)
    assert res.status == bnb.EXACT
    assert res.incumbent_value == pytest.approx(2.0, abs=1e-9)  # b0 + b2


def test_gap_contract_and_sandwich():
    net = random_he([4, 8, 8, 1], seed=12)
    box = Hyperbox.from_center_radius(np.full(4, 0.5), 0.5)
    exact = lipmip(net, box)
    assert exact.status == bnb.EXACT
    for gap in (1.0, 0.1):
        res = lipmip(net, box, target_gap=gap)
        assert res.status in (bnb.GAP_REACHED, bnb.EXACT)
        if res.status == bnb.GAP_REACHED:
            assert res.gap <= gap + 1e-12
        assert res.incumbent_value <= exact.incumbent_value + 1e-6
        assert exact.incumbent_value <= res.upper_bound + 1e-6
        assert res.upper_bound <= (1 + gap) * res.incumbent_value + 1e-9


def test_gapped_values_monotone_tighter():
    net = random_he([4, 8, 8, 1], seed=3)
    box = Hyperbox.from_center_radius(np.full(4, 0.5), 0.5)
    ubs = []
    for gap in (1.0, 0.1, 0.01, 0.0):
        res = lipmip(net, box, target_gap=gap)
        ubs.append(res.upper_bound)
    for a, b in zip(ubs, ubs[1:]):
        assert b <= a + 1e-9


def search_counters(res):
    """What two runs of one deterministic search must repeat exactly."""
    return (res.nodes_explored, res.lp_solves, res.lp_pivots, res.strong_branch_lps,
            res.upper_bound, res.incumbent_point.tobytes())


def test_monotone_progress_event_log():
    # the search is deterministic, so a run stopped at a node limit is a
    # prefix of every run with a larger limit: the certified upper bound
    # never rises and the incumbent never falls along the node limits
    net = random_he([3, 6, 6, 1], seed=5)
    box = Hyperbox.from_center_radius(np.zeros(3), 1.0)
    runs = [lipmip(net, box, node_limit=limit) for limit in (1, 2, 4, 8, 16, 32, 10 ** 9)]
    assert [r.status for r in runs] == [bnb.NODE_LIMIT] * 6 + [bnb.EXACT]
    for a, b in zip(runs, runs[1:]):
        assert b.upper_bound <= a.upper_bound + 1e-6
        assert b.incumbent_value >= a.incumbent_value


def test_deterministic_repeat_runs():
    net = random_he([3, 6, 6, 1], seed=8)
    box = Hyperbox.from_center_radius(np.zeros(3), 1.0)
    r1 = lipmip(net, box)
    r2 = lipmip(net, box)
    assert r1.incumbent_value == r2.incumbent_value
    assert search_counters(r1) == search_counters(r2)


@pytest.mark.parametrize("kw", [
    {"target_gap": -0.5}, {"target_gap": float("nan")},
    {"timeout_seconds": -1.0}, {"timeout_seconds": float("nan")},
    {"node_limit": -1}, {"node_limit": float("nan")},
])
def test_solve_options_reject_negative_and_nan_limits(kw):
    # a NaN limit compares false against everything, so it would never stop
    # the search
    with pytest.raises(ValueError):
        SolveOptions(**kw)


def test_node_limit_and_timeout_statuses():
    net = random_he([4, 8, 8, 1], seed=2)
    box = Hyperbox.from_center_radius(np.full(4, 0.5), 0.5)
    res = solve_mip(build_lipmip_model(net, box), SolveOptions(node_limit=3))
    assert res.status in (bnb.NODE_LIMIT, bnb.EXACT)
    if res.status == bnb.NODE_LIMIT:
        assert res.incumbent_value <= res.upper_bound + 1e-9
    res_t = solve_mip(build_lipmip_model(net, box), SolveOptions(timeout_seconds=0.0))
    assert res_t.status in (bnb.TIMEOUT, bnb.EXACT)


def test_timeout_interrupts_a_long_root_lp():
    # 200 inputs: the backward encoding's root LP alone takes far longer
    # than the cap (the forward one takes well under 0.1 s).  The search
    # stops inside it and reports the dual bound of where it stopped, which
    # bounds L as any dual bound does, so the sandwich holds
    net = random_he([200, 20, 20, 1], seed=0)
    box = Hyperbox.from_center_radius(np.full(200, 0.5), 0.02)
    problem = build_lipmip_model(net, box, backward=True)
    model = problem.model
    col_lo, col_hi, row_lo, row_hi = model.lp_boxes(model.lo, model.hi)
    start = time.perf_counter()
    root = lp.SimplexSolver(model.relaxation()).solve(col_lo, col_hi, row_lo=row_lo,
                                                      row_hi=row_hi)
    assert root.status == lp.OPTIMAL
    root_s = time.perf_counter() - start
    start = time.perf_counter()
    res = solve_mip(problem, SolveOptions(timeout_seconds=0.05))
    took = time.perf_counter() - start
    assert res.status == bnb.TIMEOUT
    assert res.incumbent_value <= res.upper_bound
    assert res.upper_bound >= random_lb(net, box, "linf", n_samples=100).value
    assert took < root_s / 4


def test_liplp_bounds_lipmip_and_fastlip():
    for seed in (0, 4, 9):
        net = random_he([3, 6, 5, 1], seed=seed)
        box = Hyperbox.from_center_radius(np.zeros(3), 0.7)
        prob = build_lipmip_model(net, box)
        exact = solve_mip(prob)
        relaxed = solve_liplp(prob)
        fl = fastlip(net, box, "linf")
        assert exact.status == bnb.EXACT
        assert relaxed >= exact.incumbent_value - 1e-7
        assert relaxed <= fl + 1e-7


def test_liplp_affine_equals_exact():
    net = affine_network([2.0, 1.0], bound=2.0)
    box = Hyperbox.from_center_radius(np.zeros(2), 1.0)
    prob = build_lipmip_model(net, box)
    assert solve_liplp(prob) == pytest.approx(3.0, abs=1e-9)


def test_tightened_and_bare_searches_agree():
    # same answer from the tightened LipMIPProblem and from its bare model,
    # which the search takes without tightening or network heuristics
    net = random_he([3, 7, 6, 1], seed=17)
    box = Hyperbox.from_center_radius(np.zeros(3), 1.0)
    prob = build_lipmip_model(net, box)
    tight, bare = solve_mip(prob), solve_mip(prob.model)
    assert tight.incumbent_value == pytest.approx(bare.incumbent_value, rel=1e-9, abs=1e-9)
    assert tight.status == bare.status == bnb.EXACT


EXACT_CASES = [
    ([3, 6, 6, 1], 8, "linf", None),
    ([2, 7, 5, 1], 3, "l1", None),
    ([3, 5, 5, 5, 1], 6, "linf", None),
    ([3, 6, 6, 6, 1], 1, "linf", None),
    ([3, 6, 6, 6, 1], 1, "l1", None),
    ([3, 6, 5, 3], 1, "linf", "cross"),
    ([2, 5, 4, 2], 3, "l1", "linf"),
]


@pytest.mark.parametrize("full", [True, False])
@pytest.mark.parametrize("arch,seed,alpha,output_norm", EXACT_CASES, ids=[
    "arch0-8-linf", "arch1-3-l1", "arch2-6-linf", "arch3-1-linf", "arch4-1-l1",
    "arch5-1-linf-cross", "arch6-3-l1-linf",
])
def test_exact_matches_oracle_and_repeats(arch, seed, alpha, output_norm, full):
    # node LPs are re-solved by dual simplex from the parent's basis, with
    # the incumbent as cutoff.  The full LipMIPProblem is LP-tightened at the
    # root and rebuilt first; its bare model is searched without tightening
    # or network heuristics.  Both values must match the region oracle and
    # repeat runs must search identically
    net = random_he(arch, seed=seed)
    box = Hyperbox.from_center_radius(np.full(arch[0], 0.5), 0.5)
    ref = exact_lipschitz_bruteforce(net, box, alpha, output_norm)
    prob = build_lipmip_model(net, box, alpha=alpha, output_norm=output_norm)
    runs = [solve_mip(prob if full else prob.model) for _ in range(2)]
    for res in runs:
        assert res.status == bnb.EXACT
        assert res.incumbent_value == pytest.approx(ref, rel=1e-7, abs=1e-9)
        assert res.upper_bound == pytest.approx(ref, rel=1e-7, abs=1e-9)
    assert search_counters(runs[0]) == search_counters(runs[1])


def highs_milp_max(model):
    """scipy's HiGHS ``milp`` optimum of a MIPModel's exported LP data with
    its binaries integral, objective constant included."""
    opt = pytest.importorskip("scipy.optimize")
    p = model.to_lp_problem()
    rel = np.array(p.relations)
    integrality = np.zeros(p.num_vars)
    integrality[model.binary_vars] = 1
    res = opt.milp(
        -p.objective,
        constraints=opt.LinearConstraint(p.a, np.where(rel == "<=", -np.inf, p.rhs),
                                         np.where(rel == ">=", np.inf, p.rhs)),
        integrality=integrality,
        bounds=opt.Bounds(p.lo, p.hi),
        options={"mip_rel_gap": 1e-9},
    )
    assert res.status == 0
    return -res.fun + model.objective_const


@pytest.mark.parametrize("arch,seed,alpha,output_norm", EXACT_CASES)
def test_highs_agrees_with_oracle(arch, seed, alpha, output_norm):
    # scipy's HiGHS on the exported model: an outside check that the
    # encoding's mixed-integer optimum is the Lipschitz constant
    net = random_he(arch, seed=seed)
    box = Hyperbox.from_center_radius(np.full(arch[0], 0.5), 0.5)
    model = build_lipmip_model(net, box, alpha=alpha, output_norm=output_norm).model
    ref = exact_lipschitz_bruteforce(net, box, alpha, output_norm)
    assert highs_milp_max(model) == pytest.approx(ref, rel=1e-7, abs=1e-9)


def assert_three_way(prob) -> float:
    """Three independent ways to the exact constant agree: branch and bound,
    the region oracle, and HiGHS on the same exported model.  Returns the
    oracle's value."""
    res = solve_mip(prob)
    ref = exact_lipschitz_bruteforce(prob.net, prob.domain, prob.alpha, prob.output_norm)
    assert res.status == bnb.EXACT
    assert res.upper_bound == pytest.approx(ref, rel=1e-7, abs=1e-9)
    assert res.incumbent_value == pytest.approx(ref, rel=1e-7, abs=1e-9)
    # HiGHS accepts a binary 1e-6 off integral, which can lift its optimum
    # by about that much
    assert highs_milp_max(prob.model) == pytest.approx(ref, rel=1e-5, abs=1e-6)
    return ref


@st.composite
def small_lipschitz_problems(draw):
    """A random scalar net with at most 16 hidden neurons, a box and a norm."""
    depth = draw(st.integers(1, 2))
    hidden = draw(st.lists(st.integers(2, 16 // depth), min_size=depth, max_size=depth))
    arch = [draw(st.integers(1, 4)), *hidden, 1]
    net = random_he(arch, seed=draw(st.integers(0, 2**16)))
    radius = draw(st.sampled_from([0.1, 0.5, 1.0]))
    box = Hyperbox.from_center_radius(np.full(arch[0], 0.5), radius)
    return net, box, draw(st.sampled_from(["linf", "l1"]))


@pytest.mark.skipif(importlib.util.find_spec("scipy") is None, reason="needs scipy")
@settings(derandomize=True, deadline=None, max_examples=12)
@given(small_lipschitz_problems())
def test_bnb_oracle_and_highs_agree(case):
    net, box, alpha = case
    assert_three_way(build_lipmip_model(net, box, alpha=alpha))


def test_forward_bnb_matches_oracle_and_highs():
    # 8 inputs take the forward encoding; its 16 neurons are within the
    # oracle's cap
    net = random_he([8, 8, 8, 1], seed=3)
    prob = build_lipmip_model(net, Hyperbox.from_center_radius(np.full(8, 0.5), 0.3))
    assert prob.encoding == "forward"
    assert assert_three_way(prob) == pytest.approx(4.5424326, abs=1e-7)
    assert solve_mip(prob).encoding == "forward"


@pytest.mark.parametrize("arch,seed,radius", [([8, 16, 16, 1], 0, 0.1), ([10, 12, 10, 1], 2, 0.2),
                                              ([12, 6, 6, 6, 1], 0, 0.25)])
def test_forward_and_backward_encodings_agree(arch, seed, radius):
    net = random_he(arch, seed=seed)
    box = Hyperbox.from_center_radius(np.full(arch[0], 0.5), radius)
    fwd = solve_mip(build_lipmip_model(net, box))
    bwd = solve_mip(build_lipmip_model(net, box, backward=True))
    assert (fwd.encoding, bwd.encoding) == ("forward", "backward")
    assert fwd.status == bwd.status == bnb.EXACT
    assert fwd.incumbent_value == pytest.approx(bwd.incumbent_value, rel=1e-9)


@st.composite
def wide_lipschitz_problems(draw):
    """A random scalar net with 8 to 10 inputs and at most 12 hidden
    neurons, and a box: the forward encoding's linf case."""
    depth = draw(st.integers(1, 2))
    hidden = draw(st.lists(st.integers(2, 12 // depth), min_size=depth, max_size=depth))
    arch = [draw(st.integers(8, 10)), *hidden, 1]
    net = random_he(arch, seed=draw(st.integers(0, 2**16)))
    radius = draw(st.sampled_from([0.05, 0.2, 0.5]))
    return net, Hyperbox.from_center_radius(np.full(arch[0], 0.5), radius)


@pytest.mark.skipif(importlib.util.find_spec("scipy") is None, reason="needs scipy")
@settings(derandomize=True, deadline=None, max_examples=8)
@given(wide_lipschitz_problems())
def test_forward_bnb_oracle_and_highs_agree(case):
    net, box = case
    prob = build_lipmip_model(net, box)
    assert prob.encoding == "forward"
    assert_three_way(prob)


@st.composite
def small_vector_problems(draw):
    """A random net with 2 or 3 outputs and at most 12 hidden neurons, a box,
    an input norm and an output norm."""
    depth = draw(st.integers(1, 2))
    hidden = draw(st.lists(st.integers(2, 12 // depth), min_size=depth, max_size=depth))
    arch = [draw(st.integers(1, 3)), *hidden, draw(st.integers(2, 3))]
    net = random_he(arch, seed=draw(st.integers(0, 2**16)))
    radius = draw(st.sampled_from([0.1, 0.5, 1.0]))
    box = Hyperbox.from_center_radius(np.full(arch[0], 0.5), radius)
    return (net, box, draw(st.sampled_from(["linf", "l1"])),
            draw(st.sampled_from(["l1", "linf", "cross"])))


@pytest.mark.skipif(importlib.util.find_spec("scipy") is None, reason="needs scipy")
@settings(derandomize=True, deadline=None, max_examples=8)
@given(small_vector_problems())
def test_vector_bnb_oracle_and_highs_agree(case):
    # the three-way check where the dual-ball vector z is a model variable;
    # the chain-rule incumbent at any input is attainable, so it never
    # exceeds the oracle
    net, box, alpha, output_norm = case
    prob = build_lipmip_model(net, box, alpha=alpha, output_norm=output_norm)
    ref = assert_three_way(prob)
    rng = np.random.Generator(np.random.Philox(key=net.total_neurons))
    point = np.zeros(prob.model.num_vars)
    for x in rng.uniform(box.l, box.u, size=(20, box.dim)):
        point[prob.input_vars] = x
        assert prob.incumbent_from_point(point)[0] <= ref * (1 + 1e-9) + 1e-12


def test_node_bounds_are_the_certified_dual_bound(monkeypatch):
    # the heap holds dual_bound(), so the bound a node-limited solve reports
    # moves by exactly the offset added to it; without root tightening (whose
    # boxes the offset would widen) the search visits the same nodes.  The
    # LP's own cutoff check keeps the unshifted bound: shifted, it would turn
    # some strong-branch children from CUTOFF into OPTIMAL and change their
    # scores, so only the bound the search reads moves
    net = random_he([4, 8, 8, 1], seed=12)
    box = Hyperbox.from_center_radius(np.full(4, 0.5), 0.5)
    prob = build_lipmip_model(net, box)
    monkeypatch.setattr(bnb, "tighten_root", lambda p, d: (p, []))
    opts = SolveOptions(node_limit=20)
    plain = solve_mip(prob, opts)
    assert plain.status == bnb.NODE_LIMIT and plain.upper_bound > plain.incumbent_value
    offset = 0.25
    original = lp.SimplexSolver.dual_bound
    original_cutoff = lp.SimplexSolver._cutoff_bound

    def unshifted_cutoff(self, xb, cutoff):
        with monkeypatch.context() as m:
            m.setattr(lp.SimplexSolver, "dual_bound", original)
            return original_cutoff(self, xb, cutoff)

    monkeypatch.setattr(lp.SimplexSolver, "_cutoff_bound", unshifted_cutoff)
    monkeypatch.setattr(lp.SimplexSolver, "dual_bound", lambda self: original(self) + offset)
    moved = solve_mip(prob, opts)
    assert moved.status == bnb.NODE_LIMIT
    assert moved.nodes_explored == plain.nodes_explored
    assert moved.upper_bound - plain.upper_bound == pytest.approx(offset, abs=1e-12)
    assert moved.incumbent_value == plain.incumbent_value


def solve_statuses(monkeypatch):
    """Records the status of every B&B LP answer (calls by keyword only,
    which leaves out the solver's nested cold re-solves)."""
    original = lp.SimplexSolver.solve
    statuses = []

    def solve(self, *args, **kwargs):
        sol = original(self, *args, **kwargs)
        if not args:
            statuses.append((kwargs.get("basis") is not None, sol.status))
        return sol

    monkeypatch.setattr(lp.SimplexSolver, "solve", solve)
    return statuses


def test_strong_branch_infeasible_side_leaves_one_child(monkeypatch):
    # max a + y s.t. 2a <= 1, y in [0, 1]: the root LP has a = 1/2, and the
    # child a = 1 is infeasible, so a is fixed at 0 and the root gets the
    # single child a = 0 (value 1)
    model = MIPModel()
    a = model.add_binary()
    y = model.add_var(0.0, 1.0)
    model.add_constraint({a: 2.0}, "<=", 1.0)
    model.set_objective({a: 1.0, y: 1.0})
    statuses = solve_statuses(monkeypatch)
    res = solve_mip(model)
    assert res.status == bnb.EXACT
    assert res.incumbent_value == pytest.approx(1.0, abs=1e-9)
    assert statuses == [(False, lp.OPTIMAL), (True, lp.INFEASIBLE), (True, lp.OPTIMAL)]
    assert (res.strong_branch_lps, res.strong_branch_fixes) == (2, 1)
    assert res.nodes_explored == 2  # the root and its live child


def test_strong_branch_cut_off_side_leaves_one_child(monkeypatch):
    # max 2a + 7b + 3c s.t. 2a + 3b + 4c <= 7.5.  The root LP (a = b = 1,
    # c = 5/8) branches on c: c = 0 is integral (9, the first incumbent),
    # c = 1 has a = 1/4 (bound 10.5).  Below it, a = 1 (b = 1/2, bound 8.5)
    # is cut off by the incumbent, so a is fixed at 0 and the node gets the
    # single child a = 0, integral with value 10
    model = MIPModel()
    a, b, c = (model.add_binary() for _ in range(3))
    model.add_constraint({a: 2.0, b: 3.0, c: 4.0}, "<=", 7.5)
    model.set_objective({a: 2.0, b: 7.0, c: 3.0})
    statuses = solve_statuses(monkeypatch)
    res = solve_mip(model)
    assert res.status == bnb.EXACT
    assert res.incumbent_value == pytest.approx(10.0, abs=1e-9)
    assert [s for _, s in statuses] == [lp.OPTIMAL] * 3 + [lp.CUTOFF, lp.OPTIMAL]
    assert (res.strong_branch_lps, res.strong_branch_fixes) == (4, 1)
    assert res.nodes_explored == 4  # the root, both children of c, one of a


def test_pseudocosts_updated_from_every_child_lp(monkeypatch):
    # every child LP solved to optimality, strong-branch candidates that do
    # not become nodes included, adds one observation
    net = random_he([4, 8, 8, 1], seed=12)
    box = Hyperbox.from_center_radius(np.full(4, 0.5), 0.5)
    updates = []
    original = bnb._Pseudocosts.update

    def update(self, var, val, drop, frac):
        updates.append((var, val, drop, frac))
        original(self, var, val, drop, frac)

    monkeypatch.setattr(bnb._Pseudocosts, "update", update)
    statuses = solve_statuses(monkeypatch)
    monkeypatch.setattr(bnb, "tighten_root", lambda p, d: (p, []))
    res = lipmip(net, box)
    assert res.status == bnb.EXACT
    assert len(updates) == sum(warm and s == lp.OPTIMAL for warm, s in statuses)
    assert len(updates) > res.nodes_explored - 1  # discarded candidates count too
    assert all(val in (0, 1) and 0 < frac < 1 for _, val, _, frac in updates)


def test_reliability_branching_halves_the_tree():
    # most-fractional branching needed 305 nodes here and HiGHS needs 25
    net = random_he([4, 8, 8, 1], seed=12)
    box = Hyperbox.from_center_radius(np.full(4, 0.5), 0.5)
    res = lipmip(net, box)
    assert res.status == bnb.EXACT
    assert res.incumbent_value == pytest.approx(exact_lipschitz_bruteforce(net, box, "linf"),
                                                rel=1e-7)
    assert res.nodes_explored <= 305 // 2


def test_l1_choice_binaries_shrink_the_tree():
    # max folds over absolute values needed 231 nodes here
    net = random_he([4, 8, 8, 1], seed=12)
    box = Hyperbox.from_center_radius(np.full(4, 0.5), 0.5)
    res = lipmip(net, box, alpha="l1")
    assert res.status == bnb.EXACT
    assert res.incumbent_value == pytest.approx(exact_lipschitz_bruteforce(net, box, "l1"),
                                                rel=1e-7)
    assert res.nodes_explored <= 120


def test_liplp_l1_below_fastlip():
    # the relaxation of the signed-coordinate choice is tighter than the
    # interval pass; max folds over absolute values gave FastLip's value back
    net = random_he([3, 8, 8, 1], seed=1)
    box = Hyperbox.from_center_radius(np.full(3, 0.5), 0.5)
    liplp = solve_liplp(build_lipmip_model(net, box, alpha="l1"))
    assert liplp < 0.95 * fastlip(net, box, "l1")


def test_strong_branching_reported(caplog):
    net = random_he([3, 6, 6, 1], seed=8)
    box = Hyperbox.from_center_radius(np.full(3, 0.5), 0.5)
    with caplog.at_level(logging.DEBUG, logger="lipcert"):
        res = lipmip(net, box)
    assert res.strong_branch_lps > 0 and res.strong_branch_pivots > 0
    lines = [r.getMessage() for r in caplog.records if "strong branching" in r.getMessage()]
    assert len(lines) == 1
    assert f"strong branching {res.strong_branch_lps} LPs" in lines[0]
    assert f"{res.strong_branch_fixes} binaries fixed" in lines[0]
    # every search LP and pivot, and the size of the LP the search solved
    assert f"{res.lp_solves} LPs ({res.lp_pivots} pivots)" in lines[0]
    assert res.encoding == "backward" and "(backward encoding)" in lines[0]
    assert res.lp_solves > res.strong_branch_lps and res.lp_pivots > res.strong_branch_pivots
    columns, rows = map(int, re.search(r"LP columns (\d+), rows (\d+)", lines[0]).groups())
    model = tighten_root(build_lipmip_model(net, box))[0].model
    assert (columns, rows) == (model.num_columns, model.relaxation().num_constraints)
    assert 0 < columns < model.num_vars  # affine quantities are rows, not columns


def failing_solves(monkeypatch, fails):
    """Makes ``SimplexSolver.solve`` report NUMERICAL_FAILURE whenever
    ``fails(call_index, kwargs)`` is true; returns the recorded calls."""
    original = lp.SimplexSolver.solve
    calls = []

    def solve(self, *args, **kwargs):
        calls.append(kwargs)
        if fails(len(calls) - 1, kwargs):
            return lp.LPSolution(lp.NUMERICAL_FAILURE, None, np.nan, 0)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(lp.SimplexSolver, "solve", solve)
    return calls


def test_failed_warm_node_solve_retried_cold(monkeypatch):
    # every warm start meets a snapshot the solver cannot factorize: the
    # solver's own nested cold solve answers each node LP, and the search
    # ends exact at the oracle's value
    net = random_he([3, 6, 6, 1], seed=8)
    box = Hyperbox.from_center_radius(np.full(3, 0.5), 0.5)
    ref = exact_lipschitz_bruteforce(net, box, "linf")
    restores = []

    def singular(self, basis):
        restores.append(basis)
        return False

    monkeypatch.setattr(lp.SimplexSolver, "_restore", singular)
    res = lipmip(net, box)
    assert res.status == bnb.EXACT
    assert res.nodes_explored > 1 and restores
    assert res.incumbent_value == pytest.approx(ref, rel=1e-7, abs=1e-9)
    assert res.upper_bound == pytest.approx(ref, rel=1e-7, abs=1e-9)


@pytest.mark.parametrize("first", [0, 1], ids=["root", "below-root"])
def test_failed_node_lps_keep_the_parent_bound(monkeypatch, first):
    # from the ``first``-th on, every search LP that reaches an optimum fails
    # its feasibility check, the cold re-solve too: a failed node keeps its
    # parent's bound (+inf at the root), is never branched, and the search
    # ends with an open, valid sandwich instead of an exception
    net = random_he([3, 6, 6, 1], seed=8)
    box = Hyperbox.from_center_radius(np.full(3, 0.5), 0.5)
    ref = exact_lipschitz_bruteforce(net, box, "linf")
    original = lp.SimplexSolver._optimal
    optima = []

    def optimal(self, lo, hi, cobj, pivots, xb):
        if self.problem.objective.any():  # not a tightening or sign-pattern LP
            optima.append(pivots)
            if len(optima) > first:
                return lp.LPSolution(lp.NUMERICAL_FAILURE, None, np.nan, pivots)
        return original(self, lo, hi, cobj, pivots, xb)

    monkeypatch.setattr(lp.SimplexSolver, "_optimal", optimal)
    res = lipmip(net, box)
    assert res.status == bnb.LP_FAILED
    assert res.incumbent_value <= ref * (1 + 1e-9) and ref <= res.upper_bound
    if first == 0:
        assert res.nodes_explored == 1 and res.upper_bound == np.inf
        assert res.incumbent_value == -np.inf and res.gap == np.inf
    else:
        assert res.nodes_explored > 1 and len(optima) > 2
        assert np.isfinite(res.upper_bound) and res.incumbent_value > 0
        assert res.gap == pytest.approx(
            (res.upper_bound - res.incumbent_value) / res.incumbent_value)


def test_exhausted_search_keeps_pruned_and_leaf_bounds(monkeypatch):
    # an exact search that emptied its heap reports at least the incumbent
    # widened by the prune slack, below which it discarded nodes ...
    net = random_he([3, 6, 6, 1], seed=8)
    box = Hyperbox.from_center_radius(np.full(3, 0.5), 0.5)
    res = lipmip(net, box)
    assert res.status == bnb.EXACT and res.nodes_explored > 1
    assert res.upper_bound >= res.incumbent_value * (1 + bnb._PRUNE_TOL)
    assert 0 < res.gap <= 1e-8
    # ... and at least the certified bound of every integral leaf, not its
    # LP value: here the root, max b over one binary
    model = MIPModel()
    b = model.add_binary()
    model.set_objective({b: 1.0})
    original = lp.SimplexSolver.dual_bound
    monkeypatch.setattr(lp.SimplexSolver, "dual_bound", lambda self: original(self) + 0.25)
    res = solve_mip(model)
    assert res.status == bnb.EXACT and res.nodes_explored == 1
    assert res.incumbent_value == 1.0
    assert res.upper_bound == pytest.approx(1.25, abs=1e-9)


def test_model_without_integral_point_raises():
    # 2b = 1 has the LP point b = 0.5 but no integral one: both children are
    # infeasible and the empty heap leaves no incumbent
    model = MIPModel()
    b = model.add_binary()
    model.add_constraint({b: 2.0}, "=", 1.0)
    model.set_objective({b: 1.0})
    with pytest.raises(bnb.InfeasibleModelError):
        solve_mip(model)


@pytest.mark.parametrize("arch,seed,alpha,output_norm", EXACT_CASES)
def test_root_tightening_boxes_are_sound(arch, seed, alpha, output_norm):
    net = random_he(arch, seed=seed)
    box = Hyperbox.from_center_radius(np.full(arch[0], 0.5), 0.5)
    plain = build_lipmip_model(net, box, alpha=alpha, output_norm=output_norm)
    tight, records = tighten_root(plain)
    # the plain build keeps its interval boxes
    prop = propagate(net, box, backward_seed=head_seed_box(net, output_norm))
    for mine, ref in zip(plain.pre_boxes, prop.pre_activation_boxes):
        assert np.array_equal(mine.l, ref.l) and np.array_equal(mine.u, ref.u)
    xs = box.sample(np.random.Generator(np.random.Philox(key=seed)), 3000)
    acts = xs.T
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        pre = w @ acts + b[:, None]
        inner, outer = tight.pre_boxes[i], plain.pre_boxes[i]
        assert np.all(inner.l >= outer.l) and np.all(inner.u <= outer.u)
        assert np.all(pre >= inner.l[:, None] - 1e-9) and np.all(pre <= inner.u[:, None] + 1e-9)
        acts = np.maximum(pre, 0.0)
    assert len(records) == net.depth
    assert records[0].lps == 0  # interval bounds are exact on layer 0 of a box
    for i, r in enumerate(records):
        assert r.layer == i
        assert r.unstable_after == int(np.sum(tight.neuron_bins[i] >= 0)) <= r.unstable_before
        assert r.lps <= 2 * r.unstable_before
    assert sum(r.lps for r in records) > 0
    # some neuron undecided in the plain build has a strictly narrower box
    assert any(
        np.any(((t.u - t.l) < (p.u - p.l))[bins >= 0])
        for t, p, bins in zip(tight.pre_boxes, plain.pre_boxes, plain.neuron_bins)
    )


def test_root_tightening_survives_failed_lps(monkeypatch):
    # every tightening LP (the only solves with an explicit objective) fails:
    # each side keeps its interval bound and the solve is still exact
    net = random_he([3, 6, 6, 6, 1], seed=1)
    box = Hyperbox.from_center_radius(np.full(3, 0.5), 0.5)
    ref = exact_lipschitz_bruteforce(net, box, "linf")
    calls = failing_solves(monkeypatch, lambda i, kw: kw.get("objective") is not None)
    plain = build_lipmip_model(net, box)
    tight, records = tighten_root(plain)
    assert calls and sum(r.lps for r in records) == len(calls)
    for mine, ref_box in zip(tight.pre_boxes, plain.pre_boxes):
        assert np.array_equal(mine.l, ref_box.l) and np.array_equal(mine.u, ref_box.u)
    assert [r.unstable_after for r in records] == [r.unstable_before for r in records]
    res = lipmip(net, box)
    assert res.status == bnb.EXACT
    assert res.incumbent_value == pytest.approx(ref, rel=1e-7, abs=1e-9)
    assert res.upper_bound == pytest.approx(ref, rel=1e-7, abs=1e-9)


def test_root_tightening_survives_a_failed_rebuild(monkeypatch):
    # a rebuild whose intersected boxes rounding left empty raises ModelError:
    # root tightening keeps the model it has, and the solve stays certified
    net = random_he([3, 6, 6, 6, 1], seed=1)
    box = Hyperbox.from_center_radius(np.full(3, 0.5), 0.5)
    ref = exact_lipschitz_bruteforce(net, box, "linf")
    original = LipMIPProblem.rebuild
    calls = []

    def rebuild_failing_once(self, pre_boxes):
        calls.append(self)
        if len(calls) == 1:
            raise ModelError("variable z1_0: lo 0.5 > hi 0.4999999999999999")
        return original(self, pre_boxes)

    monkeypatch.setattr(LipMIPProblem, "rebuild", rebuild_failing_once)
    res = lipmip(net, box)
    assert len(calls) > 1  # the failed rebuild, then those of later layers
    first = next(r for r in res.root_tightening if r.lps)
    assert first.unstable_after == first.unstable_before
    assert first.mean_width_after == first.mean_width_before
    assert res.status == bnb.EXACT
    assert res.incumbent_value <= ref * (1 + 1e-7) and res.upper_bound >= ref * (1 - 1e-7)


def test_root_tightening_reported(caplog):
    net = random_he([3, 6, 6, 1], seed=8)
    box = Hyperbox.from_center_radius(np.full(3, 0.5), 0.5)
    with caplog.at_level(logging.DEBUG, logger="lipcert"):
        res = lipmip(net, box)
    assert [r.layer for r in res.root_tightening] == [0, 1]
    assert res.root_tightening[1].lps > 0 and res.root_tightening[1].pivots > 0
    lines = [r.getMessage() for r in caplog.records if "root tightening" in r.getMessage()]
    assert len(lines) == 1 and "L1 unstable" in lines[0]
    assert solve_mip(build_lipmip_model(net, box).model).root_tightening == []
    model = MIPModel()
    b = model.add_binary()
    model.set_objective({b: 1.0})
    assert solve_mip(model).root_tightening == []
    assert solve_mip(model).encoding == ""


# bench/workloads.py BOUNDS_SWEEP at seed 0: (arch, net seed, radius), both norms
BOUNDS_SWEEP = (
    ((2, 8, 8, 1), 1, 0.5),
    ((4, 8, 8, 1), 12, 0.5),
    ((3, 8, 8, 1), 1, 0.5),
    ((4, 6, 6, 1), 2, 0.5),
    ((2, 12, 12, 1), 6, 0.5),
    ((6, 12, 12, 1), 5, 0.25),
    ((10, 32, 32, 1), 3, 0.1),
)


def test_liplp_is_certified_and_tight():
    for arch, seed, radius in BOUNDS_SWEEP:
        net = random_he(arch, seed=seed)
        box = Hyperbox.from_center_radius(np.full(arch[0], 0.5), radius)
        for alpha in ("linf", "l1"):
            prob = build_lipmip_model(net, box, alpha=alpha)
            raw = lp.solve_lp(prob.model.to_lp_problem())
            assert raw.status == lp.OPTIMAL
            value = raw.objective_value + prob.model.objective_const
            certified = solve_liplp(prob)
            assert value <= certified <= value + 1e-9 * abs(value)


@pytest.mark.parametrize("fail_at", [0, 3])
def test_liplp_of_a_failed_relaxation_is_still_an_upper_bound(monkeypatch, fail_at):
    # the ratio test finds no entering column from its ``fail_at``-th call
    # on, an infeasibility the certificate cannot confirm: the solve fails
    # at an intermediate basis, whose weak-duality bound still holds
    net = random_he([3, 8, 8, 1], seed=1)
    prob = build_lipmip_model(net, Hyperbox.from_center_radius(np.full(3, 0.5), 0.5))
    optimum = lp.solve_lp(prob.model.to_lp_problem()).objective_value
    original = lp.SimplexSolver._dual_ratio_test
    tests = []

    def ratio_test(self, *args):
        tests.append(args)
        return -1 if len(tests) > fail_at else original(self, *args)

    monkeypatch.setattr(lp.SimplexSolver, "_dual_ratio_test", ratio_test)
    assert lp.solve_lp(prob.model.to_lp_problem()).status == lp.NUMERICAL_FAILURE
    assert len(tests) == fail_at + 1
    certified = solve_liplp(prob)
    assert optimum <= certified < np.inf


@pytest.mark.parametrize("arch,seed,alpha,output_norm", [
    ([3, 6, 6, 1], 8, "linf", None),
    ([3, 6, 6, 6, 1], 1, "l1", None),
    ([3, 6, 5, 3], 1, "linf", "cross"),
    ([8, 8, 8, 1], 3, "linf", None),
])
def test_root_lp_takes_new_rows_warm(arch, seed, alpha, output_norm):
    # a B&B LP with one of its rows appended again (a pre-activation's row,
    # then a constraint row) re-optimizes from the root basis extended by
    # ``Basis.with_new_rows``, with no cold start, to the same optimum
    net = random_he(arch, seed=seed)
    box = Hyperbox.from_center_radius(np.full(arch[0], 0.5), 0.5)
    prob = tighten_root(build_lipmip_model(net, box, alpha=alpha, output_norm=output_norm))[0]
    model = prob.model
    root_lp = model.relaxation()
    col_lo, col_hi, row_lo, row_hi = model.lp_boxes(model.lo, model.hi)
    root = lp.SimplexSolver(root_lp).solve(col_lo, col_hi, row_lo=row_lo, row_hi=row_hi)
    assert root.status == lp.OPTIMAL
    pre = model.linear({int(prob.pre_vars[1][0]): 1.0})[0]
    quantity = next(r for r, row in enumerate(root_lp.a) if np.array_equal(row, pre))
    for r in (quantity, root_lp.relations.index("<=")):
        bigger = lp.LPProblem(root_lp.objective, np.vstack([root_lp.a, root_lp.a[r]]),
                              root_lp.relations + (root_lp.relations[r],),
                              np.append(root_lp.rhs, root_lp.rhs[r]), root_lp.lo, root_lp.hi)
        solver = lp.SimplexSolver(bigger)
        sol = solver.solve(col_lo, col_hi, basis=root.basis.with_new_rows(1),
                           row_lo=np.append(row_lo, row_lo[r]), row_hi=np.append(row_hi, row_hi[r]))
        assert sol.status == lp.OPTIMAL and solver.cold_starts == 0
        assert sol.objective_value == pytest.approx(root.objective_value, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("arch,seed,alpha,output_norm", EXACT_CASES[:2] + EXACT_CASES[-2:])
def test_exported_model_serves_the_benchmark(arch, seed, alpha, output_norm):
    # what the benchmark reads: the export's relations, binaries that index
    # its columns, the pre-activation boxes at their ids, and an optimum
    # (HiGHS, with scipy) equal to branch and bound's
    net = random_he(arch, seed=seed)
    box = Hyperbox.from_center_radius(np.full(arch[0], 0.5), 0.5)
    prob = build_lipmip_model(net, box, alpha=alpha, output_norm=output_norm)
    model = prob.model
    export = model.to_lp_problem()
    assert set(export.relations) <= {"<=", "=", ">="}
    assert export.num_vars == model.num_vars and model.objective_const == 0.0
    assert np.array_equal(export.lo[model.binary_vars], np.zeros(len(model.binary_vars)))
    assert np.array_equal(export.hi[model.binary_vars], np.ones(len(model.binary_vars)))
    for ids, pre in zip(prob.pre_vars, prob.pre_boxes):
        assert np.array_equal(np.array(model.lo)[ids], pre.l)
        assert np.array_equal(np.array(model.hi)[ids], pre.u)
    res = solve_mip(prob)
    assert res.status == bnb.EXACT
    if importlib.util.find_spec("scipy") is not None:
        assert highs_milp_max(model) == pytest.approx(res.incumbent_value, rel=1e-6, abs=1e-6)
