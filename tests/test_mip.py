import itertools

import numpy as np
import pytest

from lipcert import bnb, interval, lp, mip, norms
from lipcert.bnb import tighten_root
from lipcert.interval import Hyperbox
from lipcert.mip import (
    BinDecision,
    MIPModel,
    build_lipmip_model,
    encode_abs,
    encode_affine,
    encode_dual_ball,
    encode_max,
    encode_relu,
    encode_switch,
    feasible_assignment,
)
from lipcert.network import (
    ALWAYS_ONE,
    ALWAYS_ZERO,
    ZeroRule,
    affine_network,
    chain_rule_jacobian,
    identity_network,
    pattern_at,
    random_he,
)


def feasible(model, assignment, tol=1e-7):
    point = np.zeros(model.num_vars)
    for var, val in assignment.items():
        point[var] = val
    return model.check_point(point, tol=tol) == []


def value_range(model, var, fixed, tol=1e-9):
    """Min and max of one variable over the exact mixed-integer feasible set
    with some variables pinned; enumerates every free binary (tiny models)."""
    free_bins = [b for b in model.binary_vars if b not in fixed]
    prob = model.to_lp_problem()
    cmax = np.zeros(model.num_vars)
    cmax[var] = 1.0
    best = None
    for bits in itertools.product((0.0, 1.0), repeat=len(free_bins)):
        lo = np.array(model.lo)
        hi = np.array(model.hi)
        for v, val in fixed.items():
            lo[v] = hi[v] = val
        for v, val in zip(free_bins, bits):
            lo[v] = hi[v] = val
        prob_b = lp.LPProblem(prob.objective, prob.a, prob.relations, prob.rhs, lo, hi)
        smax = lp.SimplexSolver(prob_b).solve(objective=cmax)
        if smax.status != lp.OPTIMAL:
            continue
        smin = lp.SimplexSolver(prob_b).solve(objective=-cmax)
        pair = (-smin.objective_value, smax.objective_value)
        best = pair if best is None else (min(best[0], pair[0]), max(best[1], pair[1]))
    return best


# -- affine ---------------------------------------------------------------


def test_encode_affine_identity():
    model = MIPModel()
    xs = [model.add_var(-1, 1, name=f"x{i}") for i in range(2)]
    box = interval.push_affine(Hyperbox([-1, -1], [1, 1]), np.eye(2))
    out = encode_affine(model, xs, np.eye(2), None, box)
    assert feasible(model, {xs[0]: 0.3, xs[1]: -0.7, out[0]: 0.3, out[1]: -0.7})
    assert not feasible(model, {xs[0]: 0.3, xs[1]: -0.7, out[0]: 0.4, out[1]: -0.7})


def test_encode_affine_bounds_by_interval():
    model = MIPModel()
    xs = [model.add_var(0, 1, name=f"x{i}") for i in range(2)]
    w, b = np.array([[1.0, 1.0]]), np.array([-1.0])
    out = encode_affine(model, xs, w, b, interval.push_affine(Hyperbox([0, 0], [1, 1]), w, b))
    assert model.lo[out[0]] == pytest.approx(-1.0)
    assert model.hi[out[0]] == pytest.approx(1.0)


def test_encode_affine_lp_feasibility_oracle():
    rng = np.random.Generator(np.random.Philox(key=1))
    model = MIPModel()
    xs = [model.add_var(-2, 2, name=f"x{i}") for i in range(3)]
    w = rng.normal(size=(2, 3))
    b = rng.normal(size=2)
    out = encode_affine(model, xs, w, b, interval.push_affine(Hyperbox([-2] * 3, [2] * 3), w, b))
    for _ in range(20):
        x = rng.uniform(-2, 2, size=3)
        y = w @ x + b
        good = dict(zip(xs, x)) | dict(zip(out, y))
        assert feasible(model, good)
        bad = dict(good)
        bad[out[0]] = y[0] + 1e-3
        assert not feasible(model, bad, tol=1e-5)


# -- relu -------------------------------------------------------------------


def relu_model(l, u):
    model = MIPModel()
    z = model.add_var(l, u, name="z")
    before = model.num_constraints
    p, dec = encode_relu(model, {z: 1.0}, 0.0, l, u, name="p")
    return model, z, p, dec, model.num_constraints - before


def test_relu_integral_graph():
    # with the binary fixed, the feasible p at each z is exactly {relu(z)}
    model, z, p, dec, rows = relu_model(-2.0, 3.0)
    assert rows == 3 and model.binary_vars == [dec.var] == [p - 1]
    assert (model.lo[p], model.hi[p]) == (0.0, 3.0)
    for zv in np.linspace(-2.0, 3.0, 11):
        seen = []
        for av in (0.0, 1.0):
            rng = value_range(model, p, {z: zv, dec.var: av})
            if rng is None:
                assert (av == 1.0 and zv < 0) or (av == 0.0 and zv > 0)
                continue
            assert rng[0] == pytest.approx(max(zv, 0.0), abs=1e-9)
            assert rng[1] == pytest.approx(max(zv, 0.0), abs=1e-9)
            seen.append(av)
        assert seen == ([0.0, 1.0] if zv == 0 else [float(zv > 0)])


def test_relu_relaxation_keeps_the_triangle():
    # at a fractional binary every LP point has p >= max(0, z)
    model, z, p, dec, _ = relu_model(-2.0, 3.0)
    prob = model.to_lp_problem()
    cmin = np.zeros(model.num_vars)
    cmin[p] = -1.0
    feasible_lps = 0
    for zv in np.linspace(-2.0, 3.0, 11):
        for av in (0.1, 0.25, 0.5, 0.75, 0.9):
            lo, hi = np.array(model.lo), np.array(model.hi)
            lo[z] = hi[z] = zv
            lo[dec.var] = hi[dec.var] = av
            sol = lp.SimplexSolver(lp.LPProblem(prob.objective, prob.a, prob.relations,
                                                prob.rhs, lo, hi)).solve(objective=cmin)
            if sol.status == lp.OPTIMAL:
                feasible_lps += 1
                assert -sol.objective_value >= max(zv, 0.0) - 1e-9
    assert feasible_lps > 0


def test_conditional_fixed_positive():
    # l > 0 fixes the forward sign ON: p = z without a binary, one row
    model, z, p, dec, rows = relu_model(1.0, 2.0)
    assert dec.is_fixed and dec.fixed == 1 and rows == 1 and model.binary_vars == []
    assert (model.lo[p], model.hi[p]) == (1.0, 2.0)
    assert feasible(model, {z: 1.5, p: 1.5})
    assert not feasible(model, {z: 1.5, p: 0.0})


def test_conditional_fixed_negative():
    # u < 0 fixes the forward sign OFF: p = 0 without a binary or a row
    model, z, p, dec, rows = relu_model(-2.0, -1.0)
    assert dec.is_fixed and dec.fixed == 0 and rows == 0 and model.binary_vars == []
    assert (model.lo[p], model.hi[p]) == (0.0, 0.0)


@pytest.mark.parametrize("l,u", [(0.0, 2.0), (-2.0, 0.0), (0.0, 0.0)])
def test_relu_touching_zero_keeps_both_choices(l, u):
    # the sign test is strict: a box touching 0 keeps its binary, and z = 0
    # is feasible under both choices
    model, z, p, dec, rows = relu_model(l, u)
    assert not dec.is_fixed and rows == 3
    assert feasible(model, {z: 0.0, p: 0.0, dec.var: 0})
    assert feasible(model, {z: 0.0, p: 0.0, dec.var: 1})
    if u > 0:
        assert feasible(model, {z: u, p: u, dec.var: 1})
        assert not feasible(model, {z: u, p: u, dec.var: 0})
        assert not feasible(model, {z: u, p: 0.0, dec.var: 1})
    if l < 0:
        assert feasible(model, {z: l, p: 0.0, dec.var: 0})
        assert not feasible(model, {z: l, p: 0.0, dec.var: 1})
        assert not feasible(model, {z: l, p: l, dec.var: 0})


# -- switch ----------------------------------------------------------------


def switch_model(l, u):
    model = MIPModel()
    x = model.add_var(l, u, name="x")
    a = model.add_binary("a")
    y = encode_switch(model, x, BinDecision(var=a), name="y")
    return model, x, a, y


def test_switch_free_semantics():
    model, x, a, y = switch_model(-2.0, 3.0)
    assert feasible(model, {x: 2.0, a: 1, y: 2.0})
    assert not feasible(model, {x: 2.0, a: 1, y: 0.0})
    assert feasible(model, {x: 2.0, a: 0, y: 0.0})
    assert not feasible(model, {x: -1.0, a: 0, y: -1.0})
    assert feasible(model, {x: -1.0, a: 0, y: 0.0})
    assert feasible(model, {x: -1.0, a: 1, y: -1.0})


def test_switch_fixed_single_equality():
    model = MIPModel()
    x = model.add_var(0.5, 2.0, name="x")
    n0 = model.num_constraints
    y = encode_switch(model, x, BinDecision(fixed=1), name="y")
    assert model.num_constraints == n0 + 1
    assert feasible(model, {x: 1.5, y: 1.5})
    assert not feasible(model, {x: 1.5, y: 0.0})
    y0 = encode_switch(model, x, BinDecision(fixed=0), name="y0")
    assert feasible(model, {x: 1.5, y: 1.5, y0: 0.0})


# -- abs --------------------------------------------------------------------


def test_abs_at_zero_both_branches():
    model = MIPModel()
    x = model.add_var(-1.0, 1.0, name="x")
    y, a = encode_abs(model, x)
    assert feasible(model, {x: 0.0, y: 0.0, a: 0})
    assert feasible(model, {x: 0.0, y: 0.0, a: 1})
    assert not feasible(model, {x: 0.0, y: 0.5, a: 0})


def test_abs_unique_value_by_enumeration():
    model = MIPModel()
    x = model.add_var(-3.0, 2.0, name="x")
    y, a = encode_abs(model, x)
    vals = []
    for av in (0.0, 1.0):
        rng = value_range(model, y, {x: -1.5, a: av})
        if rng is not None:
            lo, hi = rng
            assert lo == pytest.approx(hi, abs=1e-8)
            vals.append(lo)
    assert vals == [pytest.approx(1.5)]  # only a=1 feasible, y forced to 1.5


def test_abs_sign_fixed_degenerates():
    model = MIPModel()
    x = model.add_var(0.0, 2.0, name="x")
    nbin = len(model.binary_vars)
    y, a = encode_abs(model, x)
    assert a is None
    assert len(model.binary_vars) == nbin
    assert feasible(model, {x: 1.2, y: 1.2})
    assert not feasible(model, {x: 1.2, y: -1.2})


def test_abs_random_graph_check():
    rng = np.random.Generator(np.random.Philox(key=9))
    model = MIPModel()
    x = model.add_var(-2.0, 5.0, name="x")
    y, a = encode_abs(model, x)
    for _ in range(50):
        xv = float(rng.uniform(-2, 5))
        av = 1.0 if xv < 0 else 0.0
        assert feasible(model, {x: xv, y: abs(xv), a: av})
        assert not feasible(model, {x: xv, y: abs(xv) + 0.01, a: av}, tol=1e-5)
        if xv != 0:
            assert not feasible(model, {x: xv, y: -abs(xv), a: 1 - av}, tol=1e-5)


# -- max ---------------------------------------------------------------------


def test_max_single_var_is_identity():
    model = MIPModel()
    x = model.add_var(0.0, 3.0, name="x")
    t, steps = encode_max(model, [x])
    assert t == x and steps == []


def test_max_fixed_pair():
    model = MIPModel()
    xs = [model.add_var(0.0, 5.0, name=f"x{i}") for i in range(2)]
    t, _ = encode_max(model, xs)
    rng = value_range(model, t, {xs[0]: 1.0, xs[1]: 3.0})
    assert rng[0] == pytest.approx(3.0, abs=1e-8)
    assert rng[1] == pytest.approx(3.0, abs=1e-8)


def test_max_random_triples_lp_oracle():
    rng = np.random.Generator(np.random.Philox(key=11))
    model = MIPModel()
    xs = [model.add_var(-4.0, 4.0, name=f"x{i}") for i in range(3)]
    t, _ = encode_max(model, xs)
    for _ in range(15):
        vals = rng.uniform(-4, 4, size=3)
        lo, hi = value_range(model, t, dict(zip(xs, vals)))
        assert lo == pytest.approx(max(vals), abs=1e-7)
        assert hi == pytest.approx(max(vals), abs=1e-7)


# -- cross-norm polytope ----------------------------------------------------


def cross_ball_feasible(z):
    model = MIPModel()
    zv, zp, zn = encode_dual_ball(model, len(z), "cross")
    prob = model.to_lp_problem()
    lo = prob.lo.copy()
    hi = prob.hi.copy()
    for var, val in zip(zv, z):
        lo[var] = hi[var] = val
    sol = lp.SimplexSolver(
        lp.LPProblem(prob.objective, prob.a, prob.relations, prob.rhs, lo, hi)
    ).solve()
    return sol.status == lp.OPTIMAL


def test_cross_ball_members():
    assert cross_ball_feasible([1.0, 0.0, 0.0])        # e_1
    assert cross_ball_feasible([1.0, -1.0, 0.0])       # e_1 - e_2
    assert cross_ball_feasible([0.0, 0.0, 0.0])        # hull contains 0
    assert not cross_ball_feasible([-1.0, 0.0, 0.0])   # -e_1 violates sum+ >= sum-
    assert not cross_ball_feasible([1.0, 1.0, 0.0])    # sum of z+ exceeds 1


# -- full model ---------------------------------------------------------------


def test_lipmip_model_affine_lp_equals_norm():
    # every ReLU sign fixed -> pure LP, optimum = ||w||_1 for alpha = linf
    w = np.array([1.0, -2.5, 0.5])
    net = affine_network(w, b=0.3, bound=2.0)
    box = Hyperbox.from_center_radius(np.zeros(3), 1.0)
    prob = build_lipmip_model(net, box, alpha="linf")
    assert prob.model.binary_vars == []
    sol = lp.solve_lp(prob.model.to_lp_problem())
    assert sol.status == lp.OPTIMAL
    assert sol.objective_value == pytest.approx(np.abs(w).sum(), abs=1e-9)
    prob1 = build_lipmip_model(net, box, alpha="l1")
    sol1 = lp.solve_lp(prob1.model.to_lp_problem())
    assert sol1.objective_value == pytest.approx(np.abs(w).max(), abs=1e-9)


def test_feasible_set_contains_chain_rule_points():
    rng = np.random.Generator(np.random.Philox(key=21))
    for seed in (0, 1):
        net = random_he([3, 5, 4, 1], seed=seed)
        box = Hyperbox.from_center_radius(np.zeros(3), 1.0)
        for alpha in ("linf", "l1"):
            prob = build_lipmip_model(net, box, alpha=alpha)
            for _ in range(25):
                x = rng.uniform(box.l, box.u)
                point = feasible_assignment(prob, x, ALWAYS_ZERO)
                assert prob.model.check_point(point, tol=1e-7) == []
                jac = chain_rule_jacobian(net, x, ALWAYS_ZERO)
                expect = norms.dual_vec_norm(jac[0], alpha)
                objective = sum(c * point[v] for v, c in prob.model.objective.items())
                assert objective == pytest.approx(expect, abs=1e-9)


def test_feasible_set_tie_rules_at_identity_zero():
    net = identity_network()
    box = Hyperbox([-1.0], [1.0])
    prob = build_lipmip_model(net, box, alpha="linf")
    for a in (0, 1):
        for b in (0, 1):
            rule = ZeroRule.per_neuron({(0, 0): a, (0, 1): b})
            point = feasible_assignment(prob, [0.0], rule)
            assert prob.model.check_point(point, tol=1e-9) == []
            objective = sum(c * point[v] for v, c in prob.model.objective.items())
            assert objective == pytest.approx(2.0 - a - b)


def test_rounded_pattern_value_treats_failed_lp_as_miss(monkeypatch):
    net = random_he([3, 5, 4, 1], seed=0)
    box = Hyperbox.from_center_radius(np.zeros(3), 1.0)
    prob = build_lipmip_model(net, box, alpha="linf")
    point = feasible_assignment(prob, np.full(3, 0.3), ALWAYS_ZERO)
    assert prob.rounded_pattern_value(point) is not None
    monkeypatch.setattr(lp.SimplexSolver, "solve", lambda self, *args, **kwargs:
                        lp.LPSolution(lp.NUMERICAL_FAILURE, None, np.nan, 0))
    assert prob.rounded_pattern_value(point) is None


LAYOUT_CASES = [
    ([3, 5, 4, 1], 0, "linf", None),
    ([3, 5, 4, 1], 1, "l1", None),
    ([3, 4, 4, 4, 1], 2, "linf", None),
    ([3, 6, 5, 3], 4, "linf", "cross"),
    ([2, 5, 4, 2], 3, "l1", "linf"),
    ([2, 5, 4, 2], 5, "linf", "l1"),
]


@pytest.mark.parametrize("arch,seed,alpha,output_norm", LAYOUT_CASES)
def test_layout_ids_partition_variables(arch, seed, alpha, output_norm):
    net = random_he(arch, seed=seed)
    box = Hyperbox.from_center_radius(np.zeros(arch[0]), 1.0)
    prob = build_lipmip_model(net, box, alpha=alpha, output_norm=output_norm)
    blocks = [prob.input_vars, prob.z_ball_vars, prob.z_pos_vars, prob.z_neg_vars,
              prob.grad_vars, prob.abs_vars, prob.abs_sign_vars]
    for name in ("pre_vars", "neuron_bins", "post_vars", "bwd_value_vars",
                 "bwd_switch_vars"):
        layers = getattr(prob, name)
        assert len(layers) == net.depth
        blocks.extend(layers)
    blocks.append([v for step in prob.max_fold_steps for v in step[1:] if v is not None])
    ids = np.concatenate([np.asarray(b, dtype=int) for b in blocks])
    ids = ids[ids >= 0]
    assert sorted(ids.tolist()) == list(range(prob.model.num_vars))
    for v, (i, j) in prob.binary_map.items():
        assert prob.neuron_bins[i][j] == v and v in prob.model.binary_vars


# ``refutes``: whether the draws reach a neuron that interval analysis
# decides beyond the fixes.  On the l1 net every such neuron is already
# decided at build time by the exact ReLU image.
@pytest.mark.parametrize("arch,seed,alpha,output_norm,refutes", [
    ([3, 5, 4, 1], 2, "linf", None, True),
    ([3, 5, 4, 1], 1, "l1", None, False),
    ([3, 6, 5, 3], 3, "linf", "cross", True),
], ids=["arch0-2-linf-None", "arch1-1-l1-None", "arch2-3-linf-cross"])
def test_tightened_bounds_contain_consistent_points(arch, seed, alpha, output_norm,
                                                    refutes):
    rng = np.random.Generator(np.random.Philox(key=seed))
    net = random_he(arch, seed=seed)
    box = Hyperbox.from_center_radius(np.full(arch[0], 0.5), 0.5)
    plain = build_lipmip_model(net, box, alpha=alpha, output_norm=output_norm)
    # also on the root-tightened rebuild, whose boxes node tightening intersects
    for prob in (plain, tighten_root(plain)[0]):
        bins = sorted(prob.binary_map)
        first_layer = [v for v in bins if prob.binary_map[v][0] == 0]
        gens = norms.dual_ball_generators(net.output_dim, output_norm) if output_norm else None
        refuted = narrowed = 0
        continuous = np.array(prob.model.kinds) != mip.BINARY
        for _ in range(30):
            x = rng.uniform(box.l, box.u)
            z = None if gens is None else gens[rng.integers(len(gens))]
            point = feasible_assignment(prob, x, ALWAYS_ZERO, z)
            chosen = rng.choice(bins, size=int(rng.integers(1, len(bins) + 1)), replace=False)
            for subset in (chosen, first_layer):
                fixes = {int(v): int(round(point[v])) for v in subset}
                lo, hi, implied = prob.tightened_bounds(fixes)
                assert np.all(point >= lo - 1e-9) and np.all(point <= hi + 1e-9)
                narrowed += bool(np.any(((lo > prob.model.lo) | (hi < prob.model.hi))[continuous]))
                for v, val in (fixes | implied).items():
                    assert point[v] == val == lo[v] == hi[v]
                    i, j = prob.binary_map[v]
                    pre = prob.pre_vars[i][j]
                    assert (lo[pre] >= 0.0) if val else (hi[pre] <= 0.0)
                # an interval-decided neuron fixed the other way is refuted outright
                for v in implied.keys() - fixes.keys():
                    assert prob.tightened_bounds(fixes | {v: 1 - implied[v]}) is None
                    refuted += 1
        assert narrowed > 0  # the fixes tighten some continuous bound
        assert (refuted > 0) == refutes


# Every block of the model is declared with the boxes of one interval pass,
# the same pass node tightening runs, so tightening with no fixes changes no
# bound.  On the vector cases this needs the model's backward seed to be
# ``head_seed_box``, strictly inside [-1, 1]^m for the linf and cross balls.
@pytest.mark.parametrize("arch,alpha,output_norm", [
    ([3, 5, 4, 1], "linf", None),
    ([3, 5, 4, 1], "l1", None),
    ([3, 6, 5, 3], "linf", "l1"),
    ([3, 6, 5, 3], "linf", "linf"),
    ([3, 6, 5, 3], "l1", "cross"),
])
def test_own_root_tightening_changes_nothing(arch, alpha, output_norm):
    net = random_he(arch, seed=4)
    box = Hyperbox.from_center_radius(np.full(arch[0], 0.5), 0.5)
    plain = build_lipmip_model(net, box, alpha=alpha, output_norm=output_norm)
    tight = tighten_root(plain)[0]
    assert (tight.model.lo, tight.model.hi) != (plain.model.lo, plain.model.hi)
    for prob in (plain, tight):
        lo, hi, implied = prob.tightened_bounds({})
        assert lo.tolist() == prob.model.lo and hi.tolist() == prob.model.hi
        assert implied == {}


def test_identity_relaxation_bounds_mip():
    net = identity_network()
    prob = build_lipmip_model(net, Hyperbox([-1.0], [1.0]), alpha="linf")
    relaxed = lp.solve_lp(prob.model.to_lp_problem())
    assert relaxed.status == lp.OPTIMAL
    # integral optimum is 2 (tie point); the relaxation can only be larger
    assert relaxed.objective_value >= 2.0 - 1e-9


def test_model_size_linear_in_neurons():
    for arch in ([3, 6, 1], [4, 8, 8, 1], [5, 10, 10, 10, 1]):
        net = random_he(arch, seed=0)
        box = Hyperbox.from_center_radius(np.zeros(arch[0]), 1.0)
        prob = build_lipmip_model(net, box, alpha="linf")
        budget = 20 * (net.total_neurons + net.input_dim)
        assert prob.model.num_constraints <= budget


def test_input_constraints_shrink_optimum():
    net = random_he([2, 4, 1], seed=3)
    box = Hyperbox.from_center_radius(np.zeros(2), 1.0)
    free = build_lipmip_model(net, box, alpha="linf")
    cut = build_lipmip_model(
        net, box, alpha="linf",
        input_constraints=[({0: 1.0, 1: 1.0}, "<=", -1.5)],
    )
    v_free = lp.solve_lp(free.model.to_lp_problem()).objective_value
    v_cut = lp.solve_lp(cut.model.to_lp_problem()).objective_value
    assert v_cut <= v_free + 1e-9


def test_input_constraints_survive_root_tightening():
    # a rebuild keeps the polytope, and layer 0 is LP-tightened over it
    net = random_he([2, 4, 1], seed=3)
    box = Hyperbox.from_center_radius(np.zeros(2), 1.0)
    cons = [({0: 1.0, 1: 1.0}, "<=", -1.5)]
    plain = build_lipmip_model(net, box, alpha="linf", input_constraints=cons)
    tight, records = tighten_root(plain)
    assert tight.input_constraints == plain.input_constraints
    assert records[0].lps > 0 and records[0].mean_width_after < records[0].mean_width_before
    values = [bnb.solve_mip(plain), bnb.solve_mip(plain.model)]
    assert [r.status for r in values] == [bnb.EXACT, bnb.EXACT]
    assert values[0].incumbent_value == pytest.approx(values[1].incumbent_value, rel=1e-9)
    inside = feasible_assignment(tight, np.array([-0.9, -0.8]), ALWAYS_ZERO)
    assert tight.model.check_point(inside, tol=1e-7) == []
    outside = feasible_assignment(tight, np.array([0.5, 0.5]), ALWAYS_ZERO)
    assert any(v.startswith("row 0:") for v in tight.model.check_point(outside, tol=1e-7))


@pytest.mark.parametrize("seed", [0, 2, 5])
def test_input_constraints_bound_the_heuristics(seed):
    # incumbents must come from inside the polytope: the witness LP of the
    # rounded-pattern heuristic carries the input constraints too
    net = random_he([2, 6, 6, 1], seed=seed)
    box = Hyperbox.from_center_radius(np.zeros(2), 1.0)
    prob = build_lipmip_model(net, box, alpha="linf",
                              input_constraints=[({0: 1.0, 1: 1.0}, "<=", -1.2)])
    xs = np.random.Generator(np.random.Philox(key=seed)).uniform(-1.0, 1.0, size=(20000, 2))
    xs = xs[xs.sum(axis=1) <= -1.2]
    sampled = max(np.abs(chain_rule_jacobian(net, x, ALWAYS_ZERO)[0]).sum() for x in xs)
    res = bnb.solve_mip(prob)
    assert res.status == bnb.EXACT
    assert res.incumbent_point.sum() <= -1.2 + 1e-7
    assert res.incumbent_value == pytest.approx(sampled, rel=1e-9)


def test_unbounded_domain_rejected():
    net = identity_network()
    with pytest.raises(ValueError):
        Hyperbox([-np.inf], [1.0])
    with pytest.raises(mip.ModelError):
        build_lipmip_model(net, Hyperbox([-1.0, -1.0], [1.0, 1.0]))
