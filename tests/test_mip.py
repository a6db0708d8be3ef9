import itertools

import numpy as np
import pytest

from lipcert import interval, lp, mip, norms
from lipcert.bnb import tighten_root
from lipcert.interval import Hyperbox
from lipcert.mip import (
    MIPModel,
    build_lipmip_model,
    encode_abs,
    encode_affine,
    encode_dual_ball,
    encode_relu,
    encode_signed_max,
    encode_switch,
    feasible_assignment,
)
from lipcert.network import (
    ALWAYS_ONE,
    ALWAYS_ZERO,
    OFF,
    ON,
    ZeroRule,
    affine_network,
    chain_rule_jacobian,
    identity_network,
    random_he,
)


def violations(model, point, tol=1e-6):
    """The ids and rows of the exported model that a full assignment of the
    ids violates, each row within tol (1 + |rhs|)."""
    point = np.asarray(point, dtype=float)
    p = model.to_lp_problem()
    out = [f"id {i}" for i in np.flatnonzero((point < p.lo - tol) | (point > p.hi + tol))]
    out += [f"binary {i}" for i in model.binary_vars if min(point[i], 1 - point[i]) > tol]
    act, scale = p.a @ point, tol * (1.0 + np.abs(p.rhs))
    rel = np.array(p.relations)
    bad = np.where(rel == "<=", act > p.rhs + scale, np.where(
        rel == ">=", act < p.rhs - scale, np.abs(act - p.rhs) > scale))
    return out + [f"row {k}" for k in np.flatnonzero(bad)]


def columns(model):
    """The ids of the model's LP columns: ``lp_boxes`` of the ids themselves."""
    ids = np.arange(model.num_vars, dtype=float)
    return model.lp_boxes(ids, ids)[0].astype(int)


def feasible(model, assignment, tol=1e-7):
    point = np.zeros(model.num_vars)
    for var, val in assignment.items():
        point[var] = val
    return violations(model, point, tol) == []


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
    xs = [model.add_var(-1, 1) for _ in range(2)]
    box = interval.push_affine(Hyperbox([-1, -1], [1, 1]), np.eye(2))
    out = encode_affine(model, xs, np.eye(2), None, box)
    assert feasible(model, {xs[0]: 0.3, xs[1]: -0.7, out[0]: 0.3, out[1]: -0.7})
    assert not feasible(model, {xs[0]: 0.3, xs[1]: -0.7, out[0]: 0.4, out[1]: -0.7})


def test_encode_affine_bounds_by_interval():
    model = MIPModel()
    xs = [model.add_var(0, 1) for _ in range(2)]
    w, b = np.array([[1.0, 1.0]]), np.array([-1.0])
    out = encode_affine(model, xs, w, b, interval.push_affine(Hyperbox([0, 0], [1, 1]), w, b))
    assert model.lo[out[0]] == pytest.approx(-1.0)
    assert model.hi[out[0]] == pytest.approx(1.0)


def test_encode_affine_lp_feasibility_oracle():
    rng = np.random.Generator(np.random.Philox(key=1))
    model = MIPModel()
    xs = [model.add_var(-2, 2) for _ in range(3)]
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


def sign_state(l, u):
    """The interval pass's sign state of a neuron whose box is [l, u]."""
    return interval.push_conditional(Hyperbox([l], [u]))[0]


def relu_model(l, u):
    model = MIPModel()
    z = model.add_var(l, u)
    before = model.num_constraints
    p, a = encode_relu(model, z, sign_state(l, u))
    return model, z, p, a, model.num_constraints - before


def test_relu_integral_graph():
    # with the binary fixed, the feasible p at each z is exactly {relu(z)}
    model, z, p, a, rows = relu_model(-2.0, 3.0)
    assert rows == 3 and model.binary_vars == [a] == [p - 1]
    assert (model.lo[p], model.hi[p]) == (0.0, 3.0)
    for zv in np.linspace(-2.0, 3.0, 11):
        seen = []
        for av in (0.0, 1.0):
            rng = value_range(model, p, {z: zv, a: av})
            if rng is None:
                assert (av == 1.0 and zv < 0) or (av == 0.0 and zv > 0)
                continue
            assert rng[0] == pytest.approx(max(zv, 0.0), abs=1e-9)
            assert rng[1] == pytest.approx(max(zv, 0.0), abs=1e-9)
            seen.append(av)
        assert seen == ([0.0, 1.0] if zv == 0 else [float(zv > 0)])


def test_relu_relaxation_keeps_the_triangle():
    # at a fractional binary every LP point has p >= max(0, z)
    model, z, p, a, _ = relu_model(-2.0, 3.0)
    prob = model.to_lp_problem()
    cmin = np.zeros(model.num_vars)
    cmin[p] = -1.0
    feasible_lps = 0
    for zv in np.linspace(-2.0, 3.0, 11):
        for av in (0.1, 0.25, 0.5, 0.75, 0.9):
            lo, hi = np.array(model.lo), np.array(model.hi)
            lo[z] = hi[z] = zv
            lo[a] = hi[a] = av
            sol = lp.SimplexSolver(lp.LPProblem(prob.objective, prob.a, prob.relations,
                                                prob.rhs, lo, hi)).solve(objective=cmin)
            if sol.status == lp.OPTIMAL:
                feasible_lps += 1
                assert -sol.objective_value >= max(zv, 0.0) - 1e-9
    assert feasible_lps > 0


def test_conditional_fixed_positive():
    # l > 0 fixes the forward sign ON: p is z itself, without a binary or a row
    model, z, p, a, rows = relu_model(1.0, 2.0)
    assert a == -1 and rows == 0 and model.binary_vars == []
    assert p == z and (model.lo[p], model.hi[p]) == (1.0, 2.0)


def test_conditional_fixed_negative():
    # u < 0 fixes the forward sign OFF: p is the constant 0, without a
    # binary, a row or an LP column
    model, z, p, a, rows = relu_model(-2.0, -1.0)
    assert a == -1 and rows == 0 and model.binary_vars == []
    assert (model.lo[p], model.hi[p]) == (0.0, 0.0)
    assert model.num_columns == 1 and model.values([1.0])[p] == 0.0


@pytest.mark.parametrize("l,u", [(0.0, 2.0), (-2.0, 0.0), (0.0, 0.0)])
def test_relu_touching_zero_keeps_both_choices(l, u):
    # the sign test is strict: a box touching 0 keeps its binary, and z = 0
    # is feasible under both choices
    model, z, p, a, rows = relu_model(l, u)
    assert a >= 0 and rows == 3
    assert feasible(model, {z: 0.0, p: 0.0, a: 0})
    assert feasible(model, {z: 0.0, p: 0.0, a: 1})
    if u > 0:
        assert feasible(model, {z: u, p: u, a: 1})
        assert not feasible(model, {z: u, p: u, a: 0})
        assert not feasible(model, {z: u, p: 0.0, a: 1})
    if l < 0:
        assert feasible(model, {z: l, p: 0.0, a: 0})
        assert not feasible(model, {z: l, p: 0.0, a: 1})
        assert not feasible(model, {z: l, p: l, a: 0})


# -- switch ----------------------------------------------------------------


def switch_model(l, u):
    model = MIPModel()
    x = model.add_var(l, u)
    a = model.add_binary()
    y = encode_switch(model, x, sign_state(l, u), a)
    return model, x, a, y


def test_switch_free_semantics():
    model, x, a, y = switch_model(-2.0, 3.0)
    assert feasible(model, {x: 2.0, a: 1, y: 2.0})
    assert not feasible(model, {x: 2.0, a: 1, y: 0.0})
    assert feasible(model, {x: 2.0, a: 0, y: 0.0})
    assert not feasible(model, {x: -1.0, a: 0, y: -1.0})
    assert feasible(model, {x: -1.0, a: 0, y: 0.0})
    assert feasible(model, {x: -1.0, a: 1, y: -1.0})


def test_switch_fixed_is_an_alias_or_a_constant():
    # a fixed sign needs no row: ON returns x itself, OFF the constant 0
    model = MIPModel()
    x = model.add_var(0.5, 2.0)
    on = sign_state(0.5, 2.0)
    assert on == ON
    assert encode_switch(model, x, on, -1) == x
    off = sign_state(-2.0, -0.5)
    assert off == OFF
    y0 = encode_switch(model, x, off, -1)
    assert model.num_constraints == 0 and model.num_columns == 1
    assert (model.lo[y0], model.hi[y0]) == (0.0, 0.0)
    assert feasible(model, {x: 1.5, y0: 0.0})
    assert not feasible(model, {x: 1.5, y0: 0.5})


# -- abs --------------------------------------------------------------------


def test_abs_at_zero_both_branches():
    model = MIPModel()
    x = model.add_var(-1.0, 1.0)
    y, a = encode_abs(model, x)
    assert feasible(model, {x: 0.0, y: 0.0, a: 0})
    assert feasible(model, {x: 0.0, y: 0.0, a: 1})
    assert not feasible(model, {x: 0.0, y: 0.5, a: 0})


def test_abs_unique_value_by_enumeration():
    model = MIPModel()
    x = model.add_var(-3.0, 2.0)
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
    # a sign fixed by the bounds needs no binary: |x| is x itself, or the
    # affine quantity -x
    model = MIPModel()
    x = model.add_var(0.0, 2.0)
    nbin = len(model.binary_vars)
    y, a = encode_abs(model, x)
    assert a is None and y == x
    assert len(model.binary_vars) == nbin
    neg = model.add_var(-3.0, -1.0)
    y, a = encode_abs(model, neg)
    assert a is None and (model.lo[y], model.hi[y]) == (1.0, 3.0)
    assert len(model.binary_vars) == nbin and model.num_columns == 2
    assert feasible(model, {x: 1.2, neg: -1.5, y: 1.5})
    assert not feasible(model, {x: 1.2, neg: -1.5, y: 1.2})


def test_abs_random_graph_check():
    rng = np.random.Generator(np.random.Philox(key=9))
    model = MIPModel()
    x = model.add_var(-2.0, 5.0)
    y, a = encode_abs(model, x)
    for _ in range(50):
        xv = float(rng.uniform(-2, 5))
        av = 1.0 if xv < 0 else 0.0
        assert feasible(model, {x: xv, y: abs(xv), a: av})
        assert not feasible(model, {x: xv, y: abs(xv) + 0.01, a: av}, tol=1e-5)
        if xv != 0:
            assert not feasible(model, {x: xv, y: -abs(xv), a: 1 - av}, tol=1e-5)


# -- signed max ----------------------------------------------------------------


def test_signed_max_layout_and_rows():
    # binaries in variable order with + before -, then t in [0, U]
    model = MIPModel()
    xs = [model.add_var(-1.0, 3.0), model.add_var(-4.0, 2.0)]
    bins, t = encode_signed_max(model, xs)
    assert bins == model.binary_vars == [2, 3, 4, 5] and t == 6
    for b, (x, s), (coefs, _, _) in zip(bins, itertools.product(xs, (1.0, -1.0)),
                                        model.constraints[1:5]):
        assert coefs.keys() == {t, x, b} and coefs[x] == -s
    assert (model.lo[t], model.hi[t]) == (0.0, 4.0)
    assert model.num_constraints == 1 + 4 + 1


def test_signed_max_each_choice_bounds_t_by_its_option():
    model = MIPModel()
    xs = [model.add_var(-2.0, 3.0) for _ in range(2)]
    bins, t = encode_signed_max(model, xs)
    vals = (1.5, -2.0)
    options = [s * v for v in vals for s in (1.0, -1.0)]
    for b, option in zip(bins, options):
        rng = value_range(model, t, dict(zip(xs, vals)) | {b: 1.0})
        if option < 0:
            assert rng is None  # t >= 0 rules out a negative option
        else:
            assert rng[1] == pytest.approx(option, abs=1e-8)


def test_signed_max_random_triples_lp_oracle():
    # over every choice, the largest t is max_j |x_j|
    rng = np.random.Generator(np.random.Philox(key=11))
    model = MIPModel()
    xs = [model.add_var(-4.0, 4.0) for _ in range(3)]
    _, t = encode_signed_max(model, xs)
    for _ in range(15):
        vals = rng.uniform(-4, 4, size=3)
        _, hi = value_range(model, t, dict(zip(xs, vals)))
        assert hi == pytest.approx(np.abs(vals).max(), abs=1e-7)


@pytest.mark.parametrize("arch,seed,output_norm", [
    ([3, 5, 4, 1], 0, None),
    ([4, 6, 6, 1], 7, None),
    ([3, 6, 5, 3], 4, "cross"),
    ([2, 5, 4, 2], 3, "linf"),
])
def test_signed_max_at_feasible_assignments(arch, seed, output_norm):
    # t is max_j |g_j| at the model point of an input, and the first
    # maximizing option is the chosen one
    rng = np.random.Generator(np.random.Philox(key=seed))
    net = random_he(arch, seed=seed)
    box = Hyperbox.from_center_radius(np.zeros(arch[0]), 1.0)
    prob = build_lipmip_model(net, box, alpha="l1", output_norm=output_norm)
    assert prob.abs_vars.size == prob.abs_sign_vars.size == 0
    gens = norms.dual_ball_generators(net.output_dim, output_norm) if output_norm else None
    for _ in range(20):
        x = rng.uniform(box.l, box.u)
        z = None if gens is None else gens[rng.integers(len(gens))]
        point = feasible_assignment(prob, x, ALWAYS_ZERO, z)
        assert violations(prob.model, point, 1e-7) == []
        g = point[prob.grad_vars]
        assert point[prob.max_var] == np.abs(g).max()
        options = np.column_stack([g, -g]).ravel()
        chosen = np.flatnonzero(point[prob.choice_bins])
        assert chosen.tolist() == [np.flatnonzero(options == options.max())[0]]


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
                assert violations(prob.model, point, 1e-7) == []
                jac = chain_rule_jacobian(net, x, ALWAYS_ZERO)
                expect = np.abs(jac[0]).sum() if alpha == "linf" else np.abs(jac[0]).max()
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
            assert violations(prob.model, point, 1e-9) == []
            objective = sum(c * point[v] for v, c in prob.model.objective.items())
            assert objective == pytest.approx(2.0 - a - b)


def forward_assignments_match(prob, rng, draws=40) -> bool:
    """Whether sampled (x, v) assignments of a forward model are feasible
    and reach head . J(x) v."""
    box = prob.domain
    for _ in range(draws):
        x = rng.uniform(box.l, box.u)
        v = rng.uniform(-1.0, 1.0, box.dim)
        point = feasible_assignment(prob, x, ALWAYS_ZERO, v=v)
        if violations(prob.model, point, 1e-7):
            return False
        objective = sum(c * point[k] for k, c in prob.model.objective.items())
        if objective != pytest.approx(chain_rule_jacobian(prob.net, x)[0] @ v, abs=1e-9):
            return False
    return True


@pytest.mark.parametrize("arch,seed", [([8, 8, 8, 1], 3), ([9, 6, 5, 4, 1], 1)])
def test_forward_assignments_reach_the_directional_derivative(arch, seed):
    net = random_he(arch, seed=seed)
    box = Hyperbox.from_center_radius(np.full(arch[0], 0.5), 0.3)
    prob = build_lipmip_model(net, box)
    assert prob.encoding == mip.FORWARD
    assert prob.grad_vars.size == prob.abs_vars.size == 0
    rng = np.random.Generator(np.random.Philox(key=seed))
    for p in (prob, tighten_root(prob)[0]):
        assert forward_assignments_match(p, rng)
    with pytest.raises(ValueError, match="direction v"):
        feasible_assignment(prob, box.center)


def test_forward_switch_row_flipped_fails_the_assignments():
    # a mutant whose first tangent switch row (y >= t - u(1 - a)) points the
    # other way cuts off points the network attains
    net = random_he([8, 8, 8, 1], seed=3)
    box = Hyperbox.from_center_radius(np.full(8, 0.5), 0.3)
    prob = build_lipmip_model(net, box)
    switches = {int(v) for vs in prob.tangent_switch_vars for v in vs}
    k = next(k for k, (coefs, rel, _) in enumerate(prob.model.constraints)
             if rel == ">=" and switches & coefs.keys() and len(coefs) == 3)
    coefs, _, rhs = prob.model.constraints[k]
    prob.model.constraints[k] = (coefs, "<=", rhs)
    assert not forward_assignments_match(prob, np.random.Generator(np.random.Philox(key=3)))


@pytest.mark.parametrize("n0,alpha,output_norm,encoding", [
    (7, "linf", None, mip.BACKWARD),
    (8, "linf", None, mip.FORWARD),
    (12, "linf", None, mip.FORWARD),
    (8, "l1", None, mip.BACKWARD),
    (8, "linf", "l1", mip.BACKWARD),
    (8, "l1", "cross", mip.BACKWARD),
    (2, "l1", "linf", mip.BACKWARD),
])
def test_encoding_rule(n0, alpha, output_norm, encoding):
    assert mip.FORWARD_MIN_INPUTS == 8
    assert mip.choose_encoding(n0, alpha, output_norm) == encoding
    net = random_he([n0, 4, 1 if output_norm is None else 2], seed=0)
    box = Hyperbox.from_center_radius(np.zeros(n0), 1.0)
    prob = build_lipmip_model(net, box, alpha=alpha, output_norm=output_norm)
    assert prob.encoding == encoding
    assert prob.rebuild(prob.pre_boxes).encoding == encoding
    # the LipLP keyword keeps the backward encoding, through rebuilds too
    back = build_lipmip_model(net, box, alpha=alpha, output_norm=output_norm, backward=True)
    assert back.encoding == back.rebuild(back.pre_boxes).encoding == mip.BACKWARD


def test_rounded_pattern_value_treats_failed_lp_as_miss(monkeypatch):
    net = random_he([3, 5, 4, 1], seed=0)
    box = Hyperbox.from_center_radius(np.zeros(3), 1.0)
    prob = build_lipmip_model(net, box, alpha="linf")
    point = feasible_assignment(prob, np.full(3, 0.3), ALWAYS_ZERO)
    assert prob.rounded_pattern_value(point) is not None
    monkeypatch.setattr(lp.SimplexSolver, "solve", lambda self, *args, **kwargs:
                        lp.LPSolution(lp.NUMERICAL_FAILURE, None, np.nan, 0))
    # answers are kept per problem and pattern: a new problem asks the LP
    fresh = build_lipmip_model(net, box, alpha="linf")
    assert fresh.rounded_pattern_value(point) is None


def test_rounded_pattern_value_kept_per_pattern(monkeypatch):
    # a rounded pattern seen before costs no LP and gives the same answer;
    # another point with the same rounding is the same pattern
    net = random_he([3, 5, 4, 1], seed=0)
    box = Hyperbox.from_center_radius(np.zeros(3), 1.0)
    prob = build_lipmip_model(net, box, alpha="linf")
    point = feasible_assignment(prob, np.full(3, 0.3), ALWAYS_ZERO)
    first = prob.rounded_pattern_value(point)
    assert first is not None
    solves = []
    monkeypatch.setattr(lp.SimplexSolver, "solve", lambda *args, **kwargs: solves.append(1))
    nudged = point.copy()
    bins = [b for bins in prob.neuron_bins for b in bins[bins >= 0]]
    nudged[bins] = np.where(point[bins] >= 0.5, 0.9, 0.1)
    for p in (point, nudged):
        again = prob.rounded_pattern_value(p)
        assert again[0] == first[0] and np.array_equal(again[1], first[1])
    assert not solves


def test_rounded_pattern_value_solves_no_lp_that_cannot_win(monkeypatch):
    # the pattern's value comes first; its LP runs only when the value beats
    # the incumbent, once per pattern
    net = random_he([3, 5, 4, 1], seed=0)
    box = Hyperbox.from_center_radius(np.zeros(3), 1.0)
    prob = build_lipmip_model(net, box, alpha="linf")
    point = feasible_assignment(prob, np.full(3, 0.3), ALWAYS_ZERO)
    solves = []
    original = lp.SimplexSolver.solve

    def counted(*args, **kwargs):
        solves.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(lp.SimplexSolver, "solve", counted)
    assert prob.rounded_pattern_value(point, np.inf) is None
    assert not solves
    value, x = prob.rounded_pattern_value(point, -np.inf)
    assert len(solves) == 1
    assert prob.rounded_pattern_value(point, value) is None
    again = prob.rounded_pattern_value(point, value - 1e-9)
    assert again[0] == value and np.array_equal(again[1], x)
    assert len(solves) == 1


def random_direction(prob, rng):
    """A direction v in [-1, 1]^n0 for a forward model's assignment, None
    (and no draw) for a backward one."""
    if prob.encoding == mip.BACKWARD:
        return None
    return rng.uniform(-1.0, 1.0, prob.net.input_dim)


LAYOUT_CASES = [
    ([3, 5, 4, 1], 0, "linf", None),
    ([3, 5, 4, 1], 1, "l1", None),
    ([3, 4, 4, 4, 1], 2, "linf", None),
    ([3, 6, 5, 3], 4, "linf", "cross"),
    ([2, 5, 4, 2], 3, "l1", "linf"),
    ([2, 5, 4, 2], 5, "linf", "l1"),
    ([8, 5, 4, 1], 1, "linf", None),
    ([9, 4, 4, 3, 1], 2, "linf", None),
]


@pytest.mark.parametrize("arch,seed,alpha,output_norm", LAYOUT_CASES)
def test_layout_ids_partition_variables(arch, seed, alpha, output_norm):
    # the blocks cover every id; two blocks share an id exactly where it is
    # an alias: an ON neuron's pre- and post-activation, backward value and
    # switch, or tangent and switch, and a gradient entry of fixed sign >= 0
    # and its absolute value
    net = random_he(arch, seed=seed)
    box = Hyperbox.from_center_radius(np.full(arch[0], 0.5), 0.25)
    prob = build_lipmip_model(net, box, alpha=alpha, output_norm=output_norm)
    blocks = [prob.input_vars, prob.z_ball_vars, prob.z_pos_vars, prob.z_neg_vars,
              prob.grad_vars, prob.abs_vars, prob.abs_sign_vars, prob.choice_bins,
              [prob.max_var], prob.direction_vars]
    for name in ("pre_vars", "neuron_bins", "post_vars", "bwd_value_vars",
                 "bwd_switch_vars", "tangent_vars", "tangent_switch_vars"):
        layers = getattr(prob, name)
        assert len(layers) == net.depth
        blocks.extend(layers)
    ids = np.concatenate([np.asarray(b, dtype=int) for b in blocks])
    counts = np.bincount(ids[ids >= 0], minlength=prob.model.num_vars)
    aliases = []
    for i in range(net.depth):
        on = prob.pre_boxes[i].l > 0.0
        pairs = [(prob.pre_vars[i], prob.post_vars[i]), (prob.bwd_value_vars[i],
                 prob.bwd_switch_vars[i]), (prob.tangent_vars[i], prob.tangent_switch_vars[i])]
        for a, b in pairs:
            if a.size:
                assert np.array_equal(a == b, on)
                aliases.extend(a[on])
    if prob.abs_vars.size:
        same = prob.abs_vars == prob.grad_vars
        assert np.array_equal(same, np.array(prob.model.lo)[prob.grad_vars] >= 0.0)
        aliases.extend(prob.grad_vars[same])
    assert aliases  # the cases exercise them
    counts -= np.bincount(np.array(aliases, dtype=int), minlength=counts.size)
    assert np.all(counts == 1)
    for v, (i, j) in prob.binary_map.items():
        assert prob.neuron_bins[i][j] == v and v in prob.model.binary_vars


@pytest.mark.parametrize("arch,seed,alpha,output_norm", [
    ([3, 8, 8, 1], 1, "linf", None),
    ([3, 8, 8, 1], 1, "l1", None),
    ([3, 8, 8, 3], 4, "linf", "cross"),
    ([8, 8, 8, 1], 3, "linf", None),
])
def test_layers_below_contains_feasible_prefixes(arch, seed, alpha, output_norm):
    # the LP of the layers below each hidden layer is a prefix of the
    # relaxation: its first columns and the rows declared up to the layer's
    # last pre-activation, which it expresses; every feasible point's
    # columns satisfy it under the model's boxes
    rng = np.random.Generator(np.random.Philox(key=seed))
    net = random_he(arch, seed=seed)
    box = Hyperbox.from_center_radius(np.full(arch[0], 0.5), 0.5)
    plain = build_lipmip_model(net, box, alpha=alpha, output_norm=output_norm)
    gens = norms.dual_ball_generators(net.output_dim, output_norm) if output_norm else None
    for prob in (plain, tighten_root(plain)[0]):
        model = prob.model
        full = model.relaxation()
        col_lo, col_hi, row_lo, row_hi = model.lp_boxes(model.lo, model.hi)
        below = [prob.layers_below(i) for i in range(net.depth)]
        for i, sub in enumerate(below):
            n, m = sub.num_vars, sub.num_constraints
            assert n == np.count_nonzero(columns(model) <= prob.pre_vars[i][-1])
            assert np.all(sub.objective == 0.0)
            assert np.array_equal(sub.a, full.a[:m, :n]) and not full.a[:m, n:].any()
            assert sub.relations == full.relations[:m]
            for v in prob.pre_vars[i]:
                assert not model.linear({int(v): 1.0})[0][n:].any()
        for _ in range(20):
            x = rng.uniform(box.l, box.u)
            z = None if gens is None else gens[rng.integers(len(gens))]
            point = feasible_assignment(prob, x, ALWAYS_ZERO, z, random_direction(prob, rng))
            cols = model.lp_boxes(point, point)[0]
            for sub in below:
                n, m = sub.num_vars, sub.num_constraints
                assert np.all(cols[:n] >= col_lo[:n] - 1e-9)
                assert np.all(cols[:n] <= col_hi[:n] + 1e-9)
                act = sub.a @ cols[:n]
                assert np.all(act >= row_lo[:m] - 1e-9) and np.all(act <= row_hi[:m] + 1e-9)


# ``refutes``: whether the draws reach a neuron that interval analysis
# decides beyond the fixes.  On the l1 net every such neuron is already
# decided at build time by the exact ReLU image.
@pytest.mark.parametrize("arch,seed,alpha,output_norm,refutes", [
    ([3, 5, 4, 1], 2, "linf", None, True),
    ([3, 5, 4, 1], 1, "l1", None, False),
    ([3, 6, 5, 3], 3, "linf", "cross", True),
    ([8, 6, 5, 1], 0, "linf", None, True),
], ids=["arch0-2-linf-None", "arch1-1-l1-None", "arch2-3-linf-cross", "arch3-0-linf-forward"])
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
        continuous = np.ones(prob.model.num_vars, dtype=bool)
        continuous[prob.model.binary_vars] = False
        for _ in range(30):
            x = rng.uniform(box.l, box.u)
            z = None if gens is None else gens[rng.integers(len(gens))]
            point = feasible_assignment(prob, x, ALWAYS_ZERO, z, random_direction(prob, rng))
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
    ([8, 6, 5, 1], "linf", None),
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


def test_unbounded_domain_rejected():
    net = identity_network()
    with pytest.raises(ValueError):
        Hyperbox([-np.inf], [1.0])
    with pytest.raises(mip.ModelError):
        build_lipmip_model(net, Hyperbox([-1.0, -1.0], [1.0, 1.0]))


def test_build_rejects_norms_that_do_not_fit_the_network():
    box = Hyperbox.from_center_radius(np.zeros(3), 1.0)
    scalar, vector = random_he([3, 4, 1], seed=0), random_he([3, 4, 2], seed=0)
    with pytest.raises(ValueError, match="unknown input norm 'l2'"):
        build_lipmip_model(scalar, box, alpha="l2")
    for net, output_norm in ((vector, None), (vector, "l7"), (scalar, "l7")):
        with pytest.raises(ValueError, match=f"output norm {output_norm!r} does not fit"):
            build_lipmip_model(net, box, output_norm=output_norm)


# -- the LP the solver is given -------------------------------------------------


def lp_violation(model, point, a=None) -> float:
    """The largest violation, by the point's columns, of the relaxation's
    rows (``a`` in place of its matrix when given) under the point's own
    boxes: every affine quantity's row is then an equation fixing it at its
    value, and every constraint row keeps its relation."""
    col_lo, _, row_lo, row_hi = model.lp_boxes(point, point)
    act = (model.relaxation().a if a is None else a) @ col_lo
    return float(np.max(np.maximum(row_lo - act, act - row_hi), initial=0.0))


@pytest.mark.parametrize("arch,seed,alpha,output_norm", [
    ([3, 8, 8, 1], 1, "linf", None),
    ([3, 8, 8, 1], 1, "l1", None),
    ([3, 8, 8, 3], 4, "linf", "cross"),
    ([8, 8, 8, 1], 3, "linf", None),
])
def test_feasible_points_satisfy_the_expanded_rows(arch, seed, alpha, output_norm):
    # a feasible assignment, mapped onto the LP's columns, satisfies every
    # row of the solver's LP: each affine quantity's expansion reproduces its
    # value, which also lies in the row box of the model's own boxes.  A copy
    # with one composed coefficient (a second-layer pre-activation's input
    # coefficient through an ON neuron) perturbed fails
    rng = np.random.Generator(np.random.Philox(key=seed))
    net = random_he(arch, seed=seed)
    box = Hyperbox.from_center_radius(np.full(arch[0], 0.5), 0.3)
    prob = build_lipmip_model(net, box, alpha=alpha, output_norm=output_norm)
    assert prob.encoding == (mip.FORWARD if arch[0] == 8 else mip.BACKWARD)
    model = prob.model
    relaxed = model.relaxation()
    col_lo, col_hi, row_lo, row_hi = model.lp_boxes(model.lo, model.hi)
    assert relaxed.num_vars == model.num_columns < model.num_vars
    # a composed coefficient: layer 0 has ON neurons, whose aliases feed layer 1
    on = np.flatnonzero(prob.pre_boxes[0].l > 0.0)
    assert on.size and np.array_equal(prob.post_vars[0][on], prob.pre_vars[0][on])
    target = model.linear({int(prob.pre_vars[1][0]): 1.0})[0]
    r = next(r for r in range(relaxed.num_constraints) if np.array_equal(relaxed.a[r], target))
    j = int(np.flatnonzero(relaxed.a[r, :arch[0]])[0])  # an input column
    perturbed = relaxed.a.copy()
    perturbed[r, j] *= 1.0 + 1e-6
    gens = norms.dual_ball_generators(net.output_dim, output_norm) if output_norm else None
    worst = caught = 0.0
    for _ in range(20):
        x = rng.uniform(box.l, box.u)
        z = None if gens is None else gens[rng.integers(len(gens))]
        point = feasible_assignment(prob, x, ALWAYS_ZERO, z, random_direction(prob, rng))
        cols = model.lp_boxes(point, point)[0]
        np.testing.assert_allclose(model.values(cols), point, atol=1e-9)
        worst = max(worst, lp_violation(model, point))
        act = relaxed.a @ cols
        assert np.all(cols >= col_lo - 1e-9) and np.all(cols <= col_hi + 1e-9)
        assert np.all(act >= row_lo - 1e-9) and np.all(act <= row_hi + 1e-9)
        caught = max(caught, lp_violation(model, point, perturbed))
    assert worst <= 1e-9 < caught


def test_export_keeps_every_id_a_column():
    # the export has a column per id and an = row per affine quantity over its
    # declared terms beside the constraint rows, and no row for an alias or a
    # constant
    net = random_he([3, 8, 8, 1], seed=1)
    box = Hyperbox.from_center_radius(np.full(3, 0.5), 0.3)
    prob = build_lipmip_model(net, box)
    model = prob.model
    export = model.to_lp_problem()
    assert export.num_vars == model.num_vars and export.num_constraints == model.num_constraints
    equalities = [i for i, rel in enumerate(export.relations) if rel == "="]
    assert len(equalities) == model.num_constraints - len(model.constraints)
    # a layer-1 pre-activation's row holds the network's own coefficients
    k = int(prob.pre_vars[1][0])
    i = next(i for i in equalities if export.a[i, k] == 1.0)
    assert np.array_equal(-export.a[i, prob.post_vars[0]], net.weights[1][0])
    assert export.rhs[i] == net.biases[1][0]
