import numpy as np
import pytest

from lipcert import bnb, lp, norms, oracle
from lipcert.interval import Hyperbox
from lipcert.mip import MIPModel, build_lipmip_model, encode_dual_ball
from lipcert.network import ReLUNetwork, forward, random_he
from lipcert.vector_ext import (
    difference_network,
    lipmip_vector,
    robustness_radius,
)


def affine_vector_network(a, bound=4.0):
    """Multi-output network computing A @ x exactly on |x_i| <= bound."""
    a = np.asarray(a, dtype=float)
    m, n = a.shape
    shift = 2.0 * bound + 1.0
    w1 = np.vstack([np.eye(n), np.zeros((1, n))])
    b1 = np.concatenate([np.full(n, shift), [shift]])
    head = np.hstack([a, (-a.sum(axis=1, keepdims=True))])
    return ReLUNetwork(weights=(w1,), biases=(b1,), head=head)


def lp_max_over_cross_polytope(v):
    model = MIPModel()
    z, _, _ = encode_dual_ball(model, len(v), "cross")
    prob = model.to_lp_problem()
    best = -np.inf
    for sign in (1.0, -1.0):
        c = np.zeros(model.num_vars)
        for var, coef in zip(z, v):
            c[var] = sign * coef
        sol = lp.SimplexSolver(prob).solve(objective=c)
        assert sol.status == lp.OPTIMAL
        best = max(best, sol.objective_value)
    return best


def cross_norm_value(v):
    """The cross norm of a vector, as the operator norm of its one column."""
    return norms.operator_dual_value(np.reshape(v, (-1, 1)), "linf", "cross")


def test_cross_norm_basic_values():
    assert cross_norm_value([1.0, 0.0, 0.0]) == pytest.approx(1.0)
    assert cross_norm_value([1.0, -1.0]) == pytest.approx(2.0)
    assert cross_norm_value([0.0, 0.0]) == 0.0


def test_cross_norm_is_a_norm():
    rng = np.random.Generator(np.random.Philox(key=3))
    for _ in range(100):
        u = rng.normal(size=4)
        v = rng.normal(size=4)
        t = float(rng.uniform(-3, 3))
        assert cross_norm_value(t * u) == pytest.approx(abs(t) * cross_norm_value(u), rel=1e-12)
        assert cross_norm_value(u + v) <= cross_norm_value(u) + cross_norm_value(v) + 1e-12


def test_cross_norm_equals_lp_over_polytope():
    rng = np.random.Generator(np.random.Philox(key=8))
    for _ in range(100):
        v = rng.normal(size=int(rng.integers(2, 5)))
        assert lp_max_over_cross_polytope(v) == pytest.approx(
            cross_norm_value(v), abs=1e-8
        )


def test_zero_row_head_reduces_to_scalar():
    rng = np.random.Generator(np.random.Philox(key=5))
    base = random_he([3, 5, 1], seed=2)
    head2 = np.vstack([base.head[0], np.zeros_like(base.head[0])])
    net2 = ReLUNetwork(weights=base.weights, biases=base.biases, head=head2)
    box = Hyperbox.from_center_radius(np.zeros(3), 0.8)
    scalar = bnb.solve_mip(build_lipmip_model(base, box, alpha="linf"))
    vec = lipmip_vector(net2, box, alpha="linf", output_norm="linf")
    assert vec.status == bnb.EXACT
    assert vec.incumbent_value == pytest.approx(scalar.incumbent_value, rel=1e-8, abs=1e-9)


@pytest.mark.parametrize("input_norm", ["linf", "l1"])
def test_operator_dual_value_of_a_stack_is_the_max(input_norm):
    rng = np.random.Generator(np.random.Philox(key=17))
    for output_norm, m in ((None, 1), ("l1", 3), ("linf", 3), ("cross", 3)):
        jacs = rng.normal(size=(7, m, 4))
        each = [norms.operator_dual_value(jac, input_norm, output_norm) for jac in jacs]
        assert norms.operator_dual_value(jacs, input_norm, output_norm) == max(each)
        if output_norm is None:  # the dual norm of the gradient row
            rows = np.abs(jacs[:, 0])
            dual = rows.sum(axis=1) if input_norm == "linf" else rows.max(axis=1)
            assert each == dual.tolist()
        elif output_norm == "cross" and input_norm == "l1":  # largest column
            cols = [max(max(np.abs(col).max(), np.ptp(col)) for col in jac.T) for jac in jacs]
            assert each == pytest.approx(cols, rel=1e-12)


def test_affine_vector_operator_norms():
    rng = np.random.Generator(np.random.Philox(key=21))
    a = rng.normal(size=(3, 2))
    net = affine_vector_network(a)
    assert forward(net, [0.3, -0.4]) == pytest.approx(a @ [0.3, -0.4], abs=1e-9)
    box = Hyperbox.from_center_radius(np.zeros(2), 1.0)
    for beta in ("linf", "l1", "cross"):
        res = lipmip_vector(net, box, alpha="linf", output_norm=beta)
        expect = norms.operator_dual_value(a, "linf", beta)
        assert res.status == bnb.EXACT
        assert res.incumbent_value == pytest.approx(expect, rel=1e-8, abs=1e-9)
    # alpha = l1 against the closed form over dual vertices
    res = lipmip_vector(net, box, alpha="l1", output_norm="l1")
    assert res.incumbent_value == pytest.approx(
        norms.operator_dual_value(a, "l1", "l1"), rel=1e-8
    )


def test_vector_value_matches_region_oracle():
    for seed in (0, 1):
        net = random_he([3, 4, 2], seed=seed)
        box = Hyperbox.from_center_radius(np.zeros(3), 0.7)
        for beta in ("linf", "l1", "cross"):
            res = lipmip_vector(net, box, alpha="linf", output_norm=beta)
            expect = oracle.exact_lipschitz_bruteforce(
                net, box, alpha="linf", output_norm=beta
            )
            assert res.status == bnb.EXACT
            assert res.incumbent_value == pytest.approx(expect, rel=1e-6, abs=1e-7)


def test_cross_lipschitz_dominates_pairwise():
    # the property that makes the cross-norm useful for robustness
    for seed, arch in ((0, [3, 6, 2]), (1, [3, 6, 3])):
        net = random_he(arch, seed=seed)
        box = Hyperbox.from_center_radius(np.zeros(3), 0.5)
        cross = lipmip_vector(net, box, alpha="linf", output_norm="cross")
        for i in range(net.output_dim):
            for j in range(net.output_dim):
                if i == j:
                    continue
                dij = difference_network(net, i, j)
                scalar = bnb.solve_mip(build_lipmip_model(dij, box, alpha="linf"))
                assert cross.incumbent_value >= scalar.incumbent_value - 1e-7


def test_robustness_radius_constant_classifier():
    # zero weights: logits are head @ relu(biases), constant in x
    net = ReLUNetwork(
        weights=(np.zeros((2, 2)),),
        biases=(np.array([1.0, 2.0]),),
        head=np.array([[1.0, 0.0], [0.0, 1.0]]),
    )
    box = Hyperbox.from_center_radius(np.zeros(2), 1.0)
    rad = robustness_radius(net, [0.1, 0.2], box)
    # L = 0 certifies the label only inside the domain: the radius is the
    # distance from (0.1, 0.2) to the boundary of [-1, 1]^2
    assert rad == pytest.approx(0.8, rel=1e-12)


def test_robustness_radius_stays_inside_the_domain():
    # at x = 0 the logits are [0, 5] and constant over [-0.1, 0.1] (L = 0),
    # yet the label flips at x = -1.2 (logits [0, -15]): only the domain
    # bounds the radius
    net = ReLUNetwork(
        weights=(np.array([[1.0], [-1.0], [0.0]]),),
        biases=(np.array([-0.5, -1.0, 5.0]),),
        head=np.array([[-100.0, 0.0, 0.0], [0.0, -100.0, 1.0]]),
    )
    y = forward(net, np.array([-1.2]))
    assert y[0] > y[1]
    box = Hyperbox.from_center_radius(np.zeros(1), 0.1)
    for alpha in ("linf", "l1"):
        assert 0.0 < robustness_radius(net, [0.0], box, alpha=alpha) <= 0.1


def test_robustness_radius_rejects_outside_point_and_one_row_head():
    box = Hyperbox.from_center_radius(np.zeros(3), 0.5)
    with pytest.raises(ValueError, match="outside the domain"):
        robustness_radius(random_he([3, 4, 2], seed=0), [0.0, 0.6, 0.0], box)
    with pytest.raises(ValueError, match="at least 2 rows"):
        robustness_radius(random_he([3, 4, 1], seed=0), np.zeros(3), box)


def test_robustness_radius_tied_argmax_warns():
    net = ReLUNetwork(
        weights=(np.zeros((2, 2)),),
        biases=(np.array([1.0, 1.0]),),
        head=np.array([[1.0, 0.0], [0.0, 1.0]]),
    )
    box = Hyperbox.from_center_radius(np.zeros(2), 1.0)
    with pytest.warns(UserWarning):
        assert robustness_radius(net, [0.0, 0.0], box) == 0.0


def test_robustness_radius_linear_two_class():
    w = np.array([1.0, -0.5])
    a = np.vstack([w, -w])
    net = affine_vector_network(a)
    box = Hyperbox.from_center_radius(np.zeros(2), 1.0)
    x = np.array([0.4, -0.2])
    rad = robustness_radius(net, x, box)
    # hand derivation: margin 2|w.x|, cross-Lipschitz 2 ||w||_1
    assert rad == pytest.approx(abs(w @ x) / np.abs(w).sum(), rel=1e-8)


def test_robustness_radius_no_counterexample_by_sampling():
    net = random_he([4, 8, 3], seed=6)
    box = Hyperbox.from_center_radius(np.zeros(4), 0.5)
    rng = np.random.Generator(np.random.Philox(key=33))
    x = rng.uniform(box.l / 2, box.u / 2)
    label = int(np.argmax(forward(net, x)))
    rad = robustness_radius(net, x, box)
    assert rad > 0
    hits = 0
    for _ in range(10 ** 4):
        y = x + rng.uniform(-rad, rad, size=4) * (1 - 1e-9)
        y = np.clip(y, box.l, box.u)
        if np.max(np.abs(y - x)) >= rad:
            continue
        hits += 1
        assert int(np.argmax(forward(net, y))) == label
    assert hits > 1000


def test_vector_solve_rejects_scalar_head():
    net = random_he([3, 4, 1], seed=0)
    with pytest.raises(ValueError):
        lipmip_vector(net, Hyperbox.from_center_radius(np.zeros(3), 1.0))
    net2 = random_he([3, 4, 2], seed=0)
    with pytest.raises(ValueError, match="l1, linf, cross"):
        lipmip_vector(net2, Hyperbox.from_center_radius(np.zeros(3), 1.0),
                      output_norm="l7")
