import numpy as np
import pytest

from lipcert import interval
from lipcert.interval import (
    Hyperbox,
    UNKNOWN,
    fastlip,
    head_seed_box,
    propagate,
    push_affine,
    push_conditional,
    push_relu,
    push_switch,
)
from lipcert.network import (
    ALWAYS_ONE,
    ALWAYS_ZERO,
    OFF,
    ON,
    ReLUNetwork,
    ZeroRule,
    affine_network,
    chain_rule_jacobian,
    identity_network,
    preactivations,
    random_he,
)


def test_hyperbox_validation():
    with pytest.raises(ValueError):
        Hyperbox([0.0], [-1.0])
    with pytest.raises(ValueError):
        Hyperbox([0.0], [np.inf])
    box = Hyperbox.from_center_radius([1.0, -1.0], 0.5)
    assert box.l == pytest.approx([0.5, -1.5])
    assert box.u == pytest.approx([1.5, -0.5])


def test_push_affine_identity():
    box = Hyperbox([-1, -1], [1, 1])
    out = push_affine(box, np.eye(2), np.zeros(2))
    assert out.l == pytest.approx([-1, -1])
    assert out.u == pytest.approx([1, 1])


def test_push_affine_sum_row():
    box = Hyperbox([-1, -1], [1, 1])
    out = push_affine(box, np.array([[1.0, 1.0]]), np.array([1.0]))
    assert out.l == pytest.approx([-1.0])
    assert out.u == pytest.approx([3.0])


def test_push_affine_sampling_soundness():
    rng = np.random.Generator(np.random.Philox(key=42))
    for _ in range(5):
        n, m = int(rng.integers(2, 6)), int(rng.integers(1, 5))
        w = rng.normal(size=(m, n))
        b = rng.normal(size=m)
        box = Hyperbox(-rng.uniform(0.1, 2, n), rng.uniform(0.1, 2, n))
        out = push_affine(box, w, b)
        xs = box.sample(rng, 10 ** 4)
        ys = xs @ w.T + b
        assert np.all(ys >= out.l - 1e-9)
        assert np.all(ys <= out.u + 1e-9)


def test_push_conditional_cases():
    box = Hyperbox([1.0, -2.0, -1.0, 0.0, -3.0], [2.0, -1.0, 1.0, 2.0, 0.0])
    v = push_conditional(box)
    assert v[0] == ON       # [1, 2]
    assert v[1] == OFF      # [-2, -1]
    assert v[2] == UNKNOWN  # [-1, 1]
    assert v[3] == UNKNOWN  # l = 0 boundary maps to ?
    assert v[4] == UNKNOWN  # u = 0 boundary maps to ?


def test_push_switch_cases():
    box = Hyperbox([2.0, -2.0, 2.0], [3.0, 3.0, 3.0])
    states = np.array([OFF, UNKNOWN, UNKNOWN], dtype=np.int8)
    out = push_switch(box, states)
    assert (out.l[0], out.u[0]) == (0.0, 0.0)
    assert (out.l[1], out.u[1]) == (-2.0, 3.0)
    assert (out.l[2], out.u[2]) == (0.0, 3.0)
    on = push_switch(Hyperbox([2.0], [3.0]), np.array([ON], dtype=np.int8))
    assert (on.l[0], on.u[0]) == (2.0, 3.0)


def test_push_relu_cases():
    box = Hyperbox([1.0, -2.0, -1.0, 0.0, -3.0, -2.0, -2.0], [2.0, -1.0, 1.0, 2.0, 0.0, 3.0, 3.0])
    states = np.array([ON, OFF, UNKNOWN, UNKNOWN, UNKNOWN, ON, OFF], dtype=np.int8)
    out = push_relu(box, states)
    # the last two are forced: ON with l < 0 passes [0, u], OFF with u > 0 passes 0
    assert out.l.tolist() == [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]
    assert out.u.tolist() == [2.0, 0.0, 1.0, 2.0, 0.0, 3.0, 0.0]
    rng = np.random.Generator(np.random.Philox(key=3))
    xs = rng.uniform(box.l, box.u, size=(1000, box.dim))
    unknown = states == UNKNOWN
    assert np.all(np.maximum(xs, 0.0)[:, unknown] >= out.l[unknown])
    assert np.all(np.maximum(xs, 0.0)[:, unknown] <= out.u[unknown])
    with pytest.raises(ValueError):
        push_relu(box, np.array([ON], dtype=np.int8))


def test_propagate_all_on_degenerates_to_jacobian():
    net = affine_network([2.0, -1.0], b=0.5, bound=3.0)
    res = propagate(net, Hyperbox([-1, -1], [1, 1]), head_seed_box(net, None))
    assert all(np.all(v == ON) for v in res.activation_states)
    g = res.gradient_box
    assert g.l == pytest.approx([2.0, -1.0], abs=1e-12)
    assert g.u == pytest.approx([2.0, -1.0], abs=1e-12)


def test_propagate_identity_gradient_box():
    net = identity_network()
    res = propagate(net, Hyperbox([-1.0], [1.0]), head_seed_box(net, None))
    assert res.gradient_box.l == pytest.approx([0.0])
    assert res.gradient_box.u == pytest.approx([2.0])


def test_propagate_sampling_soundness_all_rules():
    rng = np.random.Generator(np.random.Philox(key=7))
    for seed in (0, 1, 2):
        net = random_he([3, 6, 5, 1], seed=seed)
        box = Hyperbox.from_center_radius(rng.normal(size=3), 0.8)
        res = propagate(net, box, head_seed_box(net, None))
        xs = box.sample(rng, 1000)
        for z, zbox, sbox in zip(preactivations(net, xs), res.pre_activation_boxes,
                                 res.post_activation_boxes):
            assert np.all(z >= zbox.l - 1e-9) and np.all(z <= zbox.u + 1e-9)
            post = np.maximum(z, 0.0)
            assert np.all(post >= sbox.l - 1e-9) and np.all(post <= sbox.u + 1e-9)
        for rule in (ALWAYS_ZERO, ALWAYS_ONE):
            jac = chain_rule_jacobian(net, xs, rule)[:, 0, :]
            gb = res.gradient_box
            assert np.all(jac >= gb.l - 1e-9) and np.all(jac <= gb.u + 1e-9)


def test_propagate_soundness_at_tie_points():
    # the identity net at 0 ties both kernels; every per-neuron rule must
    # stay inside the gradient box
    net = identity_network()
    res = propagate(net, Hyperbox([-1.0], [1.0]), head_seed_box(net, None))
    for a in (0, 1):
        for b in (0, 1):
            rule = ZeroRule.per_neuron({(0, 0): a, (0, 1): b})
            jac = chain_rule_jacobian(net, [0.0], rule)[0]
            assert res.gradient_box.contains(jac, tol=1e-12)


def test_backward_pass_runs_only_with_a_seed():
    # without a backward seed the forward boxes are the same and the backward
    # ones are empty; the tangent pass does not need them
    net = random_he([3, 5, 5, 1], seed=4)
    box = Hyperbox.from_center_radius([0.1, -0.2, 0.3], 0.4)
    tangent = Hyperbox(-np.ones(3), np.ones(3))
    seeded = propagate(net, box, head_seed_box(net, None), tangent_seed=tangent)
    bare = propagate(net, box, tangent_seed=tangent)
    assert bare.backward_boxes == bare.backward_switch_boxes == ()
    assert len(seeded.backward_boxes) == net.depth + 1
    for name in ("pre_activation_boxes", "post_activation_boxes", "tangent_boxes",
                 "tangent_switch_boxes"):
        for a, b in zip(getattr(seeded, name), getattr(bare, name), strict=True):
            assert np.array_equal(a.l, b.l) and np.array_equal(a.u, b.u)
    with pytest.raises(IndexError):
        bare.gradient_box


def test_propagate_monotone_in_domain():
    net = random_he([3, 5, 5, 1], seed=4)
    inner = Hyperbox.from_center_radius([0.1, -0.2, 0.3], 0.4)
    outer = Hyperbox.from_center_radius([0.0, 0.0, 0.2], 1.0)
    assert outer.contains(inner.l) and outer.contains(inner.u)
    rin = propagate(net, inner, head_seed_box(net, None))
    rout = propagate(net, outer, head_seed_box(net, None))
    for bi, bo in zip(rin.pre_activation_boxes, rout.pre_activation_boxes):
        assert bo.contains(bi.l, tol=1e-12) and bo.contains(bi.u, tol=1e-12)
    for bi, bo in zip(rin.post_activation_boxes, rout.post_activation_boxes):
        assert bo.contains(bi.l, tol=1e-12) and bo.contains(bi.u, tol=1e-12)
    for bi, bo in zip(rin.backward_boxes, rout.backward_boxes):
        assert bo.contains(bi.l, tol=1e-12) and bo.contains(bi.u, tol=1e-12)
    # the forward image is the ReLU's, the backward one the switch's
    for i, (pbox, bbox) in enumerate(zip(rout.post_activation_boxes,
                                         rout.backward_switch_boxes)):
        states = rout.activation_states[i]
        back_in = rout.backward_boxes[net.depth - 1 - i]
        for got, want in ((pbox, push_relu(rout.pre_activation_boxes[i], states)),
                          (bbox, push_switch(back_in, states))):
            assert got.l.tobytes() == want.l.tobytes() and got.u.tobytes() == want.u.tobytes()
        assert np.all(pbox.l >= 0.0)


def test_fastlip_affine_closed_form():
    w = np.array([1.5, -2.0, 0.25])
    net = affine_network(w, b=0.7, bound=2.0)
    box = Hyperbox.from_center_radius(np.zeros(3), 1.0)
    assert fastlip(net, box, "linf") == pytest.approx(np.abs(w).sum(), abs=1e-12)
    assert fastlip(net, box, "l1") == pytest.approx(np.abs(w).max(), abs=1e-12)


def test_fastlip_identity():
    assert fastlip(identity_network(), Hyperbox([-1.0], [1.0]), "linf") == pytest.approx(2.0)


def test_fastlip_scores_the_gradient_box_corner():
    # f = -3 relu(x1) + 4 relu(x2): both neurons are unstable on [-1, 1]^2,
    # so the gradient box is [-3, 0] x [0, 4] and its largest corner (3, 4)
    net = ReLUNetwork(weights=(np.eye(2),), biases=(np.zeros(2),), head=np.array([[-3.0, 4.0]]))
    box = Hyperbox.from_center_radius(np.zeros(2), 1.0)
    grad = propagate(net, box, head_seed_box(net, None)).gradient_box
    assert grad.l.tolist() == [-3.0, 0.0] and grad.u.tolist() == [0.0, 4.0]
    assert fastlip(net, box, "linf") == 7.0
    assert fastlip(net, box, "l1") == 4.0
    with pytest.raises(ValueError, match="unknown input norm 'l2'; valid: linf, l1"):
        fastlip(net, box, "l2")


def test_forced_neurons_tighten():
    net = random_he([3, 5, 1], seed=2)
    box = Hyperbox.from_center_radius(np.zeros(3), 1.0)
    base = propagate(net, box, head_seed_box(net, None))
    free = [
        (0, int(j))
        for j in np.flatnonzero(base.activation_states[0] == UNKNOWN)
    ]
    assert free
    forced = propagate(net, box, head_seed_box(net, None), forced={free[0]: 0})
    gb_base = base.gradient_box
    gb_forced = forced.gradient_box
    assert np.all(gb_forced.l >= gb_base.l - 1e-12)
    assert np.all(gb_forced.u <= gb_base.u + 1e-12)
