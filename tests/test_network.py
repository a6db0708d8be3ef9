import json

import numpy as np
import pytest

from lipcert import network
from lipcert.network import (
    ALWAYS_ONE,
    ALWAYS_ZERO,
    NetworkFormatError,
    ReLUNetwork,
    ZeroRule,
    affine_network,
    chain_rule_jacobian,
    forward,
    identity_network,
    load,
    multipliers,
    preactivations,
    random_he,
    save,
)


def straight_line_eval(net, x):
    """Independent re-evaluation, written before forward(): plain loops."""
    act = [float(v) for v in x]
    for w, b in zip(net.weights, net.biases):
        nxt = []
        for r in range(w.shape[0]):
            z = b[r]
            for c in range(w.shape[1]):
                z += w[r, c] * act[c]
            nxt.append(max(z, 0.0))
        act = nxt
    out = []
    for r in range(net.head.shape[0]):
        out.append(sum(net.head[r, c] * act[c] for c in range(len(act))))
    return np.array(out)


def near_tie(net, x, tol):
    """Whether some pre-activation at x lies within tol of zero."""
    return any(np.any(np.abs(z) <= tol) for z in preactivations(net, x))


def finite_difference_jacobian(net, x, step=1e-5):
    x = np.asarray(x, dtype=float)
    cols = []
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = step
        cols.append((forward(net, x + e) - forward(net, x - e)) / (2 * step))
    return np.stack(cols, axis=1)


def test_identity_network_is_identity():
    net = identity_network()
    for v in (3.0, -2.5, 0.0, 1.25):
        assert forward(net, [v])[0] == pytest.approx(v, abs=1e-12)


def test_single_layer_relu_kills_negative():
    net = ReLUNetwork(
        weights=(np.eye(2),), biases=(np.zeros(2),), head=np.array([[1.0, 1.0]])
    )
    assert forward(net, [-1.0, 2.0])[0] == pytest.approx(2.0)


def test_forward_matches_straight_line_eval():
    net = random_he([3, 5, 4, 1], seed=11)
    rng = np.random.Generator(np.random.Philox(key=2))
    for _ in range(20):
        x = rng.normal(size=3)
        assert forward(net, x) == pytest.approx(straight_line_eval(net, x), abs=1e-10)
    # x = 0 hits the bias chain only
    assert forward(net, np.zeros(3)) == pytest.approx(
        straight_line_eval(net, np.zeros(3)), abs=1e-12
    )


def test_dimension_mismatch_raises():
    net = identity_network()
    with pytest.raises(ValueError):
        forward(net, [1.0, 2.0])


def test_multipliers_all_on():
    net = affine_network([1.0, 2.0], bound=5.0)
    for rule in (ALWAYS_ZERO, ALWAYS_ONE):
        assert all(np.all(lam == 1.0) for lam in multipliers(net, [0.3, -0.4], rule))


def test_multipliers_identity_ties_at_zero():
    # x = 0 ties the two kernels (0, 0) and (0, 1); the shifted pair is on
    net = identity_network()
    assert [list(np.flatnonzero(z == 0.0)) for z in preactivations(net, [0.0])] == [[0, 1]]
    assert multipliers(net, [0.0], ALWAYS_ZERO)[0].tolist() == [0.0, 0.0, 1.0, 1.0]
    assert multipliers(net, [0.0], ALWAYS_ONE)[0].tolist() == [1.0, 1.0, 1.0, 1.0]
    mixed = ZeroRule.per_neuron({(0, 0): 1, (0, 1): 0})
    assert multipliers(net, [0.0], mixed)[0].tolist() == [1.0, 0.0, 1.0, 1.0]
    assert multipliers(net, [0.5], ALWAYS_ONE)[0].tolist() == [1.0, 0.0, 1.0, 1.0]


def test_no_ties_at_random_points():
    rng = np.random.Generator(np.random.Philox(key=3))
    net = random_he([4, 6, 6, 1], seed=5)
    for _ in range(50):
        x = rng.normal(size=4)
        assert not near_tie(net, x, 0.0)
        ones = multipliers(net, x, ALWAYS_ONE)
        assert all(np.array_equal(a, b) for a, b in zip(multipliers(net, x), ones))


def test_jacobian_affine_region_product():
    net = affine_network([2.0, -3.0], b=1.0, bound=4.0)
    jac = chain_rule_jacobian(net, [0.5, 0.5])
    assert jac == pytest.approx(np.array([[2.0, -3.0]]), abs=1e-12)


def test_identity_network_zero_rules():
    # the headline chain-rule pitfall: values 2 - a - b over tie choices
    net = identity_network()
    assert chain_rule_jacobian(net, [0.0], ALWAYS_ZERO)[0, 0] == pytest.approx(2.0)
    assert chain_rule_jacobian(net, [0.0], ALWAYS_ONE)[0, 0] == pytest.approx(0.0)
    mixed = ZeroRule.per_neuron({(0, 0): 1, (0, 1): 0})
    assert chain_rule_jacobian(net, [0.0], mixed)[0, 0] == pytest.approx(1.0)
    values = set()
    for a in (0, 1):
        for b in (0, 1):
            rule = ZeroRule.per_neuron({(0, 0): a, (0, 1): b})
            values.add(round(float(chain_rule_jacobian(net, [0.0], rule)[0, 0]), 9))
    assert values == {0.0, 1.0, 2.0}


@pytest.mark.parametrize("kind", ["ones", "zeros", "", "per-neuron"])
def test_unknown_zero_rule_kind_is_rejected(kind):
    # an unknown kind once fell through to the sigma'(0) = 0 convention
    with pytest.raises(ValueError, match="zero, one, per_neuron"):
        chain_rule_jacobian(identity_network(), [0.0], ZeroRule(kind))


def test_per_neuron_rule_must_cover_ties():
    net = identity_network()
    with pytest.raises(ValueError):
        chain_rule_jacobian(net, [0.0], ZeroRule.per_neuron({(0, 0): 1}))


def _row_close(a, b, rtol=1e-12):
    return np.max(np.abs(a - b)) <= rtol * max(np.max(np.abs(b)), 1e-300)


def test_batched_jacobian_rows_match_single_points():
    rng = np.random.Generator(np.random.Philox(key=11))
    for arch, seed in (([4, 8, 8, 1], 12), ([3, 8, 8, 3], 4), ([10, 20, 20, 1], 3)):
        net = random_he(arch, seed)
        xs = rng.uniform(-1.0, 1.0, size=(40, arch[0]))
        with pytest.raises(ValueError):  # a stack is not one point
            forward(net, xs)
        zs = preactivations(net, xs)
        assert [z.shape for z in zs] == [(40, n) for n in net.layer_sizes]
        for k, x in enumerate(xs):
            assert all(_row_close(z[k], z1) for z, z1 in zip(zs, preactivations(net, x)))
        for rule in (ALWAYS_ZERO, ALWAYS_ONE):
            lams = multipliers(net, xs, rule)
            assert [lam.shape for lam in lams] == [(40, n) for n in net.layer_sizes]
            jacs = chain_rule_jacobian(net, xs, rule)
            assert jacs.shape == (40, net.output_dim, arch[0])
            for k, (x, jac) in enumerate(zip(xs, jacs)):
                single = multipliers(net, x, rule)
                assert all(np.array_equal(lam[k], lam1) for lam, lam1 in zip(lams, single))
                assert _row_close(jac, chain_rule_jacobian(net, x, rule))


def test_batched_jacobian_resolves_tie_rows_by_rule():
    # x = 0 ties both kernels of the identity net; its neighbours do not
    net = identity_network()
    xs = np.array([[-0.5], [0.0], [0.25]])
    for rule, tie_value in ((ALWAYS_ZERO, 2.0), (ALWAYS_ONE, 0.0)):
        jacs = chain_rule_jacobian(net, xs, rule)
        assert jacs[:, 0, 0].tolist() == [1.0, tie_value, 1.0]
        lams = multipliers(net, xs, rule)[0]
        for x, lam, jac in zip(xs, lams, jacs):
            assert np.array_equal(lam, multipliers(net, x, rule)[0])
            assert np.array_equal(jac, chain_rule_jacobian(net, x, rule))


def test_per_neuron_rule_rejects_a_stack():
    net = identity_network()
    rule = ZeroRule.per_neuron({(0, 0): 1, (0, 1): 0})
    assert chain_rule_jacobian(net, [[0.0]], rule).tolist() == [[[1.0]]]
    assert multipliers(net, [[0.0]], rule)[0].tolist() == [[1.0, 0.0, 1.0, 1.0]]
    for f in (multipliers, chain_rule_jacobian):
        with pytest.raises(ValueError, match="stack of 2"):
            f(net, [[0.0], [0.0]], rule)


def test_per_neuron_rule_names_the_uncovered_tie():
    net = identity_network()
    partial = ZeroRule.per_neuron({(0, 0): 1})
    for x in ([0.0], [[0.0]]):
        with pytest.raises(ValueError, match=r"ties \[\(0, 0\), \(0, 1\)\]"):
            multipliers(net, x, partial)
    # an entry for a neuron that is not tied is as wrong as a missing one
    with pytest.raises(ValueError, match=r"ties \[\]"):
        multipliers(net, [0.5], partial)


def test_jacobian_matches_finite_differences():
    rng = np.random.Generator(np.random.Philox(key=4))
    for seed in range(5):
        net = random_he([4, 7, 6, 2], seed=seed)
        for _ in range(10):
            x = rng.normal(size=4)
            if near_tie(net, x, 1e-7):
                continue
            jac = chain_rule_jacobian(net, x)
            fd = finite_difference_jacobian(net, x)
            denom = max(1.0, float(np.abs(fd).max()))
            assert np.abs(jac - fd).max() / denom < 1e-3


def test_rule_independence_off_kernels():
    rng = np.random.Generator(np.random.Philox(key=6))
    net = random_he([3, 5, 5, 1], seed=9)
    for _ in range(20):
        x = rng.normal(size=3)
        if near_tie(net, x, 0.0):
            continue
        j0 = chain_rule_jacobian(net, x, ALWAYS_ZERO)
        j1 = chain_rule_jacobian(net, x, ALWAYS_ONE)
        assert np.array_equal(j0, j1)


def test_piecewise_linearity_midpoint_identity():
    rng = np.random.Generator(np.random.Philox(key=8))
    net = random_he([3, 6, 6, 1], seed=13)
    hits = 0
    for _ in range(200):
        x = rng.normal(size=3)
        v = rng.normal(size=3)
        t = 1e-4
        # sign(z) is the tri-state on / off / tie at each of the three points
        pats = [[np.sign(z) for z in preactivations(net, x + s * v)] for s in (-t, 0.0, t)]
        if not all(
            all(np.array_equal(a, b) for a, b in zip(p, pats[0]))
            for p in pats
        ):
            continue
        hits += 1
        f = lambda s: forward(net, x + s * v)[0]
        mid = 0.5 * (f(-t) + f(t))
        scale = max(1.0, abs(f(0.0)))
        assert abs(mid - f(0.0)) / scale < 1e-9
    assert hits > 50


def test_jacobian_first_order_expansion():
    rng = np.random.Generator(np.random.Philox(key=10))
    net = random_he([4, 8, 8, 1], seed=21)
    checked = 0
    for _ in range(50):
        x = rng.normal(size=4)
        if near_tie(net, x, 1e-6):
            continue
        jac = chain_rule_jacobian(net, x)
        h = rng.normal(size=4)
        h /= np.linalg.norm(h)
        errs = []
        for scale in (1e-4, 5e-5):
            delta = forward(net, x + scale * h) - forward(net, x) - jac @ (scale * h)
            errs.append(np.linalg.norm(delta))
        # piecewise-linear: once inside one region the expansion is exact
        assert errs[1] <= max(errs[0], 1e-9)
        checked += 1
    assert checked > 20


def test_random_he_deterministic():
    a = random_he([2, 3, 1], seed=7)
    b = random_he([2, 3, 1], seed=7)
    assert all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights))
    assert np.array_equal(a.head, b.head)
    assert json.dumps(network.to_json_dict(a)) == json.dumps(network.to_json_dict(b))


def test_random_he_shapes():
    net = random_he([10, 10, 10, 1], seed=0)
    assert [w.shape for w in net.weights] == [(10, 10), (10, 10)]
    assert net.head.shape == (1, 10)
    assert [b.shape for b in net.biases] == [(10,), (10,)]
    # generic biases: no hidden ReLU kernel may pass exactly through 0
    assert all(np.all(b != 0) for b in net.biases)


def test_random_he_variance():
    net = random_he([10, 10000, 10, 1], seed=3)
    flat = net.weights[0].ravel()
    assert flat.size == 10 ** 5
    assert flat.var() == pytest.approx(2.0 / 10.0, rel=0.05)


def test_random_he_input_errors():
    with pytest.raises(ValueError):
        random_he([], seed=0)
    with pytest.raises(ValueError):
        random_he([3, 1], seed=0)
    with pytest.raises(ValueError):
        random_he([3, 0, 1], seed=0)


def test_save_load_roundtrip_exact(tmp_path):
    net = random_he([3, 4, 2], seed=42)
    p1 = tmp_path / "net.json"
    p2 = tmp_path / "net2.json"
    save(net, p1)
    loaded = load(p1)
    save(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert all(np.array_equal(a, b) for a, b in zip(net.weights, loaded.weights))
    assert np.array_equal(net.head, loaded.head)


def test_load_identity_fixture_roundtrip(tmp_path):
    path = tmp_path / "identity.json"
    save(identity_network(), path)
    assert forward(load(path), [3.0])[0] == pytest.approx(3.0)


def test_load_rejects_bad_row_length(tmp_path):
    doc = network.to_json_dict(identity_network())
    doc["weights"][0][1] = [1.0, 2.0]  # row of wrong arity
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(NetworkFormatError, match=r"weights\[0\] row 1"):
        load(path)


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{ not json")
    with pytest.raises(NetworkFormatError, match="line 1"):
        load(path)


def test_load_rejects_missing_field(tmp_path):
    doc = network.to_json_dict(identity_network())
    del doc["head"]
    path = tmp_path / "nohead.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(NetworkFormatError, match="head"):
        load(path)


def test_load_rejects_boolean_format_version(tmp_path):
    # JSON true is a Python bool, which is an int equal to 1
    doc = network.to_json_dict(identity_network())
    doc["format_version"] = True
    path = tmp_path / "bool_version.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(NetworkFormatError, match="format_version"):
        load(path)


def test_load_rejects_boolean_arch_entry(tmp_path):
    doc = network.to_json_dict(identity_network())
    doc["arch"][0] = True
    path = tmp_path / "bool_arch.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(NetworkFormatError, match="arch"):
        load(path)


def test_load_rejects_non_utf8_and_deep_nesting(tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(json.dumps(network.to_json_dict(identity_network())).encode() + b"\xff")
    with pytest.raises(NetworkFormatError, match="UnicodeDecodeError"):
        load(path)
    path.write_text("[" * 100_000 + "]" * 100_000)
    with pytest.raises(NetworkFormatError, match="RecursionError"):
        load(path)


@pytest.mark.parametrize("width", [10**12, 2**70])
def test_load_checks_row_lengths_before_allocating(tmp_path, width):
    # arch claims a width that numpy cannot allocate (or index); the short
    # rows must be reported before any matrix of that width is made
    doc = network.to_json_dict(random_he([1, 1, 1], seed=0))
    doc["arch"][0] = width
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(NetworkFormatError, match=rf"weights\[0\] row 0: expected {width} entries"):
        load(path)


def test_preactivations_shapes():
    net = random_he([3, 5, 4, 2], seed=1)
    zs = preactivations(net, np.zeros(3))
    assert [z.shape[0] for z in zs] == [5, 4]
