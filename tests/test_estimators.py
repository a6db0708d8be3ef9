import numpy as np
import pytest

from lipcert import bnb, estimators
from lipcert.estimators import (
    CSV_HEADER,
    compare,
    estimate,
    naive_ub,
    random_lb,
    records_to_csv,
)
from lipcert.interval import Hyperbox
from lipcert.mip import build_lipmip_model
from lipcert.network import (
    ALWAYS_ZERO,
    ReLUNetwork,
    affine_network,
    chain_rule_jacobian,
    random_he,
)


def test_random_lb_affine_exact():
    w = np.array([1.0, -2.0, 0.5])
    net = affine_network(w, b=0.1, bound=2.0)
    box = Hyperbox.from_center_radius(np.zeros(3), 1.0)
    rec = random_lb(net, box, "linf", n_samples=3, seed=0)
    assert rec.value == pytest.approx(3.5, abs=1e-12)
    assert rec.guarantee == estimators.LOWER


def test_random_lb_requires_samples():
    net = affine_network([1.0], bound=2.0)
    with pytest.raises(ValueError):
        random_lb(net, Hyperbox([-1.0], [1.0]), "linf", n_samples=0)


def test_random_lb_monotone_in_samples():
    net = random_he([3, 6, 6, 1], seed=4)
    box = Hyperbox.from_center_radius(np.zeros(3), 1.0)
    vals = [random_lb(net, box, "linf", n_samples=n, seed=9).value
            for n in (10, 50, 200)]
    assert vals[0] <= vals[1] <= vals[2]


@pytest.mark.parametrize("norm", ["linf", "l1"])
def test_random_lb_matches_per_point_loop(norm):
    # one point at a time from the same Philox stream, each gradient through
    # the single-point chain rule
    net = random_he([4, 8, 8, 1], seed=12)
    box = Hyperbox.from_center_radius([0.2, -0.1, 0.0, 0.3], 0.7)
    rng = np.random.Generator(np.random.Philox(key=5))
    ref = 0.0
    for _ in range(300):
        grad = chain_rule_jacobian(net, rng.uniform(box.l, box.u), ALWAYS_ZERO)[0]
        ref = max(ref, np.abs(grad).sum() if norm == "linf" else np.abs(grad).max())
    value = random_lb(net, box, norm, n_samples=300, seed=5).value
    assert abs(value - ref) <= 1e-12 * ref


def test_random_lb_rejects_domain_of_wrong_dimension():
    net = random_he([3, 6, 6, 1], seed=4)
    with pytest.raises(ValueError, match="expected 3"):
        random_lb(net, Hyperbox.from_center_radius(np.zeros(2), 1.0), "linf")


def test_random_lb_rejects_unknown_norm():
    net = random_he([3, 6, 6, 1], seed=4)
    box = Hyperbox.from_center_radius(np.zeros(3), 1.0)
    with pytest.raises(ValueError, match="unknown input norm 'l2'; valid: linf, l1"):
        random_lb(net, box, "l2")


def test_naive_ub_never_below_spectral_product():
    # an UPPER bound: close top singular values (1 and 0.999) are where an
    # iterative estimate of sigma_max stops short of it
    def rot(t):
        return np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])

    w = rot(0.7) @ np.diag([1.0, 0.999]) @ rot(0.3).T
    head = np.array([[0.6, -0.8]])
    net = ReLUNetwork(weights=(w, w.T), biases=(np.zeros(2), np.zeros(2)), head=head)
    product = np.sqrt(2)
    for m in (w, w.T, head):
        product *= np.linalg.svd(m, compute_uv=False)[0]
    assert naive_ub(net).value >= product * (1 - 1e-12)


def test_naive_ub_hand_value():
    # single layer 2*I (n=4), head e_1: 2 * 1 * sqrt(4) = 4
    net = ReLUNetwork(
        weights=(2.0 * np.eye(4),),
        biases=(np.zeros(4),),
        head=np.array([[1.0, 0.0, 0.0, 0.0]]),
    )
    rec = naive_ub(net)
    assert rec.value == pytest.approx(4.0, rel=1e-9)
    assert rec.guarantee == estimators.UPPER


def test_naive_ub_identity_layers_sqrt_d():
    net = ReLUNetwork(
        weights=(np.eye(9), np.eye(9)),
        biases=(np.zeros(9), np.zeros(9)),
        head=np.eye(9)[:1],
    )
    assert naive_ub(net).value == pytest.approx(3.0, rel=1e-9)


def test_estimate_unknown_method_lists_names():
    net = affine_network([1.0], bound=2.0)
    with pytest.raises(ValueError, match="randomlb.*lipmip"):
        estimate(net, Hyperbox([-1.0], [1.0]), "linf", "clever")


@pytest.mark.parametrize("method", estimators.METHODS)
def test_estimate_rejects_multi_output_network(method):
    # every method used to read output 0 only, or failed deep inside the solver
    net = random_he((3, 4, 2), 0)
    box = Hyperbox.from_center_radius(np.zeros(3), 0.5)
    with pytest.raises(ValueError, match="lipmip_vector"):
        estimate(net, box, "linf", method)


def test_liplp_reads_the_backward_relaxation_on_wide_nets():
    # 10 inputs: lipmip solves the forward encoding, and LipLP stays the
    # backward model's relaxation, between the exact value and FastLip
    net = random_he([10, 8, 8, 1], seed=1)
    box = Hyperbox.from_center_radius(np.full(10, 0.5), 0.2)
    liplp = estimate(net, box, "linf", "liplp").value
    assert liplp == bnb.solve_liplp(build_lipmip_model(net, box, backward=True))
    exact = estimate(net, box, "linf", "lipmip")
    assert exact.guarantee == estimators.EXACT
    assert exact.value <= liplp + 1e-7 <= estimate(net, box, "linf", "fastlip").value + 2e-7


def test_estimator_chain_ordering():
    for seed in (0, 1):
        net = random_he([3, 6, 5, 1], seed=seed)
        box = Hyperbox.from_center_radius(np.zeros(3), 0.8)
        recs = {r.method: r for r in compare(
            net, box, "linf",
            ["randomlb", "lipmip", "liplp", "fastlip", "naiveub"],
            samples=200, seed=7,
        )}
        assert recs["lipmip"].guarantee == estimators.EXACT
        v = {m: r.value for m, r in recs.items()}
        assert v["randomlb"] <= v["lipmip"] + 1e-9
        assert v["lipmip"] <= v["liplp"] + 1e-7
        assert v["liplp"] <= v["fastlip"] + 1e-7
        assert v["lipmip"] <= v["naiveub"] + 1e-7
        # signed relative errors: lower bounds negative, upper bounds positive
        assert recs["randomlb"].rel_err <= 0 + 1e-12
        assert recs["fastlip"].rel_err >= 0 - 1e-12
        assert recs["naiveub"].rel_err >= 0 - 1e-12
        assert recs["lipmip"].rel_err == pytest.approx(0.0)


def test_compare_without_lipmip_leaves_rel_err_empty():
    net = affine_network([1.0, 1.0], bound=2.0)
    box = Hyperbox.from_center_radius(np.zeros(2), 1.0)
    recs = compare(net, box, "linf", ["naiveub"])
    assert recs[0].rel_err is None
    csv = records_to_csv(recs)
    line = csv.splitlines()[1].split(",")
    assert line[0] == "naiveub"
    assert line[5] == ""  # rel_err column empty


def test_gapped_lipmip_record():
    net = random_he([4, 8, 8, 1], seed=5)
    box = Hyperbox(np.zeros(4), np.ones(4))
    rec = estimate(net, box, "linf", "lipmip", gap=0.5)
    exact = estimate(net, box, "linf", "lipmip")
    if rec.guarantee == estimators.GAPPED_UPPER:
        assert rec.gap <= 0.5 + 1e-12
        assert rec.value >= exact.value - 1e-9
        assert rec.metadata["incumbent"] <= exact.value + 1e-6
    assert exact.guarantee == estimators.EXACT


def test_csv_layout():
    net = random_he([3, 5, 1], seed=2)
    box = Hyperbox.from_center_radius(np.zeros(3), 1.0)
    recs = compare(net, box, "linf", ["randomlb", "lipmip"], samples=20, seed=3)
    text = records_to_csv(recs)
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3
    row = lines[1].split(",")
    assert len(row) == 8
    assert row[4] == ""  # no timing by default
    timed = records_to_csv(recs, include_time=True)
    assert timed.splitlines()[1].split(",")[4] != ""


def test_csv_deterministic_for_fixed_seed():
    net = random_he([3, 5, 4, 1], seed=11)
    box = Hyperbox.from_center_radius(np.zeros(3), 0.6)
    a = records_to_csv(compare(net, box, "linf",
                               ["randomlb", "lipmip", "fastlip"], samples=50, seed=1))
    b = records_to_csv(compare(net, box, "linf",
                               ["randomlb", "lipmip", "fastlip"], samples=50, seed=1))
    assert a == b
