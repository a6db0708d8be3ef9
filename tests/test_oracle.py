import numpy as np
import pytest

from lipcert import bnb, lp, oracle
from lipcert.interval import Hyperbox, fastlip
from lipcert.mip import build_lipmip_model
from lipcert.network import (
    ReLUNetwork,
    affine_network,
    identity_network,
    pattern_at,
    preactivations,
    random_he,
)
from lipcert.oracle import (
    NeuronCapExceeded,
    enumerate_regions,
    exact_lipschitz_bruteforce,
)


def grid_pattern_count(net, domain, n=60):
    """Independent region-count oracle: distinct ON/OFF patterns on a grid."""
    axes = [np.linspace(lo, hi, n) for lo, hi in zip(domain.l, domain.u)]
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    seen = set()
    for x in pts:
        pat = pattern_at(net, x, tie_tol=0.0)
        if pat.tie_positions():
            continue
        seen.add(tuple(tuple(int(v) for v in lay) for lay in pat.layers))
    return len(seen)


def test_affine_single_region():
    w = np.array([1.0, -2.0])
    net = affine_network(w, b=0.5, bound=2.0)
    box = Hyperbox.from_center_radius(np.zeros(2), 1.0)
    assert len(list(enumerate_regions(net, box))) == 1
    assert exact_lipschitz_bruteforce(net, box, "linf") == pytest.approx(3.0, abs=1e-12)
    assert exact_lipschitz_bruteforce(net, box, "l1") == pytest.approx(2.0, abs=1e-12)


def test_two_generic_hyperplanes_four_regions():
    net = ReLUNetwork(
        weights=(np.array([[1.0, 0.2], [-0.3, 1.0]]),),
        biases=(np.array([0.05, -0.02]),),
        head=np.array([[1.0, 1.0]]),
    )
    box = Hyperbox.from_center_radius(np.zeros(2), 1.0)
    assert len(list(enumerate_regions(net, box))) == 4


def test_region_count_matches_grid_sampling():
    net = random_he([3, 4, 1], seed=6)
    box = Hyperbox.from_center_radius(np.zeros(3), 1.0)
    enumerated = len(list(enumerate_regions(net, box)))
    sampled = grid_pattern_count(net, box, n=50)
    # the grid can miss slivers thinner than its spacing, never the reverse
    assert sampled <= enumerated
    assert enumerated - sampled <= 2


def test_identity_net_oracle_is_one():
    # interior regions both have slope 1; the tie point's value 2 is
    # invisible to region enumeration (non-general-position network)
    net = identity_network()
    box = Hyperbox([-1.0], [1.0])
    assert exact_lipschitz_bruteforce(net, box, "linf") == pytest.approx(1.0, abs=1e-9)
    assert len(list(enumerate_regions(net, box))) == 2


def test_witness_validity():
    net = random_he([3, 5, 4, 1], seed=3)
    box = Hyperbox.from_center_radius(np.zeros(3), 1.0)
    eps = 1e-6
    certs = list(enumerate_regions(net, box, interior_eps=eps))
    assert certs
    for cert in certs:
        assert box.contains(cert.witness, tol=1e-9)
        # every pre-activation has slack >= eps on its pattern's side, up to
        # the LP tolerance
        for z, signs in zip(preactivations(net, cert.witness), cert.pattern):
            assert np.where(signs == 1, z, -z).min() >= eps / 2


def test_interior_eps_monotone():
    net = random_he([3, 5, 5, 1], seed=10)
    box = Hyperbox.from_center_radius(np.zeros(3), 1.0)
    coarse = exact_lipschitz_bruteforce(net, box, interior_eps=1e-4)
    fine = exact_lipschitz_bruteforce(net, box, interior_eps=5e-5)
    finer = exact_lipschitz_bruteforce(net, box, interior_eps=2.5e-5)
    assert fine >= coarse - 1e-12
    assert finer >= fine - 1e-12


def test_neuron_cap_refusal():
    net = random_he([4, 16, 16, 1], seed=0)
    box = Hyperbox.from_center_radius(np.zeros(4), 1.0)
    with pytest.raises(NeuronCapExceeded):
        list(enumerate_regions(net, box))


def test_oracle_matches_lipmip_on_generic_nets():
    # the central cross-validation at small scale
    for seed in (0, 1, 2):
        net = random_he([3, 5, 4, 1], seed=seed)
        box = Hyperbox.from_center_radius(np.zeros(3), 1.0)
        exact = exact_lipschitz_bruteforce(net, box, "linf")
        res = bnb.solve_mip(build_lipmip_model(net, box, alpha="linf"))
        assert res.status == bnb.EXACT
        assert res.incumbent_value == pytest.approx(exact, rel=1e-6, abs=1e-6)


def test_fastlip_dominates_oracle():
    for seed in (0, 5, 8):
        net = random_he([4, 8, 8, 1], seed=seed)
        box = Hyperbox.from_center_radius(np.full(4, 0.5), 0.5)
        exact = exact_lipschitz_bruteforce(net, box, "linf")
        assert fastlip(net, box, "l1") >= exact - 1e-7 * max(1.0, exact)


def test_failed_witness_lp_raises_instead_of_pruning(monkeypatch):
    # a failed LP proves nothing: dropping its subtree would under-count regions
    net = random_he([2, 8, 8, 1], seed=1)
    box = Hyperbox.from_center_radius(np.full(2, 0.5), 0.5)
    assert len(list(enumerate_regions(net, box))) == 10
    original = lp.SimplexSolver.solve
    calls = []

    def every_third_fails(self, *args, **kwargs):
        calls.append(1)
        if len(calls) % 3 == 0:
            return lp.LPSolution(lp.NUMERICAL_FAILURE, None, np.nan, 0)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(lp.SimplexSolver, "solve", every_third_fails)
    with pytest.raises(lp.SolverNumericalError):
        list(enumerate_regions(net, box))
