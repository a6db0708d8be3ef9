import numpy as np
import pytest

from lipcert import bnb, lp, norms, oracle
from lipcert.estimators import random_lb
from lipcert.interval import Hyperbox, fastlip
from lipcert.mip import build_lipmip_model, feasible_assignment
from lipcert.network import (
    ReLUNetwork,
    affine_network,
    identity_network,
    jacobian_from_multipliers,
    next_layer_affine,
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
    zs = np.hstack(preactivations(net, pts))
    untied = np.all(zs != 0.0, axis=1)  # a point on a kernel has no pattern
    return len(np.unique(zs[untied] > 0.0, axis=0))


def reference_regions(net, box, alpha="linf", output_norm=None,
                      eps=oracle.DEFAULT_INTERIOR_EPS, leaf_rows=None):
    """Reference enumeration: one cold LP over the decided neurons' rows
    for every branch the current witness does not satisfy.  Returns
    {flattened sign pattern: region dual norm}; a dict passed as
    ``leaf_rows`` receives {pattern: (rows, floors)} of every region."""
    regions = {}

    def witness_of(rows, floors):
        """Some x in the box with rows.x >= floors, or None."""
        problem = lp.LPProblem(np.zeros(box.dim), rows, (">=",) * len(floors), floors,
                               box.l, box.u)
        sol = lp.SimplexSolver(problem).solve()
        assert sol.status != lp.NUMERICAL_FAILURE
        return sol.x if sol.status == lp.OPTIMAL else None

    rows, rhs = [], []
    signs = [np.zeros(n, dtype=np.int8) for n in net.layer_sizes]

    def recurse(layer, idx, m, v, witness):
        if layer == net.depth:
            jac = jacobian_from_multipliers(net, [s.astype(float) for s in signs])
            pattern = tuple(np.concatenate(signs))
            regions[pattern] = norms.operator_dual_value(jac, alpha, output_norm)
            if leaf_rows is not None:
                leaf_rows[pattern] = (np.array(rows), np.array(rhs))
            return
        if idx == net.layer_sizes[layer]:
            if layer + 1 < net.depth:
                m, v = next_layer_affine(net, layer, signs[layer].astype(float), m, v)
            recurse(layer + 1, 0, m, v, witness)
            return
        for sign, s in ((1, 1.0), (0, -1.0)):
            row, bound = s * m[idx], eps - s * v[idx]
            w = witness if row @ witness >= bound else witness_of(
                rows + [row], rhs + [bound])
            if w is not None:
                rows.append(row)
                rhs.append(bound)
                signs[layer][idx] = sign
                recurse(layer, idx + 1, m, v, w)
                rows.pop()
                rhs.pop()
        signs[layer][idx] = 0

    recurse(0, 0, net.weights[0], net.biases[0], witness_of([], []))
    return regions


def patterns_of(certs):
    return {tuple(np.concatenate(c.pattern)) for c in certs}


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
        assert fastlip(net, box, "linf") >= exact - 1e-7 * max(1.0, exact)


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


def test_unknown_norm_raises_before_any_lp(monkeypatch):
    def no_lp(*args, **kwargs):
        raise AssertionError("an LP ran before the norm was checked")

    monkeypatch.setattr(lp.SimplexSolver, "solve", no_lp)
    net = random_he([2, 8, 8, 1], seed=1)
    box = Hyperbox.from_center_radius(np.full(2, 0.5), 0.5)
    with pytest.raises(ValueError, match="unknown input norm 'l2'; valid: linf, l1"):
        exact_lipschitz_bruteforce(net, box, "l2")


@pytest.mark.parametrize("output_norm, message", [
    (None, "output norm None does not fit a head of 3 rows; valid: l1, linf, cross"),
    ("l7", "output norm 'l7' does not fit a head of 3 rows; valid: l1, linf, cross"),
], ids=["none_for_three_rows", "unknown_name"])
def test_bad_output_norm_raises_before_any_lp(monkeypatch, output_norm, message):
    def no_lp(*args, **kwargs):
        raise AssertionError("an LP ran before the output norm was checked")

    monkeypatch.setattr(lp.SimplexSolver, "solve", no_lp)
    net = random_he([3, 8, 8, 3], seed=4)
    box = Hyperbox.from_center_radius(np.full(3, 0.5), 0.5)
    with pytest.raises(ValueError, match=message):
        exact_lipschitz_bruteforce(net, box, "linf", output_norm)


@pytest.mark.parametrize("arch, seed, radius, alpha, output_norm", [
    ([2, 8, 8, 1], 1, 0.5, "linf", None),
    ([3, 6, 5, 1], 4, 0.6, "l1", None),
    ([2, 5, 4, 4, 1], 0, 1.0, "linf", None),
    ([3, 4, 4, 4, 1], 5, 1.0, "l1", None),
    ([2, 6, 5, 4, 1], 0, 1.0, "l1", None),
    ([3, 5, 5, 5, 1], 0, 0.5, "linf", None),
    ([3, 6, 6, 3], 4, 0.5, "linf", "cross"),
])
def test_regions_match_cold_reference(arch, seed, radius, alpha, output_norm):
    # the per-prefix warm solver and the box refutation drop exactly the
    # branches that a cold LP per branch refutes
    net = random_he(arch, seed)
    box = Hyperbox.from_center_radius(np.full(arch[0], 0.5), radius)
    expected = reference_regions(net, box, alpha, output_norm)
    certs = list(enumerate_regions(net, box, alpha=alpha, output_norm=output_norm))
    assert len(expected) > 8
    assert len(certs) == len(expected)
    assert patterns_of(certs) == set(expected)
    assert max(c.dual_norm_value for c in certs) == max(expected.values())


def test_sign_pattern_rows_match_reference():
    # the builder's rows are the reference's up to sign, and its boxes hold
    # the reference's floors; a prefix's rows are its parent's followed by
    # the open layer's, whose boxes are the ranges of their maps
    net = random_he([2, 5, 4, 4, 1], 0)
    box = Hyperbox.from_center_radius(np.full(2, 0.5), 1.0)
    eps = oracle.DEFAULT_INTERIOR_EPS
    leaf_rows = {}
    reference_regions(net, box, leaf_rows=leaf_rows)
    assert len(leaf_rows) > 8
    ends = np.cumsum(net.layer_sizes)
    for pattern, (rows, floors) in leaf_rows.items():
        lams = np.split(np.array(pattern, dtype=float), ends[:-1])
        s = 2.0 * np.array(pattern, dtype=float) - 1.0
        closed = oracle.SignPatternLP(net, box, lams, eps)
        assert closed.first_open == ends[-1]
        assert np.array_equal(s[:, None] * closed.m, rows)
        assert np.array_equal(np.where(s > 0, closed.row_lo, -closed.row_hi), floors)
        prefix = oracle.SignPatternLP(net, box, lams[:-1], eps)
        head, last = slice(0, ends[-2]), slice(ends[-2], None)
        assert prefix.first_open == ends[-2]
        assert np.array_equal(prefix.m, closed.m) and np.array_equal(prefix.v, closed.v)
        assert np.array_equal(prefix.row_lo[head], closed.row_lo[head])
        assert np.array_equal(prefix.row_hi[head], closed.row_hi[head])
        parent = oracle.SignPatternLP(net, box, lams[:-2], eps)
        assert np.array_equal(parent.m, prefix.m[: ends[-2]])
        mx = box.sample(np.random.default_rng(0), 50) @ prefix.m[last].T
        assert np.all(prefix.row_lo[last] <= mx) and np.all(mx <= prefix.row_hi[last])


def test_constant_neurons_keep_their_regions():
    # a neuron whose map is 0 over the prefix is constant there: asking eps
    # depth of it dropped every region when its constant was below eps
    net = ReLUNetwork(
        weights=(np.array([[1.0, 0.0], [0.0, 0.0]]),),
        biases=(np.array([0.2, 0.0]),),
        head=np.array([[2.0, 1.0]]),
    )
    box = Hyperbox.from_center_radius(np.zeros(2), 1.0)
    assert exact_lipschitz_bruteforce(net, box) == 2.0
    assert len(list(enumerate_regions(net, box))) == 2
    # a constant neuron's box is cut only against its constant's sign
    shifted = ReLUNetwork(net.weights, (np.array([0.2, -0.5]),), net.head)
    for lam, row_box in ((0.0, (0.0, 0.0)), (1.0, (0.5, 0.0))):
        pattern = oracle.SignPatternLP(shifted, box, [np.array([1.0, lam])], 0.0)
        assert (pattern.row_lo[1], pattern.row_hi[1]) == row_box
    assert pattern.solve().status == lp.INFEASIBLE
    # sparse first layers with zero biases: neurons that are 0 everywhere
    for seed in range(5):
        base = random_he([2, 3, 3, 1], seed)
        rng = np.random.default_rng(seed)
        weights = tuple(w * (rng.random(w.shape) < 0.5) for w in base.weights)
        sparse = ReLUNetwork(weights, (np.zeros(3), base.biases[1]), base.head)
        sampled = random_lb(sparse, box, "linf", n_samples=4000).value
        assert exact_lipschitz_bruteforce(sparse, box) >= sampled > 0.0


@pytest.mark.parametrize("arch, seed, alpha, output_norm", [
    ([2, 5, 4, 1], 0, "linf", None),
    ([3, 6, 5, 1], 4, "l1", None),
    ([3, 6, 6, 3], 4, "linf", "cross"),
])
def test_rounded_pattern_realizes_every_region(arch, seed, alpha, output_norm):
    # the oracle and the B&B heuristic ask one sign-pattern LP: each region
    # the oracle certifies is a heuristic hit worth the region's value
    net = random_he(arch, seed)
    box = Hyperbox.from_center_radius(np.full(arch[0], 0.5), 0.5)
    prob = build_lipmip_model(net, box, alpha, output_norm)
    z = None if output_norm is None else np.zeros(net.output_dim)
    certs = list(enumerate_regions(net, box, alpha=alpha, output_norm=output_norm))
    assert len(certs) > 4
    for cert in certs:
        hit = prob.rounded_pattern_value(feasible_assignment(prob, cert.witness, z=z))
        assert hit is not None and hit[0] == cert.dual_norm_value


def test_failed_warm_solves_fall_back_cold(monkeypatch):
    net = random_he([2, 5, 4, 4, 1], seed=0)
    box = Hyperbox.from_center_radius(np.full(2, 0.5), 1.0)
    expected = patterns_of(enumerate_regions(net, box))
    original = lp.SimplexSolver._dual
    warm = []

    def warm_fails(self, basis, *args):
        if basis is not None:
            warm.append(1)
            return lp.LPSolution(lp.NUMERICAL_FAILURE, None, np.nan, 0)
        return original(self, basis, *args)

    monkeypatch.setattr(lp.SimplexSolver, "_dual", warm_fails)
    assert patterns_of(enumerate_regions(net, box)) == expected
    assert warm  # the search did warm-start, and every such start failed


def test_one_region_jacobian_per_region(monkeypatch):
    # the region counter of the benchmark's trace wraps this module attribute
    net = random_he([3, 5, 4, 1], seed=3)
    box = Hyperbox.from_center_radius(np.zeros(3), 1.0)
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return jacobian_from_multipliers(*args, **kwargs)

    monkeypatch.setattr(oracle, "jacobian_from_multipliers", counted)
    certs = list(enumerate_regions(net, box))
    assert certs and len(calls) == len(certs)


@pytest.mark.parametrize("eps", [-0.5, 0.0, np.nan, np.inf])
def test_interior_eps_must_be_finite_and_positive(monkeypatch, eps):
    # at eps <= 0 the witnessed sets of neighbouring regions overlap: without
    # the check, -0.5 counts 50 "regions" on this net (10 at the default eps)
    # and overstates L as 1.44672 (exact: 1.44371)
    net = random_he([2, 8, 8, 1], seed=1)
    box = Hyperbox.from_center_radius(np.full(2, 0.5), 0.5)
    solves = []
    monkeypatch.setattr(lp.SimplexSolver, "solve", lambda *a, **k: solves.append(1))
    with pytest.raises(ValueError, match="interior_eps"):
        list(enumerate_regions(net, box, interior_eps=eps))
    with pytest.raises(ValueError, match="interior_eps"):
        exact_lipschitz_bruteforce(net, box, interior_eps=eps)
    assert not solves


def test_interior_eps_must_exceed_the_feasibility_tolerance():
    # at eps <= FEAS_TOL one LP point, within the tolerance, witnesses both
    # signs of a neuron on its kernel: the identity net on [-1, 1] read 2.0
    # (L = 1) at eps = 1e-8, and eps = 1e-7 on [-1e-7, 1e-7] failed its LP
    net = identity_network()
    box = Hyperbox([-1.0], [1.0])
    for eps in (1e-8, lp.FEAS_TOL):
        with pytest.raises(ValueError, match="interior_eps"):
            list(enumerate_regions(net, box, interior_eps=eps))
        with pytest.raises(ValueError, match="interior_eps"):
            exact_lipschitz_bruteforce(net, box, interior_eps=eps)
    with pytest.raises(ValueError, match="interior_eps"):
        exact_lipschitz_bruteforce(net, Hyperbox([-1e-7], [1e-7]), interior_eps=1e-7)
    assert exact_lipschitz_bruteforce(net, box, interior_eps=1e-6) == pytest.approx(1.0)


@pytest.mark.parametrize("eps", [1.01e-7, 2e-7, 1e-6])
def test_interior_eps_just_above_the_tolerance_reads_the_value(eps):
    # the kernel pattern with both neurons on is infeasible by 2 eps; its
    # Farkas check once needed about 4e-7 and raised SolverNumericalError
    net = identity_network()
    try:
        value = exact_lipschitz_bruteforce(net, Hyperbox([-1.0], [1.0]), interior_eps=eps)
    except ValueError:
        return
    assert value == pytest.approx(1.0)


def test_no_deep_region_raises():
    # on [-1e-7, 1e-7] no region of the identity net has 1e-6 of depth: the
    # maximum over no region read 0.0, below the sampled lower bound 1.0
    net = identity_network()
    box = Hyperbox([-1e-7], [1e-7])
    assert random_lb(net, box, "linf").value == 1.0
    assert not list(enumerate_regions(net, box))
    with pytest.raises(ValueError, match="interior_eps"):
        exact_lipschitz_bruteforce(net, box)


def built_solvers(monkeypatch):
    """Every SimplexSolver built from here on."""
    solvers = []
    original = lp.SimplexSolver.__init__

    def recorded(self, problem):
        original(self, problem)
        solvers.append(self)

    monkeypatch.setattr(lp.SimplexSolver, "__init__", recorded)
    return solvers


@pytest.mark.parametrize("arch, seed, radius", [
    ([2, 5, 4, 4, 1], 0, 1.0),
    ([3, 5, 5, 5, 1], 0, 0.5),
    ([4, 8, 8, 1], 12, 0.5),
])
def test_one_cold_start_and_no_presolve(monkeypatch, arch, seed, radius):
    # layer 0 starts cold once; every deeper prefix starts from its parent's
    # basis with its new rows' slacks basic, and a sign is a row box, so no
    # prefix presolves a column away
    net = random_he(arch, seed)
    box = Hyperbox.from_center_radius(np.full(arch[0], 0.5), radius)
    solvers = built_solvers(monkeypatch)
    certs = list(enumerate_regions(net, box))
    assert len(certs) > 8 and len(solvers) > 2
    assert sum(s.cold_starts for s in solvers) == 1
    assert all(s.n_struct == arch[0] for s in solvers)
    # a prefix factorizes at most its first warm start; backtracking
    # reloads kept tableaus
    assert all(s.refactorizations <= 1 for s in solvers)


def test_corrupted_parent_basis_falls_back_cold(monkeypatch):
    net = random_he([2, 5, 4, 4, 1], seed=0)
    box = Hyperbox.from_center_radius(np.full(2, 0.5), 1.0)
    expected = {tuple(np.concatenate(c.pattern)): c.dual_norm_value
                for c in enumerate_regions(net, box)}
    original = lp.Basis.with_new_rows

    def corrupted(self, count):
        basis = original(self, count)
        return lp.Basis(np.zeros_like(basis.basic), basis.at_upper)  # a repeated column

    monkeypatch.setattr(lp.Basis, "with_new_rows", corrupted)
    solvers = built_solvers(monkeypatch)
    got = {tuple(np.concatenate(c.pattern)): c.dual_norm_value
           for c in enumerate_regions(net, box)}
    assert got == expected
    assert sum(s.cold_starts for s in solvers) > 1  # the deeper prefixes fell back
