import itertools

import numpy as np
import pytest

from lipcert.interval import Hyperbox
from lipcert.mip import build_lipmip_model
from lipcert.reduction import (
    Graph,
    brute_force_mis,
    build_mis_network,
    petersen_graph,
    random_gnp,
    verify_reduction,
)


def mis_by_subsets(g: Graph) -> int:
    best = 0
    for k in range(g.n + 1):
        for subset in itertools.combinations(range(g.n), k):
            chosen = set(subset)
            if all(not (u in chosen and v in chosen) for u, v in g.edges):
                best = k
    return best


@pytest.mark.parametrize("n", range(1, 13))
def test_brute_force_mis_matches_subset_enumeration(n):
    for seed in range(3):
        for p in (0.2, 0.5, 0.8):
            g = random_gnp(n, p, seed)
            assert brute_force_mis(g) == mis_by_subsets(g)


EDGE = Graph.from_edges(2, [(0, 1)])
PATH3 = Graph.from_edges(3, [(0, 1), (1, 2)])

# Small graphs only: the exact solve grows quickly with the vertex count (the
# 5-cycle already takes about 170 nodes, close to a second).
LINF_GRAPHS = [
    EDGE,
    PATH3,
    random_gnp(3, 0.5, 0),
    random_gnp(3, 0.5, 2),
    random_gnp(4, 0.5, 1),
    random_gnp(4, 0.5, 2),
    random_gnp(5, 0.5, 2),
    Graph.from_edges(5, [(i, i + 1) for i in range(4)]),
    Graph.from_edges(5, [(0, i) for i in range(1, 5)]),
    Graph.from_edges(5, []),
    Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)]),
]


def graph_id(g: Graph) -> str:
    return f"n{g.n}-" + "-".join(f"{u}{v}" for u, v in sorted(g.edges))


@pytest.mark.parametrize("g", LINF_GRAPHS, ids=graph_id)
def test_reduction_linf_matches_mis(g):
    report = verify_reduction(g, variant="linf")
    assert report.match, report


# The l1 variant, up to the 5-cycle (about 30 nodes, a fraction of a second).
@pytest.mark.parametrize("g", [EDGE, PATH3, Graph.from_edges(3, [(0, 1)]),
                               Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])],
                         ids=["edge", "path3", "edge-isolated", "cycle5"])
def test_reduction_l1_matches_mis(g):
    report = verify_reduction(g, variant="l1")
    assert report.match, report


def test_unknown_variant_is_rejected():
    # the variant is the input norm the network is built for
    for build in (build_mis_network, verify_reduction):
        with pytest.raises(ValueError, match="unknown input norm 'l2'; valid: linf, l1"):
            build(EDGE, variant="l2")


def test_reduction_petersen_takes_the_forward_encoding():
    # ten inputs: the linf gadget of the Petersen graph is solved forward
    g = petersen_graph()
    net = build_mis_network(g)
    box = Hyperbox.from_center_radius(np.zeros(net.input_dim), 2.0)
    assert build_lipmip_model(net, box).encoding == "forward"
    report = verify_reduction(g)
    assert report.match and report.mis == 4, report
