"""Graphs whose maximum independent set equals a network's Lipschitz constant.

The construction routes every input through the saturating ramp
psi(t) = relu(t+1) - relu(t-1) - 1 (identity on [-1, 1], flat outside), then
builds one second-layer neuron per vertex that only switches on when the
vertex looks selected (coordinate near +1) and its whole neighborhood looks
deselected (near -1).  Each switched-on neuron contributes exactly one unit
to the l1 gradient norm, so the maximal gradient norm over the box [-2, 2]^n
equals the maximum independent set size -- an integer-valued, independently
checkable target for the exact solver.

One builder, ``build_mis_network``, makes both variants: ``variant="l1"``
adds one extra input whose partial derivative counts the selected vertices,
turning the same instance into an linf-gradient (l1 Lipschitz) test case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bnb, norms
from .interval import Hyperbox
from .mip import build_lipmip_model
from .network import ReLUNetwork


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on vertices 0..n-1."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        norm = set()
        for e in self.edges:
            u, v = e
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge {e} out of range for n={self.n}")
            norm.add((min(u, v), max(u, v)))
        object.__setattr__(self, "edges", frozenset(norm))

    @staticmethod
    def from_edges(n: int, edges) -> "Graph":
        return Graph(n, frozenset(tuple(e) for e in edges))

    def neighbors(self, v: int) -> list[int]:
        out = []
        for a, b in self.edges:
            if a == v:
                out.append(b)
            elif b == v:
                out.append(a)
        return sorted(out)

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))


def random_gnp(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p) from the deterministic Philox stream."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
    ]
    return Graph.from_edges(n, edges)


def petersen_graph() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return Graph.from_edges(10, outer + inner + spokes)


def _ramp_layer(n_inputs: int):
    """First layer computing relu(x_i + 1) and relu(x_i - 1) per input."""
    w1 = np.zeros((2 * n_inputs, n_inputs))
    b1 = np.zeros(2 * n_inputs)
    for i in range(n_inputs):
        w1[2 * i, i] = 1.0
        b1[2 * i] = 1.0
        w1[2 * i + 1, i] = 1.0
        b1[2 * i + 1] = -1.0
    return w1, b1


def build_mis_network(g: Graph, variant: str = "linf") -> ReLUNetwork:
    """Network whose Lipschitz constant in the input norm ``variant`` over
    the box [-2, 2]^inputs is MIS(g).

    ``variant="linf"`` (linf input norm, l1 gradient norm): vertex neuron i
    reads psi(x_i) - sum_{j ~ i} psi(x_j) - (deg(i)+1-eps) and the head
    weighs it by 1/(deg(i)+1), so a consistent selection of k vertices
    yields gradient norm exactly k and nothing can do better.  The slack is
    eps = 1/(n+2) for a graph of n vertices.

    ``variant="l1"`` (l1 input norm, linf gradient norm) adds one counting
    input x_extra: vertex neuron i reads
    psi(x_i) + (deg(i)+1) psi(x_extra) - sum_{j ~ i} psi(x_j) - 2(deg(i)+1-eps),
    so switching it on requires the extra coordinate near +1 as well, and the
    partial derivative with respect to the extra input counts the selected
    vertices.  Head weights 1/(deg(i)+1) make that count exactly MIS(g); the
    printed construction this follows divides by 2(deg(i)+1), which counts
    MIS/2 and would break the integer-equality checks, so the halving is
    dropped.
    """
    norms.check_input_norm(variant)
    if g.n < 1:
        raise ValueError("graph must have at least one vertex")
    n = g.n
    eps = 1.0 / (n + 2)
    extra = variant == "l1"
    w1, b1 = _ramp_layer(n + extra)
    w2 = np.zeros((n, 2 * (n + extra)))
    b2 = np.zeros(n)
    head = np.zeros((1, n))
    for i in range(n):
        deg1 = g.degree(i) + 1.0
        w2[i, 2 * i] = 1.0       # +relu(x_i + 1)
        w2[i, 2 * i + 1] = -1.0  # -relu(x_i - 1)
        for j in g.neighbors(i):
            w2[i, 2 * j] = -1.0
            w2[i, 2 * j + 1] = 1.0
        if extra:
            w2[i, 2 * n] = deg1       # +deg1 * relu(x_extra + 1)
            w2[i, 2 * n + 1] = -deg1  # -deg1 * relu(x_extra - 1)
            # psi constants: -1 (own) - deg1 (extra) + deg (neighbors) = -2
            b2[i] = -2.0 - 2.0 * (deg1 - eps)
        else:
            b2[i] = eps - 2.0  # psi constants fold to -2 + eps
        head[0, i] = 1.0 / deg1
    return ReLUNetwork(weights=(w1, w2), biases=(b1, b2), head=head)


def brute_force_mis(g: Graph) -> int:
    """Exact maximum independent set by branching on the highest-degree
    vertex; exponential, capped at 24 vertices."""
    if g.n > 24:
        raise ValueError("brute-force MIS capped at 24 vertices")
    nbr = [0] * g.n
    for u, v in g.edges:
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u

    def rec(avail: int) -> int:
        if avail == 0:
            return 0
        # branch on the available vertex with most available neighbors
        best_v, best_deg = -1, -1
        a = avail
        while a:
            v = (a & -a).bit_length() - 1
            a &= a - 1
            deg = bin(nbr[v] & avail).count("1")
            if deg > best_deg:
                best_v, best_deg = v, deg
        if best_deg == 0:
            return bin(avail).count("1")  # remaining vertices are independent
        v = best_v
        with_v = 1 + rec(avail & ~(nbr[v] | (1 << v)))
        without_v = rec(avail & ~(1 << v))
        return max(with_v, without_v)

    return rec((1 << g.n) - 1)


@dataclass(frozen=True)
class ReductionReport:
    mis: int
    lipmip_value: float
    match: bool
    status: str
    nodes: int


def verify_reduction(g: Graph, opts: bnb.SolveOptions | None = None,
                     variant: str = "linf") -> ReductionReport:
    """Solve the gadget network exactly and compare against brute-force MIS.

    ``variant`` picks the network (``build_mis_network``) and the input
    norm: "linf" (maximal l1 gradient over [-2, 2]^n) or "l1" (maximal linf
    gradient over [-2, 2]^(n+1))."""
    mis = brute_force_mis(g)
    net = build_mis_network(g, variant=variant)
    box = Hyperbox.from_center_radius(np.zeros(net.input_dim), 2.0)
    res = bnb.solve_mip(build_lipmip_model(net, box, alpha=variant), opts)
    match = (
        res.status == bnb.EXACT
        and abs(res.incumbent_value - mis) <= 1e-6
    )
    return ReductionReport(mis, res.incumbent_value, match, res.status,
                           res.nodes_explored)
