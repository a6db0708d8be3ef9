"""Feedforward ReLU networks: evaluation, chain-rule Jacobians, generation, I/O.

A network is ``f(x) = H @ relu(Z_d(x))`` with the layer recursion
``Z_i(x) = W_i @ relu(Z_{i-1}(x)) + b_i`` and ``Z_0(x) = x``.  The head ``H``
is stored as an ``m x n_d`` matrix even for scalar-valued networks (``m = 1``)
so vector-valued outputs need no second code path.

``chain_rule_jacobian`` is ``jacobian_from_multipliers`` applied to the
sigma' of ``multipliers``, whose ``ZeroRule`` sets the derivative taken at
exactly-zero pre-activations, where any value in ``{0, 1}`` is a legitimate
choice.  Different choices can disagree (see ``identity_network``), which is
the whole reason the rule is explicit here.

``preactivations``, ``multipliers`` and ``chain_rule_jacobian`` take one point
``(n0,)`` or a stack of ``N`` points ``(N, n0)``.  A point gives per-layer
``(n_i,)`` vectors and an ``(m, n0)`` Jacobian; a stack gives ``(N, n_i)``
and ``(N, m, n0)``, one row per point, from one matrix product per layer.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

# Neuron sign labels; lipcert.interval's sign states add UNKNOWN for an
# undecided neuron.
ON = 1
OFF = 0


class NetworkFormatError(ValueError):
    """Raised when a network file cannot be parsed; names field and position."""


@dataclass(frozen=True)
class ReLUNetwork:
    """Weights/biases of the hidden layers plus the final linear head.

    weights[i] has shape (n_{i+1}, n_i), biases[i] has shape (n_{i+1},) and
    head has shape (m, n_d).  All entries must be finite and the shapes must
    chain.  Instances are immutable; every operation on them is pure.
    """

    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]
    head: np.ndarray

    def __post_init__(self):
        if len(self.weights) != len(self.biases):
            raise ValueError("need one bias vector per weight matrix")
        if len(self.weights) == 0:
            raise ValueError("network needs at least one hidden layer")
        ws = tuple(np.ascontiguousarray(np.asarray(w, dtype=float)) for w in self.weights)
        bs = tuple(np.ascontiguousarray(np.asarray(b, dtype=float)) for b in self.biases)
        head = np.ascontiguousarray(np.asarray(self.head, dtype=float))
        if head.ndim != 2:
            raise ValueError("head must be a 2-d matrix (m x n_d)")
        prev = ws[0].shape[1]
        for i, (w, b) in enumerate(zip(ws, bs)):
            if w.ndim != 2 or b.ndim != 1:
                raise ValueError(f"layer {i}: weight must be 2-d and bias 1-d")
            if w.shape[1] != prev:
                raise ValueError(
                    f"layer {i}: expected {prev} input columns, got {w.shape[1]}"
                )
            if w.shape[0] != b.shape[0]:
                raise ValueError(f"layer {i}: bias length {b.shape[0]} != rows {w.shape[0]}")
            prev = w.shape[0]
        if head.shape[1] != prev:
            raise ValueError(f"head: expected {prev} columns, got {head.shape[1]}")
        for arr in (*ws, *bs, head):
            if not np.all(np.isfinite(arr)):
                raise ValueError("all network parameters must be finite")
            arr.flags.writeable = False
        object.__setattr__(self, "weights", ws)
        object.__setattr__(self, "biases", bs)
        object.__setattr__(self, "head", head)

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[1]

    @property
    def output_dim(self) -> int:
        return self.head.shape[0]

    @property
    def depth(self) -> int:
        return len(self.weights)

    @property
    def layer_sizes(self) -> tuple[int, ...]:
        return tuple(w.shape[0] for w in self.weights)

    @property
    def total_neurons(self) -> int:
        return sum(self.layer_sizes)

    @property
    def arch(self) -> tuple[int, ...]:
        """(n_0, n_1, ..., n_d, m) -- input, hidden widths, output rows."""
        return (self.input_dim, *self.layer_sizes, self.output_dim)


@dataclass(frozen=True)
class ZeroRule:
    """How the chain rule resolves sigma'(0) at tied neurons.

    ``ALWAYS_ZERO`` matches the autodiff convention sigma'(0) = 0,
    ``ALWAYS_ONE`` the opposite extreme; ``per_neuron`` assigns each tied
    neuron ``(layer, index)`` individually (the assignment must cover exactly
    the neurons whose pre-activation is 0 at the point it is used at).
    """

    kind: str
    assignment: tuple[tuple[tuple[int, int], int], ...] = field(default=())

    def __post_init__(self):
        if self.kind not in ("zero", "one", "per_neuron"):
            raise ValueError(f"unknown ZeroRule kind {self.kind!r}; valid: zero, one, per_neuron")

    @staticmethod
    def per_neuron(assignment: dict[tuple[int, int], int]) -> "ZeroRule":
        items = tuple(sorted((k, int(v)) for k, v in assignment.items()))
        for _, v in items:
            if v not in (0, 1):
                raise ValueError("per-neuron assignment values must be 0 or 1")
        return ZeroRule("per_neuron", items)


ALWAYS_ZERO = ZeroRule("zero")
ALWAYS_ONE = ZeroRule("one")


def preactivations(net: ReLUNetwork, x) -> list[np.ndarray]:
    """All pre-activations Z_1(x) .. Z_d(x): one ``(n_i,)`` vector per layer
    for a point, one ``(N, n_i)`` matrix per layer for a stack of N points.
    A 2-d x is a stack; any other shape is flattened to one point."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        x = x.reshape(-1)
    if x.shape[-1] != net.input_dim:
        raise ValueError(f"input has length {x.shape[-1]}, expected {net.input_dim}")
    a = x.T  # points are columns
    zs = []
    for w, b in zip(net.weights, net.biases):
        z = (w @ a).T + b
        zs.append(z)
        a = np.maximum(z, 0.0).T
    return zs


def forward(net: ReLUNetwork, x) -> np.ndarray:
    """Evaluate the network at one point; returns the output vector of length m."""
    return net.head @ np.maximum(preactivations(net, np.ravel(x))[-1], 0.0)


def multipliers(net: ReLUNetwork, x, rule: ZeroRule = ALWAYS_ZERO) -> list[np.ndarray]:
    """sigma' per layer at x: 1 where z > 0, 0 where z < 0 and the rule's
    value where z == 0 (exact comparison), as one ``(n_i,)`` vector per layer
    for a point and one ``(N, n_i)`` matrix per layer for a stack.

    A ``per_neuron`` rule names the ties of one point, so it takes a point or
    a stack of one, and its assignment must cover exactly that point's ties.
    """
    zs = preactivations(net, x)
    on = np.greater_equal if rule.kind == "one" else np.greater
    mults = [on(z, 0.0).astype(float) for z in zs]
    if rule.kind != "per_neuron":
        return mults
    if zs[0].ndim == 2 and len(zs[0]) != 1:
        raise ValueError(f"a per-neuron rule names one point's ties; got a stack of {len(zs[0])}")
    ties = {(i, int(j)) for i, z in enumerate(zs) for j in np.flatnonzero(z == 0.0)}
    table = dict(rule.assignment)
    if set(table) != ties:
        raise ValueError(
            "per-neuron rule must cover exactly the tied neurons; "
            f"got {sorted(table)} vs ties {sorted(ties)}"
        )
    for (i, j), value in table.items():
        mults[i][..., j] = value
    return mults


def chain_rule_jacobian(net: ReLUNetwork, x, rule: ZeroRule = ALWAYS_ZERO) -> np.ndarray:
    """Jacobian produced by the chain rule: ``(m, n0)`` at a point x of shape
    ``(n0,)``, ``(N, m, n0)`` for a stack x of shape ``(N, n0)``.

    sigma' comes from ``multipliers`` under ``rule``; at differentiable
    points the result is independent of the rule.
    """
    return jacobian_from_multipliers(net, multipliers(net, x, rule))


def jacobian_from_multipliers(net: ReLUNetwork, multipliers) -> np.ndarray:
    """Jacobian for an explicit sigma' assignment: one ``(n_i,)`` vector per
    layer gives ``(m, n0)``, one ``(N, n_i)`` stack per layer gives
    ``(N, m, n0)``.

    Y keeps the layout ``(n_i, N, m)`` so that each layer is one product with
    a weight transpose; for a single point that is the plain recursion
    ``Y <- W_i^T diag(lam_i) Y``.
    """
    lams = [np.asarray(lam, dtype=float) for lam in multipliers]
    m = net.output_dim
    y = net.head.T  # (n_d, m), widened to (n_d, N * m) by the first mask
    for w, lam in zip(reversed(net.weights), reversed(lams)):
        masked = lam.T.reshape(w.shape[0], -1, 1) * y.reshape(w.shape[0], -1, m)
        y = w.T @ masked.reshape(w.shape[0], -1)
    jac = y.reshape(net.input_dim, -1, m).transpose(1, 2, 0)
    return jac[0] if lams[0].ndim == 1 else np.ascontiguousarray(jac)


def next_layer_affine(net: ReLUNetwork, layer: int, lam, m, v):
    """Pre-activations of layer ``layer + 1`` as an affine map ``M x + V`` of
    the input, given layer ``layer``'s map ``m x + v`` and its sigma' vector."""
    w = net.weights[layer + 1]
    return w @ (lam.reshape(-1, 1) * m), w @ (lam * v) + net.biases[layer + 1]


def random_he(arch, seed: int) -> ReLUNetwork:
    """Random network with He-initialized weights and generic small biases.

    ``arch = [n_0, n_1, ..., n_d, m]`` gives the input width, hidden widths
    and head rows; every matrix (head included) is drawn N(0, 2/fan_in).
    Hidden biases are drawn from the same N(0, 2/fan_in) right after their
    layer's weights: nonzero biases keep the ReLU kernels in general position
    (all-zero biases put every kernel through the origin, where the chain
    rule becomes maximally ambiguous and exactness claims break down).
    Draws come from a Philox 4x64 counter-based generator keyed by ``seed``,
    consumed row-major, weights then bias per layer, so identical
    (arch, seed) reproduce the network bit-for-bit anywhere.
    """
    arch = [int(a) for a in arch]
    if len(arch) == 0:
        raise ValueError("arch must not be empty")
    if len(arch) < 3:
        raise ValueError("arch needs at least [input, hidden, output] entries")
    if any(a < 1 for a in arch):
        raise ValueError("all layer sizes must be >= 1")
    rng = np.random.Generator(np.random.Philox(key=seed))
    weights, biases = [], []
    for fan_out, fan_in in zip(arch[1:-1], arch[:-2]):
        scale = np.sqrt(2.0 / fan_in)
        weights.append(rng.standard_normal((fan_out, fan_in)) * scale)
        biases.append(rng.standard_normal(fan_out) * scale)
    head = rng.standard_normal((arch[-1], arch[-2])) * np.sqrt(2.0 / arch[-2])
    return ReLUNetwork(weights=tuple(weights), biases=tuple(biases), head=head)


def identity_network(margin: float = 4.0) -> ReLUNetwork:
    """The univariate identity written as 2x - relu(x) + relu(-x).

    Four hidden neurons: (x, -x) carry the two kernels at zero, and
    (x + margin, -x + margin) stay on for |x| < margin, folding the affine
     2x term into the single-hidden-layer form.  On |x| < margin the function
    is exactly x, yet the chain rule at x = 0 yields 2 - a - b for any tie
    assignment (a, b), i.e. the value set {0, 1, 2}.
    """
    if margin <= 0:
        raise ValueError("margin must be positive")
    w1 = np.array([[1.0], [-1.0], [1.0], [-1.0]])
    b1 = np.array([0.0, 0.0, margin, margin])
    head = np.array([[-1.0, 1.0, 1.0, -1.0]])
    return ReLUNetwork(weights=(w1,), biases=(b1,), head=head)


def affine_network(w, b: float = 0.0, bound: float = 10.0) -> ReLUNetwork:
    """A network computing w @ x + b exactly on the box |x_i| <= bound.

    Each input passes through an always-on neuron (x_i + M), and one constant
    neuron carries the offset; outside the stated box the neurons may switch
    off and the identity breaks, so callers must keep their domain inside it.
    """
    w = np.asarray(w, dtype=float).reshape(-1)
    n = w.shape[0]
    m = 2.0 * bound + 1.0
    w1 = np.vstack([np.eye(n), np.zeros((1, n))])
    b1 = np.concatenate([np.full(n, m), [m]])
    # head undoes the +M shifts: sum_i w_i (x_i + M) + (b - M sum w_i)/M * M
    head = np.concatenate([w, [(b - m * w.sum()) / m]]).reshape(1, -1)
    return ReLUNetwork(weights=(w1,), biases=(b1,), head=head)


FORMAT_VERSION = 1


def to_json_dict(net: ReLUNetwork) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "arch": list(net.arch),
        "weights": [w.tolist() for w in net.weights],
        "biases": [b.tolist() for b in net.biases],
        "head": net.head.tolist(),
    }


def save(net: ReLUNetwork, path) -> None:
    """Write the network as JSON; floats keep full round-trip precision."""
    with open(path, "w") as fh:
        json.dump(to_json_dict(net), fh, indent=1)
        fh.write("\n")


def _expect_matrix(rows, name: str, nrows: int, ncols: int) -> np.ndarray:
    if not isinstance(rows, list) or len(rows) != nrows:
        raise NetworkFormatError(f"{name}: expected a list of {nrows} rows")
    for r, row in enumerate(rows):  # before allocating: arch may claim any width
        if not isinstance(row, list) or len(row) != ncols:
            raise NetworkFormatError(f"{name} row {r}: expected {ncols} entries")
    out = np.empty((nrows, ncols), dtype=float)
    for r, row in enumerate(rows):
        for c, v in enumerate(row):
            if not isinstance(v, (int, float)) or isinstance(v, bool):
                raise NetworkFormatError(f"{name} row {r} column {c}: not a number")
            out[r, c] = v
    return out


def _expect_vector(vals, name: str, n: int) -> np.ndarray:
    if not isinstance(vals, list) or len(vals) != n:
        raise NetworkFormatError(f"{name}: expected a list of {n} numbers")
    out = np.empty(n, dtype=float)
    for i, v in enumerate(vals):
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            raise NetworkFormatError(f"{name} position {i}: not a number")
        out[i] = v
    return out


def from_json_dict(doc) -> ReLUNetwork:
    if not isinstance(doc, dict):
        raise NetworkFormatError("top level: expected a JSON object")
    for key in ("format_version", "arch", "weights", "biases", "head"):
        if key not in doc:
            raise NetworkFormatError(f"{key}: missing field")
    version = doc["format_version"]
    if isinstance(version, bool) or version != FORMAT_VERSION:
        raise NetworkFormatError(f"format_version: expected {FORMAT_VERSION}, got {version!r}")
    arch = doc["arch"]
    if (
        not isinstance(arch, list)
        or len(arch) < 3
        or not all(isinstance(a, int) and not isinstance(a, bool) and a >= 1 for a in arch)
    ):
        raise NetworkFormatError("arch: expected a list of >= 3 positive integers")
    widths = arch[:-1]
    m = arch[-1]
    n_layers = len(widths) - 1
    if not isinstance(doc["weights"], list) or len(doc["weights"]) != n_layers:
        raise NetworkFormatError(f"weights: expected {n_layers} matrices")
    if not isinstance(doc["biases"], list) or len(doc["biases"]) != n_layers:
        raise NetworkFormatError(f"biases: expected {n_layers} vectors")
    weights = tuple(
        _expect_matrix(doc["weights"][i], f"weights[{i}]", widths[i + 1], widths[i])
        for i in range(n_layers)
    )
    biases = tuple(
        _expect_vector(doc["biases"][i], f"biases[{i}]", widths[i + 1])
        for i in range(n_layers)
    )
    head = _expect_matrix(doc["head"], "head", m, widths[-1])
    try:
        return ReLUNetwork(weights=weights, biases=biases, head=head)
    except ValueError as exc:
        raise NetworkFormatError(str(exc)) from exc


def load(path) -> ReLUNetwork:
    """Read a network file written by ``save``; malformed input raises
    NetworkFormatError naming the offending field."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        doc = json.loads(data.decode("utf-8"))
    except json.JSONDecodeError as exc:
        raise NetworkFormatError(
            f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except (UnicodeDecodeError, RecursionError) as exc:  # not UTF-8, nested too deep
        raise NetworkFormatError(f"unreadable JSON: {type(exc).__name__}: {exc}") from exc
    return from_json_dict(doc)
