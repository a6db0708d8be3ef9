"""Hyperbox bound propagation through ReLU networks.

A forward pass pushes an input box through affine maps, the sign abstraction
(an int8 state per neuron: ON, OFF or UNKNOWN) and the ReLU image to bound
every pre- and post-activation; given a backward seed, a backward pass
pushes it (the head row, or a dual-ball box for vector-valued networks)
through the gradient recursion,
whose switches y * a take the neurons' signs, to bound every chain-rule
Jacobian entry; given a tangent seed (a box of input directions v), a
forward tangent pass pushes it through the same switches to bound every
directional derivative J v.  The dual norm of the final gradient box's
corner of largest magnitudes is the FastLip upper bound (``fastlip``, which
takes the input norm as every estimator does); the intermediate boxes supply
the finite big-M constants of the LipMIP model (``mip.build_lipmip_model``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import norms
from .network import OFF, ON, ReLUNetwork

UNKNOWN = -1  # sign state '?': neuron may be on or off


@dataclass(frozen=True)
class Hyperbox:
    """Axis-aligned box given by finite lower/upper vectors l <= u."""

    l: np.ndarray
    u: np.ndarray

    def __post_init__(self):
        l = np.asarray(self.l, dtype=float).reshape(-1)
        u = np.asarray(self.u, dtype=float).reshape(-1)
        if l.shape != u.shape:
            raise ValueError("l and u must have the same length")
        if not (np.all(np.isfinite(l)) and np.all(np.isfinite(u))):
            raise ValueError("box bounds must be finite")
        if np.any(l > u + 1e-12):
            raise ValueError("need l <= u elementwise")
        l.flags.writeable = False
        u.flags.writeable = False
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "u", u)

    @staticmethod
    def from_center_radius(center, radius) -> "Hyperbox":
        c = np.asarray(center, dtype=float).reshape(-1)
        r = np.broadcast_to(np.asarray(radius, dtype=float), c.shape)
        return Hyperbox(c - r, c + r)

    @staticmethod
    def point(x) -> "Hyperbox":
        x = np.asarray(x, dtype=float).reshape(-1)
        return Hyperbox(x, x)

    @property
    def dim(self) -> int:
        return self.l.shape[0]

    @property
    def center(self) -> np.ndarray:
        return (self.l + self.u) / 2.0

    @property
    def radius(self) -> np.ndarray:
        return (self.u - self.l) / 2.0

    def contains(self, x, tol: float = 0.0) -> bool:
        x = np.asarray(x, dtype=float).reshape(-1)
        return bool(np.all(x >= self.l - tol) and np.all(x <= self.u + tol))

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.uniform(self.l, self.u, size=(n, self.dim))


def _box(l: np.ndarray, u: np.ndarray) -> Hyperbox:
    """Internal constructor for already-consistent bounds (skips validation)."""
    b = object.__new__(Hyperbox)
    object.__setattr__(b, "l", l)
    object.__setattr__(b, "u", u)
    return b


def push_affine(box: Hyperbox, w, b=None) -> Hyperbox:
    """Image box of x -> Wx + b: center maps through W, radius through |W|."""
    w = np.asarray(w, dtype=float)
    if w.ndim != 2 or w.shape[1] != box.dim:
        raise ValueError(f"matrix shape {w.shape} does not accept dim {box.dim}")
    c = w @ box.center
    if b is not None:
        c = c + np.asarray(b, dtype=float).reshape(-1)
    r = np.abs(w) @ box.radius
    return _box(c - r, c + r)


def push_conditional(box: Hyperbox) -> np.ndarray:
    """Sign abstraction: ON if l > 0, OFF if u < 0, UNKNOWN otherwise.

    Boundary cases l = 0 / u = 0 map to UNKNOWN, which is always sound for the
    set-valued sign at zero.
    """
    v = np.full(box.dim, UNKNOWN, dtype=np.int8)
    v[box.l > 0] = ON
    v[box.u < 0] = OFF
    return v


def push_relu(box: Hyperbox, states: np.ndarray) -> Hyperbox:
    """Image box of relu(x) for x in the box under the given sign states:
    [max(l,0), max(u,0)], or [0, 0] where the neuron is OFF.  A neuron forced
    ON with l < 0 has x >= 0, so its image is [0, u]."""
    if states.shape[0] != box.dim:
        raise ValueError("relu: box and sign state dimensions differ")
    off = states == OFF
    return _box(np.where(off, 0.0, np.maximum(box.l, 0.0)),
                np.where(off, 0.0, np.maximum(box.u, 0.0)))


def push_switch(box: Hyperbox, states: np.ndarray) -> Hyperbox:
    """Image box of (x, a) -> x * a under the given sign states."""
    if states.shape[0] != box.dim:
        raise ValueError("switch: box and sign state dimensions differ")
    l = np.where(states == ON, box.l, np.where(states == OFF, 0.0, np.minimum(box.l, 0.0)))
    u = np.where(states == ON, box.u, np.where(states == OFF, 0.0, np.maximum(box.u, 0.0)))
    return _box(l, u)


@dataclass(frozen=True)
class PropagationResult:
    """All boxes produced by one forward/backward sweep.

    pre_activation_boxes[i] bounds Z_{i+1}; activation_states[i] holds the
    layer's sign states (ON, OFF or UNKNOWN per neuron); with a backward
    seed, backward_boxes runs from the seed down to the input, so
    backward_boxes[-1] (``gradient_box``) bounds the chain-rule gradient
    rows, and without one it is empty.
    post_activation_boxes[i] is the ReLU image of layer i (``push_relu``) and
    backward_switch_boxes[i] the image of its backward switch (empty without
    a backward seed), both indexed by hidden layer in forward order.
    With a tangent seed, tangent_boxes[i] bounds layer i's tangent
    t_i = W_i s_{i-1} (s_{-1} the seed) and tangent_switch_boxes[i] its
    switch s_i = lambda_i t_i; both are empty without one.
    """

    pre_activation_boxes: tuple[Hyperbox, ...]
    activation_states: tuple[np.ndarray, ...]
    backward_boxes: tuple[Hyperbox, ...]
    post_activation_boxes: tuple[Hyperbox, ...]
    backward_switch_boxes: tuple[Hyperbox, ...]
    tangent_boxes: tuple[Hyperbox, ...] = ()
    tangent_switch_boxes: tuple[Hyperbox, ...] = ()

    @property
    def gradient_box(self) -> Hyperbox:
        return self.backward_boxes[-1]


def head_seed_box(net: ReLUNetwork, output_norm: str | None) -> Hyperbox:
    """Box over head^T z for z in the dual ball of the output norm.

    ``None`` (scalar network) gives the degenerate box at the single head
    row.  Otherwise coordinate j ranges over +-||head[:, j]||_beta, the
    tightest box containing the seeded backward values.
    """
    if output_norm is None:
        if net.output_dim != 1:
            raise ValueError("scalar backward seed needs a single head row")
        return Hyperbox.point(net.head[0])
    gens = norms.dual_ball_generators(net.output_dim, output_norm)
    vals = gens @ net.head  # one row of head^T z per generator
    return Hyperbox(vals.min(axis=0), vals.max(axis=0))


def propagate(
    net: ReLUNetwork,
    domain: Hyperbox,
    backward_seed: Hyperbox | None = None,
    forced: dict[tuple[int, int], int] | None = None,
    pre_boxes=None,
    tangent_seed: Hyperbox | None = None,
) -> PropagationResult:
    """Forward interval sweep, and the backward one through the gradient
    recursion when a ``backward_seed`` is given.

    ``backward_seed`` bounds the backward values entering the last layer
    (``head_seed_box``, or a point); without it the backward pass does not
    run and the result's backward boxes are empty.  ``forced`` pins
    individual neurons to 0/1 before the ReLU and switch pushforwards; the
    result is then only sound for inputs consistent with those branch
    decisions (used for bound tightening during search).
    ``pre_boxes``, one box per hidden layer known to enclose its
    pre-activations over the whole domain (say, boxes tightened by LP), is
    intersected with each pre-activation box before its sign is read; a box
    left empty (l > u) means the forced decisions contradict it, or, with
    nothing forced, that rounding crossed two enclosures of the same set.
    ``tangent_seed``, a box of input directions, adds the forward tangent
    pass under the same sign states (``PropagationResult``).
    """
    if domain.dim != net.input_dim:
        raise ValueError(f"domain dim {domain.dim} != input dim {net.input_dim}")
    z_boxes: list[Hyperbox] = []
    sign_states: list[np.ndarray] = []
    post_boxes: list[Hyperbox] = []
    cur = domain
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        z_box = push_affine(cur, w, b)
        if pre_boxes is not None:
            known = pre_boxes[i]
            z_box = _box(np.maximum(z_box.l, known.l), np.minimum(z_box.u, known.u))
        states = push_conditional(z_box)
        for (lay, idx), val in (forced or {}).items():
            if lay == i:
                states[idx] = ON if val else OFF
        z_boxes.append(z_box)
        sign_states.append(states)
        cur = push_relu(z_box, states)
        post_boxes.append(cur)

    back: list[Hyperbox] = [] if backward_seed is None else [backward_seed]
    back_switch: list[Hyperbox] = []
    if back:
        if backward_seed.dim != net.layer_sizes[-1]:
            raise ValueError("backward seed dimension must match the last layer")
        for w, states in zip(reversed(net.weights), reversed(sign_states)):
            back_switch.append(push_switch(back[-1], states))
            back.append(push_affine(back_switch[-1], w.T))
    tangents: list[Hyperbox] = []
    tangent_switches: list[Hyperbox] = []
    if tangent_seed is not None:
        s_box = tangent_seed
        for w, states in zip(net.weights, sign_states):
            tangents.append(push_affine(s_box, w))
            s_box = push_switch(tangents[-1], states)
            tangent_switches.append(s_box)
    return PropagationResult(
        tuple(z_boxes), tuple(sign_states), tuple(back),
        tuple(post_boxes), tuple(reversed(back_switch)),
        tuple(tangents), tuple(tangent_switches),
    )


def fastlip(net: ReLUNetwork, domain: Hyperbox, alpha: str = "linf") -> float:
    """Certified Lipschitz upper bound in the input norm ``alpha``: the dual
    norm of the gradient box's corner of largest magnitudes, which dominates
    every gradient in the box coordinate by coordinate."""
    box = propagate(net, domain, head_seed_box(net, None)).gradient_box
    corner = np.maximum(np.abs(box.l), np.abs(box.u))
    return norms.operator_dual_value(corner.reshape(1, -1), alpha, None)
