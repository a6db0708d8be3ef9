"""Mixed-integer encoding of the gradient-norm maximization.

The model unrolls both passes of a ReLU network over a box domain: forward
variables reproduce every pre-activation and post-activation, backward
variables reproduce the gradient recursion, and one binary per neuron is
shared between its ReLU encoding (``encode_relu``, the standard big-M rows)
and its backward switch, so every feasible point corresponds to an input x
together with a legitimate chain-rule choice at ties.  Maximizing the dual
norm of the gradient variables therefore yields the local Lipschitz constant
exactly (for the scalar l1/linf cases and for vector-valued networks over
linear output norms).

All big-M constants come from the bounds of the encoded quantities, which is
what keeps each operator encodable with a constant number of inequalities.
Those bounds come from one interval pass, ``interval.propagate`` seeded with
``interval.head_seed_box``: every affine block (pre-activations, backward
values, gradient) is declared with that pass's box, and the ReLU, switch and
absolute-value encodings derive theirs from it the same way the pass does.
So a model's own node tightening (``LipMIPProblem.tightened_bounds`` with no
fixes) reproduces its bounds exactly.  When the model is rebuilt
(``LipMIPProblem.rebuild``) the pass intersects each layer's pre-activations
with boxes known to enclose them: branch-and-bound rebuilds it from
LP-tightened boxes before branching, which shrinks every big-M downstream
and fixes the neurons, and with them the backward switches, whose sign the
boxes decide.

Variable layout.  ``build_lipmip_model`` declares the variables in one fixed
order: the inputs; per hidden layer, its pre-activations and then, neuron by
neuron, the neuron's binary (when its sign is undecided) and its
post-activation; the dual ball (vector-valued networks only); per hidden
layer from the last down to the first, the backward values and then the
backward switches; the gradient; per gradient entry, the sign binary (when
undecided) and the absolute value; and for alpha = "l1" the max folds.  Rows
follow the same order.  ``LipMIPProblem`` records each block as an int id array, and
``LipMIPProblem.propagation_bounds`` is the one map from interval boxes onto
those ids.  The order is load-bearing: branch-and-bound breaks branching
ties by the lowest variable id and the simplex prices columns in id order,
so a reordered but otherwise equal model searches differently; and root
tightening reads the layers below layer i off this order, as the variables
up to layer i's pre-activations with the rows that mention only them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import interval, lp, norms
from .network import (
    ALWAYS_ZERO,
    OFF,
    ON,
    ReLUNetwork,
    ZeroRule,
    chain_rule_jacobian,
    jacobian_from_multipliers,
    next_layer_affine,
    pattern_at,
    pattern_multipliers,
)

CONTINUOUS = "continuous"
BINARY = "binary"


class ModelError(ValueError):
    """Raised when a model cannot be built (unbounded domain, bad bounds)."""


@dataclass
class BinDecision:
    """A ReLU's sign: either a model binary or a fixed 0/1."""

    var: int | None = None
    fixed: int | None = None

    @property
    def is_fixed(self) -> bool:
        return self.fixed is not None


class MIPModel:
    """Linear constraints over continuous + binary variables, maximized."""

    def __init__(self):
        self.lo: list[float] = []
        self.hi: list[float] = []
        self.kinds: list[str] = []
        self.names: list[str] = []
        self.constraints: list[tuple[dict[int, float], str, float]] = []
        self.objective: dict[int, float] = {}
        self.objective_const: float = 0.0

    # -- variables / constraints --------------------------------------------

    def add_var(self, lo: float, hi: float, kind: str = CONTINUOUS, name: str = "") -> int:
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise ModelError(f"variable {name or len(self.lo)}: bounds must be finite")
        if lo > hi:
            raise ModelError(f"variable {name or len(self.lo)}: lo {lo} > hi {hi}")
        self.lo.append(float(lo))
        self.hi.append(float(hi))
        self.kinds.append(kind)
        self.names.append(name or f"v{len(self.lo) - 1}")
        return len(self.lo) - 1

    def add_binary(self, name: str = "") -> int:
        return self.add_var(0.0, 1.0, BINARY, name)

    def add_constraint(self, coefs: dict[int, float], rel: str, rhs: float) -> None:
        if rel not in ("<=", "=", ">="):
            raise ModelError(f"bad relation {rel!r}")
        for v in coefs:
            if not 0 <= v < len(self.lo):
                raise ModelError(f"constraint references undeclared variable {v}")
        self.constraints.append(({k: float(c) for k, c in coefs.items()}, rel, float(rhs)))

    def set_objective(self, coefs: dict[int, float], const: float = 0.0) -> None:
        self.objective = {k: float(c) for k, c in coefs.items()}
        self.objective_const = float(const)

    @property
    def num_vars(self) -> int:
        return len(self.lo)

    @property
    def num_constraints(self) -> int:
        return len(self.constraints)

    @property
    def binary_vars(self) -> list[int]:
        return [i for i, k in enumerate(self.kinds) if k == BINARY]

    # -- conversions ----------------------------------------------------------

    def to_lp_problem(self) -> lp.LPProblem:
        n = self.num_vars
        c = np.zeros(n)
        for v, coef in self.objective.items():
            c[v] = coef
        m = self.num_constraints
        a = np.zeros((m, n))
        rhs = np.zeros(m)
        rels = []
        for i, (coefs, rel, b) in enumerate(self.constraints):
            for v, coef in coefs.items():
                a[i, v] = coef
            rhs[i] = b
            rels.append(rel)
        return lp.LPProblem(
            objective=c, a=a, relations=tuple(rels), rhs=rhs,
            lo=np.array(self.lo), hi=np.array(self.hi),
        )

    def check_point(self, point, tol: float = 1e-6, integrality_tol: float = 1e-6):
        """All violations of a full assignment (empty list = feasible)."""
        point = np.asarray(point, dtype=float)
        out = []
        for i in range(self.num_vars):
            if point[i] < self.lo[i] - tol or point[i] > self.hi[i] + tol:
                out.append(f"{self.names[i]}: value {point[i]} outside "
                           f"[{self.lo[i]}, {self.hi[i]}]")
            if self.kinds[i] == BINARY and min(abs(point[i]), abs(point[i] - 1)) > integrality_tol:
                out.append(f"{self.names[i]}: not integral ({point[i]})")
        for k, (coefs, rel, rhs) in enumerate(self.constraints):
            lhs = sum(c * point[v] for v, c in coefs.items())
            scale = tol * (1.0 + abs(rhs))
            if rel == "<=" and lhs > rhs + scale:
                out.append(f"row {k}: {lhs} </= {rhs}")
            elif rel == ">=" and lhs < rhs - scale:
                out.append(f"row {k}: {lhs} >/= {rhs}")
            elif rel == "=" and abs(lhs - rhs) > scale:
                out.append(f"row {k}: {lhs} != {rhs}")
        return out


# -- operator encodings -------------------------------------------------------


def encode_affine(model: MIPModel, in_vars, w, b, box: interval.Hyperbox,
                  prefix: str = "aff") -> list[int]:
    """Fresh out variables constrained to equal W @ in + b (b may be None),
    bounded by ``box``, a box that encloses the outputs."""
    w = np.asarray(w, dtype=float)
    in_vars = list(in_vars)
    if w.ndim != 2 or w.shape[1] != len(in_vars):
        raise ModelError(f"affine: matrix {w.shape} does not accept {len(in_vars)} inputs")
    bvec = np.zeros(w.shape[0]) if b is None else np.asarray(b, dtype=float).reshape(-1)
    out = []
    for r in range(w.shape[0]):
        y = model.add_var(box.l[r], box.u[r], name=f"{prefix}{r}")
        coefs = {y: 1.0}
        for c, v in enumerate(in_vars):
            if w[r, c] != 0.0:
                coefs[v] = coefs.get(v, 0.0) - w[r, c]
        model.add_constraint(coefs, "=", bvec[r])
        out.append(y)
    return out


def encode_switch(model: MIPModel, x_var: int, dec: BinDecision, name: str = "s") -> int:
    """y = x * a for a shared binary; collapses to y=x or y=0 when fixed."""
    l, u = model.lo[x_var], model.hi[x_var]
    if dec.is_fixed:
        if dec.fixed == 1:
            y = model.add_var(l, u, name=name)
            model.add_constraint({y: 1.0, x_var: -1.0}, "=", 0.0)
        else:
            y = model.add_var(0.0, 0.0, name=name)
            model.add_constraint({y: 1.0}, "=", 0.0)
        return y
    a = dec.var
    lhat, uhat = min(l, 0.0), max(u, 0.0)
    y = model.add_var(lhat, uhat, name=name)
    # y >= x - u(1-a)   <=>  y - x - u a >= -u
    model.add_constraint({y: 1.0, x_var: -1.0, a: -u}, ">=", -u)
    # y <= x - l(1-a)   <=>  y - x - l a <= -l
    model.add_constraint({y: 1.0, x_var: -1.0, a: -l}, "<=", -l)
    # y >= lhat a ; y <= uhat a
    model.add_constraint({y: 1.0, a: -lhat}, ">=", 0.0)
    model.add_constraint({y: 1.0, a: -uhat}, "<=", 0.0)
    return y


def encode_switch_const(model: MIPModel, value: float, dec: BinDecision,
                        name: str = "s") -> int:
    """Switch applied to a known constant: y = value * a."""
    if dec.is_fixed:
        v = value if dec.fixed == 1 else 0.0
        return model.add_var(v, v, name=name)
    y = model.add_var(min(value, 0.0), max(value, 0.0), name=name)
    model.add_constraint({y: 1.0, dec.var: -value}, "=", 0.0)
    return y


def encode_abs(model: MIPModel, x_var: int, name: str = "t") -> tuple[int, int | None]:
    """y = |x| via the four-inequality piecewise encoding; returns (y, sign).

    The two branch systems y = x (a=0) and y = -x (a=1) are glued with
    zeta- = 2l, zeta+ = 2u; the nonnegative variable bounds cut the wrong
    branch, so the feasible set is exactly the graph of |.| (a free at 0).
    A sign fixed by the bounds degenerates to a single equality, no binary.
    """
    l, u = model.lo[x_var], model.hi[x_var]
    if l >= 0:
        y = model.add_var(l, u, name=name)
        model.add_constraint({y: 1.0, x_var: -1.0}, "=", 0.0)
        return y, None
    if u <= 0:
        y = model.add_var(-u, -l, name=name)
        model.add_constraint({y: 1.0, x_var: 1.0}, "=", 0.0)
        return y, None
    a = model.add_binary(f"{name}_sign")
    y = model.add_var(0.0, max(-l, u), name=name)
    # y >= x - 2u a ; y <= x - 2l a ; y >= -x + 2l(1-a) ; y <= -x + 2u(1-a)
    model.add_constraint({y: 1.0, x_var: -1.0, a: 2 * u}, ">=", 0.0)
    model.add_constraint({y: 1.0, x_var: -1.0, a: 2 * l}, "<=", 0.0)
    model.add_constraint({y: 1.0, x_var: 1.0, a: 2 * l}, ">=", 2 * l)
    model.add_constraint({y: 1.0, x_var: 1.0, a: 2 * u}, "<=", 2 * u)
    return y, a


def encode_relu(model: MIPModel, coefs: dict[int, float], const: float,
                l: float, u: float, name: str) -> tuple[int, BinDecision]:
    """p = relu(expr) for an affine expression with known bounds [l, u].

    The standard big-M encoding: a binary a (declared before p) with p in
    [0, u], p >= expr, p <= expr - l(1-a) and p <= u a, whose LP relaxation
    keeps the triangle p >= max(0, expr).  The sign is fixed outright only
    when the bounds decide it strictly (l > 0: p = expr; u < 0: p = 0), so an
    expression whose bounds touch 0 keeps its binary and both choices at 0.
    Returns p and the decision.
    """
    if l > u:
        raise ModelError(f"relu {name}: inverted bounds")
    row = {}
    for v, c in coefs.items():
        row[v] = row.get(v, 0.0) - c
    if l > 0:
        p = model.add_var(l, u, name=name)
        model.add_constraint({p: 1.0} | row, "=", const)
        return p, BinDecision(fixed=1)
    if u < 0:
        return model.add_var(0.0, 0.0, name=name), BinDecision(fixed=0)
    a = model.add_binary(f"{name}_on")
    p = model.add_var(0.0, u, name=name)
    model.add_constraint({p: 1.0} | row, ">=", const)  # p >= expr
    model.add_constraint({p: 1.0} | row | {a: -l}, "<=", const - l)  # p <= expr - l(1-a)
    model.add_constraint({p: 1.0, a: -u}, "<=", 0.0)  # p <= u a
    return p, BinDecision(var=a)


def encode_max(model: MIPModel, x_vars, name: str = "mx"):
    """t = max(x_1..x_k) via pairwise folds max(x, y) = x + relu(y - x).

    Returns (t_var, fold_steps) where fold_steps lists
    (next_var, relu_var, relu_binary, fold_var) per fold for bookkeeping.
    """
    x_vars = list(x_vars)
    if not x_vars:
        raise ModelError("max of zero variables")
    cur = x_vars[0]
    steps = []
    for step, nxt in enumerate(x_vars[1:]):
        lc, uc = model.lo[cur], model.hi[cur]
        ln, un = model.lo[nxt], model.hi[nxt]
        s, dec = encode_relu(
            model, {nxt: 1.0, cur: -1.0}, 0.0, ln - uc, un - lc, f"{name}_r{step}"
        )
        t = model.add_var(max(lc, ln), max(uc, un), name=f"{name}{step}")
        model.add_constraint({t: 1.0, cur: -1.0, s: -1.0}, "=", 0.0)
        steps.append((nxt, s, dec.var, t))
        cur = t
    return cur, steps


def _encode_split(model: MIPModel, m: int):
    """Variables z = z+ - z- with z+, z- in [0, 1]^m and z in [-1, 1]^m;
    the caller adds the rows that shape the ball.  Returns (z, z+, z-)."""
    zp = [model.add_var(0.0, 1.0, name=f"zp{i}") for i in range(m)]
    zn = [model.add_var(0.0, 1.0, name=f"zn{i}") for i in range(m)]
    z = []
    for i in range(m):
        zi = model.add_var(-1.0, 1.0, name=f"z{i}")
        model.add_constraint({zi: 1.0, zp[i]: -1.0, zn[i]: 1.0}, "=", 0.0)
        z.append(zi)
    return z, zp, zn


def encode_dual_ball(model: MIPModel, m: int, output_norm: str):
    """Variables z with ||z||_{beta*} <= 1 for a linear output norm beta.

    Returns (z_vars, pos_vars, neg_vars); the split lists are empty for the
    plain box case.
    """
    if output_norm == "l1":
        # dual ball of l1 is the linf box: plain variable bounds suffice
        return [model.add_var(-1.0, 1.0, name=f"z{i}") for i in range(m)], [], []
    if output_norm == "linf":
        # dual ball of linf is the l1 ball: sum z+ + sum z- <= 1
        z, zp, zn = _encode_split(model, m)
        row = {v: 1.0 for v in zp}
        row.update({v: 1.0 for v in zn})
        model.add_constraint(row, "<=", 1.0)
        return z, zp, zn
    if output_norm == "cross":
        # the hull of {e_i} and {e_i - e_j}: sum z+ <= 1, sum z- <= 1 and
        # sum z+ >= sum z-
        z, zp, zn = _encode_split(model, m)
        model.add_constraint({v: 1.0 for v in zp}, "<=", 1.0)
        model.add_constraint({v: 1.0 for v in zn}, "<=", 1.0)
        row = {v: 1.0 for v in zp}
        row.update({v: -1.0 for v in zn})
        model.add_constraint(row, ">=", 0.0)
        return z, zp, zn
    raise ModelError(f"unsupported output norm {output_norm!r}")


# -- whole-model construction --------------------------------------------------


def _ids(vars_) -> np.ndarray:
    return np.array(vars_, dtype=np.intp)


@dataclass
class LipMIPProblem:
    """A built model plus the layout of its variables.

    Every id field holds model variable ids.  The per-neuron blocks are lists
    indexed by hidden layer i, each an int array with one entry per neuron:
    ``pre_vars`` (pre-activations), ``neuron_bins`` (the binary shared by the
    neuron's ReLU encoding and its backward switch, -1 where interval
    analysis fixed the sign at build time), ``post_vars`` (post-activations),
    ``bwd_value_vars`` (backward values entering the layer's switch; empty
    for the last layer of a scalar network, whose backward seed is the
    constant head row) and ``bwd_switch_vars``.  ``abs_sign_vars`` also uses
    -1 for a sign fixed at build time.  Together with the relu, binary and
    fold ids of ``max_fold_steps`` these blocks partition the model's
    variables; the order in which they were declared is given in the module
    docstring and is load-bearing for search determinism.

    ``pre_boxes[i]`` is the box that bounds layer i's pre-activation
    variables, from which its big-Ms and fixed signs were derived: the
    pre-activation box of the model's interval pass over the domain,
    intersected with the boxes the model was built from (``rebuild``).  Node
    tightening intersects its propagation with them too, so with no fixes it
    returns the model's bounds unchanged.  ``input_constraints`` keeps the
    rows that cut the domain box down to a polytope, so that a rebuild keeps
    them.
    """

    model: MIPModel
    net: ReLUNetwork
    domain: interval.Hyperbox
    alpha: str
    output_norm: str | None
    input_vars: np.ndarray
    z_ball_vars: np.ndarray
    z_pos_vars: np.ndarray
    z_neg_vars: np.ndarray
    grad_vars: np.ndarray
    abs_vars: np.ndarray
    abs_sign_vars: np.ndarray
    max_fold_steps: list  # (next_var, relu_var, relu_binary | None, fold_var) per fold
    pre_vars: list[np.ndarray]
    neuron_bins: list[np.ndarray]
    post_vars: list[np.ndarray]
    bwd_value_vars: list[np.ndarray]
    bwd_switch_vars: list[np.ndarray]
    pre_boxes: list[interval.Hyperbox]
    input_constraints: tuple

    def rebuild(self, pre_boxes) -> "LipMIPProblem":
        """The same problem built again with each layer's pre-activation box
        intersected with ``pre_boxes`` (boxes that enclose the
        pre-activations of every feasible point)."""
        return build_lipmip_model(self.net, self.domain, self.alpha, self.output_norm,
                                  self.input_constraints, pre_boxes)

    @cached_property
    def binary_map(self) -> dict[int, tuple[int, int]]:
        """Neuron binary variable -> (layer, neuron), in variable order."""
        return {
            int(v): (i, j)
            for i, bins in enumerate(self.neuron_bins)
            for j, v in enumerate(bins)
            if v >= 0
        }

    def propagation_bounds(self, prop: interval.PropagationResult):
        """Per-variable (lo, hi) arrays bounding each network quantity by its box.

        Pre-activations take their box, cut at 0 on the side their ON/OFF
        state excludes; post-activations take their ReLU image box and
        backward values and switches their backward boxes; absolute values
        take the image of the gradient box.  Variables no box describes
        (inputs, binaries, dual ball, max folds) get -inf/+inf.
        On a point input the result is the point's own value at every bounded
        variable.
        """
        lo = np.full(self.model.num_vars, -np.inf)
        hi = np.full(self.model.num_vars, np.inf)

        def put(ids, box):
            lo[ids] = box.l
            hi[ids] = box.u

        d = self.net.depth
        for i in range(d):
            zbox = prop.pre_activation_boxes[i]
            states = prop.activation_states[i]
            lo[self.pre_vars[i]] = np.where(states == ON, np.maximum(zbox.l, 0.0), zbox.l)
            hi[self.pre_vars[i]] = np.where(states == OFF, np.minimum(zbox.u, 0.0), zbox.u)
            put(self.post_vars[i], prop.post_activation_boxes[i])
            if self.bwd_value_vars[i].size:
                # backward_boxes[k] bounds the backward value entering layer d-1-k
                put(self.bwd_value_vars[i], prop.backward_boxes[d - 1 - i])
            put(self.bwd_switch_vars[i], prop.backward_switch_boxes[i])
        gbox = prop.gradient_box
        put(self.grad_vars, gbox)
        gl, gu = np.abs(gbox.l), np.abs(gbox.u)
        lo[self.abs_vars] = np.where((gbox.l <= 0) & (gbox.u >= 0), 0.0, np.minimum(gl, gu))
        hi[self.abs_vars] = np.maximum(gl, gu)
        return lo, hi

    def tightened_bounds(self, fixes: dict[int, int]):
        """Variable bounds implied by forcing the given binaries.

        Re-runs interval propagation over the domain with the corresponding
        neurons pinned and each pre-activation box intersected with
        ``pre_boxes``, and intersects the fresh boxes with the model bounds.
        Returns (lo, hi, fixed_binaries) or None when the fixes contradict
        the interval analysis outright.
        """
        forced = {
            self.binary_map[v]: val for v, val in fixes.items() if v in self.binary_map
        }
        seed = interval.head_seed_box(self.net, self.output_norm)
        prop = interval.propagate(self.net, self.domain, backward_seed=seed, forced=forced,
                                  pre_boxes=self.pre_boxes)
        for (layer, idx), val in forced.items():
            zbox = prop.pre_activation_boxes[layer]
            if val == 1 and zbox.u[idx] < 0:
                return None
            if val == 0 and zbox.l[idx] > 0:
                return None
        box_lo, box_hi = self.propagation_bounds(prop)
        lo = np.maximum(box_lo, self.model.lo)
        hi = np.minimum(box_hi, self.model.hi)
        fixed_bins = {}
        for bins, states in zip(self.neuron_bins, prop.activation_states):
            known = (bins >= 0) & (states != interval.UNKNOWN)
            fixed_bins.update(zip(bins[known].tolist(), states[known].tolist()))
        for v, val in (fixes | fixed_bins).items():
            lo[v] = hi[v] = float(val)
        if np.any(lo > hi + 1e-9):
            return None
        np.minimum(lo, hi, out=lo)
        return lo, hi, fixed_bins

    def rounded_pattern_value(self, point) -> tuple[float, np.ndarray] | None:
        """Second primal heuristic: realize the node's rounded binaries.

        Rounding the LP's activation binaries proposes a sign pattern; a tiny
        feasibility LP over the inputs checks whether some x in the domain
        realizes it (ties allowed on the boundary), within the input
        constraints when there are any.  If so, the pattern's
        constant Jacobian is a legitimate chain-rule outcome at that x, so
        its dual norm is an attainable objective value.
        """
        net = self.net
        model_lo = np.asarray(self.model.lo)
        mults = []
        for pre, bins in zip(self.pre_vars, self.neuron_bins):
            on = model_lo[pre] > 0  # neurons fixed ON at build time
            free = bins >= 0
            on[free] = point[bins[free]] >= 0.5
            mults.append(on.astype(float))
        # witness LP: layer-by-layer affine maps under the proposed pattern
        rows, rhs = [], []
        m, v = net.weights[0], net.biases[0]
        for i, lam in enumerate(mults):
            signs = 2.0 * lam - 1.0  # +1 on, -1 off
            rows.extend(signs.reshape(-1, 1) * m)
            rhs.extend(signs * -v)
            if i + 1 < net.depth:
                m, v = next_layer_affine(net, i, lam, m, v)
        for coefs, rel, b in self.input_constraints:
            row = np.zeros(net.input_dim)
            for j, c in coefs.items():
                row[j] = c
            for sign in {"<=": (-1.0,), ">=": (1.0,), "=": (1.0, -1.0)}[rel]:
                rows.append(sign * row)
                rhs.append(sign * b)
        try:
            x = lp.box_witness(rows, rhs, self.domain.l, self.domain.u)
        except lp.SolverNumericalError:
            return None  # a failed witness LP is a heuristic miss
        if x is None:
            return None
        jac = jacobian_from_multipliers(net, mults)
        return norms.operator_dual_value(jac, self.alpha, self.output_norm), x

    def incumbent_from_point(self, point) -> tuple[float, np.ndarray]:
        """First primal heuristic: the dual norm of the chain-rule Jacobian
        at the LP point's x part, clipped into the domain.

        That Jacobian is attainable at x, so its value (maximized over the
        whole dual ball in the vector-valued case) is a certified lower bound
        for the maximization.
        """
        x = np.minimum(np.maximum(point[self.input_vars], self.domain.l), self.domain.u)
        jac = chain_rule_jacobian(self.net, x, ALWAYS_ZERO)
        return norms.operator_dual_value(jac, self.alpha, self.output_norm), x


def build_lipmip_model(
    net: ReLUNetwork,
    domain: interval.Hyperbox,
    alpha: str = "linf",
    output_norm: str | None = None,
    input_constraints=None,
    pre_boxes=None,
) -> LipMIPProblem:
    """Assemble the full model whose optimum is L^alpha (or L^(alpha,beta)).

    ``alpha`` is "linf" (objective: l1 norm of the gradient) or "l1"
    (objective: max |gradient coordinate|).  ``output_norm`` switches to the
    vector-valued formulation with the head contracted against a dual-ball
    variable z.  ``input_constraints`` may add linear rows (coefs, rel, rhs)
    ``pre_boxes`` (one box per hidden layer, each enclosing the layer's
    pre-activations at every feasible point) is intersected with the
    pre-activation boxes of the model's interval pass (module docstring), so
    tighter boxes give smaller big-Ms and more neurons of fixed sign; should
    rounding leave an intersection empty, the build raises ModelError.
    """
    if alpha not in ("linf", "l1"):
        raise ModelError(f"alpha must be 'linf' or 'l1', got {alpha!r}")
    if domain.dim != net.input_dim:
        raise ModelError("domain dimension does not match the network")
    if output_norm is None and net.output_dim != 1:
        raise ModelError("multi-output network needs an output norm")
    model = MIPModel()

    input_vars = [
        model.add_var(domain.l[j], domain.u[j], name=f"x{j}") for j in range(domain.dim)
    ]
    input_constraints = tuple(
        (dict(coefs), rel, float(rhs)) for coefs, rel, rhs in input_constraints or ()
    )
    for coefs, rel, rhs in input_constraints:
        model.add_constraint({input_vars[j]: c for j, c in coefs.items()}, rel, rhs)

    d = net.depth
    prop = interval.propagate(net, domain, interval.head_seed_box(net, output_norm),
                              pre_boxes=pre_boxes)
    decisions: list[list[BinDecision]] = []
    pre_vars: list[list[int]] = []
    post_vars: list[list[int]] = []
    cur = input_vars
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        z_vars = encode_affine(model, cur, w, b, prop.pre_activation_boxes[i],
                               prefix=f"z{i}_")
        layer_dec = []
        p_vars = []
        for j, zv in enumerate(z_vars):
            p, dec = encode_relu(model, {zv: 1.0}, 0.0, model.lo[zv], model.hi[zv],
                                 name=f"p{i}_{j}")
            layer_dec.append(dec)
            p_vars.append(p)
        decisions.append(layer_dec)
        pre_vars.append(z_vars)
        post_vars.append(p_vars)
        cur = p_vars

    # backward pass; reuses each neuron's binary in its switch
    z_ball_vars: list[int] = []
    z_pos: list[int] = []
    z_neg: list[int] = []
    bwd_value_vars: list[list[int]] = [[] for _ in range(d)]
    bwd_switch_vars: list[list[int]] = [[] for _ in range(d)]
    if output_norm is None:
        head_row = net.head[0]
        sw = [
            encode_switch_const(model, float(head_row[j]), decisions[d - 1][j],
                                name=f"q{d-1}_{j}")
            for j in range(len(head_row))
        ]
    else:
        z_ball_vars, z_pos, z_neg = encode_dual_ball(model, net.output_dim, output_norm)
        v_vars = encode_affine(model, z_ball_vars, net.head.T, None, prop.backward_boxes[0],
                               prefix=f"y{d-1}_")
        bwd_value_vars[d - 1] = v_vars
        sw = [
            encode_switch(model, v, decisions[d - 1][j], name=f"q{d-1}_{j}")
            for j, v in enumerate(v_vars)
        ]
    bwd_switch_vars[d - 1] = sw
    for i in range(d - 1, 0, -1):
        v_vars = encode_affine(model, sw, net.weights[i].T, None, prop.backward_boxes[d - i],
                               prefix=f"y{i-1}_")
        bwd_value_vars[i - 1] = v_vars
        sw = [
            encode_switch(model, v, decisions[i - 1][j], name=f"q{i-1}_{j}")
            for j, v in enumerate(v_vars)
        ]
        bwd_switch_vars[i - 1] = sw
    grad_vars = encode_affine(model, sw, net.weights[0].T, None, prop.gradient_box, prefix="g")

    abs_vars: list[int] = []
    abs_signs: list[int] = []
    for j, g in enumerate(grad_vars):
        y, sign = encode_abs(model, g, name=f"ag{j}")
        abs_vars.append(y)
        abs_signs.append(-1 if sign is None else sign)
    fold_steps = []
    if alpha == "linf":
        model.set_objective({v: 1.0 for v in abs_vars})
    else:
        t, fold_steps = encode_max(model, abs_vars, name="gmax")
        model.set_objective({t: 1.0})

    return LipMIPProblem(
        model=model,
        net=net,
        domain=domain,
        alpha=alpha,
        output_norm=output_norm,
        input_vars=_ids(input_vars),
        z_ball_vars=_ids(z_ball_vars),
        z_pos_vars=_ids(z_pos),
        z_neg_vars=_ids(z_neg),
        grad_vars=_ids(grad_vars),
        abs_vars=_ids(abs_vars),
        abs_sign_vars=_ids(abs_signs),
        max_fold_steps=fold_steps,
        pre_vars=[_ids(vs) for vs in pre_vars],
        neuron_bins=[
            _ids([-1 if dec.is_fixed else dec.var for dec in layer]) for layer in decisions
        ],
        post_vars=[_ids(vs) for vs in post_vars],
        bwd_value_vars=[_ids(vs) for vs in bwd_value_vars],
        bwd_switch_vars=[_ids(vs) for vs in bwd_switch_vars],
        pre_boxes=list(prop.pre_activation_boxes),
        input_constraints=input_constraints,
    )


def feasible_assignment(problem: LipMIPProblem, x, rule: ZeroRule = ALWAYS_ZERO,
                        z=None) -> np.ndarray:
    """Full variable assignment realizing input x under a given tie rule.

    Used to validate the feasible set: the returned point must satisfy every
    model constraint, and the model objective at it must equal the dual norm
    of the corresponding chain-rule Jacobian (contracted with z when vector
    valued).  The values come from interval propagation over the point box
    {x}, with tied neurons forced by ``rule``; they are never clamped to the
    model bounds.
    """
    net = problem.net
    x = np.asarray(x, dtype=float).reshape(-1)
    pattern = pattern_at(net, x, tie_tol=0.0)
    mults = pattern_multipliers(pattern, rule)
    forced = {(i, j): int(mults[i][j]) for i, j in pattern.tie_positions()}
    seed = None
    if problem.output_norm is not None:
        if z is None:
            raise ValueError("vector-valued assignment needs a dual vector z")
        z = np.asarray(z, dtype=float).reshape(-1)
        seed = interval.Hyperbox.point(net.head.T @ z)
    prop = interval.propagate(net, interval.Hyperbox.point(x), backward_seed=seed,
                              forced=forced)
    point, _ = problem.propagation_bounds(prop)  # lo == hi on a point box
    point[problem.input_vars] = x
    for bins, lam in zip(problem.neuron_bins, mults):
        free = bins >= 0
        point[bins[free]] = lam[free]
    if problem.output_norm is not None:
        point[problem.z_ball_vars] = z
        if problem.z_pos_vars.size:
            point[problem.z_pos_vars] = np.maximum(z, 0.0)
            point[problem.z_neg_vars] = np.maximum(-z, 0.0)
    g = point[problem.grad_vars]
    signed = problem.abs_sign_vars >= 0
    point[problem.abs_sign_vars[signed]] = (g[signed] < 0).astype(float)
    cur = abs(g[0]) if len(g) else 0.0
    for (nxt_var, relu_var, relu_bin, fold_var) in problem.max_fold_steps:
        nxt = point[nxt_var]
        srel = max(nxt - cur, 0.0)
        point[relu_var] = srel
        if relu_bin is not None:
            point[relu_bin] = 1.0 if nxt - cur > 0 else 0.0
        cur = cur + srel
        point[fold_var] = cur
    return point
