"""Mixed-integer encoding of the gradient-norm maximization.

The model unrolls both passes of a ReLU network over a box domain: forward
quantities reproduce every pre-activation and post-activation, backward
quantities reproduce the gradient recursion, and one binary per neuron is
shared between its ReLU encoding (``encode_relu``, the standard big-M rows)
and its backward switch, so every feasible point corresponds to an input x
together with a legitimate chain-rule choice at ties.  Maximizing the dual
norm of the gradient therefore yields the local Lipschitz constant exactly
(for the scalar l1/linf cases and for vector-valued networks over linear
output norms).

Forward encoding.  Wherever f is differentiable, d_v f(x) = grad f(x) . v,
so for a scalar network under alpha = "linf" the constant is also the
maximum of head . J(x) v over x in the box and v in [-1, 1]^n0.  The
forward encoding replaces the backward pass by a tangent pass:
t_0 = W_0 v, s_i = ``encode_switch``(t_i) on neuron i's shared binary,
t_{i+1} = W_{i+1} s_i, with objective head . s_last.  Its only binaries
are the neurons'; the backward linf objective spends one ``encode_abs``
binary per undecided gradient entry.  ``choose_encoding`` takes it for
scalar linf networks with at least ``FORWARD_MIN_INPUTS`` = 8 inputs;
every other case and the LipLP estimator keep the backward encoding.  The
rule is measured on both encodings of 23 linf ``random_he`` nets (full
solver, 2 cores, BLAS on one thread; every value agreed).  With n0 >= 8
forward won 8 of 10, up to 12x (``he[16,16,16,1]`` s2 r = 0.1, 0.70 s
against 8.9 s; ``he[50,20,20,1]`` s0 r = 0.05 closed in 0.9 s, where
backward was open at 20 s), and lost two narrowly (``he[8,16,16,1]`` s0
r = 0.1, 0.16 s against 0.14 s; ``he[12,20,20,1]`` s1 r = 0.1, 0.65 s
against 0.62 s).  Below 8 inputs it won 3 of 13 and lost up to 6x
(``he[2,20,20,1]`` s5 r = 1, 13.7 s against 2.2 s).  An l1 tangent ball
(``encode_dual_ball``'s split) lost on 7 of 10 nets in a prototype.

Three kinds of quantity.  Every pre-activation, backward value, tangent
and gradient entry is affine in a few free quantities, so a ``MIPModel``
id names a column (``add_var``, ``add_binary``: inputs, directions,
binaries, undecided neurons' outputs), an affine quantity (``add_affine``:
``encode_affine``'s outputs, ``encode_switch_const``'s y = v a, the
dual-ball split z = z+ - z- and a sign-fixed |g| = -g), expanded over the
columns when declared, or a constant (``add_constant``: an OFF ReLU or
switch).  An ON ReLU or switch returns its input's id, an alias, as |g|
does for g >= 0.  The LP the solver is given (``MIPModel.relaxation``)
has the columns alone, a row per affine quantity boxed by its box
(``MIPModel.lp_boxes``) and none per constant.  A +-1 reference expands
exactly; an ON alias feeding the next affine map composes W_{i+1} W_i in
floating point.  The export (``MIPModel.to_lp_problem``) makes every id a
column and each affine quantity an ``=`` row over its declared terms.

All big-M constants come from the bounds of the encoded quantities, which is
what keeps each operator encodable with a constant number of inequalities.
Those bounds come from one interval pass, ``interval.propagate`` seeded with
``interval.head_seed_box`` (a forward model runs no backward pass): every
affine block (pre-activations, backward values, gradient) is declared with
that pass's box, and the ReLU, switch and
absolute-value encodings derive theirs from it the same way the pass does.
A forward model's pass also takes a tangent seed, the box [-1, 1]^n0 of
directions, and its tangent boxes (``push_affine`` and ``push_switch`` under
the sign states) bound the tangent blocks, at build and in node tightening.
The pass also owns each neuron's sign: ``encode_relu``, ``encode_switch``
and ``encode_switch_const`` take its state (ON, OFF or UNKNOWN), and only an
UNKNOWN neuron gets a binary.  So a model's own node tightening
(``LipMIPProblem.tightened_bounds`` with no fixes) reproduces its bounds
exactly.  When the model is rebuilt (``LipMIPProblem.rebuild``) the pass
intersects each layer's pre-activations with boxes known to enclose them:
branch-and-bound rebuilds it from LP-tightened boxes before branching, which
shrinks every big-M downstream and fixes the neurons, and with them the
backward switches, whose sign the boxes decide.

Variable layout.  ``build_lipmip_model`` declares the ids in one fixed
order: the inputs; per hidden layer, its pre-activations and then, neuron by
neuron, the neuron's binary (when its sign is undecided) and its
post-activation (none when ON).  A forward model then declares the
direction v and, per hidden layer in forward order, the tangents t_i and
their switches s_i.  A backward model declares the dual ball (vector-valued
networks only); per hidden layer from the last down to the first, the
backward values and then the backward switches; the gradient; and last the
objective block: for alpha = "linf", per gradient entry, the sign binary
(when undecided) and the absolute value; for alpha = "l1", one binary per
gradient entry and sign, in entry order with + before -, and then their
maximum t (``encode_signed_max``).  Rows follow the same order.
``LipMIPProblem`` records each block as an int id array and is the only
reader of the order: ``propagation_bounds`` is the one map from interval
boxes onto those ids, and ``layers_below(i)`` is the relaxation of the ids
up to layer i's last pre-activation, their columns and the rows declared up
to it.  The order is load-bearing: branch-and-bound breaks branching ties by
the lowest id and the simplex prices columns in id order, so a reordered but
otherwise equal model searches differently.

Primal heuristics.  ``incumbent_from_point`` scores the chain-rule Jacobian
at a relaxation point's x.  ``rounded_pattern_value`` hands the sign pattern
of the rounded binaries to ``oracle.SignPatternLP``, the one builder of
sign-pattern polytopes, and scores the pattern's Jacobian if some x in the
domain realizes it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    multipliers,
    preactivations,
)
from .oracle import SignPatternLP

#: A rounded pattern whose realizability LP has not run yet.
_UNSOLVED = object()

FORWARD = "forward"
BACKWARD = "backward"
#: Fewest inputs for which a scalar linf net gets the forward encoding
#: (``choose_encoding``; the module docstring has the measurement).
FORWARD_MIN_INPUTS = 8


class ModelError(ValueError):
    """Raised when a model cannot be built (unbounded domain, bad bounds)."""


class MIPModel:
    """A maximization over finitely boxed quantities named by their ids in
    declaration order: a column (``add_var``, ``add_binary``), an affine
    quantity (``add_affine``) or a constant (``add_constant``), with ``lo``
    and ``hi`` every id's box (module docstring).  Linear rows, a linear
    objective, and ``binary_vars``, the columns that must end at 0 or 1."""

    def __init__(self):
        self.lo: list[float] = []
        self.hi: list[float] = []
        self.binary_vars: list[int] = []
        self.constraints: list[tuple[dict[int, float], str, float]] = []
        self.objective: dict[int, float] = {}
        self.objective_const: float = 0.0  # always 0; the bench's HiGHS export adds it
        self.num_columns = 0
        # per id: whether it is a column, and its expansion (LP columns,
        # coefficients, constant); per affine id: its exported = row
        self._is_column: list[bool] = []
        self._expansion: list[tuple[np.ndarray, np.ndarray, float]] = []
        self._equations: dict[int, tuple[dict[int, float], str, float]] = {}
        # the rows in declaration order: (an affine id or ~k for constraint
        # k, how many ids were declared then)
        self._rows: list[tuple[int, int]] = []
        self._layout_cache = None

    # -- quantities / constraints --------------------------------------------

    def _declare(self, lo: float, hi: float, expansion) -> int:
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise ModelError(f"variable {len(self.lo)}: bounds must be finite")
        if lo > hi:
            raise ModelError(f"variable {len(self.lo)}: lo {lo} > hi {hi}")
        self.lo.append(float(lo))
        self.hi.append(float(hi))
        self._is_column.append(expansion is None)
        if expansion is None:  # a column: itself
            expansion = (np.array([self.num_columns]), np.ones(1), 0.0)
            self.num_columns += 1
        self._expansion.append(expansion)
        return len(self.lo) - 1

    def add_var(self, lo: float, hi: float) -> int:
        return self._declare(lo, hi, None)

    def add_binary(self) -> int:
        v = self.add_var(0.0, 1.0)
        self.binary_vars.append(v)
        return v

    def add_constant(self, value: float) -> int:
        """A quantity fixed at ``value``: no column and no row."""
        return self._declare(value, value, (np.zeros(0, dtype=np.intp), np.zeros(0), value))

    def add_affine(self, in_vars, w, b, lo, hi) -> list[int]:
        """Quantities y = W @ in + b (b may be None), one per row of W, with
        boxes [lo, hi].  Each is expanded over the columns at once: an input
        that is itself affine contributes W times its expansion, composed in
        floating point.  One whose expansion has no column is a constant."""
        w = np.asarray(w, dtype=float)
        in_vars = [int(v) for v in in_vars]
        if w.ndim != 2 or w.shape[1] != len(in_vars):
            raise ModelError(f"affine: matrix {w.shape} does not accept {len(in_vars)} inputs")
        if not all(0 <= v < self.num_vars for v in in_vars):
            raise ModelError("affine quantity references an undeclared variable")
        bvec = np.zeros(w.shape[0]) if b is None else np.asarray(b, dtype=float).reshape(-1)
        expand, consts = np.zeros((len(in_vars), self.num_columns)), np.zeros(len(in_vars))
        for t, v in enumerate(in_vars):
            cols, coefs, consts[t] = self._expansion[v]
            expand[t, cols] = coefs
        rows, offsets = w @ expand, w @ consts + bvec
        for r in range(w.shape[0]):
            cols = np.flatnonzero(rows[r])
            y = self._declare(lo[r], hi[r], (cols, rows[r, cols], float(offsets[r])))
            coefs = {y: 1.0}
            for c in np.flatnonzero(w[r]):
                coefs[in_vars[c]] = coefs.get(in_vars[c], 0.0) - w[r, c]
            self._equations[y] = (coefs, "=", float(bvec[r]))
            self._rows.append((y, y + 1))
        return list(range(self.num_vars - w.shape[0], self.num_vars))

    def add_constraint(self, coefs: dict[int, float], rel: str, rhs: float) -> None:
        if rel not in ("<=", "=", ">="):
            raise ModelError(f"bad relation {rel!r}")
        if not all(0 <= v < self.num_vars for v in coefs):
            raise ModelError("constraint references an undeclared variable")
        self._rows.append((~len(self.constraints), self.num_vars))
        self.constraints.append(({k: float(c) for k, c in coefs.items()}, rel, float(rhs)))

    def set_objective(self, coefs: dict[int, float]) -> None:
        self.objective = {k: float(c) for k, c in coefs.items()}

    @property
    def num_vars(self) -> int:
        return len(self.lo)

    @property
    def num_constraints(self) -> int:
        """The export's rows: one per affine quantity and per constraint."""
        return len(self._rows)

    # -- the exported model ------------------------------------------------------

    def to_lp_problem(self) -> lp.LPProblem:
        """The model with every id a column, and its rows in declaration
        order: each affine quantity an ``=`` row over its declared terms."""
        rows = [self.constraints[~e] if e < 0 else self._equations[e] for e, _ in self._rows]
        c, a = np.zeros(self.num_vars), np.zeros((len(rows), self.num_vars))
        c[list(self.objective)] = list(self.objective.values())
        for i, (coefs, _, _) in enumerate(rows):
            a[i, list(coefs)] = list(coefs.values())
        return lp.LPProblem(objective=c, a=a, relations=tuple(r for _, r, _ in rows),
                            rhs=np.array([b for *_, b in rows]), lo=self.lo, hi=self.hi)

    # -- the LP the solver is given ----------------------------------------------

    def _layout(self) -> _LPLayout:
        """The relaxation's data, kept until the model grows."""
        key = (self.num_vars, len(self.constraints))
        if self._layout_cache is None or self._layout_cache.key != key:
            self._layout_cache = _LPLayout(self, key)
        return self._layout_cache

    def linear(self, coefs: dict[int, float]) -> tuple[np.ndarray, float]:
        """A linear form over ids as (coefficients over the LP columns,
        constant)."""
        lay, k = self._layout(), np.zeros(self.num_vars)
        k[list(coefs)] = list(coefs.values())
        return k @ lay.expand, float(k @ lay.offset)

    def values(self, x) -> np.ndarray:
        """Every id's value at a point ``x`` of the LP columns."""
        lay = self._layout()
        return lay.expand @ np.asarray(x, dtype=float) + lay.offset

    def relaxation(self, upto: int | None = None) -> lp.LPProblem:
        """The LP the solver is given, over the column ids in id order, with
        ``linear``'s objective (constant left out) and rows in declaration
        order.  An affine quantity with a column in its expansion is a row
        whose rhs is minus its constant (the slack is the negated quantity)
        and whose relation is never read: every solve passes ``lp_boxes``.
        With ``upto``, the LP of the ids below ``upto``: their columns, the
        rows declared before id ``upto`` and a zero objective."""
        lay = self._layout()
        cols, rows, c = lay.columns, lay.a.shape[0], self.linear(self.objective)[0]
        if upto is not None:
            rows = int(np.searchsorted(lay.row_ids, upto, side="right"))
            cols = cols[:int(np.searchsorted(cols, upto))]
            c = np.zeros(cols.size)
        lo, hi = np.array(self.lo)[cols], np.array(self.hi)[cols]
        return lp.LPProblem(objective=c, a=lay.a[:rows, :cols.size],
                            relations=lay.relations[:rows], rhs=lay.rhs[:rows], lo=lo, hi=hi)

    def lp_boxes(self, lo, hi):
        """Per-id boxes (the model's own, or node tightening's) as the
        relaxation's (col_lo, col_hi, row_lo, row_hi): an affine quantity's
        row box is its box less its constant, and a constraint row keeps its
        relation's box, closed by the row's range over the model's boxes."""
        lay = self._layout()
        lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
        row_lo, row_hi = lay.rel_lo.copy(), lay.rel_hi.copy()
        q, ids = lay.quantity_rows, lay.quantity_ids
        row_lo[q] = lo[ids] + lay.rhs[q]
        row_hi[q] = hi[ids] + lay.rhs[q]
        return lo[lay.columns], hi[lay.columns], row_lo, row_hi


class _LPLayout:
    """``MIPModel.relaxation``'s data: each id's expansion over the columns
    (``expand``, ``offset``), the expanded rows with their relations' boxes,
    the rows of affine quantities, and per row the ids declared before it."""

    def __init__(self, model: MIPModel, key):
        self.key = key
        n = model.num_vars
        self.columns = np.flatnonzero(model._is_column)
        self.expand, self.offset = np.zeros((n, self.columns.size)), np.zeros(n)
        for v, (cols, coefs, self.offset[v]) in enumerate(model._expansion):
            self.expand[v, cols] = coefs
        kept = [(e, ids) for e, ids in model._rows  # a constant has no row
                if e < 0 or model._expansion[e][0].size]
        rows = [e for e, _ in kept]
        coef, rhs = np.zeros((len(rows), n)), np.zeros(len(rows))
        for r, e in enumerate(rows):
            if e >= 0:
                coef[r, e] = 1.0
            else:
                coefs, _, rhs[r] = model.constraints[~e]
                coef[r, list(coefs)] = list(coefs.values())
        below = coef @ self.offset  # the rows' constants
        self.a, self.rhs = coef @ self.expand, rhs - below
        self.relations = tuple(">=" if e >= 0 else model.constraints[~e][1] for e in rows)
        self.row_ids = np.array([ids for _, ids in kept], dtype=np.intp)
        self.quantity_rows = np.flatnonzero(np.array(rows) >= 0)
        self.quantity_ids = np.array(rows, dtype=np.intp)[self.quantity_rows]
        # a constraint row's open side is its range over the model's id boxes,
        # the slack box it would have as a row over every id
        rels, lo, hi = np.array(self.relations), model.lo, model.hi
        act_lo = np.maximum(coef, 0.0) @ lo + np.minimum(coef, 0.0) @ hi - below
        act_hi = np.maximum(coef, 0.0) @ hi + np.minimum(coef, 0.0) @ lo - below
        self.rel_lo = np.where(rels == "<=", np.minimum(act_lo, self.rhs), self.rhs)
        self.rel_hi = np.where(rels == ">=", np.maximum(act_hi, self.rhs), self.rhs)


# -- operator encodings -------------------------------------------------------
# Each encoder declares its quantities and rows on the model and returns
# their ids; its binaries also enter ``MIPModel.binary_vars``.  An output
# that equals an input returns the input's id.


def encode_affine(model: MIPModel, in_vars, w, b, box: interval.Hyperbox) -> list[int]:
    """Affine quantities W @ in + b (b may be None), bounded by ``box``, a
    box that encloses them."""
    return model.add_affine(in_vars, w, b, box.l, box.u)


def encode_switch(model: MIPModel, x_var: int, state: int, a: int) -> int:
    """y = x * a for the shared binary a of an UNKNOWN sign ``state``;
    collapses to x itself (ON) or the constant 0 (OFF)."""
    l, u = model.lo[x_var], model.hi[x_var]
    if state == ON:
        return x_var
    if state == OFF:
        return model.add_constant(0.0)
    lhat, uhat = min(l, 0.0), max(u, 0.0)
    y = model.add_var(lhat, uhat)
    # y >= x - u(1-a)   <=>  y - x - u a >= -u
    model.add_constraint({y: 1.0, x_var: -1.0, a: -u}, ">=", -u)
    # y <= x - l(1-a)   <=>  y - x - l a <= -l
    model.add_constraint({y: 1.0, x_var: -1.0, a: -l}, "<=", -l)
    # y >= lhat a ; y <= uhat a
    model.add_constraint({y: 1.0, a: -lhat}, ">=", 0.0)
    model.add_constraint({y: 1.0, a: -uhat}, "<=", 0.0)
    return y


def encode_switch_const(model: MIPModel, value: float, state: int, a: int) -> int:
    """Switch applied to a known constant: the affine quantity value * a
    (``encode_switch``), a constant when the sign is known."""
    if state != interval.UNKNOWN:
        return model.add_constant(value if state == ON else 0.0)
    return model.add_affine([a], [[value]], None, [min(value, 0.0)], [max(value, 0.0)])[0]


def encode_abs(model: MIPModel, x_var: int) -> tuple[int, int | None]:
    """y = |x| via the four-inequality piecewise encoding; returns y and the
    sign binary's id, None when the bounds fix the sign.

    The two branch systems y = x (a=0) and y = -x (a=1) are glued with
    zeta- = 2l, zeta+ = 2u; the nonnegative variable bounds cut the wrong
    branch, so the feasible set is exactly the graph of |.| (a free at 0).
    A sign fixed by the bounds needs no binary: |x| is x itself (l >= 0) or
    the affine quantity -x.
    """
    l, u = model.lo[x_var], model.hi[x_var]
    if l >= 0:
        return x_var, None
    if u <= 0:
        return model.add_affine([x_var], [[-1.0]], None, [-u], [-l])[0], None
    a = model.add_binary()
    y = model.add_var(0.0, max(-l, u))
    # y >= x - 2u a ; y <= x - 2l a ; y >= -x + 2l(1-a) ; y <= -x + 2u(1-a)
    model.add_constraint({y: 1.0, x_var: -1.0, a: 2 * u}, ">=", 0.0)
    model.add_constraint({y: 1.0, x_var: -1.0, a: 2 * l}, "<=", 0.0)
    model.add_constraint({y: 1.0, x_var: 1.0, a: 2 * l}, ">=", 2 * l)
    model.add_constraint({y: 1.0, x_var: 1.0, a: 2 * u}, "<=", 2 * u)
    return y, a


def encode_relu(model: MIPModel, z: int, state: int) -> tuple[int, int]:
    """p = relu(z) for a pre-activation variable z with model bounds [l, u]
    and the sign ``state`` that ``interval.push_conditional`` reads from them.

    ON gives z itself, OFF the constant 0, and UNKNOWN the standard big-M encoding:
    a binary a (declared before p) with p in [0, u], p >= z, p <= z - l(1-a)
    and p <= u a, whose LP relaxation keeps the triangle p >= max(0, z).  A
    box touching 0 is UNKNOWN, so it keeps both choices at 0.  Returns p and
    a, which is -1 when the sign is fixed.
    """
    l, u = model.lo[z], model.hi[z]
    if state == ON:
        return z, -1
    if state == OFF:
        return model.add_constant(0.0), -1
    a = model.add_binary()
    p = model.add_var(0.0, u)
    model.add_constraint({p: 1.0, z: -1.0}, ">=", 0.0)  # p >= z
    model.add_constraint({p: 1.0, z: -1.0, a: -l}, "<=", -l)  # p <= z - l(1-a)
    model.add_constraint({p: 1.0, a: -u}, "<=", 0.0)  # p <= u a
    return p, a


def encode_signed_max(model: MIPModel, x_vars) -> tuple[list[int], int]:
    """A maximized t = max over j and s = +-1 of s * x_j, i.e. max_j |x_j|.

    One binary b_js per variable and sign (in variable order, + before -)
    chooses the option that bounds t.  With [L_js, U_js] the bounds of
    s * x_j and U = max U_js, t lies in [0, U] and the rows are sum b = 1,
    t - s x_j + (U - L_js) b_js <= U - L_js (t <= s x_j when b_js = 1, slack
    otherwise) and t <= sum U_js b_js.  At an integral b the largest feasible
    t is the chosen s * x_j, so the maximum over b is max_j |x_j|; t is
    bounded from above only.  Returns (binaries, t).
    """
    options = [(x, s) for x in x_vars for s in (1.0, -1.0)]
    bounds = [(model.lo[x], model.hi[x]) if s > 0 else (-model.hi[x], -model.lo[x])
              for x, s in options]
    bins = [model.add_binary() for _ in options]
    top = max(u for _, u in bounds)
    t = model.add_var(0.0, top)
    model.add_constraint({b: 1.0 for b in bins}, "=", 1.0)
    for (x, s), (l, _), b in zip(options, bounds, bins):
        model.add_constraint({t: 1.0, x: -s, b: top - l}, "<=", top - l)
    # implied at an integral b; it keeps the LP relaxation below FastLip's value
    model.add_constraint({t: 1.0} | {b: -u for b, (_, u) in zip(bins, bounds)}, "<=", 0.0)
    return bins, t


def _encode_split(model: MIPModel, m: int):
    """Columns z+, z- in [0, 1]^m and the affine quantities z = z+ - z- in
    [-1, 1]^m; the caller adds the rows that shape the ball.  Returns (z,
    z+, z-)."""
    zp = [model.add_var(0.0, 1.0) for _ in range(m)]
    zn = [model.add_var(0.0, 1.0) for _ in range(m)]
    z = [model.add_affine([p, n], [[1.0, -1.0]], None, [-1.0], [1.0])[0]
         for p, n in zip(zp, zn)]
    return z, zp, zn


def encode_dual_ball(model: MIPModel, m: int, output_norm: str):
    """Variables z with ||z||_{beta*} <= 1 for a linear output norm beta.

    Returns (z_vars, pos_vars, neg_vars); the split lists are empty for the
    plain box case.
    """
    if output_norm == "l1":
        # dual ball of l1 is the linf box: plain variable bounds suffice
        return [model.add_var(-1.0, 1.0) for _ in range(m)], [], []
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


def _unit_box(n: int) -> interval.Hyperbox:
    return interval.Hyperbox(-np.ones(n), np.ones(n))


def choose_encoding(input_dim: int, alpha: str, output_norm: str | None) -> str:
    """FORWARD for a scalar network under alpha = "linf" with at least
    ``FORWARD_MIN_INPUTS`` inputs, else BACKWARD (module docstring)."""
    if output_norm is None and alpha == "linf" and input_dim >= FORWARD_MIN_INPUTS:
        return FORWARD
    return BACKWARD


@dataclass
class LipMIPProblem:
    """A built model plus the layout of its ids.

    The per-neuron blocks are lists indexed by hidden layer i, each an int
    array of model ids with one entry per neuron: ``pre_vars``
    (pre-activations), ``neuron_bins`` (the binary shared by the neuron's
    ReLU encoding and its backward switch, -1 where interval analysis fixed
    the sign at build time), ``post_vars`` (post-activations),
    ``bwd_value_vars`` (backward values entering the layer's switch; empty
    for the last layer of a scalar network, whose backward seed is the
    constant head row) and ``bwd_switch_vars``.  ``abs_vars`` and
    ``abs_sign_vars`` (-1 for a sign fixed at build time) hold the linf
    objective, and ``choice_bins`` and ``max_var`` the l1 one: a binary per
    gradient entry and sign (entries 2j and 2j + 1 choose +g_j and -g_j) and
    the objective t; each pair is empty (and -1) for the other norm.  A
    forward model (module docstring) has no backward, gradient or objective
    blocks: ``direction_vars`` hold v, and per hidden layer ``tangent_vars``
    the tangents t_i and ``tangent_switch_vars`` their switches s_i, whose
    head row is the objective.  The blocks cover the model's ids, and two
    share an id where it is an alias: an ON neuron's pre- and
    post-activation (backward value and switch, tangent and switch), and a
    gradient entry of fixed sign >= 0 and its absolute value.  Their
    declaration order (module docstring) is load-bearing for search
    determinism; ``layers_below`` is the one method that relies on it.

    ``pre_boxes[i]`` is the box that bounds layer i's pre-activation
    variables, from which its big-Ms and fixed signs were derived: the
    pre-activation box of the model's interval pass over the domain,
    intersected with the boxes the model was built from (``rebuild``).  Node
    tightening intersects its propagation with them too, so with no fixes it
    returns the model's bounds unchanged.
    """

    model: MIPModel
    net: ReLUNetwork
    domain: interval.Hyperbox
    alpha: str
    output_norm: str | None
    encoding: str
    input_vars: np.ndarray
    z_ball_vars: np.ndarray
    z_pos_vars: np.ndarray
    z_neg_vars: np.ndarray
    grad_vars: np.ndarray
    abs_vars: np.ndarray
    abs_sign_vars: np.ndarray
    choice_bins: np.ndarray
    max_var: int
    pre_vars: list[np.ndarray]
    neuron_bins: list[np.ndarray]
    post_vars: list[np.ndarray]
    bwd_value_vars: list[np.ndarray]
    bwd_switch_vars: list[np.ndarray]
    direction_vars: np.ndarray
    tangent_vars: list[np.ndarray]
    tangent_switch_vars: list[np.ndarray]
    pre_boxes: list[interval.Hyperbox]
    #: ``rounded_pattern_value``'s value and point per rounded pattern
    _rounded: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def rebuild(self, pre_boxes) -> "LipMIPProblem":
        """The same problem, in the same encoding, built again with each
        layer's pre-activation box intersected with ``pre_boxes`` (boxes that
        enclose the pre-activations of every feasible point)."""
        return build_lipmip_model(self.net, self.domain, self.alpha, self.output_norm,
                                  pre_boxes, backward=self.encoding == BACKWARD)

    def layers_below(self, i: int) -> lp.LPProblem:
        """The LP relaxation of the layers below hidden layer i (module
        docstring): ``MIPModel.relaxation`` of the ids up to layer i's last
        pre-activation, whose boxes are the first of ``MIPModel.lp_boxes``."""
        return self.model.relaxation(int(self.pre_vars[i][-1]) + 1)

    @cached_property
    def backward_seed(self) -> interval.Hyperbox | None:
        """``interval.head_seed_box``, the backward seed of every node
        tightening; None for a forward model, which needs no backward pass."""
        if self.encoding == FORWARD:
            return None
        return interval.head_seed_box(self.net, self.output_norm)

    @cached_property
    def tangent_seed(self) -> interval.Hyperbox | None:
        """The box [-1, 1]^n0 of input directions v for a forward model, the
        tangent seed of every node tightening; None for a backward one."""
        if self.encoding == BACKWARD:
            return None
        return _unit_box(self.net.input_dim)

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
        """Per-id (lo, hi) arrays bounding each network quantity by its box.

        Pre-activations take their box, cut at 0 on the side their ON/OFF
        state excludes; post-activations take their ReLU image box and
        backward values and switches their backward boxes (``prop`` then
        needs a backward seed); absolute values take the image of the
        gradient box; tangents and their switches take the tangent boxes
        (``prop`` then needs a tangent seed).  An id two blocks share (an ON
        neuron's post-activation is its pre-activation) gets equal boxes from
        both.  Ids no box describes (inputs, binaries, dual ball, the
        direction v and the l1 objective t) get -inf/+inf.
        On a point input the result is the point's own value at every bounded
        id.
        """
        lo = np.full(self.model.num_vars, -np.inf)
        hi = np.full(self.model.num_vars, np.inf)

        def put(ids, box):
            if ids.size:  # a block the encoding leaves out
                lo[ids] = box.l
                hi[ids] = box.u

        d, forward = self.net.depth, self.encoding == FORWARD
        for i in range(d):
            zbox = prop.pre_activation_boxes[i]
            states = prop.activation_states[i]
            lo[self.pre_vars[i]] = np.where(states == ON, np.maximum(zbox.l, 0.0), zbox.l)
            hi[self.pre_vars[i]] = np.where(states == OFF, np.minimum(zbox.u, 0.0), zbox.u)
            put(self.post_vars[i], prop.post_activation_boxes[i])
            if forward:
                put(self.tangent_vars[i], prop.tangent_boxes[i])
                put(self.tangent_switch_vars[i], prop.tangent_switch_boxes[i])
            else:  # backward_boxes[k] bounds the backward value entering layer d-1-k
                put(self.bwd_value_vars[i], prop.backward_boxes[d - 1 - i])
                put(self.bwd_switch_vars[i], prop.backward_switch_boxes[i])
        if forward:
            return lo, hi
        gbox = prop.gradient_box
        put(self.grad_vars, gbox)
        if self.abs_vars.size:
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
        prop = interval.propagate(self.net, self.domain, backward_seed=self.backward_seed,
                                  forced=forced, pre_boxes=self.pre_boxes,
                                  tangent_seed=self.tangent_seed)
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

    def rounded_pattern_value(self, point, incumbent: float = -np.inf):
        """Second primal heuristic: realize the node's rounded binaries.

        Rounding the LP's activation binaries proposes a sign pattern, whose
        constant Jacobian has a dual norm.  Only when that value beats
        ``incumbent`` does an ``oracle.SignPatternLP`` with every layer
        decided and floor 0 check whether some x in the domain realizes the
        pattern (ties allowed on the boundary).  If so, the Jacobian is a
        legitimate chain-rule outcome at that x, so its value is an
        attainable objective value: the answer is ``(value, x)``.  None when
        the value cannot beat ``incumbent``, no x realizes the pattern or the
        LP fails.  The value and, once asked, the LP's point are kept per
        rounded pattern, so a pattern repeated by another node costs no LP.
        """
        mults = []
        for box, bins in zip(self.pre_boxes, self.neuron_bins):
            on = interval.push_conditional(box) == ON  # neurons fixed ON at build time
            free = bins >= 0
            on[free] = point[bins[free]] >= 0.5
            mults.append(on.astype(float))
        key = np.concatenate(mults).tobytes()
        kept = self._rounded.get(key)
        if kept is None:
            jac = jacobian_from_multipliers(self.net, mults)
            kept = self._rounded[key] = [norms.operator_dual_value(jac, self.alpha,
                                                                   self.output_norm), _UNSOLVED]
        value, x = kept
        if not value > incumbent:
            return None
        if x is _UNSOLVED:
            x = kept[1] = self._realize(mults)
        return None if x is None else (value, x)

    def _realize(self, mults) -> np.ndarray | None:
        """A point of the domain realizing a sign pattern, or None when no
        point does or the LP fails."""
        try:
            sol = SignPatternLP(self.net, self.domain, mults, 0.0).solve()
        except lp.SolverNumericalError:
            return None  # a failed LP is a heuristic miss
        return sol.x if sol.status == lp.OPTIMAL else None

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
    pre_boxes=None,
    *,
    backward: bool = False,
) -> LipMIPProblem:
    """Assemble the full model whose optimum is L^alpha (or L^(alpha,beta)).

    ``alpha`` is "linf" (objective: l1 norm of the gradient) or "l1"
    (objective: max |gradient coordinate|).  ``output_norm`` switches to the
    vector-valued formulation with the head contracted against a dual-ball
    variable z.  ``pre_boxes`` (one box per hidden layer, each enclosing the
    layer's pre-activations at every feasible point) is intersected with the
    pre-activation boxes of the model's interval pass (module docstring), so
    tighter boxes give smaller big-Ms and more neurons of fixed sign; should
    rounding leave an intersection empty, the build raises ModelError.  A
    norm that is unknown or does not fit the head raises ValueError first.
    The encoding is ``choose_encoding``'s; ``backward`` asks for the
    backward one regardless (the LipLP estimator reads its relaxation).
    """
    norms.check_input_norm(alpha)
    norms.check_output_norm(output_norm, net.output_dim)
    if domain.dim != net.input_dim:
        raise ModelError("domain dimension does not match the network")
    encoding = BACKWARD if backward else choose_encoding(net.input_dim, alpha, output_norm)
    model = MIPModel()

    input_vars = [model.add_var(lo, hi) for lo, hi in zip(domain.l, domain.u)]

    d = net.depth
    forward = encoding == FORWARD
    tangent_seed = _unit_box(net.input_dim) if forward else None
    backward_seed = None if forward else interval.head_seed_box(net, output_norm)
    prop = interval.propagate(net, domain, backward_seed, pre_boxes=pre_boxes,
                              tangent_seed=tangent_seed)
    states = prop.activation_states
    neuron_bins: list[list[int]] = []
    pre_vars: list[list[int]] = []
    post_vars: list[list[int]] = []
    cur = input_vars
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        z_vars = encode_affine(model, cur, w, b, prop.pre_activation_boxes[i])
        relus = [encode_relu(model, zv, st) for zv, st in zip(z_vars, states[i])]
        neuron_bins.append([a for _, a in relus])
        pre_vars.append(z_vars)
        post_vars.append([p for p, _ in relus])
        cur = post_vars[-1]

    z_ball_vars: list[int] = []
    z_pos: list[int] = []
    z_neg: list[int] = []
    bwd_value_vars: list[list[int]] = [[] for _ in range(d)]
    bwd_switch_vars: list[list[int]] = [[] for _ in range(d)]
    grad_vars: list[int] = []
    abs_vars: list[int] = []
    abs_signs: list[int] = []
    choice_bins: list[int] = []
    max_var = -1
    direction_vars: list[int] = []
    tangent_vars: list[list[int]] = [[] for _ in range(d)]
    tangent_switch_vars: list[list[int]] = [[] for _ in range(d)]
    if encoding == FORWARD:
        # tangent pass from v in [-1, 1]^n0; reuses each neuron's binary
        direction_vars = [model.add_var(-1.0, 1.0) for _ in range(net.input_dim)]
        sw = direction_vars
        for i, w in enumerate(net.weights):
            t_vars = encode_affine(model, sw, w, None, prop.tangent_boxes[i])
            sw = [encode_switch(model, t, st, a)
                  for t, st, a in zip(t_vars, states[i], neuron_bins[i])]
            tangent_vars[i], tangent_switch_vars[i] = t_vars, sw
        model.set_objective(dict(zip(sw, net.head[0])))
    else:
        # backward pass; reuses each neuron's binary in its switch
        if output_norm is None:
            sw = [encode_switch_const(model, float(c), st, a)
                  for c, st, a in zip(net.head[0], states[d - 1], neuron_bins[d - 1])]
        else:
            z_ball_vars, z_pos, z_neg = encode_dual_ball(model, net.output_dim, output_norm)
            v_vars = encode_affine(model, z_ball_vars, net.head.T, None, prop.backward_boxes[0])
            bwd_value_vars[d - 1] = v_vars
            sw = [encode_switch(model, v, st, a)
                  for v, st, a in zip(v_vars, states[d - 1], neuron_bins[d - 1])]
        bwd_switch_vars[d - 1] = sw
        for i in range(d - 1, 0, -1):
            v_vars = encode_affine(model, sw, net.weights[i].T, None,
                                   prop.backward_boxes[d - i])
            bwd_value_vars[i - 1] = v_vars
            sw = [encode_switch(model, v, st, a)
                  for v, st, a in zip(v_vars, states[i - 1], neuron_bins[i - 1])]
            bwd_switch_vars[i - 1] = sw
        grad_vars = encode_affine(model, sw, net.weights[0].T, None, prop.gradient_box)

        if alpha == "linf":
            for g in grad_vars:
                y, sign = encode_abs(model, g)
                abs_vars.append(y)
                abs_signs.append(-1 if sign is None else sign)
            model.set_objective({v: 1.0 for v in abs_vars})
        else:
            choice_bins, max_var = encode_signed_max(model, grad_vars)
            model.set_objective({max_var: 1.0})

    return LipMIPProblem(
        model=model,
        net=net,
        domain=domain,
        alpha=alpha,
        output_norm=output_norm,
        encoding=encoding,
        input_vars=_ids(input_vars),
        z_ball_vars=_ids(z_ball_vars),
        z_pos_vars=_ids(z_pos),
        z_neg_vars=_ids(z_neg),
        grad_vars=_ids(grad_vars),
        abs_vars=_ids(abs_vars),
        abs_sign_vars=_ids(abs_signs),
        choice_bins=_ids(choice_bins),
        max_var=max_var,
        pre_vars=[_ids(vs) for vs in pre_vars],
        neuron_bins=[_ids(bins) for bins in neuron_bins],
        post_vars=[_ids(vs) for vs in post_vars],
        bwd_value_vars=[_ids(vs) for vs in bwd_value_vars],
        bwd_switch_vars=[_ids(vs) for vs in bwd_switch_vars],
        direction_vars=_ids(direction_vars),
        tangent_vars=[_ids(vs) for vs in tangent_vars],
        tangent_switch_vars=[_ids(vs) for vs in tangent_switch_vars],
        pre_boxes=list(prop.pre_activation_boxes),
    )


def feasible_assignment(problem: LipMIPProblem, x, rule: ZeroRule = ALWAYS_ZERO,
                        z=None, v=None) -> np.ndarray:
    """Full variable assignment realizing input x under a given tie rule.

    Used to validate the feasible set: the returned point must satisfy every
    model constraint, and the model objective at it must equal the dual norm
    of the corresponding chain-rule Jacobian (contracted with z when vector
    valued), or for a forward model head . J v at the direction v it needs.
    The values come from interval propagation over the point boxes {x} (and
    {v}), with tied neurons forced by ``rule``; they are never clamped to the
    model bounds.
    """
    net = problem.net
    x = np.asarray(x, dtype=float).reshape(-1)
    mults = multipliers(net, x, rule)
    forced = {
        (i, int(j)): int(mults[i][j])
        for i, z in enumerate(preactivations(net, x))
        for j in np.flatnonzero(z == 0.0)
    }
    seed = tangent = None
    if problem.output_norm is not None:
        if z is None:
            raise ValueError("vector-valued assignment needs a dual vector z")
        z = np.asarray(z, dtype=float).reshape(-1)
        seed = interval.Hyperbox.point(net.head.T @ z)
    elif problem.encoding == BACKWARD:
        seed = interval.head_seed_box(net, None)
    if problem.encoding == FORWARD:
        if v is None:
            raise ValueError("forward-mode assignment needs a direction v")
        v = np.asarray(v, dtype=float).reshape(-1)
        tangent = interval.Hyperbox.point(v)
    prop = interval.propagate(net, interval.Hyperbox.point(x), backward_seed=seed,
                              forced=forced, tangent_seed=tangent)
    point, _ = problem.propagation_bounds(prop)  # lo == hi on a point box
    point[problem.input_vars] = x
    if tangent is not None:
        point[problem.direction_vars] = v
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
    if problem.max_var >= 0:
        options = np.column_stack([g, -g]).ravel()  # s * g_j in choice_bins order
        best = int(np.argmax(options))  # the first maximizing option
        point[problem.choice_bins] = 0.0
        point[problem.choice_bins[best]] = 1.0
        point[problem.max_var] = options[best]
    return point
