"""Spans around the public functions of ``lipcert``, recorded from outside.

``Tracer.install`` replaces each traced function by a wrapper under the name
its callers look up (a module attribute or a class attribute) and
``Tracer.restore`` puts every original back, so untraced runs execute the
library unchanged.  Spans are kept in memory as flat records; ``layer_metrics``
turns them into the per-layer numbers of BENCHMARK.json.

A span's self time is its duration minus the part of it that its child spans
cover.  Every span belongs to exactly one self-time key, so on any workload
the self-time keys add up to the traced wall time (``trace.self_sum_frac``).
"""

from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import dataclass, field

import numpy as np

from lipcert import bnb, estimators, interval, lp, mip, oracle, reduction, vector_ext

#: An LP solve is classified by the span it was called from.
LP_CALLERS = {
    "bnb": "lp.node",
    "mip.heur.rounded": "lp.witness",
    "estimators.liplp": "lp.root",
    "oracle": "lp.oracle",
}
LP_CLASSES = ("lp.node", "lp.witness", "lp.root", "lp.oracle", "lp.other")

#: Self-time key of every span name that is not an LP solve.
SELF_KEYS = {
    "workload": "bench.self_s",
    "instance": "bench.self_s",
    "bnb": "bnb.self_s",
    "mip.build": "mip.build_s",
    "mip.tighten": "mip.tighten.self_s",
    "mip.heur.chain": "mip.heur.chain.self_s",
    "mip.heur.rounded": "mip.heur.rounded.self_s",
    "interval.propagate": "interval.propagate.self_s",
    "network.jacobian": "network.jacobian.self_s",
    "oracle": "oracle.self_s",
}
ESTIMATOR_SPANS = ("estimators.fastlip", "estimators.liplp", "estimators.randomlb")

#: Network layers reported by ``mip.unstable.L<k>`` and ``mip.bigm_width.L<k>``.
NET_LAYERS = 2


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    instance: int
    info: dict | None = None


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    instance: int = -1
    regions: int = 0  # oracle regions, counted at the region Jacobian
    _stack: list[int] = field(default_factory=list)
    _undo: list = field(default_factory=list)
    _solve_best: float = -np.inf

    # -- recording ----------------------------------------------------------

    def open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, time.perf_counter(), 0.0, parent, self.instance)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    def call(self, name, fn, args, kwargs, note=None):
        if name == "bnb":
            self._solve_best = -np.inf  # heuristic improvements count per solve
        span = self.open(name)
        try:
            result = fn(*args, **kwargs)
            if note is not None:
                span.info = note(self, args, kwargs, result)
            return result
        finally:
            self.close(span)

    # -- patching ------------------------------------------------------------

    def wrap(self, owner, attr: str, name, note=None) -> None:
        """Trace ``owner.attr``; ``name`` is a span name or a function of the
        call's arguments returning one."""
        original = owner.__dict__[attr]

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            return self.call(span_name, original, args, kwargs, note)

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def count_regions(self, owner, attr: str) -> None:
        original = owner.__dict__[attr]

        @functools.wraps(original)
        def counted(*args, **kwargs):
            self.regions += 1
            return original(*args, **kwargs)

        setattr(owner, attr, counted)
        self._undo.append((owner, attr, original))

    def install(self) -> "Tracer":
        self.wrap(lp.SimplexSolver, "solve", "lp", note=_note_lp)
        self.wrap(bnb, "solve_mip", "bnb", note=_note_bnb)
        self.wrap(estimators, "estimate", _estimator_name)
        for module in (mip, estimators, vector_ext, reduction):
            self.wrap(module, "build_lipmip_model", "mip.build", note=_note_build)
        self.wrap(mip.LipMIPProblem, "tightened_bounds", "mip.tighten", note=_note_tighten)
        self.wrap(mip.LipMIPProblem, "incumbent_from_point", "mip.heur.chain", note=_note_heur)
        self.wrap(mip.LipMIPProblem, "rounded_pattern_value", "mip.heur.rounded", note=_note_heur)
        self.wrap(interval, "propagate", "interval.propagate")
        for module in (mip, estimators):
            self.wrap(module, "chain_rule_jacobian", "network.jacobian")
        self.wrap(oracle, "exact_lipschitz_bruteforce", "oracle")
        self.count_regions(oracle, "jacobian_from_multipliers")
        return self

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()

    def to_json(self) -> list:
        return [[s.name, s.start, s.end, s.parent, s.instance, s.info] for s in self.spans]


def _estimator_name(args, kwargs) -> str:
    method = kwargs.get("method", args[3] if len(args) > 3 else None)
    return f"estimators.{method}"


def _note_lp(tracer, args, kwargs, sol) -> dict:
    return {"status": sol.status, "pivots": sol.iterations}


def _note_bnb(tracer, args, kwargs, res) -> dict:
    return {"nodes": res.nodes_explored, "status": res.status,
            "upper": res.upper_bound, "incumbent": res.incumbent_value}


def _note_build(tracer, args, kwargs, problem) -> dict:
    model = problem.model
    unstable = [0] * NET_LAYERS
    widths = [[] for _ in range(NET_LAYERS)]
    for layer, idx in problem.binary_map.values():
        if layer < NET_LAYERS:
            var = problem.pre_vars[layer][idx]
            unstable[layer] += 1
            widths[layer].append(model.hi[var] - model.lo[var])
    return {"vars": model.num_vars, "rows": model.num_constraints,
            "binaries": len(model.binary_vars), "unstable": unstable, "widths": widths}


def _note_tighten(tracer, args, kwargs, result) -> dict:
    return {"refuted": result is None}


def _note_heur(tracer, args, kwargs, result) -> dict:
    if result is None:
        return {"hit": False, "improved": False}
    value = float(result[0])
    improved = value > tracer._solve_best
    tracer._solve_best = max(tracer._solve_best, value)
    return {"hit": True, "improved": improved}


# -- span arithmetic ---------------------------------------------------------


def self_times(spans: list[Span]) -> np.ndarray:
    """Duration of each span minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = np.empty(len(spans))
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, reach), min(end, s.end)
            if end > start:
                covered += end - start
                reach = end
        out[i] = (s.end - s.start) - covered
    return out


def lp_classes(spans: list[Span]) -> list[str | None]:
    """LP class of each solve span (None for other spans).  A solve called
    from inside another solve is an internal retry and takes the class of the
    outermost solve around it."""
    out: list[str | None] = [None] * len(spans)
    for i, s in enumerate(spans):
        if s.name != "lp":
            continue
        p = s.parent
        if p >= 0 and spans[p].name == "lp":
            out[i] = out[p]
        else:
            out[i] = LP_CALLERS.get(spans[p].name if p >= 0 else "", "lp.other")
    return out


def self_key(span: Span, lp_class: str | None) -> str:
    if lp_class is not None:
        return f"{lp_class}.self_s"
    if span.name.startswith("estimators."):
        return "estimators.self_s"
    return SELF_KEYS[span.name]


def _frac(num: float, den: float) -> float:
    return num / den if den else 0.0


def geomean(values) -> float:
    values = np.asarray(list(values), dtype=float)
    return float(np.exp(np.mean(np.log(values)))) if values.size else 0.0


def layer_metrics(spans: list[Span], regions: int = 0) -> dict[str, float]:
    """Per-layer numbers from one traced batch (see BENCHMARK.json)."""
    own = self_times(spans)
    classes = lp_classes(spans)
    m: dict[str, float] = {}

    def add(key, value):
        m[key] = m.get(key, 0.0) + value

    for key in self_time_keys():
        m[key] = 0.0
    for cls in LP_CLASSES:
        m[f"{cls}.calls"] = 0.0
    pivots: dict[str, list[int]] = {cls: [] for cls in LP_CLASSES}
    node_retries = node_infeasible = node_failures = 0
    counts = {k: 0 for k in ("tighten", "refuted", "chain_imp", "rounded", "rounded_hit",
                             "rounded_imp", "propagate", "jacobian", "nodes")}
    bnb_time = 0.0
    static = {"vars": 0, "rows": 0, "binaries": 0}
    unstable = [0] * NET_LAYERS
    widths = [[] for _ in range(NET_LAYERS)]
    inclusive = {name: 0.0 for name in ESTIMATOR_SPANS}

    for i, s in enumerate(spans):
        add(self_key(s, classes[i]), own[i])
        info = s.info or {}
        if s.name == "lp":
            cls = classes[i]
            if s.parent >= 0 and spans[s.parent].name == "lp":  # internal retry
                node_retries += cls == "lp.node"
                continue
            add(f"{cls}.calls", 1)
            pivots[cls].append(info["pivots"])
            if cls == "lp.node":
                node_infeasible += info["status"] == lp.INFEASIBLE
                node_failures += info["status"] == lp.NUMERICAL_FAILURE
        elif s.name == "bnb":
            counts["nodes"] += info.get("nodes", 0)
            bnb_time += s.end - s.start
        elif s.name == "mip.build":
            for k in static:
                static[k] += info.get(k, 0)
            for k, n in enumerate(info.get("unstable", ())):
                unstable[k] += n
            for k, w in enumerate(info.get("widths", ())):
                widths[k].extend(w)
        elif s.name == "mip.tighten":
            counts["tighten"] += 1
            counts["refuted"] += info.get("refuted", False)
        elif s.name == "mip.heur.chain":
            counts["chain_imp"] += info.get("improved", False)
        elif s.name == "mip.heur.rounded":
            counts["rounded"] += 1
            counts["rounded_hit"] += info.get("hit", False)
            counts["rounded_imp"] += info.get("improved", False)
        elif s.name == "interval.propagate":
            counts["propagate"] += 1
        elif s.name == "network.jacobian":
            counts["jacobian"] += 1
        elif s.name in inclusive:
            inclusive[s.name] += s.end - s.start

    node_pivots = pivots["lp.node"]
    m["lp.node.pivots_p50"] = float(np.percentile(node_pivots, 50)) if node_pivots else 0.0
    m["lp.node.pivots_p90"] = float(np.percentile(node_pivots, 90)) if node_pivots else 0.0
    m["lp.node.retries"] = float(node_retries)
    m["lp.node.infeasible"] = float(node_infeasible)
    m["lp.node.numerical_failure"] = float(node_failures)
    m["lp.root.pivots"] = float(sum(pivots["lp.root"]))
    m["bnb.nodes"] = float(counts["nodes"])
    m["bnb.nodes_per_s"] = _frac(counts["nodes"], bnb_time)
    m["bnb.lp_solves_per_node"] = _frac(m["lp.node.calls"], counts["nodes"])
    m["mip.tighten.calls"] = float(counts["tighten"])
    m["mip.tighten.refuted_frac"] = _frac(counts["refuted"], counts["tighten"])
    m["mip.heur.chain.improvements"] = float(counts["chain_imp"])
    m["mip.heur.rounded.hit_frac"] = _frac(counts["rounded_hit"], counts["rounded"])
    m["mip.heur.rounded.improvements"] = float(counts["rounded_imp"])
    for k, v in static.items():
        m[f"mip.{k}"] = float(v)
    for k in range(NET_LAYERS):
        m[f"mip.unstable.L{k}"] = float(unstable[k])
        m[f"mip.bigm_width.L{k}"] = float(np.mean(widths[k])) if widths[k] else 0.0
    m["interval.propagate.calls"] = float(counts["propagate"])
    m["network.jacobian.calls"] = float(counts["jacobian"])
    m["oracle.regions"] = float(regions)
    for name, total in inclusive.items():
        m[f"{name}_s"] = total
    roots = [s for s in spans if s.parent < 0]
    wall = sum(s.end - s.start for s in roots)
    m["trace.self_sum_frac"] = _frac(sum(m[k] for k in self_time_keys()), wall)
    return m


def self_time_keys() -> list[str]:
    """The keys that partition traced wall time."""
    keys = set(SELF_KEYS.values()) | {"estimators.self_s"}
    keys |= {f"{cls}.self_s" for cls in LP_CLASSES}
    return sorted(keys)
