"""Norm bookkeeping shared across the solvers and estimators.

Input norms are named by the Lipschitz flavour they induce: ``"linf"``
(maximal l1 norm of the gradient) and ``"l1"`` (maximal linf norm of the
gradient).  Output norms for vector-valued networks are ``"l1"``, ``"linf"``
and ``"cross"``; the latter's dual unit ball is the convex hull of the
elementary vectors e_i and the differences e_i - e_j.
"""

from __future__ import annotations

import itertools

import numpy as np

INPUT_NORMS = ("linf", "l1")
OUTPUT_NORMS = ("l1", "linf", "cross")

#: Dual pairing for the two supported input norms.
DUAL = {"linf": "l1", "l1": "linf"}


def vec_norm(v, which: str) -> float:
    v = np.asarray(v, dtype=float)
    if which == "l1":
        return float(np.abs(v).sum())
    if which == "linf":
        return float(np.abs(v).max()) if v.size else 0.0
    if which == "cross":
        return cross_norm_value(v)
    raise ValueError(f"unknown norm {which!r}")


def dual_vec_norm(v, input_norm: str) -> float:
    """|| v ||_{alpha*} for input norm alpha."""
    return vec_norm(v, DUAL[input_norm])


def cross_norm_value(v) -> float:
    """max over the generators {e_i} and {e_i - e_j} of |<gen, v>|."""
    v = np.asarray(v, dtype=float)
    if v.size == 0:
        return 0.0
    best = float(np.abs(v).max())
    if v.size > 1:
        spread = float(v.max() - v.min())  # |v_i - v_j| maximized at extremes
        best = max(best, spread)
    return best


def dual_ball_generators(m: int, output_norm: str) -> np.ndarray:
    """Spanning points of the dual unit ball {z : ||z||_beta* <= 1}.

    For a linear objective the maximum over the ball equals the maximum over
    these points.  l1 -> corners of the linf box (2^m points), linf ->
    +-e_i, cross -> {e_i} union {e_i - e_j} union {0}.
    """
    eye = np.eye(m)
    if output_norm == "l1":
        if m > 16:
            raise ValueError("l1 dual-ball enumeration limited to m <= 16")
        return np.array(list(itertools.product((-1.0, 1.0), repeat=m)))
    if output_norm == "linf":
        return np.vstack([eye, -eye])
    if output_norm == "cross":
        diffs = [eye[i] - eye[j] for i in range(m) for j in range(m) if i != j]
        return np.vstack([eye, np.array(diffs).reshape(-1, m), np.zeros((1, m))])
    raise ValueError(f"unknown output norm {output_norm!r}")


def operator_dual_value(jac: np.ndarray, input_norm: str, output_norm: str | None) -> float:
    """||J||_{alpha -> beta} of a constant Jacobian.

    ``output_norm=None`` treats J as a single row (scalar-valued network) and
    returns the plain dual vector norm.  Otherwise the value is computed by
    enumerating the dual ball of beta: ||J||_{a,b} = max_z ||J^T z||_{a*}.
    """
    jac = np.atleast_2d(np.asarray(jac, dtype=float))
    if output_norm is None:
        if jac.shape[0] != 1:
            raise ValueError("scalar norm requested for a multi-row Jacobian")
        return dual_vec_norm(jac[0], input_norm)
    gens = dual_ball_generators(jac.shape[0], output_norm)
    return max(dual_vec_norm(jac.T @ z, input_norm) for z in gens)
