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

#: Dual pairing for the two supported input norms.  Callers name the input
#: norm; only ``operator_dual_value``, which scores every Jacobian, pairs it.
DUAL = {"linf": "l1", "l1": "linf"}


def check_input_norm(name: str) -> None:
    """Raise ValueError naming the valid input norms unless ``name`` is one."""
    if name not in INPUT_NORMS:
        raise ValueError(f"unknown input norm {name!r}; valid: {', '.join(INPUT_NORMS)}")


def check_output_norm(name: str | None, rows: int) -> None:
    """Raise ValueError unless ``name`` fits a head of ``rows`` rows: None
    for one row only, else one of OUTPUT_NORMS."""
    if name not in OUTPUT_NORMS and (name is not None or rows != 1):
        raise ValueError(f"output norm {name!r} does not fit a head of {rows} rows; "
                         f"valid: {', '.join(OUTPUT_NORMS)}, or None for one row")


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


def operator_dual_value(jac, input_norm: str, output_norm: str | None) -> float:
    """||J||_{alpha -> beta} of a constant Jacobian ``(m, n0)``, or the
    maximum over a stack of them ``(N, m, n0)``.

    The value enumerates the dual ball of beta: ||J||_{a,b} = max_z
    ||J^T z||_{a*}, with the products J^T z of all generators z taken in one
    matrix product.  ``output_norm=None`` (scalar network, m = 1) is the
    same computation with the single generator z = 1, so it is the plain dual
    norm of the gradient row.
    """
    check_input_norm(input_norm)
    jac = np.atleast_2d(np.asarray(jac, dtype=float))
    if output_norm is None:
        if jac.shape[-2] != 1:
            raise ValueError("scalar norm requested for a multi-row Jacobian")
        gens = np.ones((1, 1))
    else:
        gens = dual_ball_generators(jac.shape[-2], output_norm)
    products = np.abs(gens @ jac)
    if DUAL[input_norm] == "l1":
        return float(products.sum(axis=-1).max())
    return float(products.max())
