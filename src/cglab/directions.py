"""Conjugate-gradient direction updates.

All methods share the two-term recursion ``d_k = -g_k + beta_k d_{k-1}``
(MFR additionally scales the gradient term).  The update rules:

``NEW``
    beta = tau * ||g_k|| / ||d_{k-1}||.  With tau in (0, 1) this keeps every
    direction inside a cone around the steepest-descent direction:
    d'g <= -(1 - tau) ||g||^2 and ||d|| <= (1 + tau) ||g||, with no
    safeguards or restarts needed.

``FR``
    Fletcher-Reeves, beta = ||g_k||^2 / ||g_{k-1}||^2.

``MFR``
    FR with the gradient term rescaled by
    theta = d_{k-1}'(g_k - g_{k-1}) / ||g_{k-1}||^2, which makes
    d'g = -||g||^2 hold exactly.

``HZ``
    Hager-Zhang (CG_DESCENT):
    beta = (y - 2 d ||y||^2 / d'y)' g / d'y, truncated from below at
    -1 / (||d|| min(eta, ||g_{k-1}||)) with eta = 0.01, the value
    Hager and Zhang fix (SIAM J. Optim. 16, 2005).

Each rule sets only beta (and MFR its theta); :func:`direction` forms d and
its d'g once, in one tail shared by all four.  FR and HZ (``_RESTARTED``)
do not guarantee descent under a backtracking-only search, so that tail
restarts them, and only them, with -g whenever d'g < 0 fails.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

from .problems import Vector

__all__ = ["DirectionResult", "MethodId", "direction"]

_CURVATURE_TINY = 1.0e-30
_HZ_ETA = 0.01  # HZ's truncation eta


class MethodId(str, Enum):
    """Direction-update rule identifiers, also used as CLI/CSV labels."""

    NEW = "NEW"
    FR = "FR"
    MFR = "MFR"
    HZ = "HZ"


_RESTARTED = (MethodId.FR, MethodId.HZ)  # NEW and MFR descend by construction


class DirectionResult(NamedTuple):
    """Direction, its d'g, the effective beta and whether a restart fired."""

    d: Vector
    dg: float
    beta: float
    restarted: bool


def direction(
    method: MethodId,
    g: Vector,
    gg: float,
    d_prev: Vector | None,
    y: Vector | None,
    gg_prev: float | None,
    tau: float,
) -> DirectionResult:
    """Next search direction for ``method``; the one place restarts are decided.

    ``gg`` is g'g, ``y`` is g - g_prev and ``gg_prev`` is g_prev'g_prev, all
    held by the caller; the two products are Python floats, whose division
    by zero raises.  ``d_prev``, ``y`` and ``gg_prev`` are None on the
    first iteration, which returns exactly ``-g`` for every method.  Every
    method falls back to ``-g`` (``restarted=True``, beta reported as 0)
    when its beta or theta divides by zero (zero previous direction or
    gradient, or HZ's |d'y| < 1e-30); otherwise one shared tail forms
    ``beta d_prev - g`` (``- theta g`` for MFR) and its d'g, and restarts
    FR and HZ only when d'g < 0 fails.  The d'g of ``-g`` is ``-gg``.
    """
    if d_prev is None:
        return DirectionResult(-g, -gg, 0.0, False)

    # Each branch sets beta, and MFR its gradient term theta g; the tail forms
    # beta d_prev - c g in place: the bits of -c g + beta d_prev (a + (-b) is
    # a - b, and addition commutes) with one temporary fewer.
    try:
        cg = g
        if method == MethodId.NEW:
            beta = tau * math.sqrt(gg) / math.sqrt(float(d_prev.dot(d_prev)))
        elif method == MethodId.FR:
            beta = gg / gg_prev
        elif method == MethodId.MFR:
            beta = gg / gg_prev
            cg = (float(d_prev.dot(y)) / gg_prev) * g
        elif method == MethodId.HZ:
            dy = float(d_prev.dot(y))
            if abs(dy) < _CURVATURE_TINY:
                raise ZeroDivisionError(f"d'y = {dy} too close to zero")
            yy = float(y.dot(y))
            raw = float((y - (2.0 * yy / dy) * d_prev).dot(g)) / dy
            # a zero previous direction or gradient means no truncation
            denom = math.sqrt(float(d_prev.dot(d_prev))) * min(
                _HZ_ETA, math.sqrt(gg_prev)
            )
            beta = max(raw, -math.inf if denom == 0.0 else -1.0 / denom)
        else:
            raise ValueError(f"unknown method {method!r}")
    except ZeroDivisionError:
        return DirectionResult(-g, -gg, 0.0, True)

    d = beta * d_prev
    d -= cg
    dg = float(d.dot(g))
    if not dg < 0.0 and method in _RESTARTED:  # NaN fails too
        return DirectionResult(-g, -gg, 0.0, True)
    return DirectionResult(d, dg, beta, False)
