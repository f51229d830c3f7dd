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
    -1 / (||d|| min(eta, ||g_{k-1}||)) with eta = 0.01.

FR and HZ do not guarantee descent under a backtracking-only search, so
:func:`direction` restarts them with the steepest-descent direction whenever
the updated direction fails d'g < 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .problems import Vector

__all__ = [
    "DegenerateCurvature",
    "DirectionResult",
    "MethodId",
    "ZeroPreviousDirection",
    "ZeroPreviousGradient",
    "beta_fr",
    "beta_hz",
    "beta_new",
    "direction",
    "theta_mfr",
]

_CURVATURE_TINY = 1.0e-30


class MethodId(str, Enum):
    """Direction-update rule identifiers, also used as CLI/CSV labels."""

    NEW = "NEW"
    FR = "FR"
    MFR = "MFR"
    HZ = "HZ"


class ZeroPreviousDirection(ZeroDivisionError):
    """beta needs ||d_{k-1}|| > 0."""


class ZeroPreviousGradient(ZeroDivisionError):
    """beta needs ||g_{k-1}|| > 0."""


class DegenerateCurvature(ZeroDivisionError):
    """HZ needs |d'y| bounded away from zero."""


@dataclass(frozen=True)
class DirectionResult:
    """Direction plus the effective beta and whether a restart fired."""

    d: Vector
    beta: float
    restarted: bool


def beta_new(gnorm: float, d_prev: Vector, tau: float) -> float:
    """beta = tau * ||g|| / ||d_prev||."""
    dnorm = float(np.linalg.norm(d_prev))
    if dnorm == 0.0:
        raise ZeroPreviousDirection("previous direction has zero norm")
    return tau * float(gnorm) / dnorm


def beta_fr(g: Vector, g_prev: Vector) -> float:
    """beta = ||g||^2 / ||g_prev||^2."""
    denom = float(np.dot(g_prev, g_prev))
    if denom == 0.0:
        raise ZeroPreviousGradient("previous gradient has zero norm")
    return float(np.dot(g, g)) / denom


def theta_mfr(g: Vector, g_prev: Vector, d_prev: Vector) -> float:
    """Gradient-term scale theta = d_prev'(g - g_prev) / ||g_prev||^2."""
    denom = float(np.dot(g_prev, g_prev))
    if denom == 0.0:
        raise ZeroPreviousGradient("previous gradient has zero norm")
    return float(np.dot(d_prev, g - g_prev)) / denom


def beta_hz(g: Vector, g_prev: Vector, d_prev: Vector, eta: float = 0.01) -> float:
    """Hager-Zhang beta with the standard lower truncation.

    The raw value is ``(y - 2 d ||y||^2 / d'y)' g / d'y`` with
    ``y = g - g_prev``; it is truncated at
    ``-1 / (||d|| min(eta, ||g_prev||))``.  A zero truncation denominator
    (zero previous direction or gradient) gives a floor of -inf, i.e. no
    truncation.
    """
    y = g - g_prev
    dy = float(np.dot(d_prev, y))
    if abs(dy) < _CURVATURE_TINY:
        raise DegenerateCurvature(f"d'y = {dy} too close to zero")
    yy = float(np.dot(y, y))
    raw = float(np.dot(y - (2.0 * yy / dy) * d_prev, g)) / dy
    dnorm = float(np.linalg.norm(d_prev))
    gnorm_prev = float(np.linalg.norm(g_prev))
    denom = dnorm * min(eta, gnorm_prev)
    floor = -np.inf if denom == 0.0 else -1.0 / denom
    return max(raw, floor)


def direction(
    method: MethodId,
    g: Vector,
    g_prev: Vector | None,
    d_prev: Vector | None,
    tau: float,
    hz_eta: float = 0.01,
) -> DirectionResult:
    """Next search direction for ``method``; the one place restarts are decided.

    The first iteration (no previous state) returns exactly ``-g`` for every
    method.  Every method falls back to ``-g`` (``restarted=True``, beta
    reported as 0) when its update divides by zero (zero previous direction
    or gradient, or degenerate HZ curvature); FR and HZ also do when the
    two-term update is not a descent direction.
    """
    g = np.asarray(g, dtype=float)
    if g_prev is None or d_prev is None:
        return DirectionResult(d=-g, beta=0.0, restarted=False)
    g_prev = np.asarray(g_prev, dtype=float)
    d_prev = np.asarray(d_prev, dtype=float)

    try:
        if method is MethodId.NEW:
            beta = beta_new(float(np.linalg.norm(g)), d_prev, tau)
            return DirectionResult(d=-g + beta * d_prev, beta=beta, restarted=False)
        if method is MethodId.MFR:
            beta = beta_fr(g, g_prev)
            theta = theta_mfr(g, g_prev, d_prev)
            return DirectionResult(
                d=-theta * g + beta * d_prev, beta=beta, restarted=False
            )
        if method is MethodId.FR:
            beta = beta_fr(g, g_prev)
        elif method is MethodId.HZ:
            beta = beta_hz(g, g_prev, d_prev, eta=hz_eta)
        else:
            raise ValueError(f"unknown method {method!r}")
    except ZeroDivisionError:
        return DirectionResult(d=-g, beta=0.0, restarted=True)

    d = -g + beta * d_prev
    if float(np.dot(d, g)) >= 0.0:
        return DirectionResult(d=-g, beta=0.0, restarted=True)
    return DirectionResult(d=d, beta=beta, restarted=False)
