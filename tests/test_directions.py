"""Direction-update rule tests.

Frozen scalar examples pin each beta formula; an independent pure-Python
transcription of the Hager-Zhang rule cross-checks the numpy one; and
hypothesis drives the cone guarantees of the tau-scaled update (descent
ratio and norm bound) plus the exact-descent identity of the rescaled
Fletcher-Reeves variant.
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cglab.directions import (
    DegenerateCurvature,
    MethodId,
    ZeroPreviousDirection,
    ZeroPreviousGradient,
    beta_fr,
    beta_hz,
    beta_new,
    direction,
    theta_mfr,
)

EPS = float(np.finfo(float).eps)


def test_method_id_tokens():
    assert [m.value for m in MethodId] == ["NEW", "FR", "MFR", "HZ"]
    assert MethodId("FR") is MethodId.FR
    with pytest.raises(ValueError):
        MethodId("PRP")


def test_beta_new_frozen_examples():
    assert beta_new(5.0, np.array([1.0, 0.0]), tau=0.002) == 0.01
    assert beta_new(5.0, np.array([0.0, 2.0]), tau=0.5) == 1.25
    with pytest.raises(ZeroPreviousDirection):
        beta_new(5.0, np.zeros(3), tau=0.002)


def test_beta_fr_frozen_examples():
    assert beta_fr(np.array([3.0, 4.0]), np.array([1.0, 2.0])) == 5.0
    assert beta_fr(np.array([0.0, 0.0]), np.array([1.0, 0.0])) == 0.0
    with pytest.raises(ZeroPreviousGradient):
        beta_fr(np.array([1.0, 0.0]), np.zeros(2))


def test_theta_mfr_frozen_example():
    g = np.array([3.0, 4.0])
    g_prev = np.array([1.0, 2.0])
    d_prev = np.array([1.0, 1.0])
    # d'(g - g_prev) = (1,1).(2,2) = 4; |g_prev|^2 = 5
    assert theta_mfr(g, g_prev, d_prev) == 0.8
    with pytest.raises(ZeroPreviousGradient):
        theta_mfr(g, np.zeros(2), d_prev)


def hz_reference(g, g_prev, d_prev, eta=0.01):
    """Scalar transcription of the truncated Hager-Zhang rule."""
    y = [a - b for a, b in zip(g, g_prev)]
    dy = sum(a * b for a, b in zip(d_prev, y))
    yy = sum(a * a for a in y)
    raw = sum((a - 2.0 * yy / dy * b) * c for a, b, c in zip(y, d_prev, g)) / dy
    dnorm = math.sqrt(sum(a * a for a in d_prev))
    gnorm_prev = math.sqrt(sum(a * a for a in g_prev))
    denom = dnorm * min(eta, gnorm_prev)
    floor = -math.inf if denom == 0.0 else -1.0 / denom
    return max(raw, floor)


def test_beta_hz_frozen_examples():
    # raw value -1 is above the floor -100
    d = np.array([1.0, 0.0])
    g = np.array([1.0, 1.0])
    g_prev = np.array([-1.0, 1.0])  # y = (2, 0)
    assert beta_hz(g, g_prev, d) == -1.0

    # raw value -900 is cut to the floor -1/(1 * 0.01)
    d = np.array([1.0, 0.0])
    g = np.array([0.0, 30.0])
    g_prev = np.array([-1.0, 60.0])  # y = (1, -30), d'y = 1
    beta = beta_hz(g, g_prev, d)
    assert beta == -1.0 / (1.0 * 0.01)
    assert beta > -900.0

    with pytest.raises(DegenerateCurvature):
        beta_hz(np.array([1.0, 0.0]), np.array([1.0, 0.0]), np.array([0.0, 1.0]))


def test_beta_hz_zero_prev_gradient_means_no_truncation():
    # g_prev = 0 gives a -inf floor, so even a hugely negative raw value
    # passes through
    d = np.array([1.0, 0.0])
    g_prev = np.zeros(2)
    g = np.array([1.0, -50.0])
    expected = hz_reference(list(g), list(g_prev), list(d))
    assert beta_hz(g, g_prev, d) == pytest.approx(expected, rel=1e-15)


@given(seed=st.integers(0, 10_000))
def test_beta_hz_matches_scalar_reference(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 6))
    g = rng.standard_normal(n)
    g_prev = rng.standard_normal(n)
    d_prev = rng.standard_normal(n)
    dy = float(np.dot(d_prev, g - g_prev))
    if abs(dy) < 1e-8:
        return
    got = beta_hz(g, g_prev, d_prev)
    expected = hz_reference(list(g), list(g_prev), list(d_prev))
    assert got == pytest.approx(expected, rel=1e-12, abs=1e-300)


def test_first_iteration_is_steepest_descent_bit_exact():
    g = np.array([0.3, -1.7, 2.9])
    for method in MethodId:
        res = direction(method, g, None, None, tau=0.002)
        assert np.array_equal(res.d, -g)
        assert res.beta == 0.0
        assert res.restarted is False


def test_new_direction_frozen_example():
    g = np.array([3.0, 4.0])
    d_prev = np.array([1.0, 0.0])
    res = direction(MethodId.NEW, g, np.array([1.0, 2.0]), d_prev, tau=0.002)
    assert res.beta == 0.01
    assert np.allclose(res.d, [-2.99, -4.0], rtol=0, atol=1e-15)
    dg = float(np.dot(res.d, g))
    assert dg == pytest.approx(-24.97, rel=1e-15)
    assert dg <= -(1.0 - 0.002) * 25.0  # cone bound: -24.95


def _random_state(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 8))
    g = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4)
    g_prev = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4)
    d_prev = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4)
    return g, g_prev, d_prev


@given(seed=st.integers(0, 100_000), tau=st.floats(1e-4, 0.999))
def test_new_update_cone_bounds(seed, tau):
    g, g_prev, d_prev = _random_state(seed)
    if np.linalg.norm(g) == 0.0 or np.linalg.norm(d_prev) == 0.0:
        return
    res = direction(MethodId.NEW, g, g_prev, d_prev, tau=tau)
    gnorm2 = float(np.dot(g, g))
    slack = 64.0 * EPS
    assert float(np.dot(res.d, g)) <= -(1.0 - tau) * gnorm2 * (1.0 - slack)
    assert float(np.linalg.norm(res.d)) <= (1.0 + tau) * math.sqrt(gnorm2) * (
        1.0 + slack
    )
    assert res.restarted is False


@given(seed=st.integers(0, 100_000))
def test_mfr_exact_descent_identity(seed):
    # states drawn at a common scale, as they occur along real trajectories
    # (wildly mismatched |g|/|g_prev| blows up beta and with it the rounding;
    # the solver-level suite covers realistic whole-run behavior)
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 8))
    g = rng.standard_normal(n)
    g_prev = rng.standard_normal(n)
    d_prev = rng.standard_normal(n)
    gnorm_prev = float(np.linalg.norm(g_prev))
    if gnorm_prev < 0.05 * float(np.linalg.norm(g)) or gnorm_prev == 0.0:
        return
    # make the previous pair consistent with the identity it preserves:
    # d_prev'g_prev = -|g_prev|^2 holds along any MFR trajectory
    d_prev = d_prev - (
        (np.dot(d_prev, g_prev) + np.dot(g_prev, g_prev))
        / np.dot(g_prev, g_prev)
    ) * g_prev
    res = direction(MethodId.MFR, g, g_prev, d_prev, tau=0.002)
    gnorm2 = float(np.dot(g, g))
    dg = float(np.dot(res.d, g))
    beta = beta_fr(g, g_prev)
    tol = 1e-10 * (1.0 + gnorm2) * (1.0 + beta) * (1.0 + float(np.linalg.norm(d_prev)))
    assert abs(dg + gnorm2) <= tol


@given(seed=st.integers(0, 100_000))
def test_fr_and_hz_always_return_descent(seed):
    g, g_prev, d_prev = _random_state(seed)
    if np.linalg.norm(g) == 0.0 or np.linalg.norm(g_prev) == 0.0:
        return
    for method in (MethodId.FR, MethodId.HZ):
        res = direction(method, g, g_prev, d_prev, tau=0.002)
        dg = float(np.dot(res.d, g))
        if res.restarted:
            assert np.array_equal(res.d, -g)
            assert res.beta == 0.0
        else:
            assert dg < 0.0


def test_fr_restart_fires_on_ascent_combination():
    # beta_fr = 1 and d_prev = g makes d = -g + g = 0, not a descent
    # direction, so the safeguard must fall back to -g
    g = np.array([1.0, 0.0])
    res = direction(MethodId.FR, g, np.array([1.0, 0.0]), np.array([1.0, 0.0]), 0.002)
    assert res.restarted is True
    assert np.array_equal(res.d, -g)


def test_hz_restart_on_degenerate_curvature():
    g = np.array([1.0, 0.0])
    g_prev = np.array([1.0, 0.0])  # y = 0 so d'y = 0
    res = direction(MethodId.HZ, g, g_prev, np.array([0.0, 1.0]), 0.002)
    assert res.restarted is True
    assert np.array_equal(res.d, -g)


@pytest.mark.parametrize(
    "method, g_prev, d_prev",
    [
        (MethodId.NEW, np.array([1.0, 2.0]), np.zeros(2)),
        (MethodId.FR, np.zeros(2), np.array([1.0, 2.0])),
        (MethodId.MFR, np.zeros(2), np.array([1.0, 2.0])),
    ],
)
def test_zero_division_restarts_with_steepest_descent(method, g_prev, d_prev):
    # direction() alone decides restarts: a beta rule that would divide by
    # zero gives exactly -g instead of raising to the driver
    g = np.array([0.3, -1.7])
    res = direction(method, g, g_prev, d_prev, 0.002)
    assert np.array_equal(res.d, -g)
    assert res.beta == 0.0
    assert res.restarted is True


@given(seed=st.integers(0, 100_000), scale_pow=st.integers(-6, 6))
def test_positive_homogeneity(seed, scale_pow):
    # scaling g, g_prev, d_prev by c > 0 scales the direction by c for the
    # rules without an absolute truncation (powers of two keep fp exact)
    g, g_prev, d_prev = _random_state(seed)
    if np.linalg.norm(g_prev) == 0.0 or np.linalg.norm(d_prev) == 0.0:
        return
    c = 2.0**scale_pow
    for method in (MethodId.NEW, MethodId.FR, MethodId.MFR):
        base = direction(method, g, g_prev, d_prev, tau=0.01)
        scaled = direction(method, c * g, c * g_prev, c * d_prev, tau=0.01)
        assert np.allclose(scaled.d, c * base.d, rtol=1e-12, atol=0.0)


def test_unknown_method_rejected():
    with pytest.raises(ValueError):
        direction("XX", np.ones(2), np.ones(2), np.ones(2), 0.002)
