"""Direction-update rule tests.

Frozen scalar examples pin each beta formula; an independent pure-Python
transcription of the Hager-Zhang rule cross-checks the numpy one; a
transcription of the earlier per-rule helpers pins the inlined rules bit
for bit; and hypothesis drives the cone guarantees of the tau-scaled update
(descent ratio and norm bound) plus the exact-descent identity of the
rescaled Fletcher-Reeves variant.
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cglab.solver import _HZ_ETA, MethodId, direction

EPS = float(np.finfo(float).eps)


def step(method, g, g_prev, d_prev, tau=0.002):
    """``direction()`` fed what ``minimize`` holds for (g, g_prev, d_prev)."""
    gg = float(np.dot(g, g))
    if g_prev is None:
        return direction(method, g, gg, None, None, None, tau)
    gg_prev = float(np.dot(g_prev, g_prev))
    return direction(method, g, gg, d_prev, g - g_prev, gg_prev, tau)


def assert_restarted(res, g):
    assert res.restarted is True
    assert np.array_equal(res.d, -g)
    assert res.beta == 0.0
    assert res.dg == -float(np.dot(g, g))


def test_method_id_tokens():
    assert [m.value for m in MethodId] == ["NEW", "FR", "MFR", "HZ"]
    assert MethodId("FR") is MethodId.FR
    with pytest.raises(ValueError):
        MethodId("PRP")


def test_beta_new_frozen_examples():
    g = np.array([3.0, 4.0])  # |g| = 5
    g_prev = np.array([1.0, 2.0])
    assert step(MethodId.NEW, g, g_prev, np.array([1.0, 0.0]), tau=0.002).beta == 0.01
    assert step(MethodId.NEW, g, g_prev, np.array([0.0, 2.0]), tau=0.5).beta == 1.25
    # a zero previous direction restarts instead of dividing by zero
    assert_restarted(step(MethodId.NEW, g, g_prev, np.zeros(2)), g)


def test_beta_fr_frozen_examples():
    g = np.array([3.0, 4.0])
    g_prev = np.array([1.0, 2.0])
    # d = -g + 5 d_prev = (2, -4) is a descent direction, so beta is kept
    assert step(MethodId.FR, g, g_prev, np.array([1.0, 0.0])).beta == 5.0
    assert step(MethodId.MFR, g, g_prev, np.array([1.0, 0.0])).beta == 5.0
    zero = np.zeros(2)
    assert step(MethodId.MFR, zero, np.array([1.0, 0.0]), np.ones(2)).beta == 0.0
    for method in (MethodId.FR, MethodId.MFR):
        assert_restarted(step(method, g, zero, np.array([1.0, 0.0])), g)


def test_theta_mfr_frozen_example():
    g = np.array([3.0, 4.0])
    g_prev = np.array([1.0, 2.0])
    d_prev = np.array([1.0, 1.0])
    # d'(g - g_prev) = (1,1).(2,2) = 4; |g_prev|^2 = 5; so theta = 0.8, beta = 5
    res = step(MethodId.MFR, g, g_prev, d_prev)
    assert res.d.tobytes() == (-0.8 * g + 5.0 * d_prev).tobytes()
    assert_restarted(step(MethodId.MFR, g, np.zeros(2), d_prev), g)


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
    assert step(MethodId.HZ, g, g_prev, d).beta == -1.0

    # raw value -900 is cut to the floor -1/(1 * 0.01)
    d = np.array([1.0, 0.0])
    g = np.array([0.0, 30.0])
    g_prev = np.array([-1.0, 60.0])  # y = (1, -30), d'y = 1
    beta = step(MethodId.HZ, g, g_prev, d).beta
    assert beta == -1.0 / (1.0 * 0.01)
    assert beta > -900.0

    # y = 0 makes d'y = 0: restart instead of dividing by it
    g = np.array([1.0, 0.0])
    assert_restarted(step(MethodId.HZ, g, g, np.array([0.0, 1.0])), g)


def test_beta_hz_zero_prev_gradient_means_no_truncation():
    # g_prev = 0 gives a -inf floor, so even a hugely negative raw value
    # passes through
    d = np.array([1.0, 0.0])
    g_prev = np.zeros(2)
    g = np.array([1.0, -50.0])
    expected = hz_reference(list(g), list(g_prev), list(d))
    assert step(MethodId.HZ, g, g_prev, d).beta == pytest.approx(expected, rel=1e-15)


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
    res = step(MethodId.HZ, g, g_prev, d_prev)
    assert res.restarted is False  # the truncated HZ update is a descent one
    expected = hz_reference(list(g), list(g_prev), list(d_prev))
    assert res.beta == pytest.approx(expected, rel=1e-12, abs=1e-300)


def test_first_iteration_is_steepest_descent_bit_exact():
    g = np.array([0.3, -1.7, 2.9])
    for method in MethodId:
        res = step(method, g, None, None)
        assert np.array_equal(res.d, -g)
        assert res.dg == -float(np.dot(g, g))
        assert res.beta == 0.0
        assert res.restarted is False


def test_new_direction_frozen_example():
    g = np.array([3.0, 4.0])
    d_prev = np.array([1.0, 0.0])
    res = step(MethodId.NEW, g, np.array([1.0, 2.0]), d_prev, tau=0.002)
    assert res.beta == 0.01
    assert np.allclose(res.d, [-2.99, -4.0], rtol=0, atol=1e-15)
    dg = res.dg
    assert dg == float(np.dot(res.d, g))
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
    res = step(MethodId.NEW, g, g_prev, d_prev, tau=tau)
    gnorm2 = float(np.dot(g, g))
    slack = 64.0 * EPS
    assert float(np.dot(res.d, g)) <= -(1.0 - tau) * gnorm2 * (1.0 - slack)
    assert float(np.linalg.norm(res.d)) <= (1.0 + tau) * math.sqrt(gnorm2) * (
        1.0 + slack
    )
    assert res.restarted is False


def test_restart_test_is_limited_to_fr_and_hz():
    # NEW at tau = 1 with d_prev = g gives beta = 1 and d = g - g = 0, so
    # d'g = 0 is not negative; only FR and HZ restart on that, so NEW
    # returns its update as it is
    g = np.array([3.0, -4.0])
    res = step(MethodId.NEW, g, np.array([1.0, 2.0]), g.copy(), tau=1.0)
    assert np.array_equal(res.d, np.zeros(2))
    assert res.dg == 0.0
    assert res.beta == 1.0
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
    res = step(MethodId.MFR, g, g_prev, d_prev)
    gnorm2 = float(np.dot(g, g))
    dg = float(np.dot(res.d, g))
    beta = res.beta
    tol = 1e-10 * (1.0 + gnorm2) * (1.0 + beta) * (1.0 + float(np.linalg.norm(d_prev)))
    assert abs(dg + gnorm2) <= tol


@given(seed=st.integers(0, 100_000))
def test_fr_and_hz_always_return_descent(seed):
    g, g_prev, d_prev = _random_state(seed)
    if np.linalg.norm(g) == 0.0 or np.linalg.norm(g_prev) == 0.0:
        return
    for method in (MethodId.FR, MethodId.HZ):
        res = step(method, g, g_prev, d_prev)
        dg = float(np.dot(res.d, g))
        if res.restarted:
            assert_restarted(res, g)
        else:
            assert dg < 0.0


def test_fr_restart_fires_on_ascent_combination():
    # beta_fr = 1 and d_prev = g makes d = -g + g = 0, not a descent
    # direction, so the safeguard must fall back to -g
    g = np.array([1.0, 0.0])
    res = step(MethodId.FR, g, np.array([1.0, 0.0]), np.array([1.0, 0.0]))
    assert_restarted(res, g)


def test_hz_restart_on_degenerate_curvature():
    g = np.array([1.0, 0.0])
    g_prev = np.array([1.0, 0.0])  # y = 0 so d'y = 0
    assert_restarted(step(MethodId.HZ, g, g_prev, np.array([0.0, 1.0])), g)
    # a nonzero but tiny d'y (here 1e-40) counts as degenerate too
    g_prev = np.array([0.0, 0.0])  # y = g
    assert_restarted(step(MethodId.HZ, g, g_prev, np.array([1e-40, 1.0])), g)


def test_fr_restart_on_nan_slope():
    # beta = |g|^2 / |g_prev|^2 overflows to inf, so d = -g + inf d_prev
    # holds inf * 0 = NaN and d'g is NaN, which is no descent direction
    g = np.array([1e5, 1.0])
    with np.errstate(over="ignore", invalid="ignore"):  # as minimize runs it
        res = step(MethodId.FR, g, np.array([1e-150, 0.0]), np.array([1.0, 0.0]))
    assert_restarted(res, g)


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
    assert_restarted(step(method, g, g_prev, d_prev), g)


@given(seed=st.integers(0, 100_000), scale_pow=st.integers(-6, 6))
def test_positive_homogeneity(seed, scale_pow):
    # scaling g, g_prev, d_prev by c > 0 scales the direction by c for the
    # rules without an absolute truncation (powers of two keep fp exact)
    g, g_prev, d_prev = _random_state(seed)
    if np.linalg.norm(g_prev) == 0.0 or np.linalg.norm(d_prev) == 0.0:
        return
    c = 2.0**scale_pow
    for method in (MethodId.NEW, MethodId.FR, MethodId.MFR):
        base = step(method, g, g_prev, d_prev, tau=0.01)
        scaled = step(method, c * g, c * g_prev, c * d_prev, tau=0.01)
        assert np.allclose(scaled.d, c * base.d, rtol=1e-12, atol=0.0)


def test_unknown_method_rejected():
    with pytest.raises(ValueError):
        step("XX", np.ones(2), np.ones(2), np.ones(2))
    # the first iteration is -g for every method, but not for a method that
    # is none of them
    with pytest.raises(ValueError):
        step("XX", np.ones(2), None, None)


@pytest.mark.parametrize("method", list(MethodId))
def test_plain_string_method_dispatches_like_enum(method):
    # MethodId is a str enum, so the plain token must select the same rule
    g, g_prev, d_prev = _random_state(7)
    by_enum = step(method, g, g_prev, d_prev)
    by_str = step(method.value, g, g_prev, d_prev)
    assert by_str.d.tobytes() == by_enum.d.tobytes()
    assert (by_str.dg, by_str.beta, by_str.restarted) == (
        by_enum.dg,
        by_enum.beta,
        by_enum.restarted,
    )


# ---------------------------------------------------------------------------
# Bit identity with the per-rule helpers direction() used to call.
# ---------------------------------------------------------------------------


def reference_direction(method, g, g_prev, d_prev, tau, hz_eta):
    """The earlier rules, each recomputing its norms and y from the vectors,
    and the d'g that armijo_backtrack then took: (d, dg, beta, restarted)."""

    def beta_new():
        dnorm = float(np.linalg.norm(d_prev))
        if dnorm == 0.0:
            raise ZeroDivisionError
        return tau * float(np.linalg.norm(g)) / dnorm

    def beta_fr():
        denom = float(np.dot(g_prev, g_prev))
        if denom == 0.0:
            raise ZeroDivisionError
        return float(np.dot(g, g)) / denom

    def theta_mfr():
        denom = float(np.dot(g_prev, g_prev))
        if denom == 0.0:
            raise ZeroDivisionError
        return float(np.dot(d_prev, g - g_prev)) / denom

    def beta_hz():
        y = g - g_prev
        dy = float(np.dot(d_prev, y))
        if abs(dy) < 1.0e-30:
            raise ZeroDivisionError
        yy = float(np.dot(y, y))
        raw = float(np.dot(y - (2.0 * yy / dy) * d_prev, g)) / dy
        gnorm_prev = float(np.linalg.norm(g_prev))
        denom = float(np.linalg.norm(d_prev)) * min(hz_eta, gnorm_prev)
        return max(raw, -np.inf if denom == 0.0 else -1.0 / denom)

    def result(d, beta, restarted):
        return d, float(np.dot(d, g)), beta, restarted

    if g_prev is None:
        return result(-g, 0.0, False)
    try:
        if method == "NEW":
            beta = beta_new()
            return result(-g + beta * d_prev, beta, False)
        if method == "MFR":
            beta = beta_fr()
            return result(-theta_mfr() * g + beta * d_prev, beta, False)
        beta = beta_fr() if method == "FR" else beta_hz()
    except ZeroDivisionError:
        return result(-g, 0.0, True)
    d = -g + beta * d_prev
    if float(np.dot(d, g)) >= 0.0:
        return result(-g, 0.0, True)
    return result(d, beta, False)


@given(
    seed=st.integers(0, 100_000),
    case=st.sampled_from(
        ["random", "first", "zero_g_prev", "zero_d_prev", "zero_y", "tiny_d_prev"]
    ),
    tau=st.sampled_from([0.0, 0.002, 0.5, 0.999]),
    scale_pow=st.integers(-150, 150),
)
def test_direction_matches_reference_bit_for_bit(seed, case, tau, scale_pow):
    # g is never zero here: minimize stops as converged before a zero g
    # reaches direction(), and only there would -g'g and (-g)'g differ, in
    # the sign of a zero
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 65))
    g = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4)
    g_prev = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4)
    d_prev = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4)
    if case == "first":
        g_prev = d_prev = None
    elif case == "zero_g_prev":
        g_prev = np.zeros(n)
    elif case == "zero_d_prev":
        d_prev = np.zeros(n)
    elif case == "zero_y":
        g_prev = g.copy()
    elif case == "tiny_d_prev":
        d_prev = d_prev * 1e-40

    for method in MethodId:
        d, dg, beta, restarted = reference_direction(
            method.value, g, g_prev, d_prev, tau, _HZ_ETA
        )
        res = step(method, g, g_prev, d_prev, tau=tau)
        assert res.d.tobytes() == d.tobytes(), method
        assert res.dg.hex() == dg.hex(), method
        assert float(res.beta).hex() == float(beta).hex(), method
        assert res.restarted is restarted, method

    # minimize takes |g| as sqrt(g'g); numpy's norm must give the same bits
    for v in (g, g_prev, d_prev, g * 10.0**scale_pow):
        if v is not None:
            assert math.sqrt(float(np.dot(v, v))) == float(np.linalg.norm(v))
