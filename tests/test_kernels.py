import math

import numpy as np
import pytest

import hypercalc.corpus as cp
import hypercalc.hyper as hy
import hypercalc.quad as qd
import hypercalc.radon as rd
import hypercalc.spectral as sp
from hypercalc.growth import GrowthClass
from hypercalc.quad import CompositeRule, ConvergenceError


def _dense(rule, t, amps, c):
    """The unfactored sum, one row of t at a time."""
    flat = np.ravel(t)
    out = np.array([np.exp(c * tv * rule.points) @ amps for tv in flat])
    return out.reshape(np.shape(t))


def _random_t(rng, n):
    """Non-uniform real t plus points with an imaginary part of each sign."""
    real = np.sort(rng.uniform(-20.0, 20.0, n - 4))
    return np.concatenate([real, [3.0 + 0.3j, -7.5 + 0.3j, 1.5 - 0.3j, -12.0 - 0.3j]])


@pytest.mark.parametrize("degree", [1, 8, 10, 16])
@pytest.mark.parametrize("panels", [1, 64, 1000, 4096])
def test_exp_sum_matches_dense(degree, panels):
    rng = np.random.default_rng(degree * 10000 + panels)
    rule = CompositeRule(-6.0, 4.0, panels, degree)
    # enough t to span several blocks, ending on a partial one
    n_t = 200 if panels == 4096 else 37
    if panels == 4096:
        assert n_t % (qd._EXP_SUM_BLOCK // panels) != 0
        assert n_t > 2 * (qd._EXP_SUM_BLOCK // panels)
    t = _random_t(rng, n_t)
    a = (rng.standard_normal(rule.points.size)
         + 1j * rng.standard_normal(rule.points.size)) * rule.weights
    for c in (1j, -1j):
        want = _dense(rule, t, a, c)
        got = rule.exp_sum(t, a, c)
        assert got.shape == t.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_exp_sum_several_amplitude_rows_and_shaped_t():
    rng = np.random.default_rng(3)
    # within one block, and over several blocks ending on a partial one
    for panels, rows, shape in ((40, 2, (6, 7)), (4096, 3, (5, 11))):
        rule = CompositeRule(0.0, 9.0, panels, 8)
        step = qd._EXP_SUM_BLOCK // (rows * panels)
        t = rng.uniform(-5.0, 5.0, shape)
        if panels == 4096:  # a square number of panels: no padding
            assert t.size > 2 * step and t.size % step != 0
        amps = rng.standard_normal((rows, rule.points.size)) * rule.weights
        got = rule.exp_sum(t, amps, -1j)
        assert got.shape == (rows,) + shape
        for row in range(rows):
            want = _dense(rule, t, amps[row], -1j)
            assert np.max(np.abs(got[row] - want)) <= 1e-13 * np.max(np.abs(want))


def test_composite_rule_grid():
    rule = CompositeRule(-2.0, 6.0, 4, 10)
    x, w = np.polynomial.legendre.leggauss(10)
    assert np.array_equal(rule.mid, [-1.0, 1.0, 3.0, 5.0])
    assert rule.half == 1.0
    assert np.array_equal(rule.points[:10], -1.0 + x)
    assert np.array_equal(rule.weights, np.tile(w, 4))
    # the rule integrates low-degree polynomials exactly
    assert abs(rule.weights @ rule.points ** 3 - (6.0 ** 4 - 2.0 ** 4) / 4.0) < 1e-10


def test_leggauss_cache_is_shared_and_read_only():
    x, w = qd._leggauss(16)
    ref_x, ref_w = np.polynomial.legendre.leggauss(16)
    assert np.array_equal(x, ref_x) and np.array_equal(w, ref_w)
    assert qd._leggauss(16)[0] is x
    assert not x.flags.writeable and not w.flags.writeable
    with pytest.raises(ValueError):
        x[0] = 0.0


def test_fourier_table_of_sech_matches_closed_form():
    f = cp.default_corpus()["sech"]
    xis = np.sort(np.random.default_rng(5).uniform(-8.0, 8.0, 64))
    got = sp.fourier_transform(f).table(xis)
    want = math.pi / np.cosh(math.pi * xis / 2.0)
    assert np.max(np.abs(got - want) / (1.0 + np.abs(want))) <= 1e-6


@pytest.mark.parametrize("n", [0, 1, 3])
@pytest.mark.parametrize("at", [0.0, 0.5])
def test_delta_like_transform_derivatives_match_closed_form(n, at):
    # hat of delta^(n)(x - at) is (i xi)^n e^(-i at xi); order q is its q-th
    # xi-derivative, sum_j binom(q, j) i^n n!/(n-j)! xi^(n-j) (-i at)^(q-j)
    field = sp.fourier_transform(hy.delta_derivative(n, at=at))
    xi = np.linspace(-40.0, 40.0, 81)
    for q in range(5):
        want = sum(math.comb(q, j) * 1j ** n * math.factorial(n) / math.factorial(n - j)
                   * xi ** (n - j) * (-1j * at) ** (q - j)
                   for j in range(min(n, q) + 1)) * np.exp(-1j * at * xi)
        got = field(xi, order=q)
        assert np.max(np.abs(got - want) / (1.0 + np.abs(want))) <= 1e-10


def test_fourier_table_raises_past_panel_cap():
    field = sp.fourier_transform(cp.default_corpus()["sech"])
    with pytest.raises(ConvergenceError):
        field.table(np.array([1e7]))


def test_inverse_branch_raises_when_tolerance_unreachable():
    g = sp.SmoothField(lambda xi, order=0: np.exp(-np.asarray(xi) ** 2),
                       growth=GrowthClass.exp_decay(1.0, constant=1.0),)
    h = sp.inverse_fourier(g, abs_tol=1e-30)
    with pytest.raises(ConvergenceError):
        h.f_plus(np.array([0.5 + 0.5j, -1.0 + 0.5j, 2.0 + 0.7j]))


def test_ray_table_raises_past_panel_cap():
    ray = rd.multidim_fourier_ray(cp.multidim_corpus()["gauss2"], (1.0, 0.0))
    with pytest.raises(ConvergenceError):
        ray.table(np.array([1e6]))
