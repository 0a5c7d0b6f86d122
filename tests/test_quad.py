import math

import mpmath as mp
import numpy as np
import pytest

import hypercalc.expr as ex
from hypercalc.growth import GrowthClass
from hypercalc.hyper import _geometric_breakpoints
from hypercalc.quad import (_WG, _WK, _XK, ConvergenceError, DimensionError,
                            DivergentTailError, adaptive_interval, auto_radius,
                            integrate_box, refine, tail_bound, verify_growth)


def test_kronrod_rule_constants():
    # a Kronrod extension of the 10-point Gauss rule is unique, so these pin it
    for k in range(32):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(np.sum(_WK * _XK ** k) - exact) <= 1e-15, k
    x10, w10 = np.polynomial.legendre.leggauss(10)
    assert np.max(np.abs(_XK[1::2] - x10)) <= 1e-15
    assert np.max(np.abs(_WG - w10)) <= 1e-15
    assert np.array_equal(_XK, -_XK[::-1]) and _XK[10] == 0.0
    assert np.array_equal(_WK, _WK[::-1]) and np.array_equal(_WG, _WG[::-1])


def test_adaptive_interval_gaussian():
    val, err, _ = adaptive_interval(lambda x: np.exp(-x * x), -8.0, 8.0,
                                    abs_tol=1e-12)
    assert abs(val - math.sqrt(math.pi)) < 1e-11
    assert err < 1e-10


def test_adaptive_interval_oscillatory():
    val, _, _ = adaptive_interval(lambda x: np.exp(-x * x) * np.cos(10 * x),
                                  -8.0, 8.0, abs_tol=1e-12)
    want = math.sqrt(math.pi) * math.exp(-25.0)
    assert abs(val - want) < 1e-12


def test_adaptive_interval_calls_f_once_per_round():
    calls = []

    def f(x):
        calls.append(len(x))
        return np.exp(-x * x)

    val, _, nodes = adaptive_interval(f, -8.0, 8.0, 1e-12,
                                      breakpoints=_geometric_breakpoints(8.0))
    assert abs(val - math.sqrt(math.pi)) < 1e-12
    assert len(calls) <= 3 and sum(calls) == nodes
    assert all(c % 21 == 0 for c in calls)


# (integrand, its mpmath form, a, b, mpmath.quad's subdivision and method)
CALIBRATION = {
    "gauss": (lambda x: np.exp(-x * x), lambda x: mp.exp(-x * x),
              -8, 8, [-8, 0, 8], "tanh-sinh"),
    "gauss_cos10": (lambda x: np.exp(-x * x) * np.cos(10 * x),
                    lambda x: mp.exp(-x * x) * mp.cos(10 * x),
                    -8, 8, np.linspace(-8, 8, 17), "tanh-sinh"),
    "near_pole": (lambda x: 1 / (x - 0.05j), lambda x: 1 / (x - mp.mpc(0, 0.05)),
                  -1, 2, [-1, 0, 2], "tanh-sinh"),
    "shifted_sech": (lambda x: 1 / np.cosh(x + 0.3j), lambda x: mp.sech(x + mp.mpc(0, 0.3)),
                     -30, 30, [-30, -10, -3, 0, 3, 10, 30], "gauss-legendre"),
    "lorentz": (lambda x: 1 / (1 + x * x), lambda x: 1 / (1 + x * x),
                -50, 50, [-50, -5, 0, 5, 50], "tanh-sinh"),
    "oscillatory_lorentz": (lambda x: np.exp(40j * x) / (1 + x * x),
                            lambda x: mp.expj(40 * x) / (1 + x * x),
                            -10, 10, np.linspace(-10, 10, 41), "gauss-legendre"),
}


@pytest.mark.parametrize("name", sorted(CALIBRATION))
def test_adaptive_interval_error_bounds_the_actual_error(name):
    f, f_mp, a, b, cuts, method = CALIBRATION[name]
    with mp.workdps(30):
        exact = complex(mp.quad(f_mp, [mp.mpf(float(c)) for c in cuts], method=method))
    for abs_tol in (1e-6, 1e-8, 1e-10, 1e-12):
        value, err, _ = adaptive_interval(f, a, b, abs_tol)
        assert err <= abs_tol
        assert abs(value - exact) <= err, (abs_tol, abs(value - exact), err)


def test_adaptive_interval_names_its_subject_at_the_cap():
    with pytest.raises(ConvergenceError) as exc:
        adaptive_interval(lambda x: np.exp(-x * x), -8.0, 8.0, 0.0, "gaussian integral")
    assert str(exc.value).startswith("gaussian integral did not reach abs_tol=0 "
                                     "within 4000 subdivisions (error estimate ")


def test_tail_bound_certifies():
    g = GrowthClass.exp_decay(1.0, constant=2.0)
    e = ex.parse_expr("2*exp(-z)")
    for r in (5.0, 10.0):
        actual = abs(ex.evaluate(e, {"z": r}))
        assert tail_bound(g, 0.0, r) >= actual


def test_tail_bound_divergent():
    with pytest.raises(DivergentTailError):
        tail_bound(GrowthClass.tempered(2.0), 0.0, 10.0)


def test_auto_radius_meets_tolerance():
    g = GrowthClass.exp_decay(1.0, constant=1.0)
    r = auto_radius(g, 1e-10)
    assert tail_bound(g, 0.0, r) <= 1e-10


def test_integrate_box_gaussian_2d():
    res = integrate_box(lambda pts: np.exp(-(pts ** 2).sum(axis=1)),
                        [6.0, 6.0], abs_tol=1e-10)
    assert abs(res.value - math.pi) < 1e-9


def test_integrate_box_dimension_cap():
    with pytest.raises(DimensionError):
        integrate_box(lambda pts: pts[:, 0] * 0 + 1.0, [1.0] * 4,
                      abs_tol=1e-6)


def test_integrate_box_raises_at_point_cap():
    calls = []

    def rough(pts):
        calls.append(len(pts))
        return np.abs(pts[:, 0]) ** 0.5  # derivative singular at 0

    with pytest.raises(ConvergenceError, match="within 64 points per axis"):
        integrate_box(rough, [1.0], abs_tol=1e-14, max_points=64)
    assert calls == [16, 32, 64]


def test_refine_returns_first_agreement():
    seen = []

    def evaluate(n):
        seen.append(n)
        return np.array([1.0 / n, 2.0])

    value, err, n = refine(evaluate, 4, 1024, 0.07, "test sum")
    assert seen == [4, 8, 16] and n == 16
    assert np.array_equal(value, [1.0 / 16, 2.0]) and err == 1.0 / 16


def test_refine_never_evaluates_past_cap():
    seen = []

    def evaluate(n):
        seen.append(n)
        return complex(n)

    with pytest.raises(ConvergenceError) as exc:
        refine(evaluate, 3, 48, 1e-3, "diverging sum", "nodes")
    assert seen == [3, 6, 12, 24, 48]
    assert str(exc.value) == "diverging sum did not reach abs_tol=0.001 within 48 nodes"
    seen.clear()
    with pytest.raises(ConvergenceError, match="within 16 panels"):
        refine(evaluate, 32, 16, 1e-3, "short ladder")
    assert seen == []


def test_verify_growth_rejects_wrong_claim():
    e = ex.parse_expr("exp(-(z*z)/2)")
    ok = verify_growth(e, GrowthClass.exp_decay(0.5, constant=4.0))
    assert ok.passed
    bad = verify_growth(ex.parse_expr("z*z"), GrowthClass.tempered(-1.0))
    assert not bad.passed
