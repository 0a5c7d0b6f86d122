import math

import mpmath as mp
import numpy as np
import pytest

import hypercalc.corpus as cp
import hypercalc.expr as ex
from hypercalc.growth import GrowthClass, GrowthError
from hypercalc.hyper import _geometric_breakpoints
import hypercalc.quad as quad
from hypercalc.quad import (_WG, _WK, _XK, ConvergenceError, DimensionError,
                            DivergentTailError, _upper_gamma, adaptive_interval,
                            auto_radius, integrate_box, refine, tail_bound,
                            verify_growth)


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


def test_adaptive_interval_takes_a_constant_integrand():
    # an integrand free of x may return one scalar for the whole node array
    assert tuple(adaptive_interval(lambda x: 2.0, -1.0, 1.0, 1e-10)) == (4.0, 0.0, 21)
    assert adaptive_interval(lambda x: 0j, 0.0, 3.0, 1e-10).value == 0


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


@pytest.mark.parametrize("growth", [GrowthClass.asymptotic(), GrowthClass.infra_exponential()],
                         ids=["asymptotic", "infra_exponential"])
def test_tail_bound_of_a_class_without_a_rate_raises(growth):
    with pytest.raises(DivergentTailError, match=f"the {growth.kind} class"):
        tail_bound(growth, 0.0, 10.0)


def test_auto_radius_meets_tolerance():
    g = GrowthClass.exp_decay(1.0, constant=1.0)
    r = auto_radius(g, 1e-10)
    assert tail_bound(g, 0.0, r) <= 1e-10


def _auto_radius_80_steps(growth, abs_tol, w):
    # auto_radius as it was: always 80 bisection steps
    target = abs_tol / 10.0
    lo, hi = 1.0, 2.0
    while tail_bound(growth, w, hi) > target:
        hi *= 2.0
        if hi >= 1e12:
            raise ConvergenceError("tail target unreachable below the radius cap")
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if tail_bound(growth, w, mid) <= target:
            hi = mid
        else:
            lo = mid
    return hi


def test_auto_radius_stops_at_adjacent_floats_with_the_80_step_radius(monkeypatch):
    classes = [GrowthClass.exp_decay(d, constant=c) for d in (0.25, 1.0, 3.0)
               for c in (1.0, 40.0)]
    classes.append(GrowthClass.tempered(-9.5, constant=2.0))
    calls = []
    counted = tail_bound

    def counting(*args):
        calls.append(args)
        return counted(*args)

    monkeypatch.setattr(quad, "tail_bound", counting)
    compared = 0
    for g in classes:
        for w in range(7):
            for tol in (1e-6, 1e-8, 1e-10, 1e-11, 1e-13):
                try:
                    want = _auto_radius_80_steps(g, tol, float(w))
                except ConvergenceError:
                    with pytest.raises(ConvergenceError):
                        auto_radius(g, tol, float(w))
                    continue
                calls.clear()
                assert auto_radius(g, tol, float(w)) == want, (g, w, tol)
                assert len(calls) < 60 + math.log2(want), (g, w, tol, len(calls))
                compared += 1
    assert compared > 150
    # the tail is below target already at r = 1, the lower end that is never
    # tested: the 80 steps end at 1.0 and so must the early stop
    steep = GrowthClass.exp_decay(50.0, constant=1e-3)
    assert tail_bound(steep, 0.0, 1.0) <= 1e-7
    assert auto_radius(steep, 1e-6) == _auto_radius_80_steps(steep, 1e-6, 0.0) == 1.0


def test_upper_gamma_against_mpmath():
    with mp.workdps(30):
        for s in range(2, 8):
            for y in np.geomspace(1e-3, 700.0, 41):
                want = mp.gammainc(s, float(y))
                got = _upper_gamma(float(s), float(y))
                assert abs(got - want) <= 1e-14 * want, (s, y)
        # a non-integer order gets the upper bound y^(s - ceil s) Gamma(ceil s, y)
        for s in (1.5, 2.25, 3.7, 6.01):
            n = math.ceil(s)
            for y in np.geomspace(1e-3, 700.0, 21):
                got = _upper_gamma(s, float(y))
                assert got >= mp.gammainc(s, float(y)), (s, y)
                bound = mp.mpf(float(y)) ** (s - n) * mp.gammainc(n, float(y))
                assert abs(got - bound) <= 1e-14 * bound, (s, y)


def test_exp_decay_tail_bound_is_the_incomplete_gamma_tail():
    # 2 C int_R^inf (1+x)^w e^(-d x) dx = 2 C e^d d^(-w-1) Gamma(w+1, d (1+R))
    with mp.workdps(30):
        for w in range(1, 7):
            for d, c, r in ((0.5, 3.0, 7.0), (1.4, 1.0, 30.0), (2.0, 10.0, 0.75)):
                got = tail_bound(GrowthClass.exp_decay(d, constant=c), float(w), r)
                want = 2 * c * mp.quad(lambda x: (1 + x) ** w * mp.exp(-d * x), [r, mp.inf])
                assert abs(got - want) <= 1e-14 * want, (w, d, r)


@pytest.mark.parametrize("a", [1.0, 0.5, 0.25, 0.125])
def test_gaussian_tail_bound_against_mpmath(a):
    # 2 C int_R^inf (1 + x)^w e^(-a x^2) dx: bounded above, within 10x past R = 3
    c = 3.0
    with mp.workdps(30):
        for w in (-1.0, 0.0, 0.5, 1.0, 2.0, 6.0, 8.0):
            for r in (1.0, 3.0, 5.0, 10.0, 15.0, 25.0):
                h = 1.0 / (2.0 * a * r)  # the integrand's decay length at R
                cuts = sorted({r, r + h, r + 4 * h, r + 16 * h,
                               max(r, math.sqrt(w / (2 * a))) if w > 0 else r})
                want = 2 * c * mp.quad(lambda x: (1 + x) ** w * mp.exp(-a * x * x),
                                       cuts + [mp.inf])
                got = tail_bound(GrowthClass.gaussian(a, constant=c), w, r)
                assert got >= want, (w, r)
                if r >= 3.0:
                    assert got <= 10 * want, (w, r, got / want)


def test_gaussian_class_order_envelope_and_json():
    g = GrowthClass.gaussian(0.25, constant=5.0)
    assert g.envelope(2.0) == 5.0 * math.exp(-1.0)
    assert g.fits_within(GrowthClass.exp_decay(40.0))
    assert g.fits_within(GrowthClass.gaussian(0.125))
    assert not g.fits_within(GrowthClass.gaussian(0.5))
    assert not GrowthClass.exp_decay(40.0).fits_within(g)
    assert GrowthClass.from_json(g.to_json()) == g
    with pytest.raises(GrowthError):
        GrowthClass.gaussian(0.0)


def _gaussian_damped():
    """(label, expression, class, strip) of the Gaussian-damped corpus members."""
    g = cp.default_corpus()["gaussian"]
    members = [(phi.label, phi.expr, phi.growth, phi.strip_halfwidth)
               for phi in cp.test_suite()] + [("gaussian", g.f_plus, g.growth, g.strip)]
    return [pytest.param(*m, id=m[0]) for m in members]


@pytest.mark.parametrize("label, e, growth, strip", _gaussian_damped())
def test_gaussian_damped_corpus_meets_its_envelope(label, e, growth, strip):
    assert growth.kind == "gaussian"
    heights = [0.0, 0.25, -0.25, 0.5, -0.5] + ([0.7, -0.7] if strip < math.inf else [])
    x = np.linspace(-40.0, 40.0, 1601)
    env = np.array([growth.envelope(abs(v)) for v in x])
    worst = 0.0
    for y in heights:
        got = np.abs(ex.evaluate(e, {"z": x + 1j * y}))
        live = env > 1e-290  # past it the envelope is near underflow
        assert np.all(got[live] <= env[live]), (label, y)
        assert np.all(got[~live] <= 1e-280), (label, y)
        worst = max(worst, float(np.max(got[live] / env[live])))
    assert worst <= 0.5, (label, worst)


def test_integrate_box_gaussian_2d():
    res = integrate_box(lambda x1, x2: np.exp(-(x1 ** 2 + x2 ** 2)),
                        [6.0, 6.0], abs_tol=1e-10)
    assert abs(res.value - math.pi) < 1e-9


def test_integrate_box_dimension_cap():
    with pytest.raises(DimensionError):
        integrate_box(lambda pts: pts[:, 0] * 0 + 1.0, [1.0] * 4,
                      abs_tol=1e-6)


def test_integrate_box_raises_at_point_cap():
    calls = []

    def rough(x1):
        calls.append(len(x1))
        return np.abs(x1) ** 0.5  # derivative singular at 0

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


def test_integrate_box_broadcasts_an_integrand_free_of_an_axis():
    # the open grid's x2 axis stays (1, m, 1): values constant along it
    # broadcast over the box, so the middle axis contributes its length 2
    res = integrate_box(lambda x1, x2, x3: np.exp(-(x1 ** 2 + x3 ** 2)),
                        [6.0, 1.0, 6.0], abs_tol=1e-10)
    assert abs(res.value - 2.0 * math.pi) < 1e-9
