import math
import time
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

import hypercalc.corpus as cp
import hypercalc.expr as ex
import hypercalc.hyper as hy
import hypercalc.radon as rd
from hypercalc.quad import ContourSpec, ConvergenceError

MD = cp.multidim_corpus()
SUITE = cp.test_suite()


def _two_route_gap(f, omega, phi):
    direct = hy.pair(rd.radon_transform(f, omega).hyper, phi)
    via_ft = hy.pair(rd.radon_via_fourier(f, omega), phi)
    return abs(direct - via_ft)


def test_two_route_agreement_gaussian():
    omega = np.array([0.6, 0.8])
    assert _two_route_gap(MD["gauss2"], omega, SUITE[0]) < 1e-8


def test_two_route_agreement_point_source():
    omega = np.array([1.0, 0.0])
    assert _two_route_gap(MD["point_J"], omega, SUITE[0]) < 1e-10


def test_gaussian_slice_pairing_value():
    # integral over the plane of exp(-|x|^2/2) against exp(-u^2) on the
    # omega-axis equals pi / sqrt(2) regardless of direction
    for omega in (np.array([1.0, 0.0]), np.array([0.6, 0.8])):
        sl = rd.radon_transform(MD["gauss2"], omega)
        got = hy.pair(sl.hyper, SUITE[0])
        assert abs(got - math.pi / math.sqrt(2.0)) < 1e-8


@pytest.mark.parametrize("omega", [(0.6, 0.8), (1.0, 0.0), (-0.28, 0.96)])
def test_point_source_fourier_route_G_meets_abs_tol(omega):
    direct = rd.radon_transform(MD["point_J"], omega).hyper.f_plus
    via_ft = rd.radon_via_fourier(MD["point_J"], omega).f_plus
    x = np.array([-3.0, -1.0, -0.3, 0.0, 0.4, 1.5, 4.0])
    for y in (0.5, 0.25):
        err = np.max(np.abs(via_ft(x + 1j * y) - direct(x + 1j * y)))
        assert err <= 1e-10, (y, err)


def test_point_source_slice_is_delta_combo():
    omega = np.array([0.6, 0.8])
    sl = rd.radon_transform(MD["point_a"], omega)
    phi = SUITE[0]
    a_dot = 0.6 * 0.5 + 0.8 * (1.0 / 3.0)
    want = phi.derivative_at(a_dot, 0)
    assert abs(hy.pair(sl.hyper, phi) - want) < 1e-12


def test_helgason_moments_of_gaussian():
    p0 = rd.helgason_moment(MD["gauss2"], 0)
    p2 = rd.helgason_moment(MD["gauss2"], 2)
    omega = np.array([0.6, 0.8])
    assert abs(p0(omega) - math.pi) < 1e-9
    assert abs(p2(omega) - math.pi / 2.0) < 1e-8  # (pi/2) * |omega|^2


def test_helgason_exact_for_point_source():
    omega = (Fraction(3, 5), Fraction(4, 5))
    pk = rd.helgason_moment(MD["point_a"], 3)
    a_dot = Fraction(3, 5) * Fraction(1, 2) + Fraction(4, 5) * Fraction(1, 3)
    assert pk(omega) == a_dot ** 3


def test_helgason_polynomials_have_fixed_parity():
    omega = np.array([0.6, 0.8])
    for k in range(4):
        pk = rd.helgason_moment(MD["skew_gauss2"], k)
        v_plus = pk(omega)
        v_minus = pk(-omega)
        assert abs(v_minus - (-1.0) ** k * v_plus) < 1e-12 * (1 + abs(v_plus))


def test_slice_moment_matches_helgason():
    omega = np.array([0.6, 0.8])
    for k in range(3):
        pk = rd.helgason_moment(MD["skew_gauss2"], k)
        m = rd.slice_moment(MD["skew_gauss2"], omega, k)
        assert abs(m - pk(omega)) < 1e-8 * (1 + abs(m))


def test_expansion_coefficient_closed_form():
    omega = (Fraction(3, 5), Fraction(4, 5))
    expansion = rd.radon_asymptotic_sum(MD["point_J"], 4)
    for k in range(5):
        assert expansion.coefficient(k, omega) == sum(
            rd.example_point_coefficient(s, omega, k)
            for s in MD["point_J"].sources)


def test_float_point_source_follows_the_exact_one():
    # one expression serves both: Fraction arithmetic stays exact, and a float
    # anywhere in the source makes the result a float within rounding
    exact = MD["point_J"].sources[0]
    src = rd.PointSource({a: float(b) for a, b in exact.coefficients.items()},
                         tuple(map(float, exact.point)), 1.0)
    omega = (Fraction(3, 5), Fraction(4, 5))
    want = rd.radon_asymptotic_sum(MD["point_J"], 4)
    got = rd.radon_asymptotic_sum(rd.DeltaCombo((src,), dimension=2), 4)
    for k in range(5):
        w = want.coefficient(k, omega)
        assert isinstance(w, Fraction)
        for v in (got.coefficient(k, omega), rd.example_point_coefficient(src, omega, k)):
            assert abs(v - w) <= 1e-14 * max(1.0, abs(w)), (k, v, w)


def test_expansion_coefficient_parity():
    omega = (Fraction(3, 5), Fraction(4, 5))
    neg = (Fraction(-3, 5), Fraction(-4, 5))
    expansion = rd.radon_asymptotic_sum(MD["point_J"], 4)
    for k in range(5):
        assert expansion.coefficient(k, neg) == \
            (-1) ** k * expansion.coefficient(k, omega)


def test_gevrey_probe_envelope():
    fit = rd.gevrey_probe(MD["point_a"], np.array([0.6, 0.8]), 2.0j)
    assert fit.envelope_ok
    assert not fit.negligible


def test_gevrey_probe_negligible_radial(monkeypatch):
    calls = []
    value = rd.defining_function_value
    monkeypatch.setattr(rd, "defining_function_value",
                        lambda *args: calls.append(args) or value(*args))
    fit = rd.gevrey_probe(MD["gauss2"], np.array([1.0, 0.0]), 0.5j)
    assert fit.negligible
    # the passes at 8 and 16 agree, and each direction is evaluated once
    assert len(calls) <= 16 and len(set(map(repr, calls))) == len(calls)


def _theta_derivatives(G, orders=range(5)):
    """|d^m/dtheta^m G(cos theta omega0 + sin theta t)| at theta = 0 for
    omega0 = (3/5, 4/5), t = (4/5, -3/5), by mpmath at 40 digits."""
    with mp.workdps(40):
        def g(theta):
            return G((mp.cos(theta) * 3 / 5 + mp.sin(theta) * 4 / 5,
                      mp.cos(theta) * 4 / 5 - mp.sin(theta) * 3 / 5))
        return [float(abs(mp.diff(g, 0, m))) for m in orders]


def _cauchy_sum(f, tau):
    """G(omega, tau) of a point-source combination: the Cauchy kernel summed
    over its projected terms b omega^alpha delta^(|alpha|)(t - a.omega)."""
    def G(omega):
        total = 0
        for src in f.sources:
            adot = sum(mp.mpf(p.numerator) / p.denominator * o
                       for p, o in zip(src.point, omega))
            for alpha, b in src.coefficients.items():
                c, m = mp.mpf(b) * src.weight, sum(alpha)
                for a, o in zip(alpha, omega):
                    c *= o ** a
                total += (c * (-1) ** m * mp.factorial(m)
                          / (-2j * mp.pi * (tau - adot) ** (m + 1)))
        return total
    return G


def _skew_gauss2(tau):
    """G for (1 + x1) e^(-|x|^2): (-1/2 pi i) sqrt(pi) [(1 + omega1 tau)
    (-i pi w(tau)) - omega1 sqrt(pi)], w(tau) = e^(-tau^2) erfc(-i tau)."""
    def G(omega):
        w = mp.exp(-tau ** 2) * mp.erfc(-1j * tau)
        return (mp.sqrt(mp.pi) * ((1 + omega[0] * tau) * (-1j * mp.pi * w)
                                  - omega[0] * mp.sqrt(mp.pi)) / (-2j * mp.pi))
    return G


@pytest.mark.parametrize("label", ["point_a", "point_J", "skew_gauss2"])
def test_gevrey_derivatives_match_closed_forms(label, monkeypatch):
    f = MD[label]
    want = _theta_derivatives(_skew_gauss2(mp.mpc(0, 2)) if label == "skew_gauss2"
                              else _cauchy_sum(f, mp.mpc(0, 2)))
    calls = []
    value = rd.defining_function_value
    monkeypatch.setattr(rd, "defining_function_value",
                        lambda *args: calls.append(args) or value(*args))
    fit = rd.gevrey_probe(f, (0.6, 0.8), 2.0j)
    for m, (got, ref) in enumerate(zip(fit.derivative_magnitudes, want)):
        assert abs(got - ref) <= 1e-8 * ref, (m, got, ref)
    if label == "skew_gauss2":  # affine in omega1: the first comparison agrees
        assert len(calls) <= 16


def test_gevrey_probe_is_scale_free():
    f = MD["point_J"]
    heavy = replace(f, sources=tuple(replace(s, weight=100 * s.weight) for s in f.sources))
    one = rd.gevrey_probe(f, (0.6, 0.8), 2.0j).derivative_magnitudes
    hundred = rd.gevrey_probe(heavy, (0.6, 0.8), 2.0j).derivative_magnitudes
    for m, (a, b) in enumerate(zip(one, hundred)):
        assert abs(b - 100 * a) <= 1e-10 * 100 * a, m


def test_gevrey_probe_near_the_real_axis():
    want = _theta_derivatives(_cauchy_sum(MD["point_J"], mp.mpc(0, 0.5)))
    fit = rd.gevrey_probe(MD["point_J"], (0.6, 0.8), 0.5j)
    for m, (got, ref) in enumerate(zip(fit.derivative_magnitudes, want)):
        assert abs(got - ref) <= 1e-8 * ref, (m, got, ref)
    # point_a's order-4 passes at 128 and 256 directions differ by 2.7e-9
    # of its largest derivative there: the rounding the derivative amplifies
    with pytest.raises(ConvergenceError, match="256 directions"):
        rd.gevrey_probe(MD["point_a"], (0.6, 0.8), 0.5j)


def test_gevrey_probe_order_cap():
    with pytest.raises(ValueError):
        rd.gevrey_probe(MD["point_a"], np.array([0.6, 0.8]), 2.0j,
                        max_order=6)


def _delta_moments(a, n_terms=80):
    return [complex(a) ** k for k in range(n_terms)]


def test_support_check_accepts_true_support():
    a = 0.6
    rep = rd.support_check(_delta_moments(a), S=a + 0.1, bound=(1.0, a))
    assert rep.passed[1e-3]
    assert rep.rate <= 1e-3


def test_support_check_divergent_sequence():
    moments = [float(math.factorial(k)) ** 2 for k in range(12)]
    rep = rd.support_check(moments, S=1.0)
    assert not rep.passed[0.5]
    assert "diverges" in rep.diagnosis


def test_support_check_rejects_bad_bound():
    with pytest.raises(ValueError):
        rd.support_check(_delta_moments(0.6, n_terms=6), S=0.7,
                         bound=(1.0, 0.6))


def test_multidim_moment_exact_for_point_source():
    m = rd.multidim_moment(MD["point_a"], (1, 1))
    assert m == Fraction(1, 2) * Fraction(1, 3)


def test_radon_slice_direction_validation():
    with pytest.raises(ValueError):
        rd.radon_transform(MD["gauss2"], np.array([0.5, 0.5]))


def test_slice_G_raises_past_u_panel_cap():
    sl = rd.radon_transform(MD["gauss2"], (1.0, 0.0))
    start = time.perf_counter()
    with pytest.raises(ConvergenceError, match="within 32768 u-points"):
        sl.hyper.f_plus(np.array([0.3 + 1e-4j]))
    assert time.perf_counter() - start < 5.0


def test_slice_projection_raises_past_transverse_cap():
    sl = rd.radon_transform(MD["gauss2"], (1.0, 0.0), abs_tol=1e-30)
    start = time.perf_counter()
    with pytest.raises(ConvergenceError, match="within 512 transverse points"):
        sl.hyper.f_plus(np.array([0.3 + 0.5j]))
    assert time.perf_counter() - start < 5.0


def test_projection_near_the_axis_stays_small():
    # 8192 u-points x 64 transverse points, projected in blocks of u-points
    sl = rd.radon_transform(MD["gauss2"], (0.6, 0.8))
    tracemalloc.start()
    try:
        value = hy.pair(sl.hyper, SUITE[0], ContourSpec(imag_offset=0.02, abs_tol=1e-9))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(value - math.pi / math.sqrt(2.0)) < 1e-8
    assert peak <= 64 * 2 ** 20


@pytest.mark.parametrize("label", ["gauss2", "skew_gauss2"])
def test_slice_G_is_history_free(label):
    f, omega = MD[label], (0.6, 0.8)
    near = np.linspace(-1.0, 1.0, 21) + 0.5j
    warmed = rd.radon_transform(f, omega).hyper.f_plus
    warmed(np.linspace(-27.0, -16.0, 23) + 0.5j)
    got = warmed(near)
    assert np.array_equal(got, rd.radon_transform(f, omega).hyper.f_plus(near))
    want = rd.radon_transform(f, omega, abs_tol=1e-13).hyper.f_plus(near)
    assert np.max(np.abs(got - want)) <= 1e-9
    # 300 points at one height span several row blocks of the Cauchy sum
    row = np.linspace(-3.0, 3.0, 300) + 0.5j
    assert np.array_equal(warmed(row), warmed(row[::-1])[::-1])


def test_slice_pairing_calls_G_once_per_round():
    sl, calls = rd.radon_transform(MD["gauss2"], (0.6, 0.8)).hyper, []

    def G(tau):
        calls.append(tau.size)
        return sl.f_plus(tau)

    got = hy.pair(replace(sl, f_plus=G, f_minus=G), SUITE[0])
    assert abs(got - math.pi / math.sqrt(2.0)) < 1e-8
    assert len(calls) <= 4


def test_one_dimensional_slice_follows_the_direction():
    # the slice of f(x) in direction -1 is the slice of f(-x) in direction +1
    f = rd.SmoothRapid(ex.parse_expr("exp(-(x1-1)*(x1-1))"), dimension=1)
    mirror = rd.SmoothRapid(ex.parse_expr("exp(-(x1+1)*(x1+1))"), dimension=1)
    tau = np.array([0.5 + 0.3j, -1.0 + 0.3j])
    got = rd.radon_transform(f, (-1.0,)).hyper.f_plus(tau)
    want = rd.radon_transform(mirror, (1.0,)).hyper.f_plus(tau)
    assert np.max(np.abs(got - want)) <= 1e-12


def test_projected_delta_terms_agree_across_routes():
    f, omega, k = MD["point_J"], (0.6, 0.8), 3
    terms = list(rd._projected_terms(f, omega))
    assert [m for _, m, _ in terms] == [0, 1, 2]
    # the ray of b omega^alpha delta^(m)(t - a.omega) is b omega^alpha (i rho)^m e^(-i rho a.omega)
    rho = np.array([0.0, 0.7, -2.5])
    want = sum(c * (1j * rho) ** m * np.exp(-1j * rho * adot) for adot, m, c in terms)
    got = rd.multidim_fourier_ray(f, omega)(rho)
    assert np.max(np.abs(got - want)) <= 1e-14
    slice_h = rd.radon_transform(f, omega).hyper
    tau = 0.2 + 0.3j
    assert abs(slice_h.f_plus(tau) - rd.defining_function_value(f, omega, tau)) <= 1e-12
    moment = hy.pair(slice_h, hy.TestFunction(ex.Pow(ex.Var("z"), k),
                                               strip_halfwidth=math.inf))
    assert abs(moment - rd.slice_moment(f, omega, k)) <= 1e-9


@pytest.mark.parametrize("omega", [(0.6, 0.8), (1.0, 0.0), (-0.28, 0.96)])
def test_slice_of_sources_at_two_projected_points(omega):
    a, b = (Fraction(1, 2), Fraction(1, 3)), (Fraction(-1, 4), Fraction(1, 5))
    f = rd.DeltaCombo((rd.PointSource({(0, 0): 1, (1, 0): 2}, a),
                       rd.PointSource({(0, 1): -1}, b)), dimension=2, label="two_points")
    phi = SUITE[0]
    slice_h = rd.radon_transform(f, omega).hyper
    assert slice_h.point_support is None
    # delta(t - a.omega) + 2 omega1 delta'(t - a.omega) - omega2 delta'(t - b.omega)
    at_a, at_b = (sum(float(p) * o for p, o in zip(q, omega)) for q in (a, b))
    want = (phi.derivative_at(at_a, 0) - 2 * omega[0] * phi.derivative_at(at_a, 1)
            + omega[1] * phi.derivative_at(at_b, 1))
    direct = hy.pair(slice_h, phi)
    assert abs(direct - want) <= 1e-10
    assert abs(direct - hy.pair(rd.radon_via_fourier(f, omega), phi)) <= 1e-10


def test_smooth_rapid_keeps_real_points_real():
    f = MD["skew_gauss2"]
    pts = np.array([[0.25, -0.5], [1.0, 2.0], [-1.5, 0.0]])
    real = f(*pts.T)
    assert real.dtype == np.float64
    cplx = f(*pts.astype(complex).T)
    assert cplx.dtype == np.complex128
    assert np.max(np.abs(real - cplx)) <= 4 * np.finfo(float).eps * np.max(np.abs(real))
    # the projection's weighted values stay real up to the Cauchy kernel
    rule, pv = rd._weighted_projection(f, (0.6, 0.8), 1e-9)(128)
    assert pv.dtype == np.float64 and pv.shape == rule.points.shape


@pytest.mark.parametrize("label", ["gauss2", "point_a"])
def test_direction_of_another_dimension_is_rejected(label):
    f, omega = MD[label], (0.0, 0.0, 1.0)
    for call in (lambda: rd.radon_transform(f, omega),
                 lambda: rd.multidim_fourier_ray(f, omega),
                 lambda: rd.slice_moment(f, omega, 1),
                 lambda: rd.defining_function_value(f, omega, 2j),
                 lambda: rd.gevrey_probe(f, omega, 2j)):
        with pytest.raises(ValueError, match="direction has 3 components, the "
                                             "input has dimension 2"):
            call()


def _slice_pairing(label, omega, phi):
    """int R f(omega, t) phi(t) dt by mpmath, from the slices of the corpus's
    Gaussians: sqrt(pi) e^(-t^2) times 1, 1 + omega1 t or omega1 t."""
    factor = {"gauss2": lambda t: 1, "skew_gauss2": lambda t: 1 + omega[0] * t,
              "odd_gauss2": lambda t: omega[0] * t}[label]
    test = {"gauss": lambda t: mp.exp(-t * t),
            "affine_gauss": lambda t: (1 + t) * mp.exp(-t * t / 2)}[phi.label]
    with mp.workdps(30):
        return complex(mp.quad(lambda t: mp.sqrt(mp.pi) * mp.exp(-t * t) * factor(t)
                               * test(t), [-mp.inf, 0, mp.inf]))


@pytest.mark.parametrize("label", ["gauss2", "skew_gauss2", "odd_gauss2"])
def test_slices_of_the_gaussians_match_mpmath(label):
    phis = [phi for phi in SUITE if phi.label in ("gauss", "affine_gauss")]
    for omega in ((0.6, 0.8), (1.0, 0.0), (-0.28, 0.96)):
        direct = rd.radon_transform(MD[label], omega).hyper
        via_ft = rd.radon_via_fourier(MD[label], omega)
        for phi in phis:
            want = _slice_pairing(label, omega, phi)
            assert abs(hy.pair(direct, phi) - want) <= 1e-9, (omega, phi.label)
            assert abs(hy.pair(via_ft, phi) - want) <= 1e-8, (omega, phi.label)


@pytest.mark.parametrize("label", ["gauss2", "skew_gauss2"])
def test_fourier_route_slices_are_within_their_reported_bounds(label):
    via_ft = rd.radon_via_fourier(MD[label], (0.6, 0.8))
    for phi in (phi for phi in SUITE if phi.label in ("gauss", "affine_gauss")):
        value, err = hy.pair_with_error(via_ft, phi)
        assert abs(value - _slice_pairing(label, (0.6, 0.8), phi)) <= err <= 1e-10, phi.label


def test_fourier_route_slice_branches_are_within_their_reported_bound():
    value, err = hy.pair_with_error(rd.radon_via_fourier(MD["gauss2"], (0.6, 0.8)), SUITE[0],
                                    force_lines=True)
    assert abs(value - _slice_pairing("gauss2", (0.6, 0.8), SUITE[0])) <= err <= 1e-10


@pytest.mark.parametrize("route", [lambda f, om: rd.radon_transform(f, om).hyper,
                                   rd.radon_via_fourier], ids=["direct", "fourier"])
def test_three_dimensional_gaussian_slice(route):
    # every slice of e^(-|x|^2) in 3-D is pi e^(-t^2): against e^(-t^2), pi sqrt(pi/2)
    f = rd.SmoothRapid(ex.parse_expr("exp(-(x1*x1+x2*x2+x3*x3))"), dimension=3)
    start = time.perf_counter()
    got = hy.pair(route(f, (2 / 7, 3 / 7, 6 / 7)), SUITE[0])
    assert time.perf_counter() - start < 2.0
    assert abs(got - math.pi * math.sqrt(math.pi / 2.0)) <= 1e-9


def test_one_dimensional_routes_and_moments():
    # in 1-D the slice in direction -1 is f(-t) = e^(-(t + 1/2)^2)
    f = rd.SmoothRapid(ex.parse_expr("exp(-(x1-0.5)*(x1-0.5))"), dimension=1)
    want = math.sqrt(math.pi / 2.0) * math.exp(-0.125)
    assert abs(hy.pair(rd.radon_transform(f, (-1.0,)).hyper, SUITE[0]) - want) <= 1e-9
    assert abs(hy.pair(rd.radon_via_fourier(f, (-1.0,)), SUITE[0]) - want) <= 1e-8
    assert abs(rd.helgason_moment(f, 1)((1.0,)) - 0.5 * math.sqrt(math.pi)) <= 1e-10
    assert abs(rd.slice_moment(f, (-1.0,), 1) + 0.5 * math.sqrt(math.pi)) <= 1e-10


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_ray_table_rejects_a_non_finite_rho(bad):
    # inf overflowed the start level, and NaN ran every level to the cap
    ray = rd.multidim_fourier_ray(MD["gauss2"], (1.0, 0.0))
    start = time.perf_counter()
    with pytest.raises(ValueError, match="non-finite rho"):
        ray.table(np.array([bad, 1.0]))
    assert time.perf_counter() - start < 0.01
