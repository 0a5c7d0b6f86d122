import math
import time
import tracemalloc
from dataclasses import replace
from fractions import Fraction

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


def test_gevrey_probe_negligible_radial():
    fit = rd.gevrey_probe(MD["gauss2"], np.array([1.0, 0.0]), 0.5j)
    assert fit.negligible


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
    with pytest.raises(ConvergenceError, match="within 2048 u-panels"):
        sl.hyper.f_plus(np.array([0.3 + 1e-4j]))
    assert time.perf_counter() - start < 5.0


def test_slice_projection_raises_past_transverse_cap():
    sl = rd.radon_transform(MD["gauss2"], (1.0, 0.0), abs_tol=1e-30)
    start = time.perf_counter()
    with pytest.raises(ConvergenceError, match="within 48 transverse panels"):
        sl.hyper.f_plus(np.array([0.3 + 0.5j]))
    assert time.perf_counter() - start < 5.0


def test_projection_near_the_axis_stays_small():
    # 1024 u-panels x 192 transverse points, projected in blocks of u-points
    sl = rd.radon_transform(MD["gauss2"], (0.6, 0.8))
    tracemalloc.start()
    try:
        value = hy.pair(sl.hyper, SUITE[0], ContourSpec(imag_offset=0.02))
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
    assert abs(slice_h.plus(tau) - rd.defining_function_value(f, omega, tau)) <= 1e-12
    moment = hy.pair(slice_h, hy.TestFunction(ex.Pow(ex.Var("z"), k),
                                               strip_halfwidth=math.inf))
    assert abs(moment - rd.slice_moment(f, omega, k)) <= 1e-9
