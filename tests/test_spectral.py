import math

import mpmath as mp
import numpy as np
import pytest

import hypercalc.corpus as cp
import hypercalc.expr as ex
import hypercalc.hyper as hy
import hypercalc.spectral as sp
from hypercalc.growth import GrowthClass

CORPUS = cp.default_corpus()
SUITE = cp.test_suite()


def test_fourier_of_delta_family():
    assert abs(complex(np.asarray(sp.fourier_transform(
        hy.delta_derivative(0))(3.0))) - 1.0) < 1e-10
    # delta'': hat = (i xi)^2 * ... with our convention hat(delta^(n)) = (i xi)^n
    fhat = sp.fourier_transform(hy.delta_derivative(2))
    got = complex(np.asarray(fhat(2.0)))
    assert abs(got - (1j * 2.0) ** 2) < 1e-10


def test_tenth_transform_derivative_is_the_tenth_moment():
    # hat f^(n)(0) = (-i)^n mu^n; mu^10 of exp(-x^2/2) is sqrt(2 pi) 9!!
    got = 1j ** 10 * sp.fourier_transform(CORPUS["gaussian"])(0.0, order=10)
    want = math.sqrt(2.0 * math.pi) * 945.0
    assert abs(got - want) <= 1e-10 * want
    assert abs(sp.moment(CORPUS["gaussian"], 10) - want) <= 1e-10 * want


def test_fourier_of_sech_closed_form():
    fhat = sp.fourier_transform(CORPUS["sech"])
    for xi in (0.0, 1.0, -2.5):
        want = math.pi / math.cosh(math.pi * xi / 2.0)
        assert abs(complex(np.asarray(fhat(float(xi)))) - want) < 1e-9


def test_fourier_of_two_sided_sech_matches_one_sided():
    # F_plus = sech/2, F_minus = -sech/2 defines sech too, with both amplitudes live
    half = ex.parse_expr("sech(z)/2")
    two = hy.Hyperfunction1D(half, ex.simplify(ex.Neg(half)), strip=1.4,
                             growth=GrowthClass.exp_decay(1.0, constant=2.0))
    xis = np.array([-4.0, -1.0, 0.0, 0.5, 2.0, 4.0])
    got = sp.fourier_transform(two)(xis)
    want = sp.fourier_transform(CORPUS["sech"])(xis)
    assert np.max(np.abs(got - want)) <= 1e-10


def test_fourier_of_gaussian():
    fhat = sp.fourier_transform(CORPUS["gaussian"])
    for xi in (0.5, 2.0):
        want = math.sqrt(2.0 * math.pi) * math.exp(-xi * xi / 2.0)
        assert abs(complex(np.asarray(fhat(xi))) - want) < 1e-9


@pytest.mark.parametrize("label, closed", [
    ("sech", lambda x: mp.pi * mp.sech(mp.pi * x / 2)),
    ("gaussian", lambda x: mp.sqrt(2 * mp.pi) * mp.exp(-x * x / 2)),
])
def test_fourier_derivative_orders_away_from_zero(label, closed):
    # order k is d^k/dxi^k of the transform; a scalar xi is a batch of one
    field = sp.fourier_transform(CORPUS[label])
    xis = np.array([-3.0, 0.0, 1.5, 8.0])
    with mp.workdps(30):
        for k in range(7):
            got = field(xis, order=k)
            want = np.array([complex(mp.diff(closed, mp.mpf(x), k)) for x in xis])
            assert np.max(np.abs(got - want) / (1.0 + np.abs(want))) <= 1e-9
            for x, g in zip(xis, got):
                assert abs(field(float(x), order=k) - g) <= 1e-10


def test_fourier_rejects_tempered_input():
    with pytest.raises(hy.AdmissibilityError):
        sp.fourier_transform(CORPUS["lorentz"])


def test_moments_of_sech():
    assert abs(sp.moment(CORPUS["sech"], 0) - math.pi) < 1e-10
    assert abs(sp.moment(CORPUS["sech"], 1)) < 1e-10
    assert abs(sp.moment(CORPUS["sech"], 2) - math.pi ** 3 / 4.0) < 1e-9


def test_moments_of_delta():
    assert abs(sp.moment(hy.delta_derivative(2), 2) - 2.0) < 1e-12
    assert abs(sp.moment(hy.delta_derivative(0, at=0.5), 3) - 0.125) < 1e-12


def test_round_trip_sech():
    f = CORPUS["sech"]
    back = sp.inverse_fourier(sp.fourier_transform(f))
    phi = SUITE[0]
    assert abs(hy.pair(f, phi) - hy.pair(back, phi)) < 1e-6


def test_inverse_branch_value_does_not_depend_on_batch():
    back = sp.inverse_fourier(sp.fourier_transform(CORPUS["sech"]))
    for branch, z in ((back.f_plus, np.array([0.5 + 0.25j, 6.0 + 0.1j])),
                      (back.f_minus, np.array([0.5 - 0.25j, 6.0 - 0.1j]))):
        assert branch(z[0]) == branch(z)[0]


def test_inverse_fourier_of_one_is_delta():
    fld = sp.SmoothField(lambda xi, order=0: np.ones_like(np.asarray(xi,
                                                                     dtype=complex)),
                         growth=GrowthClass.infra_exponential(), cheap=True)
    f = sp.inverse_fourier(fld)
    phi = SUITE[0]
    assert abs(hy.pair(f, phi) - phi.derivative_at(0.0, 0)) < 1e-8


def test_asymptotic_sum_coefficients():
    s = sp.asymptotic_sum(CORPUS["sech"], 2)
    assert abs(s.coefficients[0] - math.pi) < 1e-9
    assert abs(s.coefficients[1]) < 1e-9
    assert abs(s.coefficients[2] - math.pi ** 3 / 8.0) < 1e-8


def test_remainder_moments_vanish():
    s = sp.asymptotic_sum(CORPUS["gaussian"], 3)
    rem = sp.remainder_moments(CORPUS["gaussian"], s)
    assert max(abs(r) for r in rem) < 1e-8


def test_parametric_order_slopes():
    fit = sp.parametric_order_check(CORPUS["sech"], SUITE[0], 2)
    assert not fit.vacuous
    assert fit.slope <= -4.5  # parity-boosted case, expected near -(N+3)
    fit2 = sp.parametric_order_check(CORPUS["sech"], SUITE[1], 1)
    assert not fit2.vacuous
    assert fit2.slope <= -2.75


def test_parametric_order_vacuous_for_delta():
    fit = sp.parametric_order_check(hy.delta_derivative(0), SUITE[0], 2)
    assert fit.vacuous


def test_realize_moments():
    mu = [1.0 + 0j, 0.5j, -0.25 + 0j, 0.125 + 0j, 1.0 + 0j]
    real = sp.realize_moments(mu)
    for n, target in enumerate(mu):
        assert abs(sp.moment(real.hyperfunction, n) - target) < 1e-8


def test_build_multiplier_polynomial_case():
    J, info = sp.build_multiplier(lambda k: float(k), K_terms=2)
    # J(zeta) = (1 + zeta^2)(1 + zeta^2/16): finite polynomial coefficients
    got = complex(np.asarray(J.symbol(2.0)))
    want = (1 + 4.0) * (1 + 4.0 / 16.0)
    assert abs(got - want) < 1e-12
    assert info.min_ratio > 0
    # no sign change on the real axis, where the product is manifestly >= 1
    assert all(Jv.real >= 1.0 - 1e-12 for z, Jv in info.samples
               if abs(z.imag) < 1e-12)
    # the exact polynomial 1 - (17/16) D^2 + (1/16) D^4 still applies:
    # <J(D) delta, gauss> = 1 + (17/16) 2 + (1/16) 12
    assert J.finite_order == 4
    got = hy.pair(hy.apply_local_operator(J, hy.delta_derivative(0)), SUITE[0])
    assert abs(got - 3.875) < 1e-10


def test_build_multiplier_reports_its_cap():
    # phi = log: the factor count stops past 200000 with (zeta_max/m_K)^2
    # still 1.5e-11, far above the 1e-16 target
    _, info = sp.build_multiplier(lambda k: math.log(k + 1.0), zeta_max=10.0)
    assert info.K_terms == 208621
    assert not info.converged
    assert abs(info.tail_ratio - 1.53e-11) <= 0.01e-11
    _, info = sp.build_multiplier(float, zeta_max=10.0)
    assert info.converged and info.tail_ratio <= 1e-16


def test_symbol_only_operator_is_not_applied_as_the_identity():
    # 208 621 factors: J is known only through its symbol, J(1) = 2.428
    J, _ = sp.build_multiplier(math.sqrt)
    assert J.finite_order is None
    assert abs(J.symbol(1.0) - 2.42818979) < 1e-8
    with pytest.raises(hy.AdmissibilityError):
        hy.apply_local_operator(J, hy.delta_derivative(0))
    with pytest.raises(hy.AdmissibilityError):
        J.adjoint().apply_to_expr(SUITE[0].expr)  # reconstruct_pairing's step
    # the adjoint keeps the symbol, J*(zeta) = J(-zeta)
    assert J.adjoint().symbol(1.0) == J.symbol(1.0)
    odd = hy.LocalOperator((), symbol_fn=lambda zeta: 1.0 + 1j * zeta)
    assert odd.adjoint().symbol(2.0) == 1.0 - 2j


def test_structural_representation_of_delta():
    rep = sp.structural_representation(hy.delta_derivative(0))
    phi = SUITE[0]
    direct = hy.pair(hy.delta_derivative(0), phi)
    recon = rep.reconstruct_pairing(phi)
    assert abs(direct - recon) < 1e-6
    # f0 of (1 - D^2)^-1 delta is exp(-|x|)/2
    x = np.asarray(rep.x_grid)
    want = 0.5 * np.exp(-np.abs(x))
    assert np.max(np.abs(np.asarray(rep.f0_values) - want)) < 1e-5


def test_structural_representation_of_gaussian():
    f = CORPUS["gaussian"]
    rep = sp.structural_representation(f)
    phi = SUITE[0]
    direct = hy.pair(f, phi)
    recon = rep.reconstruct_pairing(phi)
    assert abs(direct - recon) < 1e-5 * (1 + abs(direct))


def test_tail_kernel_against_mpmath_sine_and_cosine_integrals():
    # I(x) = int_xi_max^inf e^(i x xi) / xi^2 d xi = |x| int_a^inf e^(+-it) / t^2 dt,
    # a = |x| xi_max, with int_a^inf e^(it) / t^2 dt
    #   = cos(a)/a - (pi/2 - Si(a)) + i (sin(a)/a - Ci(a))
    with mp.workdps(40):
        for xi_max in (16.0, 128.0):
            for mag in np.concatenate([np.geomspace(1e-9, 1e2, 45), [2.0 / xi_max]]):
                a = mp.mpf(float(mag)) * xi_max
                re = mp.cos(a) / a - (mp.pi / 2 - mp.si(a))
                im = mp.sin(a) / a - mp.ci(a)
                for x in (float(mag), -float(mag)):
                    want = complex(abs(x) * mp.mpc(re, im if x > 0 else -im))
                    got = complex(sp._tail_kernel(np.array([x]), xi_max)[0])
                    assert abs(got - want) <= 1e-14 * abs(want), (x, xi_max)
        assert sp._tail_kernel(np.array([0.0]), 16.0)[0] == 1.0 / 16.0


def _cubic(x):
    return (1 + 2j) - 0.5 * x + (0.3 - 0.1j) * x ** 2 + 0.02 * x ** 3


def test_tabulated_field_reproduces_a_cubic():
    field = sp.SmoothField(lambda xi, order: _cubic(np.asarray(xi)), label="cubic")
    tab = field.tabulate(-3.0, 5.0)
    x = np.random.default_rng(3).uniform(-3.0, 5.0, 20000)  # several evaluation blocks
    scale = np.max(np.abs(_cubic(x)))
    assert np.max(np.abs(tab(x) - _cubic(x))) <= 1e-13 * scale
    # constant beyond the knots, and order 0 only
    assert tab(7.5) == tab(5.0) and tab(-4.0) == tab(-3.0)
    with pytest.raises(NotImplementedError):
        tab(0.0, 1)


def test_spline_interpolates_is_c2_and_not_a_knot():
    y = np.array([1.0, 1j]) @ np.random.default_rng(5).uniform(-1, 1, (2, 40))
    c3, c2, c1, c0 = sp._spline_coefficients(0.0, 39.0, y)  # unit spacing
    # value, first, second derivative at the right end of each interval
    end = (c3 + c2 + c1 + c0, 3 * c3 + 2 * c2 + c1, 6 * c3 + 2 * c2)
    scale = np.max(np.abs([c3, c2, c1, c0]))
    assert np.array_equal(c0, y[:-1])
    assert np.max(np.abs(end[0] - y[1:])) <= 1e-13 * scale
    assert np.max(np.abs(end[1][:-1] - c1[1:])) <= 1e-13 * scale
    assert np.max(np.abs(end[2][:-1] - 2 * c2[1:])) <= 1e-13 * scale
    # not-a-knot: the third derivative is continuous at the second and the
    # second-to-last knots
    assert abs(c3[0] - c3[1]) <= 1e-13 * scale
    assert abs(c3[-2] - c3[-1]) <= 1e-13 * scale
    assert abs(c3[1] - c3[2]) > 1e-3  # and generally not at the others
