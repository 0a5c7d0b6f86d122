import math
import time

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, strategies as st

import hypercalc.cli as cli
import hypercalc.corpus as cp
import hypercalc.expr as ex
import hypercalc.hyper as hy
import hypercalc.radon as rd
import hypercalc.spectral as sp
from hypercalc.growth import GrowthClass
from hypercalc.quad import ConvergenceError

CORPUS = cp.default_corpus()
SUITE = cp.test_suite()


def test_fourier_of_delta_family():
    assert abs(complex(np.asarray(sp.fourier_transform(
        hy.delta_derivative(0))(3.0))) - 1.0) < 1e-10
    # delta'': hat = (i xi)^2 * ... with our convention hat(delta^(n)) = (i xi)^n
    fhat = sp.fourier_transform(hy.delta_derivative(2))
    got = complex(np.asarray(fhat(2.0)))
    assert abs(got - (1j * 2.0) ** 2) < 1e-10


@pytest.mark.parametrize("a", [0.0, 0.25])
def test_delta_derivative_transforms_are_exact_to_order_20(a):
    # the closed-form route reads the Laurent coefficients; rounding noise in
    # the coefficients below the pole's order would swamp (i xi)^n at small xi
    for n in range(21):
        fhat = sp.fourier_transform(hy.delta_derivative(n, a))
        for xi in (0.5, 1.0, 4.0):
            want = (1j * xi) ** n * np.exp(-1j * a * xi)
            assert abs(complex(fhat(xi)) - want) <= 1e-12 * abs(want), (n, xi)


@given(st.integers(0, 20), st.complex_numbers(min_magnitude=0.1, max_magnitude=10.0),
       st.floats(-0.5, 0.5), st.floats(0.5, 8.0))
def test_delta_combination_transform_property(n, c, a, xi):
    # one order per draw: in a combination, a low order's coefficient can sit
    # below the rounding floor that the highest order sets on the circle
    got = complex(sp.fourier_transform(hy.delta_combination([(a, n, c)]))(xi))
    want = c * (1j * xi) ** n * np.exp(-1j * a * xi)
    assert abs(got - want) <= 1e-12 * abs(c) * xi ** n


def test_laurent_coefficients_raise_with_a_pole_on_their_circle():
    # a second pole on |z| = 0.4 between the trapezoid nodes: the passes never agree
    p = complex(0.4 * np.exp(1j * math.pi / 3))
    F = ex.parse_expr(f"1/z + 1/(z - {p.real!r} - {p.imag!r}*i)")
    f = hy.Hyperfunction1D(f_plus=F, f_minus=F, strip=math.inf,
                           growth=GrowthClass.tempered(-1.0), point_support=0.0)
    with pytest.raises(ConvergenceError, match="Laurent coefficients at 0"):
        sp._laurent_coefficients(f)
    # the same pole at radius 0.41 leaves 1/z alone, with no aliasing residue
    F = ex.parse_expr("1/z + 1/(z - 0.41)")
    f = hy.Hyperfunction1D(f_plus=F, f_minus=F, strip=math.inf,
                           growth=GrowthClass.tempered(-1.0), point_support=0.0)
    x0, a = sp._laurent_coefficients(f)
    assert x0 == 0.0 and len(a) == 1 and abs(a[0] - 1.0) <= 1e-14


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


@pytest.mark.parametrize("n", [0, 2])
def test_moment_of_a_round_trip_is_rejected(n):
    # the inverse transform is declared asymptotic, a class with no rate that
    # certifies the tail against z^n
    back = sp.inverse_fourier(sp.fourier_transform(CORPUS["sech"]))
    with pytest.raises(hy.AdmissibilityError, match="declares no decay rate"):
        sp.moment(back, n)


def test_inverse_branch_value_does_not_depend_on_batch():
    back = sp.inverse_fourier(sp.fourier_transform(CORPUS["sech"]))
    for branch, z in ((back.f_plus, np.array([0.5 + 0.25j, 6.0 + 0.1j])),
                      (back.f_minus, np.array([0.5 - 0.25j, 6.0 - 0.1j]))):
        assert branch(z[0]) == branch(z)[0]


@pytest.mark.parametrize("label", ["delta2", "delta3", "ode_f1"])
def test_delta_like_round_trip_branch_meets_abs_tol(label):
    # |hat f(xi)| grows like |xi|^n: the cutoff comes from its power envelope
    f = CORPUS[label]
    back = sp.inverse_fourier(sp.fourier_transform(f))
    x = np.array([-3.0, -1.0, -0.3, 0.0, 0.4, 1.5, 4.0])
    for y in (0.5, 0.25):
        err = np.max(np.abs(back.f_plus(x + 1j * y) - f.f_plus(x + 1j * y)))
        assert err <= 1e-10, (y, err)


def test_inverse_fourier_of_one_is_delta():
    fld = sp.SmoothField(lambda xi, order=0: np.ones_like(np.asarray(xi,
                                                                     dtype=complex)),
                         growth=GrowthClass.infra_exponential(),)
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
    # phi(k) = k: J(zeta) = prod_(k <= K) (1 + zeta^2 / k^4), a polynomial in zeta^2
    info = sp.build_multiplier(float)
    factors = 1.0 / np.arange(1.0, info.K_terms + 1) ** 4
    for z, Jv in info.samples:
        want = complex(np.prod(1.0 + z * z * factors))
        assert abs(Jv - want) <= 1e-12 * abs(want), z
    assert info.min_ratio > 0
    # no sign change on the real axis, where the product is manifestly >= 1
    assert all(Jv.real >= 1.0 - 1e-12 for z, Jv in info.samples
               if abs(z.imag) < 1e-12)


def test_build_multiplier_reports_its_cap():
    # phi = log: the factor count stops past 200000 with (zeta_max/m_K)^2
    # still 1.5e-11, far above the 1e-16 target
    info = sp.build_multiplier(lambda k: math.log(k + 1.0), zeta_max=10.0)
    assert info.K_terms == 208621
    assert not info.converged
    assert abs(info.tail_ratio - 1.53e-11) <= 0.01e-11
    info = sp.build_multiplier(float, zeta_max=10.0)
    assert info.converged and info.tail_ratio <= 1e-16


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


@pytest.mark.parametrize("label", ["sech", "gaussian"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_fourier_table_rejects_a_non_finite_xi(label, bad):
    # a NaN fell in neither side's mask and read uninitialized memory
    table = sp.fourier_transform(CORPUS[label]).table
    with pytest.raises(ValueError, match="non-finite xi"):
        table(np.array([bad, 1.0]))


def test_structural_representation_of_shifted_delta():
    # the tail model takes e^(i xi / 2) times the quotient e^(-i xi / 2) /
    # (1 + xi^2); f0 of (1 - D^2)^-1 delta(x - 1/2) is exp(-|x - 1/2|)/2
    f = CORPUS["delta_shift"]
    rep = sp.structural_representation(f)
    x = np.asarray(rep.x_grid)
    assert np.max(np.abs(np.asarray(rep.f0_values) - 0.5 * np.exp(-np.abs(x - 0.5)))) < 1e-8
    assert abs(rep.reconstruct_pairing(SUITE[0]) - hy.pair(f, SUITE[0])) < 1e-8


@pytest.mark.parametrize("label", ["delta1", "delta2", "ode_f1"])
def test_structural_cutoff_past_its_cap_raises(label):
    # the c/xi^2 tail model never settles: delta^(n)'s quotient (i xi)^n /
    # (1 + xi^2) decays slower than 1/xi^2 for n >= 1, and ode_f1's transform
    # grows
    start = time.perf_counter()
    with pytest.raises(ConvergenceError, match="below xi_max = 1e5"):
        sp.structural_representation(CORPUS[label])
    assert time.perf_counter() - start < 5.0


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
    # never extrapolated past the knots, and order 0 only
    for outside in (7.5, -4.0, np.array([0.0, 5.0 + 1e-9])):
        with pytest.raises(ValueError, match="known on"):
            tab(outside)
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


@pytest.mark.parametrize("sampled", [True, False])
def test_inverse_fourier_samples_a_field_once_exactly_when_it_has_a_table(sampled):
    seen = []

    def gauss(xi):
        seen.append(np.array(xi, dtype=float))
        return np.exp(-np.asarray(xi) ** 2)

    g = sp.SmoothField(sp.order0(gauss), table=gauss if sampled else None,
                       growth=GrowthClass.exp_decay(1.0, constant=1.0))
    f = sp.inverse_fourier(g)
    assert len(seen) == (1 if sampled else 0)
    # the inverse transform of e^(-xi^2) is e^(-x^2/4) / (2 sqrt pi)
    assert abs(hy.pair(f, SUITE[0]) - 1.0 / math.sqrt(5.0)) <= 1e-9
    if sampled:  # the knots, once, and never again
        assert len(seen) == 1 and len(seen[0]) == sp._TABLE_KNOTS
        assert seen[0][0] == -seen[0][-1] < 0
    else:  # only the branches' half-lines, never a grid across 0
        assert seen and all(np.all(x >= 0) or np.all(x <= 0) for x in seen)


class _Captured(Exception):
    pass


def _field_handed_to_inverse_fourier(monkeypatch, build):
    fields = []

    def capture(g, *args, **kwargs):
        fields.append(g)
        raise _Captured

    monkeypatch.setattr(sp, "inverse_fourier", capture)
    with pytest.raises(_Captured):
        build()
    return fields[0]


@pytest.mark.parametrize("name", ["tabulated", "smooth ray", "cli field"])
def test_order0_fields_raise_at_order_1(monkeypatch, name):
    if name == "tabulated":
        field = sp.SmoothField(lambda xi, order: _cubic(np.asarray(xi))).tabulate(-1.0, 1.0)
    elif name == "smooth ray":
        field = rd.multidim_fourier_ray(cp.multidim_corpus()["gauss2"], (0.6, 0.8))
    else:
        field = _field_handed_to_inverse_fourier(monkeypatch, lambda: cli.cmd_invfourier(
            cli.resolve_options("invfourier", {}), cli.Report("invfourier")))
    # quadrature fields are sampled; closed forms and tables of them are not
    assert (field.table is not None) == (name == "smooth ray")
    assert np.isfinite(complex(np.asarray(field(0.5))))
    with pytest.raises(NotImplementedError, match="only order 0"):
        field(0.5, 1)


def test_delta_sum_field_matches_mpmath_derivatives():
    terms = [(0.0, 0, 1.5), (0.0, 2, -0.5 + 1j), (0.7, 1, 2j), (0.7, 3, 0.25),
             (0.0, 3, 0.1), (0.7, 0, -1.0)]
    field = sp.delta_sum_field(terms, "sum")
    assert field.table is None
    assert field.powers == (2.5, 2.0, abs(-0.5 + 1j), 0.35)

    def closed(xi):
        return sum(c * (1j * xi) ** m * mp.exp(-1j * a * xi) for a, m, c in terms)

    xis = np.array([-3.0, -0.4, 0.0, 1.1, 5.0])
    for q in range(5):
        got = field(xis, order=q)
        with mp.workdps(30):
            want = np.array([complex(mp.diff(closed, mp.mpf(x), q)) for x in xis])
        assert np.max(np.abs(got - want) / (1.0 + np.abs(want))) <= 1e-13, q


def test_round_trip_branch_below_its_table_height_raises():
    back = sp.inverse_fourier(sp.fourier_transform(CORPUS["sech"]))
    assert np.isfinite(back.f_plus(0.3 + 0.05j)) and np.isfinite(back.f_minus(0.3 - 0.05j))
    for branch, z in ((back.f_plus, 0.3 + 0.049j), (back.f_minus, 0.3 - 0.049j)):
        with pytest.raises(ConvergenceError, match=r"Im z = -?0.049 needs \|xi\| up to "
                                                   r"69.83\d*, past the cutoff 69.67"):
            branch(z)


def test_moment_of_the_zero_hyperfunction_is_zero():
    zero = sp.realize_moments([0, 0, 0]).hyperfunction
    assert [sp.moment(zero, n) for n in range(3)] == [0, 0, 0]
