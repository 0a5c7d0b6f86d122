import math
import time
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest

import hypercalc.corpus as cp
import hypercalc.expr as ex
import hypercalc.hyper as hy
from hypercalc.growth import GrowthClass
from hypercalc.quad import ContourSpec, ConvergenceError

SUITE = cp.test_suite()


def test_delta_pairing_identity():
    for n in range(4):
        f = hy.delta_derivative(n)
        for phi in SUITE:
            got = hy.pair(f, phi)
            want = (-1.0) ** n * phi.derivative_at(0.0, n)
            assert abs(got - want) < 1e-10


def test_delta_combination_pairs_as_its_derivative_sum():
    coefficients = {0: 2.0, 1: -1.0, 3: 0.5}
    f = hy.delta_combination(coefficients, at=0.3)
    assert f.point_support == 0.3
    for phi in SUITE:
        want = sum(c * (-1.0) ** n * phi.derivative_at(0.3, n)
                   for n, c in coefficients.items())
        assert abs(hy.pair(f, phi) - want) < 1e-10, phi.label


def test_shifted_delta():
    f = hy.delta_derivative(0, at=0.7)
    phi = SUITE[0]
    assert abs(hy.pair(f, phi) - math.exp(-0.49)) < 1e-12


def test_laurent_polynomial_terms():
    e = hy.laurent_polynomial({0: 2.0, 1: 3.0, 2: -1.0j, 4: 0.0}, at=0.5)
    z = np.array([1.5 + 0.25j, -0.3 + 2.0j])
    want = 2.0 + 3.0 / (z - 0.5) - 1.0j / (z - 0.5) ** 2
    assert np.max(np.abs(ex.evaluate(e, {"z": z}) - want)) <= 1e-14


def test_embed_pairs_like_quadrature():
    f = cp.default_corpus()["sech"]
    phi = SUITE[0]
    got = hy.pair(f, phi)
    from hypercalc.quad import adaptive_interval
    want, _, _ = adaptive_interval(
        lambda x: 1.0 / np.cosh(x) * np.exp(-x * x), -30.0, 30.0,
        abs_tol=1e-13)
    assert abs(got - want) < 1e-10


def test_lorentz_tempered_pairing():
    f = cp.default_corpus()["lorentz"]
    phi = SUITE[0]
    got = hy.pair(f, phi)
    from hypercalc.quad import adaptive_interval
    want, _, _ = adaptive_interval(
        lambda x: np.exp(-x * x) / (1.0 + x * x), -40.0, 40.0, abs_tol=1e-13)
    assert abs(got - want) < 1e-7


def test_scale_pair_exact_for_delta():
    f = hy.delta_derivative(1)
    phi = SUITE[0]
    lam = 3.0
    # <delta'(lam x), phi> = (1/lam^2) * (-phi'(0))
    got = hy.scale_pair(f, phi, lam)
    want = -phi.derivative_at(0.0, 1) / lam ** 2
    assert abs(got - want) < 1e-12


def test_contour_offset_independence():
    f = cp.default_corpus()["gaussian"]
    phi = SUITE[1]
    v1 = hy.pair(f, phi, spec=ContourSpec(imag_offset=0.2, abs_tol=1e-11))
    v2 = hy.pair(f, phi, spec=ContourSpec(imag_offset=0.4, abs_tol=1e-11))
    assert abs(v1 - v2) < 1e-9


def test_circle_vs_line_route_for_delta():
    f = hy.delta_derivative(2)
    phi = SUITE[0]
    v1 = hy.pair(f, phi)
    v2 = hy.pair(f, phi, force_lines=True)
    assert abs(v1 - v2) < 1e-8


def test_standardize_preserves_pairings():
    f = hy.delta_derivative(1)
    g = hy.standardize(f)
    phi = SUITE[0]
    assert abs(hy.pair(f, phi) - hy.pair(g, phi)) < 1e-8


@pytest.mark.parametrize("label", ["delta", "delta1", "delta2", "delta3", "delta_shift"])
def test_standardize_circle_route_matches_direct_pairing(label):
    f = cp.default_corpus()[label]
    phi = SUITE[0]
    want = hy.pair(f, phi)
    assert abs(hy.pair(hy.standardize(f), phi) - want) <= 1e-12 * max(1.0, abs(want))


# <f, exp(-x^2)> for the line-route members of the corpus
_STANDARDIZE_ORACLES = {
    "sech": lambda x: mp.sech(x),
    "gaussian": lambda x: mp.exp(-x * x / 2),
    "lorentz": lambda x: 1 / (1 + x * x),
}


def _standardize_oracle(label):
    fx = _STANDARDIZE_ORACLES[label]
    return complex(mp.quad(lambda x: fx(x) * mp.exp(-x * x), [-mp.inf, 0, mp.inf]))


@pytest.mark.parametrize("label", sorted(_STANDARDIZE_ORACLES))
def test_standardize_line_route_matches_oracle(label):
    f = cp.default_corpus()[label]
    want = _standardize_oracle(label)
    got = hy.pair(hy.standardize(f), SUITE[0])
    assert abs(got - want) <= 1e-10 * abs(want)


def test_standardize_converges_near_real_axis():
    # the contour at Im z = +-0.03 needs 512 panels on the translated window
    f = cp.default_corpus()["sech"]
    spec = ContourSpec(imag_offset=0.03, abs_tol=1e-10)
    got = hy.pair(hy.standardize(f), SUITE[0], spec)
    want = _standardize_oracle("sech")
    assert abs(got - want) <= 1e-10 * abs(want)


def test_standardize_is_history_free():
    f = cp.default_corpus()["sech"]
    z = np.linspace(-3.0, 3.0, 7) + 0.25j
    warmed = hy.standardize(f).f_plus
    warmed(np.linspace(-8.0, 8.0, 21) + 0.1j)
    warmed(np.array([0.5 + 0.4j, -2.0 + 0.2j]))
    assert np.array_equal(warmed(z), hy.standardize(f).f_plus(z))


@pytest.mark.parametrize("label", ["sech", "delta2"])
def test_standardize_value_does_not_depend_on_batch(label):
    G = hy.standardize(cp.default_corpus()[label]).f_plus
    alone = G(0.5 + 0.25j)
    batch = G(np.array([0.5 + 0.25j, 6.0 + 0.1j, -3.0 + 0.25j]))
    assert alone == batch[0]
    assert np.array_equal(G(np.array([6.0 + 0.1j])), batch[1:2])
    # 300 points at one height span several row blocks of the kernel sums
    row = np.linspace(-6.0, 6.0, 300) + 0.25j
    assert np.array_equal(G(row), G(row[::-1])[::-1])


def test_standardized_pairing_calls_G_once_per_round():
    f = cp.default_corpus()["sech"]
    std, calls = hy.standardize(f), []

    def G(z):
        calls.append(z.size)
        return std.f_plus(z)

    got = hy.pair(replace(std, f_plus=G, f_minus=G), SUITE[0])
    assert abs(got - hy.pair(f, SUITE[0])) < 1e-9
    assert len(calls) <= 4


def test_standardize_rejects_the_real_axis():
    G = hy.standardize(cp.default_corpus()["sech"]).f_plus
    with pytest.raises(ValueError):
        G(np.array([0.5 + 0.25j, 1.0 + 0.0j]))


def test_standardize_near_real_axis_raises_quickly():
    G = hy.standardize(cp.default_corpus()["sech"]).f_plus
    start = time.perf_counter()
    with pytest.raises(ConvergenceError, match="Im z = 0.01 .*1024 panels"):
        G(np.linspace(-20.0, 20.0, 21) + 0.01j)
    assert time.perf_counter() - start < 5.0


@pytest.mark.parametrize("n", [8, 12, 20, 30])
def test_high_order_derivatives_match_mpmath(n):
    # the tower's tree has 629,804 nodes at order 8, its graph 302 distinct ones
    phi = {p.label: p for p in SUITE}["sech_gauss"]
    start = time.perf_counter()
    got = phi.derivative_at(0.3, n)
    elapsed = time.perf_counter() - start
    with mp.workdps(40):
        want = complex(mp.diff(lambda x: mp.sech(x) * mp.exp(-x * x / 8),
                               mp.mpf("0.3"), n))
    assert abs(got - want) <= 1e-10 * abs(want)
    if n == 8:
        assert elapsed < 1.0


def test_cauchy_hilbert_kernel_formula():
    z, w = 0.3 + 0.4j, np.array([-1.0 + 0.1j, 0.2 - 0.3j])
    d = z - w
    want = (-1.0 / (2j * math.pi)) * np.exp(-(d * d)) / d
    assert np.allclose(hy.cauchy_hilbert_kernel(z)(w), want, rtol=1e-15, atol=0.0)


def test_pair_circle_raises_at_node_cap():
    with pytest.raises(ConvergenceError):
        hy._pair_circle(hy.delta_derivative(2), SUITE[0], 0.45, 1e-10, max_nodes=64)


def test_local_operator_finite_application():
    J = hy.LocalOperator(coefficients=(1.0, 0.0, -1.0), label="1-D^2")
    f = hy.apply_local_operator(J, hy.delta_derivative(0))
    phi = SUITE[0]
    got = hy.pair(f, phi)
    want = phi.derivative_at(0.0, 0) - phi.derivative_at(0.0, 2)
    assert abs(got - want) < 1e-10


def test_local_operator_root_test():
    good = hy.LocalOperator(
        coefficients=(1.0,),
        tail=lambda n: 1.0 / (math.factorial(n + 1) * math.factorial(n)),
        label="good")
    good.check_admissible()
    bad = hy.LocalOperator(coefficients=(1.0,), tail=lambda n: 1.0,
                           label="bad")
    with pytest.raises(hy.AdmissibilityError):
        bad.check_admissible()


def _bessel_operator():
    # b_n = 1/((n+1)! n!): J(zeta) = I_1(2 sqrt(i zeta)) / sqrt(i zeta)
    return hy.LocalOperator(
        coefficients=(1.0,),
        tail=lambda n: 1.0 / (math.factorial(n + 1) * math.factorial(n)),
        label="J")


def test_local_operator_symbol_sums_tail():
    zeta = np.array([1.0, -10.0, 100.0, 553.0, -553.0])
    got = _bessel_operator().symbol(zeta)
    want = np.array([complex(mp.besseli(1, 2 * mp.sqrt(1j * z)) / mp.sqrt(1j * z))
                     for z in zeta])
    assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-9
    assert _bessel_operator().symbol(0.0) == 1.0


def test_local_operator_symbol_raises_at_term_cap():
    slow = hy.LocalOperator(coefficients=(1.0,), tail=lambda n: 1.0, label="slow")
    for zeta in (2.0, 1e3):  # partial sums stay finite, then overflow
        with pytest.raises(ConvergenceError):
            slow.symbol(zeta)


def test_infinite_order_operator_on_delta():
    # <J(D) delta, e^(-x^2)> = sum_m (-1)^m / ((2m+1)! m!)
    f = hy.apply_local_operator(_bessel_operator(), hy.delta_derivative(0))
    assert abs(hy.pair(f, SUITE[0]) - 0.837467045831) < 1e-5


def test_infinite_order_operator_on_sech_finishes():
    t0 = time.perf_counter()
    f = hy.apply_local_operator(_bessel_operator(), cp.default_corpus()["sech"])
    value = hy.pair(f, SUITE[0])
    assert time.perf_counter() - t0 < 5.0
    assert np.isfinite(value)


def test_operator_support_preservation_proxy():
    # pairing of J(D)delta depends only on derivatives of phi at 0
    J = hy.LocalOperator(coefficients=(1.0, 2.0, 3.0))
    f = hy.apply_local_operator(J, hy.delta_derivative(0))
    phi_a = hy.TestFunction(ex.parse_expr("exp(-(z*z))"), math.inf,
                            GrowthClass.exp_decay(1.0, constant=3.0))
    # same 4-jet at 0, different tails
    phi_b = hy.TestFunction(ex.parse_expr("exp(-(z*z))*(1+z^6)"), math.inf,
                            GrowthClass.exp_decay(1.0, constant=40.0))
    assert abs(hy.pair(f, phi_a) - hy.pair(f, phi_b)) < 1e-8


def test_embed_growth_gate():
    from hypercalc.growth import GrowthError
    with pytest.raises(GrowthError):
        hy.embed_real_analytic(ex.parse_expr("z*z"), strip=1.0,
                               growth=GrowthClass.tempered(-1.0))


def test_tempered_pair_with_tempered_test_rejected():
    f = cp.default_corpus()["lorentz"]
    phi = hy.TestFunction(ex.parse_expr("1+z*z"), math.inf,
                          GrowthClass.tempered(2.0))
    with pytest.raises(hy.AdmissibilityError):
        hy.pair(f, phi)
