import math
import time

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


def test_shifted_delta():
    f = hy.delta_derivative(0, at=0.7)
    phi = SUITE[0]
    assert abs(hy.pair(f, phi) - math.exp(-0.49)) < 1e-12


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


# <f, exp(-x^2)> for the line-route members of the corpus
_STANDARDIZE_ORACLES = {
    "sech": lambda x: mp.sech(x),
    "gaussian": lambda x: mp.exp(-x * x / 2),
    "lorentz": lambda x: 1 / (1 + x * x),
}


@pytest.mark.parametrize("label", sorted(_STANDARDIZE_ORACLES))
def test_standardize_line_route_matches_oracle(label):
    f = cp.default_corpus()[label]
    phi = SUITE[0]
    fx = _STANDARDIZE_ORACLES[label]
    want = complex(mp.quad(lambda x: fx(x) * mp.exp(-x * x), [-mp.inf, 0, mp.inf]))
    got = hy.pair(hy.standardize(f), phi)
    assert abs(got - want) <= 1e-6 * abs(want)


def test_standardize_is_history_free():
    f = cp.default_corpus()["sech"]
    z = np.linspace(-3.0, 3.0, 7) + 0.25j
    warmed = hy.standardize(f).f_plus
    warmed(np.linspace(-8.0, 8.0, 21) + 0.1j)
    warmed(np.array([0.5 + 0.4j, -2.0 + 0.2j]))
    assert np.array_equal(warmed(z), hy.standardize(f).f_plus(z))


def test_standardize_near_real_axis_raises_quickly():
    G = hy.standardize(cp.default_corpus()["sech"]).f_plus
    start = time.perf_counter()
    with pytest.raises(ConvergenceError):
        G(np.linspace(-20.0, 20.0, 21) + 0.03j)
    assert time.perf_counter() - start < 5.0


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
