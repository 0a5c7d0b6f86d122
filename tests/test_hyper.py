import math
import time
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hypercalc.corpus as cp
import hypercalc.expr as ex
import hypercalc.hyper as hy
import hypercalc.spectral as sp
from hypercalc.growth import GrowthClass
from hypercalc.quad import ContourSpec, ConvergenceError, tail_bound

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
    f = hy.delta_combination([(0.3, n, c) for n, c in coefficients.items()])
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


@pytest.mark.parametrize("lam", [16.0, 64.0])
def test_scale_pair_scales_a_tempered_constant(lam):
    # |phi(x/lam)| <= 2 lam^2 (1+|x|)^-2, not 2 (1+|x|)^-2; the integral of
    # 1/((1+lam^2 x^2)(1+x^2)) is pi/(1+lam)
    phi = hy.TestFunction(ex.parse_expr("1/(1+z*z)"), strip_halfwidth=0.9,
                          growth=GrowthClass.tempered(-2.0, constant=2.0), label="lorentz")
    got = hy.scale_pair(cp.default_corpus()["lorentz"], phi, lam)
    assert abs(got - math.pi / (1.0 + lam)) <= 1e-10 / lam


def test_contour_offset_independence():
    f = cp.default_corpus()["gaussian"]
    phi = SUITE[1]
    v1 = hy.pair(f, phi, spec=ContourSpec(imag_offset=0.2, abs_tol=1e-11))
    v2 = hy.pair(f, phi, spec=ContourSpec(imag_offset=0.4, abs_tol=1e-11))
    assert abs(v1 - v2) < 1e-9


def test_pair_lines_shift_invariance():
    # the bracket of [exp(-z^2), 0] against 1 on two heights, radius fixed at 12
    f = hy.Hyperfunction1D(ex.parse_expr("exp(-(z*z))"), ex.Const(0j), strip=math.inf,
                           growth=GrowthClass.exp_decay(1.0, constant=3.0))
    one = hy.TestFunction(ex.Const(1 + 0j), strip_halfwidth=math.inf,
                          growth=GrowthClass.tempered(0.0))
    v1, _ = hy._pair_lines(f, one, ContourSpec(0.25, truncation_radius=12.0, abs_tol=1e-12))
    v2, _ = hy._pair_lines(f, one, ContourSpec(0.5, truncation_radius=12.0, abs_tol=1e-12))
    assert abs(v1 - v2) < 1e-10


# real-axis values of the corpus's line-route inputs and of the test suite
_REAL_AXIS = {
    "sech": mp.sech,
    "gaussian": lambda x: mp.exp(-x * x / 2),
    "lorentz": lambda x: 1 / (1 + x * x),
    "gauss": lambda x: mp.exp(-x * x),
    "affine_gauss": lambda x: (1 + x) * mp.exp(-x * x / 2),
    "bump": lambda x: mp.exp(-x * x / 4) * (1 + x * x / 4),
    "sech_gauss": lambda x: mp.sech(x) * mp.exp(-x * x / 8),
}


@pytest.mark.parametrize("label", ["sech", "gaussian", "lorentz"])
def test_line_route_bound_covers_the_real_axis_reference(label):
    f = cp.default_corpus()[label]
    with mp.workdps(30):
        for phi in SUITE:
            value, bound = hy.pair_with_error(f, phi)
            fx, px = _REAL_AXIS[label], _REAL_AXIS[phi.label]
            want = complex(mp.quad(lambda x: fx(x) * px(x), [-mp.inf, 0, mp.inf]))
            assert abs(value - want) <= bound, (phi.label, abs(value - want), bound)


def test_circle_vs_line_route_for_delta():
    f = hy.delta_derivative(2)
    phi = SUITE[0]
    v1 = hy.pair(f, phi)
    v2 = hy.pair(f, phi, force_lines=True)
    assert abs(v1 - v2) < 1e-8


def test_delta_like_circles_stay_inside_a_finite_strip():
    # delta plus a term holomorphic on |Im z| < 0.15 but not on a wider
    # circle: a contour around 0 that leaves the strip picks up its pole
    F = ex.Add(hy.delta_derivative(0).f_plus, ex.parse_expr("1/(z - 0.2*i)"))
    f = hy.Hyperfunction1D(f_plus=F, f_minus=F, strip=0.15,
                           growth=GrowthClass.tempered(-1.0), point_support=0.0)
    for phi in SUITE:
        assert abs(hy.pair_with_error(f, phi)[0] - 1.0) <= 1e-12, phi.label
    fhat = sp.fourier_transform(f)
    for xi in (0.0, 1.0, 3.0):
        assert abs(fhat(xi, 0) - 1.0) <= 1e-12, xi


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
    # at Im z = +-0.03 the sinh-mapped trapezoid rule stops at 128 nodes
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


@pytest.mark.parametrize("eta", [0.01, 1e-4, 1e-8])
def test_standardize_matches_mpmath_near_real_axis(eta):
    f = cp.default_corpus()["sech"]
    start = time.perf_counter()
    got = hy.pair(hy.standardize(f), SUITE[0], ContourSpec(imag_offset=eta, abs_tol=1e-10))
    assert time.perf_counter() - start < 1.0
    want = _standardize_oracle("sech")
    assert abs(got - want) <= 1e-10 * abs(want)


def _narrow_gaussian(k, a):
    """exp(-k (x - a)^2) as the boundary value of F_plus, F_minus = 0."""
    return hy.Hyperfunction1D(f_plus=ex.parse_expr(f"exp(-{k}*(z-{a})^2)"),
                              f_minus=ex._ZERO, strip=1.0,
                              growth=GrowthClass.exp_decay(1.0, constant=20.0))


@pytest.mark.parametrize("k", [50, 800])
@pytest.mark.parametrize("a", [0.0, 2.5])
def test_standardize_narrow_gaussian_matches_closed_form(k, a):
    got = hy.pair(hy.standardize(_narrow_gaussian(k, a)), SUITE[0])
    want = math.sqrt(math.pi / (k + 1)) * math.exp(-k * a * a / (k + 1))
    assert abs(got - want) <= 1e-8 * want


def test_standardize_past_its_cap_raises_quickly():
    # on the line Im w = 0.125, |F_plus| reaches e^78
    G = hy.standardize(_narrow_gaussian(5000, 1.7)).f_plus
    start = time.perf_counter()
    with pytest.raises(ConvergenceError, match="Im z = 0.25 .*16384 nodes"):
        G(np.linspace(-3.0, 3.0, 13) + 0.25j)
    assert time.perf_counter() - start < 5.0


@pytest.mark.parametrize("label", ["sech", "delta2"])
def test_standardize_evaluates_f_once_per_node(label, monkeypatch):
    f = cp.default_corpus()[label]
    seen, levels = [], []
    refine = hy.refine

    def counted_refine(*args):
        result = refine(*args)
        levels.append(result[2])
        return result

    def counted_f(w):
        seen.append(np.ravel(w))
        return f.f_plus(w)

    monkeypatch.setattr(hy, "refine", counted_refine)
    z = np.array([0.5 + 0.25j, -2.0 + 0.25j])
    hy.standardize(replace(f, f_plus=counted_f)).f_plus(z)
    points = np.concatenate(seen)
    assert len(np.unique(points)) == len(points)
    # the circle's nodes serve every point; each line point has its own
    per_call = 1 if f.is_delta_like else len(z)
    assert levels and len(points) <= per_call * (levels[0] + 1)


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
    assert np.allclose(hy._std_kernel(d), want, rtol=1e-15, atol=0.0)


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


def test_local_operators_drop_the_source_field():
    # J(D) F^-1 g is not F^-1 g, so the result must not pair by duality through g
    g = sp.fourier_transform(cp.default_corpus()["sech"])
    f = replace(cp.default_corpus()["sech"], source=g)
    finite = hy.LocalOperator(coefficients=(1.0, 0.0, -1.0), label="1-D^2")
    for op in (finite, _bessel_operator()):
        assert hy.apply_local_operator(op, f).source is None
    assert hy.apply_local_operator(_bessel_operator(), sp.inverse_fourier(g)).source is None


@pytest.mark.parametrize("tail", [
    lambda n: 1.0, lambda n: math.exp(n * math.log(4.0) - math.lgamma(n + 1.0))])
def test_cauchy_kernel_raises_at_its_cap(tail):
    # on |u| = 1/4, b_n = 1 gives t_n = n! 4^n, which overflows; b_n = 4^n / n!
    # gives t_n = 1 until b_n underflows near n = 250 and zeros follow, so no
    # term falls below rounding before the term cap
    slow = hy.LocalOperator(coefficients=(1.0,), tail=tail, label="slow")
    with pytest.raises(ConvergenceError, match="Cauchy kernel of slow on"):
        hy._cauchy_kernel(slow, 0.25)


def test_admissible_operator_whose_kernel_overflows_raises():
    # (|b_n| n!)^(1/n) = 1000 / log(n + 2) decreases to 0, but on |u| = 1/4
    # the terms (4000 / log(n + 2))^n overflow near n = 105
    J = hy.LocalOperator(coefficients=(1.0,), label="J", tail=lambda n: math.exp(
        n * math.log(1000.0 / math.log(n + 2.0)) - math.lgamma(n + 1.0)))
    J.check_admissible()
    with pytest.raises(ConvergenceError, match="overflowing"):
        hy.apply_local_operator(J, cp.default_corpus()["sech"])


def test_cauchy_kernel_sums_the_bessel_tail():
    # t_n = 4^n / (n + 1)!, and sum_n t_n = (e^4 - 1) / 4
    kernel = hy._cauchy_kernel(_bessel_operator(), 0.25)
    want = [4.0 ** n / math.factorial(n + 1) for n in range(len(kernel))]
    assert np.max(np.abs(kernel - want) / want) <= 1e-14
    assert abs(kernel[-1]) <= np.finfo(float).eps * max(want)  # the stopping term
    assert abs(kernel.sum() - (math.exp(4.0) - 1.0) / 4.0) <= 1e-14 * kernel.sum().real


def test_infinite_order_operator_on_delta():
    # <J(D) delta^(m), phi> = sum_n b_n (-1)^(n+m) phi^(n+m)(0)
    # (terms past n = 20 are below 1e-23 here)
    J = _bessel_operator()
    jets = {phi.label: [phi.derivative_at(0.0, k) for k in range(24)] for phi in SUITE}
    for m in range(4):
        f = hy.apply_local_operator(J, hy.delta_derivative(m))
        assert f.point_support is None and f.strip == math.inf
        for phi in SUITE:
            want = sum(J.coefficient(n) * (-1.0) ** (n + m) * jets[phi.label][n + m]
                       for n in range(20))
            got, err = hy.pair_with_error(f, phi)
            assert abs(got - want) <= min(1e-12, err), (m, phi.label, got, want, err)


def _check_against_parseval(label, hat_f):
    """<J(D) f, phi> against (1/2 pi) int J(xi) hat f(xi) hat phi(-xi) d xi for
    every test function, J(xi) = I_1(2 sqrt(i xi)) / sqrt(i xi) from mpmath:
    to 1e-12 relative, within the reported bound, under 50 ms a pairing.  The
    reference takes trapezoid rules in xi on [-30, 30] and in x on [-40, 40]
    with step 0.05, geometrically convergent for these analytic, exponentially
    decaying integrands."""
    f = hy.apply_local_operator(_bessel_operator(), cp.default_corpus()[label])
    assert f.growth.kind == cp.default_corpus()[label].growth.kind
    h = 0.05
    xi, x = np.arange(-600, 601) * h, np.arange(-800, 801) * h
    J = np.array([complex(mp.besseli(1, 2 * mp.sqrt(1j * t)) / mp.sqrt(1j * t))
                  if t else 1.0 for t in xi])
    for phi in SUITE:
        phi_hat_minus = h * (np.exp(1j * np.outer(xi, x)) @ np.asarray(phi(x + 0j)))
        want = h * np.sum(J * hat_f(xi) * phi_hat_minus) / (2.0 * math.pi)
        t0 = time.perf_counter()
        got, err = hy.pair_with_error(f, phi)
        assert time.perf_counter() - t0 < 0.05, phi.label
        assert abs(got - want) <= 1e-12 * abs(want), (phi.label, got, want)
        assert abs(got - want) <= err, (phi.label, got, want, err)


def test_infinite_order_operator_on_sech_finishes():
    _check_against_parseval("sech", lambda xi: math.pi / np.cosh(math.pi * xi / 2.0))


def test_infinite_order_operator_on_gaussian_matches_parseval():
    _check_against_parseval(
        "gaussian", lambda xi: math.sqrt(2.0 * math.pi) * np.exp(-xi * xi / 2.0))


@pytest.mark.parametrize("label", ["sech", "gaussian"])
def test_moments_of_an_infinite_order_operator(label):
    # mu_n(J(D) f) = <f, J*(D) x^n> = sum_k b_k (-1)^k n! / (n - k)! mu_(n-k)(f)
    J, f = _bessel_operator(), cp.default_corpus()[label]
    g = hy.apply_local_operator(J, f)
    mu = [sp.moment(f, n) for n in range(7)]
    for n in range(7):
        want = sum(J.coefficient(k) * (-1) ** k * math.perm(n, k) * mu[n - k]
                   for k in range(n + 1))
        assert abs(sp.moment(g, n) - want) <= 1e-10 * max(abs(want), 1.0), n


def test_infinite_order_operator_keeps_constant_branches_and_rejects_the_strip_edge():
    f = hy.apply_local_operator(_bessel_operator(), cp.default_corpus()["sech"])
    assert np.all(f.f_minus(np.array([0.3 - 0.7j, -2.0 - 0.7j])) == 0)
    with pytest.raises(ValueError, match="no circle fits"):
        f.f_plus(0.5 + 1.4j)


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


def test_tempered_pair_tail_adds_the_declared_exponents():
    growth, weight = hy._combined_tail(cp.default_corpus()["lorentz"].growth,
                                       GrowthClass.tempered(0.5, constant=3.0))
    assert growth == GrowthClass.tempered(-1.5, constant=3.0) and weight == 0.0


def test_infra_exponential_pair_is_within_its_bound():
    # int 2 cosh(x/10) sech(3x/20) dx = (2 pi / 0.15) sec(pi / 3) / 2 = 80 pi / 3;
    # the envelopes 2 e^(r/10) and 2 e^(-3r/20) leave exp_decay(1/20, 4)
    f = hy.embed_real_analytic(ex.parse_expr("exp(z/10) + exp(-z/10)"), 1.0,
                               GrowthClass.infra_exponential(2.0))
    phi = hy.TestFunction(ex.parse_expr("sech(3*z/20)"), 1.0,
                          GrowthClass.exp_decay(0.15, constant=2.0))
    value, err = hy.pair_with_error(f, phi)
    assert abs(value - 80.0 * math.pi / 3.0) <= err <= 1e-10
    slow = hy.TestFunction(ex.parse_expr("sech(z/10)"), 1.0,
                           GrowthClass.exp_decay(0.1, constant=2.0))
    with pytest.raises(hy.AdmissibilityError, match="rate above 1/10"):
        hy.pair_with_error(f, slow)


_RATED = [GrowthClass.gaussian(0.3, constant=2.0), GrowthClass.gaussian(1.0),
          GrowthClass.exp_decay(0.25, constant=3.0), GrowthClass.exp_decay(1.5)]
_CERTIFIED = [(a, b) for a in _RATED + [
    GrowthClass.tempered(2.0, constant=2.0), GrowthClass.tempered(-0.5),
    GrowthClass.tempered(-3.0, constant=1.5), GrowthClass.asymptotic(2.0),
    GrowthClass.infra_exponential(2.0)] for b in _RATED] + [
    (GrowthClass.tempered(-3.0, constant=1.5), GrowthClass.tempered(0.5, constant=2.0))]


@pytest.mark.parametrize("a, b", _CERTIFIED, ids=[
    f"{a.kind}-{b.kind}-{k}" for k, (a, b) in enumerate(_CERTIFIED)])
def test_combined_tail_bounds_the_product_of_the_envelopes(a, b):
    # the asymptotic envelope (1 + r)^-2 only spot-checks its class, which the
    # tail counts as its constant; the exp_decay products are exact, up to rounding
    def envelope(g, x):  # GrowthClass.envelope in mpmath
        return g.constant * {"gaussian": lambda: mp.exp(-g.rate * x * x),
                             "exp_decay": lambda: mp.exp(-g.rate * x),
                             "tempered": lambda: (1 + x) ** g.gamma,
                             "asymptotic": lambda: (1 + x) ** -2,
                             "infra_exponential": lambda: mp.exp(x / 10)}[g.kind]()

    growth, weight = hy._combined_tail(a, b)
    assert hy._combined_tail(b, a) == (growth, weight)
    with mp.workdps(30):
        for r in (2.0, 10.0, 40.0):
            # scaled to 1 at x = r: mpmath's quad misses tiny integrands' digits
            at_r = envelope(a, r) * envelope(b, r)
            want = float(2 * at_r * mp.quad(lambda x: envelope(a, x) * envelope(b, x) / at_r,
                                            [r, r + 1, r + 10, r + 100, mp.inf]))
            assert tail_bound(growth, weight, r) >= (1.0 - 1e-13) * want, r


@pytest.mark.parametrize("weight", range(4))
def test_asymptotic_pair_with_tempered_test_rejected(weight):
    # the asymptotic class bounds each power of decay with its own constant
    # and declares none of them, so no tail against (1 + |x|)^weight is certified
    f = replace(cp.default_corpus()["sech"], growth=GrowthClass.asymptotic(2.0))
    phi = hy.TestFunction(ex.parse_expr(f"z^{weight}"), math.inf,
                          GrowthClass.tempered(float(weight)))
    with pytest.raises(hy.AdmissibilityError, match="declares no decay rate"):
        hy.pair(f, phi)


_CORPUS = cp.default_corpus()


@pytest.mark.parametrize("label", [k for k, f in _CORPUS.items() if not f.is_delta_like])
@settings(max_examples=8)
@given(t=st.floats(0.0, 1.0))
def test_line_pairing_does_not_depend_on_the_contour_offset(label, t):
    # eta = 0.1 + t (cap - 0.1), cap = half the narrower strip (0.5 for two
    # infinite strips): the two values differ by at most their two bounds
    f = _CORPUS[label]
    for phi in SUITE:
        cap = 0.5 * min(f.strip, phi.strip_halfwidth)
        cap = cap if math.isfinite(cap) else 0.5
        ref, ref_err = hy.pair_with_error(f, phi)  # the default height is the cap
        got, err = hy.pair_with_error(f, phi, ContourSpec(imag_offset=0.1 + t * (cap - 0.1)))
        assert abs(got - ref) <= err + ref_err, (phi.label, t, got, ref, err, ref_err)
