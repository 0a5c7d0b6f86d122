import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

import hypercalc.corpus as cp
import hypercalc.expr as ex
import hypercalc.hyper as hy
import hypercalc.odeseries as od
from hypercalc.growth import GrowthClass

L = cp.example_operator()
SUITE = cp.test_suite()


def test_delta_recursion_exact():
    sol = od.solve_series(L, "delta", init=1, N=20)
    assert sol.admissible
    for n, a in enumerate(sol.coefficients):
        want = Fraction(1, math.factorial(n + 1) * math.factorial(n))
        assert a == want


def test_fp_recursion_exact():
    sol = od.solve_series(L, "fp", init=1, N=20)
    assert sol.admissible
    for n, a in enumerate(sol.coefficients):
        if n == 0:
            assert a == 1
        else:
            assert a == Fraction((-1) ** n, math.factorial(n + 1))
    assert sol.constant == -1


def test_apply_operator_on_delta():
    # L = t^2 D - 1 applied to delta'' gives 6 delta' - delta''; the tail of
    # sum c_n delta^(n) has g_(n+1) = (-1)^n n! c_n
    s = od.FormalLaurentTail("delta", {3: 2}, 8)
    out = od.apply_operator(L, s)
    assert out.coefficients == {2: -6, 3: -2}


def test_apply_operator_on_fp():
    # d/dt f.p. t^-1 = -f.p. t^-2
    D = od.PolyCoeffOperator(((0, 1, 1),), label="D")
    s = od.FormalLaurentTail("fp", {1: 1}, n_max=6, lost_degrees=())
    out = od.apply_operator(D, s)
    assert out.coefficients.get(2) == -1
    assert all(k == 2 for k, v in out.coefficients.items() if v)


def test_lost_degrees_recorded():
    D = od.PolyCoeffOperator(((0, 1, 1),), label="D")
    s = od.FormalLaurentTail("fp", {3: 1}, n_max=3, lost_degrees=())
    out = od.apply_operator(D, s)
    assert 4 in out.lost_degrees


def test_assemble_recognizes_exponential_pattern():
    sol = od.solve_series(L, "delta", init=1, N=24)
    f = od.assemble(sol.tail, admissible=sol.admissible, label="f1")
    assert "truncated" not in f.label and "formal-only" not in f.label
    phi = SUITE[0]
    # termwise sum of the pairing converges to the assembled value; the
    # coefficients decay super-factorially, so ten terms are plenty
    termwise = sum(
        complex(a) * (-1.0) ** n * phi.derivative_at(0.0, n)
        for n, a in enumerate(sol.coefficients[:10]))
    assert abs(hy.pair(f, phi) - termwise) < 1e-9


def test_assemble_truncated_label_for_generic_tail():
    s = od.FormalLaurentTail("delta", {n: 0.3 ** n for n in range(1, 7)},
                             n_max=6, lost_degrees=())
    f = od.assemble(s, admissible=True)
    assert "[truncated]" in f.label


def test_assemble_fp_truncated_tail():
    coefficients = {0: 2, 1: Fraction(1, 3), 3: -0.25}
    f = od.assemble(od.FormalLaurentTail("fp", coefficients, n_max=4), label="g")
    half = ex.simplify(ex.Mul(ex.Const(0.5), hy.laurent_polynomial(coefficients)))
    assert f.f_plus == half and f.f_minus == ex.simplify(ex.Neg(half))
    assert f.growth == GrowthClass.tempered(0.0) and f.point_support is None
    assert f.label == "g [truncated]"
    z = 0.4 + 0.7j
    want = 0.5 * (2 + 1 / (3 * z) - 0.25 / z ** 3)
    assert abs(complex(f.f_plus(z)) - want) < 1e-14
    assert abs(complex(f.f_minus(z)) + want) < 1e-14


@pytest.mark.parametrize("parity", ["fp", "delta"])
def test_assemble_zero_tail_is_the_delta_like_zero(parity):
    f = od.assemble(od.FormalLaurentTail(parity, {2: 0}, n_max=3))
    assert f.f_plus == ex._ZERO and f.f_minus == ex._ZERO
    assert f.growth == GrowthClass.tempered(-1.0) and f.point_support == 0.0
    assert f.label == "zero"
    assert hy.pair(f, SUITE[0]) == 0


def test_assemble_formal_only_label():
    s = od.FormalLaurentTail("delta", {n: 1.0 for n in range(1, 7)},
                             n_max=6, lost_degrees=())
    f = od.assemble(s, admissible=False)
    assert "[formal-only]" in f.label


def test_root_test_detects_inadmissible():
    bad = od.PolyCoeffOperator(((1, 1, 1), (0, 0, -1)), label="t*D-1")
    # solutions of t D - 1 have factorially growing delta coefficients or
    # no solution at all; either outcome must be flagged
    try:
        sol = od.solve_series(bad, "delta", init=1, N=16)
    except od.RecurrenceError:
        return
    assert not sol.admissible


def test_inconsistent_system_raises():
    # t D 1 = 0 leaves the constant free, but t D f.p. 1/t = -f.p. 1/t stays
    with pytest.raises(od.RecurrenceError, match="no formal solution"):
        od.solve_series(od.PolyCoeffOperator(((1, 1, 1),), label="t*D"),
                        "fp", init=1, N=10)


def test_fp_constant_in_the_kernel_stays_zero():
    # (t^2 D^2 + 2 t D) f.p. 1/t = 0 and it maps the constant to 0 as well
    L = od.PolyCoeffOperator(((2, 2, 1), (1, 1, 2)), label="t^2*D^2+2*t*D")
    sol = od.solve_series(L, "fp", init=1, N=6)
    assert sol.coefficients == (1,) + (0,) * 6 and sol.constant == 0


@pytest.mark.parametrize("terms", [((3, 0, 1), (0, 1, 1)), ((3, 0, 1), (0, 0, 1)),
                                   ((2, 0, 1), (0, 1, 1)), ((3, 1, 2), (0, 0, -1))])
def test_solution_does_not_depend_on_the_order(terms):
    # t^3 + D, t^3 + 1, t^2 + D, 2 t^3 D - 1: a term with m >= j + 2 lets the
    # coordinates k <= N take a_(N+1), a_(N+2), ..., which must be unknowns too
    L = od.PolyCoeffOperator(terms)
    longest = od.solve_series(L, "delta", 1, 13).coefficients
    for N in range(3, 13):
        sol = od.solve_series(L, "delta", 1, N)
        assert sol.coefficients == longest[:N + 1], N
        applied = od.apply_operator(L, sol.tail).coefficients
        assert not [k for k, v in applied.items() if v and 1 <= k <= N], N


# L = sum c t^m D^j with 1-3 terms, m <= 3, j <= 2, small nonzero rational c
_terms = st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2),
                            st.fractions(-3, 3, max_denominator=4).filter(bool)),
                  min_size=1, max_size=3, unique_by=lambda term: term[:2])


@given(terms=_terms, basis=st.sampled_from(["delta", "fp"]), data=st.data())
def test_solve_series_leaves_no_visible_residual(terms, basis, data):
    L = od.PolyCoeffOperator(tuple(terms))
    N = data.draw(st.integers(max(m for m, _, _ in terms), 12), label="N")
    try:
        sol = od.solve_series(L, basis, Fraction(1), N)
    except od.RecurrenceError as err:
        # a raise is a leftover residual or a column of a_1..a_N that shows
        # nothing; an fp constant with L 1 = 0 is free and must not raise
        if "no formal solution" in str(err):
            return
        units = [{n + 1: 1} for n in range(1, N + 1)]
        assert any(not [k for k in od.apply_operator(
            L, od.FormalLaurentTail(basis, unit, 2 * N + 8)).coefficients
            if k >= 1 or basis == "fp"] for unit in units), err
        return
    exact = sol.coefficients + ((sol.constant,) if basis == "fp" else ())
    assert all(isinstance(a, Fraction) for a in exact)
    # delta-parity coordinates k <= 0 are entire and cancel in F+ - F-
    applied = od.apply_operator(L, sol.tail).coefficients
    assert not [k for k, v in applied.items()
                if v and k <= N and (k >= 1 or basis == "fp")]


def test_residual_check_on_solutions():
    corpus = cp.default_corpus()
    assert od.residual_check(corpus["ode_f1"], L, SUITE) < 1e-12
    assert od.residual_check(corpus["ode_f2"], L, SUITE) < 1e-12


# the suite, and gauss under the exp_decay class TestFunction defaults to
@pytest.mark.parametrize("phi", SUITE + [hy.TestFunction(
    SUITE[0].expr, math.inf, GrowthClass.exp_decay(1.0, constant=3.0), "gauss_exp")],
    ids=lambda phi: phi.label)
def test_adjoint_test_function_meets_its_envelope(phi):
    assert od.residual_check(cp.default_corpus()["ode_f2"], L, [phi]) < 1e-12
    lstar = od._adjoint_test_function(L, phi)
    assert lstar.growth.kind == phi.growth.kind and lstar.growth.rate == phi.growth.rate / 2
    x = np.linspace(-40.0, 40.0, 1601)
    env = np.array([lstar.growth.envelope(abs(v)) for v in x])
    live = env > 1e-290  # past it the envelope is near underflow
    for y in (0.0, lstar.strip_halfwidth, -lstar.strip_halfwidth):
        got = np.abs(ex.evaluate(lstar.expr, {"z": x + 1j * y}))
        assert np.all(got[live] <= env[live]), y


def test_residual_check_flags_non_solution():
    assert od.residual_check(hy.delta_derivative(0), L, SUITE) > 1e-2


def test_adjoint_application():
    phi = SUITE[0]
    g = L.apply_adjoint(phi.expr)
    import hypercalc.expr as ex
    # L* phi = -d/dt(t^2 phi) - phi; check at a sample point
    t = 0.7
    e = phi.expr
    val = ex.evaluate(g, {"z": t})
    d = ex.evaluate(ex.differentiate(e, 1), {"z": t})
    v = ex.evaluate(e, {"z": t})
    want = -(2 * t * v + t * t * d) - v
    assert abs(val - want) < 1e-12
