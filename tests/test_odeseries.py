import math
from fractions import Fraction

import pytest

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
    # L = t^2 D - 1 applied to delta'' gives 6 delta' - delta''
    s = od.FormalLaurentTail.from_delta_coefficients([0, 0, 1], n_max=8)
    out = od.apply_operator(L, s)
    assert out.delta_coefficient(1) == 6
    assert out.delta_coefficient(2) == -1
    assert out.delta_coefficient(0) == 0
    assert out.delta_coefficient(3) == 0


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
    assert abs(complex(f.plus(z)) - want) < 1e-14
    assert abs(complex(f.minus(z)) + want) < 1e-14


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
    with pytest.raises(od.RecurrenceError):
        od.solve_series(od.PolyCoeffOperator(((1, 1, 1),), label="t*D"),
                        "fp", init=1, N=10)


def test_residual_check_on_solutions():
    corpus = cp.default_corpus()
    assert od.residual_check(corpus["ode_f1"], L, SUITE) < 1e-12
    assert od.residual_check(corpus["ode_f2"], L, SUITE) < 1e-12


def test_residual_check_flags_non_solution():
    assert od.residual_check(hy.delta_derivative(0), L, SUITE) > 1e-2


def test_adjoint_application():
    phi = SUITE[0]
    g = od.adjoint_test_expr(L, phi.expr)
    import hypercalc.expr as ex
    # L* phi = -d/dt(t^2 phi) - phi; check at a sample point
    t = 0.7
    e = phi.expr
    val = ex.evaluate(g, {"z": t})
    d = ex.evaluate(ex.differentiate(e, 1, "z"), {"z": t})
    v = ex.evaluate(e, {"z": t})
    want = -(2 * t * v + t * t * d) - v
    assert abs(val - want) < 1e-12
