import gc
import math
import sys
import threading
import warnings
import weakref

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, strategies as st

import hypercalc.corpus as cp
import hypercalc.expr as ex


RNG = np.random.default_rng(12345)

ATOMS = ["z", "1", "2", "pi", "i", "0.5"]
FUNCS = ["exp", "sech", "tanh", "gaussian"]


def random_expr(depth=3):
    if depth == 0 or RNG.uniform() < 0.3:
        return str(RNG.choice(ATOMS))
    kind = RNG.integers(0, 5)
    a = random_expr(depth - 1)
    b = random_expr(depth - 1)
    if kind == 0:
        return f"({a}+{b})"
    if kind == 1:
        return f"({a}-{b})"
    if kind == 2:
        return f"({a}*{b})"
    if kind == 3:
        return f"{RNG.choice(FUNCS)}(({a})/4)"
    return f"(-{a})"


def test_parse_print_round_trip():
    for _ in range(200):
        text = random_expr()
        e = ex.parse_expr(text)
        printed = ex.print_expr(e)
        again = ex.parse_expr(printed)
        z = complex(RNG.uniform(-1, 1), RNG.uniform(-1, 1))
        v1 = ex.evaluate(e, {"z": z})
        v2 = ex.evaluate(again, {"z": z})
        assert abs(v1 - v2) <= 1e-12 * (1 + abs(v1))


def test_print_parse_keeps_signs_and_complex_constants():
    e = ex.parse_expr("exp(-(z*z)/2)")
    assert ex.print_expr(e) == "exp((-(z*z))/2)"
    assert ex.parse_expr(ex.print_expr(e)) is e
    assert ex.parse_expr("(0.5*i)") is ex.Const(0.5j)
    assert ex.parse_expr("(-0.5*i)/z").left.value == -0.5j
    assert ex.parse_expr("-2^2") is ex.Neg(ex.Pow(ex.Const(2 + 0j), 2))


_LEAVES = st.sampled_from([ex.Var("z"), ex.Var("x1"), ex.Const(1), ex.Const(2),
                           ex.Const(0.5), ex.Const(3.25), ex.Const(math.pi),
                           ex.Const(1j), ex.Const(-2), ex.Const(0.75j)])


def _trees(children):
    pair = st.tuples(children, children)
    return st.one_of(
        pair.map(lambda p: ex.Add(*p)), pair.map(lambda p: ex.Sub(*p)),
        pair.map(lambda p: ex.Mul(*p)), pair.map(lambda p: ex.Div(*p)),
        children.map(ex.Neg),
        st.tuples(children, st.integers(-3, 3)).map(lambda p: ex.Pow(*p)),
        st.tuples(st.sampled_from(ex._FUNCTIONS), children).map(lambda p: ex.Call(*p)))


@given(st.recursive(_LEAVES, _trees, max_leaves=12))
def test_parsed_trees_print_back_to_their_text(tree):
    t = ex.parse_expr(ex.print_expr(tree))
    text = ex.print_expr(t)
    assert ex.print_expr(ex.parse_expr(text)) == text


def test_derivative_matches_finite_difference():
    for _ in range(200):
        e = ex.parse_expr(random_expr())
        d = ex.differentiate(e)
        z = complex(RNG.uniform(-1, 1), RNG.uniform(0.2, 1.0))
        try:
            sym = ex.evaluate(d, {"z": z})
            h = 1e-5  # central second-order difference
            num = (ex.evaluate(e, {"z": z + h}) - ex.evaluate(e, {"z": z - h})) / (2 * h)
        except ex.PoleError:
            continue
        assert abs(sym - num) <= 1e-5 * (1 + abs(sym))


def test_essential_singularity_evaluation():
    e = ex.parse_expr("exp(-1/z)")
    v = ex.evaluate(e, {"z": 1j})
    assert abs(v - np.exp(1j)) < 1e-14


def test_pole_detection():
    e = ex.parse_expr("1/z")
    with pytest.raises(ex.PoleError):
        ex.evaluate(e, {"z": 0.0})


def test_parse_error_offset():
    with pytest.raises(ex.ParseError) as exc:
        ex.parse_expr("1+*2")
    assert exc.value.position == 3
    with pytest.raises(ex.ParseError) as exc:
        ex.parse_expr("z*1e400")  # a literal past the float range
    assert exc.value.position == 3


_Z, _TWO = ex.Var("z"), ex.Const(2 + 0j)


@pytest.mark.parametrize("text, tree", [
    ("-2^2", ex.Neg(ex.Pow(_TWO, 2))),
    ("2*-3", ex.Const(complex(-6.0, -0.0))),  # (2+0j) * (-3-0j), folded
    ("(0.5*i)", ex.Const(complex(0.0, 0.5))),
    ("z^-3", ex.Pow(_Z, -3)),
    ("exp (z)", ex.Call("exp", _Z)),
    ("\tz\n*\u2003exp(z) ", ex.Mul(_Z, ex.Call("exp", _Z))),
])
def test_grammar_accepts(text, tree):
    assert ex.parse_expr(text) is tree


@pytest.mark.parametrize("text", [
    "z^(2)", "z^-(2)", "z**2", "z #c", "0x1f", "1_0", "1j", "\u00b2", "\uff5a",
    "1.2.3", "z^2^3", "+z", "exp()", "exp(z,z)", "pi(z)", "z.real", "z<1", "",
    pytest.param("(" * 300 + "z" + ")" * 300, id="300-nested-parentheses"),
])
def test_grammar_rejects_with_an_offset_in_the_text(text):
    with pytest.raises(ex.ParseError) as exc:
        ex.parse_expr(text)
    assert 1 <= exc.value.position <= len(text) + 1


def test_long_chain_prints_and_parses_back():
    chain = _Z
    for _ in range(1999):
        chain = ex.Add(chain, _Z)
    text = ex.print_expr(chain)
    assert text == "+".join(["z"] * 2000)
    assert ex.parse_expr(text) is chain


def _frames_down(depth, call):
    return call() if depth == 0 else _frames_down(depth - 1, call)


@pytest.mark.parametrize("terms", [999, 1500, 3000])
def test_acceptance_does_not_depend_on_the_callers_stack(terms):
    text = "+".join(["z"] * terms)

    def outcome():
        try:
            return ex.parse_expr(text)
        except ex.ParseError as exc:
            return str(exc)

    top = outcome()
    assert _frames_down(600, outcome) == top
    # CPython's own limit holds past 2984 terms, the same from any caller
    assert isinstance(top, ex.Expr) == (terms < 3000)


def test_unknown_identifier():
    with pytest.raises(ex.ParseError):
        ex.parse_expr("foo(z)")


def test_integer_power_and_scale():
    e = ex.parse_expr("z^3")
    assert abs(ex.evaluate(e, {"z": 2.0}) - 8.0) < 1e-14
    s = ex.scale_argument(e, 0.5)
    assert abs(ex.evaluate(s, {"z": 2.0}) - 1.0) < 1e-14


def test_vectorized_evaluation():
    e = ex.parse_expr("sech(z)*exp(-(z*z)/2)")
    z = np.linspace(-3, 3, 17).astype(complex)
    v = ex.evaluate(e, {"z": z})
    assert v.shape == z.shape
    single = ex.evaluate(e, {"z": z[3]})
    assert abs(v[3] - single) < 1e-14


def test_sech_matches_mpmath():
    x = np.concatenate([np.linspace(-800.0, 800.0, 161),
                        [0.0, -0.0, 1e-9, -1e-9, -745.1]])
    y = np.linspace(-1.49, 1.49, 9)
    u = (x[:, None] + 1j * y[None, :]).ravel()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = ex._sech(u)
    with mp.workdps(30):
        want = np.array([complex(mp.sech(mp.mpc(v.real, v.imag))) for v in u])
    # relative to the smallest normal float: past |Re u| ~ 708 sech is subnormal
    rel = np.abs(got - want) / np.maximum(np.abs(want), np.finfo(float).tiny)
    assert np.max(rel) <= 2e-15


def test_simplify_constant_folding():
    e = ex.parse_expr("0*z + 2*3")
    s = ex.simplify(e)
    assert ex._is_const(s, 6.0)


def test_multi_coordinate():
    e = ex.parse_expr("x1*x2 + x1^2")
    v = ex.evaluate(e, {"x1": 2.0, "x2": 3.0})
    assert abs(v - 10.0) < 1e-14


# ---------------------------------------------------------------------------
# interning and the plan evaluator


def reference_eval(e, env, eps_pole=ex.EPS_POLE):
    """Plain recursive tree walk: the reference `evaluate` must match bit for bit."""
    if isinstance(e, ex.Const):
        return e.value
    if isinstance(e, ex.Var):
        return env[e.name]
    if isinstance(e, (ex.Add, ex.Sub, ex.Mul)):
        a, b = reference_eval(e.left, env), reference_eval(e.right, env)
        return a + b if isinstance(e, ex.Add) else a - b if isinstance(e, ex.Sub) else a * b
    if isinstance(e, ex.Div):
        den = reference_eval(e.right, env)
        if np.min(np.abs(den)) < eps_pole:
            raise ex.PoleError("denominator")
        return reference_eval(e.left, env) / den
    if isinstance(e, ex.Neg):
        return -reference_eval(e.arg, env)
    if isinstance(e, ex.Pow):
        base = reference_eval(e.base, env)
        if e.exponent < 0 and np.min(np.abs(base)) < eps_pole:
            raise ex.PoleError("power")
        return base ** e.exponent
    u = reference_eval(e.arg, env)
    return {"exp": np.exp, "sech": ex._sech, "tanh": np.tanh,
            "gaussian": lambda v: np.exp(-(v * v))}[e.func](u)


def _outcome(fn):
    try:
        v = fn()
    except ex.PoleError:
        return "pole"
    return type(v), np.asarray(v).tobytes()


def test_evaluate_matches_tree_walk_bit_for_bit():
    points = [complex(RNG.uniform(-1, 1), RNG.uniform(0.2, 1.0)),
              np.linspace(-2.0, 2.0, 33) + 0.3j, 0.0]
    for _ in range(150):
        e = ex.parse_expr(random_expr())
        # derivatives share subexpressions, so their plans store and reload values
        for tree in (e, ex.differentiate(e, 2)):
            for z in points:
                assert _outcome(lambda: ex.evaluate(tree, {"z": z})) == \
                    _outcome(lambda: reference_eval(tree, {"z": z}))


def test_structurally_equal_trees_are_one_node():
    a = ex.parse_expr("sech(z)*exp(-(z*z)/8) + x1^2")
    b = ex.parse_expr("sech( z ) * exp(-(z*z)/8) + x1^2")
    assert a is b and a == b and hash(a) == hash(b)
    assert ex.differentiate(a, 3) is ex.differentiate(b, 3)
    assert ex.Mul(ex.Var("z"), ex.Const(2.0)) is ex.Mul(ex.Var("z"), ex.Const(2.0))
    with pytest.raises(AttributeError):
        a.left = ex._ONE


def test_constants_keep_type_and_sign_of_zero():
    assert ex.Const(0.5) is not ex.Const(0.5 + 0j)
    assert ex.Const(0j) is not ex.Const(-0j)
    assert ex.Const(complex(0.0, -0.0)) is not ex.Const(0j)
    assert ex.Const(-0.0) is not ex.Const(0.0)
    assert ex.Const(0.5) is ex.Const(0.5)
    assert ex.Pow(ex.Var("z"), 2) is not ex.Pow(ex.Var("z"), 2.0)


def test_intern_table_drops_unreachable_nodes():
    gc.collect()
    before = len(ex._NODES)
    e = ex.parse_expr("z*987.654321 + 1")  # three nodes no other code holds
    ref = weakref.ref(e)
    assert len(ex._NODES) >= before + 3
    ex.evaluate(e, 0.5)  # the cached plan must not keep the node alive
    del e
    gc.collect()
    assert ref() is None
    assert len(ex._NODES) <= before


def test_concurrent_construction_yields_one_node():
    # each thread builds the same fresh nodes in step with the others; a lost
    # race in the intern table would give two threads two different nodes
    workers, count = 8, 3000
    z = ex.Var("z")
    built = [None] * workers
    start = threading.Barrier(workers)

    def build(slot):
        start.wait(timeout=60)
        built[slot] = [ex.Add(z, ex.Const(k + 0.125)) for k in range(count)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(k,)) for k in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    for k in range(1, workers):
        assert all(x is y for x, y in zip(built[k], built[0]))


# ---------------------------------------------------------------------------
# the float64 plan


def _corpus_cases():
    """(label, expression, env of float64 points) for every expression of the
    built-in corpora; the points avoid the poles at 0 and 0.5."""
    x = np.linspace(-4.0, 4.0, 81) + 0.0371
    cases = []
    for label, f in cp.default_corpus().items():
        for side, e in (("plus", f.f_plus), ("minus", f.f_minus)):
            cases.append((f"{label}.{side}", e, {"z": x}))
    for t in cp.test_suite():
        cases.append((t.label, t.expr, {"z": x}))
    pts = np.random.default_rng(7).uniform(-3.0, 3.0, (200, 3))
    for label, f in cp.multidim_corpus().items():
        if hasattr(f, "expr"):
            cases.append((label, f.expr, {f"x{i + 1}": pts[:, i].copy()
                                          for i in range(f.dimension)}))
    return cases


def test_float64_plan_agrees_with_complex_on_the_corpora():
    tiny, ulp = np.finfo(float).tiny, np.finfo(float).eps
    for label, e, env in _corpus_cases():
        real = ex.evaluate(e, env)
        cplx = ex.evaluate(e, {k: v.astype(complex) for k, v in env.items()})
        gap = np.abs(real - cplx) / np.maximum(np.abs(cplx), tiny)
        assert np.max(gap) <= 4 * ulp, label


def test_float64_env_gives_float64_results():
    e = ex.parse_expr("(1+x1)*exp(-(x1*x1+x2*x2))*sech(x2)+tanh(x1)/(2+x2^2)")
    x = np.linspace(-2.0, 2.0, 9)
    assert ex.evaluate(e, {"x1": x, "x2": x[::-1]}).dtype == np.float64
    # a complex constant, a complex array or a Python float keeps complex values
    assert ex.evaluate(ex.parse_expr("i*x1"), {"x1": x}).dtype == np.complex128
    assert ex.evaluate(e, {"x1": x, "x2": x.astype(complex)}).dtype == np.complex128
    assert isinstance(ex.evaluate(e, {"x1": 0.5, "x2": 0.25}), complex)
    sech = ex.parse_expr("sech(z)")
    assert isinstance(ex.evaluate(sech, {"z": 0.0}), np.complex128)
    assert ex.evaluate(sech, {"z": x.astype(complex)}).dtype == np.complex128


def test_real_sech_matches_mpmath():
    x = np.concatenate([np.linspace(-800.0, 800.0, 1601),
                        [0.0, -0.0, 1e-9, -1e-9, -745.1, 708.5]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = ex._sech(x)
    assert got.dtype == np.float64
    with mp.workdps(30):
        want = np.array([float(mp.sech(mp.mpf(v))) for v in x])
    rel = np.abs(got - want) / np.maximum(np.abs(want), np.finfo(float).tiny)
    assert np.max(rel) <= 2e-15
