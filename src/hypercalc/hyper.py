"""Hyperfunctions as pairs of defining functions, and the duality pairing.

A hyperfunction is f(x) = F_plus(x+i0) - F_minus(x-i0) with F_plus
holomorphic on the upper strip and F_minus on the lower strip.  The pairing
with an analytic test function is the §-free computational core of the
library: an upper-line integral minus a lower-line integral, or a small
circle around the singular point when both branches extend to one function
holomorphic off a single real point (the delta family and assembled series
solutions).
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from . import expr as ex
from .growth import GrowthClass, GrowthError
from .quad import (ContourSpec, ConvergenceError, adaptive_interval,
                   auto_radius, by_height, in_row_blocks, refine, tail_bound,
                   verify_growth)

__all__ = [
    "Hyperfunction1D", "TestFunction", "LocalOperator", "AdmissibilityError",
    "embed_real_analytic", "delta_combination", "delta_derivative", "pair",
    "scale_pair", "standardize", "apply_local_operator", "laurent_polynomial",
]

TWO_PI_I = 2j * math.pi
_EPS = float(np.finfo(float).eps)
_TAIL_TERMS = 1000  # cap on the terms of an infinite-order operator's Cauchy kernel


class AdmissibilityError(Exception):
    pass


@dataclass(frozen=True)
class Hyperfunction1D:
    """Defining-function pair plus declared growth.

    ``f_plus`` and ``f_minus`` are callables of z, such as expressions.
    ``strip`` is the half-width of the strip |Im z| < strip on whose upper
    and lower halves F_plus and F_minus are holomorphic.
    ``point_support`` marks the delta-like case: both branches are
    restrictions of a single function holomorphic on the strip minus that
    real point, so pairings may deform to a circle contour around it.
    A pairing's tail is certified from the declared ``growth`` alone.
    ``source`` is the Fourier-side field g of an f = inverse_fourier(g),
    through which such an f pairs by duality (``g.pair_inverse``).
    """

    f_plus: Callable
    f_minus: Callable
    strip: float = 0.5
    growth: GrowthClass = GrowthClass.asymptotic()
    label: str = ""
    point_support: Optional[float] = None
    source: Optional[Callable] = None

    @property
    def is_delta_like(self):
        return self.point_support is not None

    @property
    def is_asymptotic(self):
        if self.is_delta_like:
            return True
        return self.growth.fits_within(GrowthClass.asymptotic())


@dataclass(frozen=True)
class TestFunction:
    """Analytic test function on a strip around the real axis."""

    expr: Callable  # an expression, or any callable of z
    strip_halfwidth: float = 0.5
    growth: GrowthClass = GrowthClass.exp_decay(1.0)
    label: str = ""

    def __call__(self, z):
        return self.expr(z)

    def derivative_at(self, x0: float, order: int) -> complex:
        if not isinstance(self.expr, ex.Expr):
            raise TypeError("symbolic derivative needs an expression test function")
        d = ex.differentiate(self.expr, order)
        return complex(np.asarray(ex.evaluate(d, {"z": complex(x0)})))


@dataclass(frozen=True)
class LocalOperator:
    """Constant-coefficient operator sum_n b_n (d/dx)^n.

    Finitely many coefficients are stored; an optional ``tail`` generator
    extends them to an infinite-order operator, which must satisfy the root
    condition (|b_n| n!)^(1/n) -> 0 to act locally.
    """

    coefficients: tuple = (1.0,)
    tail: Optional[Callable[[int], complex]] = None
    label: str = ""

    def coefficient(self, n: int) -> complex:
        if n < len(self.coefficients):
            return complex(self.coefficients[n])
        if self.tail is not None:
            return complex(self.tail(n))
        return 0.0

    @property
    def finite_order(self) -> Optional[int]:
        return None if self.tail is not None else len(self.coefficients) - 1

    def check_admissible(self):
        """Finite operators are always local.  For an infinite tail, (|b_n|
        n!)^(1/n) over three or more nonzero b_n, 1 <= n < 40, must decrease."""
        if self.tail is None:
            return
        bs = [abs(self.coefficient(n)) for n in range(40)]
        vals = [(b * math.factorial(n)) ** (1.0 / n) for n, b in enumerate(bs) if n and b > 0]
        if len(vals) >= 3 and (vals[-1] >= vals[0] or not all(
                b <= a + 1e-12 for a, b in zip(vals, vals[1:]))):
            raise AdmissibilityError(
                "coefficient root test (|b_n| n!)^(1/n) is not decreasing toward 0")

    def apply_to_expr(self, e: ex.Expr) -> ex.Expr:
        if self.finite_order is None:
            raise AdmissibilityError("symbolic application needs a finite operator")
        out = ex._ZERO
        for n, c in enumerate(self.coefficients):
            if c == 0:
                continue
            out = ex.Add(out, ex.Mul(ex.Const(complex(c)), ex.differentiate(e, n)))
        return ex.simplify(out)


# ---------------------------------------------------------------------------
# constructors


def embed_real_analytic(e: ex.Expr, strip: float, growth: GrowthClass,
                        label: str = "") -> Hyperfunction1D:
    """Represent a real-analytic function as [F_plus = e, F_minus = 0]."""
    report = verify_growth(e, growth)
    if not report.passed:
        raise GrowthError(
            f"declared growth fails its spot check (worst ratio {report.worst_ratio:.3g})")
    return Hyperfunction1D(f_plus=e, f_minus=ex.Const(0 + 0j), strip=strip,
                           growth=growth, label=label or ex.print_expr(e))


def laurent_polynomial(coefficients, at: float = 0.0) -> ex.Expr:
    """Sum of c_n (z - at)^(-n) over ``coefficients`` = {n: c_n}, folded."""
    base = ex.Var("z") if at == 0 else ex.Sub(ex.Var("z"), ex.Const(complex(at)))
    total = ex._ZERO
    for n, c in coefficients.items():
        total = ex._add(total, ex._div(ex.Const(complex(c)), ex._pow(base, n)))
    return total


def delta_combination(terms, growth: GrowthClass = GrowthClass.tempered(-1.0),
                      label: str = "") -> Hyperfunction1D:
    """sum c delta^(m)(x - a) over (a, m, c) ``terms``, the coefficients of
    each (a, m) summed first: F_plus = F_minus = sum c (-1/2 pi i) (-1)^m m!
    / (z - a)^(m+1).  A sum at one point a is delta-like there; a sum at
    several points has no point support and pairs by the line route."""
    points = {}
    for a, m, c in terms:
        row = points.setdefault(a, {})
        row[m] = row.get(m, 0) + c
    f = functools.reduce(ex.Add, [laurent_polynomial(
        {m + 1: c * (-1.0 / TWO_PI_I) * (-1.0) ** m * math.factorial(m)
         for m, c in row.items()}, a) for a, row in points.items()] or [ex._ZERO])
    return Hyperfunction1D(f_plus=f, f_minus=f, strip=math.inf, growth=growth, label=label,
                           point_support=next(iter(points)) if len(points) == 1 else None)


def delta_derivative(n: int = 0, at: float = 0.0) -> Hyperfunction1D:
    """delta^(n)(x - at)."""
    if n < 0:
        raise ValueError("order must be nonnegative")
    return delta_combination(
        [(at, n, 1.0)], GrowthClass.tempered(-(n + 1), constant=math.factorial(n)),
        f"delta^({n})" + (f"@{at:g}" if at else ""))


_WINDOW = 9.0  # standardize's lines take |u| <= 9, s <= asinh(9/c): e^(-81) < 1e-35
# entries per row block of standardize's sums: their complex temporaries
# (64 KB) stay below glibc's 128 KB default mmap threshold, so they come from
# the heap and are not mapped and faulted in afresh for every block
_STD_BLOCK = 1 << 12


def _std_kernel(d):
    """(-1/2 pi i) e^(-d^2) / d at d = z - w; the standardizing kernel."""
    return (-1.0 / TWO_PI_I) * np.exp(-(d * d)) / d


# ---------------------------------------------------------------------------
# pairing


def _combined_tail(g: GrowthClass, p: GrowthClass):
    """(class, weight exponent) of the product of two declared envelopes, the
    model of every truncated tail through ``quad.tail_bound``; raises if the
    product's integral diverges or no class declares its rate."""
    kinds = {g.kind, p.kind}
    c = g.constant * p.constant
    if "infra_exponential" in kinds:
        other = p if g.kind == "infra_exponential" else g
        if other.kind == "exp_decay" and other.rate > 0.1:
            # e^(r/10) e^(-d r): the envelope's epsilon = 1/10 off the rate
            return GrowthClass.exp_decay(other.rate - 0.1, constant=c), 0.0
        if other.kind == "gaussian":
            # e^(r/10 - a r^2) <= e^(1/(200 a)) e^(-a r^2 / 2): the envelope's
            # epsilon = 1/10 against half the Gaussian rate
            a = other.rate
            return GrowthClass.gaussian(a / 2.0, c * math.exp(1.0 / (200.0 * a))), 0.0
        raise AdmissibilityError("an infra-exponential factor needs a gaussian or "
                                 "an exp_decay partner of rate above 1/10")
    gamma = sum(x.gamma for x in (g, p) if x.kind == "tempered")
    if "gaussian" in kinds:
        # an exp_decay or asymptotic partner is at most its constant; a
        # tempered one becomes the weight (1 + |x|)^gamma
        rate = sum(x.rate for x in (g, p) if x.kind == "gaussian")
        return GrowthClass.gaussian(rate, constant=c), gamma
    if "exp_decay" in kinds:
        rate = sum(x.rate for x in (g, p) if x.kind == "exp_decay")
        return GrowthClass.exp_decay(rate, constant=c), max(0.0, gamma)
    if "asymptotic" in kinds:
        raise AdmissibilityError("the asymptotic class declares no decay rate: "
                                 "pair it with an exp_decay or gaussian partner")
    # tempered x tempered
    total = g.gamma + p.gamma
    if total >= -1.0:
        raise AdmissibilityError(
            f"tempered x tempered pairing with combined exponent {total:g} >= -1")
    return GrowthClass.tempered(total, constant=c), 0.0


def _geometric_breakpoints(radius):
    """Panel seeds +-2^k, suited to integrands varying on a log scale."""
    pts = [0.0]
    x = 1.0
    while x < radius:
        pts.extend([x, -x])
        x *= 2.0
    return pts


def _line_height(strip: float, spec: ContourSpec) -> float:
    """Im z of a pairing's lines: half the strip (0.5 for an infinite one),
    or ``spec.imag_offset`` when that is positive and lower."""
    cap = 0.5 * strip if math.isfinite(strip) else 0.5
    return min(spec.imag_offset, cap) if spec.imag_offset > 0 else cap


def _pair_lines(f: Hyperfunction1D, phi: TestFunction, spec: ContourSpec):
    """(<f, phi>, error bound): the bracket F_plus phi - F_minus phi on Im z =
    +-eta over |Re z| <= R, R from ``spec`` or ``auto_radius``; the bound
    adds the certified tail past R to the quadrature's error estimate."""
    eta = _line_height(min(f.strip, phi.strip_halfwidth), spec)

    def bracket(x):
        z = x + 1j * eta
        zm = z.conj()
        return f.f_plus(z) * phi(z) - f.f_minus(zm) * phi(zm)

    growth, weight = _combined_tail(f.growth, phi.growth)
    radius = (float(spec.truncation_radius) if spec.truncation_radius is not None
              else auto_radius(lambda R: tail_bound(growth, weight, R), spec.abs_tol))
    tail = tail_bound(growth, weight, radius)
    value, err, _ = adaptive_interval(
        bracket, -radius, radius, spec.abs_tol, f"line integral at Im z = {eta:g}",
        _geometric_breakpoints(radius))
    return complex(value), err + tail


def _pair_circle(f: Hyperfunction1D, phi, radius: float, abs_tol: float,
                 max_nodes: int = 8192):
    """-closed circle integral around the singular point (trapezoid rule),
    doubling from 64 nodes; raises ``ConvergenceError`` past ``max_nodes``."""
    x0 = f.point_support

    def evaluate(n):
        theta = 2.0 * math.pi * np.arange(n) / n
        z = x0 + radius * np.exp(1j * theta)
        vals = f.f_plus(z) * phi(z)
        return -complex((2j * math.pi / n) * np.sum(vals * (z - x0)))

    value, err, _ = refine(evaluate, 64, max_nodes, abs_tol, "circle pairing", "nodes")
    return value, err


def pair(f: Hyperfunction1D, phi: TestFunction, spec: Optional[ContourSpec] = None,
         force_lines: bool = False) -> complex:
    """Duality pairing <f, phi>; see the module docstring for the convention."""
    return pair_with_error(f, phi, spec, force_lines)[0]


def pair_with_error(f, phi, spec=None, force_lines=False):
    """(<f, phi>, error bound): unless ``force_lines``, the duality route for
    an inverse transform and the circle route for delta-like f; else the
    two-line route."""
    spec = spec or ContourSpec()
    if f.source is not None and not force_lines:
        return f.source.pair_inverse(phi, spec)
    if f.is_delta_like and not force_lines:
        radius = 0.45 * min(phi.strip_halfwidth, f.strip, 1.0)
        return _pair_circle(f, phi, radius, spec.abs_tol)
    return _pair_lines(f, phi, spec)


def scale_pair(f: Hyperfunction1D, phi: TestFunction, lam: float,
               spec: Optional[ContourSpec] = None) -> complex:
    """<f(lam x), phi(x)> = (1/lam) <f(x), phi(x/lam)>.

    A tempered phi's constant C becomes C max(1, |lam|^-gamma), since
    (1 + |x/lam|)^gamma <= max(1, |lam|^-gamma) (1 + |x|)^gamma."""
    if lam == 0:
        raise ValueError("scale factor must be nonzero")
    if not isinstance(phi.expr, ex.Expr):
        raise TypeError("scale_pair needs an expression test function")
    scaled = ex.scale_argument(phi.expr, 1.0 / lam)
    g = phi.growth
    if g.kind == "exp_decay":
        g = GrowthClass.exp_decay(g.rate / abs(lam), constant=g.constant)
    if g.kind == "gaussian":
        g = GrowthClass.gaussian(g.rate / lam ** 2, constant=g.constant)
    if g.kind == "tempered":
        g = GrowthClass.tempered(g.gamma,
                                 constant=g.constant * max(1.0, abs(lam) ** -g.gamma))
    phi_scaled = TestFunction(scaled, strip_halfwidth=phi.strip_halfwidth * abs(lam),
                              growth=g, label=f"{phi.label}(x/{lam:g})")
    return pair(f, phi_scaled, spec) / lam


# ---------------------------------------------------------------------------
# standardization via the exponentially decaying Cauchy-type kernel


def standardize(f: Hyperfunction1D) -> Hyperfunction1D:
    """Replace the defining functions by G(z) = <f, h_z>.

    The kernel h_z(w) = (-1/2 pi i) e^(-(z-w)^2) / (z-w) reproduces the
    hyperfunction with a rapidly decaying standard representative.  G is
    built with ``quad.by_height``: it refines each height y = Im z on its own
    and keeps no state between calls.  Each point's row is reduced by its
    own sum, so its rounding does not depend on how many points share the call.
    Both routes are trapezoid rules whose node count n doubles through
    ``refine`` until two passes agree within 1e-9.  A pass adds its new, odd
    nodes to the previous pass's per-point sum, so a point costs at most
    n + 1 evaluations of f.

    Off the delta-like case, G integrates over the lines w = Re z + u +- i eta
    with u in [-9, 9] (past that window the kernel is below e^(-81)) and
    eta = min(|y|, strip) / 2.  On these translated lines z - w = i(y -+ eta) - u,
    so one kernel row per height, branch and pass serves every point at that
    height, and f is evaluated on the shifted nodes.  The map u = c sinh(s),
    c = |y| - eta, puts both kernel poles (c and |y| + eta from the lines) on
    Im s = +-pi/2 (Johnston & Elliott, IJNME 62, 2005), so the rule in s on
    [-asinh(9/c), asinh(9/c)] converges at a rate independent of y and n grows
    like log(1/|y|).  n doubles from 16 (the ends, below e^(-81), are left
    out); past 16384 nodes it raises ``ConvergenceError``.

    In the delta-like case G is the trapezoid rule on the circle of radius
    r = min(1, |y|) / 2 around the support point, doubling from 32 nodes;
    past 512 nodes it raises.  The kernel's pole w = z lies at least 2r from
    the centre, so the rule converges geometrically at ratio 1/2 per node
    and stops at 64-128 nodes.

    G keeps the declared class of f, except that a gaussian rate a becomes
    a / (1 + a): the kernel's e^(-(x - u)^2) spreads e^(-a u^2) into
    e^(-a x^2 / (1 + a)).
    """
    if not (f.is_delta_like or f.is_asymptotic or f.growth.kind == "tempered"):
        raise AdmissibilityError("standardize needs an asymptotic or tempered input")

    strip = 0.5 * min(f.strip, 1.0)

    def nested(y, start, cap, first, pass_sum):
        """``refine`` of sum(``pass_sum(k / n)``) / n over the k new at each level."""
        total = 0.0

        def evaluate(n):
            nonlocal total
            k = np.arange(first, n) if n == start else np.arange(1, n, 2)
            total = total + pass_sum(k / n)
            return total / n

        return refine(evaluate, start, cap, 1e-9, f"standardized G at Im z = {y:g}",
                      "nodes")[0]

    def on_circle(zs, y):
        x0 = f.point_support
        radius = 0.5 * min(1.0, abs(y))

        def pass_sum(t):
            w = x0 + radius * np.exp(2j * math.pi * t)
            fw = (-2j * math.pi) * f.f_plus(w) * (w - x0)
            return in_row_blocks(
                lambda block: (_std_kernel(block[:, None] - w) * fw).sum(axis=-1), zs,
                len(w), _STD_BLOCK)

        return nested(y, 32, 512, 0, pass_sum)

    def on_lines(zs, y):
        eta = 0.5 * min(abs(y), f.strip)
        c = abs(y) - eta
        span = 2.0 * math.asinh(_WINDOW / c)

        def pass_sum(t):
            s = span * (t - 0.5)
            u, du = c * np.sinh(s), span * c * np.cosh(s)
            kp = _std_kernel(1j * (y - eta) - u) * du
            km = _std_kernel(1j * (y + eta) - u) * du
            # a constant branch evaluates to a scalar and is summed once
            return in_row_blocks(lambda x: (
                (f.f_plus(x[:, None] + u + 1j * eta) * kp).sum(axis=-1)
                - (f.f_minus(x[:, None] + u - 1j * eta) * km).sum(axis=-1)),
                zs.real, len(u), _STD_BLOCK)

        return nested(y, 16, 16384, 1, pass_sum)

    growth = f.growth
    if growth.kind == "gaussian":
        growth = GrowthClass.gaussian(growth.rate / (1.0 + growth.rate), growth.constant)
    G = by_height(on_circle if f.is_delta_like else on_lines)
    return Hyperfunction1D(f_plus=G, f_minus=G, strip=strip,
                           growth=growth, label=f"std({f.label})")


# ---------------------------------------------------------------------------
# local operators


def _cauchy_kernel(op: LocalOperator, r: float) -> np.ndarray:
    """t_n = b_n n! r^(-n): J(D)'s kernel on |u| = r is sum_n t_n e^(-i n theta).
    A nonzero term is the last one times b_n / b_last and the gap's k / r, so
    n! is never formed.  The sum stops at the first nonzero term past the stored
    ones at most eps times the largest; overflow or ``_TAIL_TERMS`` terms raise
    ``ConvergenceError``."""
    terms, largest, term, b_last, step = [], 0.0, 1.0, 1.0, 1.0
    for n in range(_TAIL_TERMS):
        step, b = (step * n / r if n else 1.0), op.coefficient(n)
        if b == 0:
            terms.append(0.0)
            continue
        term, b_last, step = term * step * (b / b_last), b, 1.0
        if not cmath.isfinite(term):
            break
        terms.append(term)
        largest = max(largest, abs(term))
        if n >= len(op.coefficients) and abs(term) <= _EPS * largest:
            return np.array(terms, dtype=complex)
    raise ConvergenceError(f"Cauchy kernel of {op.label or 'J'} on |u| = {r:g}: terms "
                           f"still above rounding or overflowing at n = {n}")


def apply_local_operator(op: LocalOperator, f: Hyperfunction1D) -> Hyperfunction1D:
    """J(D) f.  Finite orders act symbolically on the defining functions; an
    infinite order needs an asymptotic input and acts by Cauchy's formula:
    J(D)F at height y is the mean of F(z + u) sum_n b_n n! u^(-n) over nodes
    u = r e^(i theta), r = min(|y|, strip - |y|, 1) / 2 (``ValueError`` if
    r <= 0), doubled from 16 to at most 2^14 by ``refine`` until two passes
    agree within each point's rounding floor, 64 eps mean|F K| at 16 nodes.
    The result keeps f's strip and kind and has no point support or
    ``source``: J(D) F^-1 g is not F^-1 g.  By Cauchy's
    estimate on radius r_c = min(strip, 1) / 4, where r >= r_c (as at the
    default pairing height when phi's strip is at least f's), the constant
    takes sum_n |b_n| n! r_c^(-n) and the envelope's shift over r_c: e^(d r_c)
    for exp_decay(d), (1 + r_c)^|gamma| for tempered, e^(a r_c^2) for
    gaussian(a), whose rate halves."""
    op.check_admissible()
    label = f"{op.label or 'J'}({f.label})"
    if op.finite_order is not None:
        if not (isinstance(f.f_plus, ex.Expr) and isinstance(f.f_minus, ex.Expr)):
            raise TypeError("symbolic application needs expression branches")
        return replace(f, f_plus=op.apply_to_expr(f.f_plus),
                       f_minus=op.apply_to_expr(f.f_minus), label=label, source=None)
    if not f.is_asymptotic:
        raise AdmissibilityError(
            "infinite-order operators require an asymptotic hyperfunction")

    def branch(F):
        def at_height(zs, y):
            r = 0.5 * min(abs(y), f.strip - abs(y), 1.0)
            if not r > 0:
                raise ValueError(f"{label} at Im z = {y:g}: no circle fits inside the strip")
            kernel = _cauchy_kernel(op, r)

            def means(n, size=np.asarray):
                e = np.exp(2j * math.pi * np.arange(n) / n)
                K = np.polynomial.polynomial.polyval(e.conj(), kernel)
                return in_row_blocks(lambda b: size(np.broadcast_to(  # F may be constant
                    F(b[:, None] + r * e) * K, (len(b), n))).mean(axis=1), zs, n)

            floor = np.maximum(64 * _EPS * means(16, np.abs), 1e-300)
            return floor * refine(lambda n: means(n) / floor, 16, 1 << 14, 1.0,
                                  f"{label} at Im z = {y:g}, in rounding floors,", "nodes")[0]

        return by_height(at_height)

    r_c, g = 0.25 * min(f.strip, 1.0), f.growth
    shift = {"exp_decay": math.exp(g.rate * r_c), "gaussian": math.exp(g.rate * r_c ** 2),
             "tempered": (1.0 + r_c) ** abs(g.gamma)}.get(g.kind, 1.0)
    growth = replace(g, rate=g.rate / 2.0 if g.kind == "gaussian" else g.rate, constant=(
        g.constant * shift * float(np.abs(_cauchy_kernel(op, r_c)).sum())))
    return replace(f, f_plus=branch(f.f_plus), f_minus=branch(f.f_minus), growth=growth,
                   label=label, point_support=None, source=None)
