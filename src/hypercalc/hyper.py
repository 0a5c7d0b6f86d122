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

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from . import expr as ex
from .growth import GrowthClass, GrowthError
from .quad import (CompositeRule, ContourSpec, ConvergenceError, adaptive_interval,
                   auto_radius, by_height, in_row_blocks, refine, tail_bound,
                   verify_growth)

__all__ = [
    "Hyperfunction1D", "TestFunction", "LocalOperator", "AdmissibilityError",
    "embed_real_analytic", "delta_combination", "delta_derivative", "pair",
    "scale_pair", "standardize", "apply_local_operator", "cauchy_hilbert_kernel",
    "laurent_polynomial",
]

TWO_PI_I = 2j * math.pi
_EPS = float(np.finfo(float).eps)
_TAIL_TERMS = 1000  # cap on the terms of an infinite-order symbol


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
    ``tail_gain`` declares how many extra orders of decay the combined
    two-line integrand gains from matching branch tails (checked empirically
    on the corpus, not inferred).
    """

    f_plus: Callable
    f_minus: Callable
    strip: float = 0.5
    growth: GrowthClass = GrowthClass.asymptotic()
    label: str = ""
    point_support: Optional[float] = None
    tail_gain: int = 0

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
    condition (|b_n| n!)^(1/n) -> 0 to act locally.  Alternatively the
    operator may be given purely through its Fourier ``symbol_fn``, with no
    coefficients: it then has no finite order and cannot be applied.
    """

    coefficients: tuple = (1.0,)
    tail: Optional[Callable[[int], complex]] = None
    symbol_fn: Optional[Callable] = None
    label: str = ""

    def coefficient(self, n: int) -> complex:
        if n < len(self.coefficients):
            return complex(self.coefficients[n])
        if self.tail is not None:
            return complex(self.tail(n))
        return 0.0

    @property
    def finite_order(self) -> Optional[int]:
        return (None if self.tail is not None or not self.coefficients
                else len(self.coefficients) - 1)

    def symbol(self, zeta):
        """J evaluated on the Fourier side: sum_n b_n (i zeta)^n.

        A tail is summed after the stored coefficients until a nonzero term
        falls below rounding relative to the partial sum; a sum that
        overflows or runs past ``_TAIL_TERMS`` raises ``ConvergenceError``.
        Each term is the last nonzero one times (i zeta)^gap b_n / b_last, so
        no power (i zeta)^n is formed: |zeta| reaches about 550 on the
        inverse transform's grid, where (i zeta)^n overflows past n = 112
        while b_n (i zeta)^n is small.
        """
        if self.symbol_fn is not None:
            return self.symbol_fn(zeta)
        w = 1j * np.asarray(zeta)
        acc = 0.0
        for n in reversed(range(len(self.coefficients))):
            acc = acc * w + self.coefficient(n)
        if self.tail is None:
            return acc
        term, b_last, step = 1.0, 1.0, w ** len(self.coefficients)
        # an overflowing sum is caught by the finiteness test below
        with np.errstate(over="ignore", invalid="ignore"):
            for n in range(len(self.coefficients), _TAIL_TERMS):
                b = self.coefficient(n)
                if b != 0:
                    term = term * step * (b / b_last)
                    acc = acc + term
                    b_last, step = b, 1.0
                    if not np.all(np.isfinite(acc)):
                        break
                    if np.all(np.abs(term) <= _EPS * np.abs(acc)):
                        return acc
                step = step * w
        raise ConvergenceError(
            f"symbol of {self.label or 'J'}: tail terms still above rounding "
            f"or overflowing at n = {n}")

    def root_sequence(self):
        """(n, (|b_n| n!)^(1/n)) for the nonzero b_n, n >= 1, up to n = 39."""
        seq = []
        top = 40 if self.tail is not None else len(self.coefficients)
        for n in range(1, top):
            b = abs(self.coefficient(n))
            if b > 0:
                seq.append((n, (b * math.factorial(n)) ** (1.0 / n)))
        return seq

    def check_admissible(self):
        """Finite operators are always local; infinite tails need the root test."""
        if self.tail is None:
            return
        seq = self.root_sequence()
        if len(seq) < 3:
            return
        vals = [v for (_, v) in seq]
        decreasing = all(b <= a * 1.0 + 1e-12 for a, b in zip(vals, vals[1:]))
        if not decreasing or vals[-1] >= vals[0]:
            raise AdmissibilityError(
                "coefficient root test (|b_n| n!)^(1/n) is not decreasing toward 0")

    def adjoint(self) -> "LocalOperator":
        coeffs = tuple(c * (-1) ** n for n, c in enumerate(self.coefficients))
        tail = None
        if self.tail is not None:
            gen = self.tail
            tail = lambda n: gen(n) * (-1) ** n
        fn = self.symbol_fn  # J*(zeta) = J(-zeta)
        return LocalOperator(coeffs, tail=tail, label=f"{self.label}*",
                             symbol_fn=None if fn is None else lambda zeta: fn(-zeta))

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
    """Simplified sum of c_n (z - at)^(-n) over ``coefficients`` = {n: c_n}."""
    base = ex.Var("z") if at == 0 else ex.Sub(ex.Var("z"), ex.Const(complex(at)))
    total = ex._ZERO
    for n, c in coefficients.items():
        total = ex.Add(total, ex.Div(ex.Const(complex(c)), ex.Pow(base, n)))
    return ex.simplify(total)


def delta_combination(coefficients, at: float = 0.0,
                      growth: GrowthClass = GrowthClass.tempered(-1.0),
                      label: str = "") -> Hyperfunction1D:
    """sum c_n delta^(n)(x - at) for ``coefficients`` = {n: c_n}: one
    delta-like pair F_plus = F_minus = sum c_n (-1/2 pi i) (-1)^n n! / (z - at)^(n+1)."""
    f = laurent_polynomial({n + 1: c * (-1.0 / TWO_PI_I) * (-1.0) ** n * math.factorial(n)
                            for n, c in coefficients.items()}, at)
    return Hyperfunction1D(f_plus=f, f_minus=f, strip=math.inf, growth=growth,
                           label=label, point_support=at)


def delta_derivative(n: int = 0, at: float = 0.0) -> Hyperfunction1D:
    """delta^(n)(x - at)."""
    if n < 0:
        raise ValueError("order must be nonnegative")
    return delta_combination(
        {n: 1.0}, at, GrowthClass.tempered(-(n + 1), constant=math.factorial(n)),
        f"delta^({n})" + (f"@{at:g}" if at else ""))


_WINDOW = 9.0  # standardize integrates over |Re(z - w)| <= 9, where e^(-81) < 1e-35
# entries per row block of standardize's sums: their complex temporaries
# (64 KB) stay below glibc's 128 KB default mmap threshold, so they come from
# the heap and are not mapped and faulted in afresh for every block
_STD_BLOCK = 1 << 12


def _std_kernel(d):
    """(-1/2 pi i) e^(-d^2) / d at d = z - w; the standardizing kernel."""
    return (-1.0 / TWO_PI_I) * np.exp(-(d * d)) / d


def cauchy_hilbert_kernel(z: complex):
    """w -> (-1/2 pi i) e^(-(z-w)^2) / (z - w); the standardizing kernel."""
    return lambda w: _std_kernel(z - np.asarray(w))


# ---------------------------------------------------------------------------
# pairing


def _combined_tail(f: Hyperfunction1D, phi_growth: GrowthClass):
    """Growth model of the two-line bracket integrand; raises if divergent."""
    g, p = f.growth, phi_growth
    kinds = {g.kind, p.kind}
    c = g.constant * p.constant
    if "infra_exponential" in kinds:
        other = p if g.kind == "infra_exponential" else g
        if other.kind == "exp_decay":
            return GrowthClass.exp_decay(other.rate / 2.0, constant=c), 0.0
        raise AdmissibilityError(
            "infra-exponential factor needs an exponentially decaying partner")
    if "exp_decay" in kinds:
        rate = (g.rate if g.kind == "exp_decay" else 0.0) + \
               (p.rate if p.kind == "exp_decay" else 0.0)
        weight = max(0.0, (g.gamma if g.kind == "tempered" else 0.0) +
                     (p.gamma if p.kind == "tempered" else 0.0))
        return GrowthClass.exp_decay(rate, constant=c), weight
    if "asymptotic" in kinds:
        return GrowthClass.asymptotic(constant=c), 0.0
    # tempered x tempered
    total = g.gamma + p.gamma - f.tail_gain
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


def _pair_lines(f: Hyperfunction1D, phi: TestFunction, spec: ContourSpec):
    """(<f, phi>, error bound): the bracket F_plus phi - F_minus phi on Im z =
    +-eta over |Re z| <= R, R from ``spec`` or ``auto_radius``; the bound
    adds the certified tail past R to the quadrature's error estimate."""
    strip_cap = 0.5 * min(f.strip, phi.strip_halfwidth)
    if not math.isfinite(strip_cap):
        strip_cap = 0.5
    eta = min(spec.imag_offset, strip_cap) if spec.imag_offset > 0 else strip_cap

    def bracket(x):
        z = x + 1j * eta
        zm = z.conj()
        return f.f_plus(z) * phi(z) - f.f_minus(zm) * phi(zm)

    growth, weight = _combined_tail(f, phi.growth)
    radius = (float(spec.truncation_radius) if spec.truncation_radius is not None
              else auto_radius(growth, spec.abs_tol, weight))
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
    """(<f, phi>, error bound): the circle route for delta-like f unless
    ``force_lines``, else the two-line route."""
    spec = spec or ContourSpec()
    if f.is_delta_like and not force_lines:
        radius = 0.45 * min(phi.strip_halfwidth, 1.0)
        return _pair_circle(f, phi, radius, spec.abs_tol)
    return _pair_lines(f, phi, spec)


def scale_pair(f: Hyperfunction1D, phi: TestFunction, lam: float,
               spec: Optional[ContourSpec] = None) -> complex:
    """<f(lam x), phi(x)> = (1/lam) <f(x), phi(x/lam)>."""
    if lam == 0:
        raise ValueError("scale factor must be nonzero")
    if not isinstance(phi.expr, ex.Expr):
        raise TypeError("scale_pair needs an expression test function")
    scaled = ex.scale_argument(phi.expr, 1.0 / lam)
    g = phi.growth
    if g.kind == "exp_decay":
        g = GrowthClass.exp_decay(g.rate / abs(lam), constant=g.constant)
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

    Off the delta-like case, G integrates over the lines w = Re z + u +- i eta
    with u in [-9, 9] (past that window the kernel is below e^(-81)) and
    eta = min(|y|, strip) / 2.  On these translated lines z - w = i(y -+ eta) - u,
    so one kernel row per height, branch and level serves every point at that
    height, and f is evaluated on the shifted nodes.  The rule is degree-16
    Gauss-Legendre panels, doubling from 16 panels until two passes agree
    within 1e-9; past 1024 panels it raises ``ConvergenceError``.

    In the delta-like case G is the trapezoid rule on the circle of radius
    r = min(1, |y|) / 2 around the support point, doubling from 32 nodes to
    the same agreement; past 512 nodes it raises.  The kernel's pole w = z
    lies at least 2r from the centre, so the rule converges geometrically at
    ratio 1/2 per node and stops at 64-128 nodes.
    """
    if not (f.is_delta_like or f.is_asymptotic or f.growth.kind == "tempered"):
        raise AdmissibilityError("standardize needs an asymptotic or tempered input")

    abs_tol = 1e-9
    strip = 0.5 * min(f.strip, 1.0)

    def on_circle(zs, y):
        x0 = f.point_support
        radius = 0.5 * min(1.0, abs(y))

        def evaluate(n):
            theta = 2.0 * math.pi * np.arange(n) / n
            w = x0 + radius * np.exp(1j * theta)
            fw = f.f_plus(w) * (w - x0)
            return -(2j * math.pi / n) * in_row_blocks(
                lambda block: (_std_kernel(block[:, None] - w) * fw).sum(axis=-1), zs, n,
                _STD_BLOCK)

        return refine(evaluate, 32, 512, abs_tol, f"standardized G at Im z = {y:g}",
                      "nodes")[0]

    def on_lines(zs, y):
        eta = 0.5 * min(abs(y), f.strip)

        def evaluate(panels):
            rule = CompositeRule(-_WINDOW, _WINDOW, panels, 16)
            u = rule.points
            kp = _std_kernel(1j * (y - eta) - u) * rule.weights
            km = _std_kernel(1j * (y + eta) - u) * rule.weights
            # a constant branch evaluates to a scalar and is summed once
            return in_row_blocks(lambda x: (
                (f.f_plus(x[:, None] + u + 1j * eta) * kp).sum(axis=-1)
                - (f.f_minus(x[:, None] + u - 1j * eta) * km).sum(axis=-1)),
                zs.real, len(u), _STD_BLOCK)

        return refine(evaluate, 16, 1024, abs_tol, f"standardized G at Im z = {y:g}")[0]

    G = by_height(on_circle if f.is_delta_like else on_lines)
    return Hyperfunction1D(f_plus=G, f_minus=G, strip=strip,
                           growth=f.growth, label=f"std({f.label})",
                           tail_gain=max(f.tail_gain, 1))


# ---------------------------------------------------------------------------
# local operators


def apply_local_operator(op: LocalOperator, f: Hyperfunction1D) -> Hyperfunction1D:
    """J(D) f.  Finite orders act symbolically on the defining functions;
    infinite orders go through the Fourier multiplier route and need an
    asymptotic input."""
    op.check_admissible()
    if op.finite_order is not None:
        if not (isinstance(f.f_plus, ex.Expr) and isinstance(f.f_minus, ex.Expr)):
            raise TypeError("symbolic application needs expression branches")
        return replace(f, f_plus=op.apply_to_expr(f.f_plus),
                       f_minus=op.apply_to_expr(f.f_minus),
                       label=f"{op.label or 'J'}({f.label})")
    if op.tail is None:  # known only through its symbol
        raise AdmissibilityError(f"{op.label or 'J'} has no coefficients to apply")
    if not f.is_asymptotic:
        raise AdmissibilityError(
            "infinite-order operators require an asymptotic hyperfunction")
    from . import spectral

    field_hat = spectral.fourier_transform(f)
    multiplied = spectral.SmoothField(
        lambda xi, order=0: _require_order0(order) or op.symbol(xi) * field_hat(xi),
        growth=GrowthClass.infra_exponential())
    return spectral.inverse_fourier(multiplied, label=f"{op.label or 'J'}({f.label})")


def _require_order0(order):
    if order != 0:
        raise NotImplementedError("multiplied fields expose only order 0")
    return None
