"""Fourier-side calculus: transforms, moments, expansions, multipliers.

The Fourier transform of an asymptotic hyperfunction is an infra-exponential
smooth function, computed here by contour pairing against e^(-i z xi), or in
closed form when the input is delta-like: its Laurent coefficients give the
(point, order, coefficient) terms of a sum of delta derivatives, whose
transform ``delta_sum_field`` builds.  A field computed by quadrature carries
a batch ``table``, which is also its evaluator; the inverse transform samples
such a field once and never extrapolates it, and evaluates any other field
where it is needed.  Quadrature transforms and their derivatives come from
one batched composite-rule evaluator: a scalar xi is a batch of one, and
derivative order k inserts (-i z)^k into the integrand, never differencing.
Transforms, inverse branches and the structural f0 evaluate their
exp(+-i t x) sums over composite Gauss-Legendre grids with the factored
kernel ``quad.CompositeRule.exp_sum``.

The interpolation and special functions here are numpy code.  A tabulated
field is the not-a-knot cubic spline on 2048 uniform knots: its knot slopes
solve s_(i-1) + 4 s_i + s_(i+1) = 3 (d_(i-1) + d_i), d the chord slopes, by
the Green's function of that stencil plus its two decaying homogeneous
solutions, weighted to meet the not-a-knot end rows; it is evaluated by
Horner's rule.  The 1/xi^2 tail of the structural f0 is int_a^inf e^(it) / t^2 dt = E2(-ia) / a,
with E2(-ia) = e^(ia) + ia E1(-ia) from the power series of E1 for a <= 2
(DLMF 6.6.2) and the continued fraction of E2 above (Numerical Recipes,
3rd ed., section 6.3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

from . import expr as ex
from . import hyper as hy
from .growth import GrowthClass
from .hyper import (AdmissibilityError, ContourSpec, Hyperfunction1D,
                    TestFunction, LocalOperator, TWO_PI_I)
from .quad import (CompositeRule, ConvergenceError, _upper_gamma, adaptive_interval,
                   by_height, refine, auto_radius as quad_auto_radius)

__all__ = [
    "SmoothField", "order0", "delta_sum_field", "AsymptoticSum", "fourier_transform",
    "inverse_fourier", "moment", "asymptotic_sum", "parametric_order_check",
    "realize_moments", "build_multiplier",
    "structural_representation",
]


# ---------------------------------------------------------------------------
# smooth fields on the Fourier side


_TABLE_KNOTS = 2048  # spline knots of a tabulated field
# points per block of a tabulated field's evaluation: its real temporaries
# (64 KB) stay below glibc's 128 KB default mmap threshold, so they come from
# the heap and are not mapped and faulted in afresh on every call
_TABLE_BLOCK = 8192


_SPLINE_ROOT = math.sqrt(3.0) - 2.0  # root of x^2 + 4x + 1 inside the unit disk
_SPLINE_REACH = 40  # |root|^40 < 2e-23: the Green's function is cut there
# Green's function of s_(i-1) + 4 s_i + s_(i+1) on the integers: root^|k| / (2 sqrt 3)
_SPLINE_GREEN = (_SPLINE_ROOT ** np.abs(np.arange(-_SPLINE_REACH, _SPLINE_REACH + 1))
                 / (2.0 * math.sqrt(3.0)))


@lru_cache(maxsize=None)
def _spline_end_mode(n: int) -> np.ndarray:
    """root^i for i < n, the solution of the interior rows that decays away
    from the first knot; reversed, the one that decays from the last."""
    mode = _SPLINE_ROOT ** np.arange(n)
    mode.flags.writeable = False
    return mode


def _spline_coefficients(lo: float, hi: float, values) -> np.ndarray:
    """Not-a-knot cubic spline through ``values`` at len(values) >= 4 uniform
    knots x_i on [lo, hi]: rows c3, c2, c1, c0 of the (4, n - 1) result are
    the coefficients of (x - x_i)^3, ..., 1 on [x_i, x_(i+1)].

    The knot slopes s solve the interior rows s_(i-1) + 4 s_i + s_(i+1) =
    3 (d_(i-1) + d_i), d the chord slopes, and the end rows s_0 + 2 s_1 =
    (5 d_0 + d_1) / 2 and 2 s_(n-2) + s_(n-1) = (d_(n-3) + 5 d_(n-2)) / 2.
    The Green's function gives a solution of the interior rows; the two
    decaying solutions of their homogeneous form, weighted to meet the end
    rows, complete it.
    """
    y = np.asarray(values, dtype=complex)
    n = len(y)
    h = (hi - lo) / (n - 1)
    chord = np.diff(y) / h
    inner = np.zeros(n, dtype=complex)
    inner[1:-1] = 3.0 * (chord[:-1] + chord[1:])
    slope = np.convolve(inner, _SPLINE_GREEN)[_SPLINE_REACH:_SPLINE_REACH + n]
    first = _spline_end_mode(n)
    last = first[::-1]
    rows = np.array([[first[0] + 2.0 * first[1], last[0] + 2.0 * last[1]],
                     [2.0 * first[-2] + first[-1], 2.0 * last[-2] + last[-1]]])
    misses = np.array([0.5 * (5.0 * chord[0] + chord[1]) - slope[0] - 2.0 * slope[1],
                       0.5 * (chord[-2] + 5.0 * chord[-1]) - 2.0 * slope[-2] - slope[-1]])
    a, b = np.linalg.solve(rows, misses)
    slope = slope + a * first + b * last
    t = (slope[:-1] + slope[1:] - 2.0 * chord) / h
    return np.stack([t / h, (chord - slope[:-1]) / h - t, slope[:-1], y[:-1]])


def order0(fn: Callable) -> Callable:
    """(xi, order) -> fn(xi) for a field known only at order 0."""
    def evaluator(xi, order=0):
        if order:
            raise NotImplementedError("this field exposes only order 0")
        return fn(xi)

    return evaluator


@dataclass(frozen=True)
class SmoothField:
    """Evaluator xi -> complex, with the derivative orders it supports; a
    field computed by quadrature has a ``table``, a closed form has none."""

    evaluator: Callable  # (xi, order) -> complex / array
    growth: GrowthClass = GrowthClass.infra_exponential()
    label: str = ""
    table: Optional[Callable] = None  # vectorized evaluation on a batch of xi
    # b_m of a certified envelope |g(xi)| <= sum_m b_m |xi|^m, which then sets
    # the inverse transform's cutoff in place of the growth constant
    powers: tuple = ()

    def __call__(self, xi, order: int = 0):
        return self.evaluator(xi, order)

    def tabulate(self, lo: float, hi: float) -> "SmoothField":
        """Order-0 copy backed by a cubic spline on [lo, hi]; it raises
        ``ValueError`` for any xi outside."""
        grid = np.linspace(lo, hi, _TABLE_KNOTS)
        coef = _spline_coefficients(lo, hi, self.evaluator(grid, 0))
        re, im = np.ascontiguousarray(coef.real), np.ascontiguousarray(coef.imag)
        h = (hi - lo) / (_TABLE_KNOTS - 1)

        def spline(xi):
            x = np.ravel(np.real(xi))
            if x.size and not (lo <= x.min() and x.max() <= hi):  # NaN fails too
                raise ValueError(f"tabulated field {self.label!r} is known on "
                                 f"[{lo:g}, {hi:g}] only")
            out = np.empty(len(x), dtype=complex)
            for start in range(0, len(x), _TABLE_BLOCK):
                xb = x[start:start + _TABLE_BLOCK]
                i = ((xb - lo) * (1.0 / h)).astype(np.intp)
                np.minimum(i, _TABLE_KNOTS - 2, out=i)
                dx = xb - grid.take(i)
                for part, (c3, c2, c1, c0) in ((out.real, re), (out.imag, im)):
                    acc = c3.take(i)  # Horner in place, on real arrays
                    for c in (c2, c1, c0):
                        acc *= dx
                        acc += c.take(i)
                    part[start:start + _TABLE_BLOCK] = acc
            return out.reshape(np.shape(xi))

        return SmoothField(order0(spline), growth=self.growth, label=f"tab({self.label})")


@dataclass(frozen=True)
class AsymptoticSum:
    """S^N = sum c_n delta^(n) with c_n = (-1)^n mu_n / n!."""

    order: int
    moments: tuple
    label: str = ""

    @property
    def coefficients(self):
        return tuple((-1) ** n * self.moments[n] / math.factorial(n)
                     for n in range(self.order + 1))

    def realize(self) -> Hyperfunction1D:
        """The delta-combination as one delta-like hyperfunction at 0."""
        return hy.delta_combination([(0.0, n, c) for n, c in enumerate(self.coefficients)],
                                    label=f"S^{self.order}({self.label})")


# ---------------------------------------------------------------------------
# Laurent data of delta-like hyperfunctions (closed-form transform route)


def _laurent_coefficients(f: Hyperfunction1D):
    """Coefficients a_m of (z - x0)^(-m), m = 1..64, of the defining function:
    the means of w^m F(x0 + w) over n nodes w on the circle |w| = 0.4, n
    doubling from 128 through ``refine`` until two passes agree within each
    a_m's rounding floor, 64 eps mean|w^m F(x0 + w)| at 128 nodes.  An a_m at
    or below its floor is zero; trailing zeros are dropped."""
    x0 = f.point_support
    floor = None

    def in_floors(n):
        nonlocal floor
        w = 0.4 * np.exp(2j * math.pi * np.arange(n) / n)
        terms = w[None, :] ** np.arange(1, 65)[:, None] * f.f_plus(x0 + w)[None, :]
        if floor is None:
            floor = np.maximum(64 * hy._EPS * np.abs(terms).mean(axis=1), 1e-300)
        return terms.mean(axis=1) / floor

    what = f"Laurent coefficients at {x0:g}, in units of their rounding floors,"
    scaled = refine(in_floors, 128, 1 << 13, 1.0, what, "nodes")[0]
    return x0, np.trim_zeros(np.where(np.abs(scaled) > 1.0, scaled * floor, 0.0), "b")


def delta_sum_field(terms, label: str) -> SmoothField:
    """Closed-form transform of sum c delta^(m)(x - a) over (a, m, c) terms:
    hat(xi) = sum c (i xi)^m e^(-i a xi), one polynomial in i xi per point a,
    and its derivative of order q by Leibniz's rule.  Its ``powers`` are
    b_m = sum |c| over the terms of order m, so |hat(xi)| <= sum_m b_m |xi|^m.
    """
    polys, powers = {}, []
    for a, m, c in terms:
        for row, v in ((polys.setdefault(a, []), c), (powers, abs(c))):
            row.extend([0] * (m + 1 - len(row)))
            row[m] += v
    polys = {a: np.array(p, dtype=complex) for a, p in polys.items()}
    P = np.polynomial.polynomial

    def hat(xi, order=0):
        xi = np.asarray(xi, dtype=float)
        total = np.zeros(xi.shape, dtype=complex)
        for a, p in polys.items():
            # the q-th derivative of P(i xi) e^(-i a xi) is
            # sum_j C(q, j) i^j P^(j)(i xi) (-i a)^(q-j) e^(-i a xi)
            part = sum(math.comb(order, j) * 1j ** j * (-1j * a) ** (order - j)
                       * P.polyval(1j * xi, P.polyder(p, j))
                       for j in (range(order + 1) if a else (order,)) if j < len(p))
            total = total + (part * np.exp(-1j * a * xi) if a else part)
        return total

    return SmoothField(hat, label=label, powers=tuple(powers))


# ---------------------------------------------------------------------------
# transforms


def fourier_transform(f: Hyperfunction1D) -> SmoothField:
    """hat f(xi) = <f, e^(-i x xi)>; infra-exponential smooth output."""
    if not f.is_asymptotic:
        raise AdmissibilityError(
            "fourier_transform accepts asymptotic inputs only; tempered "
            "transforms are finite-order distributions, out of numeric scope")
    if f.is_delta_like:
        x0, a = _laurent_coefficients(f)  # a[n] = a_(n+1) gives the delta^(n) term
        return delta_sum_field([(x0, n, -TWO_PI_I * (-1) ** n * a[n] / math.factorial(n))
                                for n in range(len(a))], f"ft({f.label})")

    eta = 0.4 * min(f.strip, 1.0)
    # One vanishing branch means f continues across the axis, so each
    # integration contour can sit on the side where e^(-i z xi) decays; this
    # avoids the e^(eta |xi|) cancellation blowup, and the transform then
    # genuinely decays at the contour rate.  Two-sided pairs (delta is the
    # model case) are only infra-exponential and handled elsewhere.
    plus_zero = isinstance(f.f_plus, ex.Expr) and ex._is_const(ex.simplify(f.f_plus), 0)
    minus_zero = isinstance(f.f_minus, ex.Expr) and ex._is_const(ex.simplify(f.f_minus), 0)
    one_sided = plus_zero or minus_zero

    def table(xis, order=0):
        """hat f^(order) on one shared oscillation-resolving grid for a whole
        batch of xi; the derivative order is the factor (-iz)^order of both
        branch amplitudes.  A non-finite xi raises ``ValueError``."""
        xis = np.asarray(xis, dtype=float)
        if not np.all(np.isfinite(xis)):
            raise ValueError(f"Fourier table of {f.label or 'f'} at a non-finite xi")
        xi_peak = max(1.0, float(np.max(np.abs(xis))))
        growth, weight = hy._combined_tail(f, GrowthClass.tempered(float(order)))
        radius = quad_auto_radius(growth, 1e-11, weight)
        flat = xis.ravel()
        groups = ([(flat > 0, -eta, -eta), (flat <= 0, eta, eta)]
                  if one_sided else [(np.ones(flat.shape, bool), eta, -eta)])

        def evaluate(panels):
            rule = CompositeRule(-radius, radius, panels, 8)
            x = rule.points

            def amplitude(branch, z):
                a = branch(z) * rule.weights
                return a * (-1j * z) ** order if order else a

            res = np.empty(flat.shape, dtype=complex)
            for mask, s_p, s_m in groups:
                sub = flat[mask]
                if not sub.size:
                    continue
                # exp(-i xi (x + i s)) = exp(xi s) exp(-i xi x)
                amps, shifts = [], []
                if not plus_zero:
                    amps.append(amplitude(f.f_plus, x + 1j * s_p))
                    shifts.append(s_p)
                if not minus_zero:
                    amps.append(-amplitude(f.f_minus, x + 1j * s_m))
                    shifts.append(s_m)
                sums = rule.exp_sum(sub, np.array(amps), -1j)
                res[mask] = sum(np.exp(sub * s) * row for s, row in zip(shifts, sums))
            return res.reshape(xis.shape)

        cap = 1 << 16
        start = max(64, int(min(radius * xi_peak / math.pi, cap)) + 1)  # past cap: raise
        return refine(evaluate, start, cap, 1e-10,
                      f"Fourier table (|xi| up to {xi_peak:g})")[0]

    scale = abs(complex(table(0.0))) + 1.0
    growth = (GrowthClass.exp_decay(eta, constant=10.0 * scale) if one_sided
              else GrowthClass.infra_exponential(constant=10.0 * scale))
    return SmoothField(table, label=f"ft({f.label})", table=table, growth=growth)


def inverse_fourier(g: SmoothField, label: str = "",
                    abs_tol: float = 1e-10) -> Hyperfunction1D:
    """Hyperfunction with F_plus(z) = (1/2 pi) int_0^X e^(i z xi) g(xi) d xi
    for Im z > 0 and F_minus(z) = -(1/2 pi) int_{-X}^0 for Im z < 0.

    The half-line integrals converge through the e^(-|Im z| xi) damping plus
    whatever decay g itself has.  Each branch is built with
    ``quad.by_height``: the cutoff X, the damping |Im z| and the start level
    of the degree-16 panel doubling come from the points of one height.
    A field with ``powers`` b_m takes the smallest X, to a relative 1e-3,
    whose tail (1/2 pi) sum_m b_m Gamma(m+1, rate X) / rate^(m+1) is at most
    abs_tol * 1e-2; any other field the X where its growth constant times
    e^(-rate X) is.  A field with a ``table`` is sampled once, into a spline
    on [-X0, X0] with X0 the cutoff at height 0.05, and never extrapolated:
    a branch whose cutoff passes X0 raises ``ConvergenceError``.
    """
    base_rate = g.growth.rate if g.growth.kind == "exp_decay" else 0.0

    def power_tail(x, rate):
        return sum(b * _upper_gamma(m + 1.0, rate * x) / rate ** (m + 1)
                   for m, b in enumerate(g.powers) if b) / (2.0 * math.pi)

    @lru_cache(maxsize=None)
    def xi_cutoff(eta):
        rate = base_rate + eta
        if rate <= 0:
            raise AdmissibilityError("half-line integral diverges on the axis")
        target = abs_tol * 1e-2
        if not g.powers:
            return math.log(max(g.growth.constant, 1.0) / target) / rate
        lo, hi = 0.0, 1.0 / rate
        while power_tail(hi, rate) > target:
            lo, hi = hi, 2.0 * hi
        while hi - lo > 1e-3 * hi:
            mid = 0.5 * (lo + hi)
            lo, hi = (lo, mid) if power_tail(mid, rate) <= target else (mid, hi)
        return hi

    gg, X0 = g, math.inf
    if g.table is not None:
        X0 = xi_cutoff(0.05)
        gg = g.tabulate(-X0, X0)

    def branch(sign):
        def at_height(zs, y):
            eta = sign * y
            if eta <= 0:
                raise ValueError("branch evaluated on the wrong side of the axis")
            X = xi_cutoff(eta)
            if X > X0:
                raise ConvergenceError(
                    f"inverse Fourier branch at Im z = {y:g} needs |xi| up to {X:g}, "
                    f"past the cutoff {X0:g} of its table of {g.label or 'g'}")
            xmax = float(np.max(np.abs(zs.real)))
            lo, hi = (0.0, X) if sign > 0 else (-X, 0.0)

            def evaluate(panels):
                rule = CompositeRule(lo, hi, panels, 16)
                gv = np.asarray(gg(rule.points, 0))
                return sign / (2.0 * math.pi) * rule.exp_sum(zs, gv * rule.weights, 1j)

            return refine(evaluate, max(8, int(xmax * X / math.pi) + 1), 1 << 14,
                          abs_tol, f"inverse Fourier branch at Im z = {y:g}")[0]

        return by_height(at_height)

    return Hyperfunction1D(
        f_plus=branch(+1), f_minus=branch(-1), strip=math.inf,
        growth=GrowthClass.asymptotic(),
        label=label or f"ift({g.label})")


# ---------------------------------------------------------------------------
# moments and expansions


def moment(f: Hyperfunction1D, n: int, abs_tol: float = 1e-11) -> complex:
    """mu^n(f) = <f, z^n>; requires an asymptotic input."""
    if not f.is_asymptotic:
        raise AdmissibilityError("moments require an asymptotic hyperfunction")
    phi = TestFunction(ex.Pow(ex.Var("z"), n) if n else ex._ONE,
                       strip_halfwidth=math.inf,
                       growth=GrowthClass.tempered(float(n)))
    return hy.pair(f, phi, ContourSpec(abs_tol=abs_tol))


def moment_sequence(f: Hyperfunction1D, N: int, **kw) -> tuple:
    return tuple(moment(f, n, **kw) for n in range(N + 1))


def asymptotic_sum(f: Hyperfunction1D, N: int) -> AsymptoticSum:
    return AsymptoticSum(order=N, moments=tuple(moment(f, n) for n in range(N + 1)),
                         label=f.label)


def remainder_moments(f: Hyperfunction1D, s: AsymptoticSum) -> tuple:
    """Moments 0..N of f - S^N, both sides evaluated by quadrature."""
    r = s.realize()
    return tuple(moment(f, k) - moment(r, k) for k in range(s.order + 1))


@dataclass(frozen=True)
class SlopeFit:
    slope: Optional[float]
    residuals: tuple  # (lambda, |r|) pairs
    vacuous: bool


def parametric_order_check(f: Hyperfunction1D, phi: TestFunction, N: int,
                           lambdas: Sequence[float] = (4, 8, 16, 32, 64)) -> SlopeFit:
    """Fit of log|remainder| against log lambda for the scaled pairing.

    r(lambda) = <f(lambda x), phi> - sum_{n<=N} mu^n phi^(n)(0) / (n! lambda^(n+1)).
    Remainders at or below 1e-12 are rounding noise and left out of the fit.
    """
    mus = [moment(f, n, abs_tol=1e-13) for n in range(N + 1)]
    derivs = [phi.derivative_at(0.0, n) for n in range(N + 1)]
    spec = ContourSpec(abs_tol=1e-13)
    pts = []
    for lam in lambdas:
        s = hy.scale_pair(f, phi, float(lam), spec)
        model = sum(mus[n] * derivs[n] / (math.factorial(n) * lam ** (n + 1))
                    for n in range(N + 1))
        pts.append((float(lam), abs(s - model)))
    live = [(l, r) for (l, r) in pts if r > 1e-12]
    if len(live) < 2:
        return SlopeFit(slope=None, residuals=tuple(pts), vacuous=True)
    logs = np.log([l for l, _ in live])
    logr = np.log([r for _, r in live])
    slope = float(np.polyfit(logs, logr, 1)[0])
    return SlopeFit(slope=slope, residuals=tuple(pts), vacuous=False)


# ---------------------------------------------------------------------------
# moment realization


@dataclass(frozen=True)
class Realization:
    hyperfunction: Hyperfunction1D
    a_coefficients: tuple
    condition: float


def realize_moments(mu, label: str = "realized") -> Realization:
    """Schwartz function with the given moments 0..N.

    Ansatz hat f(xi) = (sum a_k xi^k) e^(-xi^2); the Taylor conditions
    hat f^(n)(0) = (-i)^n mu^n form a unit-diagonal triangular system.  The
    function itself is assembled in closed form,
    f(x) = sum a_k (-i)^k (d/dx)^k [e^(-x^2/4) / (2 sqrt(pi))].
    """
    values = tuple(mu)
    N = len(values) - 1
    a = [0j] * (N + 1)
    for n in range(N + 1):
        acc = (-1j) ** n * complex(values[n]) / math.factorial(n)
        m = 1
        while n - 2 * m >= 0:
            acc -= a[n - 2 * m] * (-1.0) ** m / math.factorial(m)
            m += 1
        a[n] = acc
    base = ex.Mul(ex.Const(complex(1.0 / (2.0 * math.sqrt(math.pi)))),
                  ex.Call("gaussian", ex.Mul(ex.Const(0.5 + 0j), ex.Var("z"))))
    total = ex._ZERO
    for k, ak in enumerate(a):
        if ak == 0:
            continue
        total = ex.Add(total, ex.Mul(ex.Const(complex(ak) * (-1j) ** k),
                                     ex.differentiate(base, k)))
    total = ex.simplify(total)
    const = 1.0
    for r in (5.0, 10.0, 20.0):
        for x in (r, -r):
            const = max(const, 1.5 * abs(complex(np.asarray(
                ex.evaluate(total, complex(x))))) * math.exp(r))
    f = hy.embed_real_analytic(total, strip=math.inf,
                               growth=GrowthClass.exp_decay(1.0, constant=const),
                               label=label)
    amax = max(abs(x) for x in a) or 1.0
    amin = min((abs(x) for x in a if x != 0), default=1.0)
    return Realization(hyperfunction=f, a_coefficients=tuple(a),
                       condition=amax / amin)


# ---------------------------------------------------------------------------
# infra-exponential multipliers


_MULTIPLIER_TARGET = 1e-16  # (zeta_max / m_K)^2 the automatic K aims for
_MULTIPLIER_CAP = 200000  # the automatic K stops growing at its first value past this


@dataclass(frozen=True)
class MultiplierReport:
    K_terms: int
    min_ratio: float
    c_fitted: float
    sign_flip: bool
    samples: tuple
    tail_ratio: float  # (zeta_max / m_K)^2 at the last factor, m_k = k phi(k)
    converged: bool  # tail_ratio <= _MULTIPLIER_TARGET


def build_multiplier(phi_table: Callable[[float], float],
                     zeta_max: float = 10.0) -> MultiplierReport:
    """Truncated product J(zeta) = prod_k (1 + zeta^2 / (k phi(k))^2), k <= K.

    K grows until (zeta_max / m_K)^2 <= 1e-16 or K passes 200000; the report
    carries the ratio reached and whether it met 1e-16.  It samples the lower
    bound |J(zeta)| e^(-c |zeta| / phi(|zeta|+1)) on the rays arg zeta = 0,
    +-30 degrees, inside |Im zeta| <= max(|Re zeta|/sqrt(3), 1).
    """
    probe = [phi_table(float(k)) for k in range(1, 51)]
    if any(p <= 0 for p in probe) or any(b < a - 1e-12 for a, b in zip(probe, probe[1:])):
        raise ValueError("phi_table must be positive and monotone increasing")
    K_terms = 1
    while K_terms < _MULTIPLIER_CAP:
        r = zeta_max / (K_terms * phi_table(float(K_terms)))
        if r * r <= _MULTIPLIER_TARGET:  # r ** 2 would raise on overflow
            break
        K_terms += max(1, K_terms // 8)
    r = zeta_max / (K_terms * phi_table(float(K_terms)))
    tail_ratio = r * r
    ms = np.array([k * phi_table(float(k)) for k in range(1, K_terms + 1)])
    inv_m2 = 1.0 / ms ** 2
    # |1 + zeta^2 / m^2| <= 1 + |zeta|^2 / m^2, so J(zeta_max) bounds every sample
    log_peak = float(np.logaddexp(0.0, 2.0 * (math.log(zeta_max) - np.log(ms))).sum())
    if log_peak > math.log(np.finfo(float).max):
        raise OverflowError(f"|J(zeta)| reaches e^{log_peak:.4g} for |zeta| <= "
                            f"{zeta_max:g}, past double precision")

    def symbol(zeta):
        z2 = np.asarray(zeta) ** 2
        out = np.ones(np.shape(z2), dtype=complex)
        for start in range(0, len(inv_m2), 4096):
            chunk = inv_m2[start:start + 4096]
            out = out * np.prod(1.0 + np.multiply.outer(z2, chunk), axis=-1)
        return out if np.ndim(zeta) else complex(out)

    # lower-bound sampling on the validity region
    samples = []
    sign_flip = False
    ts = np.linspace(0.5, zeta_max, 12)
    dirs = [1.0, np.exp(1j * math.pi / 6.0), np.exp(-1j * math.pi / 6.0)]
    for t in ts:
        for d in dirs:
            zeta = t * d
            Jv = symbol(zeta)
            if Jv.real < 0:
                sign_flip = True
            samples.append((complex(zeta), complex(Jv)))
    rates = [math.log(max(abs(Jv), 1e-300)) * phi_table(abs(z) + 1.0) / abs(z)
             for z, Jv in samples]
    c = 0.5 * min(rates)
    ratios = [abs(Jv) * math.exp(-c * abs(z) / phi_table(abs(z) + 1.0))
              for z, Jv in samples]
    return MultiplierReport(K_terms=K_terms, min_ratio=min(ratios),
                            c_fitted=c, sign_flip=sign_flip, samples=tuple(samples),
                            tail_ratio=tail_ratio,
                            converged=tail_ratio <= _MULTIPLIER_TARGET)


# ---------------------------------------------------------------------------
# structural representation f = (1 - D^2) f0


_EULER_GAMMA = 0.57721566490153286061


def _e2_imaginary(a):
    """E2(-ia) = a int_a^inf e^(it) / t^2 dt for an array a >= 0.

    For a <= 2, E2(-ia) = e^(ia) + ia E1(-ia) with the power series
    E1(-ia) = -gamma - ln a + i pi/2 - sum_(k>=1) (ia)^k / (k k!), 40 terms;
    above, the continued fraction E2(z) = e^(-z) / (z + 2 - 1*2 / (z + 4 -
    2*3 / (z + 6 - ...))) at depth 100, summed from its tail.  Each entry
    takes the same fixed number of steps, so it does not depend on the rest
    of the array; the relative error is below 1e-14 (mpmath).
    """
    a = np.asarray(a, dtype=float)
    out = np.ones(a.shape, dtype=complex)  # E2(0) = 1
    small = (a > 0) & (a <= 2.0)
    s = a[small]
    term, series = np.ones(s.shape, dtype=complex), np.zeros(s.shape, dtype=complex)
    for k in range(1, 41):
        term = term * (1j * s / k)
        series = series + term / k
    e1 = -_EULER_GAMMA - np.log(s) + 0.5j * math.pi - series
    out[small] = np.exp(1j * s) + 1j * s * e1
    large = a > 2.0
    z = -1j * a[large]
    tail = np.zeros(z.shape, dtype=complex)
    for k in range(100, 0, -1):
        tail = k * (k + 1) / (z + (2 * k + 2) - tail)
    out[large] = np.exp(-z) / (z + 2 - tail)
    return out


def _tail_kernel(x, xi_max):
    """I(x) = int_{xi_max}^inf e^(i x xi) / xi^2 d xi = E2(-i x xi_max) / xi_max
    for an array x, in closed form (the conjugate for x < 0)."""
    k = _e2_imaginary(np.abs(x) * xi_max) / xi_max
    return np.where(x >= 0, k, k.conj())


@dataclass(frozen=True)
class StructuralRep:
    x_grid: np.ndarray
    f0_values: np.ndarray
    f0: Callable
    xi_max: float

    def reconstruct_pairing(self, phi: TestFunction) -> complex:
        """int f0 ((1 - D^2) phi) dx to abs_tol 1e-8, 1 - D^2 being its own
        adjoint; should match pair(f, phi) of the input f."""
        if not isinstance(phi.expr, ex.Expr):
            raise TypeError("verification needs an expression test function")
        combined = LocalOperator((1.0, 0.0, -1.0)).apply_to_expr(phi.expr)
        lim = float(self.x_grid[-1])

        def integrand(x):
            return self.f0(x) * ex.evaluate(combined, {"z": x + 0j})

        val, _, _ = adaptive_interval(integrand, -lim, lim, 1e-8,
                                      f"structural pairing with {phi.label or 'phi'}")
        return complex(val)


def structural_representation(f: Hyperfunction1D) -> StructuralRep:
    """f = (1 - D^2) f0 with continuous f0 sampled on a grid.

    f0(x + a), a the point support of a delta-like f (else 0), is the inverse
    transform of e^(i a xi) hat f / (1 + xi^2); past the cutoff that quotient
    is modelled as c/xi^2, whose analytic 1/xi^2 tail correction keeps the
    oscillatory grid integral short.  The cutoff xi_max doubles from 16 until
    the quotient or its tail model is within 1e-6, and ``ConvergenceError`` is
    raised once it passes 1e5.  f0 is sampled at 141 points on [-14, 14]; its
    degree-10 panels double through ``refine`` from half of max(64, 2 14
    xi_max / pi) until two passes agree within 1e-6.
    """
    if not f.is_asymptotic:
        raise AdmissibilityError(
            "structural_representation requires an asymptotic input "
            "(tempered transforms are finite-order distributions)")
    field = fourier_transform(f)
    x_max, grid_n, abs_tol = 14.0, 141, 1e-6
    a = f.point_support or 0.0

    def fhat0(xi):  # the transform of f0(x + a)
        q = np.asarray(field(xi, 0)) / (1.0 + np.asarray(xi) ** 2)
        return q * np.exp(1j * a * np.asarray(xi)) if a else q

    # domination check: the quotient must stay bounded going out
    r0 = abs(complex(np.asarray(fhat0(0.0)))) + 1.0
    for probe in (8.0, 16.0, 32.0):
        if abs(complex(np.asarray(fhat0(probe)))) > 10.0 * r0:
            raise AdmissibilityError("1 + xi^2 does not dominate the transform")

    xi_max = 16.0
    while xi_max < 1e5:
        vp, vm = (complex(np.asarray(fhat0(s * xi_max))) for s in (1.0, -1.0))
        if abs(vp) * xi_max <= abs_tol and abs(vm) * xi_max <= abs_tol:
            break
        # otherwise stop once the c/xi^2 tail model has stabilized, since
        # the remaining tail is handled analytically below
        vp2, vm2 = (complex(np.asarray(fhat0(s * xi_max))) for s in (2.0, -2.0))
        drift = (abs(vp * xi_max ** 2 - vp2 * 4.0 * xi_max ** 2)
                 + abs(vm * xi_max ** 2 - vm2 * 4.0 * xi_max ** 2))
        if drift / xi_max <= abs_tol:
            break
        xi_max *= 2.0
    else:
        raise ConvergenceError(
            f"structural cutoff for {f.label or 'f'}: hat f / (1 + xi^2) and its "
            f"c/xi^2 tail model did not settle to abs_tol={abs_tol:g} below xi_max = 1e5")

    c_plus, c_minus = vp * xi_max ** 2, vm * xi_max ** 2
    grid = np.linspace(-x_max, x_max, grid_n)
    panels = max(64, int(2 * x_max * xi_max / math.pi))  # at level 2; level 1 has half
    f0_at = {}

    def on_grid(level):
        rule = CompositeRule(-xi_max, xi_max, level * panels // 2, 10)
        wg = rule.weights * np.asarray(fhat0(rule.points))

        def f0(x):
            xr = np.atleast_1d(np.real(np.asarray(x))).astype(float)
            tail = _tail_kernel(xr - a, xi_max)  # I(-x) is its conjugate
            vals = rule.exp_sum(xr - a, wg, 1j) + (c_plus * tail + c_minus * tail.conj())
            vals = vals / (2.0 * math.pi)
            return vals if np.ndim(x) else complex(vals[0])

        f0_at[level] = f0
        return f0(grid)

    f0_vals, _, level = refine(on_grid, 1, 8, abs_tol, "structural f0 grid",
                               f"halves of its {panels} panels")

    return StructuralRep(x_grid=grid,
                         f0_values=f0_vals, f0=f0_at[level], xi_max=xi_max)
