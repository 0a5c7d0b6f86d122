"""Fourier-side calculus: transforms, moments, expansions, multipliers.

The Fourier transform of an asymptotic hyperfunction is an infra-exponential
smooth function, computed here by contour pairing against e^(-i z xi), or in
closed form when the input is delta-like: its Laurent coefficients give the
(point, order, coefficient) terms of a sum of delta derivatives, whose
transform ``delta_sum_field`` builds.  A field computed by quadrature carries
a batch ``table``, which is also its evaluator.  The inverse transform of a
field g keeps g as its ``source`` and pairs by duality, <F^-1 g, phi> =
(1/2 pi) int g(xi) hat phi(-xi) d xi, a trapezoid rule in xi that samples g
through its table; its moments are i^n g^(n)(0).  Its branches, which only
``force_lines`` pairings and direct callers reach, evaluate g where they
need it.  Quadrature transforms and their derivatives come from one
batched composite-rule evaluator: a scalar xi is a batch of one, and
derivative order k inserts (-i z)^k into the integrand, never differencing.
Transforms, inverse branches and the structural f0 evaluate their
exp(+-i t x) sums over composite Gauss-Legendre grids with the factored
kernel ``quad.CompositeRule.exp_sum``.

The special functions here are numpy code.  The 1/xi^2 tail of the
structural f0 is int_a^inf e^(it) / t^2 dt = E2(-ia) / a, with E2(-ia) =
e^(ia) + ia E1(-ia) from the power series of E1 for a <= 2 (DLMF 6.6.2) and
the continued fraction of E2 above (Numerical Recipes, 3rd ed., section 6.3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import expr as ex
from . import hyper as hy
from .growth import GrowthClass
from .hyper import (AdmissibilityError, ContourSpec, Hyperfunction1D,
                    TestFunction, LocalOperator, TWO_PI_I)
from .quad import (CompositeRule, ConvergenceError, _upper_gamma, adaptive_interval,
                   by_height, refine, tail_bound, auto_radius as quad_auto_radius)

__all__ = [
    "SmoothField", "order0", "delta_sum_field", "AsymptoticSum", "fourier_transform",
    "inverse_fourier", "moment", "asymptotic_sum", "parametric_order_check",
    "realize_moments", "build_multiplier",
    "structural_representation",
]


# ---------------------------------------------------------------------------
# smooth fields on the Fourier side


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
    # b_m of a certified envelope |g(xi)| <= sum_m b_m |xi|^m, which then
    # bounds the field's tails (``tail``) in place of its growth
    powers: tuple = ()

    def __call__(self, xi, order: int = 0):
        return self.evaluator(xi, order)

    def tail(self, s: float) -> Callable:
        """X -> a bound of int_X^inf |g(+-xi)| e^(-s xi) d xi, g this field: from
        its powers, sum_m b_m Gamma(m+1, sX) / s^(m+1); else half the two-sided
        ``tail_bound`` of its growth times exp_decay(s) (``hy._combined_tail``),
        which raises ``AdmissibilityError`` when that product is not integrable."""
        if self.powers:
            return lambda X: sum(b * _upper_gamma(m + 1.0, s * X) / s ** (m + 1)
                                 for m, b in enumerate(self.powers) if b)
        growth, weight = hy._combined_tail(self.growth, GrowthClass.exp_decay(s))
        return lambda X: 0.5 * tail_bound(growth, weight, X)

    def pair_inverse(self, phi: TestFunction, spec: ContourSpec):
        """(<f, phi>, error bound) for f = ``inverse_fourier(g)``, g this field,
        by duality: <f, phi> = (1/2 pi) int g(xi) hat phi(-xi) d xi, hat phi
        the ``fourier_transform`` of [phi, 0].

        Moving that transform's line to Im x = -+s, s the height of the
        two-line route, bounds |hat phi(xi)| by M e^(-s |xi|), M the integral
        of phi's declared envelope.  With ``tail(s)`` this certifies the
        integral past |xi| = X, X the ``quad.auto_radius`` of that bound at
        abs_tol.  The trapezoid rule on [-X, X] doubles its intervals
        from 128 through ``refine`` until two levels agree within abs_tol.  g,
        through its ``table`` when it has one, and hat phi are sampled at new
        points only, in one call of each per level, except that the first
        call serves the first two levels.  The bound is that agreement plus
        the tail.
        """
        mass = _envelope_mass(phi.growth)
        g_tail = self.tail(hy._line_height(phi.strip_halfwidth, spec))

        def tail(X):  # both sides, each (M / 2 pi) int_X^inf |g| e^(-s xi)
            return mass / math.pi * g_tail(X)

        X = quad_auto_radius(tail, spec.abs_tol)
        phi_hat = fourier_transform(Hyperfunction1D(
            phi.expr, ex._ZERO, phi.strip_halfwidth, phi.growth, phi.label)).table
        sample = self.table or (lambda xi: self.evaluator(xi, 0))

        def at(xi):
            return sample(xi) * phi_hat(-xi)

        vals = np.empty(0, dtype=complex)  # the integrand on the finest grid sampled

        def level(n):
            nonlocal vals
            if not vals.size:  # the first call samples levels n and 2 n
                vals = at(X * np.linspace(-1.0, 1.0, 2 * n + 1))
            elif len(vals) <= n:  # a later one the new, odd points of level n
                grid = np.empty(n + 1, dtype=complex)
                grid[::2], grid[1::2] = vals, at(X * (np.arange(1, n, 2) * 2.0 / n - 1.0))
                vals = grid
            on = vals[::(len(vals) - 1) // n]
            # (h / 2 pi) times the trapezoid sum, h = 2 X / n
            return (on.sum() - 0.5 * (on[0] + on[-1])) * X / (math.pi * n)

        value, err, _ = refine(level, 128, 1 << 14, spec.abs_tol,
                               f"duality pairing with {phi.label or 'phi'}", "intervals")
        return complex(value), err + tail(X)


def _envelope_mass(growth: GrowthClass) -> float:
    """int C envelope(|x|) dx of a gaussian or exp_decay class; any other
    class raises ``AdmissibilityError``."""
    if growth.kind == "gaussian":
        return growth.constant * math.sqrt(math.pi / growth.rate)
    if growth.kind == "exp_decay":
        return 2.0 * growth.constant / growth.rate
    raise AdmissibilityError(f"the {growth.kind} class declares no decay rate: "
                             "a gaussian or exp_decay envelope is needed")


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
    the means of w^m F(x0 + w) over n nodes w on the circle |w| = 0.4
    min(strip, 1), inside the strip, n doubling from 128 through ``refine``
    until two passes agree within each a_m's rounding floor, 64 eps
    mean|w^m F(x0 + w)| at 128 nodes.  An a_m at or below its floor is zero;
    trailing zeros are dropped."""
    x0 = f.point_support
    radius = 0.4 * min(f.strip, 1.0)
    floor = None

    def in_floors(n):
        nonlocal floor
        w = radius * np.exp(2j * math.pi * np.arange(n) / n)
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
    """hat f(xi) = <f, e^(-i x xi)>.  An inverse transform's is its ``source``
    field g itself.  A one-sided f declares exp_decay at half its strip (0.5
    for an infinite one), with the integral of its own envelope as constant;
    a two-sided f declares infra-exponential growth."""
    if f.source is not None:
        return f.source
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
        growth, weight = hy._combined_tail(f.growth, GrowthClass.tempered(float(order)))
        radius = quad_auto_radius(lambda R: tail_bound(growth, weight, R), 1e-11)
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

    if one_sided:
        # moving the contour to height y, half the strip, under f's declared
        # envelope: |hat f(xi)| <= e^(-y |xi|) int C envelope(|x|) dx
        growth = GrowthClass.exp_decay(hy._line_height(f.strip, ContourSpec()),
                                       constant=_envelope_mass(f.growth))
    else:
        growth = GrowthClass.infra_exponential(
            constant=10.0 * (abs(complex(table(0.0))) + 1.0))
    return SmoothField(table, label=f"ft({f.label})", table=table, growth=growth)


def inverse_fourier(g: SmoothField, label: str = "",
                    abs_tol: float = 1e-10) -> Hyperfunction1D:
    """Hyperfunction with F_plus(z) = (1/2 pi) int_0^X e^(i z xi) g(xi) d xi
    for Im z > 0 and F_minus(z) = -(1/2 pi) int_{-X}^0 for Im z < 0, whose
    ``source`` is g: ``pair`` takes it by duality (``SmoothField.pair_inverse``)
    and ``moment`` from g's derivatives at 0, so only ``force_lines`` and
    callers of the branches themselves evaluate them.

    The half-line integrals converge through the e^(-|Im z| xi) damping plus
    whatever decay g itself has.  Each branch is built with
    ``quad.by_height``: the cutoff X, the damping |Im z| and the start level
    of the degree-16 panel doubling come from the points of one height.  X is
    the ``quad.auto_radius`` at which the tail (1/2 pi) ``g.tail(|Im z|)(X)``
    is at most abs_tol * 1e-2.  The branches evaluate g where they need it.
    """
    def xi_cutoff(eta):
        tail = g.tail(eta)
        return quad_auto_radius(lambda X: tail(X) / (2.0 * math.pi), abs_tol * 1e-1)

    def branch(sign):
        def at_height(zs, y):
            eta = sign * y
            if eta <= 0:
                raise ValueError("branch evaluated on the wrong side of the axis")
            X = xi_cutoff(eta)
            xmax = float(np.max(np.abs(zs.real)))
            lo, hi = (0.0, X) if sign > 0 else (-X, 0.0)

            def evaluate(panels):
                rule = CompositeRule(lo, hi, panels, 16)
                gv = np.asarray(g(rule.points, 0))
                return sign / (2.0 * math.pi) * rule.exp_sum(zs, gv * rule.weights, 1j)

            return refine(evaluate, max(8, int(xmax * X / math.pi) + 1), 1 << 14,
                          abs_tol, f"inverse Fourier branch at Im z = {y:g}")[0]

        return by_height(at_height)

    return Hyperfunction1D(
        f_plus=branch(+1), f_minus=branch(-1), strip=math.inf,
        growth=GrowthClass.asymptotic(), label=label or f"ift({g.label})", source=g)


# ---------------------------------------------------------------------------
# moments and expansions


def moment(f: Hyperfunction1D, n: int, abs_tol: float = 1e-11) -> complex:
    """mu^n(f) = <f, z^n>; requires an asymptotic input.  An inverse transform
    takes i^n g^(n)(0) from its source field g, by duality."""
    if f.source is not None:
        try:
            return 1j ** n * complex(f.source(0.0, n))
        except NotImplementedError:
            raise AdmissibilityError(f"moment {n} of {f.label or 'f'} needs the derivative "
                                     f"of order {n} of its source field "
                                     f"{f.source.label or 'g'}, which it does not expose") from None
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
