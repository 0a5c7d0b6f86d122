"""Fourier-side calculus: transforms, moments, expansions, multipliers.

The Fourier transform of an asymptotic hyperfunction is an infra-exponential
smooth function, computed here by contour pairing against e^(-i z xi), or in
closed form from the Laurent coefficients when the input is delta-like.
Transforms and their derivatives come from one batched composite-rule
evaluator: a scalar xi is a batch of one, and derivative order k inserts
(-i z)^k into the integrand, never differencing.  Transforms, inverse
branches and the structural f0 evaluate their exp(+-i t x) sums over
composite Gauss-Legendre grids with the factored kernel
``quad.CompositeRule.exp_sum``.

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
from .quad import (CompositeRule, adaptive_interval, by_height, refine,
                   auto_radius as quad_auto_radius)

__all__ = [
    "SmoothField", "AsymptoticSum", "fourier_transform",
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


@dataclass(frozen=True)
class SmoothField:
    """Evaluator xi -> complex, with the derivative orders it supports."""

    evaluator: Callable  # (xi, order) -> complex / array
    growth: GrowthClass = GrowthClass.infra_exponential()
    label: str = ""
    cheap: bool = False  # True when evaluation is closed-form, not quadrature
    table: Optional[Callable] = None  # vectorized evaluation on a batch of xi

    def __call__(self, xi, order: int = 0):
        return self.evaluator(xi, order)

    def tabulate(self, lo: float, hi: float) -> "SmoothField":
        """Order-0 copy backed by a cubic spline on [lo, hi], constant beyond."""
        grid = np.linspace(lo, hi, _TABLE_KNOTS)
        coef = _spline_coefficients(lo, hi, self.evaluator(grid, 0))
        re, im = np.ascontiguousarray(coef.real), np.ascontiguousarray(coef.imag)
        h = (hi - lo) / (_TABLE_KNOTS - 1)

        def evaluator(xi, order=0):
            if order:
                raise NotImplementedError("tabulated fields expose only order 0")
            x = np.clip(np.ravel(np.real(xi)), lo, hi)
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

        return SmoothField(evaluator, growth=self.growth, label=f"tab({self.label})",
                           cheap=True)


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
        return hy.delta_combination(dict(enumerate(self.coefficients)),
                                    label=f"S^{self.order}({self.label})")


# ---------------------------------------------------------------------------
# Laurent data of delta-like hyperfunctions (closed-form transform route)


def _laurent_coefficients(f: Hyperfunction1D):
    """Coefficients a_m of (z - x0)^(-m), m = 1..64, of the defining function,
    on a circle of radius 0.4; trailing ones below 1e-15 are dropped."""
    x0 = f.point_support
    n, m_max, tol = 1024, 64, 1e-15
    theta = 2.0 * math.pi * np.arange(n) / n
    w = 0.4 * np.exp(1j * theta)
    fv = f.f_plus(x0 + w)
    ms = np.arange(1, m_max + 1)
    # a_m = (1/2 pi i) contour integral F (z-x0)^(m-1) dz, trapezoid rule
    a = (w[None, :] ** ms[:, None] * fv[None, :]).mean(axis=1)
    keep = m_max
    while keep > 1 and abs(a[keep - 1]) < tol and abs(a[keep - 2]) < tol:
        keep -= 1
    return x0, a[:keep]


def _delta_like_hat(f: Hyperfunction1D):
    """Closed-form transform: hat f(xi) = -2 pi i Res(F(z) (-iz)^q e^(-iz xi)).

    The residue is sum_l a_(l+1) T_l, T_l the l-th Taylor coefficient of
    (-iz)^q e^(-iz xi) at x0, i.e. e^(-i x0 xi) sum_j D_j (-i xi)^(l-j) /
    (j! (l-j)!) with D_j the j-th derivative of (-iz)^q at x0.  Grouped by
    j, each inner sum is one polynomial in -i xi, evaluated by Horner.
    """
    x0, a = _laurent_coefficients(f)
    M = len(a)
    inv_fact = np.array([1.0 / math.factorial(n) for n in range(M)])

    def hat(xi, order=0):
        xi = np.asarray(xi, dtype=float)
        q = order
        w = -1j * xi
        total = np.zeros(np.shape(xi), dtype=complex)
        for j in range(min(q, M - 1) + 1):
            poly = ((-1j) ** q * math.factorial(q) / math.factorial(q - j)
                    * x0 ** (q - j)) if (x0 != 0 or q == j) else 0.0
            if poly == 0:
                continue
            total = total + poly / math.factorial(j) * np.polynomial.polynomial.polyval(
                w, a[j:] * inv_fact[:M - j])
        if x0 != 0:
            total = total * np.exp(-1j * x0 * xi)
        return -TWO_PI_I * total

    return hat


# ---------------------------------------------------------------------------
# transforms


def fourier_transform(f: Hyperfunction1D) -> SmoothField:
    """hat f(xi) = <f, e^(-i x xi)>; infra-exponential smooth output."""
    if not f.is_asymptotic:
        raise AdmissibilityError(
            "fourier_transform accepts asymptotic inputs only; tempered "
            "transforms are finite-order distributions, out of numeric scope")
    if f.is_delta_like:
        return SmoothField(_delta_like_hat(f), label=f"ft({f.label})", cheap=True)

    eta = 0.4 * min(f.strip, 1.0)
    # One vanishing branch means f continues across the axis, so each
    # integration contour can sit on the side where e^(-i z xi) decays; this
    # avoids the e^(eta |xi|) cancellation blowup, and the transform then
    # genuinely decays at the contour rate.  Two-sided pairs (delta is the
    # model case) are only infra-exponential and handled elsewhere.
    plus_zero = isinstance(f.f_plus, ex.Expr) and ex._is_const(ex.simplify(f.f_plus), 0)
    minus_zero = isinstance(f.f_minus, ex.Expr) and ex._is_const(ex.simplify(f.f_minus), 0)
    one_sided = plus_zero or minus_zero

    def radius_for(order):
        growth, weight = hy._combined_tail(f, GrowthClass.tempered(float(order)))
        return quad_auto_radius(growth, 1e-11, weight)

    def table(xis, order=0):
        """hat f^(order) on one shared oscillation-resolving grid for a whole
        batch of xi; the derivative order is the factor (-iz)^order of both
        branch amplitudes."""
        xis = np.asarray(xis, dtype=float)
        xi_peak = max(1.0, float(np.max(np.abs(xis))))
        radius = radius_for(order)
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

        start = max(64, int(radius * xi_peak / math.pi) + 1)
        return refine(evaluate, start, 1 << 16, 1e-10,
                      f"Fourier table (|xi| up to {xi_peak:g})")[0]

    def hat(xi, order=0):
        if np.ndim(xi):
            return table(xi, order)
        return complex(table(np.array([float(xi)]), order)[0])

    scale = abs(hat(0.0)) + 1.0
    growth = (GrowthClass.exp_decay(eta, constant=10.0 * scale) if one_sided
              else GrowthClass.infra_exponential(constant=10.0 * scale))
    return SmoothField(hat, label=f"ft({f.label})", table=table, growth=growth)


def inverse_fourier(g: SmoothField, label: str = "",
                    abs_tol: float = 1e-10) -> Hyperfunction1D:
    """Hyperfunction with F_plus(z) = (1/2 pi) int_0^X e^(i z xi) g(xi) d xi
    for Im z > 0 and F_minus(z) = -(1/2 pi) int_{-X}^0 for Im z < 0.

    The half-line integrals converge through the e^(-|Im z| xi) damping plus
    whatever decay g itself has.  Each branch is built with
    ``quad.by_height``: the cutoff X, the damping |Im z| and the start level
    of the degree-16 panel doubling come from the points of one height.
    """
    if g.growth.kind == "exp_decay":
        base_rate = g.growth.rate
    else:
        base_rate = 0.0

    def xi_cutoff(eta):
        rate = base_rate + eta
        if rate <= 0:
            raise AdmissibilityError("half-line integral diverges on the axis")
        return math.log(max(g.growth.constant, 1.0) / (abs_tol * 1e-2)) / rate

    gg = g
    if not g.cheap:
        X0 = xi_cutoff(0.05)
        gg = g.tabulate(-X0, X0)

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
                gv = np.asarray(gg(rule.points, 0))
                return sign / (2.0 * math.pi) * rule.exp_sum(zs, gv * rule.weights, 1j)

            return refine(evaluate, max(8, int(xmax * X / math.pi) + 1), 1 << 14,
                          abs_tol, f"inverse Fourier branch at Im z = {y:g}")[0]

        return by_height(at_height)

    return Hyperfunction1D(
        f_plus=branch(+1), f_minus=branch(-1), strip=math.inf,
        growth=GrowthClass.asymptotic(),
        label=label or f"ift({g.label})", tail_gain=1)


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
                     K_terms: Optional[int] = None, zeta_max: float = 10.0,
                     label: str = "J"):
    """Truncated product J(zeta) = prod_k (1 + zeta^2 / (k phi(k))^2).

    Returns (LocalOperator, MultiplierReport).  Without ``K_terms``, K grows
    until (zeta_max / m_K)^2 <= 1e-16 or K passes 200000; the report carries
    the ratio reached and whether it met 1e-16.  The report samples the lower
    bound |J(zeta)| e^(-c |zeta| / phi(|zeta|+1)) on rays with
    |Im zeta| <= max(|Re zeta|/sqrt(3), 1).
    """
    probe = [phi_table(float(k)) for k in range(1, 51)]
    if any(p <= 0 for p in probe) or any(b < a - 1e-12 for a, b in zip(probe, probe[1:])):
        raise ValueError("phi_table must be positive and monotone increasing")
    if K_terms is None:
        K_terms = 1
        while K_terms < _MULTIPLIER_CAP:
            m = K_terms * phi_table(float(K_terms))
            if (zeta_max / m) ** 2 <= _MULTIPLIER_TARGET:
                break
            K_terms += max(1, K_terms // 8)
    if K_terms < 1:
        raise ValueError("K_terms must be >= 1")
    tail_ratio = (zeta_max / (K_terms * phi_table(float(K_terms)))) ** 2
    ms = np.array([k * phi_table(float(k)) for k in range(1, K_terms + 1)])
    inv_m2 = 1.0 / ms ** 2

    def symbol(zeta):
        z2 = np.asarray(zeta) ** 2
        out = np.ones(np.shape(z2), dtype=complex)
        for start in range(0, len(inv_m2), 4096):
            chunk = inv_m2[start:start + 4096]
            out = out * np.prod(1.0 + np.multiply.outer(z2, chunk), axis=-1)
        return out if np.ndim(zeta) else complex(out)

    coefficients = ()  # known only through its symbol
    if K_terms <= 24:
        p = [1.0]  # polynomial in zeta^2
        for im2 in inv_m2:
            p = [a + im2 * b for a, b in
                 zip(p + [0.0], [0.0] + p)]
        b = [0.0] * (2 * len(p) - 1)
        for j, pj in enumerate(p):
            b[2 * j] = (-1.0) ** j * pj  # (i zeta)^(2j) = (-1)^j zeta^(2j)
        coefficients = tuple(b)

    # lower-bound sampling on the validity region
    samples = []
    sign_flip = False
    ts = np.linspace(0.5, zeta_max, 12)
    dirs = [1.0, np.exp(1j * math.pi / 6.0), np.exp(-1j * math.pi / 6.0)]
    for t in ts:
        for d in dirs:
            zeta = t * d
            if abs(zeta.imag) > max(abs(zeta.real) / math.sqrt(3.0), 1.0) + 1e-9:
                continue
            Jv = symbol(zeta)
            if Jv.real < 0:
                sign_flip = True
            samples.append((complex(zeta), complex(Jv)))
    rates = [math.log(max(abs(Jv), 1e-300)) * phi_table(abs(z) + 1.0) / abs(z)
             for z, Jv in samples]
    c = 0.5 * min(rates) if rates else 0.0
    ratios = [abs(Jv) * math.exp(-c * abs(z) / phi_table(abs(z) + 1.0))
              for z, Jv in samples]
    report = MultiplierReport(K_terms=K_terms, min_ratio=min(ratios) if ratios else 1.0,
                              c_fitted=c, sign_flip=sign_flip, samples=tuple(samples),
                              tail_ratio=tail_ratio,
                              converged=tail_ratio <= _MULTIPLIER_TARGET)
    op = LocalOperator(coefficients, symbol_fn=symbol, label=label)
    return op, report


# ---------------------------------------------------------------------------
# structural representation f = J(D) (1 - D^2) f0


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
    operator: LocalOperator  # the J factor
    weight: LocalOperator  # the fixed 1 - D^2 factor
    x_grid: np.ndarray
    f0_values: np.ndarray
    f0: Callable
    xi_max: float

    def reconstruct_pairing(self, phi: TestFunction) -> complex:
        """int f0 (J* W* phi) dx to abs_tol 1e-8; should match pair(f, phi) of
        the input f."""
        if not isinstance(phi.expr, ex.Expr):
            raise TypeError("verification needs an expression test function")
        combined = self.weight.adjoint().apply_to_expr(
            self.operator.adjoint().apply_to_expr(phi.expr))
        lim = float(self.x_grid[-1])

        def integrand(x):
            return self.f0(x) * ex.evaluate(combined, {"z": x + 0j})

        val, _, _ = adaptive_interval(integrand, -lim, lim, 1e-8,
                                      f"structural pairing with {phi.label or 'phi'}")
        return complex(val)


def structural_representation(f: Hyperfunction1D,
                              J: Optional[LocalOperator] = None) -> StructuralRep:
    """f = J(D)(1 - D^2) f0 with continuous f0 sampled on a grid.

    f0 is the inverse transform of hat f / (J(xi) (1 + xi^2)).  The slowly
    decaying part of that quotient is handled by an analytic 1/xi^2 tail
    correction so the oscillatory grid integral stays short.  The cutoff
    xi_max doubles from 16 until the quotient or its tail model is within
    1e-6; f0 is sampled at 141 points on [-14, 14].
    """
    if not f.is_asymptotic:
        raise AdmissibilityError(
            "structural_representation requires an asymptotic input "
            "(tempered transforms are finite-order distributions)")
    if J is None:
        J = LocalOperator((1.0,), label="1")
    field = fourier_transform(f)
    x_max, grid_n, abs_tol = 14.0, 141, 1e-6

    def fhat0(xi):
        return np.asarray(field(xi, 0)) / (np.asarray(J.symbol(xi)) * (1.0 + np.asarray(xi) ** 2))

    # domination check: the quotient must stay bounded going out
    r0 = abs(complex(np.asarray(fhat0(0.0)))) + 1.0
    for probe in (8.0, 16.0, 32.0):
        if abs(complex(np.asarray(fhat0(probe)))) > 10.0 * r0:
            raise AdmissibilityError("J does not dominate the transform (too small)")

    xi_max = 16.0
    while xi_max < 1e5:
        vp = complex(np.asarray(fhat0(xi_max)))
        vm = complex(np.asarray(fhat0(-xi_max)))
        if abs(vp) * xi_max <= abs_tol and abs(vm) * xi_max <= abs_tol:
            break
        # otherwise stop once the c/xi^2 tail model has stabilized, since
        # the remaining tail is handled analytically below
        vp2 = complex(np.asarray(fhat0(2.0 * xi_max)))
        vm2 = complex(np.asarray(fhat0(-2.0 * xi_max)))
        drift = (abs(vp * xi_max ** 2 - vp2 * 4.0 * xi_max ** 2)
                 + abs(vm * xi_max ** 2 - vm2 * 4.0 * xi_max ** 2))
        if drift / xi_max <= abs_tol:
            break
        xi_max *= 2.0

    panels = max(64, int(2 * x_max * xi_max / math.pi))
    rule = CompositeRule(-xi_max, xi_max, panels, 10)
    wg = rule.weights * np.asarray(fhat0(rule.points))

    c_plus = complex(np.asarray(fhat0(xi_max))) * xi_max ** 2
    c_minus = complex(np.asarray(fhat0(-xi_max))) * xi_max ** 2

    def f0(x):
        xr = np.atleast_1d(np.real(np.asarray(x))).astype(float)
        tail = _tail_kernel(xr, xi_max)  # I(-x) is its conjugate
        vals = rule.exp_sum(xr, wg, 1j) + (c_plus * tail + c_minus * tail.conj())
        vals = vals / (2.0 * math.pi)
        return vals if np.ndim(x) else complex(vals[0])

    grid = np.linspace(-x_max, x_max, grid_n)
    f0_vals = np.asarray(f0(grid))

    weight = LocalOperator((1.0, 0.0, -1.0), label="1-D^2")
    return StructuralRep(operator=J, weight=weight, x_grid=grid,
                         f0_values=f0_vals, f0=f0, xi_max=xi_max)
