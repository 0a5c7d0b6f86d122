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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.special import sici

from . import expr as ex
from . import hyper as hy
from .growth import GrowthClass
from .hyper import (AdmissibilityError, ContourSpec, Hyperfunction1D,
                    TestFunction, LocalOperator, TWO_PI_I)
from .quad import (CompositeRule, adaptive_interval, by_height, refine,
                   auto_radius as quad_auto_radius)

__all__ = [
    "SmoothField", "MomentSequence", "AsymptoticSum", "fourier_transform",
    "inverse_fourier", "moment", "asymptotic_sum", "parametric_order_check",
    "taylor_of_ft", "realize_moments", "build_multiplier",
    "structural_representation",
]


# ---------------------------------------------------------------------------
# smooth fields on the Fourier side


_TABLE_KNOTS = 2048  # spline knots of a tabulated field


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
        """Order-0 copy backed by a cubic spline on [lo, hi]."""
        grid = np.linspace(lo, hi, _TABLE_KNOTS)
        spline = CubicSpline(grid, np.asarray(self.evaluator(grid, 0), dtype=complex))

        def evaluator(xi, order=0):
            if order:
                raise NotImplementedError("tabulated fields expose only order 0")
            return spline(np.clip(np.real(xi), lo, hi))

        return SmoothField(evaluator, growth=self.growth, label=f"tab({self.label})",
                           cheap=True)


@dataclass(frozen=True)
class MomentSequence:
    values: tuple
    label: str = ""
    bound: Optional[tuple] = None  # (M, R) with |mu_k| <= M R^k

    def __getitem__(self, k):
        return self.values[k]

    def __len__(self):
        return len(self.values)


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
    fv = hy._eval_branch(f.f_plus, x0 + w)
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

    eta = 0.4 * min(f.strip_plus, f.strip_minus, 1.0)
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
                a = hy._eval_branch(branch, z) * rule.weights
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
        f_plus=branch(+1), f_minus=branch(-1), strip_plus=math.inf,
        strip_minus=math.inf, growth=GrowthClass.asymptotic(),
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
    return hy.pair(f, phi, ContourSpec(imag_offset=0.0, abs_tol=abs_tol))


def moment_sequence(f: Hyperfunction1D, N: int, **kw) -> MomentSequence:
    return MomentSequence(tuple(moment(f, n, **kw) for n in range(N + 1)),
                          label=f.label)


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
                           lambdas: Sequence[float] = (4, 8, 16, 32, 64),
                           noise_floor: float = 1e-12) -> SlopeFit:
    """Fit of log|remainder| against log lambda for the scaled pairing.

    r(lambda) = <f(lambda x), phi> - sum_{n<=N} mu^n phi^(n)(0) / (n! lambda^(n+1)).
    """
    mus = [moment(f, n, abs_tol=1e-13) for n in range(N + 1)]
    derivs = [phi.derivative_at(0.0, n) for n in range(N + 1)]
    spec = ContourSpec(imag_offset=0.0, abs_tol=1e-13)
    pts = []
    for lam in lambdas:
        s = hy.scale_pair(f, phi, float(lam), spec)
        model = sum(mus[n] * derivs[n] / (math.factorial(n) * lam ** (n + 1))
                    for n in range(N + 1))
        pts.append((float(lam), abs(s - model)))
    live = [(l, r) for (l, r) in pts if r > noise_floor]
    if len(live) < 2:
        return SlopeFit(slope=None, residuals=tuple(pts), vacuous=True)
    logs = np.log([l for l, _ in live])
    logr = np.log([r for _, r in live])
    slope = float(np.polyfit(logs, logr, 1)[0])
    return SlopeFit(slope=slope, residuals=tuple(pts), vacuous=False)


def taylor_of_ft(f: Hyperfunction1D, N: int) -> tuple:
    """Taylor coefficients of hat f at 0: {(-i)^n mu^n / n!}."""
    return tuple((-1j) ** n * moment(f, n) / math.factorial(n)
                 for n in range(N + 1))


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
    values = mu.values if isinstance(mu, MomentSequence) else tuple(mu)
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


@dataclass(frozen=True)
class MultiplierReport:
    K_terms: int
    min_ratio: float
    c_fitted: float
    sign_flip: bool
    samples: tuple


def build_multiplier(phi_table: Callable[[float], float],
                     K_terms: Optional[int] = None, zeta_max: float = 10.0,
                     label: str = "J"):
    """Truncated product J(zeta) = prod_k (1 + zeta^2 / (k phi(k))^2).

    Returns (LocalOperator, MultiplierReport).  The report samples the lower
    bound |J(zeta)| e^(-c |zeta| / phi(|zeta|+1)) on rays with
    |Im zeta| <= max(|Re zeta|/sqrt(3), 1).
    """
    probe = [phi_table(float(k)) for k in range(1, 51)]
    if any(p <= 0 for p in probe) or any(b < a - 1e-12 for a, b in zip(probe, probe[1:])):
        raise ValueError("phi_table must be positive and monotone increasing")
    if K_terms is None:
        K_terms = 1
        while K_terms < 200000:
            m = K_terms * phi_table(float(K_terms))
            if (zeta_max / m) ** 2 < 1e-16:
                break
            K_terms += max(1, K_terms // 8)
    if K_terms < 1:
        raise ValueError("K_terms must be >= 1")
    ms = np.array([k * phi_table(float(k)) for k in range(1, K_terms + 1)])
    inv_m2 = 1.0 / ms ** 2

    def symbol(zeta):
        z2 = np.asarray(zeta) ** 2
        out = np.ones(np.shape(z2), dtype=complex)
        for start in range(0, len(inv_m2), 4096):
            chunk = inv_m2[start:start + 4096]
            out = out * np.prod(1.0 + np.multiply.outer(z2, chunk), axis=-1)
        return out if np.ndim(zeta) else complex(out)

    coefficients = (1.0,)
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
                              c_fitted=c, sign_flip=sign_flip, samples=tuple(samples))
    op = LocalOperator(coefficients, symbol_fn=symbol, label=label)
    return op, report


# ---------------------------------------------------------------------------
# structural representation f = J(D) (1 - D^2) f0


def _tail_kernel(x, xi_max):
    """I(x) = int_{xi_max}^inf e^(i x xi) / xi^2 d xi in closed form."""
    a = abs(x) * xi_max
    if a < 1e-12:
        return complex(1.0 / xi_max)
    si, ci = sici(a)
    real = (math.cos(a) / a - (math.pi / 2.0 - si)) * abs(x)
    imag = (math.sin(a) / a - ci) * abs(x)
    return complex(real, imag if x >= 0 else -imag)


@dataclass(frozen=True)
class StructuralRep:
    operator: LocalOperator  # the J factor
    weight: LocalOperator  # the fixed 1 - D^2 factor
    x_grid: np.ndarray
    f0_values: np.ndarray
    f0: Callable
    xi_max: float

    def reconstruct_pairing(self, phi: TestFunction, abs_tol: float = 1e-8) -> complex:
        """int f0 (J* W* phi) dx; should match pair(f, phi) of the input f."""
        if not isinstance(phi.expr, ex.Expr):
            raise TypeError("verification needs an expression test function")
        combined = self.weight.adjoint().apply_to_expr(
            self.operator.adjoint().apply_to_expr(phi.expr))
        lim = float(self.x_grid[-1])

        def integrand(x):
            return self.f0(x) * ex.evaluate(combined, {"z": x + 0j})

        val, _, _ = adaptive_interval(integrand, -lim, lim, abs_tol,
                                      f"structural pairing with {phi.label or 'phi'}")
        return complex(val)


def structural_representation(f: Hyperfunction1D, J: Optional[LocalOperator] = None,
                              x_max: float = 14.0, grid_n: int = 141,
                              abs_tol: float = 1e-6) -> StructuralRep:
    """f = J(D)(1 - D^2) f0 with continuous f0 sampled on a grid.

    f0 is the inverse transform of hat f / (J(xi) (1 + xi^2)).  The slowly
    decaying part of that quotient is handled by an analytic 1/xi^2 tail
    correction so the oscillatory grid integral stays short.
    """
    if not f.is_asymptotic:
        raise AdmissibilityError(
            "structural_representation requires an asymptotic input "
            "(tempered transforms are finite-order distributions)")
    if J is None:
        J = LocalOperator((1.0,), label="1")
    field = fourier_transform(f)

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
        vals = rule.exp_sum(xr, wg, 1j)
        for i, xv in enumerate(xr):
            vals[i] += (c_plus * _tail_kernel(xv, xi_max)
                        + c_minus * _tail_kernel(-xv, xi_max))
        vals = vals / (2.0 * math.pi)
        return vals if np.ndim(x) else complex(vals[0])

    grid = np.linspace(-x_max, x_max, grid_n)
    f0_vals = np.asarray(f0(grid))

    weight = LocalOperator((1.0, 0.0, -1.0), label="1-D^2")
    return StructuralRep(operator=J, weight=weight, x_grid=grid,
                         f0_values=f0_vals, f0=f0, xi_max=xi_max)
