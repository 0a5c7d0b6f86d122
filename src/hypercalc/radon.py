"""Radon calculus on multidimensional inputs.

Inputs are restricted to two computable variants: rapidly decreasing smooth
functions given by expressions in x1..xn, and finite combinations of
derivative operators applied to shifted deltas.  The slice in a direction
omega is an ordinary one-dimensional hyperfunction in t, with defining
function G(omega, tau) = (-1/2 pi i) * integral of f(x) / (tau - omega.x).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from . import expr as ex
from . import hyper as hy
from . import spectral as sp
from .growth import GrowthClass
from .hyper import Hyperfunction1D, TWO_PI_I
from .odeseries import _is_exact
from .quad import (CompositeRule, DimensionError, by_height, in_row_blocks,
                   integrate_box, refine, tensor_grid)

__all__ = [
    "SmoothRapid", "PointSource", "DeltaCombo", "RadonSlice", "HomogeneousPoly",
    "radon_transform", "radon_via_fourier", "helgason_moment", "slice_moment",
    "radon_asymptotic_sum", "gevrey_probe", "support_check", "multi_indices",
]


def multi_indices(n: int, k: int):
    """All multi-indices alpha in N^n with |alpha| = k, lexicographic."""
    if n == 1:
        yield (k,)
        return
    for first in range(k, -1, -1):
        for rest in multi_indices(n - 1, k - first):
            yield (first,) + rest


# ---------------------------------------------------------------------------
# input variants


@dataclass(frozen=True)
class SmoothRapid:
    """Rapidly decreasing smooth function given by an expression in x1..xn."""

    expr: ex.Expr
    dimension: int
    radius: float = 7.0  # quadrature box half-width per axis
    label: str = ""

    def __post_init__(self):
        if not 1 <= self.dimension <= 3:
            raise DimensionError(f"dimension {self.dimension} not supported")

    def __call__(self, pts):
        pts = np.asarray(pts, dtype=complex)
        env = {f"x{i + 1}": pts[..., i] for i in range(self.dimension)}
        return ex.evaluate(self.expr, env)


@dataclass(frozen=True)
class PointSource:
    """weight * J(D) delta(x - point) with J(D) = sum b_alpha D^alpha."""

    coefficients: Mapping[tuple, object]  # multi-index -> coefficient
    point: tuple
    weight: object = 1

    @property
    def exact(self):
        return (all(_is_exact(c) for c in self.coefficients.values())
                and all(_is_exact(p) for p in self.point) and _is_exact(self.weight))


@dataclass(frozen=True)
class DeltaCombo:
    sources: tuple  # of PointSource
    dimension: int
    label: str = ""

    def __post_init__(self):
        if not 1 <= self.dimension <= 3:
            raise DimensionError(f"dimension {self.dimension} not supported")


MultiDimFunction = Union[SmoothRapid, DeltaCombo]


@dataclass(frozen=True)
class RadonSlice:
    omega: tuple
    hyper: Hyperfunction1D
    label: str = ""


@dataclass(frozen=True)
class HomogeneousPoly:
    """Homogeneous polynomial of the given degree over multi-indices."""

    degree: int
    coefficients: Mapping[tuple, object]

    def __post_init__(self):
        for alpha in self.coefficients:
            if sum(alpha) != self.degree:
                raise ValueError(f"index {alpha} is not of degree {self.degree}")

    def __call__(self, omega):
        total = 0
        for alpha, c in self.coefficients.items():
            term = c
            for a, w in zip(alpha, omega):
                term = term * w ** a
            total = total + term
        return total


def _orthonormal_frame(omega):
    """Rows: omega followed by an orthonormal basis of its complement."""
    omega = np.asarray(omega, dtype=float)
    n = len(omega)
    frame = [omega]
    for i in np.argsort(np.abs(omega)):
        if len(frame) == n:
            break
        cand = np.zeros(n)
        cand[i] = 1.0
        for prev in frame:
            cand = cand - np.dot(cand, prev) * prev
        norm = np.linalg.norm(cand)
        if norm > 1e-8:
            frame.append(cand / norm)
    return [tuple(v) for v in frame]


def _check_unit(omega):
    omega = tuple(float(w) for w in omega)
    norm = math.sqrt(sum(w * w for w in omega))
    if abs(norm - 1.0) > 1e-12:
        raise ValueError(f"direction must be a unit vector (|omega| = {norm:g})")
    return omega


def _projected_terms(f: DeltaCombo, omega):
    """(a.omega, |alpha|, weight b_alpha omega^alpha) for every term of every
    source: J(D) delta(x - a) projects to b omega^alpha delta^(|alpha|)(t - a.omega)."""
    for src in f.sources:
        adot = sum(float(p) * o for p, o in zip(src.point, omega))
        for alpha, b in src.coefficients.items():
            c = complex(src.weight) * complex(b)
            for a, o in zip(alpha, omega):
                c *= o ** a
            yield adot, sum(alpha), c


# f's points per projection block (4 MB of complex values).  The Cauchy sums'
# 2^15 here left glibc's mmap threshold low enough to slow the later Fourier
# round trips 1.5x (perfbench `transforms` op_tail_ms +30%); 2^18 for the
# Cauchy sums too raised `symbolic_pairing`'s peak RSS by 20%.
_PROJECTION_BLOCK = 1 << 18


def _weighted_projection(f: SmoothRapid, omega, degree: int, abs_tol: float):
    """u_panels -> (rule, p(u)·w), memoized: p(u) integrates f over the plane
    omega.x = u, and (u, w) are the points and weights of ``rule``.

    The transverse degree-8 panels are chosen once, by ``refine`` from 12 to
    at most 48 panels on the 16-u-panel grid, whose finer pass is kept as
    level 16; every level uses them, so no value depends on call order.
    f is evaluated in blocks of u-points (``in_row_blocks``), so a fine
    level's (u x transverse) grid is never held whole."""
    n = f.dimension
    extent = f.radius * math.sqrt(n)
    tangents = np.asarray(_orthonormal_frame(omega)[1:])  # (n-1, n)
    levels, trans = {}, None

    def project(u_panels, trans_panels):
        rule = CompositeRule(-extent, extent, u_panels, degree)
        if n == 1:
            return rule, np.asarray(f(rule.points[:, None] * omega[0])) * rule.weights
        vpts, vw = tensor_grid([CompositeRule(-extent, extent, trans_panels, 8)] * (n - 1))
        plane = vpts @ tangents

        def rows(u):
            pts = u[:, None, None] * np.asarray(omega) + plane
            return np.asarray(f(pts.reshape(-1, n))).reshape(len(u), -1) @ vw

        return rule, in_row_blocks(rows, rule.points, len(vw), _PROJECTION_BLOCK) \
            * rule.weights

    def weighted(u_panels):
        nonlocal trans
        if trans is None:
            pv, _, trans = refine(lambda t: project(16, t)[1], 12, 48, abs_tol,
                                  "Radon projection", "transverse panels")
            levels[16] = (CompositeRule(-extent, extent, 16, degree), pv)
        if u_panels not in levels:
            levels[u_panels] = project(u_panels, trans)
        return levels[u_panels]

    return weighted


# ---------------------------------------------------------------------------
# the transform


def _delta_combo_slice(f: DeltaCombo, omega) -> Hyperfunction1D:
    """J(omega D_t) delta(t - a.omega) summed over sources, symbolically."""
    coeffs, supports, at = {}, set(), 0.0
    for adot, m, c in _projected_terms(f, omega):
        supports.add(round(adot, 12))
        at = adot
        coeffs[m] = coeffs.get(m, 0) + c
    if len(supports) > 1:
        raise NotImplementedError(
            "sources with distinct projected supports need one slice per point")
    return hy.delta_combination(coeffs, at, label=f"radon({f.label})")


def radon_transform(f: MultiDimFunction, omega, abs_tol: float = 1e-9) -> RadonSlice:
    """Slice hyperfunction of f in direction omega.  For a smooth f, G sums
    the memoized projection over degree-16 u-panels and refines each height
    from 16 u-panels on every call; past 2048 it raises ``ConvergenceError``."""
    omega = _check_unit(omega)
    if isinstance(f, DeltaCombo):
        return RadonSlice(omega=omega, hyper=_delta_combo_slice(f, omega),
                          label=f.label)

    weighted = _weighted_projection(f, omega, 16, abs_tol)

    def at_height(taus, y):
        def evaluate(u_panels):
            rule, pv = weighted(u_panels)
            return (-1.0 / TWO_PI_I) * in_row_blocks(
                lambda block: (pv / (block[:, None] - rule.points)).sum(axis=1),
                taus, len(pv))

        return refine(evaluate, 16, 2048, abs_tol, f"Radon slice G at Im tau = {y:g}",
                      "u-panels")[0]

    G = by_height(at_height)
    slice_hyper = Hyperfunction1D(
        f_plus=G, f_minus=G, strip_plus=math.inf, strip_minus=math.inf,
        growth=GrowthClass.tempered(-1.0), tail_gain=1,
        label=f"radon({f.label})")
    return RadonSlice(omega=omega, hyper=slice_hyper, label=f.label)


def multidim_fourier_ray(f: MultiDimFunction, omega) -> sp.SmoothField:
    """rho -> hat f(rho omega), the Fourier-slice ray: for a smooth f, exp
    sums over its own memoized degree-8 projection, from 16·2^k u-panels."""
    omega = _check_unit(omega)
    if isinstance(f, DeltaCombo):
        def hat(rho, order=0):
            if order != 0:
                raise NotImplementedError("ray fields expose only order 0")
            rho = np.asarray(rho, dtype=float)
            total = np.zeros(np.shape(rho), dtype=complex)
            for adot, m, c in _projected_terms(f, omega):
                total = total + c * (1j * rho) ** m * np.exp(-1j * rho * adot)
            return total

        return sp.SmoothField(hat, growth=GrowthClass.infra_exponential(),
                              cheap=True, label=f"ray({f.label})")

    extent = f.radius * math.sqrt(f.dimension)
    weighted = _weighted_projection(f, omega, 8, 1e-10)

    def table(rhos):
        rhos = np.asarray(rhos, dtype=float)
        peak = max(1.0, float(np.max(np.abs(rhos))))
        # a power-of-two multiple of 16, so tables of one ray share levels
        start = 16
        while start < 1.2 * extent * peak / math.pi:
            start *= 2

        def evaluate(u_panels):
            rule, pv = weighted(u_panels)
            return rule.exp_sum(rhos, pv, -1j)

        return refine(evaluate, start, 4096, 1e-10,
                      f"Fourier ray table (|rho| up to {peak:g})", "u-panels")[0]

    def hat(rho, order=0):
        if order != 0:
            raise NotImplementedError("ray fields expose only order 0")
        arr = np.asarray(rho, dtype=float)
        return table(np.atleast_1d(arr))[0] if not arr.ndim else table(arr)

    v0, v4, v8 = np.abs(table(np.array([0.0, 4.0, 8.0])))
    rate = 0.25
    if v4 > 1e-300 and v8 > 1e-300:
        rate = max(0.05, min(2.0, math.log(v4 / v8) / 4.0))
    return sp.SmoothField(hat, table=table, label=f"ray({f.label})",
                          growth=GrowthClass.exp_decay(rate, constant=10.0 * (v0 + 1.0)))


def radon_via_fourier(f: MultiDimFunction, omega, label: str = "") -> Hyperfunction1D:
    """Slice through the Fourier route: (1/2 pi) int hat f(rho omega) e^(i rho t)."""
    ray = multidim_fourier_ray(f, omega)
    return sp.inverse_fourier(ray, label=label or f"radonF({getattr(f, 'label', '')})")


# ---------------------------------------------------------------------------
# moments of f and of its slices


def multidim_moment(f: MultiDimFunction, alpha, abs_tol: float = 1e-10):
    """mu^alpha(f) = integral of x^alpha f; symbolic for delta combinations."""
    if isinstance(f, DeltaCombo):
        exact = all(src.exact for src in f.sources)
        total = Fraction(0) if exact else 0j
        for src in f.sources:
            for beta, b in src.coefficients.items():
                if any(bi > ai for bi, ai in zip(beta, alpha)):
                    continue
                term = src.weight * b * (-1) ** sum(beta)
                for ai, bi, pi in zip(alpha, beta, src.point):
                    falling = Fraction(math.factorial(ai), math.factorial(ai - bi))
                    term = term * (falling if exact else float(falling))
                    term = term * pi ** (ai - bi)
                total = total + term
        return total

    def integrand(pts):
        vals = np.asarray(f(pts))
        for i, a in enumerate(alpha):
            if a:
                vals = vals * pts[:, i] ** a
        return vals

    res = integrate_box(integrand, [f.radius] * f.dimension, abs_tol=abs_tol)
    return res.value


def helgason_moment(f: MultiDimFunction, k: int, cap: int = 8) -> HomogeneousPoly:
    """p^k(omega) = k! sum_{|alpha|=k} mu^alpha(f) / alpha! * omega^alpha."""
    if k > cap:
        raise ValueError(f"degree {k} above the configured cap {cap}")
    n = f.dimension
    coeffs = {}
    for alpha in multi_indices(n, k):
        mu = multidim_moment(f, alpha)
        fac = 1
        for a in alpha:
            fac *= math.factorial(a)
        c = mu * Fraction(math.factorial(k), fac) if _is_exact(mu) \
            else mu * (math.factorial(k) / fac)
        coeffs[alpha] = c
    return HomogeneousPoly(degree=k, coefficients=coeffs)


def slice_moment(f: MultiDimFunction, omega, k: int):
    """k-th t-moment of the slice, via the plane-integral identity
    mu^k(Rf(omega, .)) = integral of (omega.x)^k f(x) dx."""
    omega = _check_unit(omega)
    if isinstance(f, DeltaCombo):
        return _slice_moment_delta(f, omega, k)

    def integrand(pts):
        u = pts @ np.asarray(omega)
        return np.asarray(f(pts)) * u ** k

    res = integrate_box(integrand, [f.radius] * f.dimension, abs_tol=1e-10)
    return res.value


def _slice_moment_delta(f: DeltaCombo, omega, k: int) -> complex:
    total = 0j
    for adot, m, c in _projected_terms(f, omega):
        if m > k:
            continue
        # mu^k(delta^(m)(. - c)) = (-1)^m k!/(k-m)! c^(k-m)
        total += c * (-1.0) ** m * math.factorial(k) / math.factorial(k - m) \
            * adot ** (k - m)
    return total


# ---------------------------------------------------------------------------
# the Radon asymptotic expansion


@dataclass(frozen=True)
class RadonExpansion:
    order: int
    polys: tuple  # HomogeneousPoly for k = 0..N

    def coefficient(self, k: int, omega):
        """Coefficient of delta^(k)(t) in the expansion: (-1)^k p^k(omega)/k!."""
        val = self.polys[k](omega)
        if _is_exact(val):
            return val * Fraction((-1) ** k, math.factorial(k))
        return complex(val) * (-1.0) ** k / math.factorial(k)


def radon_asymptotic_sum(f: MultiDimFunction, N: int) -> RadonExpansion:
    return RadonExpansion(order=N,
                          polys=tuple(helgason_moment(f, k) for k in range(N + 1)))


def example_point_coefficient(src: PointSource, omega, k: int):
    """Closed-form expansion coefficient of delta^(k)(t) for one point source:
    sum over |alpha| <= k of (-1)^(k-|alpha|)/(k-|alpha|)! b_alpha omega^alpha
    (a.omega)^(k-|alpha|)."""
    adot = 0
    for p, o in zip(src.point, omega):
        adot = adot + p * o
    total = 0
    for alpha, b in src.coefficients.items():
        m = sum(alpha)
        if m > k:
            continue
        term = src.weight * b
        for a, o in zip(alpha, omega):
            term = term * o ** a
        j = k - m
        sign = (-1) ** j
        if _is_exact(term) and _is_exact(adot):
            term = term * Fraction(sign, math.factorial(j)) * adot ** j
        else:
            term = term * sign / math.factorial(j) * adot ** j
        total = total + term
    return total


# ---------------------------------------------------------------------------
# Gevrey probe


_FD_STENCILS = {
    0: ((0, 1.0),),
    1: ((-1, -0.5), (1, 0.5)),
    2: ((-1, 1.0), (0, -2.0), (1, 1.0)),
    3: ((-2, -0.5), (-1, 1.0), (1, -1.0), (2, 0.5)),
    4: ((-2, 1.0), (-1, -4.0), (0, 6.0), (1, -4.0), (2, 1.0)),
}


def defining_function_value(f: MultiDimFunction, omega, tau: complex) -> complex:
    """G(omega, tau) off the real axis."""
    omega = _check_unit(omega)
    if isinstance(f, DeltaCombo):
        total = 0j
        for adot, m, c in _projected_terms(f, omega):
            total += c * (-1.0 / TWO_PI_I) * (-1.0) ** m * math.factorial(m) \
                / (tau - adot) ** (m + 1)
        return total
    return complex(radon_transform(f, omega).hyper.plus(tau))


@dataclass(frozen=True)
class GevreyFit:
    C: float
    v: float
    derivative_magnitudes: tuple
    envelope_ok: bool
    negligible: bool
    residual: float = 0.0


def gevrey_probe(f: MultiDimFunction, omega0, tau0: complex, max_order: int = 4,
                 h: float = 0.2) -> GevreyFit:
    """Tangential omega-derivatives of G at (omega0, tau0) by finite
    differences on the sphere, fitted against C (m!)^2 / v^m."""
    if max_order > 4:
        raise ValueError("max_order above 4 is not supported (differencing noise)")
    omega0 = np.asarray(_check_unit(omega0))
    n = len(omega0)
    # unit tangent: rotate the axis least aligned with omega0 into the
    # orthogonal complement
    base = np.zeros(n)
    base[int(np.argmin(np.abs(omega0)))] = 1.0
    tangent = base - np.dot(base, omega0) * omega0
    tangent /= np.linalg.norm(tangent)

    def g(theta):
        w = math.cos(theta) * omega0 + math.sin(theta) * tangent
        return defining_function_value(f, tuple(w), tau0)

    mags = []
    for m in range(max_order + 1):
        acc = 0j
        for off, coef in _FD_STENCILS[m]:
            acc += coef * g(off * h)
        mags.append(abs(acc) / h ** m)
    g0 = max(abs(g(0.0)), 1e-30)
    if all(v <= 1e-8 * g0 for v in mags[1:]):
        # tangential variation below differencing noise (radial inputs)
        return GevreyFit(C=g0, v=1.0, derivative_magnitudes=tuple(mags),
                         envelope_ok=True, negligible=True, residual=0.0)
    rows, rhs = [], []
    for m, val in enumerate(mags):
        if val <= 0:
            continue
        rows.append([1.0, -float(m)])
        rhs.append(math.log(val) - 2.0 * math.log(math.factorial(m)))
    A, b = np.asarray(rows), np.asarray(rhs)
    sol, *_ = np.linalg.lstsq(A, b, rcond=None)
    residual = float(np.max(np.abs(A @ sol - b))) if len(b) else 0.0
    v = math.exp(sol[1])
    # inflate the constant so the fitted envelope majorizes every probed order
    C = max(math.exp(sol[0]),
            max(mag * v ** m / math.factorial(m) ** 2
                for m, mag in enumerate(mags)))
    ok = all(mag <= C * math.factorial(m) ** 2 / v ** m * (1.0 + 1e-12)
             for m, mag in enumerate(mags))
    return GevreyFit(C=C, v=v, derivative_magnitudes=tuple(mags),
                     envelope_ok=ok, negligible=False, residual=residual)


# ---------------------------------------------------------------------------
# support from moments


@dataclass(frozen=True)
class SupportReport:
    passed: dict
    rate: Optional[float]
    diagnosis: str
    sums: tuple  # (q, |Sigma(q)|, certified truncation tail)
    residual: float = 0.0


def _exp_remainder(x: float, K: int) -> float:
    """e^x minus its first K Taylor terms, evaluated stably."""
    if K <= 0:
        return math.exp(x)
    term = x ** K / math.factorial(K)
    acc, k = 0.0, K
    while term > acc * 1e-18 + 1e-320 and k < K + 500:
        acc += term
        k += 1
        term *= x / k
    return acc


def support_check(moments, S: float, eps_list: Sequence[float] = (1e-3, 0.1, 0.5),
                  q_max: int = 12, bound: Optional[tuple] = None) -> SupportReport:
    """Sub-exponential growth test of Sigma(q) = sum mu^k/k! (1/2S)(-pi i q/S)^k.

    A declared bound |mu^k| <= M R^k certifies the truncation tail; fitting
    is restricted to the q whose certified tail is negligible.  Without a
    bound the supplied sequence is treated as the complete series (all later
    moments zero) and must itself pass a ratio test.
    """
    if isinstance(moments, sp.MomentSequence):
        bound = bound or moments.bound
        values = list(moments.values)
    else:
        values = list(moments)
    if S <= 0:
        raise ValueError("support radius S must be positive")
    if bound is not None:
        M, R = bound
        for k, mu in enumerate(values):
            if abs(mu) > M * R ** k * (1.0 + 1e-9):
                raise ValueError(
                    f"declared moment bound violated at k={k}: |mu|={abs(mu):g} "
                    f"> {M * R ** k:g}")
    else:
        x_max = math.pi * q_max / S
        terms = [abs(values[k]) / math.factorial(k) * x_max ** k
                 for k in range(len(values))]
        growing = [b > a for a, b in zip(terms, terms[1:]) if a > 0]
        if len(growing) >= 3 and all(growing[-3:]) and terms[-1] > terms[0]:
            return SupportReport(passed={float(e): False for e in eps_list},
                                 rate=None, sums=(),
                                 diagnosis="series diverges (ratio test on terms)")
    sums = []
    for q in range(1, q_max + 1):
        z = -1j * math.pi * q / S
        acc = 0j
        for k, mu in enumerate(values):
            acc += complex(mu) / math.factorial(k) * z ** k
        total = acc / (2.0 * S)
        tail = 0.0
        if bound is not None:
            M, R = bound
            tail = M * _exp_remainder(R * math.pi * q / S, len(values)) / (2.0 * S)
        sums.append((q, abs(total), tail))
    scale = max(1e-300, max(v for _, v, _ in sums))
    usable = [(q, v) for q, v, t in sums if t <= 1e-8 * max(v, 1e-3 * scale)]
    if len(usable) < 5:
        raise ValueError(
            "certified truncation tails dominate the series on this q range; "
            "supply more moments or reduce q_max")
    qs = np.array([q for q, _ in usable], dtype=float)
    vals = np.log(np.array([max(v, 1e-300) for _, v in usable]))
    coefs = np.polyfit(qs, vals, 1)
    rate = max(float(coefs[0]), 0.0)
    residual = float(np.max(np.abs(np.polyval(coefs, qs) - vals)))
    passed = {float(e): rate <= float(e) + 1e-12 for e in eps_list}
    return SupportReport(passed=passed, rate=rate, diagnosis="ok",
                         sums=tuple(sums), residual=residual)
