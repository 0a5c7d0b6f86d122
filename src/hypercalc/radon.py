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
from .quad import (CompositeRule, DimensionError, by_height, in_row_blocks,
                   integrate_box, refine)

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


BOX_RADIUS = 7.0  # half-width per axis of the box holding a SmoothRapid's mass
HELGASON_DEGREE_CAP = 8  # largest k of helgason_moment
GEVREY_ORDER_CAP = 4  # largest derivative order of gevrey_probe


@dataclass(frozen=True)
class SmoothRapid:
    """Rapidly decreasing smooth function given by an expression in x1..xn,
    negligible outside the box |x_i| <= BOX_RADIUS."""

    expr: ex.Expr
    dimension: int
    label: str = ""

    def __post_init__(self):
        if not 1 <= self.dimension <= 3:
            raise DimensionError(f"dimension {self.dimension} not supported")

    def __call__(self, *coords):
        """f at per-axis coordinates, one array an axis, which broadcast
        together (``f(*pts.T)`` for a list of points): float64 when all are
        real, complex otherwise."""
        dtype = complex if any(map(np.iscomplexobj, coords)) else float
        return ex.evaluate(self.expr, {f"x{i + 1}": np.asarray(c, dtype=dtype)
                                       for i, c in enumerate(coords)})


@dataclass(frozen=True)
class PointSource:
    """weight * J(D) delta(x - point) with J(D) = sum b_alpha D^alpha."""

    coefficients: Mapping[tuple, object]  # multi-index -> coefficient
    point: tuple
    weight: object = 1


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


def _check_unit(omega, dimension: int):
    omega = tuple(float(w) for w in omega)
    if len(omega) != dimension:
        raise ValueError(f"direction has {len(omega)} components, the input "
                         f"has dimension {dimension}")
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


# f's points per projection block: f runs in float64 on real points, 2 MB an
# axis and a temporary, and the projection stays real up to the slice's
# Cauchy sum or the ray's exp_sum.  The Cauchy sums keep in_row_blocks' 2^15:
# 2^18 there too raised `symbolic_pairing`'s peak RSS by 20%.
_PROJECTION_BLOCK = 1 << 18
U_POINTS_CAP = 1 << 15  # u-points of a slice's or a ray's finest level


def _weighted_projection(f: SmoothRapid, omega, abs_tol: float):
    """u_points -> (rule, p(u)·w), memoized: p(u) integrates f over the plane
    omega.x = u, and (u, w) are the points and weights of ``rule``.

    Both integrals take the midpoint rule, which converges geometrically as
    f is negligible at the box edge (Trefethen & Weideman, SIAM Review 56,
    2014).  The transverse lattice is chosen once, by ``refine`` from 16 to
    at most 512 points per axis on 128 u-points, kept as level 128; every
    level uses it, so no value depends on call order.  f runs on per-axis
    coordinates u omega_i + v_i in blocks of u-points (``in_row_blocks``)."""
    n = f.dimension
    extent = BOX_RADIUS * math.sqrt(n)
    omega, *tangents = np.asarray(_orthonormal_frame(omega))
    levels, across = {}, None

    def project(u_points, m):
        rule, v = (CompositeRule(-extent, extent, k, 1) for k in (u_points, m))
        # axis i of the plane: sum_k tangents[k][i] v_k over an open grid; 0 if n = 1
        grid = np.ix_(*[v.points] * (n - 1))
        plane = [np.ravel(sum((t[i] * g for t, g in zip(tangents, grid)), np.zeros(1)))
                 for i in range(n)]

        def rows(u):  # p(u) w, every midpoint weight being the same
            vals = f(*[np.add.outer(u * o, p) for o, p in zip(omega, plane)])
            return vals.sum(axis=1) * (v.weights[0] ** (n - 1) * rule.weights[0])

        return rule, in_row_blocks(rows, rule.points, len(plane[0]), _PROJECTION_BLOCK)

    def weighted(u_points):
        nonlocal across
        if across is None:
            pv, _, across = refine(lambda m: project(128, m)[1], 16, 512, abs_tol,
                                   "Radon projection", "transverse points")
            levels[128] = (CompositeRule(-extent, extent, 128, 1), pv)
        if u_points not in levels:
            levels[u_points] = project(u_points, across)
        return levels[u_points]

    return weighted


# ---------------------------------------------------------------------------
# the transform


def radon_transform(f: MultiDimFunction, omega, abs_tol: float = 1e-9) -> RadonSlice:
    """Slice hyperfunction of f in direction omega.  A delta combination's
    slice is ``hyper.delta_combination`` of its projected terms, delta-like
    when they share one point t = a.omega.  For a smooth f, G sums
    the memoized projection against 1 / (tau - u) = (d - i y) / (d^2 + y^2),
    d = Re tau - u, in real arithmetic at each height y, and refines from
    128 u-points on every call; past ``U_POINTS_CAP`` it raises."""
    omega = _check_unit(omega, f.dimension)
    if isinstance(f, DeltaCombo):
        return RadonSlice(omega=omega, hyper=hy.delta_combination(
            _projected_terms(f, omega), label=f"radon({f.label})"), label=f.label)

    weighted = _weighted_projection(f, omega, abs_tol)

    def at_height(taus, y):
        def evaluate(u_points):
            rule, pv = weighted(u_points)

            def rows(x):
                d = x[:, None] - rule.points
                q = pv / (d * d + y * y)
                return (q * d).sum(axis=1) - 1j * y * q.sum(axis=1)

            return (-1.0 / TWO_PI_I) * in_row_blocks(rows, taus.real, len(pv))

        return refine(evaluate, 128, U_POINTS_CAP, abs_tol,
                      f"Radon slice G at Im tau = {y:g}", "u-points")[0]

    G = by_height(at_height)
    slice_hyper = Hyperfunction1D(
        f_plus=G, f_minus=G, strip=math.inf, growth=GrowthClass.tempered(-1.0),
        label=f"radon({f.label})")
    return RadonSlice(omega=omega, hyper=slice_hyper, label=f.label)


def multidim_fourier_ray(f: MultiDimFunction, omega) -> sp.SmoothField:
    """rho -> hat f(rho omega), the Fourier-slice ray: for a delta
    combination the closed form of ``spectral.delta_sum_field`` over its
    projected terms; for a smooth f, exp sums over its own memoized
    projection, from the least power of two of u-points >= max(16, 2 extent
    peak / pi), a step below pi / peak.  A non-finite rho raises ``ValueError``."""
    omega = _check_unit(omega, f.dimension)
    if isinstance(f, DeltaCombo):
        return sp.delta_sum_field(_projected_terms(f, omega), f"ray({f.label})")

    extent = BOX_RADIUS * math.sqrt(f.dimension)
    weighted = _weighted_projection(f, omega, 1e-10)

    def table(rhos):
        rhos = np.asarray(rhos, dtype=float)
        if not np.all(np.isfinite(rhos)):
            raise ValueError(f"Fourier ray table of {f.label or 'f'} at a non-finite rho")
        peak = max(1.0, float(np.max(np.abs(rhos))))
        # a power of two, so tables of one ray share levels
        start = max(16, 1 << (math.ceil(2.0 * extent * peak / math.pi) - 1).bit_length())

        def evaluate(u_points):
            rule, pv = weighted(u_points)
            return rule.exp_sum(rhos, pv, -1j)

        return refine(evaluate, start, U_POINTS_CAP, 1e-10,
                      f"Fourier ray table (|rho| up to {peak:g})", "u-points")[0]

    v0, v4, v8 = np.abs(table(np.array([0.0, 4.0, 8.0])))
    rate = 0.25
    if v4 > 1e-300 and v8 > 1e-300:
        rate = max(0.05, min(2.0, math.log(v4 / v8) / 4.0))
    return sp.SmoothField(sp.order0(table), table=table, label=f"ray({f.label})",
                          growth=GrowthClass.exp_decay(rate, constant=10.0 * (v0 + 1.0)))


def radon_via_fourier(f: MultiDimFunction, omega) -> Hyperfunction1D:
    """Slice through the Fourier route: (1/2 pi) int hat f(rho omega) e^(i rho t)."""
    return sp.inverse_fourier(multidim_fourier_ray(f, omega), label=f"radonF({f.label})")


# ---------------------------------------------------------------------------
# moments of f and of its slices


def multidim_moment(f: MultiDimFunction, alpha):
    """mu^alpha(f) = integral of x^alpha f, to abs_tol 1e-10; symbolic for delta
    combinations: exact when their coefficients, weights and points are."""
    if isinstance(f, DeltaCombo):
        total = 0
        for src in f.sources:
            for beta, b in src.coefficients.items():
                if any(bi > ai for bi, ai in zip(beta, alpha)):
                    continue
                term = src.weight * b * (-1) ** sum(beta)
                for ai, bi, pi in zip(alpha, beta, src.point):
                    term = term * math.perm(ai, bi) * pi ** (ai - bi)
                total = total + term
        return total

    def integrand(*x):
        vals = f(*x)
        for xi, a in zip(x, alpha):
            vals = vals * xi ** a if a else vals
        return vals

    return integrate_box(integrand, [BOX_RADIUS] * f.dimension, abs_tol=1e-10).value


def helgason_moment(f: MultiDimFunction, k: int) -> HomogeneousPoly:
    """p^k(omega) = k! sum_{|alpha|=k} mu^alpha(f) / alpha! * omega^alpha, for
    k <= HELGASON_DEGREE_CAP."""
    if k > HELGASON_DEGREE_CAP:
        raise ValueError(f"degree {k} above the cap {HELGASON_DEGREE_CAP}")
    coeffs = {alpha: multidim_moment(f, alpha)
              * Fraction(math.factorial(k), math.prod(map(math.factorial, alpha)))
              for alpha in multi_indices(f.dimension, k)}
    return HomogeneousPoly(degree=k, coefficients=coeffs)


def slice_moment(f: MultiDimFunction, omega, k: int):
    """k-th t-moment of the slice, via the plane-integral identity
    mu^k(Rf(omega, .)) = integral of (omega.x)^k f(x) dx."""
    omega = _check_unit(omega, f.dimension)
    if isinstance(f, DeltaCombo):
        return _slice_moment_delta(f, omega, k)

    return integrate_box(lambda *x: f(*x) * sum(o * xi for o, xi in zip(omega, x)) ** k,
                         [BOX_RADIUS] * f.dimension, abs_tol=1e-10).value


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
        return self.polys[k](omega) * Fraction((-1) ** k, math.factorial(k))


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
        total = total + term * Fraction((-1) ** j, math.factorial(j)) * adot ** j
    return total


# ---------------------------------------------------------------------------
# Gevrey probe


def defining_function_value(f: MultiDimFunction, omega, tau: complex) -> complex:
    """G(omega, tau) off the real axis."""
    return complex(radon_transform(f, omega).hyper.f_plus(tau))


@dataclass(frozen=True)
class GevreyFit:
    C: float
    v: float
    derivative_magnitudes: tuple
    envelope_ok: bool
    negligible: bool
    residual: float


def gevrey_probe(f: MultiDimFunction, omega0, tau0: complex,
                 max_order: int = 4) -> GevreyFit:
    """Tangential omega-derivatives of G at (omega0, tau0), fitted against
    C (m!)^2 / v^m.  theta -> G(cos theta omega0 + sin theta t, tau0) is
    periodic and analytic: the derivatives at theta = 0 come from the FFT of
    n equally spaced samples, n doubling from 8 through ``refine`` until two
    passes agree within 1e-9 of the first pass's largest |derivative|, up to
    256 (Trefethen & Weideman, SIAM Review 56, 2014).  A pass reuses the
    previous pass's samples as its even ones."""
    if max_order > GEVREY_ORDER_CAP:
        raise ValueError(f"max_order {max_order} above the cap {GEVREY_ORDER_CAP}")
    omega0 = np.asarray(_check_unit(omega0, f.dimension))
    # unit tangent: the axis least aligned with omega0, projected off omega0
    tangent = np.asarray(_orthonormal_frame(omega0)[1])
    samples = np.empty(0, dtype=complex)
    d = scale = None

    def g(theta):
        w = math.cos(theta) * omega0 + math.sin(theta) * tangent
        return defining_function_value(f, tuple(w), tau0)

    def in_scale(count):
        nonlocal samples, d, scale
        theta = 2.0 * math.pi * np.arange(count) / count
        new = np.empty(count, dtype=complex)
        new[::2] = samples if samples.size else [g(t) for t in theta[::2]]
        new[1::2] = [g(t) for t in theta[1::2]]
        samples = new
        k = np.fft.fftfreq(count, 1.0 / count)
        factor = (1j * k) ** np.arange(max_order + 1)[:, None]
        factor[1::2, count // 2] = 0.0  # cos(count theta / 2): odd derivatives 0 at 0
        d = factor @ (np.fft.fft(samples) / count)
        scale = scale or max(float(np.max(np.abs(d))), 1e-300)
        return d / scale

    what = "Gevrey probe derivatives, in units of the first pass's largest,"
    refine(in_scale, 8, 256, 1e-9, what, "directions")
    mags = np.abs(d).tolist()
    g0 = max(abs(samples[0]), 1e-30)
    if all(v <= 1e-8 * g0 for v in mags[1:]):
        # tangential variation below rounding noise (radial inputs)
        return GevreyFit(C=g0, v=1.0, derivative_magnitudes=tuple(mags),
                         envelope_ok=True, negligible=True, residual=0.0)
    live = [m for m, mag in enumerate(mags) if mag > 0]
    A = np.array([[1.0, -float(m)] for m in live])
    b = np.array([math.log(mags[m]) - 2.0 * math.log(math.factorial(m)) for m in live])
    sol, *_ = np.linalg.lstsq(A, b, rcond=None)
    residual = float(np.max(np.abs(A @ sol - b)))
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
    scale = max([1e-300] + [v for _, v, _ in sums])
    usable = [(q, v) for q, v, t in sums if t <= 1e-8 * max(v, 1e-3 * scale)]
    if len(usable) < 5:
        raise ValueError(
            f"certified truncation tails dominate the series on this q range, or it "
            f"is too short: {len(usable)} of q <= {q_max} are usable and the rate fit "
            f"needs 5; supply more moments or change q_max")
    qs = np.array([q for q, _ in usable], dtype=float)
    vals = np.log(np.array([max(v, 1e-300) for _, v in usable]))
    coefs = np.polyfit(qs, vals, 1)
    rate = max(float(coefs[0]), 0.0)
    residual = float(np.max(np.abs(np.polyval(coefs, qs) - vals)))
    passed = {float(e): rate <= float(e) + 1e-12 for e in eps_list}
    return SupportReport(passed=passed, rate=rate, diagnosis="ok",
                         sums=tuple(sums), residual=residual)
