"""Adaptive quadrature along horizontal contour lines and over boxes in R^n.

The line integrator bisects in rounds, with an embedded Gauss-Legendre pair
(10/21 points) per panel: a round evaluates all its new panels in one call
of the integrand.  Truncation tails are certified from the declared growth
class of the integrand.
Exponential sums over a composite Gauss-Legendre rule factor each node
m_p + h x_k into its panel midpoint and offset, and the equally spaced
midpoints into a coarse and a fine step, so they take about 2 sqrt(panels)
complex exps per point and three matrix products instead of one exp per
(point, node).  ``refine`` is the one refinement driver: the fixed-rule
quadratures of the package (composite panels, box rules, the circle's
trapezoid rule) double their resolution through it until two passes agree,
or raise ``ConvergenceError`` at its cap; the exceptions are the 1024 fixed
nodes of ``spectral._laurent_coefficients`` and the f0 grid of
``spectral.structural_representation``.  ``by_height`` builds every
computed defining function from one evaluation per height Im z, and
``in_row_blocks`` bounds the memory of its (points x nodes) sums and of
the Radon projection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.special import gammaincc, gamma as gamma_fn

from .growth import GrowthClass

__all__ = [
    "ContourSpec", "QuadResult", "CompositeRule", "tensor_grid", "refine",
    "by_height", "in_row_blocks", "integrate_line", "integrate_box", "tail_bound",
    "verify_growth", "ConvergenceError", "DivergentTailError", "DimensionError",
]


class ConvergenceError(Exception):
    pass


class DivergentTailError(Exception):
    pass


class DimensionError(Exception):
    pass


@dataclass(frozen=True)
class ContourSpec:
    """Parameters of a truncated horizontal line contour Im z = eta."""

    imag_offset: float = 0.5
    truncation_radius: Optional[float] = None  # None = auto from growth
    abs_tol: float = 1e-9
    growth: Optional[GrowthClass] = None  # declared decay of the integrand
    weight_exponent: float = 0.0  # extra polynomial weight |x|^w in the tail


@dataclass(frozen=True)
class QuadResult:
    value: complex
    error_estimate: float
    tail_bound: float
    nodes_used: int


# ---------------------------------------------------------------------------
# Gauss-Legendre nodes

_GL_CACHE: dict = {}


def _leggauss(m):
    """Nodes and weights of the m-point rule on [-1, 1], computed once per m
    and shared read-only."""
    if m not in _GL_CACHE:
        x, w = np.polynomial.legendre.leggauss(m)
        x.flags.writeable = False
        w.flags.writeable = False
        _GL_CACHE[m] = (x, w)
    return _GL_CACHE[m]


# (t, panel) entries per block of CompositeRule.exp_sum; bounds its memory
_EXP_SUM_BLOCK = 1 << 18


class CompositeRule:
    """``panels`` equal panels on [lo, hi], each carrying the ``degree``-point
    Gauss-Legendre rule.  Point (p, k) is ``mid[p] + half * nodes[k]``;
    ``points`` and ``weights`` are flattened panel by panel."""

    def __init__(self, lo: float, hi: float, panels: int, degree: int):
        self.nodes, ref_weights = _leggauss(degree)
        edges = np.linspace(lo, hi, panels + 1)
        self.mid = 0.5 * (edges[:-1] + edges[1:])
        self.half = 0.5 * (edges[1] - edges[0])
        self.points = (self.mid[:, None] + self.half * self.nodes[None, :]).ravel()
        self.weights = np.tile(self.half * ref_weights, panels)

    def exp_sum(self, t, amplitudes, c: complex):
        """S[..., i] = sum_j amplitudes[..., j] exp(c t_i x_j) over the points x_j.

        exp(c t (m_p + h x_k)) = exp(c t m_p) exp(c t h x_k), so each block of
        t takes one (T x degree) @ (degree x panels) product and a row-wise
        product-sum with exp(c t m_p).  The midpoints are equally spaced:
        with p = q B + b and B about sqrt(panels), m_p = (m_qB - m_0) + m_b,
        so the panel factor splits again into exp(c t (m_qB - m_0)) and
        exp(c t m_b), and the product-sum into two batched products.  A t
        then takes degree + 2 sqrt(panels) exps.  ``amplitudes`` has shape
        (len(points),) or (R, len(points)); the result has shape
        ``amplitudes.shape[:-1] + t.shape``.
        """
        t = np.asarray(t)
        flat = t.ravel()
        amps = np.asarray(amplitudes)
        panels, degree = len(self.mid), len(self.nodes)
        rows = amps.size // (panels * degree)
        fine = math.isqrt(panels - 1) + 1
        coarse = -(-panels // fine)
        a = amps.reshape(rows, panels, degree)
        if coarse * fine > panels:  # zero panels pad the last coarse step
            a = np.concatenate(
                [a, np.zeros((rows, coarse * fine - panels, degree), a.dtype)], axis=1)
        # (degree, rows * coarse * fine): column (r * coarse + q) * fine + b
        # holds amps[r, q * fine + b, :]
        a = a.transpose(2, 0, 1).reshape(degree, -1)
        fine_mid = self.mid[:fine]
        coarse_shift = self.mid[::fine] - self.mid[0]
        out = np.empty((flat.size, rows), dtype=complex)
        step = max(1, _EXP_SUM_BLOCK // (rows * coarse * fine))
        for start in range(0, flat.size, step):
            ct = c * flat[start:start + step]
            e_node = np.exp(np.multiply.outer(ct, self.half * self.nodes))
            e_fine = np.exp(np.multiply.outer(ct, fine_mid))
            e_coarse = np.exp(np.multiply.outer(ct, coarse_shift))
            inner = (e_node @ a).reshape(len(ct), rows * coarse, fine)
            by_step = (inner @ e_fine[:, :, None]).reshape(len(ct), rows, coarse)
            out[start:start + step] = (by_step @ e_coarse[:, :, None])[:, :, 0]
        return out.T.reshape(amps.shape[:-1] + t.shape)


def tensor_grid(rules: Sequence[CompositeRule]):
    """Points (N, len(rules)) and weights (N,) of the tensor product of
    ``rules``, the first axis varying slowest."""
    mesh = np.meshgrid(*[r.points for r in rules], indexing="ij")
    wmesh = np.meshgrid(*[r.weights for r in rules], indexing="ij")
    return (np.stack([m.ravel() for m in mesh], axis=-1),
            np.prod([w.ravel() for w in wmesh], axis=0))


def refine(evaluate: Callable, start: int, cap: int, abs_tol: float, what: str,
           unit: str = "panels"):
    """Call ``evaluate(n)`` for n = start, 2 start, ... while n <= cap.

    At the first n whose result agrees with the previous one within
    ``abs_tol`` in max norm, return ``(value, err, n)`` with the finer result.
    Otherwise raise ``ConvergenceError``; ``evaluate`` never sees n > cap.
    """
    prev = None
    n = start
    while n <= cap:
        cur = evaluate(n)
        if prev is not None:
            err = float(np.max(np.abs(cur - prev)))
            if err <= abs_tol:
                return cur, err, n
        prev = cur
        n *= 2
    raise ConvergenceError(
        f"{what} did not reach abs_tol={abs_tol:g} within {cap} {unit}")


def by_height(at_height: Callable) -> Callable:
    """G(z) from ``at_height(points, y)``, which evaluates the points of one
    height y = Im z.  G raises ``ValueError`` on the real axis and calls
    ``at_height`` once per height of a call, so a value depends on the other
    points only through those at its height.  G(z) has the shape of z."""
    def G(z):
        zs = np.asarray(z, dtype=complex)
        flat = zs.ravel()
        if np.any(flat.imag == 0):
            raise ValueError("defining function evaluated on the real axis")
        heights, group = np.unique(flat.imag, return_inverse=True)
        out = np.empty_like(flat)
        for k, y in enumerate(heights):
            at = group == k
            out[at] = at_height(flat[at], float(y))
        return out.reshape(zs.shape) if zs.ndim else out[0]

    return G


_ROW_BLOCK = 1 << 15  # entries of a (points x nodes) product per block


def in_row_blocks(rows: Callable, points, width: int, entries: int = _ROW_BLOCK):
    """``rows(points[i:j])`` over blocks whose (points x ``width``) products
    hold at most ``entries``; a scalar result fills its block.  ``rows``
    reduces each row on its own, so values do not depend on the blocking."""
    step = max(1, entries // width)
    out = np.empty(len(points), dtype=complex)
    for start in range(0, len(points), step):
        out[start:start + step] = rows(points[start:start + step])
    return out


# ---------------------------------------------------------------------------
# embedded Gauss-Legendre pair

_XL, _WL = np.polynomial.legendre.leggauss(10)
_XH, _WH = np.polynomial.legendre.leggauss(21)
_X_PAIR = np.concatenate([_XL, _XH])
SUBDIVISION_CAP = 4000  # bisections adaptive_interval may make before it raises


def adaptive_interval(f, a, b, abs_tol, what: str = "integral",
                      breakpoints: Sequence[float] = ()):
    """Adaptive bisection of a vectorized integrand over [a, b] in rounds.

    Round 0 evaluates the panels between a, b and the breakpoints inside;
    each later round bisects, largest error first, the fewest panels that
    leave the rest with errors summing to at most abs_tol / 2.  A round
    evaluates both rules of all its new panels in one call of f.  Stops when
    the summed error is at most ``abs_tol``; raises ``ConvergenceError``
    before a round would take the bisections past ``SUBDIVISION_CAP``.
    Returns ``(value, err, nodes)``, summed over the panels in x order.
    """
    edges = np.array(sorted({float(a), float(b), *[p for p in breakpoints if a < p < b]}))
    new_lo, new_hi = edges[:-1], edges[1:]
    lo = hi = val = err = np.empty(0)
    nodes = splits = 0
    while True:
        mid, half = 0.5 * (new_lo + new_hi), 0.5 * (new_hi - new_lo)
        y = np.asarray(f((mid[:, None] + half[:, None] * _X_PAIR).ravel()))
        y = y.reshape(len(mid), len(_X_PAIR))
        low = half * (_WL * y[:, :len(_WL)]).sum(axis=1)
        high = half * (_WH * y[:, len(_WL):]).sum(axis=1)
        nodes += y.size
        lo, hi = np.append(lo, new_lo), np.append(hi, new_hi)
        val, err = np.append(val, high), np.append(err, np.abs(high - low))
        if err.sum() <= abs_tol:
            in_x = np.argsort(lo)
            return val[in_x].sum(), float(err[in_x].sum()), nodes
        order = np.argsort(-err, kind="stable")
        unsplit = np.cumsum(err[order][::-1])[::-1]  # error left by splitting order[:k]
        k = int(np.count_nonzero(~(unsplit <= 0.5 * abs_tol)))  # a NaN splits them all
        if splits + k > SUBDIVISION_CAP:
            raise ConvergenceError(
                f"{what} did not reach abs_tol={abs_tol:g} within {SUBDIVISION_CAP} "
                f"subdivisions (error estimate {err.sum():g})")
        splits += k
        split, keep = order[:k], order[k:]
        cut = 0.5 * (lo[split] + hi[split])
        new_lo, new_hi = np.append(lo[split], cut), np.append(cut, hi[split])
        lo, hi, val, err = lo[keep], hi[keep], val[keep], err[keep]


def _geometric_breakpoints(radius):
    """Panel seeds +-2^k, suited to integrands varying on a log scale."""
    pts = [0.0]
    x = 1.0
    while x < radius:
        pts.extend([x, -x])
        x *= 2.0
    return pts


def auto_radius(growth: GrowthClass, abs_tol: float, weight_exponent: float = 0.0,
                cap: float = 1e12) -> float:
    """Smallest radius whose certified tail is below abs_tol / 10."""
    target = abs_tol / 10.0
    lo, hi = 1.0, 2.0
    while hi < cap:
        if tail_bound(growth, weight_exponent, hi) <= target:
            break
        hi *= 2.0
    else:
        raise ConvergenceError("tail target unreachable below the radius cap")
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if tail_bound(growth, weight_exponent, mid) <= target:
            hi = mid
        else:
            lo = mid
    return hi


def integrate_line(integrand: Callable, spec: ContourSpec) -> QuadResult:
    """Integrate along Im z = imag_offset over |Re z| <= R, left to right.

    ``integrand`` must accept numpy arrays of complex points.  When the
    truncation radius is None it is chosen so that the certified tail bound
    of the declared growth class is below abs_tol / 10.
    """
    eta = spec.imag_offset
    if spec.truncation_radius is not None:
        radius = float(spec.truncation_radius)
        tail = (tail_bound(spec.growth, spec.weight_exponent, radius)
                if spec.growth is not None else 0.0)
    else:
        if spec.growth is None:
            raise ValueError("auto truncation radius requires a declared growth class")
        radius = auto_radius(spec.growth, spec.abs_tol, spec.weight_exponent)
        tail = tail_bound(spec.growth, spec.weight_exponent, radius)

    def g(x):
        return integrand(x + 1j * eta)

    value, err, nodes = adaptive_interval(
        g, -radius, radius, spec.abs_tol, f"line integral at Im z = {eta:g}",
        _geometric_breakpoints(radius))
    return QuadResult(value, err, tail, nodes)


# ---------------------------------------------------------------------------
# boxes in R^n


def integrate_box(integrand: Callable, box, abs_tol: float = 1e-9,
                  max_points: int = 257) -> QuadResult:
    """Tensor-product Gauss-Legendre over a box, refined by point doubling.

    ``box`` is a sequence of per-axis radii R_i (axis i spans [-R_i, R_i]) or
    of explicit (lo, hi) pairs.  ``integrand`` receives an (N, n) array of
    points.  n <= 3.
    """
    axes = []
    for b in box:
        if np.isscalar(b):
            axes.append((-float(b), float(b)))
        else:
            axes.append((float(b[0]), float(b[1])))
    n = len(axes)
    if n < 1 or n > 3:
        raise DimensionError(f"box dimension {n} not supported (1 <= n <= 3)")
    nodes_used = 0

    def evaluate(m):
        nonlocal nodes_used
        pts, weights = tensor_grid([CompositeRule(lo, hi, 1, m) for lo, hi in axes])
        vals = np.asarray(integrand(pts))
        nodes_used += pts.shape[0]
        return np.sum(weights * vals)

    value, err, _ = refine(evaluate, 16, max_points, abs_tol, "box rule",
                           "points per axis")
    return QuadResult(complex(value), err, 0.0, nodes_used)


# ---------------------------------------------------------------------------
# certified tails


def tail_bound(growth: GrowthClass, weight_exponent: float, radius: float) -> float:
    """Upper bound for the two discarded tails |x| > radius of a line integral
    of a function in the declared class against a weight |x|^weight_exponent.
    """
    if growth is None:
        raise ValueError("tail_bound requires a growth class")
    w = float(weight_exponent)
    r = float(radius)
    c = growth.constant
    if growth.kind == "exp_decay":
        d = growth.rate
        if w <= 0:
            return 2.0 * c * (1.0 + r) ** w * math.exp(-d * r) / d
        # int_R^inf x^w e^(-d x) dx = d^(-w-1) Gamma(w+1, d R)
        return 2.0 * c * d ** (-w - 1.0) * gamma_fn(w + 1.0) * gammaincc(w + 1.0, d * r)
    if growth.kind == "tempered":
        p = growth.gamma + w
        if p >= -1.0:
            raise DivergentTailError(
                f"tail exponent {p:g} >= -1: line integral tail diverges")
        return 2.0 * c * r ** (p + 1.0) / (-(p + 1.0))
    if growth.kind == "asymptotic":
        # conservative stand-in: rapid decay treated as the power that makes
        # the weighted tail O(1/R)
        surrogate = GrowthClass.tempered(-(w + 2.0), constant=c)
        return tail_bound(surrogate, w, r)
    raise DivergentTailError("infra-exponential growth has no convergent line tail")


# ---------------------------------------------------------------------------
# growth spot checks


@dataclass(frozen=True)
class GrowthReport:
    passed: bool
    claimed: GrowthClass
    worst_ratio: float
    failures: tuple  # (radius, |value|, envelope) triples


def verify_growth(e, claimed: GrowthClass, sample_radii=(5.0, 10.0, 20.0),
                  slack: float = 10.0) -> GrowthReport:
    """Spot-check a declared growth class on the real axis.

    ``e`` is an expression or any callable of a complex argument.  The check
    fails if |e| exceeds the claimed envelope by more than ``slack`` at any
    sampled radius.
    """
    if not callable(e):
        raise TypeError("verify_growth needs a callable or expression")
    failures = []
    worst = 0.0
    for r in sample_radii:
        for x in (r, -r):
            v = abs(complex(np.asarray(e(complex(x)))))
            env = claimed.envelope(abs(x))
            ratio = v / env if env > 0 else math.inf
            worst = max(worst, ratio)
            if ratio > slack:
                failures.append((x, v, env))
    return GrowthReport(passed=not failures, claimed=claimed,
                        worst_ratio=worst, failures=tuple(failures))
