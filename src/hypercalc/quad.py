"""Adaptive quadrature on intervals and over boxes in R^n.

``adaptive_interval`` bisects in rounds, with the nested Gauss-Kronrod 10/21
rule per panel (21 points, the 10 Gauss points among them): a round
evaluates all its new panels in one call of the integrand.  Truncation
tails of line integrals are certified from a declared growth class and a
polynomial weight by ``tail_bound``; ``auto_radius`` inverts it by
bisection, down to adjacent floats.  The weighted tail of an exp_decay or
gaussian class is an upper incomplete gamma function, in closed form for
integer order (DLMF 8.4.8): Gamma(n, y) = (n-1)! e^(-y) sum_{k<n} y^k / k!;
a non-integer order s is bounded above by y^(s - ceil(s)) Gamma(ceil(s), y).
Exponential sums over a composite Gauss-Legendre rule factor each node
m_p + h x_k into its panel midpoint and offset, and the equally spaced
midpoints into a coarse and a fine step, so they take about 2 sqrt(panels)
complex exps per point and three matrix products instead of one exp per
(point, node).  ``refine`` is the one refinement driver: every fixed rule
of the package (composite panels, box rules, trapezoid rules on circles,
over periodic samples and, sinh-mapped, on lines) doubles its resolution
through it until two passes agree, or raises ``ConvergenceError`` at its cap.
``by_height`` builds every computed defining function from one evaluation
per height Im z, and ``in_row_blocks`` bounds the memory of its (points x
nodes) sums and of the Radon projection.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np
# numpy loads numpy.polynomial on first use; importing it here keeps that
# import out of the first call that builds a rule
from numpy.polynomial.legendre import leggauss

from .growth import GrowthClass

__all__ = [
    "ContourSpec", "QuadResult", "CompositeRule", "refine",
    "by_height", "in_row_blocks", "integrate_box", "tail_bound",
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

    imag_offset: float = 0.0  # 0 = half the narrower strip of the pairing
    truncation_radius: Optional[float] = None  # None = auto from growth
    abs_tol: float = 1e-10


class QuadResult(NamedTuple):
    value: complex
    error_estimate: float
    nodes_used: int


# ---------------------------------------------------------------------------
# Gauss-Legendre nodes

_GL_CACHE: dict = {}


def _leggauss(m):
    """Nodes and weights of the m-point rule on [-1, 1], computed once per m
    and shared read-only."""
    if m not in _GL_CACHE:
        x, w = leggauss(m)
        x.flags.writeable = False
        w.flags.writeable = False
        _GL_CACHE[m] = (x, w)
    return _GL_CACHE[m]


# (t, panel) entries per block of CompositeRule.exp_sum; bounds its memory
_EXP_SUM_BLOCK = 1 << 18
_WORKSPACE = threading.local()


def _workspace(n):
    """The calling thread's complex scratch buffer, grown to n entries and
    kept.  exp_sum's (t x panel) product, up to 4 MB a block, lives in it:
    a fresh array that size may be mapped anew by the allocator, about a
    thousand page faults a block, depending on what earlier calls freed.
    Each block overwrites the part it reads, so no value depends on it."""
    buf = getattr(_WORKSPACE, "buf", None)
    if buf is None or buf.size < n:
        buf = _WORKSPACE.buf = np.empty(n, dtype=complex)
    return buf


class CompositeRule:
    """``panels`` equal panels on [lo, hi], each with the ``degree``-point
    Gauss-Legendre rule (1: the midpoint rule).  Point (p, k) is ``mid[p] +
    half * nodes[k]``; ``points`` and ``weights`` run panel by panel."""

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
        cols = rows * coarse * fine
        step = max(1, _EXP_SUM_BLOCK // cols)
        work = _workspace(min(step, flat.size) * cols)
        for start in range(0, flat.size, step):
            ct = c * flat[start:start + step]
            e_node = np.exp(np.multiply.outer(ct, self.half * self.nodes))
            e_fine = np.exp(np.multiply.outer(ct, fine_mid))
            e_coarse = np.exp(np.multiply.outer(ct, coarse_shift))
            inner = np.matmul(e_node, a, out=work[:len(ct) * cols].reshape(len(ct), cols))
            inner = inner.reshape(len(ct), rows * coarse, fine)
            by_step = (inner @ e_fine[:, :, None]).reshape(len(ct), rows, coarse)
            out[start:start + step] = (by_step @ e_coarse[:, :, None])[:, :, 0]
        return out.T.reshape(amps.shape[:-1] + t.shape)


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
    reduces each row on its own, so values do not depend on the blocking.
    The result is float64 when ``rows`` returns real values, else complex."""
    step = max(1, entries // width)
    first = rows(points[:step])
    out = np.empty(len(points), dtype=complex if np.iscomplexobj(first) else float)
    out[:step] = first
    for start in range(step, len(points), step):
        out[start:start + step] = rows(points[start:start + step])
    return out


# ---------------------------------------------------------------------------
# nested Gauss-Kronrod 10/21 rule

# QUADPACK's qk21 table (Piessens et al. 1983): the Kronrod nodes x >= 0 with
# their weights, x = 1 side first.  The second, fourth, ... tenth node are the
# nodes x > 0 of the 10-point Gauss rule, whose weights are _GAUSS10.
_QK21 = np.array([
    (0.99565716302580808, 0.011694638867371874),
    (0.97390652851717172, 0.032558162307964727),
    (0.93015749135570823, 0.054755896574351996),
    (0.86506336668898451, 0.075039674810919953),
    (0.78081772658641690, 0.093125454583697606),
    (0.67940956829902441, 0.10938715880229764),
    (0.56275713466860468, 0.12349197626206585),
    (0.43339539412924719, 0.13470921731147333),
    (0.29439286270146020, 0.14277593857706008),
    (0.14887433898163121, 0.14773910490133849),
    (0.0, 0.14944555400291691),
])
_GAUSS10 = np.array([0.066671344308688138, 0.14945134915058059, 0.21908636251598204,
                     0.26926671930999636, 0.29552422471475287])
# mirrored onto [-1, 1] in increasing x: the odd-indexed nodes are the Gauss nodes
_XK = np.concatenate([-_QK21[:-1, 0], _QK21[::-1, 0]])
_WK = np.concatenate([_QK21[:-1, 1], _QK21[::-1, 1]])
_WG = np.concatenate([_GAUSS10, _GAUSS10[::-1]])
SUBDIVISION_CAP = 4000  # bisections adaptive_interval may make before it raises


def adaptive_interval(f, a, b, abs_tol, what: str = "integral",
                      breakpoints: Sequence[float] = ()):
    """Adaptive bisection of a vectorized integrand over [a, b] in rounds.

    Round 0 evaluates the panels between a, b and the breakpoints inside;
    each later round bisects, largest error first, the fewest panels that
    leave the rest with errors summing to at most abs_tol / 2.  A panel
    takes the 21 nodes of the Gauss-Kronrod rule: its value is the Kronrod
    sum K21 and its error |K21 - G10|, G10 the Gauss rule on the 10 Gauss
    nodes among them.  A round evaluates all its new panels in one call of
    f, whose scalar result stands for every node.  Stops when the summed
    error is at most ``abs_tol``; raises ``ConvergenceError`` before a round
    would take the bisections past ``SUBDIVISION_CAP``.
    Returns a ``QuadResult`` summed over the panels in x order.
    """
    edges = np.array(sorted({float(a), float(b), *[p for p in breakpoints if a < p < b]}))
    new_lo, new_hi = edges[:-1], edges[1:]
    lo = hi = val = err = np.empty(0)
    nodes = splits = 0
    while True:
        mid, half = 0.5 * (new_lo + new_hi), 0.5 * (new_hi - new_lo)
        x = mid[:, None] + half[:, None] * _XK
        y = np.asarray(f(x.ravel()))
        y = np.full(x.shape, y) if y.ndim == 0 else y.reshape(x.shape)
        high = half * (_WK * y).sum(axis=1)
        low = half * (_WG * y[:, 1::2]).sum(axis=1)
        nodes += y.size
        lo, hi = np.append(lo, new_lo), np.append(hi, new_hi)
        val, err = np.append(val, high), np.append(err, np.abs(high - low))
        if err.sum() <= abs_tol:
            in_x = np.argsort(lo)
            return QuadResult(val[in_x].sum(), float(err[in_x].sum()), nodes)
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


def auto_radius(growth: GrowthClass, abs_tol: float, weight_exponent: float = 0.0) -> float:
    """Smallest radius whose certified tail is below abs_tol / 10; raises
    ``ConvergenceError`` if that radius would reach 1e12."""
    target = abs_tol / 10.0
    lo, hi = 1.0, 2.0
    while hi < 1e12:
        if tail_bound(growth, weight_exponent, hi) <= target:
            break
        hi *= 2.0
    else:
        raise ConvergenceError("tail target unreachable below the radius cap")
    lo_tested = False  # lo = 1 is the one end never compared with the target
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if mid == hi or (mid == lo and lo_tested):
            break  # adjacent floats: every further step repeats this one
        if tail_bound(growth, weight_exponent, mid) <= target:
            hi = mid
        else:
            lo, lo_tested = mid, True
    return hi


# ---------------------------------------------------------------------------
# boxes in R^n


def integrate_box(integrand: Callable, box, abs_tol: float = 1e-9,
                  max_points: int = 257) -> QuadResult:
    """Tensor-product Gauss-Legendre over a box, refined by point doubling.

    ``box`` is a sequence of per-axis radii R_i (axis i spans [-R_i, R_i]).
    ``integrand`` receives n per-axis coordinate arrays of an open grid
    (``np.ix_``) and returns values that broadcast over it.  n <= 3.
    """
    radii = [float(r) for r in box]
    n = len(radii)
    if n < 1 or n > 3:
        raise DimensionError(f"box dimension {n} not supported (1 <= n <= 3)")
    nodes_used = 0

    def evaluate(m):
        nonlocal nodes_used
        x, w = _leggauss(m)
        vals = np.broadcast_to(integrand(*np.ix_(*[r * x for r in radii])), (m,) * n)
        nodes_used += m ** n
        for r in reversed(radii):  # contract the last axis with its weights
            vals = vals @ (r * w)
        return vals

    value, err, _ = refine(evaluate, 16, max_points, abs_tol, "box rule",
                           "points per axis")
    return QuadResult(complex(value), err, nodes_used)


# ---------------------------------------------------------------------------
# certified tails


def tail_bound(growth: GrowthClass, weight_exponent: float, radius: float) -> float:
    """Upper bound for the two discarded tails |x| > radius of a line integral
    of a function in the declared class against a weight (1 + |x|)^w, w =
    ``weight_exponent``.

    An exp_decay class C e^(-d x) takes, for w > 0, int_R^inf (1 + x)^w
    e^(-d x) dx = e^d d^(-w-1) Gamma(w + 1, d (1 + R)) (t = d (1 + x)).
    A gaussian class C e^(-a x^2) takes (1 + x)^w <= (1 + R)^w and
    int_R^inf e^(-a x^2) dx <= e^(-a R^2) / (2 a R) for w <= 0; for w > 0,
    (1 + x)^w <= ((1 + R) / R)^w x^w and int_R^inf x^w e^(-a x^2) dx =
    a^(-s) Gamma(s, a R^2) / 2 with s = (w + 1) / 2, where Gamma(s, y) <=
    y^(s-1) e^(-y) for s <= 1 (t^(s-1) <= y^(s-1) for t >= y).
    A tempered class bounds the tail by its power; the asymptotic class fixes
    no constant for any one power, and infra-exponential growth diverges, so
    both raise ``DivergentTailError``.
    """
    if growth is None:
        raise ValueError("tail_bound requires a growth class")
    w = float(weight_exponent)
    r = float(radius)
    c = growth.constant
    if growth.kind == "gaussian":
        a = growth.rate
        y = a * r * r
        if w <= 0:
            return 2.0 * c * (1.0 + r) ** w * math.exp(-y) / (2.0 * a * r)
        s = 0.5 * (w + 1.0)
        gamma = y ** (s - 1.0) * math.exp(-y) if s <= 1.0 else _upper_gamma(s, y)
        return c * ((1.0 + r) / r) ** w * a ** -s * gamma
    if growth.kind == "exp_decay":
        d = growth.rate
        if w <= 0:
            return 2.0 * c * (1.0 + r) ** w * math.exp(-d * r) / d
        return 2.0 * c * math.exp(d) * d ** (-w - 1.0) * _upper_gamma(w + 1.0, d * (1.0 + r))
    if growth.kind == "tempered":
        p = growth.gamma + w
        if p >= -1.0:
            raise DivergentTailError(
                f"tail exponent {p:g} >= -1: line integral tail diverges")
        return 2.0 * c * r ** (p + 1.0) / (-(p + 1.0))
    raise DivergentTailError(f"the {growth.kind} class declares no rate that "
                             "bounds a line tail")


def _upper_gamma(s: float, y: float) -> float:
    """Gamma(s, y) for s >= 1 and y > 0: (n-1)! e^(-y) sum_{k<n} y^k / k! with
    n = ceil(s), times y^(s-n).  Exact for integer s; otherwise an upper
    bound, since t^(s-n) <= y^(s-n) for t >= y."""
    n = math.ceil(s)
    total, term = 0.0, 1.0
    for k in range(n):  # term = y^k / k!
        total += term
        term *= y / (k + 1)
    return y ** (s - n) * math.factorial(n - 1) * math.exp(-y) * total


# ---------------------------------------------------------------------------
# growth spot checks


@dataclass(frozen=True)
class GrowthReport:
    passed: bool
    claimed: GrowthClass
    worst_ratio: float
    failures: tuple  # (radius, |value|, envelope) triples


def verify_growth(e, claimed: GrowthClass) -> GrowthReport:
    """Spot-check a declared growth class on the real axis.

    ``e`` is an expression or any callable of a complex argument.  The check
    fails if |e| exceeds the claimed envelope more than tenfold at x = +-5,
    +-10 or +-20.
    """
    if not callable(e):
        raise TypeError("verify_growth needs a callable or expression")
    failures = []
    worst = 0.0
    for r in (5.0, 10.0, 20.0):
        for x in (r, -r):
            v = abs(complex(np.asarray(e(complex(x)))))
            env = claimed.envelope(abs(x))
            ratio = v / env if env > 0 else math.inf
            worst = max(worst, ratio)
            if ratio > 10.0:
                failures.append((x, v, env))
    return GrowthReport(passed=not failures, claimed=claimed,
                        worst_ratio=worst, failures=tuple(failures))
