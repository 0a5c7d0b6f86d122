"""Formal-series solver for polynomial-coefficient ODEs on singular series.

Series live on defining functions: a delta-derivative or finite-part series
is stored as a Laurent tail in tau, where multiplication by t and d/dt act
exactly (t * tau^-n = tau^-(n-1), d/dtau tau^-n = -n tau^-(n+1)).  All
arithmetic is exact rational when the inputs are rational.

Conventions.  A tail holds rational coefficients g_n of tau^-n for the
reduced function Gtilde; the actual defining functions are
  delta-type:  F+ = F- = (-1/2 pi i) * Gtilde,
  fp-type:     F+ = (1/2) * Gtilde,  F- = -(1/2) * Gtilde.
Under these, sum c_n delta^(n) has Gtilde_{n+1} = (-1)^n n! c_n, the
Laurent coefficients ``hyper.delta_combination`` scales by -1/2 pi i; the
finite part f.p. t^-n has Gtilde_n = 1, and the constant function 1 is the
fp-type tail with Gtilde_0 = 1.  Constants in delta-type parity cancel in
the boundary difference and represent zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence


from . import expr as ex
from .growth import GrowthClass
from .hyper import TWO_PI_I, Hyperfunction1D, TestFunction, laurent_polynomial, pair

__all__ = [
    "PolyCoeffOperator", "FormalLaurentTail", "apply_operator", "solve_series",
    "SeriesSolution", "assemble", "residual_check", "adjoint_test_expr",
]


def _is_exact(x):
    return isinstance(x, (int, Fraction))


@dataclass(frozen=True)
class PolyCoeffOperator:
    """Sum of c * t^m * (d/dt)^j over the stored (m, j, c) terms."""

    terms: tuple  # of (m, j, c)
    label: str = ""

    def __post_init__(self):
        seen = set()
        for m, j, c in self.terms:
            if m < 0 or j < 0:
                raise ValueError("powers and derivative orders must be >= 0")
            if (m, j) in seen:
                raise ValueError(f"duplicate term (m={m}, j={j})")
            seen.add((m, j))

    def adjoint_applied(self, phi: ex.Expr) -> ex.Expr:
        """L* phi = sum c (-d/dt)^j (t^m phi), symbolically."""
        z = ex.Var("z")
        total = ex._ZERO
        for m, j, c in self.terms:
            term = phi
            for _ in range(m):
                term = ex.Mul(z, term)
            for _ in range(j):
                term = ex.Neg(ex.differentiate(term, 1, "z"))
            total = ex.Add(total, ex.Mul(ex.Const(complex(c)), term))
        return ex.simplify(total)


@dataclass(frozen=True)
class FormalLaurentTail:
    """Truncated series sum_n g_n tau^-n, n = 0..n_max (0 is the constant)."""

    parity: str  # "delta" or "fp"
    coefficients: dict  # n -> exact/complex coefficient of tau^-n
    n_max: int
    lost_degrees: tuple = ()

    def __post_init__(self):
        if self.parity not in ("delta", "fp"):
            raise ValueError(f"unknown parity {self.parity!r}")

    @classmethod
    def from_delta_coefficients(cls, cs: Sequence, n_max: Optional[int] = None):
        """Tail of sum c_n delta^(n)."""
        n_max = len(cs) if n_max is None else n_max
        coeffs = {}
        for n, c in enumerate(cs):
            if c:
                coeffs[n + 1] = c * (-1) ** n * math.factorial(n)
        return cls(parity="delta", coefficients=coeffs, n_max=n_max)

    def delta_coefficient(self, n: int):
        """Coefficient of delta^(n), for delta-type tails."""
        if self.parity != "delta":
            raise ValueError("not a delta-type tail")
        g = self.coefficients.get(n + 1, 0)
        if not g:
            return g
        if _is_exact(g):
            return g * Fraction((-1) ** n, math.factorial(n))
        return g * (-1) ** n / math.factorial(n)

    def is_zero(self) -> bool:
        return not any(self.coefficients.values())


def apply_operator(L: PolyCoeffOperator, s: FormalLaurentTail) -> FormalLaurentTail:
    """Exact action of L on the tail; indices pushed past n_max are dropped
    and recorded in lost_degrees."""
    out = {}
    lost = set(s.lost_degrees)
    for m, j, c in L.terms:
        for n, g in s.coefficients.items():
            if not g:
                continue
            coef = g * c
            k = n
            for _ in range(j):  # d/dtau
                coef = coef * (-k)
                k += 1
            if not coef:
                continue
            k -= m  # multiply by t^m; k < 0 (an entire part) is kept for callers
            if k > s.n_max:
                lost.add(k)
                continue
            out[k] = out.get(k, 0) + coef
    out = {k: v for k, v in out.items() if v}
    return FormalLaurentTail(parity=s.parity, coefficients=out, n_max=s.n_max,
                             lost_degrees=tuple(sorted(lost)))


class RecurrenceError(ValueError):
    pass


@dataclass(frozen=True)
class SeriesSolution:
    basis: str  # "delta" or "fp"
    coefficients: tuple  # basis coefficients a_0..a_N
    constant: object  # compensating constant term (fp basis), else 0
    admissible: bool
    root_sequence: tuple
    tail: FormalLaurentTail


def _basis_tail(basis: str, n: int, n_max: int) -> FormalLaurentTail:
    if basis == "delta":
        # delta^(n): Gtilde_{n+1} = (-1)^n n!
        return FormalLaurentTail("delta", {n + 1: (-1) ** n * math.factorial(n)},
                                 n_max)
    # f.p. 1/t^(n+1): Gtilde_{n+1} = 1
    return FormalLaurentTail("fp", {n + 1: 1}, n_max)


def solve_series(L: PolyCoeffOperator, basis: str, init, N: int) -> SeriesSolution:
    """Solve L f = 0 order by order for f = sum a_n e_n (plus a compensating
    constant in the fp basis), a_0 = init, up to basis order N."""
    if basis not in ("delta", "fp"):
        raise ValueError(f"unknown basis {basis!r}")
    n_max = N + 1 + max(j for _, j, _ in L.terms) + max(m for m, _, _ in L.terms)
    cols = [apply_operator(L, _basis_tail(basis, n, n_max)).coefficients
            for n in range(N + 1)]
    const_col = {}
    if basis == "fp":
        const_col = apply_operator(
            L, FormalLaurentTail("fp", {0: 1}, n_max)).coefficients

    a = [None] * (N + 1)
    a[0] = init
    constant = 0
    residual = {}

    def add_scaled(col, s):
        for k, v in col.items():
            residual[k] = residual.get(k, 0) + s * v

    add_scaled(cols[0], init)
    for n in range(1, N + 1):
        pivot = min(k for k, v in cols[n].items() if v)
        if basis == "delta" and pivot < 1:
            pivot = min((k for k, v in cols[n].items() if v and k >= 1),
                        default=None)
            if pivot is None:
                raise RecurrenceError(f"no usable pivot for basis index {n}")
        piv_coef = cols[n][pivot]
        if not piv_coef:
            raise RecurrenceError(f"zero pivot at basis index {n}")
        rhs = residual.get(pivot, 0)
        if _is_exact(rhs) and _is_exact(piv_coef):
            a[n] = -Fraction(rhs, 1) / Fraction(piv_coef, 1)
        else:
            a[n] = -complex(rhs) / complex(piv_coef)
        add_scaled(cols[n], a[n])
    if basis == "fp" and const_col:
        pivot = min(k for k, v in const_col.items() if v)
        rhs = residual.get(pivot, 0)
        piv = const_col[pivot]
        constant = (-Fraction(rhs, 1) / Fraction(piv, 1)
                    if _is_exact(rhs) and _is_exact(piv) else
                    -complex(rhs) / complex(piv))
        add_scaled(const_col, constant)

    # every fully resolved coordinate must have cancelled (coordinates above
    # N are truncation artifacts; nonpositive ones are invisible for the
    # delta parity)
    k_min = 1 if basis == "delta" else 0
    for k, v in sorted(residual.items()):
        if k_min <= k <= N and v:
            raise RecurrenceError(
                f"no formal solution: residual {v} at tau^-{k}")

    # root test on the distribution-side coefficients
    roots = []
    for n in range(1, N + 1):
        mag = abs(a[n])
        if basis == "delta":
            mag *= math.factorial(n)
        roots.append(float(mag) ** (1.0 / n) if mag else 0.0)
    half = roots[len(roots) // 2:]
    admissible = bool(half) and all(b <= x * (1 + 1e-12) for x, b in
                                    zip(half, half[1:])) and half[-1] < 0.5

    coeffs = {}
    for n, an in enumerate(a):
        tail_n = _basis_tail(basis, n, n_max)
        for k, g in tail_n.coefficients.items():
            coeffs[k] = coeffs.get(k, 0) + an * g
    if basis == "fp" and constant:
        coeffs[0] = coeffs.get(0, 0) + constant
    tail = FormalLaurentTail(basis, {k: v for k, v in coeffs.items() if v},
                             n_max=N + 1)
    return SeriesSolution(basis=basis, coefficients=tuple(a), constant=constant,
                          admissible=admissible, root_sequence=tuple(roots),
                          tail=tail)


# ---------------------------------------------------------------------------
# assembly into a hyperfunction


def _match_exponential(tail: FormalLaurentTail):
    """If g_n = lam (-1)^n / n! for all stored n >= 1, return (lam, g_0)."""
    lam = None
    top = 0
    for n, g in sorted(tail.coefficients.items()):
        if n == 0:
            continue
        cand = g * (-1) ** n * math.factorial(n)
        if lam is None:
            lam = cand
        elif not _close(cand, lam):
            return None
        top = n
    if lam is None or top < 3:
        return None
    return lam, tail.coefficients.get(0, 0)


def _close(a, b):
    if _is_exact(a) and _is_exact(b):
        return a == b
    return abs(complex(a) - complex(b)) <= 1e-12 * (1 + abs(complex(b)))


def assemble(tail: FormalLaurentTail, admissible: bool = True,
             label: str = "") -> Hyperfunction1D:
    """Closed form when the tail matches the Laurent expansion of an
    exponential; otherwise a truncated Laurent polynomial (formal-only when
    inadmissible).  A zero tail of either parity is the delta-like zero."""
    if tail.is_zero():
        gt, label = ex._ZERO, label or "zero"
    elif admissible and (match := _match_exponential(tail)) is not None:
        lam, g0 = match
        # Gtilde = g0 + lam (e^{-1/z} - 1)
        core = ex.Sub(ex.Call("exp", ex.Neg(ex.Div(ex._ONE, ex.Var("z")))),
                      ex._ONE)
        gt = ex.Add(ex.Const(complex(g0)), ex.Mul(ex.Const(complex(lam)), core))
    else:
        gt = laurent_polynomial(dict(sorted(tail.coefficients.items())))
        label += " [formal-only]" if not admissible else " [truncated]"
    if tail.is_zero() or tail.parity == "delta":
        f = ex.simplify(ex.Mul(ex.Const(-1.0 / TWO_PI_I), gt))
        return Hyperfunction1D(f_plus=f, f_minus=f, strip_plus=math.inf,
                               strip_minus=math.inf, growth=GrowthClass.tempered(-1.0),
                               point_support=0.0, label=label)
    fp = ex.simplify(ex.Mul(ex.Const(0.5), gt))
    return Hyperfunction1D(f_plus=fp, f_minus=ex.simplify(ex.Neg(fp)),
                           strip_plus=math.inf, strip_minus=math.inf,
                           growth=GrowthClass.tempered(0.0), label=label)


def residual_check(f: Hyperfunction1D, L: PolyCoeffOperator,
                   suite: Sequence[TestFunction]) -> float:
    """max over the suite of |<f, L* phi>| = |<L f, phi>|."""
    worst = 0.0
    for phi in suite:
        if not isinstance(phi.expr, ex.Expr):
            raise ValueError("residual_check needs symbolic test functions")
        lstar = L.adjoint_applied(phi.expr)
        phi_star = TestFunction(lstar, strip_halfwidth=phi.strip_halfwidth,
                                growth=phi.growth, label=f"L*({phi.label})")
        worst = max(worst, abs(pair(f, phi_star)))
    return worst


def adjoint_test_expr(L: PolyCoeffOperator, phi: ex.Expr) -> ex.Expr:
    """Expose L* phi for direct inspection and quadrature cross-checks."""
    return L.adjoint_applied(phi)
