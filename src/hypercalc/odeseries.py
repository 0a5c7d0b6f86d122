"""Formal-series solver for polynomial-coefficient ODEs on singular series.

Series live on defining functions: a delta-derivative or finite-part series
is stored as a Laurent tail in tau, where multiplication by t and d/dt act
exactly (t * tau^-n = tau^-(n-1), d/dtau tau^-n = -n tau^-(n+1)).  The
solver's arithmetic is exact rational: a float input is its binary value.

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
from typing import Sequence


from . import expr as ex
from .growth import GrowthClass
from .hyper import TWO_PI_I, Hyperfunction1D, TestFunction, laurent_polynomial, pair

__all__ = [
    "PolyCoeffOperator", "FormalLaurentTail", "apply_operator", "solve_series",
    "SeriesSolution", "assemble", "residual_check",
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

    def apply_adjoint(self, phi: ex.Expr) -> ex.Expr:
        """L* phi = sum c (-d/dt)^j (t^m phi), symbolically."""
        z = ex.Var("z")
        total = ex._ZERO
        for m, j, c in self.terms:
            term = phi
            for _ in range(m):
                term = ex.Mul(z, term)
            for _ in range(j):
                term = ex.Neg(ex.differentiate(term, 1))
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
            scale, k = 1, n
            for _ in range(j):  # d/dtau, in integers before g and c enter
                scale *= -k
                k += 1
            if not scale:
                continue
            k -= m  # multiply by t^m; k < 0 (an entire part) is kept for callers
            if k > s.n_max:
                lost.add(k)
                continue
            out[k] = out.get(k, 0) + g * scale * c
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
    tail: FormalLaurentTail


def _exact(x) -> Fraction:
    """x as a Fraction; a float becomes its exact binary value."""
    if isinstance(x, complex):
        raise ValueError(f"solve_series needs real coefficients, got {x!r}")
    return Fraction(x)


def solve_series(L: PolyCoeffOperator, basis: str, init, N: int) -> SeriesSolution:
    """Solve L f = 0 order by order for f = sum a_n e_n (plus a compensating
    constant in the fp basis), a_0 = init, up to basis order N.

    The arithmetic is exact: init and L's coefficients become Fractions.  A
    coordinate tau^-k is visible when the parity can show it: k >= 1 for the
    delta parity (an entire part cancels in F+ - F-) and every k for fp.
    L e_n reaches tau^-(n + 1 + j - m) for each term, so the coordinates
    k <= N take a_0..a_M with M = N + max(0, max(m - j) - 1); all of them
    are unknowns, a_(N+1)..a_M kept in the tail only.  Each unknown after
    a_0, the constant last, cancels the residual at the lowest visible
    coordinate of its column L e_n.  A column of a_1..a_N with none raises
    ``RecurrenceError``; one of a_(N+1)..a_M or of the constant (L 1 = 0)
    leaves it free, and it stays 0.  A residual left at a visible k <= N
    raises too (coordinates above N are truncation artifacts).
    """
    if basis not in ("delta", "fp"):
        raise ValueError(f"unknown basis {basis!r}")
    L = PolyCoeffOperator(tuple((m, j, _exact(c)) for m, j, c in L.terms), L.label)
    M = N + max(0, max(m - j for m, j, _ in L.terms) - 1)
    n_max = M + 1 + max(j for _, j, _ in L.terms) + max(m for m, _, _ in L.terms)
    # e_n: delta^(n) has Gtilde_{n+1} = (-1)^n n!, f.p. t^-(n+1) has Gtilde_{n+1} = 1
    units = [{n + 1: (-1) ** n * math.factorial(n) if basis == "delta" else 1}
             for n in range(M + 1)] + ([{0: 1}] if basis == "fp" else [])

    def visible(k):
        return k >= 1 or basis == "fp"

    values, residual = [], {}
    for n, unit in enumerate(units):
        col = apply_operator(L, FormalLaurentTail(basis, unit, n_max)).coefficients
        if n == 0:
            value = _exact(init)
        else:
            pivot = min((k for k in col if visible(k)), default=None)
            if pivot is not None:
                value = -residual.get(pivot, 0) / col[pivot]
            elif n > N:  # touches no checked coordinate: free, and it stays 0
                value = Fraction(0)
            else:
                raise RecurrenceError(f"L e_{n} has no visible coordinate")
        values.append(value)
        for k, v in col.items():
            residual[k] = residual.get(k, 0) + value * v
    for k, v in sorted(residual.items()):
        if v and visible(k) and k <= N:
            raise RecurrenceError(f"no formal solution: residual {v} at tau^{-k}")

    # root test on the distribution-side coefficients
    a = values[:N + 1]
    roots = []
    for n in range(1, N + 1):
        mag = abs(a[n])
        if basis == "delta":
            mag *= math.factorial(n)
        roots.append(float(mag) ** (1.0 / n) if mag else 0.0)
    half = roots[len(roots) // 2:]
    admissible = bool(half) and all(b <= x * (1 + 1e-12) for x, b in
                                    zip(half, half[1:])) and half[-1] < 0.5

    tail = FormalLaurentTail(basis, {k: value * g for value, unit in zip(values, units)
                                     for k, g in unit.items() if value}, n_max=M + 1)
    return SeriesSolution(basis=basis, coefficients=tuple(a),
                          constant=values[M + 1] if basis == "fp" else 0,
                          admissible=admissible, tail=tail)


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
        return Hyperfunction1D(f_plus=f, f_minus=f, strip=math.inf,
                               growth=GrowthClass.tempered(-1.0),
                               point_support=0.0, label=label)
    fp = ex.simplify(ex.Mul(ex.Const(0.5), gt))
    return Hyperfunction1D(f_plus=fp, f_minus=ex.simplify(ex.Neg(fp)),
                           strip=math.inf, growth=GrowthClass.tempered(0.0), label=label)


def _adjoint_test_function(L: PolyCoeffOperator, phi: TestFunction) -> TestFunction:
    """L* phi with a certified envelope, from phi's gaussian or exp_decay class.

    Each term c (-d/dt)^j (t^m phi) is bounded by the Cauchy estimate on the
    disc of radius rho = min(s / 2, 1) around z, s the strip of phi: j! rho^-j
    times the largest |w^m phi(w)| on the disc.  L* phi keeps the strip
    |Im z| <= rho, so on the disc |Im w| <= 2 rho, |Re w| is within rho of
    |x| and |w| <= |x| + 3 rho.  A gaussian class C e^(-a x^2) gives, since
    max(0, |x| - rho)^2 >= (|x| - rho)^2 - rho^2, with v = |x| - 2 rho,
    |w|^m e^(-a (Re w)^2) <= e^(2 a rho^2) (v + 5 rho)^m e^(-(a/2) v^2)
    e^(-(a/2) x^2); an exp_decay class C e^(-d x) gives e^(d rho)
    (|x| + 3 rho)^m e^(-(d/2) |x|) e^(-(d/2) |x|).  Each bound is maximized
    over v or |x| in closed form, so L* phi is in the class of half the rate.
    """
    if not isinstance(phi.expr, ex.Expr):
        raise ValueError("residual_check needs symbolic test functions")
    g = phi.growth
    if g.kind not in ("gaussian", "exp_decay"):
        raise ValueError(f"no envelope of L* phi for a {g.kind} test function")
    rho = min(0.5 * phi.strip_halfwidth, 1.0)
    a = g.rate
    if g.kind == "gaussian":
        b = 5.0 * rho

        def peak(m):  # max over v > -b of (v + b)^m e^(-(a/2) v^2)
            v = 0.5 * (math.sqrt(b * b + 4.0 * m / a) - b)
            return (v + b) ** m * math.exp(-0.5 * a * v * v)

        shift = math.exp(2.0 * a * rho * rho)
        growth = GrowthClass.gaussian
    else:
        def peak(m):  # max over t >= 0 of (t + 3 rho)^m e^(-(a/2) t)
            t = max(0.0, 2.0 * m / a - 3.0 * rho)
            return (t + 3.0 * rho) ** m * math.exp(-0.5 * a * t)

        shift = math.exp(a * rho)
        growth = GrowthClass.exp_decay
    constant = g.constant * shift * sum(
        abs(complex(c)) * math.factorial(j) * rho ** -j * peak(m) for m, j, c in L.terms)
    return TestFunction(L.apply_adjoint(phi.expr), strip_halfwidth=rho,
                        growth=growth(0.5 * a, constant), label=f"L*({phi.label})")


def residual_check(f: Hyperfunction1D, L: PolyCoeffOperator,
                   suite: Sequence[TestFunction]) -> float:
    """max over the suite of |<f, L* phi>| = |<L f, phi>|, each L* phi with
    the certified half-rate envelope of ``_adjoint_test_function``."""
    return max((abs(pair(f, _adjoint_test_function(L, phi))) for phi in suite),
               default=0.0)
