"""The acceptance suite: fourteen numbered checks with quadrature oracles.

Each check returns a CheckResult; run_all executes them in order and the
final check re-runs the seeded portion to confirm byte-level determinism of
the serialized report.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, List, Optional

import numpy as np

from . import corpus as cp
from . import expr as ex
from . import hyper as hy
from . import odeseries as od
from . import radon as rd
from . import spectral as sp
from .quad import ContourSpec, adaptive_interval

__all__ = ["CheckResult", "run_all", "report_json", "direction_set", "worker_count",
           "CHECKS"]


@dataclass
class CheckResult:
    cid: int
    name: str
    passed: bool
    max_err: Optional[float] = None
    details: dict = field(default_factory=dict)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        err = "" if self.max_err is None else f"  max_err={self.max_err:.3e}"
        return f"[{status}] {self.cid:2d} {self.name}{err}"


def worker_count() -> int:
    """Threads for the battery and the CLI: ``HYPERCALC_THREADS``, at least 1."""
    try:
        return max(1, int(os.environ.get("HYPERCALC_THREADS", "1")))
    except ValueError:
        return 1


def direction_set(count: int, seed: int) -> List[tuple]:
    """Reproducible low-discrepancy unit directions in the plane
    (golden-angle sequence with a seeded phase)."""
    rng = np.random.default_rng(seed)
    phase = float(rng.uniform(0.0, 2.0 * math.pi))
    golden = math.pi * (3.0 - math.sqrt(5.0))
    out = []
    for j in range(count):
        th = phase + j * golden
        out.append((math.cos(th), math.sin(th)))
    return out


# ---------------------------------------------------------------------------


def check_delta_calculus(seed: int) -> CheckResult:
    suite = cp.test_suite()
    worst = 0.0
    for n in range(6):
        f = hy.delta_derivative(n)
        for phi in suite:
            got = hy.pair(f, phi)
            want = (-1.0) ** n * phi.derivative_at(0.0, n)
            worst = max(worst, abs(got - want))
    return CheckResult(1, "delta calculus pair(delta^(n), phi)", worst <= 1e-8,
                       worst)


def check_contour_independence(seed: int) -> CheckResult:
    corpus = cp.default_corpus()
    phi = cp.test_suite()[0]
    worst = 0.0
    details = {}
    for label in sorted(corpus):
        f = corpus[label]
        if f.is_delta_like:
            v1, e1 = hy.pair_with_error(f, phi)
            v2, e2 = hy.pair_with_error(f, phi, force_lines=True)
        else:
            s1 = ContourSpec(imag_offset=0.3, abs_tol=1e-10)
            s2 = ContourSpec(imag_offset=0.45, abs_tol=1e-10)
            v1, e1 = hy.pair_with_error(f, phi, spec=s1)
            v2, e2 = hy.pair_with_error(f, phi, spec=s2)
        diff = abs(v1 - v2)
        budget = max(2.0 * (e1 + e2 + 1e-10), 1e-8)
        details[label] = {"diff": diff, "budget": budget}
        worst = max(worst, diff / budget)
    return CheckResult(2, "contour independence across corpus", worst <= 1.0,
                       worst, details)


def check_fourier_round_trip(seed: int) -> CheckResult:
    corpus = cp.default_corpus()
    suite = cp.test_suite()[:2]
    worst = 0.0
    for label in ("delta", "sech", "gaussian"):
        f = corpus[label]
        fhat = sp.fourier_transform(f)
        back = sp.inverse_fourier(fhat, label=f"rt({label})")
        for phi in suite:
            v1 = hy.pair(f, phi)
            v2 = hy.pair(back, phi)
            worst = max(worst, abs(v1 - v2) / (1.0 + abs(v1)))
    # oracle: hat(sech)(1) against real-axis quadrature
    fhat = sp.fourier_transform(corpus["sech"])
    sech1 = ex.parse_expr("sech(z)*exp(-(i*z))")

    def integrand(x):
        return ex.evaluate(sech1, {"z": x.astype(complex)})

    oracle, _, _ = adaptive_interval(integrand, -40.0, 40.0, 1e-12, "sech oracle at xi=1")
    delta_hat = abs(complex(np.asarray(fhat(1.0))) - oracle)
    passed = worst <= 1e-5 and delta_hat <= 1e-6
    return CheckResult(3, "Fourier round trip + sech oracle at xi=1", passed,
                       max(worst, delta_hat), {"sech_hat_err": delta_hat})


def check_moment_duality(seed: int) -> CheckResult:
    corpus = cp.asymptotic_corpus()
    worst = 0.0
    for label in sorted(corpus):
        f = corpus[label]
        fhat = sp.fourier_transform(f)
        for k in range(7):
            mu = sp.moment(f, k)
            dual = (1j) ** k * complex(np.asarray(fhat(0.0, order=k)))
            worst = max(worst, abs(dual - mu) / (1.0 + abs(mu)))
    return CheckResult(4, "moment-derivative duality k<=6", worst <= 1e-5, worst)


def check_expansion_remainder(seed: int) -> CheckResult:
    corpus = cp.asymptotic_corpus()
    worst = 0.0
    for label in ("sech", "gaussian", "delta2", "ode_f1"):
        rem = sp.remainder_moments(corpus[label],
                                   sp.asymptotic_sum(corpus[label], 4))
        worst = max(worst, max(abs(r) for r in rem))
    return CheckResult(5, "expansion remainder moments N<=4", worst <= 1e-7,
                       worst)


def check_parametric_order(seed: int) -> CheckResult:
    corpus = cp.default_corpus()
    suite = cp.test_suite()
    fit1 = sp.parametric_order_check(corpus["sech"], suite[0], 2)
    fit2 = sp.parametric_order_check(corpus["sech"], suite[1], 1)
    ok = (not fit1.vacuous and fit1.slope <= -(2 + 2) + 0.25
          and fit1.slope <= -(2 + 3) + 0.5
          and not fit2.vacuous and fit2.slope <= -(1 + 2) + 0.25)
    return CheckResult(6, "parametric order slopes", ok, None,
                       {"slope_even": fit1.slope, "slope_generic": fit2.slope})


def check_moment_realization(seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for trial in range(5):
        mu = [complex(x) for x in rng.uniform(-1.0, 1.0, size=7)]
        real = sp.realize_moments(mu, label=f"rand{trial}")
        for n, target in enumerate(mu):
            got = sp.moment(real.hyperfunction, n)
            worst = max(worst, abs(got - target))
    return CheckResult(7, "moment realization, 5 random sequences", worst <= 1e-6,
                       worst)


def _two_route_delta(f, omega, phi):
    v1 = hy.pair(rd.radon_transform(f, omega).hyper, phi)
    v2 = hy.pair(rd.radon_via_fourier(f, omega), phi)
    return abs(v1 - v2) / (1.0 + abs(v1))


def check_radon_two_route(seed: int) -> CheckResult:
    md = cp.multidim_corpus()
    dirs = direction_set(8, seed)
    phi = cp.test_suite()[0]
    labels = sorted(md)
    jobs = [(label, om) for label in labels for om in dirs]
    with ThreadPoolExecutor(max_workers=worker_count()) as pool:
        rels = list(pool.map(lambda j: _two_route_delta(md[j[0]], j[1], phi),
                             jobs))
    worst = max(rels)
    # Gaussian slice oracle
    sl = rd.radon_transform(md["gauss2"], (1.0, 0.0))
    v = hy.pair(sl.hyper, phi)
    oracle_err = abs(v - math.pi / math.sqrt(2.0))
    passed = worst <= 1e-5 and oracle_err <= 1e-6
    return CheckResult(8, "Radon two-route agreement + Gaussian oracle", passed,
                       worst, {"gaussian_slice_err": oracle_err})


def check_helgason(seed: int) -> CheckResult:
    md = cp.multidim_corpus()
    rng = np.random.default_rng(seed + 1)
    worst = 0.0
    for label in ("gauss2", "skew_gauss2", "point_J"):
        f = md[label]
        for k in range(5):
            poly = rd.helgason_moment(f, k)
            assert poly.degree == k
            for _ in range(3):
                th = float(rng.uniform(0.0, 2.0 * math.pi))
                om = (math.cos(th), math.sin(th))
                direct = rd.slice_moment(f, om, k)
                worst = max(worst, abs(complex(direct) - complex(poly(om)))
                            / (1.0 + abs(complex(direct))))
            # parity is exact by construction
            omq = (Fraction(3, 5), Fraction(4, 5))
            neg = tuple(-w for w in omq)
            if poly(neg) != (-1) ** k * poly(omq):
                return CheckResult(9, "Helgason moments", False, None,
                                   {"parity_failure": label})
    return CheckResult(9, "Helgason polynomials vs slice moments k<=4",
                       worst <= 1e-5, worst)


def check_radon_expansion(seed: int) -> CheckResult:
    md = cp.multidim_corpus()
    dirs = direction_set(3, seed + 2)
    worst = 0.0
    for label in ("gauss2", "point_J"):
        f = md[label]
        expn = rd.radon_asymptotic_sum(f, 2)
        for om in dirs:
            for k in range(3):
                rem = complex(rd.slice_moment(f, om, k)) - \
                    complex(expn.polys[k](om))
                worst = max(worst, abs(rem))
    # symbolic closed form, exact rational arithmetic
    src = md["point_J"].sources[0]
    expn = rd.radon_asymptotic_sum(md["point_J"], 6)
    exact_ok = True
    for omq in ((Fraction(3, 5), Fraction(4, 5)),
                (Fraction(-5, 13), Fraction(12, 13))):
        for k in range(7):
            if expn.coefficient(k, omq) != rd.example_point_coefficient(src, omq, k):
                exact_ok = False
    passed = worst <= 1e-6 and exact_ok
    return CheckResult(10, "Radon expansion remainders + exact coefficients",
                       passed, worst, {"symbolic_exact": exact_ok})


def check_support_criterion(seed: int) -> CheckResult:
    worst = 0.0
    for a in (0.3, 0.6, -0.8):
        mom = [complex(a) ** k for k in range(80)]
        for S in (abs(a) + 0.1, 1.5 * abs(a) + 0.2, 2.0):
            rep = rd.support_check(mom, S, bound=(1.0, abs(a)))
            worst = max(worst, rep.rate)
            if not rep.passed[1e-3]:
                return CheckResult(11, "support criterion", False, rep.rate,
                                   {"a": a, "S": S})
    bad = [float(math.factorial(k)) ** 2 for k in range(12)]
    rep = rd.support_check(bad, 1.0)
    diverged = rep.diagnosis.startswith("series diverges")
    return CheckResult(11, "support criterion: delta family / (k!)^2",
                       worst <= 1e-3 and diverged, worst,
                       {"divergence_diagnosis": rep.diagnosis})


def check_ode_example(seed: int) -> CheckResult:
    L = cp.example_operator()
    sol1 = od.solve_series(L, "delta", Fraction(1), 30)
    ok_d = all(sol1.coefficients[n] ==
               Fraction(1, math.factorial(n + 1) * math.factorial(n))
               for n in range(31))
    sol2 = od.solve_series(L, "fp", Fraction(1), 30)
    ok_h = all(sol2.coefficients[n] == Fraction((-1) ** n, math.factorial(n + 1))
               for n in range(31))
    suite = cp.test_suite()[:2]
    f1 = od.assemble(sol1.tail, sol1.admissible, label="f1")
    f2 = od.assemble(sol2.tail, sol2.admissible, label="f2")
    r1 = od.residual_check(f1, L, suite)
    r2 = od.residual_check(f2, L, suite)
    r_delta = od.residual_check(hy.delta_derivative(0), L, suite)
    passed = (ok_d and ok_h and sol1.admissible and sol2.admissible
              and r1 <= 1e-7 and r2 <= 1e-7 and r_delta > 1e-2)
    return CheckResult(12, "formal ODE series end to end", passed,
                       max(r1, r2),
                       {"exact_d": ok_d, "exact_h": ok_h,
                        "delta_residual": r_delta})


def check_gevrey(seed: int) -> CheckResult:
    md = cp.multidim_corpus()
    fits = {}
    ok = True
    for label in ("point_a", "point_J"):
        fit = rd.gevrey_probe(md[label], (3 / 5, 4 / 5), 2.0j)
        fits[label] = {"C": fit.C, "v": fit.v, "envelope": fit.envelope_ok}
        ok = ok and fit.envelope_ok
    radial = rd.gevrey_probe(md["gauss2"], (1.0, 0.0), 0.5j)
    ok = ok and radial.envelope_ok and radial.negligible
    try:
        rd.gevrey_probe(md["point_a"], (1.0, 0.0), 2.0j, max_order=6)
        ok = False
    except ValueError:
        pass
    return CheckResult(13, "Gevrey envelope up to order 4", ok, None, fits)


_SEEDED_CHECKS: List[Callable] = [
    check_delta_calculus, check_contour_independence, check_fourier_round_trip,
    check_moment_duality, check_expansion_remainder, check_parametric_order,
    check_moment_realization, check_radon_two_route, check_helgason,
    check_radon_expansion, check_support_criterion, check_ode_example,
    check_gevrey,
]

CHECKS = {i + 1: fn for i, fn in enumerate(_SEEDED_CHECKS)}


def _to_plain(v):
    if isinstance(v, dict):
        return {str(k): _to_plain(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_to_plain(x) for x in v]
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, complex):
        return [float(v.real), float(v.imag)]
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    if isinstance(v, (bool, int, float, str)) or v is None:
        return v
    return repr(v)


def report_json(results: List[CheckResult]) -> str:
    payload = [
        {"id": r.cid, "name": r.name, "passed": bool(r.passed),
         "max_err": None if r.max_err is None else float(r.max_err),
         "details": _to_plain(r.details)}
        for r in results
    ]
    return json.dumps(payload, sort_keys=True, indent=2)


def run_all(seed: int = 7,
            echo: Optional[Callable[[str], None]] = None) -> List[CheckResult]:
    """Run checks 1..13 and the determinism re-run of all of them (check 14)."""
    results = []
    for fn in _SEEDED_CHECKS:
        r = fn(seed)
        results.append(r)
        if echo:
            echo(r.line())
    ids = [r.cid for r in results]
    second = report_json([CHECKS[i](seed) for i in ids])
    det = CheckResult(14, "determinism: repeated run is byte-identical",
                      report_json(results) == second, None, {"rerun_ids": ids})
    results.append(det)
    if echo:
        echo(det.line())
    return results
