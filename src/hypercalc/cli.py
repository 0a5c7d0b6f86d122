"""Command line driver.

Every library operation is reachable from exactly one subcommand (see
OPS_BY_SUBCOMMAND); reports are emitted both as a human-readable table on
stdout and as machine-readable JSON + CSV files.  Fixed seed and config
imply byte-identical reports.  Exit codes: 0 success, 1 acceptance/check
failure, 2 usage or validation error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from . import acceptance as ac
from . import corpus as cp
from . import expr as ex
from . import hyper as hy
from . import odeseries as od
from . import radon as rd
from . import spectral as sp
from .growth import GrowthClass
from .quad import ContourSpec, ConvergenceError

OPS_BY_SUBCOMMAND = {
    "pair": ["hyper.pair", "hyper.pair_with_error", "hyper.standardize",
             "hyper.embed_real_analytic", "hyper.delta_derivative"],
    "moments": ["spectral.moment", "spectral.moment_sequence"],
    "expand": ["spectral.asymptotic_sum", "spectral.remainder_moments",
               "spectral.AsymptoticSum.realize"],
    "param-check": ["spectral.parametric_order_check", "hyper.scale_pair"],
    "fourier": ["spectral.fourier_transform"],
    "invfourier": ["spectral.inverse_fourier"],
    "realize": ["spectral.realize_moments"],
    "multiplier": ["spectral.build_multiplier", "hyper.apply_local_operator",
                   "hyper.LocalOperator.check_admissible"],
    "structural": ["spectral.structural_representation",
                   "spectral.StructuralRep.reconstruct_pairing"],
    "radon": ["radon.radon_transform", "radon.radon_via_fourier",
              "radon.multidim_fourier_ray"],
    "helgason": ["radon.helgason_moment", "radon.slice_moment",
                 "radon.multidim_moment"],
    "radon-expand": ["radon.radon_asymptotic_sum",
                     "radon.example_point_coefficient"],
    "gevrey": ["radon.gevrey_probe", "radon.defining_function_value"],
    "support-check": ["radon.support_check"],
    "ode-solve": ["odeseries.solve_series", "odeseries.apply_operator",
                  "odeseries.assemble", "odeseries.residual_check"],
    "verify-all": ["acceptance.run_all"],
}


class UsageError(Exception):
    pass


@dataclass
class JobConfig:
    command: str
    input: str = "builtin"
    output: str = "reports"
    seed: int = 7
    eta: float = 0.3
    radius: Optional[float] = None
    abs_tol: float = 1e-10
    params: dict = field(default_factory=dict)

    def validate(self):
        errors = []
        if self.abs_tol <= 0:
            errors.append("contour.abs_tol: must be positive")
        if self.eta <= 0:
            errors.append("contour.eta: must be positive")
        if self.radius is not None and self.radius <= 0:
            errors.append("contour.radius: must be positive")
        if not isinstance(self.seed, int):
            errors.append("seed: must be an integer")
        for key in ("order", "degree", "q_max", "directions", "max_order"):
            v = self.params.get(key)
            if v is not None and (not isinstance(v, int) or v < 0):
                errors.append(f"params.{key}: must be a nonnegative integer")
        for key in ("S",):
            v = self.params.get(key)
            if v is not None and v <= 0:
                errors.append(f"params.{key}: must be positive")
        if errors:
            raise UsageError("; ".join(errors))


def parse_operator(text: str) -> od.PolyCoeffOperator:
    """Parse strings like "t^2*D-1" or "t*D^2 + 3" into (m, j, c) terms."""
    s = text.replace(" ", "")
    if not s:
        raise UsageError("operator string is empty")
    pieces = re.findall(r"[+-]?[^+-]+", s)
    terms = {}
    for piece in pieces:
        sign = -1 if piece.startswith("-") else 1
        body = piece.lstrip("+-")
        m = j = 0
        coef = 1
        for factor in body.split("*"):
            if not factor:
                continue
            mt = re.fullmatch(r"t(?:\^(\d+))?", factor)
            md = re.fullmatch(r"D(?:\^(\d+))?", factor)
            if mt:
                m += int(mt.group(1) or 1)
            elif md:
                j += int(md.group(1) or 1)
            else:
                try:
                    coef = coef * (Fraction(factor) if "/" in factor or
                                   "." not in factor else float(factor))
                except ValueError:
                    raise UsageError(f"operator: cannot parse factor {factor!r} "
                                     f"in {text!r}")
        key = (m, j)
        terms[key] = terms.get(key, 0) + sign * coef
    return od.PolyCoeffOperator(tuple((m, j, c) for (m, j), c in
                                      sorted(terms.items()) if c), label=text)


# ---------------------------------------------------------------------------
# report plumbing


def _plain(v):
    return ac._to_plain(v)


class Report:
    def __init__(self, command: str):
        self.command = command
        self.record: Dict = {"command": command}
        self.rows: List[list] = []
        self.header: List[str] = []
        self.lines: List[str] = []
        self.failed = False

    def put(self, key, value):
        self.record[key] = _plain(value)

    def table(self, header, rows):
        self.header = list(header)
        self.rows = [[_plain(c) for c in r] for r in rows]

    def say(self, text):
        self.lines.append(text)

    def flag_failure(self):
        self.failed = True

    def emit(self, out_dir: str) -> None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        name = self.command.replace("-", "_")
        (out / f"{name}.json").write_text(
            json.dumps(self.record, sort_keys=True, indent=2) + "\n")
        with open(out / f"{name}.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            if self.header:
                w.writerow(self.header)
                for r in self.rows:
                    w.writerow(r)
            else:
                for k in sorted(self.record):
                    w.writerow([k, json.dumps(self.record[k], sort_keys=True)])
        for line in self.lines:
            print(line)
        print(f"report: {out / (name + '.json')}")


def _suite_by_name(name: Optional[str]) -> List[hy.TestFunction]:
    suite = cp.test_suite()
    if name is None:
        return suite
    for t in suite:
        if t.label == name:
            return [t]
    raise UsageError(f"unknown test function {name!r} "
                     f"(choices: {[t.label for t in suite]})")


def _get_hyper(cfg: JobConfig, label: str) -> hy.Hyperfunction1D:
    corpus = cp.load_corpus(cfg.input)
    if label not in corpus:
        raise UsageError(f"unknown corpus label {label!r} "
                         f"(choices: {sorted(corpus)})")
    return corpus[label]


def _get_multidim(label: str) -> rd.MultiDimFunction:
    md = cp.multidim_corpus()
    if label not in md:
        raise UsageError(f"unknown multidim label {label!r} "
                         f"(choices: {sorted(md)})")
    return md[label]


# ---------------------------------------------------------------------------
# subcommand handlers


def cmd_pair(cfg: JobConfig, rep: Report):
    p = cfg.params
    if p.get("embed"):
        f = hy.embed_real_analytic(
            ex.parse_expr(p["embed"]), strip=math.inf,
            growth=GrowthClass.exp_decay(0.25, constant=16.0), label="embedded")
    else:
        f = _get_hyper(cfg, p.get("label") or "delta")
    if p.get("standardize"):
        f = hy.standardize(f)
    spec = ContourSpec(imag_offset=cfg.eta, truncation_radius=cfg.radius,
                       abs_tol=cfg.abs_tol)
    rows = []
    for phi in _suite_by_name(p.get("test")):
        v, err = hy.pair_with_error(f, phi, spec=spec)
        rows.append([phi.label, v.real, v.imag, err])
        rep.say(f"<{f.label}, {phi.label}> = {v:.12g}  (err<={err:.2e})")
    rep.put("label", f.label)
    rep.table(["test", "re", "im", "err_bound"], rows)


def cmd_moments(cfg: JobConfig, rep: Report):
    f = _get_hyper(cfg, cfg.params.get("label") or "sech")
    N = cfg.params.get("order", 6)
    seq = sp.moment_sequence(f, N)
    rows = [[n, mu.real, mu.imag] for n, mu in enumerate(seq.values)]
    rep.put("label", f.label)
    rep.put("moments", list(seq.values))
    rep.table(["n", "re", "im"], rows)
    for n, mu in enumerate(seq.values):
        rep.say(f"mu^{n}({f.label}) = {mu:.12g}")


def cmd_expand(cfg: JobConfig, rep: Report):
    f = _get_hyper(cfg, cfg.params.get("label") or "sech")
    N = cfg.params.get("order", 2)
    s = sp.asymptotic_sum(f, N)
    rem = sp.remainder_moments(f, s)
    rows = [[n, c.real, c.imag, abs(rem[n])]
            for n, c in enumerate(s.coefficients)]
    rep.put("label", f.label)
    rep.put("coefficients", list(s.coefficients))
    rep.put("max_remainder", max(abs(r) for r in rem))
    rep.table(["n", "coeff_re", "coeff_im", "remainder_moment"], rows)
    for n, c in enumerate(s.coefficients):
        rep.say(f"c_{n} = {c:.12g}")
    if max(abs(r) for r in rem) > 1e-7:
        rep.flag_failure()


def cmd_param_check(cfg: JobConfig, rep: Report):
    f = _get_hyper(cfg, cfg.params.get("label") or "sech")
    phi = _suite_by_name(cfg.params.get("test") or "gauss")[0]
    N = cfg.params.get("order", 2)
    lambdas = tuple(cfg.params.get("lambdas") or (4, 8, 16, 32, 64))
    fit = sp.parametric_order_check(f, phi, N, lambdas=lambdas)
    rep.put("label", f.label)
    rep.put("order", N)
    rep.put("slope", fit.slope)
    rep.put("vacuous", fit.vacuous)
    rep.table(["lambda", "abs_residual"],
              [[lam, r] for lam, r in fit.residuals])
    rep.say(f"fitted slope: {fit.slope}  (vacuous: {fit.vacuous})")
    if not fit.vacuous and fit.slope is not None and fit.slope > -(N + 2) + 0.25:
        rep.flag_failure()


def cmd_fourier(cfg: JobConfig, rep: Report):
    f = _get_hyper(cfg, cfg.params.get("label") or "sech")
    xi = cfg.params.get("xi") or [float(x) / 2 for x in range(-8, 9)]
    fhat = sp.fourier_transform(f)
    rows = []
    for x in xi:
        v = complex(np.asarray(fhat(float(x))))
        rows.append([float(x), v.real, v.imag])
    rep.put("label", f.label)
    rep.put("growth", fhat.growth.to_json())
    rep.table(["xi", "re", "im"], rows)
    rep.say(f"hat({f.label}) sampled at {len(rows)} frequencies")


def cmd_invfourier(cfg: JobConfig, rep: Report):
    p = cfg.params
    text = p.get("field") or "exp(-(z*z))"
    g_expr = ex.parse_expr(text)

    def g(xi, order=0):
        if order:
            raise NotImplementedError
        return ex.evaluate(g_expr, {"z": np.asarray(xi, dtype=complex)})

    fld = sp.SmoothField(g, growth=GrowthClass.exp_decay(
        float(p.get("rate", 0.5)), constant=float(p.get("constant", 4.0))),
        cheap=True, label=text)
    f = sp.inverse_fourier(fld, label=f"invF({text})")
    rows = []
    for phi in cp.test_suite()[:2]:
        v = hy.pair(f, phi)
        rows.append([phi.label, v.real, v.imag])
        rep.say(f"<invF({text}), {phi.label}> = {v:.12g}")
    rep.put("field", text)
    rep.table(["test", "re", "im"], rows)


def cmd_realize(cfg: JobConfig, rep: Report):
    text = cfg.params.get("moments") or "1,0,0.5"
    mu = [complex(v) for v in
          (text if isinstance(text, list) else text.split(","))]
    real = sp.realize_moments(mu, label="cli")
    rows = []
    worst = 0.0
    for n, target in enumerate(mu):
        got = sp.moment(real.hyperfunction, n)
        worst = max(worst, abs(got - target))
        rows.append([n, target.real, target.imag, abs(got - target)])
    rep.put("moments", mu)
    rep.put("condition", real.condition)
    rep.put("max_moment_error", worst)
    rep.table(["n", "target_re", "target_im", "abs_error"], rows)
    rep.say(f"realized {len(mu)} moments, max error {worst:.3e}")
    if worst > 1e-6:
        rep.flag_failure()


def cmd_multiplier(cfg: JobConfig, rep: Report):
    p = cfg.params
    phi_choice = p.get("phi", "sqrt")
    tables = {
        "sqrt": lambda k: math.sqrt(k),
        "log": lambda k: math.log(k + 1.0),
        "linear": lambda k: float(k),
    }
    if phi_choice not in tables:
        raise UsageError(f"params.phi: unknown choice {phi_choice!r}")
    J, info = sp.build_multiplier(tables[phi_choice],
                                  zeta_max=float(p.get("zeta_max", 10.0)),
                                  label=f"J[{phi_choice}]")
    try:
        J.check_admissible()
        ok = True
    except hy.AdmissibilityError:
        ok = False
    rep.put("phi", phi_choice)
    rep.put("K_terms", info.K_terms)
    rep.put("min_ratio", info.min_ratio)
    rep.put("c_fitted", info.c_fitted)
    rep.put("sign_flip", info.sign_flip)
    rep.put("admissible", ok)
    rep.table(["zeta_re", "zeta_im", "abs_J"],
              [[z.real, z.imag, abs(Jv)] for z, Jv in info.samples])
    rep.say(f"J built with {info.K_terms} factors; admissible: {ok}; "
            f"min growth ratio {info.min_ratio:.3g}")
    # finite-order application cross-check: (1 - D^2) on delta against phi
    J2 = hy.LocalOperator(coefficients=(1.0, 0.0, -1.0), label="1-D^2")
    g = hy.apply_local_operator(J2, hy.delta_derivative(0))
    phi = cp.test_suite()[0]
    got = hy.pair(g, phi)
    want = phi.derivative_at(0.0, 0) - phi.derivative_at(0.0, 2)
    rep.put("finite_apply_error", abs(got - want))
    if abs(got - want) > 1e-8 or not ok:
        rep.flag_failure()


def cmd_structural(cfg: JobConfig, rep: Report):
    f = _get_hyper(cfg, cfg.params.get("label") or "delta")
    rep_struct = sp.structural_representation(f)
    phi = cp.test_suite()[0]
    direct = hy.pair(f, phi)
    recon = rep_struct.reconstruct_pairing(phi)
    err = abs(direct - recon)
    rep.put("label", f.label)
    rep.put("xi_max", rep_struct.xi_max)
    rep.put("pairing_error", err)
    rep.table(["x", "f0_re", "f0_im"],
              [[float(x), v.real, v.imag]
               for x, v in zip(rep_struct.x_grid, rep_struct.f0_values)])
    rep.say(f"structural representation of {f.label}: pairing error {err:.3e}")
    if err > 1e-5:
        rep.flag_failure()


def cmd_radon(cfg: JobConfig, rep: Report):
    f = _get_multidim(cfg.params.get("label") or "gauss2")
    count = cfg.params.get("directions", 8)
    dirs = ac.direction_set(count, cfg.seed)
    phi = cp.test_suite()[0]

    def one(om):
        sl = rd.radon_transform(f, om)
        v1 = hy.pair(sl.hyper, phi)
        v2 = hy.pair(rd.radon_via_fourier(f, om), phi)
        return v1, abs(v1 - v2) / (1.0 + abs(v1))

    with ThreadPoolExecutor(max_workers=ac.worker_count()) as pool:
        results = list(pool.map(one, dirs))
    rows = [[om[0], om[1], v.real, v.imag, d]
            for om, (v, d) in zip(dirs, results)]
    worst = max(d for _, d in results)
    rep.put("label", getattr(f, "label", ""))
    rep.put("max_two_route_delta", worst)
    rep.table(["omega_x", "omega_y", "pair_re", "pair_im", "two_route_delta"],
              rows)
    rep.say(f"two-route agreement over {count} directions: {worst:.3e}")
    if worst > 1e-5:
        rep.flag_failure()


def cmd_helgason(cfg: JobConfig, rep: Report):
    f = _get_multidim(cfg.params.get("label") or "gauss2")
    kmax = cfg.params.get("degree", 4)
    rng = np.random.default_rng(cfg.seed)
    rows = []
    worst = 0.0
    for k in range(kmax + 1):
        poly = rd.helgason_moment(f, k)
        for alpha in sorted(poly.coefficients):
            c = complex(poly.coefficients[alpha])
            rows.append([k, "".join(map(str, alpha)), c.real, c.imag])
        th = float(rng.uniform(0.0, 2.0 * math.pi))
        om = (math.cos(th), math.sin(th))
        err = abs(complex(rd.slice_moment(f, om, k)) - complex(poly(om)))
        worst = max(worst, err)
    rep.put("label", getattr(f, "label", ""))
    rep.put("max_slice_moment_error", worst)
    rep.table(["degree", "multi_index", "re", "im"], rows)
    rep.say(f"Helgason polynomials to degree {kmax}; "
            f"slice-moment consistency {worst:.3e}")
    if worst > 1e-5:
        rep.flag_failure()


def cmd_radon_expand(cfg: JobConfig, rep: Report):
    f = _get_multidim(cfg.params.get("label") or "point_J")
    N = cfg.params.get("order", 4)
    expn = rd.radon_asymptotic_sum(f, N)
    om = (Fraction(3, 5), Fraction(4, 5))
    rows = []
    exact_ok = True
    for k in range(N + 1):
        c = expn.coefficient(k, om)
        rows.append([k, str(c) if isinstance(c, Fraction) else complex(c).real,
                     0.0 if isinstance(c, Fraction) else complex(c).imag])
        if isinstance(f, rd.DeltaCombo) and len(f.sources) == 1:
            closed = rd.example_point_coefficient(f.sources[0], om, k)
            if closed != c:
                exact_ok = False
    rep.put("label", getattr(f, "label", ""))
    rep.put("closed_form_match", exact_ok)
    rep.table(["degree", "coefficient", "im"], rows)
    rep.say(f"expansion coefficients at omega=(3/5,4/5); "
            f"closed-form match: {exact_ok}")
    if not exact_ok:
        rep.flag_failure()


def cmd_gevrey(cfg: JobConfig, rep: Report):
    f = _get_multidim(cfg.params.get("label") or "point_a")
    om = cfg.params.get("omega") or [3 / 5, 4 / 5]
    tau0 = complex(0.0, float(cfg.params.get("tau_imag", 2.0)))
    fit = rd.gevrey_probe(f, tuple(om), tau0,
                          max_order=cfg.params.get("max_order", 4))
    g0 = rd.defining_function_value(f, tuple(om), tau0)
    rep.put("label", getattr(f, "label", ""))
    rep.put("C", fit.C)
    rep.put("v", fit.v)
    rep.put("envelope_ok", fit.envelope_ok)
    rep.put("negligible", fit.negligible)
    rep.put("G_at_base", g0)
    rep.table(["order", "abs_derivative"],
              [[m, v] for m, v in enumerate(fit.derivative_magnitudes)])
    rep.say(f"Gevrey fit: C={fit.C:.4g} v={fit.v:.4g} "
            f"envelope_ok={fit.envelope_ok}")
    if not fit.envelope_ok:
        rep.flag_failure()


def cmd_support_check(cfg: JobConfig, rep: Report):
    p = cfg.params
    if p.get("moments"):
        text = p["moments"]
        values = [complex(v) for v in
                  (text if isinstance(text, list) else text.split(","))]
        bound = None
    else:
        a = float(p.get("a", 0.5))
        values = [complex(a) ** k for k in range(80)]
        bound = (1.0, abs(a))
    if p.get("bound"):
        bound = (float(p["bound"][0]), float(p["bound"][1]))
    S = float(p.get("S", 1.0))
    eps = tuple(p.get("eps") or (1e-3, 0.1, 0.5))
    report = rd.support_check(values, S, eps_list=eps,
                              q_max=p.get("q_max", 12), bound=bound)
    rep.put("S", S)
    rep.put("rate", report.rate)
    rep.put("diagnosis", report.diagnosis)
    rep.put("passed", {str(k): v for k, v in report.passed.items()})
    rep.table(["q", "abs_sum", "tail"],
              [[q, v, t] for q, v, t in report.sums])
    rep.say(f"support check at S={S}: rate={report.rate} "
            f"({report.diagnosis})")
    if not all(report.passed.values()):
        rep.flag_failure()


def cmd_ode_solve(cfg: JobConfig, rep: Report):
    p = cfg.params
    L = parse_operator(p.get("op") or "t^2*D-1")
    basis = p.get("basis", "delta")
    N = p.get("order", 10)
    sol = od.solve_series(L, basis, Fraction(1), N)
    f = od.assemble(sol.tail, sol.admissible, label=f"{basis} series")
    resid = od.residual_check(f, L, cp.test_suite()[:2])
    applied = od.apply_operator(L, sol.tail)
    rows = [[n, str(c), float(c)] for n, c in enumerate(sol.coefficients)]
    rep.put("operator", L.label)
    rep.put("basis", basis)
    rep.put("coefficients", [str(c) for c in sol.coefficients])
    rep.put("admissible", sol.admissible)
    rep.put("residual", resid)
    rep.put("closed_form", ex.print_expr(f.f_plus)
            if isinstance(f.f_plus, ex.Expr) else "")
    rep.put("applied_lost_degrees", list(applied.lost_degrees))
    rep.table(["n", "coefficient", "decimal"], rows)
    rep.say(f"solved {L.label} in {basis} basis to order {N}; "
            f"admissible={sol.admissible}; residual={resid:.3e}")
    if resid > 1e-7:
        rep.flag_failure()


def cmd_verify_all(cfg: JobConfig, rep: Report):
    results = ac.run_all(cfg.seed, echo=print)
    rep.put("seed", cfg.seed)
    rep.put("all_passed", all(r.passed for r in results))
    rep.record["checks"] = json.loads(ac.report_json(results))
    rep.table(["id", "name", "passed", "max_err"],
              [[r.cid, r.name, r.passed,
                "" if r.max_err is None else r.max_err] for r in results])
    if not all(r.passed for r in results):
        rep.flag_failure()


HANDLERS = {
    "pair": cmd_pair,
    "moments": cmd_moments,
    "expand": cmd_expand,
    "param-check": cmd_param_check,
    "fourier": cmd_fourier,
    "invfourier": cmd_invfourier,
    "realize": cmd_realize,
    "multiplier": cmd_multiplier,
    "structural": cmd_structural,
    "radon": cmd_radon,
    "helgason": cmd_helgason,
    "radon-expand": cmd_radon_expand,
    "gevrey": cmd_gevrey,
    "support-check": cmd_support_check,
    "ode-solve": cmd_ode_solve,
    "verify-all": cmd_verify_all,
}


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hypercalc",
        description="numerical calculus for hyperfunction defining pairs")
    sub = ap.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file")
    common.add_argument("--input", default=None, help="corpus path or 'builtin'")
    common.add_argument("--output", default=None, help="report directory")
    common.add_argument("--seed", type=int, default=None)
    common.add_argument("--eta", type=float, default=None)
    common.add_argument("--radius", type=float, default=None)
    common.add_argument("--abs-tol", type=float, default=None)

    def add(name, **kw):
        p = sub.add_parser(name, parents=[common], **kw)
        return p

    p = add("pair");           p.add_argument("--label"); p.add_argument("--test")
    p.add_argument("--standardize", action="store_true")
    p.add_argument("--embed", help="expression to embed and pair")
    p = add("moments");        p.add_argument("--label"); p.add_argument("--order", type=int)
    p = add("expand");         p.add_argument("--label"); p.add_argument("--order", type=int)
    p = add("param-check");    p.add_argument("--label"); p.add_argument("--test")
    p.add_argument("--order", type=int)
    p = add("fourier");        p.add_argument("--label")
    p.add_argument("--xi", help="comma-separated frequencies")
    p = add("invfourier");     p.add_argument("--field")
    p.add_argument("--rate", type=float); p.add_argument("--constant", type=float)
    p = add("realize");        p.add_argument("--moments")
    p = add("multiplier");     p.add_argument("--phi")
    p.add_argument("--zeta-max", type=float, dest="zeta_max")
    p = add("structural");     p.add_argument("--label")
    p = add("radon");          p.add_argument("--label")
    p.add_argument("--directions", type=int)
    p = add("helgason");       p.add_argument("--label"); p.add_argument("--degree", type=int)
    p = add("radon-expand");   p.add_argument("--label"); p.add_argument("--order", type=int)
    p = add("gevrey");         p.add_argument("--label")
    p.add_argument("--omega", help="comma-separated unit direction")
    p.add_argument("--tau-imag", type=float, dest="tau_imag")
    p.add_argument("--max-order", type=int, dest="max_order")
    p = add("support-check");  p.add_argument("--moments"); p.add_argument("--a", type=float)
    p.add_argument("--S", type=float); p.add_argument("--q-max", type=int, dest="q_max")
    p.add_argument("--eps", help="comma-separated epsilon list")
    p.add_argument("--bound", help="M,R moment growth bound")
    p = add("ode-solve");      p.add_argument("--op"); p.add_argument("--basis")
    p.add_argument("--order", type=int)
    add("verify-all")
    return ap


_GLOBAL_KEYS = {"input", "output", "seed", "eta", "radius", "abs_tol"}
_LIST_KEYS = {"xi": float, "omega": float, "eps": float, "bound": float,
              "lambdas": float}


def build_config(args: argparse.Namespace) -> JobConfig:
    raw = vars(args).copy()
    command = raw.pop("command")
    raw.pop("config", None)
    file_cfg = {}
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.exists():
            raise UsageError(f"config: file not found: {args.config}")
        try:
            file_cfg = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise UsageError(f"config: invalid JSON ({exc})")
        if not isinstance(file_cfg, dict):
            raise UsageError("config: top level must be an object")
    cfg = JobConfig(command=command)
    merged = dict(file_cfg)
    merged.update({k: v for k, v in raw.items() if v is not None
                   and v is not False})
    for key, value in merged.items():
        if key in _GLOBAL_KEYS:
            setattr(cfg, key, value)
        elif key == "params" and isinstance(value, dict):
            cfg.params.update(value)
        else:
            cfg.params[key] = value
    for key, cast in _LIST_KEYS.items():
        v = cfg.params.get(key)
        if isinstance(v, str):
            try:
                cfg.params[key] = [cast(x) for x in v.split(",") if x]
            except ValueError:
                raise UsageError(f"params.{key}: expected comma-separated "
                                 f"numbers, got {v!r}")
    cfg.validate()
    return cfg


def main(argv: Optional[List[str]] = None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        cfg = build_config(args)
        rep = Report(cfg.command)
        HANDLERS[cfg.command](cfg, rep)
        rep.emit(cfg.output)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 1 if rep.failed else 0


if __name__ == "__main__":
    sys.exit(main())
