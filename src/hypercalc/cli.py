"""Command line driver.

One table, SUBCOMMANDS, gives each subcommand its handler, the library
operations it reaches (every operation is reachable from exactly one
subcommand) and the options it reads with their defaults; OPTIONS gives each
option its parser.  Flags and config-file values go through the same parsers.
Reports are emitted both as a human-readable table on stdout and as
machine-readable JSON + CSV files.  Fixed seed and config imply byte-identical
reports.  Exit codes: 0 success, 1 acceptance/check failure, 2 usage or
validation error (unknown option or key, malformed value).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional

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


class UsageError(Exception):
    pass


class Options(dict):
    """Resolved option values handed to a handler; ``read`` records the keys
    it looked up."""

    def __init__(self):
        super().__init__()
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


# ---------------------------------------------------------------------------
# option parsers: each reads a flag's text or a config file's JSON value


def _parser(what, types, cast=lambda v: v, ok=lambda x: True):
    """Parser of a value of one of ``types`` (bool only where named), which
    ``cast`` converts and ``ok`` accepts."""
    def parse(v):
        if isinstance(v, types) and (types is bool or not isinstance(v, bool)):
            try:
                x = cast(v)
                if ok(x):
                    return x
            except (ValueError, ex.ExprError):
                pass
        raise UsageError(f"expected {what}, got {v!r}")
    return parse


def _list_of(item):
    return _parser("a comma-separated list", (str, list), lambda v: [
        item(x) for x in (v.split(",") if isinstance(v, str) else v)])


def _choice(*names):
    return _parser(f"one of {', '.join(names)}", str, ok=lambda v: v in names)


def _count_to(cap):
    return _parser(f"an integer from 0 to {cap}", (str, int), int, lambda n: 0 <= n <= cap)


_NUMERIC = (str, int, float)
_text = _parser("a string", str)
_flag = _parser("true or false", bool)
_number = _parser("a number", _NUMERIC, float)
_positive = _parser("a positive number", _NUMERIC, float, lambda x: x > 0)
_count = _parser("a nonnegative integer", (str, int), int, lambda n: n >= 0)
_positive_count = _parser("a positive integer", (str, int), int, lambda n: n >= 1)
# a list keeps JSON numbers as given; text is read as floats
_reals = _list_of(_parser("a number", _NUMERIC,
                          lambda v: float(v) if isinstance(v, str) else v))
_direction = _parser("a comma-separated unit vector", (str, list), _reals,
                     lambda v: abs(math.sqrt(sum(w * w for w in v)) - 1.0) <= 1e-12)
_complexes = _list_of(_parser("a complex number", _NUMERIC, complex))
_bound = _parser("two numbers M,R", (str, list), _list_of(_number),
                 lambda b: len(b) == 2)
_expression = _parser("an expression in z", str,
                      ok=lambda v: ex.parse_expr(v) is not None)


def parse_operator(text: str) -> od.PolyCoeffOperator:
    """Parse strings like "t^2*D-1" or "t*D^2 + 3" into (m, j, c) terms."""
    s = _text(text).replace(" ", "")
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
                    raise UsageError(f"cannot parse factor {factor!r} "
                                     f"in operator {text!r}")
        key = (m, j)
        terms[key] = terms.get(key, 0) + sign * coef
    nonzero = tuple((m, j, c) for (m, j), c in sorted(terms.items()) if c)
    if not nonzero:
        raise UsageError(f"operator {text!r} has no nonzero term")
    return od.PolyCoeffOperator(nonzero, label=text)


# ---------------------------------------------------------------------------
# report plumbing


class Report:
    def __init__(self, command: str):
        self.command = command
        self.record: Dict = {"command": command}
        self.rows: List[list] = []
        self.header: List[str] = []
        self.lines: List[str] = []
        self.failed = False

    def put(self, **values):
        self.record.update({k: ac._to_plain(v) for k, v in values.items()})

    def table(self, header, rows):
        self.header = list(header)
        self.rows = [[ac._to_plain(c) for c in r] for r in rows]

    def say(self, text):
        self.lines.append(text)

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


def _pick(choices: dict, name, what: str):
    if name not in choices:
        raise UsageError(f"unknown {what} {name!r} (choices: {sorted(choices)})")
    return choices[name]


def _suite_by_name(name: Optional[str]) -> List[hy.TestFunction]:
    suite = cp.test_suite()
    if name is None:
        return suite
    return [_pick({t.label: t for t in suite}, name, "test function")]


def _get_hyper(opts: Options) -> hy.Hyperfunction1D:
    try:
        corpus = cp.load_corpus(opts["input"])
    except (OSError, ValueError, ex.ExprError) as exc:
        raise UsageError(f"input: {exc}")
    return _pick(corpus, opts["label"], "corpus label")


def _get_multidim(label: str) -> rd.MultiDimFunction:
    return _pick(cp.multidim_corpus(), label, "multidim label")


# ---------------------------------------------------------------------------
# subcommand handlers


def cmd_pair(opts: Options, rep: Report):
    if opts["embed"]:
        f = hy.embed_real_analytic(
            ex.parse_expr(opts["embed"]), strip=math.inf,
            growth=GrowthClass.exp_decay(0.25, constant=16.0), label="embedded")
    else:
        f = _get_hyper(opts)
    if opts["standardize"]:
        f = hy.standardize(f)
    spec = ContourSpec(imag_offset=opts["eta"], truncation_radius=opts["radius"],
                       abs_tol=opts["abs_tol"])
    rows = []
    for phi in _suite_by_name(opts["test"]):
        v, err = hy.pair_with_error(f, phi, spec=spec)
        rows.append([phi.label, v.real, v.imag, err])
        rep.say(f"<{f.label}, {phi.label}> = {v:.12g}  (err<={err:.2e})")
    rep.put(label=f.label)
    rep.table(["test", "re", "im", "err_bound"], rows)


def cmd_moments(opts: Options, rep: Report):
    f = _get_hyper(opts)
    seq = sp.moment_sequence(f, opts["order"])
    rows = [[n, mu.real, mu.imag] for n, mu in enumerate(seq)]
    rep.put(label=f.label, moments=list(seq))
    rep.table(["n", "re", "im"], rows)
    for n, mu in enumerate(seq):
        rep.say(f"mu^{n}({f.label}) = {mu:.12g}")


def cmd_expand(opts: Options, rep: Report):
    f = _get_hyper(opts)
    s = sp.asymptotic_sum(f, opts["order"])
    rem = sp.remainder_moments(f, s)
    rows = [[n, c.real, c.imag, abs(rem[n])]
            for n, c in enumerate(s.coefficients)]
    worst = max(abs(r) for r in rem)
    rep.put(label=f.label, coefficients=list(s.coefficients), max_remainder=worst)
    rep.table(["n", "coeff_re", "coeff_im", "remainder_moment"], rows)
    for n, c in enumerate(s.coefficients):
        rep.say(f"c_{n} = {c:.12g}")
    rep.failed = worst > ac.TOL_RESIDUAL


def cmd_param_check(opts: Options, rep: Report):
    f = _get_hyper(opts)
    phi = _suite_by_name(opts["test"])[0]
    N = opts["order"]
    fit = sp.parametric_order_check(f, phi, N, lambdas=tuple(opts["lambdas"]))
    rep.put(label=f.label, order=N, slope=fit.slope, vacuous=fit.vacuous)
    rep.table(["lambda", "abs_residual"],
              [[lam, r] for lam, r in fit.residuals])
    rep.say(f"fitted slope: {fit.slope}  (vacuous: {fit.vacuous})")
    rep.failed = (not fit.vacuous and fit.slope is not None
                  and fit.slope > -(N + 2) + ac.SLOPE_MARGIN)


def cmd_fourier(opts: Options, rep: Report):
    f = _get_hyper(opts)
    fhat = sp.fourier_transform(f)
    rows = []
    for x in opts["xi"]:
        v = complex(np.asarray(fhat(float(x))))
        rows.append([float(x), v.real, v.imag])
    rep.put(label=f.label, growth=fhat.growth.to_json())
    rep.table(["xi", "re", "im"], rows)
    rep.say(f"hat({f.label}) sampled at {len(rows)} frequencies")


def cmd_invfourier(opts: Options, rep: Report):
    text = opts["field"]
    g_expr = ex.parse_expr(text)

    def g(xi, order=0):
        if order:
            raise NotImplementedError
        return ex.evaluate(g_expr, {"z": np.asarray(xi, dtype=complex)})

    fld = sp.SmoothField(g, growth=GrowthClass.exp_decay(
        opts["rate"], constant=opts["constant"]), cheap=True, label=text)
    f = sp.inverse_fourier(fld, label=f"invF({text})")
    rows = []
    for phi in cp.test_suite()[:2]:
        v = hy.pair(f, phi)
        rows.append([phi.label, v.real, v.imag])
        rep.say(f"<invF({text}), {phi.label}> = {v:.12g}")
    rep.put(field=text)
    rep.table(["test", "re", "im"], rows)


def cmd_realize(opts: Options, rep: Report):
    mu = opts["moments"]
    real = sp.realize_moments(mu, label="cli")
    rows = []
    worst = 0.0
    for n, target in enumerate(mu):
        got = sp.moment(real.hyperfunction, n)
        worst = max(worst, abs(got - target))
        rows.append([n, target.real, target.imag, abs(got - target)])
    rep.put(moments=mu, condition=real.condition, max_moment_error=worst)
    rep.table(["n", "target_re", "target_im", "abs_error"], rows)
    rep.say(f"realized {len(mu)} moments, max error {worst:.3e}")
    rep.failed = worst > ac.TOL_ORACLE


_MULTIPLIER_PHIS = {
    "sqrt": math.sqrt,
    "log": lambda k: math.log(k + 1.0),
    "linear": float,
}


def cmd_multiplier(opts: Options, rep: Report):
    name = opts["phi"]
    J, info = sp.build_multiplier(_MULTIPLIER_PHIS[name],
                                  zeta_max=opts["zeta_max"], label=f"J[{name}]")
    try:
        J.check_admissible()
        ok = True
    except hy.AdmissibilityError:
        ok = False
    rep.put(phi=name, K_terms=info.K_terms, min_ratio=info.min_ratio,
            c_fitted=info.c_fitted, sign_flip=info.sign_flip, admissible=ok,
            tail_ratio=info.tail_ratio, converged=info.converged)
    rep.table(["zeta_re", "zeta_im", "abs_J"],
              [[z.real, z.imag, abs(Jv)] for z, Jv in info.samples])
    rep.say(f"J built with {info.K_terms} factors; admissible: {ok}; "
            f"min growth ratio {info.min_ratio:.3g}")
    rep.say(f"(zeta_max/m_K)^2 = {info.tail_ratio:.3g}; "
            f"converged to 1e-16: {info.converged}")
    # finite-order application cross-check: (1 - D^2) on delta against phi
    J2 = hy.LocalOperator(coefficients=(1.0, 0.0, -1.0), label="1-D^2")
    g = hy.apply_local_operator(J2, hy.delta_derivative(0))
    phi = cp.test_suite()[0]
    got = hy.pair(g, phi)
    want = phi.derivative_at(0.0, 0) - phi.derivative_at(0.0, 2)
    rep.put(finite_apply_error=abs(got - want))
    rep.failed = abs(got - want) > ac.TOL_DELTA or not ok


def cmd_structural(opts: Options, rep: Report):
    f = _get_hyper(opts)
    rep_struct = sp.structural_representation(f)
    phi = cp.test_suite()[0]
    direct = hy.pair(f, phi)
    recon = rep_struct.reconstruct_pairing(phi)
    err = abs(direct - recon)
    rep.put(label=f.label, xi_max=rep_struct.xi_max, pairing_error=err)
    rep.table(["x", "f0_re", "f0_im"],
              [[float(x), v.real, v.imag]
               for x, v in zip(rep_struct.x_grid, rep_struct.f0_values)])
    rep.say(f"structural representation of {f.label}: pairing error {err:.3e}")
    rep.failed = err > ac.TOL_ROUND_TRIP


def cmd_radon(opts: Options, rep: Report):
    f = _get_multidim(opts["label"])
    count = opts["directions"]
    dirs = ac.direction_set(count, opts["seed"])
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
    rep.put(label=getattr(f, "label", ""), max_two_route_delta=worst)
    rep.table(["omega_x", "omega_y", "pair_re", "pair_im", "two_route_delta"],
              rows)
    rep.say(f"two-route agreement over {count} directions: {worst:.3e}")
    rep.failed = worst > ac.TOL_ROUND_TRIP


def cmd_helgason(opts: Options, rep: Report):
    f = _get_multidim(opts["label"])
    kmax = opts["degree"]
    rng = np.random.default_rng(opts["seed"])
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
    rep.put(label=getattr(f, "label", ""), max_slice_moment_error=worst)
    rep.table(["degree", "multi_index", "re", "im"], rows)
    rep.say(f"Helgason polynomials to degree {kmax}; "
            f"slice-moment consistency {worst:.3e}")
    rep.failed = worst > ac.TOL_ROUND_TRIP


def cmd_radon_expand(opts: Options, rep: Report):
    f = _get_multidim(opts["label"])
    N = opts["order"]
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
    rep.put(label=getattr(f, "label", ""), closed_form_match=exact_ok)
    rep.table(["degree", "coefficient", "im"], rows)
    rep.say(f"expansion coefficients at omega=(3/5,4/5); "
            f"closed-form match: {exact_ok}")
    rep.failed = not exact_ok


def cmd_gevrey(opts: Options, rep: Report):
    f = _get_multidim(opts["label"])
    om = tuple(opts["omega"])
    tau0 = complex(0.0, opts["tau_imag"])
    fit = rd.gevrey_probe(f, om, tau0, max_order=opts["max_order"])
    rep.put(label=getattr(f, "label", ""), C=fit.C, v=fit.v,
            envelope_ok=fit.envelope_ok, negligible=fit.negligible,
            G_at_base=rd.defining_function_value(f, om, tau0))
    rep.table(["order", "abs_derivative"],
              [[m, v] for m, v in enumerate(fit.derivative_magnitudes)])
    rep.say(f"Gevrey fit: C={fit.C:.4g} v={fit.v:.4g} "
            f"envelope_ok={fit.envelope_ok}")
    rep.failed = not fit.envelope_ok


def cmd_support_check(opts: Options, rep: Report):
    if opts["moments"]:
        values, bound = opts["moments"], None
    else:
        a = opts["a"]
        values, bound = [complex(a) ** k for k in range(80)], (1.0, abs(a))
    if opts["bound"]:
        bound = opts["bound"]
    S = opts["S"]
    try:
        report = rd.support_check(values, S, eps_list=tuple(opts["eps"]),
                                  q_max=opts["q_max"], bound=bound)
    except ValueError as exc:  # the moments, bound or q range do not fit
        raise UsageError(str(exc))
    rep.put(S=S, rate=report.rate, diagnosis=report.diagnosis,
            passed={str(k): v for k, v in report.passed.items()})
    rep.table(["q", "abs_sum", "tail"],
              [[q, v, t] for q, v, t in report.sums])
    rep.say(f"support check at S={S}: rate={report.rate} "
            f"({report.diagnosis})")
    rep.failed = not all(report.passed.values())


def cmd_ode_solve(opts: Options, rep: Report):
    L = opts["op"]
    basis = opts["basis"]
    N = opts["order"]
    sol = od.solve_series(L, basis, Fraction(1), N)
    f = od.assemble(sol.tail, sol.admissible, label=f"{basis} series")
    resid = od.residual_check(f, L, cp.test_suite()[:2])
    applied = od.apply_operator(L, sol.tail)
    rows = [[n, str(c), float(c)] for n, c in enumerate(sol.coefficients)]
    rep.put(operator=L.label, basis=basis,
            coefficients=[str(c) for c in sol.coefficients],
            admissible=sol.admissible, residual=resid,
            closed_form=(ex.print_expr(f.f_plus)
                         if isinstance(f.f_plus, ex.Expr) else ""),
            applied_lost_degrees=list(applied.lost_degrees))
    rep.table(["n", "coefficient", "decimal"], rows)
    rep.say(f"solved {L.label} in {basis} basis to order {N}; "
            f"admissible={sol.admissible}; residual={resid:.3e}")
    rep.failed = resid > ac.TOL_RESIDUAL


def cmd_verify_all(opts: Options, rep: Report):
    seed = opts["seed"]
    results = ac.run_all(seed, echo=print)
    rep.failed = not all(r.passed for r in results)
    rep.put(seed=seed, all_passed=not rep.failed)
    rep.record["checks"] = json.loads(ac.report_json(results))
    rep.table(["id", "name", "passed", "max_err"],
              [[r.cid, r.name, r.passed,
                "" if r.max_err is None else r.max_err] for r in results])


# ---------------------------------------------------------------------------
# the option table


OPTIONS = {  # option -> (parser, help)
    "output": (_text, "report directory"),
    "input": (_text, "corpus JSON file, or 'builtin'"),
    "label": (_text, "corpus label"),
    "test": (_text, "test function label; none means every one"),
    "embed": (_expression, "real-analytic expression in z, embedded and paired "
                           "in place of --label"),
    "standardize": (_flag, "pair the standardized defining function"),
    "eta": (_positive, "contour offset from the real axis"),
    "radius": (_positive, "contour truncation radius; none means automatic"),
    "abs_tol": (_positive, "absolute tolerance of the pairing quadrature"),
    "order": (_count, "truncation order"),
    "lambdas": (_reals, "comma-separated scale factors"),
    "xi": (_reals, "comma-separated frequencies"),
    "field": (_expression, "Fourier-side field, an expression in z"),
    "rate": (_positive, "exponential decay rate of the field"),
    "constant": (_positive, "constant of the field's decay envelope"),
    "moments": (_complexes, "comma-separated moments mu^0, mu^1, ..."),
    "phi": (_choice(*_MULTIPLIER_PHIS), "growth weight phi(k): "
                                        + ", ".join(_MULTIPLIER_PHIS)),
    "zeta_max": (_positive, "largest |zeta| sampled for the growth bound"),
    "seed": (_count, "random seed"),
    "directions": (_positive_count, "number of directions"),
    "degree": (_count_to(rd.HELGASON_DEGREE_CAP), "largest polynomial degree"),
    "omega": (_direction, "comma-separated unit direction"),
    "tau_imag": (_number, "imaginary part of the base point tau"),
    "max_order": (_count_to(rd.GEVREY_ORDER_CAP), "largest derivative order probed"),
    "a": (_number, "point of the delta family mu^k = a^k"),
    "S": (_positive, "support radius"),
    "q_max": (_count, "largest q of the partial sums"),
    "eps": (_reals, "comma-separated epsilon list"),
    "bound": (_bound, "M,R with |mu^k| <= M R^k; none means no bound"),
    "op": (parse_operator, "operator such as t^2*D-1"),
    "basis": (_choice("delta", "fp"), "series basis: delta or fp"),
}


class Subcommand(NamedTuple):
    handler: Callable
    ops: List[str]
    options: Dict[str, object]  # option -> default, put through its parser


SUBCOMMANDS = {
    "pair": Subcommand(
        cmd_pair, ["hyper.pair", "hyper.pair_with_error", "hyper.standardize",
                   "hyper.embed_real_analytic", "hyper.delta_derivative"],
        dict(input="builtin", label="delta", test=None, embed=None,
             standardize=False, eta=0.3, radius=None, abs_tol=1e-10)),
    "moments": Subcommand(
        cmd_moments, ["spectral.moment", "spectral.moment_sequence"],
        dict(input="builtin", label="sech", order=6)),
    "expand": Subcommand(
        cmd_expand, ["spectral.asymptotic_sum", "spectral.remainder_moments",
                     "spectral.AsymptoticSum.realize"],
        dict(input="builtin", label="sech", order=2)),
    "param-check": Subcommand(
        cmd_param_check, ["spectral.parametric_order_check", "hyper.scale_pair"],
        dict(input="builtin", label="sech", test="gauss", order=2,
             lambdas=[4, 8, 16, 32, 64])),
    "fourier": Subcommand(
        cmd_fourier, ["spectral.fourier_transform"],
        dict(input="builtin", label="sech", xi=[x / 2 for x in range(-8, 9)])),
    "invfourier": Subcommand(
        cmd_invfourier, ["spectral.inverse_fourier"],
        dict(field="exp(-(z*z))", rate=0.5, constant=4.0)),
    "realize": Subcommand(
        cmd_realize, ["spectral.realize_moments"], dict(moments="1,0,0.5")),
    "multiplier": Subcommand(
        cmd_multiplier, ["spectral.build_multiplier", "hyper.apply_local_operator",
                         "hyper.LocalOperator.check_admissible"],
        dict(phi="sqrt", zeta_max=10.0)),
    "structural": Subcommand(
        cmd_structural, ["spectral.structural_representation",
                         "spectral.StructuralRep.reconstruct_pairing"],
        dict(input="builtin", label="delta")),
    "radon": Subcommand(
        cmd_radon, ["radon.radon_transform", "radon.radon_via_fourier",
                    "radon.multidim_fourier_ray"],
        dict(label="gauss2", directions=8, seed=7)),
    "helgason": Subcommand(
        cmd_helgason, ["radon.helgason_moment", "radon.slice_moment",
                       "radon.multidim_moment"],
        dict(label="gauss2", degree=4, seed=7)),
    "radon-expand": Subcommand(
        cmd_radon_expand, ["radon.radon_asymptotic_sum",
                           "radon.example_point_coefficient"],
        dict(label="point_J", order=4)),
    "gevrey": Subcommand(
        cmd_gevrey, ["radon.gevrey_probe", "radon.defining_function_value"],
        dict(label="point_a", omega=[3 / 5, 4 / 5], tau_imag=2.0, max_order=4)),
    "support-check": Subcommand(
        cmd_support_check, ["radon.support_check"],
        dict(moments=None, a=0.5, bound=None, S=1.0, eps=[1e-3, 0.1, 0.5],
             q_max=12)),
    "ode-solve": Subcommand(
        cmd_ode_solve, ["odeseries.solve_series", "odeseries.apply_operator",
                        "odeseries.assemble", "odeseries.residual_check"],
        dict(op="t^2*D-1", basis="delta", order=10)),
    "verify-all": Subcommand(cmd_verify_all, ["acceptance.run_all"], dict(seed=7)),
}

HANDLERS = {name: s.handler for name, s in SUBCOMMANDS.items()}
OPS_BY_SUBCOMMAND = {name: s.ops for name, s in SUBCOMMANDS.items()}


def _defaults(command: str) -> dict:
    return {"output": "reports", **SUBCOMMANDS[command].options}


def resolve_options(command: str, given: dict) -> Options:
    """The command's options from ``given`` (flag and config-file values) and
    the table's defaults, each through its parser.  Every unknown key and
    malformed value goes into one UsageError."""
    defaults = _defaults(command)
    errors = [f"unknown key {key!r} (accepted: {', '.join(defaults)})"
              for key in given if key not in defaults]
    opts = Options()
    for key, default in defaults.items():
        value = given.get(key, default)
        try:
            opts[key] = (OPTIONS[key][0](value)
                         if key in given or value is not None else None)
        except UsageError as exc:
            errors.append(f"{key}: {exc}")
    if errors:
        raise UsageError("; ".join(errors))
    return opts


def _read_config(name: str) -> dict:
    path = Path(name)
    if not path.exists():
        raise UsageError(f"config: file not found: {name}")
    try:
        values = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise UsageError(f"config: invalid JSON ({exc})")
    if not isinstance(values, dict):
        raise UsageError("config: top level must be an object")
    return values


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hypercalc",
        description="numerical calculus for hyperfunction defining pairs")
    sub = ap.add_subparsers(dest="command", required=True)
    for command in SUBCOMMANDS:
        p = sub.add_parser(command, argument_default=argparse.SUPPRESS)
        p.add_argument("--config", help="JSON object of option values, keyed "
                       "like the options below with '_' for '-'; flags win")
        for key, default in _defaults(command).items():
            parse, text = OPTIONS[key]
            shown = (",".join(map(str, default)) if isinstance(default, list)
                     else "none" if default is None else default)
            p.add_argument("--" + key.replace("_", "-"), dest=key,
                           help=f"{text} (default: {shown})",
                           **({"action": "store_true"} if parse is _flag else {}))
    return ap


def main(argv: Optional[List[str]] = None) -> int:
    try:
        given = vars(_build_parser().parse_args(argv))
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    command = given.pop("command")
    try:
        config = given.pop("config", None)
        if config:
            given = {**_read_config(config), **given}
        opts = resolve_options(command, given)
        rep = Report(command)
        SUBCOMMANDS[command].handler(opts, rep)
        rep.emit(opts["output"])
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 1 if rep.failed else 0


if __name__ == "__main__":
    sys.exit(main())
