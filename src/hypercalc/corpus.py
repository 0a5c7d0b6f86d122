"""Built-in corpus of hyperfunctions, test functions, and multidimensional
inputs used by the verification suite and the command line driver.

Corpus files are JSON: a list of records with the defining-function pair as
expression strings plus strips, growth class, and the optional point
support.  A record keeps the two keys ``strip_plus`` and ``strip_minus``:
they are written equal, and a record whose two differ is read with the
smaller, the strip both branches share.  Any other key is ignored, so a
record written with keys that are no longer read still loads.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path
from typing import Dict, List

from . import expr as ex
from . import radon as rd
from .growth import GrowthClass, GrowthError
from .hyper import Hyperfunction1D, TestFunction, delta_derivative
from .odeseries import PolyCoeffOperator, solve_series, assemble

__all__ = [
    "default_corpus", "test_suite", "multidim_corpus", "example_operator",
    "corpus_to_json", "corpus_from_json", "load_corpus",
]


def default_corpus() -> Dict[str, Hyperfunction1D]:
    """The standard one-dimensional corpus, keyed by label."""
    out: Dict[str, Hyperfunction1D] = {}
    for n in range(4):
        f = delta_derivative(n)
        out[f"delta{n}" if n else "delta"] = f
    out["delta_shift"] = delta_derivative(0, at=0.5)

    sech = Hyperfunction1D(
        f_plus=ex.parse_expr("sech(z)"), f_minus=ex._ZERO,
        strip=1.4, growth=GrowthClass.exp_decay(1.0, constant=2.0), label="sech")
    out["sech"] = sech

    out["gaussian"] = Hyperfunction1D(
        f_plus=ex.parse_expr("exp(-(z*z)/2)"), f_minus=ex._ZERO,
        strip=math.inf, growth=GrowthClass.gaussian(0.5, constant=4.0),
        label="gaussian")

    out["lorentz"] = Hyperfunction1D(
        f_plus=ex.parse_expr("1/(1+z*z)"), f_minus=ex._ZERO,
        strip=0.9, growth=GrowthClass.tempered(-2.0), label="lorentz")

    L = example_operator()
    sol1 = solve_series(L, "delta", Fraction(1), 30)
    out["ode_f1"] = assemble(sol1.tail, sol1.admissible, label="ode_f1")
    sol2 = solve_series(L, "fp", Fraction(1), 30)
    out["ode_f2"] = assemble(sol2.tail, sol2.admissible, label="ode_f2")
    return out


def asymptotic_corpus() -> Dict[str, Hyperfunction1D]:
    """The subset with rapidly decreasing defining functions (Fourier- and
    moment-admissible)."""
    full = default_corpus()
    return {k: f for k, f in full.items()
            if f.is_delta_like or f.growth.kind in ("exp_decay", "gaussian")}


def test_suite() -> List[TestFunction]:
    """Analytic, Gaussian-damped test functions with known strips."""
    return [
        TestFunction(ex.parse_expr("exp(-(z*z))"), math.inf,
                     GrowthClass.gaussian(1.0, constant=3.0), "gauss"),
        TestFunction(ex.parse_expr("(1+z)*exp(-(z*z)/2)"), math.inf,
                     GrowthClass.gaussian(0.25, constant=5.0), "affine_gauss"),
        TestFunction(ex.parse_expr("exp(-(z*z)/4)*(1+z*z/4)"), math.inf,
                     GrowthClass.gaussian(0.125, constant=8.0), "bump"),
        TestFunction(ex.parse_expr("sech(z)*exp(-(z*z)/8)"), 1.4,
                     GrowthClass.gaussian(0.125, constant=4.0), "sech_gauss"),
    ]


def multidim_corpus() -> Dict[str, rd.MultiDimFunction]:
    """Multidimensional inputs for the Radon routes."""
    return {
        "gauss2": rd.SmoothRapid(ex.parse_expr("exp(-(x1*x1+x2*x2))"),
                                 dimension=2, label="gauss2"),
        "skew_gauss2": rd.SmoothRapid(
            ex.parse_expr("(1+x1)*exp(-(x1*x1+x2*x2))"),
            dimension=2, label="skew_gauss2"),
        "odd_gauss2": rd.SmoothRapid(ex.parse_expr("x1*exp(-(x1*x1+x2*x2))"),
                                     dimension=2, label="odd_gauss2"),
        "point_a": rd.DeltaCombo(
            (rd.PointSource({(0, 0): 1}, (Fraction(1, 2), Fraction(1, 3))),),
            dimension=2, label="point_a"),
        "point_J": rd.DeltaCombo(
            (rd.PointSource({(0, 0): 1, (1, 0): 2, (1, 1): 3},
                            (Fraction(1, 2), Fraction(-1, 4))),),
            dimension=2, label="point_J"),
    }


def example_operator() -> PolyCoeffOperator:
    """t^2 d/dt - 1."""
    return PolyCoeffOperator(((2, 1, 1), (0, 0, -1)), label="t^2*D-1")


# ---------------------------------------------------------------------------
# JSON round trip


def _branch_to_str(b) -> str:
    if not isinstance(b, ex.Expr):
        raise TypeError("only expression-backed hyperfunctions are serializable")
    return ex.print_expr(b)


def corpus_to_json(corpus: Dict[str, Hyperfunction1D]) -> str:
    records = []
    for label in sorted(corpus):
        f = corpus[label]
        strip = None if math.isinf(f.strip) else f.strip
        rec = {
            "label": label,
            "f_plus": _branch_to_str(f.f_plus),
            "f_minus": _branch_to_str(f.f_minus),
            "strip_plus": strip,
            "strip_minus": strip,
            "growth": f.growth.to_json(),
            "point_support": f.point_support,
        }
        records.append(rec)
    return json.dumps(records, indent=2, sort_keys=True)


def corpus_from_json(text: str) -> Dict[str, Hyperfunction1D]:
    out = {}
    for i, rec in enumerate(json.loads(text)):
        for key in ("label", "f_plus", "f_minus", "growth"):
            if key not in rec:
                raise ValueError(f"corpus[{i}]: missing field {key!r}")
        growth = rec["growth"]
        if not (isinstance(growth, dict) and "kind" in growth and all(
                type(growth.get(key, 0.0)) in (int, float)
                for key in ("gamma", "rate", "constant"))):
            raise ValueError(f"corpus[{i}]: growth: malformed record {growth!r}")
        try:
            growth = GrowthClass.from_json(growth)
        except GrowthError as exc:
            raise ValueError(f"corpus[{i}]: growth: {exc}") from None
        out[rec["label"]] = Hyperfunction1D(
            f_plus=ex.parse_expr(rec["f_plus"]),
            f_minus=ex.parse_expr(rec["f_minus"]),
            strip=min(math.inf if rec.get(key) is None else float(rec[key])
                      for key in ("strip_plus", "strip_minus")),
            growth=growth,
            point_support=rec.get("point_support"),
            label=rec["label"],
        )
    return out


def load_corpus(path) -> Dict[str, Hyperfunction1D]:
    p = Path(path)
    if str(path) == "builtin" or not p.exists():
        if str(path) != "builtin":
            raise FileNotFoundError(f"corpus file not found: {path}")
        return default_corpus()
    return corpus_from_json(p.read_text())

