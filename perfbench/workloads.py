"""The benchmark's seeded workloads.

``draw`` turns a seed into plain input values; ``make_inputs`` adds the
corpora the package provides; ``make_ops`` pairs each op with its reference
(computed by ``oracles``, outside any timed region).  The seed changes the
values of the inputs, never how many ops of each kind a pass holds.

Every op builds its own transforms, slices and standardizations, so that no
op inherits warm-start state (``standardize``'s ``G``, a Radon slice's ``G``)
from another and timings do not depend on op order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

import oracles

WORKLOADS = ("transforms", "symbolic_pairing")

GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))

FOURIER_INPUTS = ("sech", "gaussian", "delta", "delta2", "ode_f1")
XI_BATCH = 64
# Only sech's and gaussian's transforms run the dense quadrature table (the
# delta family's are closed forms); their many batches, with the direct Radon
# slices of smooth inputs, put the workload's median op on small dense kernels.
TABLE_BATCHES = {"sech": 14, "gaussian": 14}

# tolerances of the acceptance battery
TOL_DELTA = 1e-8       # delta calculus
TOL_ROUND_TRIP = 1e-5  # Fourier round trips, moment duality, Radon routes
TOL_ORACLE = 1e-6      # closed forms and quadrature oracles, realization
TOL_RESIDUAL = 1e-7    # ODE residuals, expansion remainders


@dataclass
class Op:
    """One public call or short fixed chain of calls, with its reference.

    ``run`` makes the timed calls; ``post`` (untimed) turns its result into
    numbers compared entrywise with ``ref``: ``|got - ref| <= tol``, or
    ``|got - ref| / (1 + |ref|) <= tol`` when ``rel``.
    """

    kind: str
    label: str
    run: Callable[[], object]
    ref: np.ndarray
    tol: np.ndarray
    rel: bool = False
    post: Optional[Callable[[object], object]] = None

    def error(self, result) -> np.ndarray:
        got = self.post(result) if self.post is not None else result
        got = np.asarray(got, dtype=complex).ravel()
        if got.shape != self.ref.shape:
            raise ValueError(f"{self.kind}/{self.label}: {got.size} values, "
                             f"expected {self.ref.size}")
        err = np.abs(got - self.ref)
        return err / (1.0 + np.abs(self.ref)) if self.rel else err

    def passed(self, result) -> bool:
        return bool(np.all(self.error(result) <= self.tol))


def _op(kind, label, run, ref, tol, rel=False, post=None) -> Op:
    ref = np.asarray(ref, dtype=complex).ravel()
    tol = np.broadcast_to(np.asarray(tol, dtype=float), ref.shape).copy()
    return Op(kind, label, run, ref, tol, rel, post)


def _rng(seed: int):
    return np.random.default_rng(seed % (1 << 64))


def _uniform(rng, lo, hi, size):
    return [float(x) for x in rng.uniform(lo, hi, size=size)]


def draw(workload: str, seed: int) -> dict:
    """Plain input values for one seed, within the documented ranges."""
    rng = _rng(seed)
    if workload == "transforms":
        return {**_draw_fourier(rng), **_draw_radon(rng)}
    if workload == "symbolic_pairing":
        return {"shifts": [_uniform(rng, -0.5, 0.5, 2) for _ in range(8)],
                "heights": _uniform(rng, 0.25, 0.45, 2),
                "moment_vectors": [_uniform(rng, -1.0, 1.0, 7) for _ in range(3)],
                "ode_order": int(rng.integers(16, 33))}
    raise ValueError(f"unknown workload {workload!r}")


def _draw_fourier(rng) -> dict:
    # each batch spans [-8, 8], so that its table costs the same for every
    # seed (the grid is sized by the largest |xi|)
    batches = {label: [[-8.0, 8.0] + _uniform(rng, -8.0, 8.0, XI_BATCH - 2)
                       for _ in range(TABLE_BATCHES.get(label, 1))]
               for label in FOURIER_INPUTS}
    return {"xi_batches": batches,
            "xi_points": {"sech": _uniform(rng, -8.0, 8.0, 1),
                          "gaussian": _uniform(rng, -8.0, 8.0, 1)}}


def _draw_radon(rng) -> dict:
    phase = float(rng.uniform(0.0, 2.0 * math.pi))
    return {"phase": phase,
            "directions": [(math.cos(phase + j * GOLDEN_ANGLE),
                            math.sin(phase + j * GOLDEN_ANGLE)) for j in range(4)],
            "helgason_angles": _uniform(rng, 0.0, 2.0 * math.pi, 2),
            "oracle_angle": float(rng.uniform(0.0, 2.0 * math.pi))}


def make_inputs(workload: str, hc, seed: int) -> dict:
    """Seeded values plus the package's corpora: everything the ops read."""
    inputs = {"draws": draw(workload, seed),
              "suite": {phi.label: phi for phi in hc.corpus.test_suite()},
              "corpus": hc.corpus.default_corpus()}
    if workload == "transforms":
        inputs["multidim"] = hc.corpus.multidim_corpus()
    else:
        inputs["operator"] = hc.corpus.example_operator()
    return inputs


def make_ops(workload: str, hc, inputs: dict) -> list:
    if workload == "transforms":
        ops = _fourier_ops(hc, inputs) + _radon_ops(hc, inputs)
    else:
        ops = _symbolic_ops(hc, inputs)
    # Run back to back, the cheap ops of one kind would all see the host in
    # the same fraction of a second; spread out, they sample the whole pass,
    # as the median and the tail percentile they set should.  Inputs take
    # turns within a kind, then the kinds are spread through the pass.
    ops = _spread(ops, lambda op: (op.kind, op.label.split("/")[0]))
    return _spread(ops, lambda op: op.kind)


def _spread(ops: list, group) -> list:
    """Stable reorder that spreads the ops of each ``group`` evenly."""
    sizes: dict = {}
    for op in ops:
        sizes[group(op)] = sizes.get(group(op), 0) + 1
    seen: dict = {}
    keyed = []
    for i, op in enumerate(ops):
        j = seen[group(op)] = seen.get(group(op), -1) + 1
        keyed.append(((j + 0.5) / sizes[group(op)], i))
    return [ops[i] for _, i in sorted(keyed)]


# --------------------------------------------------------------------------


def _fourier_ops(hc, inputs):
    sp, hy = hc.spectral, hc.hyper
    corpus, suite, d = inputs["corpus"], inputs["suite"], inputs["draws"]
    ops = []

    for label in FOURIER_INPUTS:
        for batch in d["xi_batches"][label]:
            def table(f=corpus[label], xis=np.asarray(batch)):
                field = sp.fourier_transform(f)
                return field.table(xis) if field.table is not None else field(xis)

            ops.append(_op("table", label, table,
                           [oracles.fourier_transform(label, x) for x in batch],
                           TOL_ORACLE, rel=True))

    # gaussian's round trip is left out: tabulating its transform alone
    # takes about four times sech's, more than a run can afford
    phis = (suite["gauss"], suite["affine_gauss"])
    for label in ("sech", "delta", "delta2", "ode_f1"):
        def round_trip(f=corpus[label]):
            back = sp.inverse_fourier(sp.fourier_transform(f))
            return [hy.pair(back, phi) for phi in phis]

        ops.append(_op("roundtrip", label, round_trip,
                       [oracles.pairing(label, phi.label) for phi in phis],
                       TOL_ROUND_TRIP, rel=True))

    for label in ("sech", "gaussian"):
        f = corpus[label]
        for k in range(7):
            def duality(f=f, k=k):
                field = sp.fourier_transform(f)
                return [sp.moment(f, k), (1j) ** k * complex(np.asarray(field(0.0, order=k)))]

            mu = oracles.moment(label, k)
            ops.append(_op("duality", f"{label}/k{k}", duality, [mu, mu],
                           [TOL_ORACLE, TOL_ROUND_TRIP], rel=True))
        for x in d["xi_points"][label]:
            def hat(f=f, x=x):
                return complex(np.asarray(sp.fourier_transform(f)(x)))

            ops.append(_op("hat", label, hat, [oracles.fourier_transform(label, x)],
                           TOL_ORACLE, rel=True))
    return ops


def _radon_ops(hc, inputs):
    rd, hy = hc.radon, hc.hyper
    md, d = inputs["multidim"], inputs["draws"]
    phi = inputs["suite"]["gauss"]
    ops = []

    def sources(label):
        return getattr(md[label], "sources", ())

    # the direct route is cheap, the Fourier route is not: with the Fourier
    # tables, the direct slices hold the median of this workload, and the
    # Fourier-route slices its tail (the four round trips are fewer than the
    # samples the tail percentile leaves beyond it)
    for j, om in enumerate(d["directions"]):
        for label in sorted(md):
            ref = [oracles.slice_pairing(label, sources(label), om, phi.label)]

            def direct(f=md[label], om=om):
                return hy.pair(rd.radon_transform(f, om).hyper, phi)

            ops.append(_op("direct", label, direct, ref, TOL_ROUND_TRIP, rel=True))
            if j < 2:
                def fourier(f=md[label], om=om):
                    return hy.pair(rd.radon_via_fourier(f, om), phi)

                ops.append(_op("fourier", label, fourier, ref, TOL_ROUND_TRIP, rel=True))

    dirs = [(math.cos(t), math.sin(t)) for t in d["helgason_angles"]]
    for label in ("gauss2", "skew_gauss2", "point_J"):
        for k in range(5):
            def helgason(f=md[label], k=k):
                poly = rd.helgason_moment(f, k)
                return ([complex(poly(om)) for om in dirs]
                        + [complex(rd.slice_moment(f, om, k)) for om in dirs])

            mus = [oracles.slice_moment(label, sources(label), om, k) for om in dirs]
            ops.append(_op("helgason", f"{label}/k{k}", helgason, mus + mus,
                           TOL_ROUND_TRIP, rel=True))

    om = (math.cos(d["oracle_angle"]), math.sin(d["oracle_angle"]))

    def gauss_slice():
        return hy.pair(rd.radon_transform(md["gauss2"], om).hyper, phi)

    ops.append(_op("gauss_slice", "gauss2", gauss_slice,
                   [oracles.GAUSS_SLICE_PAIRING], TOL_ORACLE))
    return ops


def _symbolic_ops(hc, inputs):
    hy, sp, od = hc.hyper, hc.spectral, hc.odeseries
    corpus, suite, d = inputs["corpus"], inputs["suite"], inputs["draws"]
    gauss = suite["gauss"]
    ops = []

    for n in range(8):
        for phi, a in zip((suite["gauss"], suite["sech_gauss"]), d["shifts"][n]):
            def delta(n=n, phi=phi, a=a):
                return [hy.pair(hy.delta_derivative(n, at=a), phi),
                        (-1) ** n * phi.derivative_at(a, n)]

            ref = oracles.delta_pairing(phi.label, n, a)
            ops.append(_op("delta", f"{phi.label}/n{n}", delta, [ref, ref], TOL_DELTA))

    for label in sorted(corpus):
        f = corpus[label]
        for h in d["heights"]:
            spec = hc.quad.ContourSpec(imag_offset=h, abs_tol=1e-10)

            def pair_err(f=f, spec=spec):
                return hy.pair_with_error(f, gauss, spec=spec,
                                          force_lines=f.is_delta_like)[0]

            ops.append(_op("pair_with_error", label, pair_err,
                           [oracles.pairing(label, "gauss")], TOL_ORACLE, rel=True))

    # lorentz is left out: its standardization needs 8192 Legendre nodes,
    # whose first computation takes about 47 s and would dominate every run
    for label in ("sech", "gaussian", "delta2"):
        def standardized(f=corpus[label]):
            return hy.pair(hy.standardize(f), gauss)

        ops.append(_op("standardize", label, standardized,
                       [oracles.pairing(label, "gauss")], TOL_ORACLE, rel=True))

    for label in ("sech", "gaussian", "delta2", "ode_f1"):
        def remainder(f=corpus[label]):
            return sp.remainder_moments(f, sp.asymptotic_sum(f, 4))

        ops.append(_op("remainder", label, remainder, [0.0] * 5, TOL_RESIDUAL))

    for j, mu in enumerate(d["moment_vectors"]):
        def realize(mu=mu):
            real = sp.realize_moments(mu)
            return [sp.moment(real.hyperfunction, n) for n in range(len(mu))]

        ops.append(_op("realize", f"v{j}", realize, mu, TOL_ORACLE))

    L, N = inputs["operator"], d["ode_order"]
    for basis in ("delta", "fp"):
        def ode(basis=basis):
            sol = od.solve_series(L, basis, Fraction(1), N)
            f = od.assemble(sol.tail, sol.admissible, label=basis)
            return sol, od.residual_check(f, L, (suite["gauss"], suite["affine_gauss"]))

        expected = oracles.ode_coefficients(basis, N)

        def post(result, expected=expected):
            sol, residual = result
            mismatched = sum(a != b for a, b in zip(sol.coefficients, expected))
            mismatched += abs(len(sol.coefficients) - len(expected))
            return [mismatched, 0 if sol.admissible else 1, residual]

        ops.append(_op("ode", basis, ode, [0, 0, 0], [0, 0, TOL_RESIDUAL], post=post))
    return ops
