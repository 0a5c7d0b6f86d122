"""The benchmark's tracer still finds every binding it patches.

``perfbench/tracer.py`` wraps functions by name across the package's
modules; a refactor that drops one of those bindings fails here instead of
in a benchmark run.
"""

import importlib.util
import pathlib
import sys

import hypercalc
import hypercalc.corpus  # noqa: F401
import hypercalc.odeseries  # noqa: F401
import hypercalc.radon  # noqa: F401
import hypercalc.spectral  # noqa: F401

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _bindings():
    return {(name, attr): value for name, mod in sys.modules.items()
            if name.startswith("hypercalc") and mod is not None
            for attr, value in vars(mod).items() if callable(value)}


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    return tracer_module.Tracer()


def test_tracer_installs_and_uninstalls():
    before = _bindings()
    tracer = _tracer()
    tracer.install(hypercalc)
    try:
        assert hypercalc.spectral.fourier_transform is not before[
            ("hypercalc.spectral", "fourier_transform")]
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_traced_quadrature_counts_nodes():
    # the node counts read the quadrature result records: r[2] and r.nodes_used
    corpus = hypercalc.corpus
    gauss = next(t for t in corpus.test_suite() if t.label == "gauss")
    tracer = _tracer()
    tracer.install(hypercalc)
    try:
        hypercalc.hyper.pair(corpus.default_corpus()["sech"], gauss)
        hypercalc.radon.helgason_moment(corpus.multidim_corpus()["gauss2"], 1)
    finally:
        tracer.uninstall()
    counts = tracer.snapshot()
    assert counts["quad.adaptive_interval.nodes"] > 0
    assert counts["quad.integrate_box.nodes"] > 0
