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


def test_tracer_installs_and_uninstalls():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    before = _bindings()
    tracer = tracer_module.Tracer()
    tracer.install(hypercalc)
    try:
        assert hypercalc.spectral.fourier_transform is not before[
            ("hypercalc.spectral", "fourier_transform")]
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
