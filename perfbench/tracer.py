"""Layer tracing for the benchmark, installed from outside the package.

The tracer replaces the public functions of each hypercalc layer with timing
wrappers.  It patches every binding of a wrapped function in every loaded
``hypercalc`` module, because modules import each other's functions by name
(``hyper.adaptive_interval``, ``spectral.quad_auto_radius``,
``radon.integrate_box``, ``odeseries.pair``, ...).  Closures carried on
returned objects (the Fourier transform's ``evaluator`` and ``table``, the
branches of inverse transforms, standardizations and Radon slices) are
wrapped with ``dataclasses.replace`` on the way out.

Self time of a span is its duration minus the time covered by the spans it
caused.  The bookkeeping a wrapper does after its span ends (counting tree
nodes, wrapping results) is charged to neither.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from time import perf_counter

import numpy as np

LAYERS = ("expr", "quad", "hyper", "spectral", "radon", "odeseries")

# every per-layer metric a traced pass reports, zero when never reached
METRICS = (
    "expr.evaluate.calls", "expr.evaluate.points", "expr.evaluate.self_s",
    "expr.differentiate.calls", "expr.differentiate.nodes_out",
    "expr.differentiate.self_s", "expr.simplify.self_s",
    "quad.adaptive_interval.calls", "quad.adaptive_interval.nodes",
    "quad.adaptive_interval.self_s", "quad.adaptive_interval.failed",
    "quad.integrate_box.calls", "quad.integrate_box.nodes",
    "quad.integrate_box.self_s", "quad.auto_radius.calls",
    "quad.auto_radius.self_s", "quad.tail_bound.calls",
    "hyper.pair.calls", "hyper.pair.circle_calls", "hyper.pair.lines_calls",
    "hyper.pair.self_s", "hyper.standardize_G.calls",
    "hyper.standardize_G.points", "hyper.standardize_G.self_s",
    "hyper.derivative_at.self_s",
    "spectral.fourier_transform.self_s", "spectral.ft_table.calls",
    "spectral.ft_table.xis", "spectral.ft_table.self_s", "spectral.ft_hat.calls",
    "spectral.ft_hat.self_s", "spectral.inverse_fourier.self_s",
    "spectral.ift_branch.calls", "spectral.ift_branch.points",
    "spectral.ift_branch.self_s", "spectral.moment.calls",
    "spectral.moment.self_s", "spectral.realize_moments.self_s",
    "radon.radon_transform.self_s", "radon.slice_G.calls", "radon.slice_G.points",
    "radon.slice_G.self_s", "radon.fourier_ray.self_s", "radon.ray_table.calls",
    "radon.ray_table.rhos", "radon.ray_table.self_s",
    "radon.helgason_moment.self_s", "radon.slice_moment.self_s",
    "odeseries.solve_series.self_s", "odeseries.assemble.self_s",
    "odeseries.residual_check.self_s",
) + tuple(f"layer.{layer}.self_s" for layer in LAYERS)


def _size(x) -> int:
    return int(np.size(x))


def _tree_nodes(e) -> int:
    """Distinct nodes of an expression DAG (derivative towers share subtrees)."""
    seen = set()
    stack = [e]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        for child in ("left", "right", "arg", "base"):  # the Expr-valued fields
            sub = getattr(node, child, None)
            if sub is not None:
                stack.append(sub)
    return len(seen)


def _env_points(args, kwargs) -> int:
    env = args[1] if len(args) > 1 else kwargs.get("env")
    if isinstance(env, dict):
        return max((_size(v) for v in env.values()), default=1)
    return _size(env)


class Tracer:
    """Collects per-span call counts, work counts and self time."""

    def __init__(self):
        self.stats = {}
        self._stack = []
        self._patches = []

    # -- recording -------------------------------------------------------

    def _record(self, name):
        rec = self.stats.get(name)
        if rec is None:
            rec = self.stats[name] = {"calls": 0, "self_s": 0.0}
        return rec

    def bump(self, name, key, amount=1):
        rec = self._record(name)
        rec[key] = rec.get(key, 0) + amount

    def span(self, name, fn, count=None, wrap=None):
        """Wrap ``fn`` so each outermost call records one span ``name``.

        ``count(rec, args, kwargs, result)`` adds work counts, ``wrap(result)``
        decorates the returned object.  A call made directly inside a span of
        the same name runs unrecorded, so a recursive function such as
        ``simplify`` gives one span per outer call.
        """
        stack = self._stack
        tracer = self

        def traced(*args, **kwargs):
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t1 = perf_counter()
                stack.pop()
                rec = tracer._record(name)
                rec["calls"] += 1
                rec["self_s"] += (t1 - t0) - frame[1]
                rec["failed"] = rec.get("failed", 0) + 1
                if stack:
                    stack[-1][1] += perf_counter() - t0
                raise
            t1 = perf_counter()
            stack.pop()
            rec = tracer._record(name)
            rec["calls"] += 1
            rec["self_s"] += (t1 - t0) - frame[1]
            if count is not None:
                count(rec, args, kwargs, result)
            if wrap is not None:
                result = wrap(result)
            if stack:
                stack[-1][1] += perf_counter() - t0
            return result

        traced.__wrapped__ = fn
        return traced

    def counter(self, name, key, fn):
        """Wrap ``fn`` to count its calls under ``name.key`` without a span;
        its time stays with the enclosing span.  Recursive calls made from
        inside the counted call are not counted again."""
        tracer = self
        depth = [0]

        def counted(*args, **kwargs):
            if depth[0] == 0:
                tracer.bump(name, key)
            depth[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1

        counted.__wrapped__ = fn
        return counted

    # -- patching --------------------------------------------------------

    def _patch_everywhere(self, original, replacement):
        """Rebind ``original`` to ``replacement`` in every hypercalc module."""
        hits = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "hypercalc"
                                   or mod_name.startswith("hypercalc.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, replacement)
                    hits += 1
        if not hits:
            raise RuntimeError(f"no binding of {original!r} found to trace")

    def _patch_attr(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self, hc):
        """Wrap the public functions of every layer; ``hc`` is the package."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        ex, qd, hy, sp, rd, od = (hc.expr, hc.quad, hc.hyper, hc.spectral,
                                  hc.radon, hc.odeseries)
        span, counter, patch = self.span, self.counter, self._patch_everywhere

        def add(key, value_of):
            def count(rec, args, kwargs, result):
                rec[key] = rec.get(key, 0) + value_of(args, kwargs, result)
            return count

        def first_arg_size(key):
            return add(key, lambda a, k, r: _size(a[0]) if a else 0)

        # expr
        patch(ex.evaluate, span("expr.evaluate", ex.evaluate,
                                count=add("points", lambda a, k, r: _env_points(a, k))))
        patch(ex.differentiate, span("expr.differentiate", ex.differentiate,
                                     count=add("nodes_out", lambda a, k, r: _tree_nodes(r))))
        patch(ex.simplify, span("expr.simplify", ex.simplify))

        # quad (growth has no work of its own: it shows as tail_bound calls)
        patch(qd.adaptive_interval, span("quad.adaptive_interval", qd.adaptive_interval,
                                         count=add("nodes", lambda a, k, r: int(r[2]))))
        patch(qd.integrate_box, span("quad.integrate_box", qd.integrate_box,
                                     count=add("nodes", lambda a, k, r: int(r.nodes_used))))
        patch(qd.auto_radius, span("quad.auto_radius", qd.auto_radius))
        patch(qd.tail_bound, counter("quad.tail_bound", "calls", qd.tail_bound))

        # hyper
        for fn in (hy.pair, hy.pair_with_error):
            patch(fn, span("hyper.pair", fn))
        self._patch_attr(hy, "_pair_circle",
                         counter("hyper.pair", "circle_calls", hy._pair_circle))
        self._patch_attr(hy, "_pair_lines",
                         counter("hyper.pair", "lines_calls", hy._pair_lines))

        def wrap_standardized(h):
            g = span("hyper.standardize_G", h.f_plus, count=first_arg_size("points"))
            return replace(h, f_plus=g, f_minus=g)

        patch(hy.standardize, span("hyper.standardize", hy.standardize,
                                   wrap=wrap_standardized))
        self._patch_attr(hy.TestFunction, "derivative_at",
                         span("hyper.derivative_at", hy.TestFunction.derivative_at))

        # spectral
        def wrap_transform(field):
            table = field.table
            if table is not None:
                table = span("spectral.ft_table", table, count=first_arg_size("xis"))
            return replace(field, evaluator=span("spectral.ft_hat", field.evaluator),
                           table=table)

        def wrap_branches(name, count_key):
            def wrap(h):
                if isinstance(h.f_plus, ex.Expr):
                    return h
                plus = span(name, h.f_plus, count=first_arg_size(count_key))
                minus = plus if h.f_minus is h.f_plus else span(
                    name, h.f_minus, count=first_arg_size(count_key))
                return replace(h, f_plus=plus, f_minus=minus)
            return wrap

        patch(sp.fourier_transform, span("spectral.fourier_transform",
                                         sp.fourier_transform, wrap=wrap_transform))
        patch(sp.inverse_fourier, span("spectral.inverse_fourier", sp.inverse_fourier,
                                       wrap=wrap_branches("spectral.ift_branch", "points")))
        patch(sp.moment, span("spectral.moment", sp.moment))
        patch(sp.realize_moments, span("spectral.realize_moments", sp.realize_moments))

        # radon
        slice_branches = wrap_branches("radon.slice_G", "points")

        def wrap_slice(sl):
            return replace(sl, hyper=slice_branches(sl.hyper))

        def wrap_ray(field):
            if field.table is None:
                return field
            return replace(field, table=span("radon.ray_table", field.table,
                                             count=first_arg_size("rhos")))

        patch(rd.radon_transform, span("radon.radon_transform", rd.radon_transform,
                                       wrap=wrap_slice))
        patch(rd.multidim_fourier_ray, span("radon.fourier_ray", rd.multidim_fourier_ray,
                                            wrap=wrap_ray))
        patch(rd.helgason_moment, span("radon.helgason_moment", rd.helgason_moment))
        patch(rd.slice_moment, span("radon.slice_moment", rd.slice_moment))

        # odeseries
        for fname in ("solve_series", "assemble", "residual_check"):
            fn = getattr(od, fname)
            patch(fn, span(f"odeseries.{fname}", fn))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ---------------------------------------------------------

    def reset(self):
        self.stats = {}

    def snapshot(self):
        """Flat ``{"layer.fn.key": value}`` of every name in METRICS and of
        anything else recorded, with ``layer.<name>.self_s`` totals."""
        flat = {name: 0.0 if name.endswith("self_s") else 0 for name in METRICS}
        totals = dict.fromkeys(LAYERS, 0.0)
        for name, rec in self.stats.items():
            for key, value in rec.items():
                flat[f"{name}.{key}"] = value
            layer = name.split(".", 1)[0]
            if layer in totals:
                totals[layer] += rec["self_s"]
        for layer, total in totals.items():
            flat[f"layer.{layer}.self_s"] = total
        return flat
