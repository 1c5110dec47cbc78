"""Outside-in tracer for holobound: spans around each layer's public entry points.

Nothing in the package is edited.  Each boundary (a module-level function, a
method or a static method) is replaced by a wrapper that records a span, and
a replaced function is rebound in every ``holobound`` module that imported it,
so ``from .kernel import build_kernel_estimate`` in ``cli``, ``bounds`` and
``equivalence`` all reach the wrapper.

LAPACK time is attributed by where the call is made, not by a global patch of
``numpy.linalg``: only the ``np`` name inside ``holobound.kernel`` is swapped
for a proxy whose ``linalg.cond/cholesky/eigvalsh`` record ``kernel.factor``
spans.  ``leggauss`` inside the quadrature layer still reaches the real
``numpy.linalg`` and so stays inside the enclosing quadrature span.

Spans stay in memory; :meth:`Tracer.summary` aggregates them once, at worker
exit.  Self time is a span's duration minus the durations of its direct
children.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import numpy as np

clock = time.monotonic


def _size(z) -> int:
    return int(np.size(z))


def _count_rule(counters, args, kwargs, rule):
    counters["quadrature.rules"] += 1
    counters["quadrature.nodes"] += len(rule.nodes)


def _count_points(key):
    # every counted boundary is a method called as (self, z, ...)
    def count(counters, args, kwargs, result):
        counters[key] += _size(args[1])
    return count


def _count_build(counters, args, kwargs, est):
    # called as (w, N, rule); flops and bytes are computed from the sizes the
    # Gram assembly touches, not measured: 8 real flops per complex
    # multiply-add of the (N+1) x nodes Vandermonde product, 16 bytes per
    # complex Vandermonde entry
    degree, nodes = int(args[1]), len(args[2].nodes)
    counters["kernel.builds"] += 1
    counters["kernel.gram_flops"] += 8 * nodes * (degree + 1) ** 2
    counters["kernel.gram_bytes"] += 16 * nodes * (degree + 1)
    counters["kernel.degraded"] += int(bool(getattr(est, "degraded", False)))


def _count_key(key):
    def count(counters, args, kwargs, result):
        counters[key] += 1
    return count


# (module, owner class or None, attribute, span name, counter)
BOUNDARIES = (
    ("holobound.cli", None, "main", "cli.main", None),
    ("holobound.quadrature", None, "disk_rule", "quadrature.rule", _count_rule),
    ("holobound.quadrature", None, "masked_disk_rule", "quadrature.rule", _count_rule),
    ("holobound.quadrature", None, "truncated_plane_rule", "quadrature.rule", _count_rule),
    ("holobound.quadrature", None, "integrate", "quadrature.integrate",
     _count_key("quadrature.integrals")),
    ("holobound.quadrature", None, "integrate_with_error", "quadrature.integrate", None),
    ("holobound.weights", "WeightFunction", "from_json", "weights.build", None),
    ("holobound.weights", "WeightFunction", "weight", "weights.eval",
     _count_points("weights.eval_points")),
    ("holobound.weights", "WeightFunction", "laplacian", "weights.laplacian",
     _count_points("weights.laplacian_points")),
    ("holobound.greens", "LogPotential", "__init__", "greens.setup", None),
    ("holobound.greens", "LogPotential", "values", "greens.eval",
     _count_points("greens.eval_points")),
    ("holobound.potential", None, "compute_B", "potential.B", _count_key("potential.B_calls")),
    ("holobound.potential", None, "make_psi", "potential.make_psi", None),
    ("holobound.potential", None, "verify_potential_bounds", "potential.verify", None),
    ("holobound.kernel", None, "build_kernel_estimate", "kernel.build", _count_build),
    ("holobound.kernel", None, "gram_matrix", "kernel.build", None),
    ("holobound.kernel", "KernelEstimate", "diag_at_degree", "kernel.diag",
     _count_points("kernel.diag_points")),
    ("holobound.bounds", None, "global_certificate", "bounds.certificate",
     _count_key("bounds.certificates")),
    ("holobound.bounds", None, "constant_case_certificate", "bounds.certificate",
     _count_key("bounds.certificates")),
    ("holobound.bounds", None, "local_bound_certificate", "bounds.certificate",
     _count_key("bounds.certificates")),
)

# LAPACK entry points called from holobound.kernel's own namespace
KERNEL_FACTOR_CALLS = ("cond", "cholesky", "eigvalsh")


class _Proxy:
    """Forwards attribute reads to ``target`` except for ``overrides``."""

    def __init__(self, target, overrides):
        self._target = target
        self._overrides = overrides

    def __getattr__(self, name):
        if name in self._overrides:
            return self._overrides[name]
        return getattr(self._target, name)


class Tracer:
    """Span recorder; :meth:`install` wraps every entry of ``BOUNDARIES``."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index]
        self.stack = []
        self.counters = defaultdict(int)
        self.calls = {}      # "module:attr" -> calls, for every installed boundary
        self.missing = {}    # "module:attr" -> span name, for boundaries not found

    def wrap(self, key, name, fn, count=None):
        spans, stack, counters, calls = self.spans, self.stack, self.counters, self.calls
        calls[key] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[key] += 1
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if count is not None:
                count(counters, args, kwargs, result)
            return result

        return wrapper

    def install(self):
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "holobound" or n.startswith("holobound."))]
        for mod_name, owner, attr, name, count in BOUNDARIES:
            key = f"{mod_name}:{owner + '.' if owner else ''}{attr}"
            mod = sys.modules.get(mod_name)
            target = getattr(mod, owner, None) if owner else mod
            if target is None or attr not in vars(target):
                self.missing[key] = name
                continue
            raw = vars(target)[attr]
            if isinstance(raw, staticmethod):
                setattr(target, attr, staticmethod(self.wrap(key, name, raw.__func__, count)))
            elif owner:
                setattr(target, attr, self.wrap(key, name, raw, count))
            else:
                wrapped = self.wrap(key, name, raw, count)
                for m in modules:
                    for k, v in list(vars(m).items()):
                        if v is raw:
                            setattr(m, k, wrapped)
        self._install_psi_counter()
        self._install_kernel_factor()

    def _install_psi_counter(self):
        # psi evaluations made while a greens span is innermost; the psi call
        # itself is not a span, so its weight-Laplacian child stays attributed
        # to the weights layer
        from holobound.weights import ScalarField
        key = "holobound.weights:ScalarField.__call__"
        raw = ScalarField.__call__
        spans, stack, counters, calls = self.spans, self.stack, self.counters, self.calls
        calls[key] = 0

        @functools.wraps(raw)
        def call(field, z):
            calls[key] += 1
            if stack and spans[stack[-1]][0].startswith("greens."):
                counters["greens.psi_points"] += _size(z)
            return raw(field, z)

        ScalarField.__call__ = call

    def _install_kernel_factor(self):
        kernel = sys.modules["holobound.kernel"]
        real = kernel.np
        linalg = {}
        for attr in KERNEL_FACTOR_CALLS:
            linalg[attr] = self.wrap(f"holobound.kernel:np.linalg.{attr}", "kernel.factor",
                                     getattr(real.linalg, attr),
                                     _count_key("kernel.factor_calls"))
        kernel.np = _Proxy(real, {"linalg": _Proxy(real.linalg, linalg)})

    def summary(self) -> dict:
        """Inclusive and self seconds per span name, the counters, and the
        call count of every boundary with the ones that were missing."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        names = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            row = names.setdefault(name, {"inclusive_s": 0.0, "self_s": 0.0})
            # a span nested in one of the same name (integrate inside
            # integrate_with_error) is already in its ancestor's inclusive time
            if not self._nested_in_same(i):
                row["inclusive_s"] += end - start
            row["self_s"] += end - start - child[i]
        return {"spans": names, "counters": dict(self.counters),
                "calls": dict(self.calls), "missing": self.missing}

    def _nested_in_same(self, i: int) -> bool:
        name, parent = self.spans[i][0], self.spans[i][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

