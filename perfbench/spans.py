"""Per-layer tracing of one benchmark pass, installed from outside rmtlab.

The tracer replaces the public functions of each rmtlab module, the
numpy.linalg LAPACK routines and ``scipy.integrate.quad`` with wrappers that
record one span per call: the function, its start and end, and the span that
was open when it was called.  Spans stay in memory; ``layer_metrics``
reduces them after the pass.  A span's self time is its duration minus the
durations of its child spans.

Only the process that installed the tracer records spans.  Pool workers
forked from it inherit the wrappers but call straight through, so their work
is untraced and shows as waiting time in the span that started the pool.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import sys
import time
from collections import Counter, defaultdict

import numpy.linalg
from scipy import integrate

LAYERS = ("ensembles", "spectral", "concentration", "locallaw", "delocalization", "covariance", "harness")

# Each makes one LAPACK call; helpers such as norm or pinv reach LAPACK
# through them, so wrapping only these counts every call once.
LAPACK = (
    "cholesky", "det", "eig", "eigh", "eigvals", "eigvalsh", "inv", "lstsq", "qr", "slogdet", "solve", "svd",
)

# Called once per quadrature node or per window at a cost close to that of
# a span; their time stays in the caller's self time.
UNTRACED = frozenset({"rho_sc", "rho_mp", "sc_interval_mass"})

# Inclusive time of these groups of functions; nested calls within a group
# count once.
GROUPS = {
    "spectral.mp_mass_s": {"spectral.mp_interval_mass"},
    "locallaw.law_deviation_s": {"locallaw.law_deviation"},
    "locallaw.schur_s": {
        "locallaw.schur_identity_residual",
        "locallaw.schur_terms",
        "locallaw.yk_deviation",
        "locallaw.yk_r_decomposition",
    },
    "delocalization.identity_s": {"delocalization.entry_identity", "delocalization.interlacing_identity"},
    "covariance.identity_s": {
        "covariance.singular_entry_identity",
        "covariance.singular_interlacing_identity",
        "covariance.covariance_schur_residual",
        "covariance.covariance_schur_terms",
    },
    "covariance.records_s": {"covariance.singular_vec_inf_norms"},
    "concentration.tail_s": {"concentration.empirical_tail"},
}


class Tracer:
    """Span recorder for the calling process; see the module docstring."""

    def __init__(self):
        self.labels: list[tuple[str, str]] = []  # (layer, function) per label id
        self.spans: list = []  # (label id, start, end, parent span index or -1)
        self.windows = 0
        self.clipped_windows = 0
        self._stack: list[int] = []
        self._active = True
        self._patched: list[tuple[object, str, object]] = []
        os.register_at_fork(after_in_child=self._stop)

    def _stop(self):
        self._active = False

    def _wrap(self, fn, layer: str, label: str, on_return=None):
        label_id = len(self.labels)
        self.labels.append((layer, label))
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._active:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (label_id, start, end, parent)
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        return traced

    def _patch(self, namespace, attr: str, value) -> None:
        self._patched.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, value)

    def _count_windows(self, signature):
        def on_return(args, kwargs, result):
            scale = signature.bind(*args, **kwargs).arguments["scale"]
            windows = result.windows
            self.windows += len(windows)
            self.clipped_windows += sum(1 for w in windows if w[1] - w[0] < scale * (1.0 - 1e-9))

        return on_return

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced function for the duration of the block."""
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"rmtlab.{layer}")
            for name in getattr(module, "__all__", ()):
                fn = getattr(module, name, None)
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__ or name in UNTRACED:
                    continue
                hook = self._count_windows(inspect.signature(fn)) if name == "law_deviation" else None
                wrappers[fn] = self._wrap(fn, layer, f"{layer}.{name}", hook)
        # ``from .x import f`` leaves a reference in every importing module
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "rmtlab" or mod_name.startswith("rmtlab."):
                for attr, value in list(vars(module).items()):
                    if inspect.isfunction(value) and value in wrappers:
                        self._patch(module, attr, wrappers[value])
        inner = getattr(numpy.linalg, "_linalg", None)
        for name in LAPACK:
            fn = getattr(numpy.linalg, name, None)
            if fn is None:
                continue
            traced = self._wrap(fn, "lapack", f"numpy.linalg.{name}")
            self._patch(numpy.linalg, name, traced)
            if inner is not None and getattr(inner, name, None) is fn:
                self._patch(inner, name, traced)
        self._patch(integrate, "quad", self._wrap(integrate.quad, "scipy", "scipy.integrate.quad"))
        try:
            yield self
        finally:
            while self._patched:
                namespace, attr, original = self._patched.pop()
                setattr(namespace, attr, original)

    def _self_times(self) -> list[float]:
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def layer_metrics(self, wall_s: float) -> dict:
        """Per-layer metrics of the traced pass, whose wall time is ``wall_s``."""
        layer_self: dict = defaultdict(float)
        calls: Counter = Counter()
        for (label_id, _, _, _), own in zip(self.spans, self._self_times()):
            layer, label = self.labels[label_id]
            layer_self[layer] += own
            calls[layer] += 1
            calls[label] += 1
        metrics = {
            "lapack.calls": (calls["lapack"], "count"),
            "lapack.self_s": (layer_self["lapack"], "s"),
            "harness.nonlapack_share": ((wall_s - layer_self["lapack"]) / wall_s, "ratio"),
            "harness.self_s": (layer_self["harness"], "s"),
            "ensembles.self_s": (layer_self["ensembles"], "s"),
            "spectral.quad_calls": (calls["scipy.integrate.quad"], "count"),
            "locallaw.windows": (self.windows, "count"),
            "locallaw.clipped_windows": (self.clipped_windows, "count"),
        }
        for name, members in GROUPS.items():
            metrics[name] = (self._group_time(members), "s")
        return metrics

    def _group_time(self, members: set) -> float:
        inside = []  # span i lies within a span of the group (itself included)
        total = 0.0
        for label_id, start, end, parent in self.spans:
            member = self.labels[label_id][1] in members
            enclosed = parent >= 0 and inside[parent]
            if member and not enclosed:
                total += end - start
            inside.append(member or enclosed)
        return total
