"""In-memory span tracer that wraps harmcert's public functions from outside.

Each wrapped function records one span (function id, parent span, start,
end) per call into flat arrays, but only while a root span opened by the
benchmark is active, so the benchmark's own oracle and output checks are
never counted.  Wrappers are installed by object identity in every
``harmcert.*`` namespace that holds a reference to the function (for
example ``geometry`` imports ``paired_boundary_sup`` by name), plus the two
numpy kernels harmcert calls through the ``numpy`` module.  A target that
no longer exists is skipped and reports zero calls.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

# (layer, module, function) for every public function the traced run wraps.
TARGETS = (
    ("numpy", "numpy", "polyval"),
    ("numpy", "numpy", "roots"),
    ("series", "harmcert.series", "eval_series"),
    ("series", "harmcert.series", "eval_array"),
    ("series", "harmcert.series", "derivative"),
    ("series", "harmcert.series", "deficiency"),
    ("series", "harmcert.series", "hadamard"),
    ("series", "harmcert.series", "linear_combination"),
    ("series", "harmcert.series", "combine_with_zeta"),
    ("series", "harmcert.series", "all_ones"),
    ("series", "harmcert.series", "default_grid"),
    ("membership", "harmcert.membership", "boundary_sup"),
    ("membership", "harmcert.membership", "paired_boundary_sup"),
    ("membership", "harmcert.membership", "analytic_membership"),
    ("membership", "harmcert.membership", "harmonic_membership"),
    ("membership", "harmcert.membership", "zeta_family_sup"),
    ("membership", "harmcert.membership", "stable_family_check"),
    ("membership", "harmcert.membership", "coefficient_sufficient"),
    ("membership", "harmcert.membership", "coefficient_bounds_audit"),
    ("membership", "harmcert.membership", "random_member"),
    ("geometry", "harmcert.geometry", "growth_envelope_check"),
    ("geometry", "harmcert.geometry", "jacobian_bound_check"),
    ("geometry", "harmcert.geometry", "radius_certify"),
    ("geometry", "harmcert.geometry", "harmonic_radius_certify"),
    ("geometry", "harmcert.geometry", "second_derivative_test"),
    ("geometry", "harmcert.geometry", "euler_operator_test"),
    ("geometry", "harmcert.geometry", "convolve_members"),
    ("geometry", "harmcert.geometry", "convex_combination"),
    ("geometry", "harmcert.geometry", "boundary_curve_audit"),
    ("catalog", "harmcert.catalog", "make_example"),
    ("catalog", "harmcert.catalog", "hyper_condition"),
    ("catalog", "harmcert.catalog", "poly_condition"),
    ("catalog", "harmcert.catalog", "hyper_family_coeffs"),
    ("catalog", "harmcert.catalog", "poly_family_coeffs"),
    ("specfun", "harmcert.specfun", "gamma"),
    ("specfun", "harmcert.specfun", "pochhammer"),
    ("specfun", "harmcert.specfun", "gauss_value"),
    ("specfun", "harmcert.specfun", "weighted_gauss_value"),
    ("specfun", "harmcert.specfun", "hyper_coefficients"),
    ("cli", "harmcert.cli", "main"),
    ("cli", "harmcert.cli", "parse_function_file"),
    ("cli", "harmcert.cli", "load_function_file"),
    ("cli", "harmcert.cli", "serialize_function_file"),
    ("cli", "harmcert.cli", "write_text_atomic"),
    ("cli", "harmcert.cli", "curve_csv"),
    ("cli", "harmcert.cli", "curve_svg"),
)


def _polyval_counts(p, x, *_a, **_k):
    points = int(np.size(x))
    return {"points": points, "madds": points * max(0, len(p) - 1)}


def _roots_counts(p, *_a, **_k):
    return {"degree_sum": max(0, len(p) - 1)}


def _text_bytes(text, *_a, **_k):
    return {"bytes": len(text.encode("utf-8"))}


def _written_bytes(_path, text, *_a, **_k):
    return _text_bytes(text)


# Work counters recorded at the boundary, besides calls and self time.
COUNTERS = {
    "numpy.polyval": (("points", "madds"), _polyval_counts),
    "numpy.roots": (("degree_sum",), _roots_counts),
    "cli.parse_function_file": (("bytes",), _text_bytes),
    "cli.write_text_atomic": (("bytes",), _written_bytes),
}


class Tracer:
    """Spans kept in flat arrays; one span per wrapped call inside a root."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.fid = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, float] = defaultdict(float)
        for name, (keys, _) in COUNTERS.items():
            for key in keys:
                self.counts[f"{name}.{key}"] = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, fid: int) -> int:
        idx = len(self.fid)
        self.fid.append(fid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def root(self, name: str, fn, *args, **kwargs):
        """Run fn inside a root span; wrapped calls under it are recorded."""
        idx = self._open(self._id(name))
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def wrap(self, name: str, fn):
        fid = self._id(name)
        counter = COUNTERS.get(name, ((), None))[1]
        stack = self._stack
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            if counter is not None:
                for key, value in counter(*args, **kwargs).items():
                    counts[f"{name}.{key}"] += value
            idx = self._open(fid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def install(self, targets=TARGETS) -> None:
        """Wrap every target in every namespace that references it."""
        homes = {}
        for _, modname, _ in targets:
            try:
                homes[modname] = importlib.import_module(modname)
            except ImportError:
                pass
        namespaces = [m for name, m in sorted(sys.modules.items())
                      if name == "harmcert" or name.startswith("harmcert.")]
        for layer, modname, fname in targets:
            name = f"{layer}.{fname}"
            self._id(name)
            home = homes.get(modname)
            orig = getattr(home, fname, None)
            if orig is None:
                continue
            wrapper = self.wrap(name, orig)
            for ns in [home] + namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is orig:
                        self._patches.append((ns, attr, orig))
                        setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        for ns, attr, orig in reversed(self._patches):
            setattr(ns, attr, orig)
        self._patches.clear()

    def span_arrays(self):
        fid = np.frombuffer(self.fid, dtype=np.int32).copy()
        parent = np.frombuffer(self.parent, dtype=np.int32).copy()
        dur = (np.frombuffer(self.end, dtype=np.float64)
               - np.frombuffer(self.start, dtype=np.float64))
        return fid, parent, dur

    def self_times(self) -> np.ndarray:
        """Per-span duration minus the time its direct children cover."""
        fid, parent, dur = self.span_arrays()
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        return dur - child

    def summary(self) -> dict[str, float]:
        """``<layer>.<fn>.calls`` and ``.self_s`` for every known name."""
        fid, parent, _ = self.span_arrays()
        n = len(self.names)
        calls = np.bincount(fid, minlength=n)
        self_s = np.bincount(fid, weights=self.self_times(), minlength=n)
        out = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.self_s"] = float(self_s[i])
        out.update(self.counts)
        return out

    def calls_under(self, child: str, parents: tuple[str, ...]) -> int:
        """Spans of ``child`` whose direct parent is one of ``parents``."""
        if child not in self._ids:
            return 0
        fid, parent, _ = self.span_arrays()
        pids = [self._ids[p] for p in parents if p in self._ids]
        mask = (fid == self._ids[child]) & (parent >= 0)
        return int(np.isin(fid[parent[mask]], pids).sum())
