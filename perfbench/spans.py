"""Opt-in span recorder for the traced run.

Spans are recorded from the benchmark's side: each layer's public functions
are replaced, for the duration of the traced run, at every name a caller
looks them up by (for example `rdmkit.compat.detect_ghz_type`, the binding
`determinedness` calls, and `rdmkit.cli.compat.determinedness`, which is the
module attribute itself).  Nothing in rdmkit changes.  NumPy kernels are
counted, not spanned, and each call is attributed to the innermost open
span.  Spans live in memory and are written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

import numpy as np

import rdmkit

LAYERS = ("cli", "compat", "ghz", "schmidt", "rdm", "construct", "qstate")

# span name -> (module, attribute) of the function it wraps
SPANS = {
    "cli.main": ("rdmkit.cli", "main"),
    "cli.load_state": ("rdmkit.cli", "load_state"),
    "compat.determinedness": ("rdmkit.compat", "determinedness"),
    "compat.search": ("rdmkit.compat", "search_max_tmax"),
    "compat.rank2_check": ("rdmkit.compat", "rank2_check"),
    "ghz.detect": ("rdmkit.ghz", "detect_ghz_type"),
    "ghz.make": ("rdmkit.ghz", "make_ghz"),
    "ghz.family": ("rdmkit.ghz", "ghz_family"),
    "schmidt.split": ("rdmkit.schmidt", "schmidt_split"),
    "schmidt.purify": ("rdmkit.schmidt", "purify"),
    "schmidt.env": ("rdmkit.schmidt", "extract_env_vectors"),
    "schmidt.constraint": ("rdmkit.schmidt", "main_constraint_max_residual"),
    "rdm.ptr_tuple": ("rdmkit.rdm", "ptr_tuple"),
    "construct.partner": ("rdmkit.construct", "pure_partner_details"),
}

# class methods are looked up through the class on every call
METHODS = {
    "qstate.density_check": (rdmkit.qstate.DensityMatrix, "__post_init__"),
}

KERNELS = ("cholesky", "eigh", "eigvalsh", "det")

ROOT = "bench.op"


def _rdmkit_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "rdmkit"
                                  or name.startswith("rdmkit."))]


class Tracer:
    """Spans (name, start, end, parent) and per-span kernel counts."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.kernels: dict = defaultdict(lambda: [0, 0.0])  # (span, kernel)
        self.branches: dict = defaultdict(int)
        self._stack: list[int] = []
        self._restore: list = []

    # -------------------------------------------------------- recording

    def _open(self, name):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def span(self, name, fn, on_result=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if on_result is not None:
                on_result(out, args, kwargs)
            return out
        return wrapper

    def kernel(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec = self.kernels[(self._stack[-1] if self._stack else -1,
                                    name)]
                rec[0] += 1
                rec[1] += time.perf_counter() - t0
        return wrapper

    def op(self, call):
        """Run one benchmark operation under a root span."""
        idx = self._open(ROOT)
        try:
            return call()
        finally:
            self._close(idx)

    def _classify_branch(self, cert, args, kwargs):
        """The detector's branch, from diagnostics["q"] and its thresholds."""
        tol = kwargs.get("tol", args[1] if len(args) > 1
                         else rdmkit.ghz.DETECT_TOL)
        q0, q1 = cert.diagnostics["q"]
        if q0 * q1 <= tol:
            self.branches["product"] += 1
        elif q0 - q1 > np.sqrt(tol):
            self.branches["gapped"] += 1
        else:
            self.branches["degenerate"] += 1

    # ------------------------------------------------------- installing

    def install(self):
        """Replace every binding of each wrapped function; undo with remove."""
        modules = _rdmkit_modules()
        for name, (modname, attr) in SPANS.items():
            orig = getattr(sys.modules[modname], attr)
            hook = self._classify_branch if name == "ghz.detect" else None
            wrapped = self.span(name, orig, hook)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._restore.append((mod, key, val))
                        setattr(mod, key, wrapped)
        for name, (cls, attr) in METHODS.items():
            orig = cls.__dict__[attr]
            self._restore.append((cls, attr, orig))
            setattr(cls, attr, self.span(name, orig))
        for name in KERNELS:
            orig = getattr(np.linalg, name)
            self._restore.append((np.linalg, name, orig))
            setattr(np.linalg, name, self.kernel(name, orig))

    def remove(self):
        while self._restore:
            obj, attr, orig = self._restore.pop()
            setattr(obj, attr, orig)

    # --------------------------------------------------------- analysis

    def _durations(self):
        dur = [e - s for s, e in zip(self.starts, self.ends)]
        child = [0.0] * len(dur)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += dur[i]
        return dur, [d - c for d, c in zip(dur, child)]

    def _inside(self, idx, name):
        while idx >= 0:
            if self.names[idx] == name:
                return True
            idx = self.parents[idx]
        return False

    def metrics(self) -> dict:
        """Per-layer metrics: {name: (value, unit)}."""
        dur, self_t = self._durations()
        busy = defaultdict(float)
        calls = defaultdict(int)
        span_self = defaultdict(float)
        layer_self = defaultdict(float)
        for i, name in enumerate(self.names):
            busy[name] += dur[i]
            calls[name] += 1
            span_self[name] += self_t[i]
            layer_self[name.split(".")[0]] += self_t[i]
        probes, probe_s = 0, 0.0
        for (idx, kname), (count, secs) in self.kernels.items():
            if kname == "cholesky" and self._inside(idx, "compat.search"):
                probes += count
                probe_s += secs
        out = {
            "compat.search.busy_s": (busy["compat.search"], "s"),
            "compat.search.calls": (calls["compat.search"], "count"),
            "compat.psd_probes": (probes, "count"),
            "compat.psd_probe_s": (probe_s, "s"),
            "compat.determinedness.self_s":
                (span_self["compat.determinedness"], "s"),
            "compat.rank2_check.busy_s": (busy["compat.rank2_check"], "s"),
            "ghz.detect.busy_s": (busy["ghz.detect"], "s"),
            "ghz.detect.self_s": (span_self["ghz.detect"], "s"),
            "ghz.detect.calls": (calls["ghz.detect"], "count"),
            "ghz.branch_product": (self.branches["product"], "count"),
            "ghz.branch_gapped": (self.branches["gapped"], "count"),
            "schmidt.split.busy_s": (busy["schmidt.split"], "s"),
            "schmidt.split.calls": (calls["schmidt.split"], "count"),
            "schmidt.env.busy_s": (busy["schmidt.env"], "s"),
            "schmidt.constraint.busy_s": (busy["schmidt.constraint"], "s"),
            "schmidt.purify.busy_s": (busy["schmidt.purify"], "s"),
            "rdm.ptr_tuple.calls": (calls["rdm.ptr_tuple"], "count"),
            "rdm.ptr_tuple.busy_s": (busy["rdm.ptr_tuple"], "s"),
            "construct.partner.busy_s": (busy["construct.partner"], "s"),
            "construct.partner.self_s": (span_self["construct.partner"], "s"),
            "qstate.density_checks": (calls["qstate.density_check"], "count"),
            "qstate.density_check_s": (busy["qstate.density_check"], "s"),
            "cli.load_state.busy_s": (busy["cli.load_state"], "s"),
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (layer_self[layer], "s")
        return out

    def layer_shares(self) -> dict:
        """Each layer's self time as a share of all operation time."""
        dur, self_t = self._durations()
        total = sum(d for d, name in zip(dur, self.names) if name == ROOT)
        shares = defaultdict(float)
        for name, t in zip(self.names, self_t):
            shares[name.split(".")[0]] += t / total if total else 0.0
        return {layer: round(share, 4) for layer, share in shares.items()}

    def write(self, path: str) -> None:
        """Spans as JSON lines: name, start, end, parent, kernel counts."""
        per_span = defaultdict(dict)
        for (idx, kname), (count, secs) in self.kernels.items():
            per_span[idx][kname] = [count, secs]
        with open(path, "w") as fh:
            for i, name in enumerate(self.names):
                rec = {"id": i, "name": name, "start": self.starts[i],
                       "end": self.ends[i], "parent": self.parents[i]}
                if i in per_span:
                    rec["kernels"] = per_span[i]
                fh.write(json.dumps(rec) + "\n")
