"""In-memory spans around pdckit's layer entry points, for the traced run.

A span is wrapped around a module-level callable by rebinding the name in
every ``pdckit.*`` namespace that holds it: ``from .x import f`` binds ``f``
once per importing module, so rebinding only ``pdckit.x.f`` would miss most
callers.  Spans are recorded only while a root span (set-up or one timed
operation) is open, so calls made by the benchmark's own output checks are
not counted.  Nothing here runs unless the benchmark is started with
``--trace 1``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from collections import defaultdict


def _macs(counts, args, result):
    seeds, _xs, d1, d2 = args[:4]
    counts["protocol._batch_toeplitz.macs"] += seeds.shape[0] * d1 * d2


def _lbfgs(counts, args, result):
    counts["qexact.lbfgs.calls"] += 1
    counts["qexact.lbfgs.iters"] += int(result.nit)


# (span name, module, attribute path, record a span, count function).
# Several targets may share one span name.  ``wiretap.decode_batch`` is a
# closure, so the workloads wrap it on the code instances they build.
TARGETS = [
    ("protocol._batch_toeplitz", "pdckit.protocol", "_batch_toeplitz", True, _macs),
    ("protocol.monte_carlo", "pdckit.protocol", "monte_carlo", True, None),
    ("protocol.run_protocol1", "pdckit.protocol", "run_protocol1", True, None),
    ("protocol.run_protocol3", "pdckit.protocol", "run_protocol3", True, None),
    ("hashing.f_s", "pdckit.hashing", "f_s", True, None),
    ("hashing.g_sprime", "pdckit.hashing", "g_sprime", True, None),
    ("hashing.psi_s", "pdckit.hashing", "psi_s", True, None),
    ("gf.toeplitz_apply", "pdckit.gf", "toeplitz_apply", True, None),
    ("gf.toeplitz_matrix", "pdckit.gf", "toeplitz_matrix", True, None),
    ("wiretap.sample_batch", "pdckit.wiretap", "ClassicalChannelWc.sample_batch", True, None),
    ("wiretap.exact_leakage", "pdckit.wiretap", "exact_leakage", True, None),
    ("wiretap.theorem1_bound", "pdckit.wiretap", "theorem1_bound", True, None),
    ("wiretap.code_build", "pdckit.wiretap", "identity_code", True, None),
    ("wiretap.code_build", "pdckit.wiretap", "repetition_code", True, None),
    ("wiretap.code_build", "pdckit.wiretap", "random_linear_code", True, None),
    ("qexact._minimize_xi", "pdckit.qexact", "_minimize_xi", True, None),
    ("qexact._xi_value_and_grad", "pdckit.qexact", "_xi_value_and_grad", True, None),
    ("qexact._pgd_minimize", "pdckit.qexact", "_pgd_minimize", True, None),
    ("qexact.lbfgs", "pdckit.qexact", "minimize", False, _lbfgs),
    ("identities.check_identities", "pdckit.identities", "check_identities", True, None),
    ("bounds.eps_E_bound", "pdckit.bounds", "eps_E_bound", True, None),
    ("bounds.eps_C_bound", "pdckit.bounds", "eps_C_bound", True, None),
    ("bounds.m_hat_lengths", "pdckit.bounds", "m_hat_lengths", True, None),
    ("dists.convolve", "pdckit.dists", "convolve", True, None),
    ("dists.sibson_mutual_info", "pdckit.dists", "sibson_mutual_info", True, None),
    ("estimation.reconstruct", "pdckit.estimation", "reconstruct", True, None),
    ("estimation.estimate", "pdckit.estimation", "estimate", True, None),
    ("cli.main", "pdckit.cli", "main", True, None),
]

# Spans whose call count is reported next to their self time.
COUNTED = [
    "protocol._batch_toeplitz", "protocol.run_protocol1", "protocol.run_protocol3",
    "hashing.f_s", "hashing.g_sprime", "hashing.psi_s",
    "gf.toeplitz_apply", "gf.toeplitz_matrix", "wiretap.decode_batch",
    "qexact._minimize_xi", "qexact._xi_value_and_grad", "qexact._pgd_minimize",
    "identities.check_identities", "bounds.eps_E_bound", "bounds.eps_C_bound",
    "bounds.m_hat_lengths", "dists.convolve", "dists.sibson_mutual_info",
    "estimation.reconstruct", "estimation.estimate", "cli.main",
]
SELF_TIMED = COUNTED + [
    "protocol.monte_carlo", "wiretap.sample_batch", "wiretap.exact_leakage",
    "wiretap.theorem1_bound", "wiretap.code_build",
]


class Tracer:
    """Records spans as [name, start, end, parent index] in one list."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def root(self, name: str):
        """Open a root span; yields its record, whose end is set on exit."""
        idx = self._open(name)
        try:
            yield self.spans[idx]
        finally:
            self._close(idx)

    def wrap(self, name: str, fn, count=None, span: bool = True):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.stack:
                return fn(*args, **kwargs)
            idx = tracer._open(name) if span else None
            try:
                result = fn(*args, **kwargs)
            finally:
                if span:
                    tracer._close(idx)
            if count is not None:
                count(tracer.counts, args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target in TARGETS; absent targets are listed, not raised."""
        for name, module_name, path, span, count in TARGETS:
            try:
                module = importlib.import_module(module_name)
                owner_name, _, attr = path.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                orig = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{path}")
                continue
            wrapped = self.wrap(name, orig, count, span)
            if owner_name:
                setattr(owner, attr, wrapped)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] != "pdckit" or mod is None:
                    continue
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)

    def wrap_decode_batch(self, code, n_codewords: int) -> None:
        """Wrap one code instance's decode_batch closure, counting scored pairs."""

        def count(counts, args, result):
            rows = len(result)
            counts["wiretap.decode_batch.rows"] += rows
            counts["wiretap.decode_batch.scored"] += rows * n_codewords

        code.decode_batch = self.wrap("wiretap.decode_batch", code.decode_batch, count)

    def self_times(self) -> tuple[dict[str, int], dict[str, float]]:
        """Calls and summed self time (duration minus direct children) per name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        for idx, (name, start, end, _parent) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child[idx]
        return calls, self_s

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric except the set-up and op totals."""
        calls, self_s = self.self_times()
        out: dict[str, float] = {}
        for name in COUNTED:
            out[f"{name}.calls"] = calls.get(name, 0)
        for name in SELF_TIMED:
            out[f"{name}.self_s"] = self_s.get(name, 0.0)
        for key in ("protocol._batch_toeplitz.macs", "wiretap.decode_batch.rows",
                    "wiretap.decode_batch.scored", "qexact.lbfgs.iters"):
            out[key] = self.counts.get(key, 0)
        lbfgs = self.counts.get("qexact.lbfgs.calls", 0)
        out["qexact.pgd_fallback_ratio"] = (
            calls.get("qexact._pgd_minimize", 0) / lbfgs if lbfgs else 0.0)
        out["bounds.evals_per_inversion"] = self._evals_per_inversion()
        return out

    def _evals_per_inversion(self) -> float:
        """Bound evaluations made inside m_hat_lengths, per bisection (two per call)."""
        evals = 0
        inversions = 0
        for name, _start, _end, parent in self.spans:
            if name == "bounds.m_hat_lengths":
                inversions += 2
            elif name in ("bounds.eps_E_bound", "bounds.eps_C_bound") and parent >= 0 \
                    and self.spans[parent][0] == "bounds.m_hat_lengths":
                evals += 1
        return evals / inversions if inversions else 0.0

    def idle_targets(self) -> list[str]:
        """Target spans that recorded no call, plus targets that no longer exist."""
        calls, _ = self.self_times()
        names = {t[0] for t in TARGETS if t[3]} | {"wiretap.decode_batch"}
        idle = sorted(n for n in names if calls.get(n, 0) == 0)
        if self.counts.get("qexact.lbfgs.calls", 0) == 0:
            idle.append("qexact.lbfgs")
        return idle + [f"{m} (missing)" for m in self.missing]

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh)
