"""Spans and counters around plrmat's public functions, installed from outside.

A traced function is replaced by a wrapper in its defining module (or class)
and in every loaded ``plrmat`` module that imported it by name, so calls made
through ``from .reduction import rho`` are seen too.  Spans record name,
start, end and parent; they stay in memory until ``write``.  Counters only
count, for functions called too often to afford a span.  Nothing in the
program is edited: ``uninstall`` puts every original back.
"""

from __future__ import annotations

import importlib
import json
import sys
from time import perf_counter

# (metric prefix, module, attribute); "Class.method" patches the class
SPANS = (
    ("bialgebra_double.validate_setup", "plrmat.bialgebra_double", "validate_setup"),
    ("lie_core.jacobi_residual", "plrmat.lie_core", "LieAlgebra.jacobi_residual"),
    ("reduction.rho", "plrmat.reduction", "rho"),
    ("reduction.constraint_matrix", "plrmat.reduction", "constraint_matrix"),
    ("reduction.sample_hstar_points", "plrmat.reduction", "sample_hstar_points"),
    ("reduction.dirac_bracket", "plrmat.reduction", "dirac_bracket"),
    ("reduction.native_hstar_bracket", "plrmat.reduction", "native_hstar_bracket"),
    ("reduction.rho_via_n", "plrmat.reduction", "rho_via_n"),
    (
        "reduction.characterization_identity_residual",
        "plrmat.reduction",
        "characterization_identity_residual",
    ),
    ("dual_group.gradients", "plrmat.dual_group", "gradients"),
    ("verify.plcdybe_residual", "plrmat.verify", "plcdybe_residual"),
    ("verify.triangularity_check", "plrmat.verify", "triangularity_check"),
    ("verify.equivariance_residual", "plrmat.verify", "equivariance_residual"),
    ("verify.q_jacobi_residual", "plrmat.verify", "q_jacobi_residual"),
    ("verify.p_jacobi_residual", "plrmat.verify", "p_jacobi_residual"),
    ("specio.dumps_canonical", "plrmat.specio", "dumps_canonical"),
)

COUNTERS = (
    ("bialgebra_double.component", "plrmat.bialgebra_double", "ReductionSetup.M_component"),
    ("bialgebra_double.component", "plrmat.bialgebra_double", "ReductionSetup.Mstar_component"),
    ("bialgebra_double.component", "plrmat.bialgebra_double", "ReductionSetup.Hstar_component"),
    ("dual_group.translate", "plrmat.dual_group", "GroupWord.left_mul"),
    ("dual_group.translate", "plrmat.dual_group", "GroupWord.right_mul"),
    ("numpy.solve", "numpy.linalg", "solve"),
    ("numpy.vstack", "numpy", "vstack"),
    ("scipy.expm", "scipy.linalg", "expm"),
)

# rho evaluations under these spans are finite-difference evaluations
FD_PARENTS = ("verify.plcdybe_residual", "verify.equivariance_residual")
SAMPLE = "reduction.sample_hstar_points"


class Tracer:
    """Collects spans and counts while installed."""

    def __init__(self):
        # span record: [name, start, end, parent index or -1, time covered by children]
        self.spans = []
        self.counts = {}
        self.accepted = 0  # points returned by sample_hstar_points
        self._stack = []
        self._open = set()
        self._patches = []

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn under a span; nested calls of the same name are not split out."""
        if name in self._open:
            return fn(*args, **kwargs)
        spans, stack = self.spans, self._stack
        parent = stack[-1] if stack else -1
        rec = [name, 0.0, 0.0, parent, 0.0]
        stack.append(len(spans))
        spans.append(rec)
        self._open.add(name)
        rec[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = perf_counter()
            stack.pop()
            self._open.discard(name)
            if parent >= 0:
                spans[parent][4] += rec[2] - rec[1]

    def _span_wrapper(self, name, fn):
        def wrapper(*args, **kwargs):
            out = self.span(name, fn, *args, **kwargs)
            if name == SAMPLE:
                self.accepted += len(out)
            return out

        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        for name, module, attr in SPANS:
            self._patch(module, attr, lambda fn, n=name: self._span_wrapper(n, fn))
        for name, module, attr in COUNTERS:
            self._patch(module, attr, lambda fn, n=name: self._count_wrapper(n, fn))

    def _patch(self, module: str, attr: str, make):
        owner = importlib.import_module(module)
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name)
            holders = [owner]
        else:
            holders = [owner] + [
                m for key, m in sorted(sys.modules.items())
                if key.startswith("plrmat") and m is not owner
            ]
        original = getattr(owner, attr)
        wrapper = make(original)
        for holder in holders:
            if holder.__dict__.get(attr) is original:
                self._patches.append((holder, attr, original))
                setattr(holder, attr, wrapper)

    def uninstall(self):
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()

    def metrics(self) -> dict:
        """Per-layer totals: calls, inclusive seconds and self seconds per span name."""
        names = [name for name, _, _ in SPANS]
        calls = dict.fromkeys(names, 0)
        total = dict.fromkeys(names, 0.0)
        self_s = dict.fromkeys(names, 0.0)
        fd_rho = sampled = 0
        for name, start, end, parent, child in self.spans:
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + end - start
            self_s[name] = self_s.get(name, 0.0) + end - start - child
            if name == "reduction.rho" and self._has_ancestor(parent, FD_PARENTS):
                fd_rho += 1
            if name == "reduction.constraint_matrix" and parent >= 0 and self.spans[parent][0] == SAMPLE:
                sampled += 1
        return {
            "calls": calls,
            "s": total,
            "self_s": self_s,
            "counts": dict(self.counts),
            "fd_rho_evals": fd_rho,
            "sample_accept_ratio": self.accepted / sampled if sampled else 0.0,
        }

    def _has_ancestor(self, idx: int, names) -> bool:
        while idx >= 0:
            rec = self.spans[idx]
            if rec[0] in names:
                return True
            idx = rec[3]
        return False

    def write(self, path):
        """Spans as JSON lines (times relative to the first span), then the counts."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for idx, (name, start, end, parent, child) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": idx, "name": name, "parent": parent,
                    "start": start - t0, "end": end - t0, "self": end - start - child,
                }) + "\n")
            fh.write(json.dumps({"counts": self.counts, "sample_accepted": self.accepted}) + "\n")
