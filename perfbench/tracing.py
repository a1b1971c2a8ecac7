"""Span tracing of cqforms layer functions, installed from outside the package.

``Tracer.install`` replaces each target function with a recording wrapper at
every binding it can find: the defining module, every ``cqforms.*`` module
that copied the name with ``from .x import f`` (possibly under an alias),
and dict values such as ``suite.CHECKS``.  Methods are wrapped on their
class.  Spans are kept in memory as ``[name, start, end, parent]`` rows and
written out once, after the pass.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# (module, attribute path) pairs; a dotted path names a method on a class.
LAYERS = [
    ("repkit", "rep_build"),
    ("repkit", "verify_relations"),
    ("repkit", "spin_equivariance_check"),
    ("repkit", "rep_to_json"),
    ("repkit", "rep_from_json"),
    ("quartic", "expand_coeffs"),
    ("quartic", "eval_quartic"),
    ("quartic", "homaloidal_check"),
    ("quartic", "square_detect"),
    ("spmat", "int_det"),
    ("spmat", "symmetric_signature"),
    ("spmat", "SectorDecomposition.sectors"),
    ("symlie", "h_kernel"),
    ("symlie", "g_kernel_dim"),
    ("symlie", "g_contains"),
    ("symlie", "sharp_check"),
    ("symlie", "sharp_solution_dim"),
    ("zetafe", "gamma_constants"),
    ("zetafe", "gamma_pullback"),
    ("zetafe", "gamma_quartic"),
    ("zetafe", "fe_involution_check"),
    ("zetafe", "det_sv_identity_check"),
    ("zetafe", "zeta_quartic_mc"),
    ("classify", "classify"),
    ("cli", "main"),
]

# Per-check entry points of the suite; their inclusive time is reported.
CHECKS = [
    "check_relations",
    "check_degeneracy",
    "check_square",
    "check_homaloidal",
    "check_symmetry_dims",
    "check_sharp",
    "check_gamma_consistency",
    "check_constants",
    "check_classification",
]

TARGETS = LAYERS + [("suite", name) for name in CHECKS] + [("suite", "run_suite")]


def layer_name(module: str, attr: str) -> str:
    return f"{module}.{attr}"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, bool]] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return traced

    def _set(self, owner, key, value, is_dict):
        old = owner[key] if is_dict else getattr(owner, key)
        self._patches.append((owner, key, old, is_dict))
        if is_dict:
            owner[key] = value
        else:
            setattr(owner, key, value)

    def install(self, targets=TARGETS) -> None:
        """Wrap every target at every binding inside the ``cqforms`` package."""
        for module, _ in targets:
            importlib.import_module(f"cqforms.{module}")
        modules = [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == "cqforms" or name.startswith("cqforms."))
        ]
        for module, attr in targets:
            owner = sys.modules[f"cqforms.{module}"]
            *cls_path, fname = attr.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            orig = getattr(owner, fname)
            wrapper = self.wrap(layer_name(module, attr), orig)
            if cls_path:  # a method: the class attribute is the only binding
                self._set(owner, fname, wrapper, False)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._set(mod, key, wrapper, False)
                    elif isinstance(value, dict):
                        for dkey, dvalue in list(value.items()):
                            if dvalue is orig:
                                self._set(value, dkey, wrapper, True)

    def uninstall(self) -> None:
        for owner, key, old, is_dict in reversed(self._patches):
            if is_dict:
                owner[key] = old
            else:
                setattr(owner, key, old)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")


def self_times(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, total (inclusive) seconds, and self seconds.

    Self time is a span's duration minus the part of it covered by its
    child spans (the union of their intervals).
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out: dict[str, dict[str, float]] = {}
    for i, (name, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(i, ())):
            lo, hi = max(c_start, reach), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["total_s"] += end - start
        agg["self_s"] += end - start - covered
    return out
