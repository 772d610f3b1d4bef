"""Spans around the package's layers, recorded from outside the package.

``Tracer.install`` replaces each traced function by a wrapper in every
``casorati`` module namespace that binds it (``verify``, ``rmaps``, ``cli``
and ``catalog`` import by name, so patching only the defining module would
miss their calls), and each traced method on its class. A span holds its
name, start, end, parent span and request id; spans stay in memory until
``write`` and self time is derived from them afterwards.

``extremum`` and ``spaceforms.validate_against_chart`` lie on no workload
and are not traced.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

import casorati

# Layer name -> (defining module, attribute path). Each layer is one module.
LAYERS = {
    "measures.grid_extrema": ("casorati.measures", "grid_extrema"),
    "measures.delta_casorati": ("casorati.measures", "delta_casorati"),
    "measures.diagnose_equality": ("casorati.measures", "diagnose_equality"),
    "rmaps.map_at_point": ("casorati.rmaps", "map_at_point"),
    "rmaps.SmoothMap.jacobian": ("casorati.rmaps", "SmoothMap.jacobian"),
    "rmaps.second_fundamental_form": ("casorati.rmaps", "second_fundamental_form"),
    "rmaps.oneill_T": ("casorati.rmaps", "oneill_T"),
    "rmaps.oneill_A": ("casorati.rmaps", "oneill_A"),
    "rmaps.gauss_map_scalars": ("casorati.rmaps", "gauss_map_scalars"),
    "rmaps.gauss_submersion_vertical": ("casorati.rmaps", "gauss_submersion_vertical"),
    "rmaps.gauss_submersion_horizontal": ("casorati.rmaps", "gauss_submersion_horizontal"),
    "curvature.riemann_at": ("casorati.curvature", "riemann_at"),
    "curvature.christoffel": ("casorati.curvature", "christoffel"),
    "curvature.scalar_on_subspace": ("casorati.curvature", "scalar_on_subspace"),
    "curvature.ChartMetric.metric_at": ("casorati.curvature", "ChartMetric.metric_at"),
    "verify.verify_synthetic": ("casorati.verify", "verify_synthetic"),
    # Traced so that cli.main's self time is parsing and JSON only.
    "verify.verify_geometry": ("casorati.verify", "verify_geometry"),
    "verify.classify_invariance": ("casorati.verify", "classify_invariance"),
    "verify.xi_position": ("casorati.verify", "xi_position"),
    "framecore.gram_schmidt": ("casorati.framecore", "gram_schmidt"),
    "framecore.structure_norm_squared": ("casorati.framecore", "structure_norm_squared"),
    "catalog.CatalogEntry.instantiate": ("casorati.catalog", "CatalogEntry.instantiate"),
    "cli.main": ("casorati.cli", "main"),
}
EXTREMUM_LAYER = "measures.delta_casorati"


def is_closed_form(coeffs) -> bool:
    """A closed-form optimum exists for the A role and for a single normal."""
    return coeffs.role == casorati.ROLE_A or coeffs.normal_count == 1


class Tracer:
    """Records spans while installed (``with tracer:``); the caller advances ``request``."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        # span id -> (closed form?, iterations, starts, certified, converged)
        self.extremum: dict[int, tuple[bool, int, int, bool | None, bool]] = {}
        self.request = 0
        self._stack = [0]
        self._next_id = 1
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        extremum = self.extremum if name == EXTREMUM_LAYER else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, self.request, name, start, end))
            if extremum is not None:
                coeffs = args[0] if args else kwargs["coeffs"]
                extremum[sid] = (is_closed_form(coeffs), result.iterations, result.starts,
                                 result.certified, result.converged)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "casorati" or n.startswith("casorati."))]
        for name, (module_name, path) in LAYERS.items():
            owner = sys.modules[module_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            if outer:  # a method: patch the class
                self._patch(owner, attr, original, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapper)

    def _patch(self, owner, key: str, original, wrapper) -> None:
        self._patches.append((owner, key, original))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def layer_metrics(self, ops: int) -> dict[str, float]:
        """Per op: calls and self milliseconds of each layer, plus the extremum's counters."""
        child = defaultdict(float)
        for _, parent, _, _, start, end in self.spans:
            child[parent] += end - start
        calls = dict.fromkeys(LAYERS, 0)
        self_s = dict.fromkeys(LAYERS, 0.0)
        extremum_self = {True: 0.0, False: 0.0}
        for sid, _, _, name, start, end in self.spans:
            own = end - start - child[sid]
            calls[name] += 1
            self_s[name] += own
            if sid in self.extremum:
                extremum_self[self.extremum[sid][0]] += own
        metrics = {}
        for name in LAYERS:
            metrics[f"{name}.calls"] = calls[name] / ops
            metrics[f"{name}.self_ms"] = 1e3 * self_s[name] / ops
        records = list(self.extremum.values())
        n = max(len(records), 1)
        metrics[f"{EXTREMUM_LAYER}.self_ms.closed"] = 1e3 * extremum_self[True] / ops
        metrics[f"{EXTREMUM_LAYER}.self_ms.general"] = 1e3 * extremum_self[False] / ops
        metrics[f"{EXTREMUM_LAYER}.iterations"] = sum(r[1] for r in records) / n
        metrics[f"{EXTREMUM_LAYER}.starts"] = sum(r[2] for r in records) / n
        metrics[f"{EXTREMUM_LAYER}.certified_ratio"] = sum(r[3] is True for r in records) / n
        metrics[f"{EXTREMUM_LAYER}.converged_ratio"] = sum(bool(r[4]) for r in records) / n
        return metrics

    def write(self, path) -> None:
        """One JSON object per span, in the order the spans ended."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, request, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "request": request,
                                     "name": name, "start": start, "end": end}) + "\n")
