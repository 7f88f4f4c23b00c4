"""Spans around calls into the solver's layers, recorded from outside.

The solver has no tracing of its own, so the tracer replaces module
attributes with timing wrappers.  A wrapper is installed wherever the name is
looked up: ``game.classify`` is one attribute, called as ``game.classify`` by
``dynamics``, ``finite`` and ``cli``, so one wrapper covers them all; ``iqp``
imports ``cholesky`` and ``sym_eigen`` by name, so ``iqp.cholesky`` gets its
own wrapper that records under the same span name ``linalg.cholesky``.

Each span records its name, start, end, parent span and the id of the solve
it belongs to (-1 outside solves).  Spans stay in memory until ``dump``.

Only the entry points in ``SPANS`` are wrapped.  The validation helpers
(``linalg.as_matrix``, ``require_symmetric``, ...) and ``game``'s internal
builders are left bare on purpose: they run on every best response, and their
cost is meant to show up in the caller's self time.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

from icqs import bounds, cli, dynamics, finite, game, instgen, iqp, linalg

LAYERS = {
    "cli": cli,
    "dynamics": dynamics,
    "iqp": iqp,
    "game": game,
    "finite": finite,
    "bounds": bounds,
    "linalg": linalg,
    "instgen": instgen,
}

SPANS = {
    "cli": ["solve_pipeline"],
    "dynamics": ["run_br", "cycle_sets", "termination_radius", "divergence_radius"],
    "game": ["classify", "best_response", "objective", "make_instance"],
    "iqp": ["integer_min", "continuous_min", "prox_bound", "guarantee_prox"],
    "finite": ["restrict", "solve_equilibrium", "verify_delta"],
    "bounds": [
        "guarantee_pack",
        "l_bound_theoretical",
        "delta_a_priori",
        "delta_a_posteriori",
        "cycle_diameter",
    ],
    "linalg": ["cholesky", "sym_eigen", "singular_values", "solve_spd"],
    "instgen": ["gen_pricing", "gen_random", "gen_negative"],
}
# SplitMix64 draws are how the benchmark's own generator uses instgen.
SPLITMIX_METHODS = ("uniform", "randint")


class Tracer:
    """Install with ``install()``, remove with ``uninstall()``.

    ``spans`` holds one tuple per call:
    (name, start, end, parent index or -1, solve id, outermost of its name).
    ``hooks`` maps a span name to ``f(args, kwargs, result)``, run after the
    span has closed, for counts read off a call's arguments or result.
    """

    def __init__(self, hooks=None):
        self.spans: list = []
        self.solve_id = -1
        self.hooks = dict(hooks or {})
        self._stack: list[int] = []
        self._active: dict[str, int] = defaultdict(int)
        self._patches: list = []

    def _wrap(self, name: str, fn):
        spans, stack, active, hook = self.spans, self._stack, self._active, self.hooks.get(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            outermost = active[name] == 0
            spans.append(None)
            stack.append(index)
            active[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                active[name] -= 1
                stack.pop()
                spans[index] = (name, start, end, parent, self.solve_id, outermost)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _patch(self, owner, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original))

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        targets = {}
        for layer, names in SPANS.items():
            for fname in names:
                targets[id(getattr(LAYERS[layer], fname))] = f"{layer}.{fname}"
        # patch every layer namespace that holds one of the targets, so names
        # imported with ``from .linalg import cholesky`` are covered too
        for module in LAYERS.values():
            for attr, value in list(vars(module).items()):
                name = targets.get(id(value))
                if name is not None:
                    self._patch(module, attr, name)
        for method in SPLITMIX_METHODS:
            self._patch(instgen.SplitMix64, method, f"instgen.SplitMix64.{method}")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds (outermost spans only) and
        self seconds (duration minus the time covered by child spans)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for i, (name, start, end, _, _, outermost) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            if outermost:
                entry["total_s"] += end - start
            entry["self_s"] += end - start - child[i]
        return dict(out)

    def layer_seconds(self) -> dict[str, float]:
        """Time inside each layer (the first component of a span name),
        counting only spans with no ancestor in the same layer."""
        out: dict[str, float] = defaultdict(float)
        inside: list[frozenset] = []
        for name, start, end, parent, _, _ in self.spans:
            layer = name.split(".", 1)[0]
            above = inside[parent] if parent >= 0 else frozenset()
            if layer not in above:
                out[layer] += end - start
                above = above | {layer}
            inside.append(above)
        return dict(out)

    def children_seconds(self, parent_name: str) -> dict[str, float]:
        """Time in the direct children of ``parent_name`` spans, per child name."""
        out: dict[str, float] = defaultdict(float)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0 and self.spans[parent][0] == parent_name:
                out[name] += end - start
        return dict(out)

    def dump(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "solve", "outermost"],
                    "names": names,
                    "spans": [
                        [index[n], s, e, p, sid, int(o)] for n, s, e, p, sid, o in self.spans
                    ],
                },
                fh,
                separators=(",", ":"),
            )
