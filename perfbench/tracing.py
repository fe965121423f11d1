"""Spans around the package's public functions, installed from outside.

Each wrapped function is rebound in its defining module and in every loaded
``dualchain`` module that imported it by name, so calls made through any of
those names are seen.  Methods are rebound on their class.  A name that no
longer exists is skipped with a note; a name that is never called reports
zero calls.  Spans stay in memory until ``write``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter


def _steps(counts, result, exc):
    if exc is None:
        counts["steps"] += result.x.shape[0] - 1


def _hessian_bytes(counts, result, exc):
    # the (M, 4n, 4n) element blocks behind the (M, 2n, 2n) node blocks
    if exc is None:
        F, b, _ = result.diag.shape
        counts["bytes"] = max(counts["bytes"], F * (2 * b) ** 2 * 8)


def _cholesky_failed(counts, result, exc):
    counts["failed"] += exc is not None or result is None


def _newton(counts, result, exc):
    if exc is None:
        counts["iterations"] += result.iterations
    counts["failed"] += exc is not None or not result.converged


# (module, attribute path, per-call counter hook); eval_force runs four times
# per RK4 step, so it is counted and timed in aggregate rather than as spans
TARGETS = (
    ("dualchain.chain_model", "eval_force", "aggregate"),
    ("dualchain.primal_solver", "integrate_primal", _steps),
    ("dualchain.dual_action", "base_from_primal", None),
    ("dualchain.dual_action", "action", None),
    ("dualchain.dual_action", "gradient", None),
    ("dualchain.dual_action", "hessian", _hessian_bytes),
    ("dualchain.dual_action", "dtp_map", None),
    ("dualchain.dual_action", "ellipticity_check", None),
    ("dualchain.dual_action", "BlockTridiagonal.neg_cholesky", _cholesky_failed),
    ("dualchain.dual_action", "BlockTridiagonal.inertia", None),
    ("dualchain.dual_solver", "solve_dual", _newton),
    ("dualchain.dual_solver", "recover_primal", None),
    ("dualchain.dual_solver", "verify", None),
    ("dualchain.periodic_search", "solve_periodic", _newton),
    ("dualchain.periodic_search", "recover_periodic_orbit", None),
    ("dualchain.cli", "load_config", None),
    ("dualchain.cli", "write_trajectory", None),
    ("dualchain.cli", "write_dual_field", None),
    ("dualchain.cli", "run_one", None),
)


def layer_name(module: str, path: str) -> str:
    return f"{module.rsplit('.', 1)[-1]}.{path}"


class Tracer:
    """Installs the wrappers on entry and restores the originals on exit."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, defaultdict] = defaultdict(lambda: defaultdict(int))
        self.aggregate: dict[str, list] = defaultdict(lambda: [0, 0.0])
        self.notes: list[str] = []
        self.scenario = None
        self._stack: list[dict] = []
        self._undo: list[tuple] = []

    def __enter__(self):
        for module, path, hook in TARGETS:
            self._install(module, path, hook)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        return False

    def _install(self, module, path, hook):
        name = layer_name(module, path)
        try:
            owner = importlib.import_module(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if outer else getattr(owner, attr)
        except (ImportError, AttributeError, KeyError):
            self.notes.append(f"{module}.{path} not found; not traced")
            return
        wrapper = self._wrap(name, original, hook)
        if outer:
            self._rebind(owner, attr, original, wrapper)
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "dualchain" or mod_name.startswith("dualchain."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, original, wrapper)

    def _rebind(self, owner, attr, original, wrapper):
        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrap(self, name, fn, hook):
        tracer = self
        if hook == "aggregate":
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                start = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = perf_counter() - start
                    agg = tracer.aggregate[name]
                    agg[0] += 1
                    agg[1] += elapsed
                    if tracer._stack:
                        tracer._stack[-1]["child_s"] += elapsed
            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "scenario": tracer.scenario,
                    "parent": tracer._stack[-1]["id"] if tracer._stack else None,
                    "id": len(tracer.spans), "child_s": 0.0}
            tracer.spans.append(span)
            tracer._stack.append(span)
            result, exc = None, None
            span["start"] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as err:
                exc = err
                raise
            finally:
                span["end"] = perf_counter()
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1]["child_s"] += span["end"] - span["start"]
                if hook is not None:
                    hook(tracer.counts[name], result, exc)
        return traced

    def totals(self) -> dict:
        """{layer: {"calls", "s", "self_s", counters...}} over every span."""
        out = {layer_name(m, p): {"calls": 0, "s": 0.0, "self_s": 0.0}
               for m, p, _ in TARGETS}
        for name, (calls, seconds) in self.aggregate.items():
            out[name].update(calls=calls, s=seconds, self_s=seconds)
        for span in self.spans:
            row = out[span["name"]]
            duration = span["end"] - span["start"]
            row["calls"] += 1
            row["s"] += duration
            row["self_s"] += duration - span["child_s"]
        for name, counters in self.counts.items():
            out[name].update(counters)
        return out

    def by_scenario(self, name: str) -> dict:
        out: dict = defaultdict(float)
        for span in self.spans:
            if span["name"] == name:
                out[span["scenario"]] += span["end"] - span["start"]
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
