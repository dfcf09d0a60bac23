"""Span tracing of ssetkit's public layer functions, from outside the package.

The tracer wraps each function named in LAYERS in every ``ssetkit`` module
namespace that binds it, so calls the package makes internally (for example
``checks.pi0`` from inside ``revalidate_witness``) are recorded too.  A span is
(name, start, end, parent span, op id).  Spans stay in memory until the run
ends; ``self_ms`` is a span's duration minus the durations of its direct
children, so the self times of all spans, including the root span of each
operation, add up to the traced wall time exactly.  The instance label
(``Tracer.instance``) names the input a span worked on: a ladder map, a
campaign trial as ``seed:trial``, or a CLI command line.
"""

from __future__ import annotations

import importlib
import json
import time
from pathlib import Path

# (defining module, public function): the layers the benchmark reports.
LAYERS = (
    ("harness", "gen_morphism"),
    ("harness", "evaluate_instance"),
    ("core", "validate"),
    ("core", "vertex_table"),
    ("maps", "validate_map"),
    ("maps", "classify"),
    ("limits", "pullback"),
    ("limits", "diagonal"),
    ("components", "pi0"),
    ("components", "trivial_covering_check"),
    ("components", "injection_cartesian_check"),
    ("checks", "covering_check"),
    ("checks", "kan_check"),
    ("checks", "separable_via_lifting"),
    ("checks", "separable_direct"),
    ("checks", "revalidate_witness"),
    ("standard", "build_standard"),
    ("groupoids", "nerve"),
    ("io", "load_json"),
    ("io", "map_from_doc"),
    ("io", "dumps_canonical"),
    ("cli", "main"),
)

MODULES = (
    "ssetkit",
    "ssetkit.core",
    "ssetkit.standard",
    "ssetkit.maps",
    "ssetkit.limits",
    "ssetkit.components",
    "ssetkit.report",
    "ssetkit.checks",
    "ssetkit.groupoids",
    "ssetkit.io",
    "ssetkit.harness",
    "ssetkit.cli",
)

ROOT = "op"


def layer_name(module: str, fn: str) -> str:
    return f"{module}.{fn}"


class Tracer:
    """Records spans while installed.

    ``before[name](args)`` runs before a traced call opens its span (it may
    set ``instance``); ``after[name](result)`` runs after the span closes,
    inside its own span (``bench.hook``) with recording paused, so that its
    cost and its own calls into ssetkit are kept out of the layer numbers.
    """

    def __init__(self, before: dict | None = None, after: dict | None = None):
        self.spans: list[list] = []
        self.before = dict(before or {})
        self.after = dict(after or {})
        self.instance = ""
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self.op = -1
        modules = [importlib.import_module(m) for m in MODULES]
        originals = {}
        for mod_name, fn in LAYERS:
            originals[getattr(importlib.import_module(f"ssetkit.{mod_name}"), fn)] = (
                layer_name(mod_name, fn)
            )
        self._wrappers = {id(orig): self._wrap(name, orig) for orig, name in originals.items()}
        self._paused = False
        for mod in modules:
            for attr, value in vars(mod).items():
                if id(value) in self._wrappers:
                    self._patches.append((mod, attr, value))

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op, self.instance])
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self._stack.pop()
        self.spans[sid][2] = time.perf_counter()

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            if name in self.before:
                self.before[name](args)
            sid = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            hook = self.after.get(name)
            if hook is not None:
                hid = self._open("bench.hook")
                self._paused = True
                try:
                    hook(result)
                finally:
                    self._paused = False
                    self._close(hid)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for mod, attr, orig in self._patches:
            setattr(mod, attr, self._wrappers[id(orig)])

    def uninstall(self) -> None:
        for mod, attr, orig in self._patches:
            setattr(mod, attr, orig)

    def run_op(self, op_id: int, fn):
        """Run fn() as one traced operation under a root span."""
        self.op = op_id
        self.instance = ""
        self.install()
        sid = self._open(ROOT)
        try:
            return fn()
        finally:
            self._close(sid)
            self.uninstall()

    def _child_seconds(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return child

    def summary(self, group=lambda instance: "") -> dict[str, dict[str, dict[str, float]]]:
        """Per group of instances, per span name: calls, inclusive and self seconds."""
        child = self._child_seconds()
        out: dict[str, dict[str, dict[str, float]]] = {}
        for sid, (name, start, end, _, _, instance) in enumerate(self.spans):
            by_name = out.setdefault(group(instance), {})
            agg = by_name.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["incl_s"] += end - start
            agg["self_s"] += end - start - child[sid]
        return out

    def instance_seconds(self) -> dict[str, float]:
        """Per instance label: the self times of its layer spans, per operation.

        Root spans (glue code) and hooks are left out.
        """
        child = self._child_seconds()
        total: dict[str, float] = {}
        ops: dict[str, set] = {}
        for sid, (name, start, end, _, op, instance) in enumerate(self.spans):
            if name not in (ROOT, "bench.hook"):
                total[instance] = total.get(instance, 0.0) + end - start - child[sid]
                ops.setdefault(instance, set()).add(op)
        return {k: v / len(ops[k]) for k, v in total.items()}

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines: id, name, start, end, parent, op, instance."""
        with open(path, "w") as fh:
            for sid, span in enumerate(self.spans):
                fh.write(json.dumps([sid, *span]) + "\n")
