"""Spans around the library's public calls, recorded from outside the package.

``Tracer.install()`` replaces each call in ``TRACED`` with a wrapper that
records a span (name, start, end, parent) and ``uninstall()`` puts every
original object back.  ``search.py`` and ``config.py`` import ``build_fspa``
and ``build_env_model`` by name, so those bindings are patched as well; the
``ProductMdp`` and ``TransitionTable`` bindings need no such care because
their methods are patched on the class itself.

``ProductMdp.product_step`` runs ~10^5 times per Q-learning solve, so it is
not a span of its own: its calls and time are added to the enclosing span.
Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

# (module, attribute path, span name).  A dotted attribute is a method
# patched on its class.
TRACED = (
    ("tlexplain.config", "load_config", "config.load"),
    ("tlexplain.product", "build_env_model", "envs.model"),
    ("tlexplain.config", "build_env_model", "envs.model"),
    ("tlexplain.formula", "enumerate_all", "formula.enumerate"),
    ("tlexplain.fspa", "build_fspa", "fspa.build"),
    ("tlexplain.search", "build_fspa", "fspa.build"),
    ("tlexplain.product", "ProductMdp.__init__", "product.mdp"),
    ("tlexplain.product", "TransitionTable.__init__", "product.table"),
    ("tlexplain.product", "ProductMdp.average_return", "product.return"),
    ("tlexplain.rl", "soft_value_iteration", "rl.vi"),
    ("tlexplain.rl", "q_learning", "rl.qlearn"),
    ("tlexplain.rl", "select_replicate", "metrics.select"),
    ("tlexplain.metrics", "utility", "metrics.utility"),
    ("tlexplain.metrics", "build_sample", "metrics.sample"),
    ("tlexplain.search", "Evaluator.evaluate", "search.evaluate"),
)
STEP = ("tlexplain.product", "ProductMdp.product_step")


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    end: float = 0.0
    child_s: float = 0.0          # time covered by child spans and steps
    steps: int = 0                # product_step calls made directly inside
    step_s: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


def _owner_and_attr(module: str, path: str):
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        span = self.spans[idx]
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            self.spans[span.parent].child_s += span.duration

    def _wrap(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if name == "envs.model":
                tracer.spans[idx].attrs.update(states=len(out.states),
                                               branches=len(out.branch_prob))
            return out
        return traced

    def _wrap_evaluate(self, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(evaluator, canon):
            # a key enters the cache exactly once, on a miss
            before = len(evaluator.cache)
            idx = tracer.open("search.evaluate")
            try:
                out = fn(evaluator, canon)
            finally:
                tracer.close(idx)
            tracer.spans[idx].attrs.update(key=out.key, filtered=bool(out.filtered),
                                           hit=len(evaluator.cache) == before)
            return out
        return traced

    def _wrap_step(self, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                span = tracer.spans[tracer._stack[-1]]
                span.steps += 1
                span.step_s += dt
                span.child_s += dt
        return traced

    # -- install / uninstall -----------------------------------------------

    def install(self) -> "Tracer":
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module, path, name in TRACED:
            owner, attr = _owner_and_attr(module, path)
            original = owner.__dict__[attr]
            wrapped = (self._wrap_evaluate(original) if name == "search.evaluate"
                       else self._wrap(original, name))
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapped)
        owner, attr = _owner_and_attr(*STEP)
        original = owner.__dict__[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self._wrap_step(original))
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- output ------------------------------------------------------------

    def key_of(self, idx: int) -> str | None:
        """The rendered key of the candidate a span belongs to, if any."""
        i = idx
        while i is not None:
            span = self.spans[i]
            if span.name == "search.evaluate":
                return span.attrs.get("key")
            i = span.parent
        return None

    def dump(self, path: Path) -> None:
        rows = [{"id": i, "name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "key": self.key_of(i), "self_s": s.self_s,
                 "steps": s.steps, "step_s": s.step_s, **s.attrs}
                for i, s in enumerate(self.spans)]
        path.write_text(json.dumps(rows) + "\n")
