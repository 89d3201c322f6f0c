"""Spans around the esln package's own calls, for the per-layer run.

``instrument(tracer)`` replaces, for the length of a ``with`` block, the
module attributes that ``build_pipeline`` and ``run_ensemble`` look up at call
time with wrappers that record a span around each call.  The package source
is untouched and every number is computed by the program itself, so a traced
run gives the same bits as an untraced one.  A hook whose attribute a
revision of the package lacks is skipped: its spans are then absent.

Spans nest through one stack, so trace single-threaded (workers = 1) runs
only.  Inline work of a traced function is its span's self time, its
duration less its children's.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

# (module, attribute, span name, merge).  With ``merge`` a call that directly
# follows a span of the same name under the same parent extends that span, so
# the per-trajectory draw loop is one span per batch, loop overhead included.
HOOKS = (
    ("esln.ensemble", "diagonalize_bath", "model.diagonalize", False),
    ("esln.ensemble", "build_covariance", "noise.covariance", False),
    ("esln.noise", "_mode_values", "kernels.eval", False),
    ("esln.noise", "site_kernel", "kernels.eval", False),
    ("esln.ensemble", "factorize", "noise.factorize", False),
    ("esln.noise", "takagi", "noise.takagi", False),
    ("esln.ensemble", "_run_batch", "ensemble.batch", False),
    ("esln.ensemble", "derive_seed", "noise.draw", True),
    ("esln.ensemble", "draw_normal", "noise.draw", True),
    ("esln.ensemble", "equilibrate_batch", "propagate.imag", False),
    ("esln.ensemble", "evolve_batch", "propagate.real", False),
    ("esln.ensemble", "_pairwise_stats", "ensemble.reduce", False),
)

# Counts taken from a hooked call's return value.
COUNTERS = {
    "site_kernel": lambda out: {"kernels.evals": out.size},
    "equilibrate_batch": lambda out: {"propagate.diverged_imag": int(out[1].sum())},
    "evolve_batch": lambda out: {"propagate.diverged_real": int(out[1].sum())},
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None      # index of the enclosing span, None at the top
    run: int

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    """In-memory span and count recorder; ``run`` tags everything recorded."""

    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)      # run -> {name: count}
    run: int = 0
    _stack: list = field(default_factory=list)

    def _open(self, name: str, merge: bool) -> int:
        parent = self._stack[-1] if self._stack else None
        last = self.spans[-1] if self.spans else None
        if merge and last is not None and last.name == name and last.parent == parent:
            idx = len(self.spans) - 1
        else:
            idx = len(self.spans)
            self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.run))
        self._stack.append(idx)
        return idx

    def _close(self, idx: int):
        self._stack.pop()
        self.spans[idx].end = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name, False)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, fn, name: str, merge: bool, counter=None):
        def traced(*args, **kwargs):
            idx = self._open(name, merge)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if counter is not None:
                run_counts = self.counts.setdefault(self.run, {})
                for key, n in counter(out).items():
                    run_counts[key] = run_counts.get(key, 0) + n
            return out
        return traced

    def self_times(self) -> list:
        """Each span's duration minus the time its direct children cover."""
        out = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.duration
        return out

    def records(self) -> list:
        return [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "run": s.run} for s in self.spans]


@contextmanager
def instrument(tracer: Tracer):
    """Route the package's calls listed in HOOKS through ``tracer``."""
    saved = []
    try:
        for module_name, attr, name, merge in HOOKS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            saved.append((module, attr, fn))
            setattr(module, attr, tracer.wrap(fn, name, merge, COUNTERS.get(attr)))
        yield
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)
