"""Spans around calls into qrecur's public functions, kept in memory.

A span records name, start, end, parent and a few attributes (sizes).
`Tracer.install` replaces module attributes with timing wrappers,
including the copies that other modules import by name (`verify` holds
its own `fidelity_series`, `search` its own `make_kernel`), and
`Tracer.restore` puts every original back. Nothing under `src/` knows
about any of this.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager


def _n_of_kernel(kernel, times):
    return {"n": kernel.dim, "samples": int(times.size)}


def _n_of_system(H, *args, **kwargs):
    return {"n": H.dim}


def _n_of_state(rho, *args, **kwargs):
    return {"n": rho.dim}


def _samples_of(H, rho0, times):
    return {"n": H.dim, "samples": len(times)}


def _rows_of(torus, thetas):
    return {"samples": int(thetas.shape[0])}


# (module, attribute, span name, attribute function). Every module that
# imported a function by name is listed, because calls go through its copy.
TARGETS = (
    ("qrecur.search", "fidelity_series", "search.fidelity_series", _n_of_kernel),
    ("qrecur.verify", "fidelity_series", "search.fidelity_series", _n_of_kernel),
    ("qrecur.search", "find_recurrence", "search.find_recurrence", _n_of_system),
    ("qrecur.cli", "find_recurrence", "search.find_recurrence", _n_of_system),
    ("qrecur.search", "collect_samples", "search.collect_samples", _samples_of),
    ("qrecur.search", "stroboscopic_recurrence", "search.stroboscopic_recurrence", _n_of_system),
    ("qrecur.cli", "stroboscopic_recurrence", "search.stroboscopic_recurrence", _n_of_system),
    ("qrecur.evolution", "make_kernel", "evolution.make_kernel", _n_of_system),
    ("qrecur.search", "make_kernel", "evolution.make_kernel", _n_of_system),
    ("qrecur.verify", "make_kernel", "evolution.make_kernel", _n_of_system),
    ("qrecur.bounds", "energy_bounds", "bounds.energy_bounds", _n_of_system),
    ("qrecur.metrics", "fidelity", "metrics.fidelity", _n_of_state),
    ("qrecur.states", "system_from_dict", "states.system_from_dict", None),
    ("qrecur.cli", "system_from_dict", "states.system_from_dict", None),
    ("qrecur.torus", "torus_distance_series", "torus.distance_series", _rows_of),
    ("qrecur.search", "torus_distance_series", "torus.distance_series", _rows_of),
    ("qrecur.verify", "torus_distance_series", "torus.distance_series", _rows_of),
    # the 40-digit re-check of borderline fidelities in verify
    ("mpmath", "svd_c", "mpmath.svd_c", None),
)


class Tracer:
    """Collects spans; `enabled=False` makes `span` a no-op for untraced passes."""

    def __init__(self):
        self.spans: list[dict] = []
        self.enabled = False
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, **attrs):
        """Yields the span record (a throwaway one when off), so the caller
        can add results such as sample counts to its "attrs"."""
        if not self.enabled:
            yield {"id": None, "attrs": attrs}
            return
        sid = len(self.spans)
        rec = {
            "id": sid,
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "start": 0.0,
            "end": 0.0,
            "attrs": attrs,
        }
        self.spans.append(rec)
        self._stack.append(sid)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name, attrs_fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs = attrs_fn(*args, **kwargs) if attrs_fn and self.enabled else {}
            with self.span(name, **attrs):
                return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer already installed")
        for modname, attr, name, attrs_fn in TARGETS:
            module = importlib.import_module(modname)
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, attrs_fn))

    def restore(self) -> None:
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    def adopt(self, spans: list[dict], parent: int | None) -> None:
        """Append spans recorded in a child process under `parent`."""
        offset = len(self.spans)
        for rec in spans:
            rec = dict(rec, id=rec["id"] + offset)
            rec["parent"] = parent if rec["parent"] is None else rec["parent"] + offset
            self.spans.append(rec)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def originals() -> dict:
    """Current value of every wrapped attribute, for the restore check."""
    return {
        (modname, attr): getattr(importlib.import_module(modname), attr)
        for modname, attr, _, _ in TARGETS
    }
