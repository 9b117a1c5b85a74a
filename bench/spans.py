"""Outside-in span tracing of the torusgas layers.

The tracer wraps, at runtime, the public functions of the package's
modules and the ``scipy.fft`` transforms they call; nothing in ``src/``
changes.  Each wrapped call records one span: its name, start, end, the
span that called it on the same thread, and the run id.  Stacks are kept
per thread, so self time (a span's duration minus its children's) is
never taken across threads.  Spans stay in memory until :meth:`write`.
"""

from __future__ import annotations

import inspect
import itertools
import json
import sys
import threading
import time

#: Modules whose public functions form the traced layers, by layer name.
MODULES = ("spectral", "euler", "families", "solver", "inequalities", "lab")

#: The scipy.fft transforms called by ``spectral`` and ``solver``.
FFT_NAMES = ("rfft2", "irfft2", "fft2", "ifft2")


class _ThreadState(threading.local):
    def __init__(self) -> None:
        self.stack: list[int] = []
        self.paused = False


class Tracer:
    """Span recorder; :meth:`install` patches the loaded torusgas modules."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._thread = _ThreadState()

    def wrap(self, fn, name: str, extra=None):
        """Return fn recording a span per call.

        ``extra(args, result)`` returns data stored with the span; calls it
        makes into wrapped functions record no spans.
        """
        spans, ids, run_id, thread = self.spans, self._ids, self.run_id, self._thread
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if thread.paused:
                return fn(*args, **kwargs)
            stack = thread.stack
            parent = stack[-1] if stack else None
            span_id = next(ids)
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            data = None
            if extra is not None:
                thread.paused = True
                try:
                    data = extra(args, result)
                finally:
                    thread.paused = False
            spans.append(
                (span_id, name, start, end, parent, threading.get_ident(), run_id, data)
            )
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every public function of MODULES and the FFT_NAMES transforms."""
        import scipy.fft

        import torusgas.solver

        replaced = {}
        for name in FFT_NAMES:
            original = getattr(scipy.fft, name)
            replaced[id(original)] = self.wrap(original, f"fft.{name}", _fft_data)
        for layer in MODULES:
            module = sys.modules[f"torusgas.{layer}"]
            for name in module.__all__:
                fn = getattr(module, name)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    extra = None
                    if fn is torusgas.solver.evolve:
                        extra = _evolve_data(torusgas.solver.plan)
                    replaced[id(fn)] = self.wrap(fn, f"{layer}.{name}", extra)
        # Rebind every module-level reference, so that calls through
        # ``from x import f`` names and module attributes both go through
        # the wrappers.
        for module in [scipy.fft] + [
            m for key, m in list(sys.modules.items()) if key.startswith("torusgas")
        ]:
            for attr, value in list(vars(module).items()):
                wrapper = replaced.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    setattr(module, attr, wrapper)

    def write(self, path: str) -> None:
        """Write the spans as JSON lines."""
        keys = ("id", "name", "start", "end", "parent", "thread", "run", "data")
        with open(path, "w", encoding="ascii") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")


def _fft_data(args, result) -> dict:
    """Batch size and computed bytes (input plus output) of one transform."""
    x = args[0]
    batch = 1
    for extent in x.shape[:-2]:
        batch *= extent
    return {"batch": batch, "bytes": int(x.nbytes + result.nbytes)}


def _evolve_data(plan):
    """RK4 steps, grid size and record count of one ``evolve`` call."""

    def data(args, result) -> dict:
        s0, gas, cfg = args[:3]
        steps, _ = plan(s0, gas, cfg)
        return {"steps": steps, "n": s0.grid.size, "records": len(result.times)}

    return data
