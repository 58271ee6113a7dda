"""Spans around calls into repro's layers, recorded from the benchmark side.

The program is not edited: wrappers are installed on module attributes and
on object instances of this process only, in ``--trace 1`` runs, so the
end-to-end numbers of ``--trace 0`` runs never carry tracing cost.  A span
records its name, start, end, parent span and the bytes the call moves
by ``repro.perf``'s byte model (computed, not measured).  A span's self time
is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict


class Tracer:
    """In-memory span recorder for one thread (the benchmark's main thread)."""

    def __init__(self) -> None:
        #: one ``[name, start, end, parent_index, computed_bytes]`` per call
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.missing: list[str] = []

    def wrap(self, name: str, fn, nbytes=None, when=None):
        """Return ``fn`` recording one span per call.

        ``nbytes`` is a constant or a function of the call's positional
        arguments giving the computed bytes the call moves; ``when``, a
        predicate on those arguments, limits recording to matching calls.
        """

        def traced(*args, **kwargs):
            if when is not None and not when(args):
                return fn(*args, **kwargs)
            rec = [name, time.perf_counter(), 0.0,
                   self._stack[-1] if self._stack else -1, 0]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                rec[2] = time.perf_counter()
                if nbytes is not None:
                    rec[4] = nbytes(args) if callable(nbytes) else nbytes

        return traced

    def patch(self, obj, attr: str, name: str, nbytes=None, when=None) -> None:
        """Replace ``obj.attr`` by a traced wrapper.

        A target that no longer exists is reported on stderr and left out,
        so its layer reads 0 instead of the run failing.
        """
        fn = getattr(obj, attr, None)
        if fn is None:
            self.report_missing(f"{getattr(obj, '__name__', type(obj).__name__)}.{attr}")
            return
        setattr(obj, attr, self.wrap(name, fn, nbytes, when))

    def report_missing(self, label: str) -> None:
        if label not in self.missing:
            self.missing.append(label)
            print(f"trace: cannot instrument {label}", file=sys.stderr)

    def mark(self) -> int:
        return len(self.spans)

    def summary(self, start: int = 0, end: "int | None" = None) -> dict:
        """Per span name: total seconds, self seconds, calls, computed bytes."""
        spans = self.spans[start:end]
        child = defaultdict(float)
        for name, t0, t1, parent, _ in spans:
            if parent >= start:
                child[parent] += t1 - t0
        out: dict = defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "n": 0, "bytes": 0})
        for k, (name, t0, t1, _parent, nbytes) in enumerate(spans, start):
            agg = out[name]
            agg["s"] += t1 - t0
            agg["self_s"] += t1 - t0 - child.get(k, 0.0)
            agg["n"] += 1
            agg["bytes"] += nbytes
        return out


def instrument_setup(tr: Tracer) -> None:
    """Trace the setup layers: Galerkin products, scale-and-truncate, and
    smoother construction, as ``mg_setup`` calls them."""
    import repro.mg.setup as ms

    tr.patch(ms, "galerkin_coarse_sgdia", "coarsen.galerkin")
    tr.patch(ms, "_build_level_stored", "precision.setup")
    make = getattr(ms, "_make_level_smoother", None)
    if make is None:
        tr.report_missing("repro.mg.setup._make_level_smoother")
        return

    def make_traced(*args, **kwargs):
        smoother = make(*args, **kwargs)
        tr.patch(smoother, "setup", "smoothers.setup")
        return smoother

    ms._make_level_smoother = make_traced


class SolveTracer:
    """Trace the solve layers of set-up hierarchies.

    Spans: ``solvers.solve`` > ``solvers.matvec`` (outer operator) and
    ``mg.precond`` > ``smoothers.smooth.L0`` / ``smoothers.smooth.coarse``
    / ``smoothers.coarse_solve``, ``kernels.spmv`` (V-cycle residual) and
    ``coarsen.transfer`` (restrict and prolong).
    """

    def __init__(self, tr: Tracer) -> None:
        import repro.mg.hierarchy as mh

        self.tr = tr
        self._spmv_bytes: dict[int, int] = {}
        # only the V-cycles of instrumented hierarchies are recorded, so an
        # untraced hierarchy solved alongside pays one dict lookup per SpMV
        tr.patch(mh, "spmv", "kernels.spmv",
                 nbytes=lambda args: self._spmv_bytes[id(args[0])],
                 when=lambda args: id(args[0]) in self._spmv_bytes)

    def instrument(self, h):
        """Wrap the level objects of ``h``; return its traced preconditioner."""
        import repro.perf.e2e as e2e
        from repro.perf import spmv_volume, transfer_volume, vcycle_volume

        smoother_volume = getattr(e2e, "_smoother_volume_per_application", None)
        if smoother_volume is None:
            self.tr.report_missing("repro.perf.e2e._smoother_volume_per_application")
        vec = h.config.compute.itemsize
        last = h.n_levels - 1
        for lev in h.levels:
            i = lev.index
            if i == last:
                name = "smoothers.coarse_solve"
            else:
                name = "smoothers.smooth.L0" if i == 0 else "smoothers.smooth.coarse"
            self.tr.patch(lev.smoother, "smooth", name,
                          nbytes=smoother_volume(lev, vec) if smoother_volume else 0)
            if lev.transfer is not None:
                moved = transfer_volume(lev.ndof, h.levels[i + 1].ndof, vec)
                self.tr.patch(lev.transfer, "restrict", "coarsen.transfer", nbytes=moved)
                self.tr.patch(lev.transfer, "prolongate", "coarsen.transfer", nbytes=moved)
            self._spmv_bytes[id(lev.stored)] = spmv_volume(
                lev.nnz_stored, lev.ndof, lev.stored.storage.itemsize, vec,
                lev.stored.is_scaled,
            )
        return self.tr.wrap("mg.precond", h.precondition, nbytes=vcycle_volume(h))

    def operator(self, a):
        """The outer operator with a traced ``matvec``."""
        return _TracedOperator(self.tr.wrap("solvers.matvec", a.matvec))


class _TracedOperator:
    def __init__(self, matvec) -> None:
        self.matvec = matvec
