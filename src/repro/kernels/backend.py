"""Kernel backend registry: pluggable implementations of the hot kernels.

A :class:`KernelBackend` bundles plan-based implementations of the hot
operations — SpMV, colored Gauss-Seidel sweep, Jacobi sweep, wavefront
SpTRSV, the fused BLAS-1 vector ops and the grid transfers.  The ``numpy``
reference backend (the planned kernels from :mod:`repro.kernels.plan`) is
always available; the compiled ``c`` backend (:mod:`repro.kernels.backend_c`)
is built on first use when cffi and a C compiler are present, and silently
skipped otherwise — the library must run identically (modulo speed) on a
bare numpy install.

Selection order:

1. an explicit :func:`set_backend` / :func:`use_backend` choice;
2. the ``REPRO_KERNEL_BACKEND`` environment variable (``numpy``/``c``/
   ``auto``);
3. ``auto``: ``c`` when it built, else numpy.

Backends are **parity-constrained**: every implementation must be
bit-identical to the numpy reference (see ``tests/test_backend_parity.py``).
That is why the ``c`` backend deliberately does not override ``dot`` /
``norm2`` — numpy's pairwise summation order cannot be reproduced by a
naive loop, and reductions feed convergence decisions.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

__all__ = [
    "KernelBackend",
    "available_backends",
    "backend_status",
    "get_backend",
    "register_backend",
    "set_backend",
    "use_backend",
]

_ENV_VAR = "REPRO_KERNEL_BACKEND"


@dataclass(frozen=True)
class KernelBackend:
    """One named implementation set for the hot kernels.

    The plan-based entry points (``spmv``, ``gs_sweep``, ``jacobi_sweep``,
    ``sptrsv``) receive a :class:`~repro.kernels.plan.KernelPlan` as their
    first argument; the BLAS-1 entries mirror :mod:`repro.kernels.blas1`.
    ``jit`` marks backends that compile on first use (so benchmarks warm
    them up before timing).  ``restrict`` / ``prolongate`` apply a
    :class:`~repro.coarsen.Transfer` as ``(transfer, x, dtype, out,
    add)``; ``None`` leaves transfers to their numpy reference.
    """

    name: str
    spmv: Callable
    gs_sweep: Callable
    jacobi_sweep: Callable
    sptrsv: Callable
    axpy: Callable
    xpay: Callable
    dot: Callable
    norm2: Callable
    jit: bool = False
    notes: str = ""
    restrict: "Callable | None" = None
    prolongate: "Callable | None" = None
    extras: dict = field(default_factory=dict, compare=False)


_REGISTRY: "dict[str, KernelBackend]" = {}
_LOCK = threading.Lock()
_selected: "str | None" = None  # explicit set_backend choice
_resolved: "KernelBackend | None" = None  # cached resolution


def register_backend(backend: KernelBackend) -> KernelBackend:
    with _LOCK:
        _REGISTRY[backend.name] = backend
    _invalidate()
    return backend


def _invalidate() -> None:
    global _resolved
    _resolved = None


def _numpy_backend() -> KernelBackend:
    _ensure_registered()
    return _REGISTRY["numpy"]


def _ensure_registered() -> None:
    if "numpy" in _REGISTRY:
        return
    with _LOCK:
        if "numpy" in _REGISTRY:
            return
        from . import blas1, plan

        _REGISTRY["numpy"] = KernelBackend(
            name="numpy",
            spmv=plan.spmv_planned,
            gs_sweep=plan.gs_sweep_planned,
            jacobi_sweep=plan.jacobi_planned,
            sptrsv=plan.sptrsv_planned,
            # the private reference impls, not the public dispatchers —
            # blas1's public functions route through this registry
            axpy=blas1._axpy_ref,
            xpay=blas1._xpay_ref,
            dot=blas1._dot_ref,
            norm2=blas1._norm2_ref,
            jit=False,
            notes="vectorized NumPy reference (always available)",
        )
        from . import backend_c

        cb = backend_c.make_backend(_REGISTRY["numpy"])
        if cb is not None:
            _REGISTRY["c"] = cb


def available_backends() -> "tuple[str, ...]":
    """Names of the registered, usable backends."""
    _ensure_registered()
    return tuple(sorted(_REGISTRY))


def backend_status() -> dict:
    """Introspection: registered backends, selection, resolution (and
    which backend applies grid transfers), and the ``c`` build outcome
    (cache path, source hash, compile seconds, or the reason it is
    unavailable)."""
    from . import backend_c

    _ensure_registered()
    return {
        "registered": {
            name: {"jit": be.jit, "notes": be.notes}
            for name, be in sorted(_REGISTRY.items())
        },
        "selected": _selected,
        "env": os.environ.get(_ENV_VAR),
        "resolved": get_backend().name,
        "transfers": get_backend().name if get_backend().restrict else "numpy",
        "c": backend_c.status(),
    }


def set_backend(name: "str | None") -> None:
    """Pin the backend by name (``None`` reverts to auto-detection).

    Requesting an unregistered name raises immediately — a typo in a
    benchmark config must not silently time the wrong backend.
    """
    global _selected
    _ensure_registered()
    if name is not None and name not in ("auto",) and name not in _REGISTRY:
        raise ValueError(
            f"unknown kernel backend {name!r}; available: "
            f"{', '.join(available_backends())} (or 'auto')"
        )
    _selected = None if name in (None, "auto") else name
    _invalidate()


def _resolve() -> KernelBackend:
    _ensure_registered()
    if _selected is not None:
        return _REGISTRY[_selected]
    env = os.environ.get(_ENV_VAR, "auto").strip().lower()
    if env and env != "auto":
        be = _REGISTRY.get(env)
        if be is not None:
            return be
        # an unusable env request degrades gracefully (no C compiler on
        # this host): the reference backend keeps the solver running
        return _REGISTRY["numpy"]
    return _REGISTRY.get("c", _REGISTRY["numpy"])


def get_backend() -> KernelBackend:
    """The backend in effect (cached; cheap enough for hot loops)."""
    global _resolved
    be = _resolved
    if be is None:
        be = _resolved = _resolve()
    return be


@contextmanager
def use_backend(name: "str | None"):
    """Scoped backend selection: ``with use_backend('numpy'): ...``."""
    global _selected
    prev = _selected
    set_backend(name)
    try:
        yield get_backend()
    finally:
        _selected = prev
        _invalidate()
