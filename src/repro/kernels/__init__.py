"""Pluggable set-algebra kernel backends.

The miners' innermost loops — intersecting one item set (or tid set)
against a whole family, counting members, testing containment — are
routed through a :class:`~repro.kernels.base.KernelBackend`.  Three
interchangeable backends ship:

``"bitint"``
    The seed implementation: arbitrary-precision Python ints, one
    big-int C operation per primitive, batches as Python loops.
    Always available, and the default.

``"numpy"``
    Masks packed into little-endian ``uint64`` word rows; every batch
    is a handful of vectorised word-parallel numpy operations.  Wins
    on wide masks and large batches (the paper's gene-expression
    regime); see ``docs/performance.md`` and
    ``benchmarks/bench_kernels.py`` for the measured crossover.

``"native"``
    The numpy backend with three primitives (the bounded Eclat descent
    step, the bounded superset query, row popcounts) re-routed through
    an optional C extension
    (``repro.kernels._native``).  Only registered when the extension
    was built; selecting it on a build without the extension **falls
    back to numpy silently** — a pure-Python install keeps working
    unchanged with identical results (the sentinel contract is
    data-dependent, never backend-dependent).

Selection, in precedence order:

1. the ``backend=`` argument of :func:`repro.mining.mine` (a name or a
   :class:`KernelBackend` instance), also exposed as the CLI flag
   ``repro-mine mine --backend``;
2. the ``REPRO_KERNEL_BACKEND`` environment variable;
3. the default, ``"bitint"``.

``repro-mine backends`` prints the registry, the native build status
and the resolution (with the reason) for the current environment.
"""

from __future__ import annotations

import difflib
import os
from typing import Dict, List, Optional, Union

from .base import BELOW_BOUND, KernelBackend
from .bitint import BitIntBackend, BitTable
from .native import HAVE_NATIVE, NativeBackend
from .numpy_packed import NumpyBackend, PackedTable

__all__ = [
    "BELOW_BOUND",
    "KernelBackend",
    "BitIntBackend",
    "NumpyBackend",
    "NativeBackend",
    "HAVE_NATIVE",
    "BitTable",
    "PackedTable",
    "BACKEND_ENV_VAR",
    "DEFAULT_BACKEND",
    "available_backends",
    "selectable_backends",
    "get_backend",
    "resolve_backend",
    "selection_report",
]

#: Environment variable consulted when no explicit backend is passed.
BACKEND_ENV_VAR = "REPRO_KERNEL_BACKEND"

#: Name used when neither an argument nor the environment selects one.
DEFAULT_BACKEND = "bitint"

# Backends are stateless, so one shared instance per name suffices.
_BACKENDS: Dict[str, KernelBackend] = {
    BitIntBackend.name: BitIntBackend(),
    NumpyBackend.name: NumpyBackend(),
}
if HAVE_NATIVE:
    _BACKENDS[NativeBackend.name] = NativeBackend()

#: Graceful degradation for optional backends: a *selectable* name that
#: is not registered (its extension is absent) resolves to the fallback
#: on the right instead of failing — installs without a compiler keep
#: working with the same flags, env vars and scripts.
_FALLBACKS: Dict[str, str] = {NativeBackend.name: NumpyBackend.name}


def available_backends() -> List[str]:
    """Sorted names of the registered (importable) kernel backends."""
    return sorted(_BACKENDS)


def selectable_backends() -> List[str]:
    """Sorted names accepted for selection (CLI flags, environment).

    A superset of :func:`available_backends`: optional backends stay
    selectable even when their extension is not built, resolving down
    the fallback chain — so ``--backend native`` is always a valid
    flag and never a hard error.
    """
    return sorted(set(_BACKENDS) | set(_FALLBACKS))


def get_backend(name: str) -> KernelBackend:
    """The backend registered under ``name`` (with a did-you-mean hint).

    Selectable-but-unregistered names (``"native"`` without the built
    extension) fall back silently — see :func:`selection_report` for
    the introspectable version of the same resolution.
    """
    if not isinstance(name, str):
        raise TypeError(f"backend name must be a string, got {type(name).__name__}")
    backend = _BACKENDS.get(name)
    while backend is None and name in _FALLBACKS:
        name = _FALLBACKS[name]
        backend = _BACKENDS.get(name)
    if backend is None:
        close = difflib.get_close_matches(name, selectable_backends(), n=1)
        hint = f" (did you mean {close[0]!r}?)" if close else ""
        raise ValueError(
            f"unknown kernel backend {name!r}{hint}; available: "
            f"{available_backends()}"
        )
    return backend


def resolve_backend(
    backend: Union[str, KernelBackend, None] = None,
) -> KernelBackend:
    """Resolve a backend spec: instance, name, environment, or default."""
    if isinstance(backend, KernelBackend):
        return backend
    if backend is None:
        backend = os.environ.get(BACKEND_ENV_VAR) or DEFAULT_BACKEND
    return get_backend(backend)


def selection_report(
    backend: Union[str, KernelBackend, None] = None,
) -> Dict[str, Optional[str]]:
    """How :func:`resolve_backend` decides, as inspectable data.

    Returns a dict with the ``requested`` name, where it came from
    (``source``: ``"argument"`` / ``"environment"`` / ``"default"``),
    the ``resolved`` backend name actually returned, and a one-line
    human ``reason`` — the payload of ``repro-mine backends``.  Never
    raises for selectable names; an unknown requested name reports
    ``resolved=None`` with the error text as the reason.
    """
    if isinstance(backend, KernelBackend):
        return {
            "requested": backend.name,
            "source": "argument",
            "resolved": backend.name,
            "reason": "explicit KernelBackend instance, used as-is",
        }
    if backend is not None:
        requested, source = backend, "argument"
    else:
        env_value = os.environ.get(BACKEND_ENV_VAR)
        if env_value:
            requested, source = env_value, f"environment ({BACKEND_ENV_VAR})"
        else:
            requested, source = DEFAULT_BACKEND, "default"
    try:
        resolved = get_backend(requested)
    except (TypeError, ValueError) as exc:
        return {
            "requested": str(requested),
            "source": source,
            "resolved": None,
            "reason": str(exc),
        }
    if resolved.name == requested:
        reason = f"{requested!r} is registered, selected via {source}"
    else:
        reason = (
            f"{requested!r} (via {source}) is not built on this install; "
            f"fell back to {resolved.name!r}"
        )
    return {
        "requested": str(requested),
        "source": source,
        "resolved": resolved.name,
        "reason": reason,
    }
