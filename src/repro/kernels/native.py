"""Native (C extension) kernel backend behind the same ABI.

:class:`NativeBackend` subclasses the numpy backend and re-routes three
primitives, each with a production caller — the Eclat descent step
(``intersect_count_table_bounded``), the serving point query
(``superset_max_support_bounded``) and ``popcount_rows`` — through
``repro.kernels._native``, a small C module built from
``src/repro/kernels/_native.c`` (an *optional* setuptools extension:
``pip install -e .`` builds it when a compiler is present and silently
skips it otherwise; ``python setup.py build_ext --inplace`` builds it
for a source checkout).

The C module consumes the resident :class:`PackedTable` matrix through
the buffer protocol and needs no numpy headers; masks cross the
boundary as ``int.to_bytes(n_words * 8, "little")`` and joint rows come
back as bytes wrapped into a fresh table.  Everything not listed above
(packing, appends, the mask-list forms, column counts, ...) inherits
the numpy/plain-int implementation unchanged — per-primitive best
implementation, exactly like the numpy backend's own hybrid split.

Why these three win in C even against vectorised numpy: the bench
fixture's rows are a few dozen words, so one numpy call spends more on
dispatch, broadcasting and temporaries (AND matrix, byte-count matrix,
reduction) than on the actual word loop.  The C loop fuses
AND + popcount + bound test into one pass over each row, honours the
exact ``BELOW_BOUND`` sentinel contract, and gives the early-stopping
rule word granularity instead of the half-split.

When the extension is not built this module still imports cleanly and
``HAVE_NATIVE`` is ``False``; the registry then leaves ``"native"``
unregistered and backend resolution falls back to ``numpy`` (see
:func:`repro.kernels.get_backend`).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from .base import BELOW_BOUND
from .numpy_packed import _WORD_DTYPE, NumpyBackend, PackedTable

try:  # pragma: no cover - exercised via HAVE_NATIVE on both leg types
    from . import _native
except ImportError:  # compiler-absent install: pure-Python fallback
    _native = None

__all__ = ["HAVE_NATIVE", "NativeBackend"]

#: True when the optional C extension was built and imported.
HAVE_NATIVE = _native is not None

if _native is not None and _native.BELOW_BOUND != BELOW_BOUND:
    raise ImportError(
        f"repro.kernels._native sentinel {_native.BELOW_BOUND} does not "
        f"match BELOW_BOUND {BELOW_BOUND}; rebuild the extension"
    )


def _wrap_joint(data: bytes, table: PackedTable) -> PackedTable:
    joint = np.frombuffer(data, dtype=_WORD_DTYPE).reshape(-1, table.n_words)
    return PackedTable.from_rows(joint, table.n_bits)


class NativeBackend(NumpyBackend):
    """C-loop execution of the three hottest table primitives."""

    __slots__ = ()

    name = "native"
    vectorized = True

    # -- resident tables ---------------------------------------------------

    def intersect_count_table_bounded(
        self, table: PackedTable, mask: int, smin: int, start: int = 0
    ) -> Tuple[PackedTable, List[int]]:
        rows = table.rows[start:]
        data, supports = _native.intersect_count_bounded(
            rows, mask.to_bytes(table.n_words * 8, "little"), smin
        )
        return _wrap_joint(data, table), supports

    def superset_max_support_bounded(
        self, table: PackedTable, supports: Sequence[int], mask: int, smin: int
    ) -> int:
        if not table._n_rows:
            return 0
        if mask >> (table.n_words * 64):
            # Query bits beyond the packed width: no row can cover them.
            return 0
        if not isinstance(supports, (list, tuple)):
            supports = list(supports)
        return _native.superset_max_support_bounded(
            table.rows,
            supports,
            mask.to_bytes(table.n_words * 8, "little"),
            smin,
        )

    # -- batched popcounts ------------------------------------------------

    def popcount_rows(self, table: PackedTable) -> List[int]:
        return _native.popcount_rows(table.rows)
