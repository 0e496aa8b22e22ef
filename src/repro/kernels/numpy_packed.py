"""NumPy packed-``uint64`` kernel backend.

Masks are packed into little-endian ``uint64`` word rows — a family of
``n`` sets over ``b`` bits becomes an ``(n, ceil(b/64))`` matrix — and
batched primitives run as vectorised word-parallel operations.  This is
the bit-parallel layout the paper's C implementations get from machine
words, recovered inside numpy.

A profiling note that shapes this file: CPython's arbitrary-precision
integers *already* execute ``&``, ``|`` and ``bit_count`` as C-level
word loops, so a numpy rewrite of a primitive only wins when the
pure-int form needs per-bit or per-row work in the interpreter.
Concretely (see ``benchmarks/BENCH_kernels.json``):

* ``column_counts`` (per-bit Python loop in the int backend),
  ``popcount_rows`` (per-row method call), the containment queries
  ``superset_rows`` / ``superset_max_support_bounded`` (per-row loop)
  and the table-in/table-out ``intersect_count_table_bounded`` (no
  conversion at all) are vectorised here;
* the mask-list forms (``intersect_many``, ``popcount_many``) are
  *conversion-bound*: the
  ``int ↔ bytes ↔ ndarray`` round trip at the boundary costs more than
  the C big-int operation it replaces, so this backend executes the
  same plain-int code as the ``bitint`` backend — per-primitive best
  implementation, never slower than the reference.

Conversion between Python ints and packed rows goes through
``int.to_bytes`` / ``int.from_bytes`` (C-level, linear in the word
count).  Popcounts use ``numpy.bitwise_count`` (numpy >= 2.0) with a
byte-table fallback.

Tables are **resident**: a :class:`PackedTable` lives across kernel
calls, grows in place (:meth:`NumpyBackend.append_rows`, amortised
doubling) and carries a generation tag for cache validation.  It holds
*one* representation at a time — plain ints until a vectorised
primitive first needs the word matrix, then only the matrix (the ints
are dropped, never held alongside the packed rows at peak).  The
table-in/table-out ``intersect_count_table_bounded`` keeps results in
the packed domain, so a descent pays no conversion per level.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..data.itemset import _popcount
from .base import BELOW_BOUND, KernelBackend

__all__ = ["NumpyBackend", "PackedTable"]

_WORD_DTYPE = np.dtype("<u8")
_WORD_BYTES = 8

if hasattr(np, "bitwise_count"):
    def _popcount_matrix(rows: np.ndarray) -> np.ndarray:
        return np.bitwise_count(rows).sum(axis=1, dtype=np.int64)
else:  # pragma: no cover - numpy < 2.0 only
    _BYTE_POPCOUNT = np.array(
        [bin(value).count("1") for value in range(256)], dtype=np.uint8
    )

    def _popcount_matrix(rows: np.ndarray) -> np.ndarray:
        if rows.size == 0:
            return np.zeros(rows.shape[0], dtype=np.int64)
        # Column-sliced inputs (the bounded half-split) are not
        # contiguous; the byte view needs an owned buffer.
        as_bytes = np.ascontiguousarray(rows).view(np.uint8).reshape(
            rows.shape[0], -1
        )
        return _BYTE_POPCOUNT[as_bytes].sum(axis=1, dtype=np.int64)


def _n_words(n_bits: int) -> int:
    return max(1, (n_bits + 63) // 64)


def _pack_mask(mask: int, n_words: int) -> np.ndarray:
    """One mask as a little-endian word row."""
    return np.frombuffer(mask.to_bytes(n_words * _WORD_BYTES, "little"), dtype=_WORD_DTYPE)


def _pack_masks(masks: Sequence[int], n_bits: int) -> np.ndarray:
    n_words = _n_words(n_bits)
    row_bytes = n_words * _WORD_BYTES
    buffer = b"".join(mask.to_bytes(row_bytes, "little") for mask in masks)
    rows = np.frombuffer(buffer, dtype=_WORD_DTYPE)
    return rows.reshape(len(masks), n_words) if masks else rows.reshape(0, n_words)


def _unpack_rows(rows: np.ndarray) -> List[int]:
    """Bulk row matrix -> plain ints (one tobytes, C-level slicing)."""
    if not rows.shape[0]:
        return []
    row_bytes = rows.shape[1] * _WORD_BYTES
    data = np.ascontiguousarray(rows).tobytes()
    return [
        int.from_bytes(data[offset : offset + row_bytes], "little")
        for offset in range(0, len(data), row_bytes)
    ]


#: The half-split bound only pays on wide rows: below this word count
#: the extra pass (slice copy + second popcount dispatch) costs as much
#: as it can save, so narrow joints take one full popcount and rely on
#: the sentinel alone.  Measured crossover on the bench fixture family:
#: ~0.9x at 64 words, ~0.78x at 256+ words when aborts trigger.
_SPLIT_MIN_WORDS = 64


def _bounded_supports(joint: np.ndarray, smin: int) -> np.ndarray:
    """Row popcounts with the half-split early-stopping rule.

    Counts the first half of each row's words, then finishes only the
    rows whose running count plus the remaining-word upper bound
    (``remaining_words * 64``) can still reach ``smin``
    (arXiv:1901.07773).  Rows settled early keep their partial count —
    provably below ``smin``, so callers sentinel them identically to a
    full count.  Rows that survive the bound get exact popcounts.
    """
    n_words = joint.shape[1]
    if smin <= 0 or n_words < _SPLIT_MIN_WORDS or not joint.shape[0]:
        return _popcount_matrix(joint)
    half = n_words // 2
    # Column slices are strided; popcount on a contiguous copy is
    # faster than on the strided view for every width this path sees.
    supports = _popcount_matrix(np.ascontiguousarray(joint[:, :half]))
    alive = supports + (n_words - half) * 64 >= smin
    if alive.all():
        supports += _popcount_matrix(np.ascontiguousarray(joint[:, half:]))
    elif alive.any():
        # Fancy indexing already yields an owned, contiguous tail.
        supports[alive] += _popcount_matrix(joint[alive, half:])
    return supports


class PackedTable:
    """A resident mask family: plain ints *or* a packed word matrix.

    Starts int-backed (packing is free); the ``(n, words)``
    little-endian ``uint64`` matrix is built on first use by a
    vectorised primitive, at which point the int list is **dropped** —
    the two representations are never held together at peak.  Appends
    grow whichever form is live (the matrix by amortised doubling) and
    bump ``generation`` so caches holding the handle can validate it.
    """

    __slots__ = ("n_bits", "n_words", "generation", "_n_rows", "_ints", "_rows")

    def __init__(self, ints: List[int], n_bits: int) -> None:
        self.n_bits = n_bits
        self.n_words = _n_words(n_bits)
        self.generation = 0
        self._n_rows = len(ints)
        self._ints: Optional[List[int]] = ints
        self._rows: Optional[np.ndarray] = None

    @classmethod
    def from_rows(cls, rows: np.ndarray, n_bits: int) -> "PackedTable":
        """Wrap an existing word matrix (table-out primitives)."""
        table = cls.__new__(cls)
        table.n_bits = n_bits
        table.n_words = rows.shape[1]
        table.generation = 0
        table._n_rows = rows.shape[0]
        table._ints = None
        table._rows = rows
        return table

    @property
    def rows(self) -> np.ndarray:
        """The packed matrix (materialises it and releases the ints)."""
        rows = self._rows
        if rows is None:
            rows = _pack_masks(self._ints, self.n_bits)
            self._rows = rows
            self._ints = None  # single residency: never both at peak
        return rows[: self._n_rows]

    def __len__(self) -> int:
        return self._n_rows


class NumpyBackend(KernelBackend):
    """Word-parallel batched set algebra over packed uint64 rows."""

    __slots__ = ()

    name = "numpy"
    vectorized = True

    # -- packed tables --------------------------------------------------

    def pack(self, masks: Sequence[int], n_bits: int) -> PackedTable:
        return PackedTable(list(masks), n_bits)

    # -- resident tables -------------------------------------------------

    def append_rows(self, table: PackedTable, masks: Sequence[int]) -> None:
        masks = list(masks)
        ints = table._ints
        if ints is not None:
            # Int-backed: the list *is* the storage (already amortised).
            ints.extend(masks)
            table._n_rows += len(masks)
        else:
            needed = table._n_rows + len(masks)
            rows = table._rows
            capacity = rows.shape[0] if rows is not None else 0
            if capacity < needed or not rows.flags.writeable:
                # frombuffer-packed matrices are read-only and exactly
                # sized; the first append moves to an owned, writable
                # buffer, subsequent growth doubles it.
                new_capacity = max(needed, 2 * capacity, 8)
                grown = np.zeros((new_capacity, table.n_words), dtype=_WORD_DTYPE)
                if table._n_rows:
                    grown[: table._n_rows] = rows[: table._n_rows]
                table._rows = rows = grown
            if masks:
                rows[table._n_rows : needed] = _pack_masks(masks, table.n_bits)
            table._n_rows = needed
        table.generation += 1

    def table_row(self, table: PackedTable, index: int) -> int:
        ints = table._ints
        if ints is not None:
            return ints[index]
        return int.from_bytes(table.rows[index].tobytes(), "little")

    def select_rows(self, table: PackedTable, indices: Sequence[int]) -> PackedTable:
        ints = table._ints
        if ints is not None:
            return PackedTable([ints[index] for index in indices], table.n_bits)
        indices = list(indices)
        if not indices:
            return PackedTable.from_rows(
                np.zeros((0, table.n_words), dtype=_WORD_DTYPE), table.n_bits
            )
        selected = table.rows[np.asarray(indices, dtype=np.intp)]
        return PackedTable.from_rows(selected, table.n_bits)

    def superset_rows(self, table: PackedTable, mask: int) -> List[int]:
        if not table._n_rows:
            return []
        if mask >> (table.n_words * 64):
            return []
        rows = table.rows
        candidate = _pack_mask(mask, table.n_words)
        hits = ((rows & candidate) == candidate).all(axis=1)
        return np.nonzero(hits)[0].tolist()

    def intersect_rows(self, table: PackedTable, mask: int) -> List[int]:
        ints = table._ints
        if ints is not None:
            # Int-backed: the plain loop beats AND-then-bulk-unpack.
            return [row & mask for row in ints]
        joint = table.rows & _pack_mask(mask, table.n_words)
        return _unpack_rows(joint)

    def intersect_count_table_bounded(
        self, table: PackedTable, mask: int, smin: int, start: int = 0
    ) -> Tuple[PackedTable, List[int]]:
        joint = table.rows[start:] & _pack_mask(mask, table.n_words)
        supports = _bounded_supports(joint, smin)
        below = supports < smin
        if below.any():
            if below.all():
                joint.fill(0)
                supports = np.full(joint.shape[0], BELOW_BOUND, dtype=np.int64)
            else:
                joint[below] = 0
                supports = np.where(below, BELOW_BOUND, supports)
        return PackedTable.from_rows(joint, table.n_bits), supports.tolist()

    def superset_max_support_bounded(
        self, table: PackedTable, supports: Sequence[int], mask: int, smin: int
    ) -> int:
        if not table._n_rows:
            return 0
        if mask >> (table.n_words * 64):
            return 0
        support_arr = np.asarray(supports, dtype=np.int64)
        eligible = support_arr >= smin
        if not eligible.any():
            return 0
        rows = table.rows
        candidate = _pack_mask(mask, table.n_words)
        if eligible.all():
            selected = ((rows & candidate) == candidate).all(axis=1)
            if not selected.any():
                return 0
            return int(support_arr[selected].max())
        # The support prefilter is the early abort: rows that could not
        # answer (support below smin) never reach the containment test.
        sub = rows[eligible]
        selected = ((sub & candidate) == candidate).all(axis=1)
        if not selected.any():
            return 0
        return int(support_arr[eligible][selected].max())

    # -- conversion-bound primitives: plain-int execution ----------------
    # (see the module docstring — the int↔ndarray round trip costs more
    # than the C big-int operation it would replace)

    def popcount_many(self, masks: Sequence[int]) -> List[int]:
        return [_popcount(mask) for mask in masks]

    def intersect_many(self, masks: Sequence[int], mask: int, n_bits: int) -> List[int]:
        return [m & mask for m in masks]

    # -- vectorised primitives -------------------------------------------

    def popcount_rows(self, table: PackedTable) -> List[int]:
        return _popcount_matrix(table.rows).tolist()

    def column_counts(self, masks: Sequence[int], n_bits: int) -> List[int]:
        masks = list(masks)
        if not masks:
            return [0] * n_bits
        rows = _pack_masks(masks, n_bits)
        bits = np.unpackbits(
            rows.view(np.uint8).reshape(rows.shape[0], -1), axis=1, bitorder="little"
        )
        return bits[:, :n_bits].sum(axis=0, dtype=np.int64).tolist()
