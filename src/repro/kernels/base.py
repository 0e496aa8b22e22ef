"""The set-algebra kernel interface.

Every miner in this package bottoms out in the same handful of bitmask
operations: intersecting one set against many, counting members,
testing containment.  A :class:`KernelBackend` bundles *batched* forms
of those operations so a hot loop can hand a whole family of sets to
the backend in one call instead of iterating in Python.  The interface
holds only the primitives some production caller uses (a test enforces
it); each miner has one code path whatever backend runs it.

Two representations appear in the interface:

* **mask** — a plain Python integer bitmask, the package-wide canonical
  item set / tid set encoding (:mod:`repro.data.itemset`);
* **table** — an opaque, backend-specific packed form of a *fixed* list
  of masks, built once via :meth:`KernelBackend.pack` and reused across
  many calls (the numpy backend stores a ``(rows, words)`` ``uint64``
  matrix; the pure-int backend keeps the list).

All batch methods accept and return plain ints at the boundary, so a
miner can switch backends without changing its own data structures —
the backends differ only in how the batch is executed.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

__all__ = ["KernelBackend", "BELOW_BOUND"]

#: Support sentinel of the ``*_bounded`` primitives: an entry whose
#: *true* intersection support is below the requested ``smin`` reports
#: this value and a zeroed joint.  The sentinel is **data-dependent**,
#: never implementation-dependent — whether a backend actually skipped
#: work (the numpy blockwise early abort) or computed the full popcount
#: (the pure-int reference), the same entries carry the sentinel, so
#: cross-backend parity and the observability counters derived from it
#: stay exact and deterministic.
BELOW_BOUND = -1


class KernelBackend:
    """Abstract batched set algebra; see the module docstring.

    Concrete backends: :class:`repro.kernels.bitint.BitIntBackend`
    (arbitrary-precision Python ints, the seed implementation) and
    :class:`repro.kernels.numpy_packed.NumpyBackend` (packed ``uint64``
    rows with vectorised word-parallel operations).
    """

    __slots__ = ()

    #: Registry name of the backend.
    name: str = "?"
    #: True when the backend executes batches outside the interpreter
    #: loop.  Descriptive only: no miner branches on it.
    vectorized: bool = False

    # -- packed tables --------------------------------------------------

    def pack(self, masks: Sequence[int], n_bits: int):
        """Pack a fixed list of masks into the backend's table form."""
        raise NotImplementedError

    # -- resident tables -------------------------------------------------
    # Tables are *resident*: a caller packs its family once, holds the
    # handle across kernel calls, and grows it in place as new rows
    # arrive.  The table-in/table-out primitive below keeps intermediate
    # results in the packed domain — for the numpy backend that means no
    # int <-> ndarray conversion on the hot path.  Both table types
    # define ``len(table)`` (row count), ``table.n_bits`` and a
    # ``table.generation`` mutation counter (0 at pack time, +1 per
    # append) that lets a cache validate a held handle.

    def append_rows(self, table, masks: Sequence[int]) -> None:
        """Append masks to a table in place (amortised-doubling growth).

        Bumps the table's generation tag.  Masks must fit the table's
        packed width (``< 2**n_bits``, word-rounded).
        """
        raise NotImplementedError

    def table_row(self, table, index: int) -> int:
        """One table row as a plain int mask."""
        raise NotImplementedError

    def select_rows(self, table, indices: Sequence[int]):
        """A new table holding the given rows, in the given order."""
        raise NotImplementedError

    def superset_rows(self, table, mask: int) -> List[int]:
        """Indices (ascending) of the rows that contain ``mask``.

        The supersets_of serving query against a packed closed family.
        """
        raise NotImplementedError

    def intersect_rows(self, table, mask: int) -> List[int]:
        """``[row & mask for row in table]`` as plain ints.

        The pairwise sweep of the incremental fold and the serving
        build: one side stays resident, only the joints cross the int
        boundary.
        """
        raise NotImplementedError

    def intersect_count_table_bounded(
        self, table, mask: int, smin: int, start: int = 0
    ) -> Tuple[object, List[int]]:
        """``row & mask`` and its popcount for rows at index >= ``start``.

        Returns ``(joint_table, supports)``; the joints stay packed, so a
        descent that narrows a family repeatedly (Eclat) pays no
        conversion per level.  Every result row whose true popcount is
        below ``smin`` reports support :data:`BELOW_BOUND` and a zeroed
        joint row; rows at or above ``smin`` are exact.
        Backends may abort a row's popcount once the running count plus
        the remaining-word upper bound (``remaining_words * 64``) can no
        longer reach ``smin`` — the early-stopping rule of
        arXiv:1901.07773 — but the reported sentinel set depends only on
        the data (see :data:`BELOW_BOUND`).
        """
        raise NotImplementedError

    def superset_max_support_bounded(
        self, table, supports: Sequence[int], mask: int, smin: int
    ) -> int:
        """Largest ``supports[i] >= smin`` over rows that contain ``mask``.

        ``supports`` is aligned with the table rows.  Returns 0 when no
        qualifying row contains ``mask``.  This is the repository
        support query of the serving layer (support of a set = support
        of its smallest closed superset) executed against a packed
        closed family; ``smin`` lets the backend skip the containment
        test for rows that could not answer anyway.
        """
        raise NotImplementedError

    # -- batched primitives ---------------------------------------------

    def popcount_many(self, masks: Sequence[int]) -> List[int]:
        """Popcount of every mask in a list."""
        raise NotImplementedError

    def popcount_rows(self, table) -> List[int]:
        """Popcount of every row of a packed table."""
        raise NotImplementedError

    def intersect_many(self, masks: Sequence[int], mask: int, n_bits: int) -> List[int]:
        """``[m & mask for m in masks]`` as one batch."""
        raise NotImplementedError

    def column_counts(self, masks: Sequence[int], n_bits: int) -> List[int]:
        """Per-bit occurrence counts over a list of masks.

        ``column_counts(transactions, n_items)[i]`` is the support of
        item ``i`` — the remaining-occurrence counter family behind the
        item-elimination pruning of IsTa and cumulative-flat.
        """
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"
