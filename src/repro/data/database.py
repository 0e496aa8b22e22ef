"""Transaction database representation.

A :class:`TransactionDatabase` stores a multiset of transactions over an
item base, in the sense of Section 2.1 of the paper.  Internally every
transaction is a bitmask integer over *item codes* ``0 .. n_items - 1``
(see :mod:`repro.data.itemset`); user-facing item *labels* are kept in a
parallel table so that databases built from strings, gene identifiers or
integers round-trip faithfully.

The class offers both of the classic representations the paper discusses
(Section 2.2):

* horizontal — ``db.transactions`` is the list of transaction bitmasks;
* vertical — ``db.vertical()`` gives, per item, the bitmask of the
  indices of transactions containing it (tid masks), from which covers
  and supports fall out as single intersections / popcounts.
"""

from __future__ import annotations

from typing import (
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from . import itemset

__all__ = ["TransactionDatabase"]

#: Bytes of transaction bits unpacked at once by :meth:`item_supports`.
_COUNT_CHUNK = 1 << 22


class TransactionDatabase:
    """A bag of transactions over a fixed item base.

    Parameters
    ----------
    transactions:
        Sequence of bitmask integers, one per transaction.
    n_items:
        Size of the item base (item codes are ``0 .. n_items - 1``).
    item_labels:
        Optional user-facing labels, ``item_labels[code]`` is the label
        of the item with that code.  Defaults to the codes themselves.

    Most users should build databases through :meth:`from_iterable`,
    which assigns codes automatically, or through
    :func:`repro.data.io.read_fimi`.
    """

    __slots__ = ("transactions", "n_items", "item_labels", "_label_to_code", "_vertical")

    def __init__(
        self,
        transactions: Sequence[int],
        n_items: int,
        item_labels: Optional[Sequence[Hashable]] = None,
    ) -> None:
        if n_items < 0:
            raise ValueError(f"n_items must be non-negative, got {n_items}")
        if item_labels is not None and len(item_labels) != n_items:
            raise ValueError(
                f"item_labels has {len(item_labels)} entries, expected {n_items}"
            )
        transactions = list(transactions)
        limit = 1 << n_items
        for position, mask in enumerate(transactions):
            if not isinstance(mask, int) or mask < 0:
                raise TypeError(
                    f"transaction {position} is not a non-negative bitmask: {mask!r}"
                )
            if mask >= limit:
                raise ValueError(
                    f"transaction {position} references items beyond the "
                    f"item base of size {n_items}"
                )
        self.transactions: List[int] = transactions
        self.n_items = n_items
        self.item_labels: List[Hashable] = (
            list(item_labels) if item_labels is not None else list(range(n_items))
        )
        self._label_to_code: Optional[Dict[Hashable, int]] = None
        self._vertical: Optional[List[int]] = None

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_iterable(
        cls,
        transactions: Iterable[Iterable[Hashable]],
        item_order: Optional[Sequence[Hashable]] = None,
    ) -> "TransactionDatabase":
        """Build a database from an iterable of item collections.

        Item codes are assigned in ``item_order`` if given, otherwise in
        first-appearance order; the item base is implicitly the union of
        all transactions (as the paper notes is common practice).

        >>> db = TransactionDatabase.from_iterable([["a", "b"], ["b", "c"]])
        >>> db.n_transactions, db.n_items
        (2, 3)
        """
        label_to_code: Dict[Hashable, int] = {}
        labels: List[Hashable] = []
        if item_order is not None:
            for label in item_order:
                if label in label_to_code:
                    raise ValueError(f"duplicate label in item_order: {label!r}")
                label_to_code[label] = len(labels)
                labels.append(label)
        masks: List[int] = []
        for transaction in transactions:
            mask = 0
            for label in transaction:
                code = label_to_code.get(label)
                if code is None:
                    if item_order is not None:
                        raise ValueError(
                            f"transaction item {label!r} missing from item_order"
                        )
                    code = len(labels)
                    label_to_code[label] = code
                    labels.append(label)
                mask |= 1 << code
            masks.append(mask)
        db = cls(masks, len(labels), labels)
        db._label_to_code = label_to_code
        return db

    @classmethod
    def from_masks(
        cls,
        masks: Sequence[int],
        n_items: Optional[int] = None,
        item_labels: Optional[Sequence[Hashable]] = None,
    ) -> "TransactionDatabase":
        """Build a database directly from bitmasks.

        If ``n_items`` is omitted it is inferred from the highest item
        used in any transaction.
        """
        masks = list(masks)
        if n_items is None:
            n_items = max((m.bit_length() for m in masks), default=0)
        return cls(masks, n_items, item_labels)

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------

    @property
    def n_transactions(self) -> int:
        """Number of transactions (the ``n`` of the paper)."""
        return len(self.transactions)

    def __len__(self) -> int:
        return len(self.transactions)

    def __iter__(self) -> Iterator[int]:
        return iter(self.transactions)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TransactionDatabase):
            return NotImplemented
        return (
            self.transactions == other.transactions
            and self.n_items == other.n_items
            and self.item_labels == other.item_labels
        )

    def __repr__(self) -> str:
        return (
            f"TransactionDatabase(n_transactions={self.n_transactions}, "
            f"n_items={self.n_items})"
        )

    def label_of(self, code: int) -> Hashable:
        """User-facing label of an item code."""
        return self.item_labels[code]

    def code_of(self, label: Hashable) -> int:
        """Item code of a user-facing label (KeyError if unknown)."""
        if self._label_to_code is None:
            self._label_to_code = {
                lab: code for code, lab in enumerate(self.item_labels)
            }
        return self._label_to_code[label]

    def encode(self, items: Iterable[Hashable]) -> int:
        """Encode a collection of labels as a bitmask item set."""
        return itemset.from_indices(self.code_of(label) for label in items)

    def decode(self, mask: int) -> Tuple[Hashable, ...]:
        """Decode a bitmask item set into a tuple of labels (code order)."""
        return itemset.canonical_tuple(mask, self.item_labels)

    # ------------------------------------------------------------------
    # Derived representations
    # ------------------------------------------------------------------

    def vertical(self) -> List[int]:
        """Per-item transaction-index bitmasks (the vertical representation).

        ``vertical()[i]`` has bit ``k`` set iff item ``i`` is in
        transaction ``k``.  Computed once and cached.
        """
        if self._vertical is None:
            tid_masks = [0] * self.n_items
            for tid, transaction in enumerate(self.transactions):
                bit = 1 << tid
                remaining = transaction
                while remaining:
                    low = remaining & -remaining
                    tid_masks[low.bit_length() - 1] |= bit
                    remaining ^= low
            self._vertical = tid_masks
        return self._vertical

    def item_supports(self) -> List[int]:
        """Support of each single item, indexed by item code.

        Counted per transaction from the masks' bytes, a chunk of
        transactions at a time; the vertical form is not built for it.
        """
        if not self.n_items:
            return []
        width = (self.n_items + 7) // 8
        supports = np.zeros(self.n_items, np.int64)
        step = max(1, _COUNT_CHUNK // width)
        for first in range(0, self.n_transactions, step):
            chunk = b"".join(
                mask.to_bytes(width, "little")
                for mask in self.transactions[first : first + step]
            )
            rows = np.frombuffer(chunk, np.uint8).reshape(-1, width)
            bits = np.unpackbits(rows, axis=1, count=self.n_items, bitorder="little")
            supports += bits.sum(axis=0, dtype=np.int64)
        return supports.tolist()

    def cover(self, mask: int) -> int:
        """Cover ``K_T(I)`` of an item set as a tid bitmask (Section 2.1).

        The cover of the empty set is all transactions.
        """
        all_tids = (1 << self.n_transactions) - 1
        result = all_tids
        vertical = self.vertical()
        remaining = mask
        while remaining and result:
            low = remaining & -remaining
            result &= vertical[low.bit_length() - 1]
            remaining ^= low
        return result

    def support(self, mask: int) -> int:
        """Support ``s_T(I)`` — the size of the cover."""
        return itemset.size(self.cover(mask))

    def density(self) -> float:
        """Fraction of set bits in the transaction/item matrix."""
        cells = self.n_transactions * self.n_items
        if cells == 0:
            return 0.0
        ones = sum(itemset.size(t) for t in self.transactions)
        return ones / cells

    def transaction_sizes(self) -> List[int]:
        """Number of items per transaction, in database order."""
        return [itemset.size(t) for t in self.transactions]

    # ------------------------------------------------------------------
    # Filtering / restructuring
    # ------------------------------------------------------------------

    def without_empty(self) -> "TransactionDatabase":
        """Copy with empty transactions dropped."""
        return TransactionDatabase(
            [t for t in self.transactions if t], self.n_items, self.item_labels
        )

    def filter_items(self, keep_mask: int) -> "TransactionDatabase":
        """Restrict all transactions to the items in ``keep_mask``.

        The item base is compacted: kept items are re-coded to
        ``0 .. k-1`` preserving relative order, and labels follow.
        """
        kept = itemset.to_indices(keep_mask)
        new_code = {old: new for new, old in enumerate(kept)}
        masks = []
        for transaction in self.transactions:
            reduced = transaction & keep_mask
            mask = 0
            remaining = reduced
            while remaining:
                low = remaining & -remaining
                mask |= 1 << new_code[low.bit_length() - 1]
                remaining ^= low
            masks.append(mask)
        labels = [self.item_labels[old] for old in kept]
        return TransactionDatabase(masks, len(kept), labels)

    def filter_infrequent(self, smin: int) -> "TransactionDatabase":
        """Drop items with support below ``smin`` (standard first pass)."""
        supports = self.item_supports()
        keep = 0
        for code, support in enumerate(supports):
            if support >= smin:
                keep |= 1 << code
        return self.filter_items(keep)

    def select_transactions(self, tids: Sequence[int]) -> "TransactionDatabase":
        """Copy containing the transactions at the given indices, in order."""
        return TransactionDatabase(
            [self.transactions[tid] for tid in tids], self.n_items, self.item_labels
        )

    def as_sets(self) -> List[Tuple[Hashable, ...]]:
        """All transactions as tuples of labels (for display / export)."""
        return [self.decode(t) for t in self.transactions]
