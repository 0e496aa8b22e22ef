"""Flat cumulative intersection — the scheme of Mielikäinen [14].

This is the baseline the IsTa prefix tree is measured against in the
paper ("the execution times are vastly larger than those of our
implementation (often exceeding a factor of 100) ... due to the fact
that this implementation does not employ a prefix tree, but a simple
flat structure").

The repository is a flat collection of ``item set -> support`` rows
with no prefix sharing.  Processing a transaction ``t`` realises the
recursive relation (1) directly:

    ``C(T ∪ {t}) = C(T) ∪ {t} ∪ { s ∩ t : s ∈ C(T) }``

with the support of each new intersection obtained as
``1 + max`` over the supports of the repository sets producing it
(the flat analogue of the prefix tree's step-flagged maximum rule).

The rows live in a resident sparse table (:class:`_Repository`):
per-item posting lists of row ids, per-row support and size, and each
row's item codes.  One transaction's scan

1. concatenates the posting lists of ``t``'s items, so every row
   meeting ``t`` appears once per shared item;
2. projects each such row onto ``t``'s own items as an exact
   ``ceil(|t| / 64)``-word key (bit ``k`` is the ``k``-th item of
   ``t``), built with ``np.add.at``;
3. groups equal keys with one ``lexsort`` and reduces each group to
   its maximum support.

A group's intersection is already stored iff one of its rows lies
wholly inside ``t`` (it keeps as many items as it has); that row's
support is raised, every other group becomes a new row, read off one
of its rows and ``t``.  Rows disjoint from ``t`` are never touched,
yet ``intersections`` still grows by the whole repository per
transaction, as the set-at-a-time loop of [14] counts it: the count of
intersections is unchanged and only their constant factor differs.
The scan runs on numpy on every kernel backend; item-set masks
(Python ints) are built only for the report and for an interrupted
run's salvage.

The guard ticks once per stored set, in blocks of at most ``_BLOCK``
rows that are grouped separately and merged, so a deadline or memory
trip waits for one block, never for a whole-repository pass.

The optional item elimination mirrors IsTa's: items whose remaining
occurrences cannot lift any current set to the threshold are removed
from repository sets (merging rows that collapse onto one set) and
masked from future transactions.
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Optional, Tuple

import numpy as np

from ..closure.verify import refine_anytime
from ..common import finalize, prepare_for_mining
from ..data import itemset
from ..data.database import TransactionDatabase
from ..kernels import resolve_backend
from ..obs import resolve_probe
from ..result import MiningResult
from ..runtime import MiningInterrupted, RunGuard, checker
from ..stats import OperationCounters

__all__ = ["mine_cumulative"]

#: Rows scanned between two guard polls.
_BLOCK = 1 << 16
#: Row ids and item codes.  A row costs at least 32 bytes of table, so
#: 2**31 rows (64 GB) are out of reach long before the type overflows.
_CODE = np.int32


def mine_cumulative(
    db: TransactionDatabase,
    smin: int,
    item_order: str = "frequency-ascending",
    transaction_order: str = "size-ascending",
    prune: bool = False,
    prune_interval: int = 16,
    counters: Optional[OperationCounters] = None,
    guard: Optional[RunGuard] = None,
    backend=None,
    probe=None,
) -> MiningResult:
    """Mine closed frequent item sets with the flat cumulative scheme.

    Pruning is off by default: the point of this miner is to reproduce
    the unimproved [14] baseline.  Turning ``prune`` on gives the
    "flat structure + item elimination" middle ground for ablations.

    ``guard`` is polled per transaction and ticked once per stored set
    the scan covers (the loop that explodes on unfavourable inputs);
    on interruption the repository is salvaged through
    :func:`repro.closure.verify.refine_anytime` and attached to the
    exception as an anytime result.  ``backend`` selects the
    set-algebra kernel (:mod:`repro.kernels`) for the pruning counts;
    the repository scan is the sparse table of :class:`_Repository` on
    every backend.
    """
    obs = resolve_probe(probe)
    kernel = obs.wrap_kernel(resolve_backend(backend))
    with obs.phase("recode", algorithm="cumulative-flat"):
        prepared, code_map = prepare_for_mining(
            db, smin, item_order=item_order, transaction_order=transaction_order
        )
    counters = obs.ensure_counters(counters)
    check = checker(guard, counters)
    tick = guard.tick if guard is not None else _skip
    transactions = prepared.transactions
    n_items = prepared.n_items

    if prune:
        if prune_interval < 1:
            raise ValueError(f"prune_interval must be positive, got {prune_interval}")
        remaining = np.array(kernel.column_counts(transactions, n_items), np.int64)

    repository = _Repository(n_items)
    processed = 0
    try:
        with obs.phase(
            "mine", algorithm="cumulative-flat", transactions=len(transactions)
        ):
            for index, transaction in enumerate(transactions):
                check()
                if not transaction:
                    processed += 1
                    continue
                items = np.array(itemset.to_indices(transaction), _CODE)
                counters.intersections += repository.n_rows
                counters.support_updates += repository.add(items, tick)
                counters.observe_repository_size(repository.n_rows)
                processed += 1

                if prune:
                    remaining[items] -= 1
                    if (index + 1) % prune_interval == 0 and index + 1 < len(
                        transactions
                    ):
                        repository = repository.pruned(remaining, smin, counters)
    except MiningInterrupted as exc:
        exc.attach_partial(
            lambda: refine_anytime(
                db,
                finalize(repository.pairs(smin), code_map, db, "cumulative-flat", smin),
                smin,
            ),
            algorithm="cumulative-flat",
            processed=processed,
        )
        obs.record_counters(counters)
        raise

    def _report():
        for mask, supp in repository.pairs(smin):
            counters.reports += 1
            yield mask, supp

    with obs.phase("report", algorithm="cumulative-flat"):
        result = finalize(_report(), code_map, db, "cumulative-flat", smin)
    obs.record_counters(counters)
    return result


def _skip(n: int) -> None:
    return None


def _extend(buffer: np.ndarray, used: int, values: np.ndarray) -> np.ndarray:
    """``buffer`` with ``values`` written from ``used`` on; a buffer too
    small is copied into one of twice the size needed."""
    need = used + len(values)
    if need > len(buffer):
        grown = np.empty(2 * need, buffer.dtype)
        grown[:used] = buffer[:used]
        buffer = grown
    buffer[used:need] = values
    return buffer


class _Repository:
    """The flat repository as a sparse table (see the module docstring).

    Row ``r`` holds the item codes ``items[start[r]:start[r + 1]]``
    (ascending) with ``support[r]``; ``postings[i][:posting_len[i]]``
    lists, ascending, the rows holding item ``i``.  Every array is a
    buffer grown geometrically; only the first ``n_rows`` rows are live.
    """

    __slots__ = ("n_rows", "support", "size", "start", "items", "postings", "posting_len")

    def __init__(self, n_items: int) -> None:
        self.n_rows = 0
        self.support = np.zeros(0, np.int64)
        self.size = np.zeros(0, np.int64)
        self.start = np.zeros(1, np.int64)
        self.items = np.zeros(0, _CODE)
        self.postings: List[np.ndarray] = [np.zeros(0, _CODE)] * n_items
        self.posting_len = np.zeros(n_items, np.int64)

    def add(self, items: np.ndarray, tick: Callable[[int], None]) -> int:
        """Intersect every row with the transaction ``items`` (ascending
        codes) and fold the results in; returns the number of support
        updates (distinct nonempty intersections, ``t`` itself included).

        ``tick(n)`` is called once per block before its ``n`` rows are
        scanned; the table is changed only after the whole scan, so an
        interruption leaves it as the previous transaction left it.
        """
        m = len(items)
        words = (m + 63) >> 6
        lengths = self.posting_len[items]
        postings = self.postings
        rows = np.concatenate(
            [postings[item][:n] for item, n in zip(items.tolist(), lengths.tolist())]
        )
        where = np.repeat(np.arange(m), lengths)
        starts = range(0, self.n_rows, _BLOCK)
        bounds = [0, len(rows)]
        if len(starts) > 1:
            # Block numbers fit 16 bits (rows < 2**31), so the stable
            # sort below is a radix sort.
            block = (rows // _BLOCK).astype(np.int16)
            order = np.argsort(block, kind="stable")
            rows, where = rows[order], where[order]
            cuts = np.searchsorted(block[order], np.arange(1, len(starts)))
            bounds = [0, *cuts.tolist(), len(rows)]
        parts = []
        for index, first in enumerate(starts):
            span = min(_BLOCK, self.n_rows - first)
            tick(span)
            lo, hi = bounds[index], bounds[index + 1]
            if lo < hi:
                parts.append(self._project(first, span, rows[lo:hi], where[lo:hi], words))

        whole = np.full(words, ~np.uint64(0))
        if m & 63:
            whole[-1] = np.uint64((1 << (m & 63)) - 1)
        if len(parts) > 1:
            parts = [_groups(*(np.concatenate(part, axis=-1) for part in zip(*parts)))]
        keys, best, rep, stored = parts[0] if parts else _no_groups(words)
        # ``t`` itself, the seed of the update with support 0 + 1, unless
        # it already arises as an intersection.
        seed = not (keys == whole[:, None]).all(axis=0).any()
        fresh = stored < 0
        self.support[stored[~fresh]] = best[~fresh] + 1
        self._append(rep[fresh], best[fresh] + 1, items, seed)
        return len(stored) + seed

    def _project(
        self, first: int, span: int, rows: np.ndarray, where: np.ndarray, words: int
    ) -> Tuple[np.ndarray, ...]:
        """Groups of rows ``first .. first + span - 1`` meeting ``t``.

        ``rows``/``where`` are the posting entries of the block: a row id
        and the position in ``t`` of the item it shares.  Returns the
        ``_groups`` of the rows' projections onto ``t``.
        """
        local = rows - first
        kept = np.bincount(local, minlength=span)
        touched = np.flatnonzero(kept)
        compact = np.empty(span, np.intp)
        compact[touched] = np.arange(len(touched))
        keys = np.zeros(words * len(touched), np.uint64)
        np.add.at(
            keys,
            (where >> 6) * len(touched) + compact[local],
            np.left_shift(np.uint64(1), (where & 63).astype(np.uint64)),
        )
        ids = touched + first
        inside = kept[touched] == self.size[ids]
        return _groups(
            keys.reshape(words, len(touched)),
            self.support[ids],
            ids,
            np.where(inside, ids, -1),
        )

    def _append(
        self, rep: np.ndarray, support: np.ndarray, items: np.ndarray, seed: bool
    ) -> None:
        """Append the intersections of rows ``rep`` with the transaction
        ``items``, with ``support``, and ``items`` itself (support 1) if
        ``seed``."""
        in_t = np.zeros(len(self.postings), bool)
        in_t[items] = True
        # The item codes of the rows ``rep``, row after row.
        size = self.size[rep]
        offsets = np.repeat(self.start[rep] - np.cumsum(size) + size, size)
        codes = self.items[offsets + np.arange(len(offsets))]
        keep = in_t[codes]
        owner = np.repeat(np.arange(len(rep)), size)[keep]
        codes = codes[keep]
        if seed:
            owner = np.append(owner, np.full(len(items), len(rep)))
            codes = np.append(codes, items)
            support = np.append(support, 1)
        size = np.bincount(owner, minlength=len(support))
        self._load(owner + self.n_rows, codes, support, size)

    def _load(
        self, owner: np.ndarray, items: np.ndarray, support: np.ndarray, size: np.ndarray
    ) -> None:
        """Append rows ``n_rows ..``: entry ``k`` puts ``items[k]`` in row
        ``owner[k]`` (row-major, ascending items within a row)."""
        if not len(support):
            return
        first = self.n_rows
        self.n_rows += len(support)
        self.support = _extend(self.support, first, support)
        self.size = _extend(self.size, first, size)
        used = int(self.start[first])
        self.start = _extend(self.start, first + 1, used + np.cumsum(size))
        self.items = _extend(self.items, used, items)
        # Two stable radix passes over 16-bit halves order the entries
        # by item, rows ascending within an item.
        order = np.argsort((items & 0xFFFF).astype(np.uint16), kind="stable")
        order = order[np.argsort((items[order] >> 16).astype(np.uint16), kind="stable")]
        owner, items = owner[order].astype(_CODE), items[order]
        starts = np.flatnonzero(np.diff(items, prepend=-1))
        heads = items[starts]
        stops = np.append(starts[1:], len(items))
        postings, lengths = self.postings, self.posting_len
        for item, lo, hi, used in zip(
            heads.tolist(), starts.tolist(), stops.tolist(), lengths[heads].tolist()
        ):
            postings[item] = _extend(postings[item], used, owner[lo:hi])
        lengths[heads] += stops - starts

    def pruned(
        self, remaining: np.ndarray, smin: int, counters: OperationCounters
    ) -> "_Repository":
        """The table with deficient items removed from its rows (the
        paper's rule); ``self`` when nothing is removed.

        For a row with support ``x``, every member item ``i`` with
        ``x + remaining[i] < smin`` is removed; rows collapsing onto one
        set keep the larger support (the same witness argument as for
        the prefix tree splice).
        """
        n = self.n_rows
        owner = np.repeat(np.arange(n), self.size[:n])
        items = self.items[: self.start[n]]
        drop = self.support[:n][owner] + remaining[items] < smin
        if not drop.any():
            return self
        counters.items_eliminated += len(np.unique(owner[drop]))
        owner, items = owner[~drop], items[~drop]
        size = np.bincount(owner, minlength=n)
        start = np.concatenate([[0], np.cumsum(size)])
        merged = {}
        for row in np.flatnonzero(size).tolist():
            key = items[start[row] : start[row + 1]].tobytes()
            other = merged.get(key)
            if other is None:
                merged[key] = row
            else:
                counters.nodes_merged += 1
                if self.support[row] > self.support[other]:
                    merged[key] = row
        counters.nodes_pruned += n - int(np.count_nonzero(size))
        rows = np.sort(np.fromiter(merged.values(), np.int64, len(merged)))
        chosen = np.zeros(n, bool)
        chosen[rows] = True
        size = size[rows]
        table = _Repository(len(self.postings))
        renumbered = np.repeat(np.arange(len(rows)), size)
        table._load(renumbered, items[chosen[owner]], self.support[rows], size)
        return table

    def pairs(self, smin: int) -> Iterator[Tuple[int, int]]:
        """``(mask, support)`` of every row with ``support >= smin``."""
        support, start = self.support, self.start
        for row in np.flatnonzero(support[: self.n_rows] >= smin).tolist():
            codes = self.items[start[row] : start[row + 1]].tolist()
            yield itemset.from_indices(codes), int(support[row])


def _groups(
    keys: np.ndarray, support: np.ndarray, rep: np.ndarray, stored: np.ndarray
) -> Tuple[np.ndarray, ...]:
    """Collapse the equal columns of ``keys`` (``words x n``).

    Returns per distinct key: the key, the maximum support, one
    representative row and the stored row equal to the key (the largest
    of ``stored``, where ``-1`` marks "not stored").
    """
    order = np.lexsort(keys)
    keys = keys[:, order]
    first = np.ones(len(order), bool)
    first[1:] = (keys[:, 1:] != keys[:, :-1]).any(axis=0)
    starts = np.flatnonzero(first)
    return (
        keys[:, starts],
        np.maximum.reduceat(support[order], starts),
        rep[order[starts]],
        np.maximum.reduceat(stored[order], starts),
    )


def _no_groups(words: int) -> Tuple[np.ndarray, ...]:
    """The empty result of :func:`_groups`."""
    empty = np.zeros(0, np.int64)
    return np.zeros((words, 0), np.uint64), empty, empty, empty
