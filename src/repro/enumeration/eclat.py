"""Eclat [22] — depth-first search on a vertical representation.

The divide-and-conquer scheme of Section 2.2 of the paper, with the
database held vertically: each item carries the bitmask of the indices
of the transactions containing it, and extending a prefix by an item is
one AND of tid masks.

Three targets:

* ``"all"`` — every frequent item set (plain recursion);
* ``"closed"`` — the CHARM scheme: perfect extensions are absorbed
  into the prefix, and a support-bucketed subsumption check against the
  already-found closed sets prunes non-closed prefixes together with
  their entire subtrees;
* ``"maximal"`` — closed sets filtered to maximal ones.

The extension step — intersect the current tid mask with every
remaining candidate's and count the survivors — is the hot loop.  On
every backend the sibling family lives as a *resident* packed
table (:meth:`repro.kernels.base.KernelBackend.pack` once at the root),
each node narrows it with one table-in/table-out
:meth:`~repro.kernels.base.KernelBackend.intersect_count_table_bounded`
call (``smin`` pushed down: infrequent joints settle early and never
leave the packed domain), and the surviving rows become the child's
table via :meth:`~repro.kernels.base.KernelBackend.select_rows` —
tid masks cross the int boundary only once per node, for the
intersection probe itself.  Note that for a candidate
``joint ⊆ tids``, ``joint == tids`` iff their popcounts agree, which is
how the closed path detects perfect extensions from the
support vector alone (a below-``smin`` sentinel can never equal the
node support, which is ``>= smin`` by construction).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..common import finalize, prepare_for_mining
from ..data import itemset
from ..data.database import TransactionDatabase
from ..kernels import KernelBackend, resolve_backend
from ..obs import resolve_probe
from ..result import MiningResult
from ..runtime import MiningInterrupted, RunGuard, checker
from ..stats import OperationCounters
from .closedness import ClosedSetStore

__all__ = ["mine_eclat"]


def mine_eclat(
    db: TransactionDatabase,
    smin: int,
    target: str = "closed",
    item_order: str = "frequency-ascending",
    counters: Optional[OperationCounters] = None,
    guard: Optional[RunGuard] = None,
    backend=None,
    probe=None,
) -> MiningResult:
    """Mine frequent item sets with Eclat.

    ``target`` is one of ``"all"``, ``"closed"``, ``"maximal"``.
    ``guard`` is polled at every search node; the sets found before an
    interruption (exact supports; genuinely closed for the closed
    target) are attached to the exception as an anytime result.
    ``backend`` selects the set-algebra kernel (:mod:`repro.kernels`)
    that batches the tid-mask intersections of each extension family.
    """
    if target not in ("all", "closed", "maximal"):
        raise ValueError(f"unknown target {target!r}")
    obs = resolve_probe(probe)
    kernel = obs.wrap_kernel(resolve_backend(backend))
    with obs.phase("recode", algorithm="eclat"):
        prepared, code_map = prepare_for_mining(
            db, smin, item_order=item_order, transaction_order="identity"
        )
    counters = obs.ensure_counters(counters)

    tid_masks = prepared.vertical()
    n = prepared.n_transactions
    n_items = prepared.n_items
    items = [
        (code, tid_masks[code])
        for code in range(n_items)
        if itemset.size(tid_masks[code]) >= smin
    ]

    check = checker(guard, counters)
    if target == "all":
        pairs: List[Tuple[int, int]] = []
        try:
            with obs.phase("mine", algorithm="eclat", target=target):
                _mine_all(items, pairs, smin, n, kernel, counters, check)
        except MiningInterrupted as exc:
            exc.attach_partial(
                lambda: finalize(pairs, code_map, db, "eclat", smin),
                algorithm="eclat",
            )
            obs.record_counters(counters)
            raise
        with obs.phase("report", algorithm="eclat"):
            result = finalize(pairs, code_map, db, "eclat", smin)
    else:
        store = ClosedSetStore(counters)
        try:
            with obs.phase("mine", algorithm="eclat", target=target):
                _mine_closed(items, store, smin, n, kernel, counters, check)
        except MiningInterrupted as exc:
            exc.attach_partial(
                lambda: finalize(store.pairs(), code_map, db, "eclat-closed", smin),
                algorithm="eclat",
            )
            obs.record_counters(counters)
            raise
        with obs.phase("report", algorithm="eclat"):
            result = finalize(store.pairs(), code_map, db, "eclat-closed", smin)
            if target == "maximal":
                result = result.maximal()
                result.algorithm = "eclat-maximal"
    obs.record_counters(counters)
    return result


def _mine_all(
    items: List[Tuple[int, int]],
    pairs: List[Tuple[int, int]],
    smin: int,
    n_transactions: int,
    kernel: KernelBackend,
    counters: OperationCounters,
    check,
) -> None:
    """Plain Eclat over resident packed tid tables.

    Frames hold the sibling family as a packed table plus the aligned
    item codes and supports; each node narrows the tail with one
    bounded table-in/table-out call, and survivors are gathered into
    the child's table without ever unpacking the tid masks.
    """
    if not items:
        return
    codes = [code for code, _ in items]
    table = kernel.pack([tids for _, tids in items], n_transactions)
    supports = kernel.popcount_rows(table)
    stack = [(0, codes, table, supports)]
    while stack:
        prefix, codes, table, supports = stack.pop()
        for index, item in enumerate(codes):
            check()
            counters.recursion_calls += 1
            support = supports[index]
            mask = prefix | (1 << item)
            pairs.append((mask, support))
            counters.reports += 1
            tail_len = len(codes) - index - 1
            if not tail_len:
                continue
            counters.intersections += tail_len
            tids = kernel.table_row(table, index)
            joint_table, joint_supports = kernel.intersect_count_table_bounded(
                table, tids, smin, start=index + 1
            )
            keep = [
                position
                for position, joint_support in enumerate(joint_supports)
                if joint_support >= smin
            ]
            if keep:
                stack.append(
                    (
                        mask,
                        [codes[index + 1 + position] for position in keep],
                        kernel.select_rows(joint_table, keep),
                        [joint_supports[position] for position in keep],
                    )
                )


def _mine_closed(
    items: List[Tuple[int, int]],
    store: ClosedSetStore,
    smin: int,
    n_transactions: int,
    kernel: KernelBackend,
    counters: OperationCounters,
    check,
) -> None:
    """CHARM-style closed mining over resident packed tid tables.

    Iterative depth-first search with *resumable* frames: a branch's
    whole subtree must be explored before its right siblings, because
    the subsumption check relies on all closed supersets reachable
    through earlier items having been stored already.  The sibling tid
    family stays packed across levels.  Every frame support is
    ``>= smin`` by construction, so the bounded call's below-threshold
    sentinel (-1) can never be mistaken for a perfect extension
    (``joint_support == support``).
    """
    if not items:
        return
    codes = [code for code, _ in items]
    table = kernel.pack([tids for _, tids in items], n_transactions)
    supports = kernel.popcount_rows(table)
    stack: List[List] = [[0, codes, table, supports, 0]]
    while stack:
        check()
        frame = stack[-1]
        current, codes, table, supports, index = frame
        if index >= len(codes):
            stack.pop()
            continue
        frame[4] = index + 1
        item = codes[index]
        counters.recursion_calls += 1
        support = supports[index]
        candidate = current | (1 << item)
        tail_len = len(codes) - index - 1
        keep: List[int] = []
        joint_table = None
        joint_supports: List[int] = []
        if tail_len:
            counters.intersections += tail_len
            tids = kernel.table_row(table, index)
            joint_table, joint_supports = kernel.intersect_count_table_bounded(
                table, tids, smin, start=index + 1
            )
            # joint ⊆ tids, so joint == tids iff the popcounts agree.
            for position, joint_support in enumerate(joint_supports):
                if joint_support == support:
                    candidate |= 1 << codes[index + 1 + position]
                elif joint_support >= smin:
                    keep.append(position)
        counters.containment_checks += 1
        if store.subsumed(candidate, support):
            # The closure contains an item from an earlier branch;
            # every set in this subtree is likewise non-closed.
            continue
        store.add(candidate, support)
        counters.reports += 1
        if keep:
            stack.append(
                [
                    candidate,
                    [codes[index + 1 + position] for position in keep],
                    kernel.select_rows(joint_table, keep),
                    [joint_supports[position] for position in keep],
                    0,
                ]
            )
