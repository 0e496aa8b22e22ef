"""Flat cumulative intersection — the scheme of Mielikäinen [14].

This is the baseline the IsTa prefix tree is measured against in the
paper ("the execution times are vastly larger than those of our
implementation (often exceeding a factor of 100) ... due to the fact
that this implementation does not employ a prefix tree, but a simple
flat structure").

The repository is a plain hash map ``item set -> support``.  Processing
a transaction ``t`` realises the recursive relation (1) directly:

    ``C(T ∪ {t}) = C(T) ∪ {t} ∪ { s ∩ t : s ∈ C(T) }``

with the support of each new intersection obtained as
``1 + max`` over the supports of the repository sets producing it
(the flat analogue of the prefix tree's step-flagged maximum rule).

The optional item elimination mirrors IsTa's: items whose remaining
occurrences cannot lift any current set to the threshold are removed
from repository sets (re-keying the map) and masked from future
transactions.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..closure.verify import refine_anytime
from ..common import finalize, prepare_for_mining
from ..data.database import TransactionDatabase
from ..kernels import resolve_backend
from ..obs import resolve_probe
from ..result import MiningResult
from ..runtime import MiningInterrupted, RunGuard, checker
from ..stats import OperationCounters

__all__ = ["mine_cumulative"]


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

    ``guard`` is polled per transaction and inside the repository scan
    (the loop that explodes on unfavourable inputs); on interruption
    the repository is salvaged through
    :func:`repro.closure.verify.refine_anytime` and attached to the
    exception as an anytime result.  ``backend`` selects the
    set-algebra kernel (:mod:`repro.kernels`) for the pruning counts;
    the repository scan itself is a plain loop on every backend (a
    resident packed repository was measured slower end to end).
    """
    obs = resolve_probe(probe)
    kernel = obs.wrap_kernel(resolve_backend(backend))
    with obs.phase("recode", algorithm="cumulative-flat"):
        prepared, code_map = prepare_for_mining(
            db, smin, item_order=item_order, transaction_order=transaction_order
        )
    counters = obs.ensure_counters(counters)
    check = checker(guard, counters)
    transactions = prepared.transactions
    n_items = prepared.n_items

    remaining = [0] * n_items
    if prune:
        remaining = kernel.column_counts(transactions, n_items)
        if prune_interval < 1:
            raise ValueError(f"prune_interval must be positive, got {prune_interval}")

    repository: Dict[int, int] = {}
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
                # Support of every intersection: 1 (for t itself) + the
                # largest support among the repository sets producing it.
                updates: Dict[int, int] = {transaction: 0}
                # The repository can grow exponentially on unfavourable
                # inputs; one transaction's scan may then outlast the
                # whole budget, so the guard is polled per stored set.
                for stored, support in repository.items():
                    check()
                    counters.intersections += 1
                    intersection = stored & transaction
                    if intersection:
                        best = updates.get(intersection)
                        if best is None or support > best:
                            updates[intersection] = support
                for intersection, support in updates.items():
                    repository[intersection] = support + 1
                    counters.support_updates += 1
                counters.observe_repository_size(len(repository))
                processed += 1

                if prune:
                    mask = transaction
                    while mask:
                        low = mask & -mask
                        remaining[low.bit_length() - 1] -= 1
                        mask ^= low
                    if (index + 1) % prune_interval == 0 and index + 1 < len(
                        transactions
                    ):
                        _prune_repository(repository, remaining, smin, counters)
    except MiningInterrupted as exc:
        exc.attach_partial(
            lambda: refine_anytime(
                db,
                finalize(
                    ((m, s) for m, s in repository.items() if s >= smin),
                    code_map,
                    db,
                    "cumulative-flat",
                    smin,
                ),
                smin,
            ),
            algorithm="cumulative-flat",
            processed=processed,
        )
        obs.record_counters(counters)
        raise

    def _report():
        for mask, supp in repository.items():
            if supp >= smin:
                counters.reports += 1
                yield mask, supp

    with obs.phase("report", algorithm="cumulative-flat"):
        result = finalize(_report(), code_map, db, "cumulative-flat", smin)
    obs.record_counters(counters)
    return result


def _prune_repository(
    repository: Dict[int, int],
    remaining: list,
    smin: int,
    counters: OperationCounters,
) -> None:
    """Remove deficient items from repository sets (the paper's rule).

    For a set with support ``x``, every member item ``i`` with
    ``x + remaining[i] < smin`` is removed; sets collapsing onto an
    existing key keep the larger support (the same witness argument as
    for the prefix tree splice).
    """
    rebuilt: Dict[int, int] = {}
    for stored, support in repository.items():
        drop = 0
        mask = stored
        while mask:
            low = mask & -mask
            item = low.bit_length() - 1
            if support + remaining[item] < smin:
                drop |= low
            mask ^= low
        if drop:
            counters.items_eliminated += 1
            stored &= ~drop
        if not stored:
            counters.nodes_pruned += 1
            continue
        existing = rebuilt.get(stored)
        if existing is None:
            rebuilt[stored] = support
        else:
            counters.nodes_merged += 1
            if support > existing:
                rebuilt[stored] = support
    repository.clear()
    repository.update(rebuilt)
