"""List-based Carpenter (Section 3.1.1).

Enumerates transaction index sets depth-first — include ``t_l`` before
excluding it, which is what makes the repository backward-check sound —
and intersects along the way.  The per-item machinery of the original
(vertical tid arrays with moving read pointers) appears here as sorted
tid lists consulted through binary search for the remaining-occurrence
counts; the intersections themselves are single bitmask ANDs, the
Python stand-in for the C pointer walk.

Improvements from the paper, all on by default and all ablatable:

* repository backward check (either backend of
  :mod:`repro.carpenter.repository`),
* the perfect-extension analogue — if ``I1 == I0`` the exclude branch
  cannot produce output and is skipped,
* item elimination — item ``i`` is dropped from the running
  intersection as soon as ``|K| + |{j >= l : i in t_j}| < smin``.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import List, Optional

from ..common import finalize, prepare_for_mining
from ..data.database import TransactionDatabase
from ..kernels import resolve_backend
from ..obs import resolve_probe
from ..result import MiningResult
from ..runtime import MiningInterrupted, RunGuard, checker
from ..stats import OperationCounters
from .repository import make_repository

__all__ = ["mine_carpenter_lists"]


def mine_carpenter_lists(
    db: TransactionDatabase,
    smin: int,
    item_order: str = "frequency-ascending",
    transaction_order: str = "size-ascending",
    repository_kind: str = "prefix-tree",
    eliminate_items: bool = True,
    perfect_extension: bool = True,
    counters: Optional[OperationCounters] = None,
    guard: Optional[RunGuard] = None,
    backend=None,
    probe=None,
) -> MiningResult:
    """Mine all closed frequent item sets with list-based Carpenter.

    ``guard`` is polled at every subproblem; on interruption the sets
    reported so far (all genuinely closed, with exact supports) are
    attached to the exception as an anytime result.  ``backend`` is
    accepted for API uniformity (validated, not used: a batched forward
    check over a packed transaction table lost end to end, and the
    search makes no kernel calls).
    """
    resolve_backend(backend)
    obs = resolve_probe(probe)
    with obs.phase("recode", algorithm="carpenter-lists"):
        prepared, code_map = prepare_for_mining(
            db, smin, item_order=item_order, transaction_order=transaction_order
        )
    counters = obs.ensure_counters(counters)
    transactions = prepared.transactions
    n = len(transactions)
    n_items = prepared.n_items
    if n == 0 or smin > n:
        obs.record_counters(counters)
        return finalize((), code_map, db, "carpenter-lists", smin)

    # Vertical representation: sorted tid list per item.  The remaining
    # count |{j >= l : i in t_j}| is len(list) - bisect_left(list, l).
    tid_lists: List[List[int]] = [[] for _ in range(n_items)]
    for tid, transaction in enumerate(transactions):
        mask = transaction
        while mask:
            low = mask & -mask
            tid_lists[low.bit_length() - 1].append(tid)
            mask ^= low

    repository = make_repository(repository_kind, n_items)
    full = (1 << n_items) - 1
    pairs: List[tuple] = []
    check = checker(guard, counters)

    # Explicit DFS stack of subproblems (I, |K|, l).  The exclude branch
    # is pushed first so the include branch is explored first (LIFO) —
    # required for the repository check to be sound.
    stack: List[tuple] = [(full, 0, 0)]
    try:
        with obs.phase("mine", algorithm="carpenter-lists", transactions=n):
            _search(
                stack, transactions, n, smin, tid_lists, repository, pairs,
                eliminate_items, perfect_extension, counters, check,
            )
    except MiningInterrupted as exc:
        exc.attach_partial(
            lambda: finalize(pairs, code_map, db, "carpenter-lists", smin),
            algorithm="carpenter-lists",
        )
        obs.record_counters(counters)
        raise
    with obs.phase("report", algorithm="carpenter-lists"):
        result = finalize(pairs, code_map, db, "carpenter-lists", smin)
    obs.record_counters(counters)
    return result


def _search(
    stack: List[tuple],
    transactions: List[int],
    n: int,
    smin: int,
    tid_lists: List[List[int]],
    repository,
    pairs: List[tuple],
    eliminate_items: bool,
    perfect_extension: bool,
    counters: OperationCounters,
    check,
) -> None:
    """The DFS over subproblems, separated so interruption can unwind it."""
    while stack:
        check()
        intersection, k, position = stack.pop()
        if position >= n or k + (n - position) < smin:
            # Even including every remaining transaction cannot reach
            # the minimum support.
            continue
        counters.recursion_calls += 1
        candidate = intersection & transactions[position]
        counters.intersections += 1

        if candidate and eliminate_items:
            candidate = _eliminate(
                candidate, k, position, smin, tid_lists, counters
            )

        skip_exclude = False
        if candidate:
            if perfect_extension and candidate == intersection:
                # t_position fully contains the running intersection: any
                # set found while excluding it would be contained in
                # t_position too and hence fail the closedness test.
                skip_exclude = True
            if k + 1 >= smin and candidate not in repository:
                counters.containment_checks += 1
                if not _contained_forward(
                    candidate, transactions, position + 1, counters
                ):
                    pairs.append((candidate, k + 1))
                    counters.reports += 1
                    repository.add(candidate)
                    counters.observe_repository_size(len(repository))
            if position + 1 < n:
                if not skip_exclude:
                    stack.append((intersection, k, position + 1))
                stack.append((candidate, k + 1, position + 1))
        elif position + 1 < n:
            stack.append((intersection, k, position + 1))


def _eliminate(
    candidate: int,
    k: int,
    position: int,
    smin: int,
    tid_lists: List[List[int]],
    counters: OperationCounters,
) -> int:
    """Drop items whose remaining occurrences cannot reach ``smin``."""
    result = candidate
    mask = candidate
    while mask:
        low = mask & -mask
        item = low.bit_length() - 1
        tids = tid_lists[item]
        remaining = len(tids) - bisect_left(tids, position)
        if k + remaining < smin:
            result ^= low
            counters.items_eliminated += 1
        mask ^= low
    return result


def _contained_forward(
    candidate: int,
    transactions: List[int],
    start: int,
    counters: OperationCounters,
) -> bool:
    """Is ``candidate`` contained in some transaction at index >= start?"""
    for transaction in transactions[start:]:
        counters.containment_checks += 1
        if candidate & ~transaction == 0:
            return True
    return False
