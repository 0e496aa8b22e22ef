"""Table-based Carpenter (Section 3.1.2, Table 1).

Same transaction-set enumeration as the list-based variant, but the
per-item tid lists and their moving read pointers are replaced by the
``n x |B|`` matrix of :func:`repro.data.matrix.build_matrix`:

* membership of item ``i`` in transaction ``t_l`` is ``M[l, i] != 0``;
* the remaining-occurrence count used by the item-elimination bound is
  the matrix entry itself, ``M[l, i] = |{ j >= l : i in t_j }|``.

So forming the intersection with the next transaction is mere row
indexing, and the elimination bound costs nothing extra — which is
exactly why the paper found this variant "somewhat better" than the
list-based one.

The matrix is held as plain nested lists (scalar indexing into a numpy
array would dominate the inner loop in CPython) and the elimination
bound is a per-item bit loop, on every kernel backend: a vectorised
column-count filter and a packed forward check were measured 2-3x
slower end to end, so the search makes no kernel calls.
"""

from __future__ import annotations

from typing import List, Optional

from ..common import finalize, prepare_for_mining
from ..data.database import TransactionDatabase
from ..data.matrix import build_matrix
from ..kernels import resolve_backend
from ..obs import resolve_probe
from ..result import MiningResult
from ..runtime import MiningInterrupted, RunGuard, checker
from ..stats import OperationCounters
from .list_based import _contained_forward
from .repository import make_repository

__all__ = ["mine_carpenter_table"]


def mine_carpenter_table(
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
    """Mine all closed frequent item sets with table-based Carpenter.

    ``guard`` is polled at every subproblem; on interruption the sets
    reported so far (all genuinely closed, with exact supports) are
    attached to the exception as an anytime result.  ``backend`` is
    accepted for API uniformity (validated, not used).
    """
    resolve_backend(backend)
    obs = resolve_probe(probe)
    with obs.phase("recode", algorithm="carpenter-table"):
        prepared, code_map = prepare_for_mining(
            db, smin, item_order=item_order, transaction_order=transaction_order
        )
    counters = obs.ensure_counters(counters)
    transactions = prepared.transactions
    n = len(transactions)
    n_items = prepared.n_items
    if n == 0 or smin > n:
        obs.record_counters(counters)
        return finalize((), code_map, db, "carpenter-table", smin)

    # Plain nested lists: scalar indexing into a numpy array would
    # dominate the inner loop in CPython.
    matrix = build_matrix(prepared).tolist()
    repository = make_repository(repository_kind, n_items)
    full = (1 << n_items) - 1
    pairs: List[tuple] = []
    check = checker(guard, counters)

    # DFS over subproblems (I, |K|, l); exclude pushed before include so
    # the include branch runs first (repository soundness).
    stack: List[tuple] = [(full, 0, 0)]
    try:
        with obs.phase("mine", algorithm="carpenter-table", transactions=n):
            _search(
                stack, transactions, matrix, n, smin, repository, pairs,
                eliminate_items, perfect_extension, counters, check,
            )
    except MiningInterrupted as exc:
        exc.attach_partial(
            lambda: finalize(pairs, code_map, db, "carpenter-table", smin),
            algorithm="carpenter-table",
        )
        obs.record_counters(counters)
        raise
    with obs.phase("report", algorithm="carpenter-table"):
        result = finalize(pairs, code_map, db, "carpenter-table", smin)
    obs.record_counters(counters)
    return result


def _search(
    stack: List[tuple],
    transactions: List[int],
    matrix,
    n: int,
    smin: int,
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
        row = matrix[position]
        # Intersection by row indexing: an item survives iff its matrix
        # entry is non-zero; with elimination it must additionally have
        # enough remaining occurrences.
        counters.intersections += 1
        mask = intersection & transactions[position]
        if not eliminate_items:
            candidate = mask
        else:
            candidate = 0
            while mask:
                low = mask & -mask
                item = low.bit_length() - 1
                if k + row[item] >= smin:
                    candidate |= low
                else:
                    counters.items_eliminated += 1
                mask ^= low

        if candidate:
            skip_exclude = perfect_extension and candidate == intersection
            if k + 1 >= smin:
                counters.containment_checks += 1
                if candidate not in repository and not _contained_forward(
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

