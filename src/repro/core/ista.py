"""IsTa — Intersecting Transactions (Sections 3.2 / 3.3 of the paper).

The cumulative intersection scheme: a prefix-tree repository holds the
closed item sets of the processed part of the database; each new
transaction is inserted and intersected with the whole repository in
one combined pass (:class:`repro.core.prefix_tree.PrefixTree`).

Beyond the plain scheme this implements the paper's two refinements:

* **Item/transaction ordering** (Section 3.4): items are coded by
  ascending frequency, transactions processed by increasing size, which
  keeps the repository small while the early transactions stream by.
* **Item elimination pruning** (Section 3.2): occurrence counters of
  the *unprocessed* transactions decay as mining progresses; a
  repository set with support ``x`` whose items include one with fewer
  than ``smin - x`` remaining occurrences can never become frequent, so
  the deficient items are removed from it ("we do not simply remove the
  item set, but selectively remove items from it").  On the prefix tree
  the removal is a splice: the deficient node disappears and its
  children merge into its parent (taking the support maximum on
  collisions, which stays a lower bound of the true support — the
  reduced set either re-emerges as an intersection of enough
  transactions, and then carries its exact support, or it dies at the
  threshold, exactly as the paper argues).
"""

from __future__ import annotations

from typing import List, Optional

from ..closure.verify import refine_anytime
from ..common import finalize, prepare_for_mining
from ..data.database import TransactionDatabase
from ..kernels import resolve_backend
from ..obs import resolve_probe
from ..result import MiningResult
from ..runtime import MiningInterrupted, RunGuard, checker
from ..stats import OperationCounters
from .prefix_tree import PrefixTree, PrefixTreeNode

__all__ = ["mine_ista"]


def mine_ista(
    db: TransactionDatabase,
    smin: int,
    item_order: str = "frequency-ascending",
    transaction_order: str = "size-ascending",
    prune: bool = True,
    prune_interval: int = 4,
    dedup: bool = False,
    counters: Optional[OperationCounters] = None,
    guard: Optional[RunGuard] = None,
    backend=None,
    probe=None,
) -> MiningResult:
    """Mine all closed frequent item sets with the IsTa algorithm.

    Parameters
    ----------
    db:
        The transaction database.
    smin:
        Absolute minimum support (at least 1).
    item_order, transaction_order:
        Preprocessing orders, see :mod:`repro.data.recode`.
    prune:
        Enable item elimination pruning (on by default, as in the
        paper's implementation).
    prune_interval:
        Run a repository pruning pass every this many transactions.
    dedup:
        Collapse duplicate transactions into one weighted repository
        update each (a weight-``w`` insertion is provably equivalent to
        ``w`` repeated insertions, see
        :meth:`~repro.core.prefix_tree.PrefixTree.add_transaction`).
        Off by default: the result is identical either way, but the
        per-transaction operation counts differ, and databases without
        duplicates pay a small grouping cost for nothing.
    counters:
        Optional :class:`~repro.stats.OperationCounters` to fill in.
    guard:
        Optional :class:`~repro.runtime.RunGuard`, polled per processed
        transaction and inside the repository intersection recursion.
        On interruption the current repository is salvaged through
        :func:`repro.closure.verify.refine_anytime` (only sets closed
        in the *full* database survive, with exact supports) and
        attached to the exception as an anytime result.
    backend:
        Set-algebra kernel selection (:mod:`repro.kernels`).  IsTa's
        one kernel call is the ``column_counts`` sweep that seeds the
        pruning counters; the repository update itself is pure Python
        (:class:`~repro.core.prefix_tree.PrefixTree`), so the backend
        does not change the per-transaction work.
    probe:
        Optional :class:`repro.obs.Probe` for metrics and phase traces
        (``None``, the default, adds no instrumentation).

    Returns
    -------
    MiningResult
        All closed frequent item sets with their exact supports, in the
        original item coding of ``db``.
    """
    obs = resolve_probe(probe)
    kernel = obs.wrap_kernel(resolve_backend(backend))
    counters = obs.ensure_counters(counters)
    with obs.phase("recode", algorithm="ista"):
        prepared, code_map = prepare_for_mining(
            db, smin, item_order=item_order, transaction_order=transaction_order
        )
    if prune and prune_interval < 1:
        raise ValueError(f"prune_interval must be positive, got {prune_interval}")
    tree = PrefixTree(counters, guard)
    check = checker(guard, tree.counters)
    transactions = prepared.transactions
    n = len(transactions)
    if dedup:
        # Duplicates are adjacent-agnostic: a weighted insertion is
        # equivalent to repeating the plain one, so grouping in
        # first-occurrence order preserves the processing order of the
        # distinct transactions.
        grouped = {}
        for transaction in transactions:
            grouped[transaction] = grouped.get(transaction, 0) + 1
        groups = list(grouped.items())
        obs.count("ista.dedup.collapsed", n - len(groups))
    else:
        groups = [(transaction, 1) for transaction in transactions]
    processed = 0

    try:
        with obs.phase("mine", algorithm="ista", transactions=n):
            if not prune:
                for transaction, weight in groups:
                    check()
                    tree.add_transaction(transaction, weight)
                    processed += weight
            else:
                # Remaining-occurrence counters over the unprocessed
                # suffix, seeded by one batched column-count sweep; the
                # per-transaction decrements below keep them current
                # incrementally.
                remaining = kernel.column_counts(transactions, prepared.n_items)

                for index, (transaction, weight) in enumerate(groups):
                    check()
                    tree.add_transaction(transaction, weight)
                    processed += weight
                    mask = transaction
                    while mask:
                        low = mask & -mask
                        remaining[low.bit_length() - 1] -= weight
                        mask ^= low
                    if (index + 1) % prune_interval == 0 and processed < n:
                        _prune_tree(tree, remaining, smin)
        with obs.phase("report", algorithm="ista"):
            result = finalize(tree.report(smin), code_map, db, "ista", smin)
        obs.record_counters(tree.counters)
        return result
    except MiningInterrupted as exc:
        exc.attach_partial(
            lambda: refine_anytime(
                db, finalize(tree.report(smin), code_map, db, "ista", smin), smin
            ),
            algorithm="ista",
            processed=processed,
        )
        obs.record_counters(tree.counters)
        raise


def _prune_tree(tree: PrefixTree, remaining: List[int], smin: int) -> None:
    """One pruning pass: splice out nodes whose item cannot keep the set alive.

    A node with support ``x`` whose own item ``i`` satisfies
    ``x + remaining[i] < smin`` heads a subtree in which every set
    contains ``i`` with even lower support, so none of those sets can
    become frequent *with* ``i``.  The node is spliced out: its children
    merge into its parent (support maximum on collisions).  The maximum
    keeps the crucial witness property: if one of the merged nodes
    carried the exact support of a set, the merged node still does,
    which is what guarantees that closed sets re-emerging from later
    intersections obtain their exact supports (see the module
    docstring and ``tests/core/test_ista.py``).
    """
    counters = tree.counters
    stack = [tree._root]
    while stack:
        parent = stack.pop()
        # Splice deficient children until none remain.  Spliced-in
        # grandchildren can themselves be deficient, hence the fixpoint
        # loop rather than a single sweep.
        changed = True
        while changed:
            changed = False
            for item, child in list(parent.children.items()):
                if child.supp + remaining[item] >= smin:
                    continue
                counters.items_eliminated += 1
                counters.nodes_pruned += 1
                del parent.children[item]
                tree._n_nodes -= 1
                for grandchild in child.children.values():
                    existing = parent.children.get(grandchild.item)
                    if existing is None:
                        parent.children[grandchild.item] = grandchild
                        grandchild.parent = parent
                    else:
                        _merge_nodes(existing, grandchild, tree)
                changed = True
        stack.extend(parent.children.values())


def _merge_nodes(target: PrefixTreeNode, source: PrefixTreeNode, tree: PrefixTree) -> None:
    """Merge ``source`` into ``target`` (same item): supports max, children union.

    Both nodes now represent the same reduced item set; each stored
    support counts transactions that contained one of the original
    supersets, so the maximum remains a lower bound of the reduced
    set's true support.  Iterative, because subtrees can be as deep as
    the longest transaction.
    """
    stack = [(target, source)]
    counters = tree.counters
    while stack:
        into, from_ = stack.pop()
        tree._n_nodes -= 1
        counters.nodes_merged += 1
        if from_.supp > into.supp:
            into.supp = from_.supp
            into.step = from_.step
        # Keep the subtree-item summary a superset of the merged
        # subtree; splice ancestors retain stale bits, which only ever
        # costs a missed subtree skip, never a wrong one.
        into.below |= from_.below
        for grandchild in from_.children.values():
            existing = into.children.get(grandchild.item)
            if existing is None:
                into.children[grandchild.item] = grandchild
                grandchild.parent = into
            else:
                stack.append((existing, grandchild))
