"""Tests for the flat cumulative miner (the [14] baseline)."""

import os
from typing import Dict, List, Tuple
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.closure.verify import closed_frequent_bruteforce
from repro.common import prepare_for_mining
from repro.core import cumulative
from repro.core.cumulative import mine_cumulative
from repro.core.ista import mine_ista
from repro.data import itemset
from repro.data.database import TransactionDatabase
from repro.data.io import read_fimi
from repro.runtime import RunGuard
from repro.stats import OperationCounters

from ..conftest import backend_params, db_from_strings

GATE_FIXTURE = os.path.join(
    os.path.dirname(__file__), "..", "..", "benchmarks", "fixtures", "yeast_gate.fimi"
)

small_databases = st.lists(
    st.integers(min_value=0, max_value=(1 << 7) - 1), min_size=1, max_size=10
).map(lambda masks: TransactionDatabase(masks, 7))


class TestCorrectness:
    @settings(deadline=None, max_examples=50)
    @given(small_databases, st.integers(min_value=1, max_value=5))
    def test_against_oracle(self, db, smin):
        assert mine_cumulative(db, smin) == closed_frequent_bruteforce(db, smin)

    @settings(deadline=None, max_examples=40)
    @given(small_databases, st.integers(min_value=1, max_value=5))
    def test_pruned_variant_agrees(self, db, smin):
        plain = dict(mine_cumulative(db, smin))
        for interval in (1, 3):
            pruned = dict(mine_cumulative(db, smin, prune=True, prune_interval=interval))
            assert pruned == plain

    @settings(deadline=None, max_examples=30)
    @given(small_databases, st.integers(min_value=1, max_value=5))
    def test_agrees_with_ista(self, db, smin):
        """Flat repository and prefix tree are two views of one recursion."""
        assert mine_cumulative(db, smin) == mine_ista(db, smin)


class TestBehaviour:
    def test_figure3_example(self, figure3_db):
        result = mine_cumulative(figure3_db, 1).as_frozensets()
        assert result[frozenset("e")] == 2
        assert result[frozenset("db")] == 2
        assert len(result) == 6

    def test_empty_database(self):
        assert len(mine_cumulative(TransactionDatabase([], 0), 1)) == 0

    def test_invalid_prune_interval(self):
        db = db_from_strings(["ab"])
        with pytest.raises(ValueError):
            mine_cumulative(db, 1, prune=True, prune_interval=0)

    def test_repository_peak_tracked(self):
        db = db_from_strings(["abc", "abd", "cd"])
        counters = OperationCounters()
        mine_cumulative(db, 1, counters=counters)
        assert counters.repository_peak >= 3
        assert counters.intersections > 0

    def test_pruning_shrinks_repository(self):
        rows = ["abcdef", "abcdeg", "fgh", "gh", "h", "h", "h", "h"]
        db = db_from_strings(rows)
        smin = 4
        plain = OperationCounters()
        pruned = OperationCounters()
        a = mine_cumulative(db, smin, counters=plain)
        b = mine_cumulative(db, smin, prune=True, prune_interval=1, counters=pruned)
        assert a == b
        assert pruned.repository_peak <= plain.repository_peak


# -- the sparse-table scan against the set-at-a-time dict loop of [14] ------


def reference_repository(
    transactions: List[int], smin: int, prune: bool, prune_interval: int
) -> Tuple[Dict[int, int], OperationCounters]:
    """The flat repository as a plain ``mask -> support`` dict, one
    stored set at a time: the reference the sparse table must match."""
    counters = OperationCounters()
    remaining = [0] * (max(transactions, default=0).bit_length())
    for transaction in transactions:
        for item in itemset.iter_indices(transaction):
            remaining[item] += 1
    repository: Dict[int, int] = {}
    for index, transaction in enumerate(transactions):
        if not transaction:
            continue
        updates = {transaction: 0}
        for stored, support in repository.items():
            counters.intersections += 1
            intersection = stored & transaction
            if intersection and support > updates.get(intersection, -1):
                updates[intersection] = support
        for intersection, support in updates.items():
            repository[intersection] = support + 1
            counters.support_updates += 1
        counters.observe_repository_size(len(repository))
        if prune:
            for item in itemset.iter_indices(transaction):
                remaining[item] -= 1
            if (index + 1) % prune_interval == 0 and index + 1 < len(transactions):
                repository = reference_prune(repository, remaining, smin, counters)
    return repository, counters


def reference_prune(repository, remaining, smin, counters):
    rebuilt: Dict[int, int] = {}
    for stored, support in repository.items():
        drop = itemset.from_indices(
            item for item in itemset.iter_indices(stored)
            if support + remaining[item] < smin
        )
        if drop:
            counters.items_eliminated += 1
            stored &= ~drop
        if not stored:
            counters.nodes_pruned += 1
            continue
        if stored in rebuilt:
            counters.nodes_merged += 1
            rebuilt[stored] = max(rebuilt[stored], support)
        else:
            rebuilt[stored] = support
    return rebuilt


@st.composite
def scan_databases(draw):
    """Databases with transactions wider than one and two key words,
    duplicate and empty transactions, and transactions equal to a set
    already stored (a copy, or the intersection of two earlier ones)."""
    n_items = draw(st.integers(min_value=1, max_value=200))
    codes = st.integers(min_value=0, max_value=n_items - 1)
    rows: List[int] = []
    for _ in range(draw(st.integers(min_value=0, max_value=10))):
        kind = draw(st.sampled_from(["sparse", "wide", "copy", "meet", "empty"]))
        if kind == "wide":
            low = draw(st.integers(min_value=0, max_value=n_items - 1))
            high = draw(st.integers(min_value=low, max_value=n_items))
            holes = draw(st.sets(codes, max_size=8))
            rows.append(itemset.from_indices(set(range(low, high)) - holes))
        elif kind == "copy" and rows:
            rows.append(draw(st.sampled_from(rows)))
        elif kind == "meet" and len(rows) > 1:
            rows.append(draw(st.sampled_from(rows)) & draw(st.sampled_from(rows)))
        elif kind == "empty":
            rows.append(0)
        else:
            rows.append(itemset.from_indices(draw(st.sets(codes, max_size=12))))
    return TransactionDatabase(rows, n_items)


class TestScanAgainstReference:
    """The whole table (every row and support, frequent or not) and the
    scan counters equal the dict loop's, on one block and on many."""

    @settings(deadline=None, max_examples=120)
    @given(
        scan_databases(),
        st.integers(min_value=1, max_value=4),
        st.booleans(),
        st.integers(min_value=1, max_value=3),
        st.sampled_from(["size-ascending", "identity"]),
        st.sampled_from([cumulative._BLOCK, 1, 3]),
    )
    # Pruning at every transaction both empties a row and merges rows
    # that collapse onto one set (nodes_pruned 1, nodes_merged 2).
    @example(TransactionDatabase([0b101, 0b011, 0b110, 0b001], 3), 2, True, 1, "identity", 2)
    def test_whole_repository_and_counters(
        self, db, smin, prune, prune_interval, order, block
    ):
        tables = []

        class Recorded(cumulative._Repository):
            def __init__(self, n_items):
                super().__init__(n_items)
                tables.append(self)

        counters = OperationCounters()
        guard = RunGuard(stride=5)
        with mock.patch.object(cumulative, "_Repository", Recorded), mock.patch.object(
            cumulative, "_BLOCK", block
        ):
            result = mine_cumulative(
                db, smin, transaction_order=order, prune=prune,
                prune_interval=prune_interval, counters=counters, guard=guard,
            )
        prepared, _ = prepare_for_mining(db, smin, transaction_order=order)
        expected, reference = reference_repository(
            prepared.transactions, smin, prune, prune_interval
        )
        assert dict(tables[-1].pairs(1)) == expected
        for name in (
            "intersections", "support_updates", "repository_peak",
            "items_eliminated", "nodes_pruned", "nodes_merged",
        ):
            assert getattr(counters, name) == getattr(reference, name), name
        # One check per transaction plus one per stored set scanned.
        assert guard.checks == prepared.n_transactions + reference.intersections
        assert result == closed_frequent_bruteforce(db, smin)


@pytest.mark.parametrize("prune", (False, True), ids=("plain", "pruned"))
@pytest.mark.parametrize("backend", backend_params())
def test_gate_fixture_equals_ista(backend, prune):
    db = read_fimi(GATE_FIXTURE)
    reference = mine_ista(db, 5)
    assert len(reference) == 1118
    assert mine_cumulative(db, 5, prune=prune, backend=backend) == reference
