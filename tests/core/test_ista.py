"""Tests for the IsTa miner (orders, pruning, option space)."""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.closure.verify import check_closed_family, closed_frequent_bruteforce
from repro.core.ista import mine_ista
from repro.core.incremental import IncrementalMiner
from repro.data.database import TransactionDatabase
from repro.stats import OperationCounters

from ..conftest import db_from_strings, make_random_db

small_databases = st.lists(
    st.integers(min_value=0, max_value=(1 << 7) - 1), min_size=1, max_size=10
).map(lambda masks: TransactionDatabase(masks, 7))


class TestBasics:
    def test_figure3_example(self, figure3_db):
        result = mine_ista(figure3_db, 2).as_frozensets()
        assert result == {
            frozenset("e"): 2,
            frozenset("db"): 2,
            frozenset("ca"): 2,
        }

    def test_table1_example(self, table1_db):
        result = mine_ista(table1_db, 3)
        check_closed_family(table1_db, result, 3)

    def test_empty_database(self):
        db = TransactionDatabase([], 0)
        assert len(mine_ista(db, 1)) == 0

    def test_all_empty_transactions(self):
        db = TransactionDatabase([0, 0, 0], 4)
        assert len(mine_ista(db, 1)) == 0

    def test_smin_above_transaction_count(self):
        db = db_from_strings(["ab", "ab"])
        assert len(mine_ista(db, 3)) == 0

    def test_invalid_smin_rejected(self):
        db = db_from_strings(["ab"])
        with pytest.raises(ValueError):
            mine_ista(db, 0)

    def test_invalid_prune_interval_rejected(self):
        db = db_from_strings(["ab"])
        with pytest.raises(ValueError):
            mine_ista(db, 1, prune_interval=0)

    def test_single_transaction(self):
        db = db_from_strings(["abc"])
        assert mine_ista(db, 1).as_frozensets() == {frozenset("abc"): 1}

    def test_result_metadata(self):
        db = db_from_strings(["ab"])
        result = mine_ista(db, 1)
        assert result.algorithm == "ista"
        assert result.smin == 1


class TestOptionSpace:
    """All orders and pruning settings must give identical results."""

    @settings(deadline=None, max_examples=40)
    @given(small_databases, st.integers(min_value=1, max_value=5))
    def test_pruning_is_transparent(self, db, smin):
        expected = dict(mine_ista(db, smin, prune=False))
        for interval in (1, 2, 7):
            assert dict(mine_ista(db, smin, prune_interval=interval)) == expected

    @settings(deadline=None, max_examples=30)
    @given(small_databases, st.integers(min_value=1, max_value=4))
    def test_orders_are_transparent(self, db, smin):
        expected = dict(mine_ista(db, smin))
        for item_order in ("frequency-descending", "identity", "random"):
            for transaction_order in ("size-descending", "identity", "random"):
                got = dict(
                    mine_ista(
                        db,
                        smin,
                        item_order=item_order,
                        transaction_order=transaction_order,
                    )
                )
                assert got == expected

    @settings(deadline=None, max_examples=40)
    @given(small_databases, st.integers(min_value=1, max_value=5))
    def test_against_oracle(self, db, smin):
        expected = closed_frequent_bruteforce(db, smin)
        assert mine_ista(db, smin) == expected


class TestPruningEffect:
    def test_pruning_reduces_tree_size(self):
        """On a database with many low-support sets the splice pruning
        must shrink the peak repository (the Section 3.2 claim)."""
        db = make_random_db(99, max_transactions=40, max_items=12, density=0.4)
        smin = 12
        pruned = OperationCounters()
        unpruned = OperationCounters()
        a = mine_ista(db, smin, prune=True, prune_interval=1, counters=pruned)
        b = mine_ista(db, smin, prune=False, counters=unpruned)
        assert a == b
        assert pruned.repository_peak < unpruned.repository_peak
        assert pruned.items_eliminated > 0

    def test_counters_populated(self):
        db = db_from_strings(["abc", "abd", "acd", "bcd"])
        counters = OperationCounters()
        mine_ista(db, 2, counters=counters)
        assert counters.nodes_created > 0
        assert counters.node_visits > 0
        assert counters.reports > 0


class TestBackends:
    """The backend only runs the pruning sweep: output is the oracle's."""

    @pytest.mark.parametrize("backend", [None, "bitint", "numpy", "native"])
    @settings(deadline=None, max_examples=30)
    @given(db=small_databases, smin=st.integers(1, 4))
    def test_backends_match_bruteforce(self, backend, db, smin):
        expected = dict(closed_frequent_bruteforce(db, smin))
        assert dict(mine_ista(db, smin, backend=backend)) == expected


class TestDeepPaths:
    """Transactions wider than the default recursion limit.

    The intersection recursion is as deep as the longest repository
    path, i.e. the widest transaction; ``add_transaction`` raises the
    interpreter's recursion limit to fit.  Each test starts from the
    default limit, so a missing raise fails here instead of passing on
    a limit an earlier test left behind.
    """

    WIDTH = 3000
    ROWS = [
        list(range(0, WIDTH)),
        list(range(100, WIDTH + 100)),
        list(range(200, WIDTH + 200)),
        list(range(0, WIDTH + 200, 2)),
    ]

    @pytest.fixture(autouse=True)
    def default_recursion_limit(self):
        saved = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        yield
        sys.setrecursionlimit(saved)

    def expected(self, smin):
        db = TransactionDatabase.from_iterable(self.ROWS)
        return db, closed_frequent_bruteforce(db, smin).as_frozensets()

    @pytest.mark.parametrize("smin", [1, 2])
    def test_mine_ista(self, smin):
        db, expected = self.expected(smin)
        assert mine_ista(db, smin).as_frozensets() == expected

    def test_incremental_extend(self):
        _, expected = self.expected(1)
        miner = IncrementalMiner()
        miner.extend(self.ROWS)
        got = {frozenset(items): supp for items, supp in miner.closed_sets(1).items()}
        assert got == expected
