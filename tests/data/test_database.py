"""Unit tests for TransactionDatabase."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.data import itemset
from repro.data.database import TransactionDatabase

transaction_lists = st.lists(
    st.lists(st.integers(min_value=0, max_value=9), max_size=8), max_size=10
)


class TestConstruction:
    def test_from_iterable_assigns_codes_in_first_appearance_order(self):
        db = TransactionDatabase.from_iterable([["b", "a"], ["c", "a"]])
        assert db.item_labels == ["b", "a", "c"]
        assert db.n_items == 3

    def test_from_iterable_with_item_order(self):
        db = TransactionDatabase.from_iterable([["b"], ["a"]], item_order=["a", "b"])
        assert db.item_labels == ["a", "b"]
        assert db.transactions == [2, 1]

    def test_from_iterable_rejects_unknown_item_with_explicit_order(self):
        with pytest.raises(ValueError, match="missing from item_order"):
            TransactionDatabase.from_iterable([["z"]], item_order=["a"])

    def test_from_iterable_rejects_duplicate_order(self):
        with pytest.raises(ValueError, match="duplicate"):
            TransactionDatabase.from_iterable([], item_order=["a", "a"])

    def test_from_masks_infers_item_count(self):
        db = TransactionDatabase.from_masks([0b101, 0b10])
        assert db.n_items == 3

    def test_rejects_mask_beyond_item_base(self):
        with pytest.raises(ValueError, match="beyond the item base"):
            TransactionDatabase([8], n_items=3)

    def test_rejects_negative_mask(self):
        with pytest.raises(TypeError):
            TransactionDatabase([-1], n_items=3)

    def test_rejects_label_count_mismatch(self):
        with pytest.raises(ValueError, match="item_labels"):
            TransactionDatabase([1], n_items=1, item_labels=["a", "b"])

    def test_empty_database(self):
        db = TransactionDatabase([], n_items=0)
        assert db.n_transactions == 0
        assert db.item_supports() == []
        assert db.density() == 0.0

    def test_duplicate_transactions_are_kept(self):
        db = TransactionDatabase.from_iterable([["a"], ["a"]])
        assert db.n_transactions == 2


class TestEncodingDecoding:
    def test_encode_decode_roundtrip(self):
        db = TransactionDatabase.from_iterable([["x", "y", "z"]])
        mask = db.encode(["z", "x"])
        assert db.decode(mask) == ("x", "z")

    def test_code_of_unknown_label_raises(self):
        db = TransactionDatabase.from_iterable([["a"]])
        with pytest.raises(KeyError):
            db.code_of("nope")

    def test_as_sets(self):
        db = TransactionDatabase.from_iterable([["b", "a"], []])
        assert db.as_sets() == [("b", "a"), ()]


class TestDerivedViews:
    @given(transaction_lists)
    def test_vertical_consistency(self, rows):
        db = TransactionDatabase.from_iterable(rows, item_order=list(range(10)))
        vertical = db.vertical()
        for item in range(10):
            expected = {tid for tid, row in enumerate(rows) if item in row}
            assert set(itemset.to_indices(vertical[item])) == expected

    @given(
        st.lists(st.lists(st.integers(min_value=0, max_value=77), max_size=30), max_size=12),
        st.integers(min_value=78, max_value=140),
    )
    def test_item_supports_match_vertical(self, rows, n_items):
        db = TransactionDatabase.from_iterable(rows, item_order=list(range(n_items)))
        supports = db.item_supports()
        assert db._vertical is None  # counted without building the vertical form
        assert supports == [itemset.size(v) for v in db.vertical()]

    def test_item_supports_across_chunks(self, monkeypatch):
        import repro.data.database as database

        rows = [[0, 9, 70], [9], [], [70, 71], [0, 71]]
        db = TransactionDatabase.from_iterable(rows, item_order=list(range(72)))
        whole = db.item_supports()
        monkeypatch.setattr(database, "_COUNT_CHUNK", 20)  # two rows per chunk
        assert db.item_supports() == whole
        assert [whole[code] for code in (0, 9, 70, 71)] == [2, 2, 2, 2]
        assert sum(whole) == 8

    @given(transaction_lists)
    def test_support_matches_manual_count(self, rows):
        db = TransactionDatabase.from_iterable(rows, item_order=list(range(10)))
        for items in ([0], [0, 1], [2, 5, 7]):
            mask = itemset.from_indices(items)
            expected = sum(1 for row in rows if set(items) <= set(row))
            assert db.support(mask) == expected

    def test_cover_of_empty_set_is_everything(self):
        db = TransactionDatabase.from_iterable([["a"], ["b"]])
        assert db.cover(0) == 0b11

    def test_density(self):
        db = TransactionDatabase.from_iterable([["a", "b"], []], item_order=["a", "b"])
        assert db.density() == pytest.approx(0.5)

    def test_transaction_sizes(self):
        db = TransactionDatabase.from_iterable([["a", "b"], ["a"], []])
        assert db.transaction_sizes() == [2, 1, 0]


class TestFiltering:
    def test_without_empty(self):
        db = TransactionDatabase.from_iterable([["a"], [], ["b"]])
        assert db.without_empty().n_transactions == 2

    def test_filter_items_compacts_codes_and_labels(self):
        db = TransactionDatabase.from_iterable([["a", "b", "c"], ["b", "c"]])
        kept = db.filter_items(db.encode(["a", "c"]))
        assert kept.item_labels == ["a", "c"]
        assert kept.as_sets() == [("a", "c"), ("c",)]

    def test_filter_infrequent(self):
        db = TransactionDatabase.from_iterable([["a", "b"], ["a"], ["a", "c"]])
        kept = db.filter_infrequent(2)
        assert kept.item_labels == ["a"]
        assert kept.n_transactions == 3

    def test_select_transactions(self):
        db = TransactionDatabase.from_iterable([["a"], ["b"], ["c"]])
        sub = db.select_transactions([2, 0])
        assert sub.as_sets() == [("c",), ("a",)]

    def test_equality(self):
        a = TransactionDatabase.from_iterable([["a"]])
        b = TransactionDatabase.from_iterable([["a"]])
        assert a == b
        assert a != TransactionDatabase.from_iterable([["b"]])
