"""Tests for the IsTa prefix tree — including a replay of Figure 3."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import itemset
from repro.core.prefix_tree import PrefixTree

from ..conftest import backend_kernel_params

# Item codes for the Figure 3 example: a=0, b=1, c=2, d=3, e=4.
A, B, C, D, E = (1 << i for i in range(5))


def add_all(tree, masks):
    for mask in masks:
        tree.add_transaction(mask)


class TestFigure3:
    """Replays the worked example of Figure 3 state by state."""

    def test_step_1_first_transaction(self):
        tree = PrefixTree()
        tree.add_transaction(E | C | A)
        # "1:" — a single path e(1) -> c(1) -> a(1).
        assert tree.as_nested_dict() == {4: (1, {2: (1, {0: (1, {})})})}

    def test_step_2_overlap_on_e(self):
        tree = PrefixTree()
        add_all(tree, [E | C | A, E | D | B])
        # "2:" — e's support rises to 2; d(1)->b(1) appears next to c(1)->a(1).
        assert tree.as_nested_dict() == {
            4: (2, {2: (1, {0: (1, {})}), 3: (1, {1: (1, {})})})
        }

    def test_step_3_1_path_inserted_with_support_zero(self):
        tree = PrefixTree()
        add_all(tree, [E | C | A, E | D | B])
        tree._step += 1
        tree._insert_path(D | C | B | A)
        # "3.1:" — the new path d->c->b->a exists with support 0 everywhere.
        nested = tree.as_nested_dict()
        assert nested[3] == (0, {2: (0, {1: (0, {0: (0, {})})})})

    def test_step_3_final_tree(self):
        tree = PrefixTree()
        add_all(tree, [E | C | A, E | D | B, D | C | B | A])
        # "3.3:" — intersections {d,b} and {c,a} present with support 2.
        assert tree.as_nested_dict() == {
            4: (2, {2: (1, {0: (1, {})}), 3: (1, {1: (1, {})})}),
            3: (2, {2: (1, {1: (1, {0: (1, {})})}), 1: (2, {})}),
            2: (2, {0: (2, {})}),
        }

    def test_report_smin_1(self):
        tree = PrefixTree()
        add_all(tree, [E | C | A, E | D | B, D | C | B | A])
        reported = dict(tree.report(1))
        assert reported == {
            E: 2,
            E | C | A: 1,
            E | D | B: 1,
            D | C | B | A: 1,
            D | B: 2,
            C | A: 2,
        }

    def test_report_smin_2(self):
        tree = PrefixTree()
        add_all(tree, [E | C | A, E | D | B, D | C | B | A])
        assert dict(tree.report(2)) == {E: 2, D | B: 2, C | A: 2}


class TestBasicBehaviour:
    def test_empty_tree_reports_nothing(self):
        assert list(PrefixTree().report(1)) == []

    def test_empty_transaction_is_ignored(self):
        tree = PrefixTree()
        tree.add_transaction(0)
        assert tree.n_nodes == 0
        assert tree.step == 1

    def test_duplicate_transaction_counts_twice(self):
        tree = PrefixTree()
        add_all(tree, [A | B, A | B])
        assert dict(tree.report(1)) == {A | B: 2}

    def test_subset_transaction_updates_superset_path(self):
        tree = PrefixTree()
        add_all(tree, [A | B | C, A | B])
        assert dict(tree.report(1)) == {A | B | C: 1, A | B: 2}

    def test_report_rejects_bad_smin(self):
        with pytest.raises(ValueError):
            list(PrefixTree().report(0))

    def test_find_returns_nodes_on_paths(self):
        tree = PrefixTree()
        tree.add_transaction(A | C)
        assert tree.find(A | C).supp == 1
        assert tree.find(C).supp == 1  # prefix node
        assert tree.find(A) is None  # not a rooted path
        assert tree.find(B) is None

    def test_node_count_tracks_insertions(self):
        tree = PrefixTree()
        tree.add_transaction(A | B)
        assert tree.n_nodes == 2
        tree.add_transaction(C)
        assert tree.n_nodes == 3

    def test_depth(self):
        tree = PrefixTree()
        assert tree.depth() == 0
        tree.add_transaction(A | B | C | D)
        assert tree.depth() == 4

    def test_deep_transaction_no_recursion_error(self):
        """Gene-expression transactions can hold thousands of items; the
        explicit-stack implementation must not hit the recursion limit."""
        tree = PrefixTree()
        wide = (1 << 3000) - 1
        tree.add_transaction(wide)
        tree.add_transaction(wide >> 1)
        reported = dict(tree.report(1))
        assert reported[wide] == 1
        assert reported[wide >> 1] == 2


class TestSupersetSupport:
    """The guided descent must agree with a scan over the full family."""

    @staticmethod
    def brute(tree, mask, strict=False):
        best = 0
        for stored, supp in tree.report(1):
            if mask & ~stored:
                continue
            if strict and stored == mask:
                continue
            if supp > best:
                best = supp
        return best

    def test_figure3_queries(self):
        tree = PrefixTree()
        add_all(tree, [E | C | A, E | D | B, D | C | B | A])
        assert tree.superset_support(E) == 2
        assert tree.superset_support(C | A) == 2
        assert tree.superset_support(A) == 2
        assert tree.superset_support(E | A) == 1
        assert tree.superset_support(E | D | C) == 0

    def test_strict_excludes_exact_match(self):
        tree = PrefixTree()
        add_all(tree, [E | C | A, E | D | B, D | C | B | A])
        # {c,a} is stored with support 2; its only proper superset paths
        # are the two size->=3 transactions with support 1.
        assert tree.superset_support(C | A, strict=True) == 1
        # {e} is stored; proper supersets are the two e-transactions.
        assert tree.superset_support(E, strict=True) == 1
        # {e,c,a} is a leaf: no proper superset exists.
        assert tree.superset_support(E | C | A, strict=True) == 0

    def test_empty_mask_is_overall_maximum(self):
        tree = PrefixTree()
        add_all(tree, [A | B, A | B | C, B | C])
        assert tree.superset_support(0) == 3
        assert tree.superset_support(0, strict=True) == 3
        assert PrefixTree().superset_support(0) == 0

    def test_item_outside_universe(self):
        tree = PrefixTree()
        add_all(tree, [A | B])
        assert tree.superset_support(1 << 20) == 0

    @settings(deadline=None, max_examples=80)
    @given(
        st.lists(
            st.integers(min_value=1, max_value=(1 << 7) - 1), min_size=1, max_size=10
        ),
        st.integers(min_value=1, max_value=(1 << 7) - 1),
    )
    def test_matches_full_scan(self, masks, query):
        tree = PrefixTree()
        add_all(tree, masks)
        assert tree.superset_support(query) == self.brute(tree, query)
        assert tree.superset_support(query, strict=True) == self.brute(
            tree, query, strict=True
        )


class TestAgainstOracle:
    @settings(deadline=None, max_examples=60)
    @given(
        st.lists(
            st.integers(min_value=1, max_value=(1 << 7) - 1), min_size=1, max_size=9
        )
    )
    def test_tree_matches_definition_of_closed_sets(self, masks):
        """Every tree report equals the brute-force closed family."""
        from repro.closure.verify import closed_frequent_bruteforce
        from repro.data.database import TransactionDatabase

        db = TransactionDatabase(list(masks), 7)
        tree = PrefixTree()
        add_all(tree, masks)
        for smin in (1, 2, len(masks)):
            expected = dict(closed_frequent_bruteforce(db, smin))
            assert dict(tree.report(smin)) == expected


def closed_family(db):
    """Every closed item set of ``db`` with its support, by definition.

    Item-side enumeration: each nonempty frequent set of the (small)
    item base is kept iff it equals its Galois closure.  Independent of
    the prefix tree, and linear in the number of transactions, so it
    scales to inputs where the transaction-subset oracle
    (:func:`~repro.closure.verify.closed_frequent_bruteforce`) would
    enumerate 2**n subsets.
    """
    from repro.closure import galois
    from repro.closure.verify import all_frequent_bruteforce

    return {
        mask: support
        for mask, support in all_frequent_bruteforce(db, 1).items()
        if galois.is_closed(db, mask)
    }


class TestBatchedDescent:
    """The one intersection descent, against an independent oracle.

    (The class keeps the name of the level-batched descent whose
    subtree skip now sits inside the Figure-2 recursion.)

    A tree grown through ``add_transaction`` must be node-for-node the
    tree :meth:`PrefixTree.from_closed_family` rebuilds from the closed
    family computed by definition: same preorder (items, supports,
    child counts), same reports.  The family is computed twice, by
    item-side enumeration and as the intersection closure of the
    transactions with supports counted by each kernel backend, and the
    two must agree.  The ``below`` subtree skip must be sound
    (summaries cover their subtrees) and exact (a disjoint subtree
    costs one visit, its head's).
    """

    masks_lists = st.lists(
        st.integers(min_value=1, max_value=(1 << 12) - 1),
        min_size=1,
        max_size=30,
    )

    @staticmethod
    def kernel_family(masks, kernel):
        """The closed family as the transactions' intersection closure.

        A set with nonempty cover is closed iff it is the intersection
        of its cover, so the nonempty intersections of nonempty
        transaction subsets are exactly the closed sets; each support
        is the number of rows ``kernel`` finds containing the set.
        """
        meets = set()
        for mask in masks:
            meets |= {mask} | {meet & mask for meet in meets}
        meets.discard(0)
        table = kernel.pack(list(masks), 12)
        return {meet: len(kernel.superset_rows(table, meet)) for meet in meets}

    @classmethod
    def grown_and_reference(cls, masks, kernel):
        from repro.data.database import TransactionDatabase

        grown = PrefixTree()
        add_all(grown, masks)
        family = closed_family(TransactionDatabase(list(masks), 12))
        assert cls.kernel_family(masks, kernel) == family
        return grown, PrefixTree.from_closed_family(iter(family.items())), family

    @pytest.mark.parametrize("kernel", backend_kernel_params())
    @settings(deadline=None, max_examples=40)
    @given(masks=masks_lists)
    def test_trees_byte_identical(self, kernel, masks):
        grown, reference, _ = self.grown_and_reference(masks, kernel)
        assert list(grown.preorder()) == list(reference.preorder())

    @pytest.mark.parametrize("kernel", backend_kernel_params())
    @settings(deadline=None, max_examples=40)
    @given(masks=masks_lists)
    def test_reports_identical(self, kernel, masks):
        grown, reference, family = self.grown_and_reference(masks, kernel)
        for smin in (1, 2, max(1, len(masks) // 2)):
            expected = {m: s for m, s in family.items() if s >= smin}
            assert dict(grown.report(smin)) == expected
            assert dict(reference.report(smin)) == expected

    @settings(deadline=None, max_examples=40)
    @given(masks=masks_lists)
    def test_counter_relationship(self, masks):
        """Every merge intersection either creates a node or updates one.

        Node creation is counted on both paths (the transaction's own
        path and the merge), so merge-created nodes are at most the
        tree's size, and each intersection is a visited node.
        """
        from repro.stats import OperationCounters

        counters = OperationCounters()
        tree = PrefixTree(counters)
        add_all(tree, masks)
        assert counters.nodes_created == tree.n_nodes
        merge_created = counters.intersections - counters.support_updates
        assert 0 <= merge_created <= counters.nodes_created
        assert counters.intersections <= counters.node_visits

    @settings(deadline=None, max_examples=40)
    @given(masks=masks_lists)
    def test_below_summaries_cover_subtrees(self, masks):
        """Every node's ``below`` is a superset of its subtree's items.

        The one-sided invariant the subtree skip relies on: an
        under-approximating summary could skip a subtree that matters,
        an over-approximating one only costs a missed skip.
        """
        tree = PrefixTree()
        add_all(tree, masks)

        def subtree_mask(node):
            mask = 1 << node.item
            for child in node.children.values():
                mask |= subtree_mask(child)
            return mask

        stack = list(tree._root.children.values())
        while stack:
            node = stack.pop()
            actual = subtree_mask(node)
            assert actual & ~node.below == 0
            stack.extend(node.children.values())

    def test_batched_is_the_default(self):
        """The subtree skip is unconditional: no switch selects a descent."""
        from repro.core.ista import mine_ista
        from repro.data.database import TransactionDatabase

        with pytest.raises(TypeError):
            PrefixTree(batched=True)
        with pytest.raises(TypeError):
            PrefixTree(kernel=None)
        with pytest.raises(TypeError):
            PrefixTree.from_closed_family(iter(()), kernel=None)
        with pytest.raises(TypeError):
            mine_ista(TransactionDatabase([1], 1), 1, batched=False)

    @staticmethod
    def cluster_rows():
        # Items 4..8 only: the disjoint transaction below uses item 0,
        # so every stored subtree lies above its imin and only the
        # ``below`` test can stop the descent into it.
        rows = []
        for _ in range(3):
            rows += [[4, 5, 6, 7, 8], [4, 5, 6, 7], [5, 6, 7, 8], [4, 6, 8]]
        return rows

    def test_disjoint_cluster_costs_one_visit_per_root_child(self):
        from repro.stats import OperationCounters

        counters = OperationCounters()
        tree = PrefixTree(counters)
        add_all(tree, [itemset.from_indices(row) for row in self.cluster_rows()])
        assert tree.n_nodes > len(tree._root.children)
        before = counters.node_visits
        tree.add_transaction(itemset.from_indices([0]))
        # Every cluster subtree is visited at its head and skipped; the
        # new leaf for item 0 is the one extra root child.
        assert counters.node_visits - before == len(tree._root.children)

    def test_disjoint_skips_surface_in_node_visits(self):
        """mine_ista + probe: ``ops.node_visits`` carries the exact skip."""
        from repro.core.ista import mine_ista
        from repro.data.database import TransactionDatabase
        from repro.obs import Probe

        def visits(rows):
            db = TransactionDatabase.from_iterable(rows, item_order=list(range(9)))
            probe = Probe()
            mine_ista(
                db, 1, prune=False, item_order="identity",
                transaction_order="identity", probe=probe,
            )
            counters = probe.metrics.snapshot()["counters"]
            assert counters.get("ops.kernel.early_aborts", 0) == 0
            return counters["ops.node_visits"]

        rows = self.cluster_rows()
        tree = PrefixTree()
        add_all(tree, [itemset.from_indices(row) for row in rows])
        # The extra transaction's merge visits each root child once
        # (the new leaf included); the report pass visits its one new
        # node.
        expected = len(tree._root.children) + 1 + 1
        assert visits(rows + [[0]]) - visits(rows) == expected
