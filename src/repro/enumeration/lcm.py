"""LCM [20, 21] — closed set enumeration via prefix-preserving closure.

LCM walks the closed sets directly: from a closed set ``P`` with core
item ``core``, every extension item ``e > core`` not in ``P`` yields a
candidate ``Q = closure(P + e)``; ``Q`` is accepted iff the closure did
not add any item below ``e`` that ``P`` lacked (the *prefix-preserving*
condition).  Every closed set has exactly one generating parent under
this rule, so the search needs neither a repository nor duplicate
checks — the property that made LCM the FIMI'04 best implementation.

Closures are computed by intersecting the covering transactions
(single bitmask ANDs here), the honest Python counterpart of LCM's
occurrence-deliver machinery.  The node expansion runs on plain ints on
every kernel backend: a batched numpy form (packed cover gathers plus a
packed AND-reduction per closure) was measured slower end to end at
the paper's yeast scale, so LCM has one code path and makes no kernel
calls.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..common import finalize, prepare_for_mining
from ..data import itemset
from ..data.database import TransactionDatabase
from ..kernels import resolve_backend
from ..obs import resolve_probe
from ..result import MiningResult
from ..runtime import MiningInterrupted, RunGuard, checker
from ..stats import OperationCounters

__all__ = ["mine_lcm"]


def mine_lcm(
    db: TransactionDatabase,
    smin: int,
    item_order: str = "frequency-ascending",
    counters: Optional[OperationCounters] = None,
    guard: Optional[RunGuard] = None,
    backend=None,
    probe=None,
) -> MiningResult:
    """Mine all closed frequent item sets with LCM.

    ``guard`` is polled at every search node; the closed sets reported
    before an interruption are exact and attached to the exception as
    an anytime result.  ``backend`` is accepted for API uniformity
    (validated, not used: see the module docstring).
    """
    resolve_backend(backend)
    obs = resolve_probe(probe)
    with obs.phase("recode", algorithm="lcm"):
        prepared, code_map = prepare_for_mining(
            db, smin, item_order=item_order, transaction_order="identity"
        )
    counters = obs.ensure_counters(counters)
    transactions = prepared.transactions
    n = len(transactions)
    n_items = prepared.n_items
    if n == 0 or smin > n:
        obs.record_counters(counters)
        return finalize((), code_map, db, "lcm", smin)

    tid_masks = prepared.vertical()
    all_tids = (1 << n) - 1
    pairs: List[Tuple[int, int]] = []
    check = checker(guard, counters)
    root = _closure(transactions, all_tids, counters)
    if root:
        pairs.append((root, n))
        counters.reports += 1

    # Frames: (closed set P, cover tid mask, core item).  Order of
    # exploration is irrelevant — each closed set has a unique parent.
    stack: List[Tuple[int, int, int]] = [(root, all_tids, -1)]
    try:
        with obs.phase("mine", algorithm="lcm", transactions=n):
            while stack:
                closed_set, cover, core = stack.pop()
                counters.recursion_calls += 1
                for item in range(core + 1, n_items):
                    check()
                    if closed_set >> item & 1:
                        continue
                    counters.intersections += 1
                    new_cover = cover & tid_masks[item]
                    support = itemset.size(new_cover)
                    if support < smin:
                        continue
                    candidate = _closure(transactions, new_cover, counters)
                    # Prefix-preserving check: the closure must not reach
                    # below ``item`` beyond what the parent already had.
                    lower = (1 << item) - 1
                    counters.containment_checks += 1
                    if candidate & lower != closed_set & lower:
                        continue
                    pairs.append((candidate, support))
                    counters.reports += 1
                    stack.append((candidate, new_cover, item))
    except MiningInterrupted as exc:
        exc.attach_partial(
            lambda: finalize(pairs, code_map, db, "lcm", smin),
            algorithm="lcm",
        )
        obs.record_counters(counters)
        raise

    with obs.phase("report", algorithm="lcm"):
        result = finalize(pairs, code_map, db, "lcm", smin)
    obs.record_counters(counters)
    return result


def _closure(
    transactions: List[int], cover: int, counters: OperationCounters
) -> int:
    """Intersection of the transactions indexed by ``cover``."""
    result = -1  # all-ones: neutral element, masked down by the first AND
    remaining = cover
    while remaining:
        low = remaining & -remaining
        counters.intersections += 1
        result &= transactions[low.bit_length() - 1]
        if not result:
            break
        remaining ^= low
    return result if result != -1 else 0
