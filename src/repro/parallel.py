"""Sharded multiprocess mining with a provably-exact merge.

The search space is split into independent shards, each mined in its
own worker process by the ordinary serial miners, and the shard outputs
are merged with a re-verification pass against the *full* database —
so the parallel result is provably identical to the serial one, not
merely plausibly so.

Two sharding schemes, selected by ``shard=``:

* ``"items"`` — split by the *minimum item* of the reported sets.  The
  shard of item group ``G = [i0, i1)`` is the sub-database

      ``D_G = { t & high(i0) : t in D, t ∩ G ≠ ∅ }``

  where ``high(i0)`` masks away all items below ``i0``.  For a set
  ``S`` with minimum item ``i ∈ G``, every transaction containing ``S``
  contains ``i``, hence survives into the shard, and the masking keeps
  all of ``S``'s items — so ``S``'s cover (as a set of transaction
  indices) and therefore its support are *identical* in ``D_G`` and
  ``D``.  If ``S`` is additionally closed in ``D``, intersecting its
  cover inside the shard yields ``closure(S) & high(i0) = S``, so
  ``S`` is closed frequent in the shard as well: no shard misses any
  of its sets.  The natural fit for the enumeration miners, which
  already branch on the first item.

* ``"transactions"`` — split by the *minimum covering transaction*.
  The shard of transaction block ``W = [b, e)`` is the suffix database

      ``D_W = { t_j & U_W : j >= b }``,   ``U_W = ⋃_{b <= j < e} t_j``.

  A closed set ``S`` whose smallest covering tid lies in ``W`` is a
  subset of some block transaction, hence ``S ⊆ U_W``; its covering
  transactions all have index ``>= b`` and keep ``S`` under the
  masking, so again cover and support carry over exactly, and
  intersecting the cover inside the shard gives ``S`` back.  The
  natural fit for the Carpenter family, which enumerates transaction
  sets in index order.

Either way a shard can also report *extra* sets (sets whose closure in
the full database gains items the shard masked away, or duplicates
across transaction blocks).  The merge therefore re-derives every
candidate against the full database — recompute the cover, recompute
the support, recompute the closure — and keeps exactly the closed
frequent sets.  Soundness comes from the verification, completeness
from the shard proofs above; together they pin the merged output to
the serial answer.

Workers are governed by per-worker :class:`~repro.runtime.RunGuard`
budgets (``timeout`` / ``memory_limit_mb`` apply to each shard
independently).  An interrupted shard contributes its anytime partial
result; ``on_partial`` decides whether the driver then raises (with
the merged partial attached, like the serial front door) or returns
the partial merge marked ``interrupted``.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, List, Optional, Sequence, Tuple

from .data import itemset
from .data.database import TransactionDatabase
from .kernels import resolve_backend
from .mining import ALGORITHMS, _CLOSED_ONLY, _resolve_algorithm, _validate_smin, mine
from .obs import Probe, Tracer, resolve_probe
from .result import MiningResult
from .runtime import MiningInterrupted

__all__ = ["mine_parallel", "ShardOutcome", "plan_shards", "map_in_processes"]

#: Shards per worker: small multiple so a slow shard does not leave
#: the pool idle, without drowning the run in per-shard overhead.
_SHARDS_PER_WORKER = 4


class ShardOutcome:
    """What one shard produced: status, pairs, and provenance.

    ``status`` is one of ``"ok"`` (shard mined to completion),
    ``"interrupted"`` (per-worker guard tripped; ``pairs`` holds the
    anytime partial, possibly empty) or ``"crashed"`` (the worker
    process died; synthesised by the parent, ``pairs`` empty).

    ``metrics`` is the worker-local metrics snapshot
    (:meth:`repro.obs.MetricsRegistry.snapshot`) when the run was
    probed, else ``None``; the parent folds it in at the join.
    ``trace`` likewise ships the worker tracer's records and wall-clock
    origin (``{"wall": ..., "records": [...]}``), so the parent can
    remap the worker spans onto its own timeline and the merged trace
    renders as one tree.
    """

    __slots__ = ("index", "scheme", "status", "pairs", "error", "metrics",
                 "trace")

    def __init__(
        self,
        index: int,
        scheme: str,
        status: str,
        pairs: List[Tuple[int, int]],
        error: Optional[str] = None,
        metrics: Optional[Dict] = None,
        trace: Optional[Dict] = None,
    ) -> None:
        self.index = index
        self.scheme = scheme
        self.status = status
        self.pairs = pairs
        self.error = error
        self.metrics = metrics
        self.trace = trace

    def __repr__(self) -> str:
        return (
            f"ShardOutcome(index={self.index}, scheme={self.scheme!r}, "
            f"status={self.status!r}, pairs={len(self.pairs)})"
        )


def plan_shards(
    db: TransactionDatabase, scheme: str, n_shards: int
) -> List[Tuple[int, int]]:
    """Split the search space into ``[start, end)`` index ranges.

    For ``scheme="items"`` the ranges partition the item codes, for
    ``scheme="transactions"`` the transaction indices.  Ranges are
    balanced by count; empty databases yield no shards.
    """
    total = db.n_items if scheme == "items" else db.n_transactions
    n_shards = max(1, min(n_shards, total))
    if total == 0:
        return []
    bounds = [round(i * total / n_shards) for i in range(n_shards + 1)]
    return [
        (bounds[i], bounds[i + 1])
        for i in range(n_shards)
        if bounds[i] < bounds[i + 1]
    ]


def _shard_masks(
    db: TransactionDatabase, scheme: str, start: int, end: int
) -> List[int]:
    """The shard sub-database for one planned range, as transaction masks."""
    if scheme == "items":
        group = ((1 << end) - 1) ^ ((1 << start) - 1)
        high = ~((1 << start) - 1)
        return [t & high for t in db.transactions if t & group]
    union = 0
    for j in range(start, end):
        union |= db.transactions[j]
    return [t & union for t in db.transactions[start:]]


def _worker_trace(probe: Optional[Probe]) -> Optional[Dict]:
    """The picklable tracer payload a probed worker ships home."""
    if probe is None:
        return None
    return {"wall": probe.tracer.wall, "records": list(probe.tracer.records)}


def _shard_worker(payload: Dict) -> ShardOutcome:
    """Mine one shard (runs in a worker process; must stay top-level)."""
    db = TransactionDatabase.from_masks(payload["masks"], payload["n_items"])
    # Each probed worker gets its own registry; the snapshot (plain
    # dicts, hence picklable) travels home in the outcome and is merged
    # by the parent probe at the join.  The worker tracer inherits the
    # parent's trace context, so its spans attach under the span that
    # was open at fan-out.
    probe = None
    if payload.get("probe"):
        context = payload.get("trace") or {}
        probe = Probe(
            tracer=Tracer(
                trace_id=context.get("trace_id"),
                parent_id=context.get("parent_id"),
            )
        )
    try:
        result = mine(
            db,
            payload["smin"],
            algorithm=payload["algorithm"],
            target=payload["target"],
            backend=payload["backend"],
            timeout=payload["timeout"],
            memory_limit_mb=payload["memory_limit_mb"],
            probe=probe,
            **payload["options"],
        )
    except MiningInterrupted as exc:
        pairs = list(exc.partial.items()) if exc.partial is not None else []
        return ShardOutcome(
            payload["index"],
            payload["scheme"],
            "interrupted",
            pairs,
            str(exc),
            metrics=probe.metrics.snapshot() if probe is not None else None,
            trace=_worker_trace(probe),
        )
    return ShardOutcome(
        payload["index"],
        payload["scheme"],
        "ok",
        list(result.items()),
        metrics=probe.metrics.snapshot() if probe is not None else None,
        trace=_worker_trace(probe),
    )


def _verify_candidates(
    db: TransactionDatabase,
    masks: Sequence[int],
    smin: int,
    require_closed: bool,
) -> Dict[int, int]:
    """Re-derive every candidate against the full database.

    Recomputes cover and support from scratch and, when
    ``require_closed``, the closure of the cover; only closed frequent
    sets survive.  This is what makes the merge *provably* equal to
    the serial result: candidates are evidence, not answers.
    """
    supports: Dict[int, int] = {}
    for mask in masks:
        if not mask:
            continue
        cover = db.cover(mask)
        support = itemset.size(cover)
        if support < smin:
            continue
        if require_closed:
            closure = -1
            remaining = cover
            while remaining:
                low = remaining & -remaining
                closure &= db.transactions[low.bit_length() - 1]
                remaining ^= low
            if closure != mask:
                continue
        supports[mask] = support
    return supports


def mine_parallel(
    db: TransactionDatabase,
    smin: float,
    algorithm: str = "ista",
    target: str = "closed",
    n_workers: Optional[int] = None,
    shard: str = "auto",
    backend=None,
    timeout: Optional[float] = None,
    memory_limit_mb: Optional[float] = None,
    on_partial: str = "raise",
    probe=None,
    **options,
) -> MiningResult:
    """Mine closed frequent item sets across worker processes.

    Parameters
    ----------
    db, smin, algorithm, target:
        As for :func:`repro.mining.mine`.  ``target`` must be
        ``"closed"`` or ``"maximal"`` — the sharded merge re-verifies
        closedness, which has no analogue for ``target="all"``.
    n_workers:
        Worker processes (default ``os.cpu_count()``).  ``1`` runs the
        shards inline in this process — same code path, no pickling —
        which is also the fallback when only one shard is planned.
    shard:
        ``"items"``, ``"transactions"``, or ``"auto"`` (transactions
        for the Carpenter/intersection family, items for the
        enumeration miners).  See the module docstring for the two
        schemes and their exactness proofs.
    backend:
        Kernel backend, as for :func:`repro.mining.mine`; workers
        resolve it by name, the merge verification uses it directly.
    timeout, memory_limit_mb:
        Per-worker :class:`~repro.runtime.RunGuard` budgets, applied to
        each shard independently.
    on_partial:
        ``"raise"`` (default) raises :class:`MiningInterrupted` with
        the merged partial attached when any shard was interrupted;
        ``"return"`` returns the partial merge marked
        ``interrupted=True``.  Every surviving set is genuinely closed
        frequent with exact support either way — interruption only
        costs completeness.
    probe:
        Optional :class:`repro.obs.Probe`.  Each worker runs its own
        registry and ships a snapshot home in its
        :class:`ShardOutcome`; the parent folds every snapshot into
        this probe at the join (counters sum, gauges max, histograms
        merge bucket-wise).  Note that shard counter totals measure the
        *sharded* computation — shards mine masked sub-databases, so
        their sums need not equal a serial run's counts (see
        ``docs/observability.md``).
    options:
        Algorithm-specific options, forwarded to every shard.
    """
    if target not in ("closed", "maximal"):
        raise ValueError(
            f"mine_parallel target must be 'closed' or 'maximal', got {target!r}"
        )
    if shard not in ("auto", "items", "transactions"):
        raise ValueError(
            f"shard must be 'auto', 'items' or 'transactions', got {shard!r}"
        )
    if on_partial not in ("raise", "return"):
        raise ValueError(f"on_partial must be 'raise' or 'return', got {on_partial!r}")
    algorithm = _resolve_algorithm(algorithm, db, target)
    smin = _validate_smin(smin, db.n_transactions)
    obs = resolve_probe(probe)
    kernel = resolve_backend(backend)
    if shard == "auto":
        shard = "transactions" if algorithm in _CLOSED_ONLY else "items"
    if n_workers is None:
        n_workers = os.cpu_count() or 1
    if n_workers < 1:
        raise ValueError(f"n_workers must be at least 1, got {n_workers}")

    if db.n_transactions == 0:
        return MiningResult({}, db.item_labels, f"{algorithm}+parallel", smin)

    with obs.phase("plan", algorithm=algorithm, scheme=shard, workers=n_workers):
        ranges = plan_shards(db, shard, n_workers * _SHARDS_PER_WORKER)
        payloads = [
            {
                "index": index,
                "scheme": shard,
                "masks": _shard_masks(db, shard, start, end),
                "n_items": db.n_items,
                "smin": smin,
                "algorithm": algorithm,
                # Workers always mine the closed family; maximal filtering
                # needs the merged closed family, so it happens after merge.
                "target": "closed",
                "backend": kernel.name,
                "timeout": timeout,
                "memory_limit_mb": memory_limit_mb,
                "probe": obs.active,
                "options": options,
            }
            for index, (start, end) in enumerate(ranges)
        ]
    obs.count("parallel.shards", len(payloads))

    with obs.phase("mine", algorithm=algorithm, shards=len(payloads)):
        # Capture the trace context *inside* the mine span so worker
        # spans attach under it in the merged tree.
        context = obs.trace_context()
        if context is not None:
            for payload in payloads:
                payload["trace"] = context
        outcomes = _run_shards(payloads, n_workers)

    with obs.phase("merge", algorithm=algorithm):
        for outcome in outcomes:
            obs.merge_worker(outcome.metrics, outcome.index, trace=outcome.trace)
        candidates: Dict[int, None] = {}
        for outcome in outcomes:
            for mask, _ in outcome.pairs:
                candidates[mask] = None
        supports = _verify_candidates(
            db, list(candidates), smin, require_closed=True
        )

    result = MiningResult(supports, db.item_labels, f"{algorithm}+parallel", smin)
    if target == "maximal":
        result = result.maximal()
        result.algorithm = f"{algorithm}+parallel-maximal"

    interrupted = [o for o in outcomes if o.status == "interrupted"]
    crashed = [o for o in outcomes if o.status == "crashed"]
    if interrupted:
        obs.count("parallel.shards_interrupted", len(interrupted))
    if crashed:
        obs.count("parallel.shards_crashed", len(crashed))
    if crashed:
        details = "; ".join(
            f"shard {o.index}: {o.error or 'worker process died'}" for o in crashed
        )
        raise RuntimeError(f"{len(crashed)} shard worker(s) crashed: {details}")
    if interrupted:
        if on_partial == "return":
            result.interrupted = True
            return result
        exc = MiningInterrupted(
            f"{len(interrupted)} of {len(outcomes)} shards interrupted",
            algorithm=f"{algorithm}+parallel",
        )
        exc.attach_partial(lambda: result, algorithm=f"{algorithm}+parallel")
        raise exc
    return result


def _fork_pool(max_workers: int) -> ProcessPoolExecutor:
    """A fork-context process pool (spawn fallback where fork is absent).

    Fork keeps the interpreter state out of pickled spawn arguments;
    the task payloads themselves are always pickled.
    """
    import multiprocessing

    try:
        context = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - platforms without fork
        context = multiprocessing.get_context()
    return ProcessPoolExecutor(max_workers=max_workers, mp_context=context)


def map_in_processes(worker, payloads: Sequence, n_workers: int) -> List:
    """Apply a top-level ``worker`` to every payload across processes.

    Results come back in payload order.  With ``n_workers <= 1`` or a
    single payload the work runs inline in this process — same code
    path, no pickling.  A worker exception propagates to the caller.
    Shared by the sharded miner and the serving layer's parallel
    snapshot builds.
    """
    payloads = list(payloads)
    if n_workers <= 1 or len(payloads) <= 1:
        return [worker(payload) for payload in payloads]
    with _fork_pool(min(n_workers, len(payloads))) as pool:
        return list(pool.map(worker, payloads))


def _run_shards(payloads: List[Dict], n_workers: int) -> List[ShardOutcome]:
    """Execute the shard payloads, inline or across a process pool.

    A worker that dies (rather than raising) is reported as a
    ``"crashed"`` outcome for its shard; the remaining shards are still
    collected, so one bad shard does not discard the others' work.
    """
    if n_workers <= 1 or len(payloads) <= 1:
        return [_shard_worker(payload) for payload in payloads]
    outcomes: List[Optional[ShardOutcome]] = [None] * len(payloads)
    with _fork_pool(min(n_workers, len(payloads))) as pool:
        futures = {
            pool.submit(_shard_worker, payload): payload["index"]
            for payload in payloads
        }
        for future, index in futures.items():
            try:
                outcome = future.result()
            except MiningInterrupted:
                raise
            except Exception as exc:  # BrokenProcessPool, pickling, ...
                outcome = ShardOutcome(
                    index, payloads[index]["scheme"], "crashed", [], repr(exc)
                )
            outcomes[index] = outcome
    return [outcome for outcome in outcomes if outcome is not None]
