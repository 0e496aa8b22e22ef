"""The long-lived query daemon: ``repro-mine serve STORE``.

The paper's premise is *mine once, serve many*: the closed family is
computed by intersecting transactions, then queried repeatedly.  The
one-shot ``repro-mine query`` command pays a snapshot load per
invocation and throws the memo away; :class:`QueryServer` keeps a hot
:class:`~repro.core.incremental.IncrementalMiner` resident instead and
answers the same four verbs over HTTP/JSON, so repeat queries hit the
generation-memoised warm path the serving benchmarks measure.

Design points:

* **Pure reader.**  The server only ever reads snapshot generations
  (``snapshot-*.rsnp``); it never touches the writer's WAL or flight
  recorder, so it can attach to a live :class:`StreamingMiner` store —
  the same attached-reader rule ``repro-mine top`` follows.
* **Hot snapshot swap.**  A watcher polls the store directory; when a
  newer generation appears it is loaded *off* the request path and the
  resident miner is replaced by flipping one reference
  (:meth:`QueryServer.reload_if_changed`).  In-flight requests keep the
  generation they grabbed at entry, so every answer is internally
  consistent with exactly one snapshot — there is no torn state to
  observe.  A failed load keeps the old generation serving and counts
  ``serve.swap.failures``.
* **Admission control.**  A bounded queue
  (:class:`~repro.runtime.AdmissionController`) rejects beyond
  ``max_inflight + max_queue`` with **429** and a ``Retry-After`` hint;
  each admitted query runs under a fresh per-request
  :class:`~repro.runtime.RunGuard` wall-clock/memory budget
  (:func:`~repro.runtime.request_guard`) and a budget trip answers
  **503** — the guard's first check fires before the query body, so an
  exhausted budget leaves the store untouched.
* **Observability built in.**  Every endpoint lands a
  ``serve.http.<endpoint>.seconds`` latency histogram in the probe's
  registry (the same quantile machinery as the WAL and kernel
  metrics); ``/metrics`` is the registry's Prometheus text exposition
  and ``/healthz`` the read-only
  :func:`~repro.serving.health.compute_health` report as JSON.

The HTTP layer is deliberately minimal — stdlib ``asyncio`` streams,
one request per connection — because the protocol surface is four
read-only verbs plus two operational endpoints; see
``docs/serving.md`` for the endpoint catalogue and curl examples.
Everything answers ``GET``; the two item-taking verbs
(``/supersets_of``, ``/support_of``) additionally accept ``POST`` with
a JSON body — an item list, or ``{"items": [...], "smin": N}`` — for
clients whose item lists outgrow a query string.  A POST answers
**byte-identically** to the equivalent GET: the body's item list is
canonicalised to the same comma-separated spec the query parameter
carries and routed through the identical code path (the differential
suite pins that too).
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import os
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from ..obs import LATENCY_BUCKETS, Probe
from ..runtime import AdmissionController, MiningInterrupted, Saturated, request_guard
from .health import compute_health
from .queries import QUERY_VERBS, parse_items, query_lines
from .snapshot import SnapshotError, load_snapshot

__all__ = ["QueryServer"]

#: HTTP reason phrases for the statuses the server emits.
_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Compact, key-sorted JSON: responses are byte-deterministic.
_JSON_KWARGS = dict(sort_keys=True, separators=(",", ":"))

#: Largest accepted POST body.  The verbs take item lists, not data
#: uploads — a megabyte of items is already far past any real query.
_MAX_BODY_BYTES = 1 << 20

#: Longest accepted request or header line (the asyncio stream limit);
#: a longer one answers 431.
_MAX_LINE_BYTES = 1 << 16

#: The verbs that accept a POSTed JSON item list.
_POST_VERBS = ("supersets_of", "support_of")


class _HttpError(Exception):
    """Internal routing shortcut carrying a ready HTTP error."""

    def __init__(self, status: int, message: str, retry_after: Optional[float] = None):
        super().__init__(message)
        self.status = status
        self.message = message
        self.retry_after = retry_after


class _Rejected(_HttpError):
    """A request refused while reading it, before any routing.

    ``reason`` names its ``serve.http.rejected.<reason>`` counter.
    """

    def __init__(self, status: int, reason: str, message: str):
        super().__init__(status, message)
        self.reason = reason


class _Hot:
    """One resident snapshot generation: miner + its identity + lock.

    The lock serialises query execution against this miner — its memo
    dictionary and resident packed table are not thread-safe — and is
    *per generation*, so a swap never waits on it: requests that
    grabbed the old generation finish on the old lock while new
    requests queue on the new one.
    """

    __slots__ = ("miner", "covered", "path", "lock")

    def __init__(self, miner, covered: int, path: str) -> None:
        self.miner = miner
        self.covered = covered
        self.path = path
        self.lock = threading.Lock()


class QueryServer:
    """Resident HTTP/JSON query daemon over a snapshot store directory.

    Parameters
    ----------
    store:
        A store directory holding at least one ``snapshot-*.rsnp``
        generation (as written by ``repro-mine ingest`` / ``snapshot``).
        Raises :class:`ValueError` at :meth:`start` when none exists —
        the daemon is a reader, it cannot invent a repository.
    host, port:
        Listen address; port 0 asks the kernel for an ephemeral port
        (``self.port`` holds the real one after :meth:`start`).
    workers:
        Query executor threads.  Snapshot loads run on a dedicated
        extra thread, so ingest-driven swaps never queue behind slow
        queries (and vice versa).
    max_inflight, max_queue:
        Admission bounds: at most ``max_inflight`` queries execute
        while ``max_queue`` more wait; beyond that, 429.
    request_timeout, request_memory_limit_mb:
        Per-request budgets enforced by a fresh RunGuard around every
        query; a trip answers 503.  ``None`` disables the budget.
    poll_interval:
        Store watch period in seconds for the background swap task.
    backend:
        Kernel backend for the resident miners (``None`` = default).
    probe:
        A live :class:`repro.obs.Probe` to record into; one is created
        when omitted (``/metrics`` needs a registry to expose).
    """

    def __init__(
        self,
        store,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        max_inflight: int = 8,
        max_queue: int = 16,
        request_timeout: Optional[float] = None,
        request_memory_limit_mb: Optional[float] = None,
        retry_after: float = 1.0,
        poll_interval: float = 1.0,
        backend=None,
        probe: Optional[Probe] = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be at least 1, got {workers}")
        if poll_interval <= 0:
            raise ValueError(
                f"poll_interval must be positive, got {poll_interval}"
            )
        self.store = os.fspath(store)
        self.host = host
        self.port = port
        self.workers = workers
        self.request_timeout = request_timeout
        self.request_memory_limit_mb = request_memory_limit_mb
        self.poll_interval = poll_interval
        self._backend = backend
        self._obs = probe if probe is not None else Probe()
        self._admission = AdmissionController(
            max_inflight=max_inflight,
            max_queue=max_queue,
            retry_after=retry_after,
        )
        self._hot: Optional[_Hot] = None
        self._swap_lock = threading.Lock()
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="serve-query"
        )
        # Dedicated lane for swap loads and health scans: a saturated
        # query pool must never delay a generation flip.
        self._aux = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="serve-swap"
        )
        self._slots = asyncio.Semaphore(max_inflight)
        self._server: Optional[asyncio.base_events.Server] = None
        self._watch_task: Optional[asyncio.Task] = None

    # ------------------------------------------------------------------
    # Hot generation management
    # ------------------------------------------------------------------

    @property
    def metrics(self):
        """The probe's metrics registry (what ``/metrics`` exposes)."""
        return self._obs.metrics

    @property
    def generation(self) -> Optional[int]:
        """Covered-transaction count of the resident generation."""
        hot = self._hot
        return hot.covered if hot is not None else None

    def _list_generations(self) -> List[Tuple[int, str]]:
        from .streaming import _list_snapshots

        return _list_snapshots(self.store)

    def _load_generation(self, covered: int, path: str) -> _Hot:
        with self._obs.phase("serve.swap.load", covered=covered):
            miner = load_snapshot(path, backend=self._backend, probe=self._obs)
        return _Hot(miner, covered, path)

    def load_initial(self) -> None:
        """Load the newest generation or fail; called by :meth:`start`."""
        snapshots = self._list_generations()
        if not snapshots:
            raise ValueError(
                f"no snapshot generation found in {self.store!r}; "
                "run 'repro-mine ingest' or 'repro-mine snapshot' first"
            )
        covered, path = snapshots[-1]
        self._hot = self._load_generation(covered, path)
        self._obs.count("serve.load.count")

    def reload_if_changed(self) -> bool:
        """Swap in a newer snapshot generation if one appeared.

        Synchronous and thread-safe (the background watcher, a test
        driver and an operator signal can all call it); returns whether
        a swap happened.  The load runs entirely outside the request
        path — requests keep answering from the old generation until
        the single reference flip — and a failed load keeps the old
        generation serving.
        """
        with self._swap_lock:
            hot = self._hot
            snapshots = self._list_generations()
            if not snapshots:
                return False
            covered, path = snapshots[-1]
            if hot is not None and covered <= hot.covered:
                return False
            try:
                fresh = self._load_generation(covered, path)
            except (SnapshotError, OSError):
                # Best effort: the writer may be mid-rename, or the
                # newest generation may be damaged.  Keep serving the
                # resident one; the next poll retries.
                self._obs.count("serve.swap.failures")
                return False
            self._hot = fresh
            self._obs.count("serve.swap.count")
            self._obs.event(
                "snapshot-swapped", covered=covered, path=os.path.basename(path)
            )
            return True

    async def _watch_store(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            await asyncio.sleep(self.poll_interval)
            try:
                await loop.run_in_executor(self._aux, self.reload_if_changed)
            except Exception:
                # The watcher must survive transient filesystem trouble.
                self._obs.count("serve.swap.failures")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Load the newest generation and start listening + watching."""
        loop = asyncio.get_running_loop()
        if self._hot is None:
            await loop.run_in_executor(self._aux, self.load_initial)
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port, limit=_MAX_LINE_BYTES
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._watch_task = loop.create_task(self._watch_store())

    async def stop(self) -> None:
        """Stop listening, cancel the watcher, drain the executors."""
        if self._watch_task is not None:
            self._watch_task.cancel()
            try:
                await self._watch_task
            except asyncio.CancelledError:
                pass
            self._watch_task = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self._pool.shutdown(wait=True)
        self._aux.shutdown(wait=True)

    def run(
        self, ready: Optional[Callable[[str, int], None]] = None
    ) -> int:
        """Serve until SIGTERM/SIGINT; returns 0 on clean shutdown.

        ``ready`` is called with the bound ``(host, port)`` once the
        listener is up (the CLI prints the address to stderr).
        """
        return asyncio.run(self._run(ready))

    async def _run(self, ready: Optional[Callable[[str, int], None]]) -> int:
        await self.start()
        if ready is not None:
            ready(self.host, self.port)
        loop = asyncio.get_running_loop()
        stopping = asyncio.Event()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, stopping.set)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
        try:
            await stopping.wait()
        except (KeyboardInterrupt, asyncio.CancelledError):  # pragma: no cover
            pass
        await self.stop()
        return 0

    # ------------------------------------------------------------------
    # HTTP layer
    # ------------------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                request = await self._read_request(reader)
            except _Rejected as exc:
                # The socket is still writable: answer instead of
                # dropping the connection without a word.
                self._obs.count(f"serve.http.rejected.{exc.reason}")
                self._obs.count(f"serve.http.status.{exc.status}")
                status, ctype, body, extra = self._error_response(exc)
            else:
                if request is None:
                    return
                status, ctype, body, extra = await self._respond(*request)
            head = [
                f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
                f"Content-Type: {ctype}",
                f"Content-Length: {len(body)}",
                "Connection: close",
            ]
            head.extend(extra)
            writer.write(
                ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body
            )
            await writer.drain()
        except (ConnectionError, asyncio.TimeoutError):  # pragma: no cover
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    @staticmethod
    async def _read_request(
        reader: asyncio.StreamReader,
    ) -> Optional[Tuple[str, str, bytes, int]]:
        """Read one request: ``(method, target, body, content_length)``.

        ``None`` when the client sends no request line (closes, or
        stalls past the read timeout).  A request that cannot be read
        raises :class:`_Rejected`: a line over the stream limit (431),
        a request line without method and target, or a POST body
        shorter than its ``Content-Length`` (400).
        """

        async def read_line() -> bytes:
            try:
                return await asyncio.wait_for(reader.readline(), timeout=10.0)
            except ValueError:
                raise _Rejected(
                    431,
                    "line_too_long",
                    f"request or header line over the {_MAX_LINE_BYTES}-byte limit",
                )

        try:
            request_line = await read_line()
        except asyncio.TimeoutError:
            return None
        if not request_line:
            return None
        parts = request_line.decode("latin-1", "replace").split()
        if len(parts) < 2:
            raise _Rejected(
                400, "bad_request_line", "malformed request line; expected "
                "METHOD TARGET HTTP/1.1"
            )
        method, target = parts[0], parts[1]
        # Drain the headers, keeping Content-Length: POST verbs carry a
        # JSON body, everything else has none to read.
        content_length = 0
        while True:
            line = await read_line()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1", "replace").partition(":")
            if name.strip().lower() == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError:
                    content_length = -1
        request_body = b""
        if 0 < content_length <= _MAX_BODY_BYTES:
            try:
                request_body = await asyncio.wait_for(
                    reader.readexactly(content_length), timeout=10.0
                )
            except asyncio.IncompleteReadError as exc:
                raise _Rejected(
                    400,
                    "truncated_body",
                    f"request body ended after {len(exc.partial)} of "
                    f"{content_length} bytes",
                )
        return method, target, request_body, content_length

    async def _respond(
        self, method: str, target: str, request_body: bytes = b"",
        content_length: int = 0,
    ) -> Tuple[int, str, bytes, List[str]]:
        """Route one request; returns (status, content-type, body, headers)."""
        split = urlsplit(target)
        endpoint = split.path.strip("/")
        started = time.perf_counter()
        try:
            if method == "POST" and endpoint in _POST_VERBS:
                if content_length > _MAX_BODY_BYTES:
                    raise _HttpError(
                        400,
                        f"POST body of {content_length} bytes exceeds the "
                        f"{_MAX_BODY_BYTES}-byte limit",
                    )
                if content_length < 0:
                    raise _HttpError(400, "malformed Content-Length header")
                params = parse_qs(split.query, keep_blank_values=True)
                items, smin = self._parse_post_body(request_body)
                # Canonicalise to the exact spec string a GET would
                # carry in ?items= — from here on the two methods run
                # the same code and emit the same bytes.
                params["items"] = [",".join(str(item) for item in items)]
                if smin is not None:
                    params["smin"] = [str(smin)]
                result = await self._query(endpoint, params)
            elif method != "GET":
                allowed = (
                    "GET or POST" if endpoint in _POST_VERBS else "GET"
                )
                raise _HttpError(
                    405, f"method {method} not allowed; use {allowed}"
                )
            elif endpoint == "metrics":
                body = self.metrics.to_prom().encode("utf-8")
                result = (
                    200,
                    "text/plain; version=0.0.4; charset=utf-8",
                    body,
                    [],
                )
            elif endpoint == "healthz":
                result = (200, "application/json", await self._healthz(), [])
            elif endpoint in QUERY_VERBS:
                params = parse_qs(split.query, keep_blank_values=True)
                result = await self._query(endpoint, params)
            else:
                raise _HttpError(
                    404,
                    f"unknown endpoint {split.path!r}; expected one of "
                    + ", ".join(f"/{verb}" for verb in QUERY_VERBS)
                    + ", /metrics, /healthz",
                )
        except _HttpError as exc:
            result = self._error_response(exc)
        except Exception as exc:  # pragma: no cover - defensive
            result = self._error_response(
                _HttpError(500, f"{type(exc).__name__}: {exc}")
            )
        status = result[0]
        self._obs.count("serve.http.requests")
        self._obs.count(f"serve.http.status.{status}")
        if endpoint in QUERY_VERBS or endpoint in ("metrics", "healthz"):
            self._obs.observe(
                f"serve.http.{endpoint}.seconds",
                time.perf_counter() - started,
                buckets=LATENCY_BUCKETS,
            )
        return result

    def _error_response(
        self, exc: _HttpError
    ) -> Tuple[int, str, bytes, List[str]]:
        body = json.dumps(
            {"error": exc.message, "status": exc.status}, **_JSON_KWARGS
        ).encode("utf-8")
        extra = []
        if exc.retry_after is not None:
            extra.append(f"Retry-After: {max(1, round(exc.retry_after))}")
        return exc.status, "application/json", body, extra

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------

    async def _healthz(self) -> bytes:
        loop = asyncio.get_running_loop()
        report = await loop.run_in_executor(
            self._aux, compute_health, self.store
        )
        hot = self._hot
        payload = dataclasses.asdict(report)
        payload["server"] = {
            "generation": hot.covered if hot is not None else None,
            "snapshot": (
                os.path.basename(hot.path) if hot is not None else None
            ),
            "admission": self._admission.snapshot(),
        }
        return json.dumps(payload, **_JSON_KWARGS).encode("utf-8")

    @staticmethod
    def _parse_post_body(body: bytes) -> Tuple[List[object], Optional[int]]:
        """Decode a POSTed item list: ``[...]`` or ``{"items": [...]}``.

        Returns ``(items, smin)`` with ``smin`` ``None`` when the body
        does not carry one.  Items must be JSON strings or integers —
        the same universe a ``?items=`` query parameter can express.
        """
        shape = (
            "POST body must be JSON: an item list, or an object "
            "{\"items\": [...], \"smin\": N}"
        )
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            raise _HttpError(400, shape) from None
        smin: Optional[int] = None
        if isinstance(payload, dict):
            if "items" not in payload:
                raise _HttpError(400, shape + " — 'items' is missing")
            items = payload["items"]
            smin = payload.get("smin")
            if smin is not None and (
                isinstance(smin, bool) or not isinstance(smin, int)
            ):
                raise _HttpError(
                    400, f"POST 'smin' must be an integer, got {smin!r}"
                )
        else:
            items = payload
        if not isinstance(items, list) or not items:
            raise _HttpError(400, shape + " — need a non-empty item list")
        for item in items:
            if isinstance(item, bool) or not isinstance(item, (str, int)):
                raise _HttpError(
                    400,
                    f"POST items must be strings or integers, got {item!r}",
                )
        return items, smin

    @staticmethod
    def _int_param(
        params: Dict[str, List[str]], name: str, default: Optional[int]
    ) -> Optional[int]:
        values = params.get(name)
        if not values:
            return default
        try:
            return int(values[-1])
        except ValueError:
            raise _HttpError(
                400, f"query parameter {name!r} must be an integer, "
                f"got {values[-1]!r}"
            ) from None

    async def _query(
        self, verb: str, params: Dict[str, List[str]]
    ) -> Tuple[int, str, bytes, List[str]]:
        smin = self._int_param(params, "smin", 1)
        k = self._int_param(params, "k", None)
        items_spec = params.get("items", [None])[-1]
        if verb == "top_k" and k is None:
            raise _HttpError(400, "top_k needs a 'k' query parameter")
        if verb in ("supersets_of", "support_of") and items_spec is None:
            raise _HttpError(
                400, f"{verb} needs an 'items' query parameter"
            )
        try:
            self._admission.admit()
        except Saturated as exc:
            raise _HttpError(429, str(exc), retry_after=exc.retry_after)
        loop = asyncio.get_running_loop()
        try:
            async with self._slots:
                self._admission.start()
                # One reference grab: this request answers from exactly
                # this generation, swap or no swap.
                hot = self._hot
                try:
                    lines = await loop.run_in_executor(
                        self._pool,
                        self._run_query,
                        hot,
                        verb,
                        smin,
                        k,
                        items_spec,
                    )
                except MiningInterrupted as exc:
                    self._obs.count("serve.admission.tripped")
                    raise _HttpError(
                        503,
                        f"request budget exceeded: {exc}",
                        retry_after=self._admission.retry_after,
                    ) from None
                except ValueError as exc:
                    raise _HttpError(400, str(exc)) from None
        finally:
            self._admission.release()
        payload = {
            "verb": verb,
            "store": self.store,
            "generation": hot.covered,
            "snapshot": os.path.basename(hot.path),
            "smin": smin,
            "lines": lines,
        }
        if k is not None:
            payload["k"] = k
        if items_spec is not None:
            payload["items"] = items_spec
        body = json.dumps(payload, **_JSON_KWARGS).encode("utf-8")
        return 200, "application/json", body, []

    def _run_query(
        self,
        hot: _Hot,
        verb: str,
        smin: int,
        k: Optional[int],
        items_spec: Optional[str],
    ) -> List[str]:
        """Execute one verb on the pool, serialised per generation.

        The per-generation lock makes the miner's memo/packed-table
        mutations safe; the per-request guard is installed under the
        same lock, so its hook never leaks across requests.
        """
        with hot.lock:
            with request_guard(
                hot.miner,
                timeout=self.request_timeout,
                memory_limit_mb=self.request_memory_limit_mb,
                probe=self._obs,
            ):
                items = (
                    parse_items(items_spec, hot.miner)
                    if items_spec is not None
                    else None
                )
                return query_lines(
                    hot.miner, verb, smin=smin, k=k, items=items
                )
