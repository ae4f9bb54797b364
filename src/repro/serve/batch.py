"""Request micro-batching: coalesce concurrent scoring into one GEMM.

Scoring is one callable over a batch of requests; a lone request is a
batch of one.  At low request rates there is nothing to coalesce and any
wait is pure added latency.  Under concurrency the picture flips: N
threads each running a tiny fold-in fight over the GIL and launch N
separate numpy kernels, while a single batched ``batch_next_product_proba``
call scores all N histories in one GEMM.  :class:`MicroBatcher` switches
between the two regimes automatically:

* a request arriving while the batcher is **idle** (nothing queued,
  nothing executing) is scored at once as a batch of one — zero added
  latency at low RPS;
* requests arriving while work is in flight queue up; a collector thread
  drains them into batches of up to ``batch_max``.  Queued requests wait
  for batch-mates only while another scoring call is still running — the
  moment the scorer is free, whatever has queued runs as one batch — and
  never longer than the batching window or any queued request's deadline
  allowance (``wait_fraction`` of its budget), so a request never burns
  its deadline waiting for batch-mates;
* a drained batch runs under the *minimum* remaining budget of its
  members;
* if a batch of several fails for any reason, every member is re-scored
  **individually** as a batch of one under its own remaining budget — a
  batch failure degrades per-request through the ladder and never takes
  batch-mates down with it.

The returned :class:`BatchedAnswer` reports which path answered
(``single`` for a batch of one, ``batched`` otherwise), the batch size,
and the queue wait, feeding the service's audit trail and the
``serve.path{...}`` counters the bench harness uses to prove coalescing
actually happened.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from repro.obs.logging import get_logger

__all__ = ["BatchedAnswer", "MicroBatcher"]

#: Scorer: (histories, thresholds, top_ns, budget_s) -> one result per
#: history, in order.
Scorer = Callable[
    [list[list[int]], list[float | None], list[int], float], list[object]
]

#: Floor budget handed to fallback scoring when a deadline is nearly spent;
#: the ladder's popularity floor still answers inside it.
_MIN_BUDGET_S = 1e-4


@dataclass(frozen=True)
class BatchedAnswer:
    """One request's result plus the coalescing audit trail."""

    result: object
    path: str  # "single" | "batched"
    batch_size: int
    waited_ms: float


@dataclass
class _Pending:
    """A queued request waiting to be drained into a batch."""

    history: list[int]
    threshold: float | None
    top_n: int
    deadline_s: float
    enqueued: float
    #: Collection must start by this instant, whatever the window says.
    latest_start: float
    done: threading.Event = field(default_factory=threading.Event)
    result: object | None = None
    error: BaseException | None = None
    path: str = "single"
    batch_size: int = 1
    waited_s: float = 0.0


class MicroBatcher:
    """Window-bounded, deadline-aware coalescing of scoring requests.

    Parameters
    ----------
    score:
        The scoring callable (the ladder's walk); must return one result
        per history, in order.
    window_s:
        Longest a batch collects before executing; it stops collecting
        sooner once no other scoring call is running.
    batch_max:
        Hard cap on batch size; a full batch executes immediately.
    wait_fraction:
        Fraction of a request's deadline budget it may spend waiting for
        batch-mates (the rest is reserved for execution).
    clock:
        Monotonic seconds source (injectable for tests).
    """

    def __init__(
        self,
        score: Scorer,
        *,
        window_s: float = 0.002,
        batch_max: int = 16,
        wait_fraction: float = 0.5,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if window_s <= 0:
            raise ValueError(f"window_s must be positive, got {window_s}")
        if batch_max < 1:
            raise ValueError(f"batch_max must be >= 1, got {batch_max}")
        if not 0.0 < wait_fraction <= 1.0:
            raise ValueError(f"wait_fraction must be in (0, 1], got {wait_fraction}")
        self._score = score
        self.window_s = window_s
        self.batch_max = batch_max
        self.wait_fraction = wait_fraction
        self._clock = clock
        self._cond = threading.Condition()
        self._queue: deque[_Pending] = deque()
        self._inflight = 0  # executions in progress (direct + batched)
        self._closed = False
        self._log = get_logger("serve.batch")
        self._collector = threading.Thread(
            target=self._collect_loop, name="serve-batch-collector", daemon=True
        )
        self._collector.start()

    # ------------------------------------------------------------------
    # Submission (request threads)
    # ------------------------------------------------------------------
    def submit(
        self,
        history: list[int],
        threshold: float | None,
        top_n: int,
        deadline_s: float,
    ) -> BatchedAnswer:
        """Score one request, coalescing with concurrent arrivals.

        Blocks until the result is ready; total time is bounded by the
        queue wait allowance plus the request's own deadline budget.
        """
        now = self._clock()
        with self._cond:
            if self._closed:
                raise RuntimeError("MicroBatcher is closed")
            if self._inflight == 0 and not self._queue:
                # Idle: score at once as a batch of one, zero added latency.
                self._inflight += 1
                direct = True
            else:
                direct = False
                pending = _Pending(
                    history=list(history),
                    threshold=threshold,
                    top_n=top_n,
                    deadline_s=deadline_s,
                    enqueued=now,
                    latest_start=now
                    + min(self.window_s, self.wait_fraction * deadline_s),
                )
                self._queue.append(pending)
                self._cond.notify_all()
        if direct:
            try:
                result = self._score_one(history, threshold, top_n, deadline_s)
            finally:
                with self._cond:
                    self._inflight -= 1
                    self._cond.notify_all()
            return BatchedAnswer(result, "single", 1, 0.0)
        # Generous timeout: the collector starts the batch within the wait
        # allowance and execution is deadline-bounded; the margin only
        # matters if the collector thread itself is wedged.
        if not pending.done.wait(timeout=self.window_s + deadline_s + 30.0):
            self._log.error("batch collector unresponsive; scoring request solo")
            with self._cond:
                try:
                    self._queue.remove(pending)
                except ValueError:
                    pass  # already drained; keep waiting for its result
            if not pending.done.is_set():
                remaining = max(
                    deadline_s - (self._clock() - pending.enqueued), _MIN_BUDGET_S
                )
                pending.result = self._score_one(history, threshold, top_n, remaining)
                pending.done.set()
            pending.done.wait()
        if pending.error is not None:
            raise pending.error
        return BatchedAnswer(
            pending.result, pending.path, pending.batch_size, pending.waited_s * 1000.0
        )

    # ------------------------------------------------------------------
    # Collection (dedicated thread)
    # ------------------------------------------------------------------
    def _collect_loop(self) -> None:
        while True:
            with self._cond:
                while not self._queue and not self._closed:
                    self._cond.wait()
                if self._closed:
                    for pending in self._queue:
                        pending.error = RuntimeError("MicroBatcher closed")
                        pending.done.set()
                    self._queue.clear()
                    return
                # Collect while another scoring call is running, until the
                # batch fills or the earliest wait allowance among queued
                # requests expires.  Once nothing is running, more waiting
                # only adds latency: the batch goes at once.
                while len(self._queue) < self.batch_max and self._inflight:
                    now = self._clock()
                    wake = min(p.latest_start for p in self._queue)
                    if now >= wake:
                        break
                    self._cond.wait(timeout=min(wake - now, 0.05))
                batch = [
                    self._queue.popleft()
                    for _ in range(min(len(self._queue), self.batch_max))
                ]
                self._inflight += 1
            try:
                self._execute(batch)
            except BaseException:  # noqa: BLE001 - collector must survive
                self._log.error("batch execution failed unexpectedly", exc_info=True)
                for pending in batch:
                    if not pending.done.is_set():
                        pending.error = RuntimeError("batch execution failed")
                        pending.done.set()
            finally:
                with self._cond:
                    self._inflight -= 1
                    self._cond.notify_all()

    def _remaining(self, pending: _Pending, now: float) -> float:
        return pending.deadline_s - (now - pending.enqueued)

    def _score_one(
        self, history: list[int], threshold: float | None, top_n: int, budget_s: float
    ) -> object:
        return self._checked([list(history)], [threshold], [top_n], budget_s)[0]

    def _checked(
        self,
        histories: list[list[int]],
        thresholds: list[float | None],
        top_ns: list[int],
        budget_s: float,
    ) -> list[object]:
        results = self._score(histories, thresholds, top_ns, budget_s)
        if len(results) != len(histories):
            raise RuntimeError(
                f"scorer returned {len(results)} results for "
                f"{len(histories)} requests"
            )
        return results

    def _execute(self, batch: list[_Pending]) -> None:
        now = self._clock()
        for pending in batch:
            pending.waited_s = now - pending.enqueued
        budget = max(min(self._remaining(p, now) for p in batch), _MIN_BUDGET_S)
        try:
            results = self._checked(
                [list(p.history) for p in batch],
                [p.threshold for p in batch],
                [p.top_n for p in batch],
                budget,
            )
        except BaseException as exc:  # noqa: BLE001 - degrade per-request below
            if len(batch) == 1:
                batch[0].error = exc
                batch[0].done.set()
                return
            self._log.warning(
                "batched scoring failed; re-scoring %d requests one by one",
                len(batch),
                exc_info=True,
            )
            # Batch failure never fails batch-mates: each member degrades
            # through the ladder on its own remaining budget.
            for pending in batch:
                self._solo(pending)
            return
        path = "batched" if len(batch) > 1 else "single"
        for pending, result in zip(batch, results):
            pending.result = result
            pending.path = path
            pending.batch_size = len(batch)
            pending.done.set()

    def _solo(self, pending: _Pending) -> None:
        remaining = max(self._remaining(pending, self._clock()), _MIN_BUDGET_S)
        try:
            pending.result = self._score_one(
                pending.history, pending.threshold, pending.top_n, remaining
            )
            pending.path = "single"
            pending.batch_size = 1
        except BaseException as exc:  # noqa: BLE001 - surfaced to the caller
            pending.error = exc
        finally:
            pending.done.set()

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop the collector; queued requests fail, new submits raise."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()
        self._collector.join(timeout=5.0)

    def stats(self) -> dict[str, int]:
        """Point-in-time queue depth and in-flight executions."""
        with self._cond:
            return {"queued": len(self._queue), "inflight": self._inflight}
