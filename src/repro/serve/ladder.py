"""Degradation ladder: LDA → n-gram → popularity prior.

A scoring call walks an ordered list of tiers with a batch of requests; a
single request is a batch of one.  Each model tier is guarded by a
:class:`~repro.serve.breaker.CircuitBreaker` and runs inside the batch's
remaining deadline budget; a tier that is skipped (breaker open, budget
exhausted), raises, or times out hands the whole batch to the next tier.
The final *floor* tier — a precomputed popularity prior — is pure array
lookup: it cannot fail and needs no budget, so every request that passes
admission gets an answer.  The answering tier is reported in the result so
callers can tell a degraded answer from a full one.

Timed-out model calls run in abandoned daemon threads: the ladder cannot
preempt a numpy kernel (or an injected hang), so it stops *waiting* and
degrades, which is exactly the behaviour the deadline budget promises.
:meth:`DegradationLadder.abandoned` counts the ones still running.
"""

from __future__ import annotations

import contextvars
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.obs import trace
from repro.runtime import faults
from repro.serve.breaker import CircuitBreaker

__all__ = ["Tier", "TierOutcome", "LadderResult", "DegradationLadder"]

#: Scorer signature: (histories, thresholds, top_ns) -> one
#: ``[(token, score), ...]`` best-first list per history, in order.
Scorer = Callable[
    [list[list[int]], list[float | None], list[int]],
    list[list[tuple[int, float]]],
]


@dataclass
class Tier:
    """One rung of the ladder: a named batch scorer behind an optional breaker."""

    name: str
    scorer: Scorer
    breaker: CircuitBreaker | None = None


@dataclass(frozen=True)
class TierOutcome:
    """What happened when the ladder considered one tier."""

    tier: str
    status: str  # ok | breaker_open | no_budget | timeout | error
    latency_s: float = 0.0
    error: str | None = None


@dataclass(frozen=True)
class LadderResult:
    """The answer plus the per-tier audit trail."""

    tier: str
    recommendations: list[tuple[int, float]]
    degraded: bool
    outcomes: tuple[TierOutcome, ...] = field(default=())


class DegradationLadder:
    """Walks the tiers under a deadline budget until one answers.

    Parameters
    ----------
    tiers:
        Model tiers in preference order (strongest first).
    floor:
        The always-available fallback tier; runs inline with no breaker
        and no timeout, and must not raise.
    clock:
        Monotonic seconds source (injectable for tests).
    """

    def __init__(
        self,
        tiers: list[Tier],
        floor: Tier,
        *,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if floor.breaker is not None:
            raise ValueError("the floor tier is the guaranteed fallback; no breaker")
        names = [t.name for t in tiers] + [floor.name]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tier names: {names}")
        self.tiers = list(tiers)
        self.floor = floor
        self._clock = clock
        self._abandoned = {t.name: 0 for t in tiers}
        self._abandoned_lock = threading.Lock()

    @property
    def tier_names(self) -> list[str]:
        """All tier names, strongest first, floor last."""
        return [t.name for t in self.tiers] + [self.floor.name]

    def abandoned(self) -> dict[str, int]:
        """Per tier, the timed-out scorer threads that are still running."""
        with self._abandoned_lock:
            return dict(self._abandoned)

    # ------------------------------------------------------------------
    def _run_tier(
        self,
        tier: Tier,
        histories: list[list[int]],
        thresholds: list[float | None],
        top_ns: list[int],
        budget_s: float,
    ) -> tuple[str, list[list[tuple[int, float]]] | None, float, str | None]:
        """Run one tier's scorer over the batch in a worker under ``budget_s``.

        Returns ``(status, rankings, latency, error)``.  A scorer that
        returns the wrong number of rankings is an error: the batch can
        never half-answer.  On timeout the worker thread is abandoned
        (daemon) — its eventual result is discarded and it is counted in
        :meth:`abandoned` until it finishes.
        """
        box: dict[str, object] = {}
        done = threading.Event()
        # The worker inherits the caller's contextvars (request context +
        # trace capture buffer), so spans and counters recorded inside a
        # scorer land in the request's isolated span tree rather than the
        # process-global one.  An abandoned (timed-out) worker may still
        # write into that buffer after the request finishes; the service's
        # telemetry accounting is fail-safe against that.
        context = contextvars.copy_context()

        def worker() -> None:
            try:
                faults.inject(f"serve/score/{tier.name}")
                value = context.run(tier.scorer, histories, thresholds, top_ns)
                if len(value) != len(histories):
                    raise RuntimeError(
                        f"tier {tier.name} returned {len(value)} rankings for "
                        f"{len(histories)} histories"
                    )
                box["value"] = value
            except BaseException as exc:  # noqa: BLE001 - reported, never raised
                box["error"] = exc
            finally:
                with self._abandoned_lock:
                    done.set()
                    if box.get("abandoned"):
                        self._abandoned[tier.name] -= 1

        started = self._clock()
        thread = threading.Thread(
            target=worker, name=f"serve-score-{tier.name}", daemon=True
        )
        thread.start()
        finished = done.wait(budget_s)
        latency = self._clock() - started
        if not finished:
            with self._abandoned_lock:
                if not done.is_set():
                    box["abandoned"] = True
                    self._abandoned[tier.name] += 1
            return "timeout", None, latency, f"exceeded budget of {budget_s:.3f}s"
        if "error" in box:
            error = box["error"]
            return "error", None, latency, f"{type(error).__name__}: {error}"
        return "ok", box["value"], latency, None  # type: ignore[return-value]

    def _walk(
        self,
        histories: list[list[int]],
        thresholds: list[float | None],
        top_ns: list[int],
        deadline_s: float,
    ) -> list[LadderResult]:
        """Answer every history from the strongest tier available.

        Tier skips, timeouts and errors degrade the whole batch to the
        next tier together; the popularity floor always answers.  Every
        result carries the same per-tier audit trail.
        """
        if deadline_s <= 0:
            raise ValueError("deadline_s must be positive")
        started = self._clock()
        outcomes: list[TierOutcome] = []
        for tier in self.tiers:
            breaker = tier.breaker
            if breaker is not None and not breaker.allow():
                outcomes.append(TierOutcome(tier.name, "breaker_open"))
                continue
            remaining = deadline_s - (self._clock() - started)
            if remaining <= 0:
                # The budget is gone: release any probe slot held since
                # allow() without charging the tier a failure.
                if breaker is not None:
                    breaker.cancel()
                outcomes.append(TierOutcome(tier.name, "no_budget"))
                continue
            with trace.span(f"serve.score.{tier.name}"):
                status, rankings, latency, error = self._run_tier(
                    tier, histories, thresholds, top_ns, remaining
                )
            if status == "ok":
                if breaker is not None:
                    breaker.record_success(latency)
                outcomes.append(TierOutcome(tier.name, "ok", latency))
                assert rankings is not None
                return self._results(
                    tier.name, rankings, top_ns, tier is not self.tiers[0], outcomes
                )
            if breaker is not None:
                breaker.record_failure(latency, reason=status)
            outcomes.append(TierOutcome(tier.name, status, latency, error))
        with trace.span(f"serve.score.{self.floor.name}"):
            floor_started = self._clock()
            rankings = self.floor.scorer(histories, thresholds, top_ns)
            outcomes.append(
                TierOutcome(self.floor.name, "ok", self._clock() - floor_started)
            )
        return self._results(
            self.floor.name, rankings, top_ns, bool(self.tiers), outcomes
        )

    @staticmethod
    def _results(
        tier: str,
        rankings: list[list[tuple[int, float]]],
        top_ns: list[int],
        degraded: bool,
        outcomes: list[TierOutcome],
    ) -> list[LadderResult]:
        shared = tuple(outcomes)
        return [
            LadderResult(tier, ranking[:top_n], degraded, shared)
            for ranking, top_n in zip(rankings, top_ns)
        ]

    def score(
        self,
        history: list[int],
        *,
        deadline_s: float,
        threshold: float | None = None,
        top_n: int = 5,
    ) -> LadderResult:
        """Answer one request: the walk over a batch of one."""
        return self._walk([history], [threshold], [top_n], deadline_s)[0]

    def score_batch(
        self,
        histories: list[list[int]],
        *,
        deadline_s: float,
        thresholds: list[float | None] | None = None,
        top_ns: list[int] | None = None,
    ) -> list[LadderResult]:
        """Answer a coalesced batch from the strongest tier available.

        ``deadline_s`` is the batch's shared budget — the coalescing layer
        passes the *minimum* remaining budget of the batch members, so no
        member is held past its own deadline.
        """
        n = len(histories)
        if n == 0:
            return []
        if thresholds is None:
            thresholds = [None] * n
        if top_ns is None:
            top_ns = [5] * n
        if len(thresholds) != n or len(top_ns) != n:
            raise ValueError("thresholds and top_ns must match the batch size")
        return self._walk(histories, thresholds, top_ns, deadline_s)
