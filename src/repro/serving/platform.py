"""The Personalization Platform (TPP) facade — Figure 9's online flow.

``FlightRecommender`` wires the full request path: a query with a user id
hits the Real-Time Features Service for behaviours, the recall strategies
assemble candidate OD pairs, and the Ranking Service scores them with the
trained ODNET; the top-k pairs come back as the recommendation list.

This is the main end-to-end public API of the reproduction:

>>> recommender = FlightRecommender(model, dataset)           # doctest: +SKIP
>>> response = recommender.recommend(user_id=7, day=720, k=5) # doctest: +SKIP

There is one request pipeline and it serves one request per call:
``recommend`` checks its arguments and admits the request, then runs
features, recall, rank and one finish.

Every request is observable (see :mod:`repro.obs`): under an active
:class:`~repro.obs.tracing.Tracer` the stages emit nested ``features`` /
``recall`` / ``rank`` spans inside a root ``recommend`` span, the active
registry counts requests and candidates and records a latency histogram,
and an optional :class:`~repro.obs.profiler.Profiler` gets ``on_request``.
With the default no-op registry/tracer this instrumentation is near-free.

Every request is also *fault tolerant* (see :mod:`repro.resilience`): a
request carries a :class:`~repro.resilience.Deadline`, each stage has a
typed fallback (cold-start profile, popular routes, popularity-ordered
scoring), and the rank stage sits behind a second attempt and a circuit
breaker, so a scoring outage degrades the response instead of erroring —
the production behaviour of Fliggy's and Grab's rankers.  The response's
``degraded``/``fallbacks`` metadata says exactly what happened.

Every request is also *overload protected* (see :mod:`repro.guard`):
with a guard configured, admission happens before any stage runs —
draining servers, saturated queues, and low-priority traffic under
pressure are refused with a typed
:class:`~repro.guard.AdmissionRejected`, which this facade converts into
a degraded popularity-ranked response (``admission:*`` fallback events).
Shed happens *before* work starts; the resilience ladder fires *after*
work fails.  :meth:`FlightRecommender.drain` is the graceful-shutdown
path: stop admitting, finish in-flight.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..data.dataset import ODDataset
from ..data.schema import ODPair, UserHistory
from ..guard import (
    AdmissionController,
    AdmissionRejected,
    GuardConfig,
    Priority,
)
from ..obs.profiler import Profiler
from ..obs.registry import get_registry
from ..obs.tracing import get_tracer
from ..resilience import (
    CircuitBreaker,
    Deadline,
    FallbackEvent,
    record_fallback,
    run_with_fallback,
)
from .features import RealTimeFeatureService
from .ranking_service import RankingService, ScoredPair
from .recall import CandidateRecall, RecallConfig

__all__ = [
    "ServingResilienceConfig",
    "RecommendationResponse",
    "FlightRecommender",
]

#: tries of the rank stage before it degrades, back to back
RANK_ATTEMPTS = 2


@dataclass(frozen=True)
class ServingResilienceConfig:
    """Degradation knobs for the serving path (one breaker per rank site)."""

    deadline_ms: float | None = None     # default per-request budget
    breaker_window: int = 10
    breaker_threshold: float = 0.5
    breaker_min_calls: int = 4
    breaker_recovery_s: float = 30.0


@dataclass
class RecommendationResponse:
    """The ranked flight list returned to the mobile app.

    ``degraded`` is True when any stage fell back to a non-personalised
    alternative; ``fallbacks`` lists each degradation decision
    (:class:`~repro.resilience.FallbackEvent`) in stage order.
    """

    user_id: int
    day: int
    flights: list[ScoredPair] = field(default_factory=list)
    degraded: bool = False
    fallbacks: list[FallbackEvent] = field(default_factory=list)

    @property
    def pairs(self) -> list[ODPair]:
        return [flight.pair for flight in self.flights]

    def __len__(self) -> int:
        return len(self.flights)


class FlightRecommender:
    """End-to-end serving facade (TPP -> RTFS -> recall -> RSS -> top-k)."""

    def __init__(
        self,
        model,
        dataset: ODDataset,
        recall_config: RecallConfig | None = None,
        profiler: Profiler | None = None,
        resilience: ServingResilienceConfig | None = None,
        guard: GuardConfig | AdmissionController | None = None,
    ):
        self.dataset = dataset
        self.features = RealTimeFeatureService(dataset.source.bookings_by_user)
        self.recall = CandidateRecall(
            dataset.source.world,
            dataset.route_popularity,
            recall_config,
            plans=dataset.plans,
        )
        self.ranking = RankingService(model, dataset)
        self.profiler = profiler
        self.resilience = resilience or ServingResilienceConfig()
        self.rank_breaker = CircuitBreaker(
            "rank",
            window=self.resilience.breaker_window,
            failure_threshold=self.resilience.breaker_threshold,
            min_calls=self.resilience.breaker_min_calls,
            recovery_s=self.resilience.breaker_recovery_s,
        )
        # Optional overload protection: admission control at the front
        # door plus the lifecycle that owns graceful drain.
        self.guard: AdmissionController | None = None
        self.install_guard(guard)

    def install_guard(
        self, guard: GuardConfig | AdmissionController | None
    ) -> None:
        """Install (or replace) the admission front door.

        A drained :class:`~repro.guard.ServerLifecycle` is terminal, so a
        worker that was rolled out of a cluster swaps in a *fresh* guard
        here before marking itself ready again — the zero-downtime model
        push: drain, reload, ``install_guard``, readmit.
        """
        if isinstance(guard, AdmissionController):
            self.guard = guard
        elif guard is not None:
            self.guard = AdmissionController(guard)
        else:
            self.guard = None

    @property
    def lifecycle(self):
        """The guard's :class:`~repro.guard.ServerLifecycle` (or None)."""
        return self.guard.lifecycle if self.guard is not None else None

    def drain(self, timeout_s: float | None = None) -> bool:
        """Gracefully shut down serving: stop admitting, complete
        in-flight requests.

        Returns ``True`` once drained.  Without a guard there is no
        admission to close and no in-flight accounting, so the call
        reports drained immediately.
        """
        if self.guard is not None:
            return self.guard.drain(timeout_s)
        return True

    # ------------------------------------------------------------------
    # Fallback producers (the degradation ladder)
    # ------------------------------------------------------------------
    def cold_start_history(self, user_id: int) -> UserHistory:
        """A personalisation-free profile anchored at the most popular
        origin city — what an unknown/new user gets instead of KeyError,
        and what an id outside the embedding table gets whatever RTFS
        holds for it.

        Ids outside the embedding table are hashed into range (the usual
        hash-bucket trick) so the model can still score the empty profile.
        The bucket's user-keyed rows are borrowed; its history is not:
        revision -1, which no RTFS read produces, keys the empty profile
        apart from every point the bucket user holds in the encoded store.
        """
        return UserHistory(
            user_id=user_id % max(1, self.dataset.num_users),
            current_city=self.recall.most_popular_origin(),
            bookings=[],
            clicks=[],
            revision=-1,
        )

    def popularity_rank(
        self, candidates: list[ODPair], k: int
    ) -> list[ScoredPair]:
        """Rank candidates by global route popularity (model-free)."""
        scores = self.recall.popularity_scores(candidates)
        order = sorted(
            range(len(candidates)), key=lambda i: -float(scores[i])
        )[:k]
        return [
            ScoredPair(pair=candidates[i], score=float(scores[i]))
            for i in order
        ]

    def _resolve_deadline(self, deadline) -> Deadline | None:
        if isinstance(deadline, Deadline):
            return deadline
        if deadline is not None:
            return Deadline(float(deadline))
        if self.resilience.deadline_ms is not None:
            return Deadline(self.resilience.deadline_ms)
        return None

    def _shed_response(
        self, user_id: int, day: int, k: int, rejection: AdmissionRejected
    ) -> RecommendationResponse:
        """The degraded answer for a request refused at admission.

        No model work runs — popularity-ranked popular routes are the
        cheapest useful response (the same MostPop floor as the rank
        fallback), so shedding stays cheap exactly when the system is
        overloaded.  The typed rejection surfaces as an ``admission:*``
        fallback event.
        """
        event = record_fallback("admission", rejection.reason)
        candidates = self.recall.popular_pairs()
        flights = self.popularity_rank(candidates, k)
        registry = get_registry()
        registry.counter("serving.requests").inc()
        registry.counter("serving.degraded_requests").inc()
        # Shed responses are near-free; keeping them out of
        # serving.latency_ms stops them dragging down the percentile the
        # adaptive limit calibrates against.
        registry.counter("serving.shed_requests").inc()
        return RecommendationResponse(
            user_id=user_id,
            day=day,
            flights=flights,
            degraded=True,
            fallbacks=[event],
        )

    # ------------------------------------------------------------------
    def recommend(
        self,
        user_id: int,
        day: int,
        k: int = 10,
        deadline: Deadline | float | None = None,
        priority: Priority = Priority.INTERACTIVE,
    ) -> RecommendationResponse:
        """Serve the top-``k`` flight recommendations for a user.

        ``deadline`` is an optional request budget — a
        :class:`~repro.resilience.Deadline` or a number of milliseconds.
        ``priority`` matters only with a guard configured: under
        overload, lower-priority traffic is shed first.  The request
        never raises for an unknown user, a failing rank stage, an
        expired budget, or a refused admission; it degrades and reports
        how in the response's ``degraded``/``fallbacks`` metadata.
        """
        deadline = self._resolve_deadline(deadline)
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if self.guard is None:
            return self._serve(user_id, day, k, deadline)
        try:
            permit = self.guard.admit(priority=priority, deadline=deadline)
        except AdmissionRejected as rejection:
            return self._shed_response(user_id, day, k, rejection)
        try:
            return self._serve(user_id, day, k, deadline)
        finally:
            permit.release()

    def _serve(
        self, user_id: int, day: int, k: int, deadline: Deadline | None
    ) -> RecommendationResponse:
        """The one request pipeline: features, recall, rank, finish."""
        tracer = get_tracer()
        start = time.perf_counter()
        events: list[FallbackEvent] = []
        with tracer.span("recommend", user_id=user_id, day=day, k=k):
            # Stage 1 — features: unknown users get a cold start, and so
            # does any id the embedding tables have no row for, even when
            # RTFS holds bookings streamed in for it.
            with tracer.span("features"):
                try:
                    history = self.features.user_history(user_id, day)
                except KeyError:
                    events.append(record_fallback("features", "cold_start"))
                    history = self.cold_start_history(user_id)
                except Exception as exc:
                    events.append(record_fallback(
                        "features", f"error:{type(exc).__name__}"
                    ))
                    history = self.cold_start_history(user_id)
                else:
                    if not 0 <= user_id < self.dataset.num_users:
                        events.append(
                            record_fallback("features", "out_of_table")
                        )
                        history = self.cold_start_history(user_id)

            # Stage 2 — recall: degrade to globally popular routes.
            with tracer.span("recall") as recall_span:
                candidates, event = run_with_fallback(
                    site="recall",
                    primary=lambda: self.recall.candidate_pairs(history),
                    fallback=self.recall.popular_pairs,
                    deadline=deadline,
                )
                if event is None and not candidates:
                    event = record_fallback("recall", "empty")
                    candidates = self.recall.popular_pairs()
                if event is not None:
                    events.append(event)
                recall_span.set_tag("candidates", len(candidates))

            # Stage 3 — rank behind retry + breaker + deadline; degrade
            # to popularity ordering when the model cannot score.
            with tracer.span("rank") as rank_span:
                flights, event = run_with_fallback(
                    site="rank",
                    primary=lambda: self.ranking.rank(
                        history, candidates, day, k=k
                    ),
                    fallback=lambda: self.popularity_rank(candidates, k),
                    attempts=RANK_ATTEMPTS,
                    breaker=self.rank_breaker,
                    deadline=deadline,
                )
                if event is not None:
                    events.append(event)
                rank_span.set_tag("returned", len(flights))
                rank_span.set_tag("degraded", event is not None)

        latency_ms = (time.perf_counter() - start) * 1000.0
        registry = get_registry()
        registry.counter("serving.requests").inc()
        registry.counter("serving.candidates").inc(len(candidates))
        registry.histogram("serving.latency_ms").observe(latency_ms)
        if events:
            registry.counter("serving.degraded_requests").inc()
        if self.profiler is not None:
            self.profiler.on_request(
                user_id=user_id,
                day=day,
                latency_ms=latency_ms,
                num_candidates=len(candidates),
                k=k,
            )
        return RecommendationResponse(
            user_id=user_id,
            day=day,
            flights=flights,
            degraded=bool(events),
            fallbacks=events,
        )
