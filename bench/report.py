"""Human-readable views of a traced run, and the waterfall's own check."""

from __future__ import annotations

__all__ = ["waterfall", "hop_peel", "waterfall_problems"]

#: the staged replay may not do more than the real call (beyond noise),
#: and what the stages leave unattributed has to stay a minority share
RESIDUAL_FLOOR = -0.10
RESIDUAL_CEILING = 0.25

_STAGES = (
    "guard.admit_ms",
    "features.user_history_ms",
    "recall.candidate_pairs_ms",
    "ranking.rank_ms",
)


def _value(metrics: dict, name: str) -> float:
    return metrics[name][0]


def _bar(value: float, total: float, width: int = 40) -> str:
    filled = 0 if total <= 0 else round(width * max(value, 0.0) / total)
    return "#" * min(filled, width)


def waterfall(metrics: dict) -> str:
    """``serve_direct``: where one ``recommend`` call's time goes."""
    total = _value(metrics, "platform.recommend_ms")
    rows = [(name, _value(metrics, name), 0) for name in _STAGES]
    rows[3:] = [
        rows[3],
        ("dataset.batch_for_candidates_ms",
         _value(metrics, "dataset.batch_for_candidates_ms"), 1),
        ("fused.score_pairs_ms", _value(metrics, "fused.score_pairs_ms"), 1),
        ("ranking.topk_self_ms", _value(metrics, "ranking.topk_self_ms"), 1),
    ]
    rows.append(("platform.self_ms", _value(metrics, "platform.self_ms"), 0))
    lines = [f"platform.recommend_ms {total:9.4f} ms  (mean per request)"]
    for name, value, depth in rows:
        lines.append(
            f"  {'  ' * depth}{name:<34}{value:9.4f} ms "
            f"{100.0 * value / total:5.1f}%  {_bar(value, total)}"
        )
    return "\n".join(lines)


def hop_peel(metrics: dict) -> str:
    """``gateway``: the request path peeled hop by hop (medians)."""
    rows = [
        ("client.recommend_ms", "client -> gateway -> worker -> recommend"),
        ("wire.client_gateway_ms", "  = client hop (difference)"),
        ("gateway.recommend_ms", "Gateway.recommend in-process"),
        ("gateway.route_self_ms", "  = routing, attempt thread, hedge wait"),
        ("workerclient.recommend_ms", "WorkerClient straight to the owner"),
        ("wire.gateway_worker_ms", "  = worker hop (difference)"),
        ("worker.handle_recommend_ms", "WorkerRuntime.handle_recommend"),
        ("worker.serialize_self_ms", "  = payload parse + reply building"),
        ("platform.recommend_ms", "FlightRecommender.recommend"),
    ]
    return "\n".join(
        f"  {name:<30}{_value(metrics, name):9.4f} ms  {what}"
        for name, what in rows
    )


def waterfall_problems(metrics: dict) -> list[str]:
    """The stages plus ``platform.self_ms`` add up to the real call by
    construction; what can go wrong is the residual's size.  Outside its
    band the replay no longer mirrors ``recommend`` and every per-stage
    number is suspect."""
    total = _value(metrics, "platform.recommend_ms")
    residual = _value(metrics, "platform.self_ms")
    if RESIDUAL_FLOOR <= residual / total <= RESIDUAL_CEILING:
        return []
    return [
        f"platform.self_ms is {100.0 * residual / total:.1f} % of "
        f"platform.recommend_ms (allowed {100 * RESIDUAL_FLOOR:.0f} % "
        f"to {100 * RESIDUAL_CEILING:.0f} %)"
    ]
