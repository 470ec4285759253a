"""Online serving stack (Figure 9) and the A/B test simulator (Figure 7)."""

from .abtest import ABTestConfig, ABTestResult, ABTestSimulator
from .explain import Explanation, RecommendationExplainer
from .features import RealTimeFeatureService
from .latency import LatencyReport, measure_serving_latency
from .platform import (
    FlightRecommender,
    RecommendationResponse,
    ServingResilienceConfig,
)
from .ranking_service import RankingService, ScoredPair
from .recall import CandidateRecall, RecallConfig

__all__ = [
    "RealTimeFeatureService",
    "CandidateRecall",
    "RecallConfig",
    "RankingService",
    "ScoredPair",
    "FlightRecommender",
    "RecommendationResponse",
    "ServingResilienceConfig",
    "ABTestSimulator",
    "ABTestConfig",
    "ABTestResult",
    "RecommendationExplainer",
    "Explanation",
    "LatencyReport",
    "measure_serving_latency",
]
