"""Online serving stack (Figure 9) and the A/B test simulator (Figure 7)."""

from .abtest import ABTestConfig, ABTestResult, ABTestSimulator
from .features import RealTimeFeatureService
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
]
