"""ODNET reproduction — personalized Origin-Destination flight ranking.

Reproduction of *ODNET: A Novel Personalized Origin-Destination Ranking
Network for Flight Recommendation* (ICDE 2022), built entirely on numpy:
a from-scratch autograd engine (:mod:`repro.tensor`, :mod:`repro.nn`), the
Heterogeneous Spatial Graph (:mod:`repro.graph`), behavioural data
simulators (:mod:`repro.data`), the ODNET model and its ablation variants
(:mod:`repro.core`), all seven baselines (:mod:`repro.baselines`), the
training/evaluation harness (:mod:`repro.train`, :mod:`repro.metrics`),
the Figure 9 serving stack and A/B simulator (:mod:`repro.serving`), the
metrics/tracing/profiling layer (:mod:`repro.obs`), the overload-protection
guard (:mod:`repro.guard`), and runners for every table and figure
(:mod:`repro.experiments`).

Quickstart::

    from repro import (
        FliggyConfig, generate_fliggy_dataset, ODDataset,
        ODNET, ODNETConfig, TrainConfig, FlightRecommender,
    )

    dataset = ODDataset(generate_fliggy_dataset(FliggyConfig(num_users=300)))
    model = ODNET(dataset, ODNETConfig())
    model.fit(dataset, TrainConfig(epochs=5))
    recommender = FlightRecommender(model, dataset)
    response = recommender.recommend(user_id=0, day=720, k=5)
"""

from .core import (
    ODNET,
    MMoEJointLearning,
    HSGComponent,
    NeuralRanker,
    ODNETConfig,
    PreferenceExtraction,
    Ranker,
    STLRanker,
    build_odnet,
    build_stl,
)
from .data import (
    FliggyConfig,
    FliggyDataset,
    LbsnConfig,
    ODBatch,
    ODDataset,
    ODPair,
    RankingTask,
    UserHistory,
    foursquare_config,
    generate_fliggy_dataset,
    generate_lbsn_dataset,
    gowalla_config,
)
from .guard import (
    AdmissionController,
    AdmissionRejected,
    GuardConfig,
    Priority,
    ServerLifecycle,
)
from .graph import (
    EdgeType,
    HeterogeneousSpatialGraph,
    Metapath,
    NodeType,
    build_neighbor_table,
)
from .metrics import auc, ctr, evaluate_rankings, hit_rate_at_k, mrr_at_k
from .obs import (
    MetricsRegistry,
    Profiler,
    Tracer,
    render_summary,
    use_observability,
    use_registry,
    use_tracer,
)
from .serving import (
    ABTestConfig,
    ABTestSimulator,
    CandidateRecall,
    FlightRecommender,
    RankingService,
    RealTimeFeatureService,
)
from .train import TrainConfig, Trainer, evaluate_model

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core model
    "ODNET",
    "ODNETConfig",
    "build_odnet",
    "build_stl",
    "STLRanker",
    "Ranker",
    "NeuralRanker",
    "HSGComponent",
    "PreferenceExtraction",
    "MMoEJointLearning",
    # graph
    "HeterogeneousSpatialGraph",
    "NodeType",
    "EdgeType",
    "Metapath",
    "build_neighbor_table",
    # data
    "FliggyConfig",
    "FliggyDataset",
    "generate_fliggy_dataset",
    "LbsnConfig",
    "foursquare_config",
    "gowalla_config",
    "generate_lbsn_dataset",
    "ODDataset",
    "ODBatch",
    "ODPair",
    "UserHistory",
    "RankingTask",
    # training / metrics
    "TrainConfig",
    "Trainer",
    "evaluate_model",
    "auc",
    "hit_rate_at_k",
    "mrr_at_k",
    "evaluate_rankings",
    "ctr",
    # serving
    "FlightRecommender",
    "RealTimeFeatureService",
    "CandidateRecall",
    "RankingService",
    "ABTestSimulator",
    "ABTestConfig",
    # overload protection
    "AdmissionController",
    "AdmissionRejected",
    "GuardConfig",
    "Priority",
    "ServerLifecycle",
    # observability
    "MetricsRegistry",
    "Tracer",
    "Profiler",
    "use_registry",
    "use_tracer",
    "use_observability",
    "render_summary",
]
