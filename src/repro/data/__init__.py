"""Data substrate: schemas, synthetic generators, temporal features, batching."""

from .dataset import ODBatch, ODDataset, RankingTask
from .io import load_dataset, save_dataset
from .lbsn import LbsnConfig, foursquare_config, generate_lbsn_dataset, gowalla_config
from .schema import (
    BookingEvent,
    City,
    CityPattern,
    ClickEvent,
    ODPair,
    Sample,
    SampleKind,
    UserHistory,
    UserProfile,
)
from .synthetic import (
    DecisionPoint,
    DegenerateWorldError,
    FliggyConfig,
    FliggyDataset,
    generate_fliggy_dataset,
)
from .temporal import XST_DIM, TemporalFeatureExtractor
from .world import CityWorld, WorldConfig, generate_city_world

__all__ = [
    "City",
    "CityPattern",
    "UserProfile",
    "ODPair",
    "BookingEvent",
    "ClickEvent",
    "Sample",
    "SampleKind",
    "UserHistory",
    "CityWorld",
    "WorldConfig",
    "generate_city_world",
    "DegenerateWorldError",
    "FliggyConfig",
    "FliggyDataset",
    "DecisionPoint",
    "generate_fliggy_dataset",
    "LbsnConfig",
    "foursquare_config",
    "gowalla_config",
    "generate_lbsn_dataset",
    "TemporalFeatureExtractor",
    "XST_DIM",
    "ODBatch",
    "ODDataset",
    "RankingTask",
    "save_dataset",
    "load_dataset",
]
