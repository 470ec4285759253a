"""Shared fixtures: small datasets and a trained model, built once per session."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ODNETConfig, build_odnet
from repro.data import (
    FliggyConfig,
    ODDataset,
    foursquare_config,
    generate_fliggy_dataset,
    generate_lbsn_dataset,
)
from repro.data.world import WorldConfig
from repro.train import TrainConfig


TINY_MODEL_CONFIG = ODNETConfig(dim=16, num_heads=2, depth=2, expert_dim=32,
                                tower_hidden=16, seed=0)


#: a small but structurally complete synthetic Fliggy world
TINY_FLIGGY_CONFIG = FliggyConfig(
    num_users=120,
    world=WorldConfig(num_cities=30),
    train_points_per_user=2,
    seed=42,
)


@pytest.fixture(scope="session")
def fliggy_dataset():
    """A small but structurally complete synthetic Fliggy dataset."""
    return generate_fliggy_dataset(TINY_FLIGGY_CONFIG)


@pytest.fixture(scope="session")
def od_dataset(fliggy_dataset):
    return ODDataset(fliggy_dataset, max_long=10, max_short=6)


@pytest.fixture(scope="session")
def lbsn_dataset():
    return generate_lbsn_dataset(
        foursquare_config(num_users=60, num_pois=40, seed=7)
    )


@pytest.fixture(scope="session")
def lbsn_od_dataset(lbsn_dataset):
    return ODDataset(lbsn_dataset, max_long=10, max_short=5, od_mode=False)


@pytest.fixture(scope="session")
def trained_odnet(od_dataset):
    """An ODNET trained for two quick epochs (enough to be non-degenerate)."""
    model = build_odnet(od_dataset, TINY_MODEL_CONFIG)
    model.fit(od_dataset, TrainConfig(epochs=2, seed=0))
    return model


@pytest.fixture()
def rng():
    return np.random.default_rng(0)
