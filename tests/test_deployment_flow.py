"""The Figure 9 deployment flow, end to end.

Offline: generate data -> train -> publish a snapshot (MaxCompute/PAI
side).  Online: load dataset + snapshot into a fresh process-like context ->
serve requests through TPP/RTFS/recall/RSS -> explain results.
"""

import numpy as np

from repro.core import build_odnet
from repro.data import ODDataset, load_dataset, save_dataset
from repro.online import SnapshotStore
from repro.serving import FlightRecommender, RecommendationExplainer
from tests.conftest import TINY_MODEL_CONFIG


class TestDeploymentFlow:
    def test_offline_train_online_serve(self, fliggy_dataset, od_dataset,
                                        trained_odnet, tmp_path):
        # --- offline side: persist dataset and model --------------------
        dataset_path = save_dataset(fliggy_dataset, tmp_path / "dataset")
        SnapshotStore(tmp_path / "model").publish(
            trained_odnet.state_dict(), metadata={"stage": "offline"}
        )

        # --- online side: fresh objects, loaded state --------------------
        served_dataset = ODDataset(load_dataset(dataset_path),
                                   max_long=10, max_short=6)
        served_model = build_odnet(served_dataset, TINY_MODEL_CONFIG)
        snapshot = SnapshotStore(tmp_path / "model").load()
        served_model.load_state_dict(snapshot.state)
        assert snapshot.metadata["stage"] == "offline"

        recommender = FlightRecommender(served_model, served_dataset)
        explainer = RecommendationExplainer(
            served_dataset.source.world, served_dataset.route_popularity
        )

        point = served_dataset.source.test_points[0]
        response = recommender.recommend(
            user_id=point.history.user_id, day=point.day, k=5
        )
        assert response.flights

        # Served scores must match the offline model exactly.
        offline_recommender = FlightRecommender(trained_odnet, od_dataset)
        offline = offline_recommender.recommend(
            user_id=point.history.user_id, day=point.day, k=5
        )
        assert [f.pair for f in response.flights] == [
            f.pair for f in offline.flights
        ]
        np.testing.assert_allclose(
            [f.score for f in response.flights],
            [f.score for f in offline.flights],
        )

        # Every served flight carries an explanation.
        for flight in response.flights:
            explanation = explainer.explain(point.history, flight.pair)
            assert explanation.reasons
