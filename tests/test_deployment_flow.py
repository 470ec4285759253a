"""The Figure 9 deployment flow, end to end.

Offline: generate data -> train -> publish a snapshot (MaxCompute/PAI
side).  Online: regenerate the world from the same seed, as a cluster
worker does, load the snapshot into a fresh model -> serve requests
through TPP/RTFS/recall/RSS.
"""

from repro.core import build_odnet
from repro.data import ODDataset, generate_fliggy_dataset
from repro.online import SnapshotStore
from repro.serving import FlightRecommender
from tests.conftest import TINY_FLIGGY_CONFIG, TINY_MODEL_CONFIG


class TestDeploymentFlow:
    def test_offline_train_online_serve(self, od_dataset, trained_odnet,
                                        tmp_path):
        # --- offline side: persist the model ------------------------------
        SnapshotStore(tmp_path / "model").publish(
            trained_odnet.state_dict(), metadata={"stage": "offline"}
        )

        # --- online side: fresh objects, loaded state --------------------
        served_dataset = ODDataset(generate_fliggy_dataset(TINY_FLIGGY_CONFIG),
                                   max_long=10, max_short=6)
        served_model = build_odnet(served_dataset, TINY_MODEL_CONFIG)
        snapshot = SnapshotStore(tmp_path / "model").load()
        served_model.load_state_dict(snapshot.state)
        assert snapshot.metadata["stage"] == "offline"

        recommender = FlightRecommender(served_model, served_dataset)
        point = served_dataset.source.test_points[0]
        response = recommender.recommend(
            user_id=point.history.user_id, day=point.day, k=5
        )
        assert response.flights
        assert not response.degraded

        # Served flights and scores are the offline model's, bit for bit.
        offline_recommender = FlightRecommender(trained_odnet, od_dataset)
        offline = offline_recommender.recommend(
            user_id=point.history.user_id, day=point.day, k=5
        )
        assert [(f.pair, f.score) for f in response.flights] == [
            (f.pair, f.score) for f in offline.flights
        ]
