"""The paper's future work, implemented: latent travel intents.

Section VII of the paper lists "take travel intentions of users into
account" as future work.  ``IntentAwareODNET`` learns a small set of
latent intents end-to-end and routes the MMoE through them.  This example
trains it next to the base ODNET, compares ranking quality, inspects the
learned intent distribution, and round-trips the model through a
``.snap`` snapshot (the offline-train / online-serve split of Figure 9).

Run:  python examples/intent_extension.py
"""

import tempfile

import numpy as np

from repro import (
    FliggyConfig,
    ODDataset,
    ODNETConfig,
    TrainConfig,
    build_odnet,
    evaluate_model,
    generate_fliggy_dataset,
)
from repro.core import IntentAwareODNET
from repro.data.world import WorldConfig
from repro.online import SnapshotStore


def main():
    dataset = ODDataset(generate_fliggy_dataset(
        FliggyConfig(num_users=300, world=WorldConfig(num_cities=40), seed=21)
    ))
    tasks = dataset.ranking_tasks(
        num_candidates=30, rng=np.random.default_rng(0), max_tasks=150
    )
    config = ODNETConfig(dim=32)
    train = TrainConfig(epochs=5)

    print("Training base ODNET ...")
    base = build_odnet(dataset, config)
    base.fit(dataset, train)
    base_metrics = evaluate_model(base, dataset, tasks)

    print("Training IntentAwareODNET (4 latent intents) ...")
    intent_model = IntentAwareODNET(dataset, config, num_intents=4)
    intent_model.fit(dataset, train)
    intent_metrics = evaluate_model(intent_model, dataset, tasks)

    print(f"\n{'Metric':<10}{'ODNET':>10}{'+intents':>10}")
    for key in ("AUC-O", "AUC-D", "HR@5", "MRR@5"):
        print(f"{key:<10}{base_metrics[key]:>10.4f}{intent_metrics[key]:>10.4f}")

    # Inspect the learned intents on test traffic.
    batch = next(dataset.iter_batches("test", 512, shuffle=False))
    marginal = intent_model.intent_distribution(batch).mean(axis=0)
    print("\nMarginal intent usage:",
          np.array2string(marginal, precision=3))
    returns = batch.pair_features[:, 5] > 0  # reverse-of-last flag
    if returns.any() and (~returns).any():
        ids = intent_model.dominant_intent(batch)
        print("Dominant intent | return-trip candidates   :",
              np.bincount(ids[returns], minlength=4))
        print("Dominant intent | non-return candidates    :",
              np.bincount(ids[~returns], minlength=4))

    # Snapshot round-trip (offline training -> online serving).
    with tempfile.TemporaryDirectory() as directory:
        store = SnapshotStore(directory)
        store.publish(intent_model.state_dict(),
                      metadata={"epochs": train.epochs})
        snapshot = store.load()
    clone = IntentAwareODNET(dataset, config, num_intents=4)
    clone.load_state_dict(snapshot.state)
    same = np.allclose(clone.score_pairs(batch),
                       intent_model.score_pairs(batch))
    print(f"\nSnapshot round-trip ok={same} "
          f"(metadata: {snapshot.metadata})")


if __name__ == "__main__":
    main()
