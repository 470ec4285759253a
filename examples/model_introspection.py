"""Looking inside a trained ODNET.

Uses the introspection utilities to verify, on a trained model, the
mechanisms the paper's case study attributes to ODNET:

- the PEC attends to the bookings most related to the short-term intent;
- the MMoE gates route the O-task and D-task through different experts;
- HSGC city embeddings cluster by semantic pattern (the Figure 2(d)
  seaside effect).

Serving latency is measured by the benchmark harness, ``bench/run.py``.

Run:  python examples/model_introspection.py
"""

import numpy as np

from repro import (
    FliggyConfig,
    ODDataset,
    ODNETConfig,
    TrainConfig,
    build_odnet,
    generate_fliggy_dataset,
)
from repro.analysis import (
    city_embedding_neighbors,
    mmoe_gate_summary,
    pec_history_attention,
)
from repro.data.world import WorldConfig


def main():
    print("Training ODNET ...")
    dataset = ODDataset(generate_fliggy_dataset(
        FliggyConfig(num_users=350, world=WorldConfig(num_cities=45), seed=17)
    ))
    model = build_odnet(dataset, ODNETConfig(dim=32))
    model.fit(dataset, TrainConfig(epochs=5))
    world = dataset.source.world

    # --- 1. PEC attention over the long-term history ----------------------
    batch = next(dataset.iter_batches("test", 8, shuffle=False))
    weights = pec_history_attention(model, batch, side="d")
    row = 0
    valid = int(batch.long_mask[row].sum())
    print("\nPEC attention over user 0's booking history (destination side):")
    for position in range(valid):
        city = world.cities[batch.long_destinations[row, position]]
        print(f"  {city.name:<10} ({','.join(sorted(city.patterns)):<30})"
              f" weight={weights[row, position]:.3f}")

    # --- 2. MMoE expert routing -------------------------------------------
    summary = mmoe_gate_summary(model, batch)
    print("\nMMoE mean expert mixtures:")
    print(f"  origin task      : {np.round(summary['origin'], 3)}")
    print(f"  destination task : {np.round(summary['destination'], 3)}")
    gap = np.abs(summary["origin"] - summary["destination"]).max()
    print(f"  max per-expert usage gap: {gap:.3f} "
          "(nonzero => the tasks specialise)")

    # --- 3. City-embedding neighbourhoods vs semantic patterns ------------
    print("\nNearest embedding neighbours (do patterns cluster?):")
    pattern_hits = 0
    checks = 0
    for city_id in range(0, world.num_cities, 9):
        target = world.cities[city_id]
        neighbors = city_embedding_neighbors(model, city_id, k=3)
        names = []
        for nbr, sim in neighbors:
            other = world.cities[nbr]
            shared = bool(target.patterns & other.patterns)
            pattern_hits += shared
            checks += 1
            names.append(f"{other.name}({'=' if shared else '!'}{sim:.2f})")
        print(f"  {target.name:<10} {','.join(sorted(target.patterns)):<28}"
              f" -> {'  '.join(names)}")
    print(f"  pattern agreement among top-3 neighbours: "
          f"{pattern_hits}/{checks}")


if __name__ == "__main__":
    main()
