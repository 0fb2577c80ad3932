"""Cross-party link prediction with dual-completed node features.

One side knows part of a graph and some node features; the partner
holds the remaining feature columns for an overlapping node set.  Both
go through the party set-up that ``mpdl graph`` runs (feature-level DP
on each store, KDEs on the perturbed rows, blinded alignment), dual
generators fill the gaps, and a masked matrix product builds node
representations without either side revealing its matrix.

Run with ``python3 demos/05_graph_link_prediction.py``.
"""

import math

import numpy as np

from mpdl.dual import DualModelPair
from mpdl.graph import link_prediction_auc, node_features
from mpdl.orchestrator import MpdlConfig, prepare_experiment, setup_parties
from mpdl.synthetic import linked_graph
from mpdl.transport import Hub


def main() -> None:
    ds, adj = linked_graph(60, 3, 3, seed=3)
    print(f"60 nodes, {int(adj.sum()) // 2} undirected edges, 3 + 3 "
          f"feature columns")
    for epsilon in (math.inf, 8.0):
        config = MpdlConfig(gamma=0.4, epsilon=epsilon, dual_epochs=30,
                            use_encryption=False)
        data = prepare_experiment(ds, config.gamma, seed=config.seed,
                                  test_fraction=0.0)
        hub = Hub()
        setup = setup_parties(data, config, hub)
        fresh = DualModelPair(setup.state_a.model, setup.state_b.model)
        setup.train_generators(hub, config)
        trained = DualModelPair(setup.state_a.model, setup.state_b.model)
        # link prediction sees only the perturbed stores
        feat_a, has_a = node_features(setup.state_a.store, ds.ids)
        feat_b, has_b = node_features(setup.state_b.store, ds.ids)
        print(f"\nepsilon = {epsilon}: A holds features for {has_a.sum()} "
              f"nodes, B for {has_b.sum()}, {(has_a & has_b).sum()} overlap")
        print("held-out edge recovery, scores from the masked product:")
        for pair, label in ((fresh, "fresh generators"),
                            (trained, f"after {config.dual_epochs} epochs")):
            aucs = [link_prediction_auc(pair, adj, feat_a, feat_b, has_a,
                                        has_b, 0.3, np.random.default_rng(s),
                                        hub)
                    for s in range(5)]
            print(f"  {label:<22} AUC {np.mean(aucs):.3f} (5 holdout "
                  f"draws: {', '.join(f'{a:.2f}' for a in aucs)})")
        hub.close()
    print("\nthe adjacency holder ships only confusion-masked rows, and the")
    print("feature matrix it multiplies against is the dual-completed one --")
    print("missing rows were inferred, never collected.  The DP noise that")
    print("protects each store also blurs the features the scores rest on.")


if __name__ == "__main__":
    main()
