"""Split training is lossless: two parties plus a collaborator march in
lockstep with a single-site network on the concatenated features.  The
split run is the one ``mpdl_train`` uses: every partial sum and error
signal travels through a hub as a framed message.

Run with ``python3 demos/02_lossless_split_training.py``.
"""

import numpy as np

from mpdl.central import init_split_central, one_hot, to_monolithic
from mpdl.nn import (backprop_from_output_grad, loss_eval, mlp_forward,
                     sgd_step)
from mpdl.orchestrator import split_train
from mpdl.synthetic import linear_task
from mpdl.transport import Hub


def main() -> None:
    ds = linear_task(300, 3, 2, seed=8)
    x_a, x_b = ds.features[:, :3], ds.features[:, 3:]
    n = x_a.shape[0]
    targets = one_hot(ds.labels, 2)
    print(f"{n} rows; party A holds {x_a.shape[1]} features, party B "
          f"{x_b.shape[1]}, labels stay with the collaborator")

    model = init_split_central(3, 2, 2, np.random.default_rng(5))
    mono = to_monolithic(model)
    x_all = np.hstack([x_a, x_b])

    hub = Hub()
    rng_split = np.random.default_rng(99)
    rng_mono = np.random.default_rng(99)
    print(f"{'epoch':>5}  {'max |w_split - w_mono|':>22}")
    for epoch in range(1, 6):
        model = split_train(hub, model, x_a, x_b, ds.labels, lr=0.1,
                            epochs=1, batch_size=32, rng=rng_split)
        order = rng_mono.permutation(n)
        for lo in range(0, n, 32):
            idx = order[lo:lo + 32]
            probs, cache = mlp_forward(mono, x_all[idx])
            _, out_grad = loss_eval("cross_entropy", probs, targets[idx])
            grads, _ = backprop_from_output_grad(mono, cache, out_grad)
            mono = sgd_step(mono, grads, 0.1)
        drift = max(
            max(float(np.abs(ls.weights - lm.weights).max()),
                float(np.abs(ls.bias - lm.bias).max()))
            for ls, lm in zip(to_monolithic(model).layers, mono.layers))
        print(f"{epoch:>5}  {drift:>22.3e}")
    hub.close()

    acc = float((mlp_forward(mono, x_all)[0].argmax(axis=1) ==
                 ds.labels).mean())
    print(f"\nboth models classify identically (train accuracy {acc:.3f}),")
    print(f"after {len(hub.transcript)} hub messages;")
    print("the split costs nothing: parties exchange partial sums and one")
    print("shared error signal, never their feature columns.")


if __name__ == "__main__":
    main()
