"""End-to-end acceptance gate: eleven numbered release criteria.

Each test prints one ``[PASS]``/``[FAIL]`` line (visible under
``pytest -s``) and enforces the stated tolerance with an oracle that is
computed independently of the library path under test.
"""

import math
import random
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest
import scipy.stats

from mpdl.central import (central_forward_backward, init_split_central,
                          one_hot, party_forward, to_monolithic)
from mpdl.data import (PartyDataset, SplitSpec, blinded_intersection,
                       partition_features, split_by_gamma)
from mpdl.density import fit_kde, grad_log_density_batch, log_density_batch
from mpdl.dual import DualPartyState, run_dual_round
from mpdl.graph import confusion_protocol, link_auc
from mpdl.nn import (backprop_from_output_grad, init_mlp, loss_eval,
                     mlp_forward, sgd_step)
from mpdl.orchestrator import (MpdlConfig, mpdl_train, prepare_experiment,
                               split_train)
from mpdl.paillier import (add_cipher, decrypt_vector, encrypt_vector,
                           keygen, mul_plain)
from mpdl.privacy import DpConfig, perturb_dataset
from mpdl.synthetic import linear_task
from mpdl.transport import (Hub, MessageKind, allowed_kinds_only,
                            forbid_plaintext_rows, forbid_plaintext_values,
                            transcript_assert, unpack_ciphers, unpack_tokens)


@contextmanager
def criterion(num: int, title: str):
    """Wrap one criterion; always emit exactly one status line."""
    info: dict = {}
    try:
        yield info
    except BaseException as exc:
        print(f"[FAIL] criterion {num:2d}: {title} -- {exc}")
        raise
    print(f"[PASS] criterion {num:2d}: {title} ({info.get('detail', 'ok')})")


def _rel_err(analytic: float, numeric: float) -> float:
    return abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-6)


# -- 1: split training is lossless ---------------------------------------------

def _check_split_lossless(dataset: PartyDataset, title: str):
    """Criterion 1's check: 20 epochs of split training through a hub
    against single-site SGD on the concatenated features."""
    with criterion(1, title) as info:
        start = time.monotonic()
        fsplit = partition_features(dataset, seed=1)
        x_a = fsplit.party_a.features
        x_b = fsplit.party_b.features
        labels = dataset.labels
        n = x_a.shape[0]
        assert (n, x_a.shape[1] + x_b.shape[1]) == (569, 30)

        model0 = init_split_central(x_a.shape[1], x_b.shape[1], 2,
                                    np.random.default_rng(7))
        dp = DpConfig(2.0, model0.hidden_width, n, "per_neuron")
        xa_hat = perturb_dataset(x_a, dp, np.random.default_rng(21)).features
        xb_hat = perturb_dataset(x_b, dp, np.random.default_rng(22)).features

        hub = Hub()
        trained = split_train(hub, model0, xa_hat, xb_hat, labels, lr=0.1,
                              epochs=20, batch_size=32,
                              rng=np.random.default_rng(99))
        hub.close()

        # reference: plain single-site SGD over the concatenated features,
        # driven by an identical shuffle stream
        mono = to_monolithic(model0)
        x_all = np.hstack([xa_hat, xb_hat])
        targets = one_hot(labels, 2)
        rng = np.random.default_rng(99)
        for _ in range(20):
            order = rng.permutation(n)
            for lo in range(0, n, 32):
                idx = order[lo:lo + 32]
                probs, cache = mlp_forward(mono, x_all[idx])
                _, out_grad = loss_eval("cross_entropy", probs, targets[idx])
                grads, _ = backprop_from_output_grad(mono, cache, out_grad)
                mono = sgd_step(mono, grads, 0.1)

        recombined = to_monolithic(trained)
        drift = max(
            max(float(np.abs(ls.weights - lm.weights).max()),
                float(np.abs(ls.bias - lm.bias).max()))
            for ls, lm in zip(recombined.layers, mono.layers))
        elapsed = time.monotonic() - start
        assert drift < 1e-10
        assert elapsed < 30.0
        info["detail"] = (f"max |dw| {drift:.2e} after 20 epochs on 569x30, "
                          f"{elapsed:.1f}s")


def test_criterion_01_split_training_losslessness(cancer):
    _check_split_lossless(cancer, "split vs monolithic training is lossless")


def test_criterion_01_split_training_losslessness_synthetic():
    """The same gate on a seeded 569x30 synthetic task, so it always runs."""
    _check_split_lossless(linear_task(569, 15, 15, seed=5, noise=0.05),
                          "split vs monolithic training is lossless "
                          "(synthetic 569x30)")


# -- 2: homomorphic add/mul land on the fixed-point grid -----------------------

def test_criterion_02_paillier_add_mul_exactness():
    with criterion(2, "cipher add/mul decrypt within one 2^-40 quantum") as info:
        start = time.monotonic()
        keys = keygen(512, random.Random(4242))
        rng = np.random.default_rng(4242)
        # unit-range operands: one half-quantum of encode rounding per
        # operand is then a full-quantum bound on both results
        a = rng.uniform(-1.0, 1.0, size=1000)
        b = rng.uniform(-1.0, 1.0, size=1000)
        enc_a = encrypt_vector(keys.public, a, random.Random(1))
        enc_b = encrypt_vector(keys.public, b, random.Random(2))
        sums = decrypt_vector(keys.secret,
                              add_cipher(keys.public, enc_a, enc_b))
        prods = decrypt_vector(keys.secret, mul_plain(keys.public, enc_a, b))
        quantum = 2.0 ** -40
        add_err = float(np.abs(sums - (a + b)).max())
        mul_err = float(np.abs(prods - a * b).max())
        elapsed = time.monotonic() - start
        assert add_err <= quantum
        assert mul_err <= quantum * (1.0 + 1e-9)
        assert elapsed < 60.0
        info["detail"] = (f"1000 pairs, 512-bit keys, add err {add_err:.2e}, "
                          f"mul err {mul_err:.2e}, {elapsed:.1f}s")


# -- 3: the encrypted round equals its plaintext shadow ------------------------

def _fresh_dual_states(seed: int, keys_a, keys_b):
    rng = np.random.default_rng(seed)
    n, d_a, d_b = 10, 3, 2
    x_a = rng.uniform(size=(n, d_a))
    x_b = rng.uniform(size=(n, d_b))
    ids = tuple(range(n))
    init = np.random.default_rng(seed + 1)
    f = init_mlp([d_a, 4, d_b], ["relu", "identity"], init)
    g = init_mlp([d_b, 4, d_a], ["relu", "identity"], init)
    state_a = DualPartyState("A", PartyDataset(ids, x_a), fit_kde(x_a), f,
                             keys_a, keys_b.public, lam=0.005, lr=0.1)
    state_b = DualPartyState("B", PartyDataset(ids, x_b), fit_kde(x_b), g,
                             keys_b, keys_a.public, lam=0.005, lr=0.1)
    return state_a, state_b, ids


def test_criterion_03_encrypted_round_matches_plaintext():
    with criterion(3, "encrypted dual round == plaintext round") as info:
        key_rng = random.Random(31337)
        keys_a = keygen(512, key_rng)
        keys_b = keygen(512, key_rng)
        worst = 0.0
        for seed in range(20):
            updated = []
            for encrypted in (True, False):
                state_a, state_b, ids = _fresh_dual_states(seed, keys_a,
                                                           keys_b)
                result = run_dual_round(state_a, state_b, ids, Hub(),
                                        random.Random(seed),
                                        use_encryption=encrypted)
                updated.append(result.pair)
            enc, plain = updated
            for m_enc, m_plain in ((enc.a_to_b, plain.a_to_b),
                                   (enc.b_to_a, plain.b_to_a)):
                for le, lp in zip(m_enc.layers, m_plain.layers):
                    worst = max(worst,
                                float(np.abs(le.weights - lp.weights).max()),
                                float(np.abs(le.bias - lp.bias).max()))
        assert worst <= 2.0 ** -35
        info["detail"] = f"20 seeded trials, max param gap {worst:.2e}"


# -- 4: the noise really is Laplace at the derived scale -----------------------

def test_criterion_04_dp_noise_distribution():
    settings = [(0.5, 30, 512, "per_neuron"), (2.0, 30, 512, "per_neuron"),
                (1.0, 12, 64, "per_layer")]
    with criterion(4, "feature noise is Laplace(0, scale) by KS test") as info:
        pvalues = []
        for i, (eps, h0, n_train, mode) in enumerate(settings):
            cfg = DpConfig(eps, h0, n_train, mode)
            # scale derived by hand: sensitivity over L*epsilon
            expected = 2.0 * h0 / eps if mode == "per_layer" else 2.0 / eps
            features = np.full((200, 50), 0.5)
            out = perturb_dataset(features, cfg,
                                  np.random.default_rng(1000 + i))
            draws = out.noise.ravel()
            assert draws.size == 10_000
            ks = scipy.stats.kstest(
                draws, scipy.stats.laplace(loc=0.0, scale=expected).cdf)
            pvalues.append(float(ks.pvalue))
            assert ks.pvalue > 0.01, (eps, h0, n_train, mode, ks.pvalue)
        info["detail"] = ("10^4 draws x 3 settings, KS p = " +
                          ", ".join(f"{p:.3f}" for p in pvalues))


# -- 5: analytic gradients match finite differences ----------------------------

def _dual_round_instance(seed: int, keys_a, keys_b):
    """Seven aligned rows per party, a 5-row batch, fresh generators."""
    rng = np.random.default_rng(seed)
    x_a = rng.uniform(size=(7, 2))
    x_b = rng.uniform(size=(7, 3))
    ids = tuple(range(7))
    f = init_mlp([2, 4, 3], ["relu", "identity"], rng)
    g = init_mlp([3, 4, 2], ["relu", "identity"], rng)
    state_a = DualPartyState("A", PartyDataset(ids, x_a), fit_kde(x_a), f,
                             keys_a, keys_b.public, lam=0.05, lr=0.1)
    state_b = DualPartyState("B", PartyDataset(ids, x_b), fit_kde(x_b), g,
                             keys_b, keys_a.public, lam=0.05, lr=0.1)
    return state_a, state_b, list(ids[:5])


def test_criterion_05_gradients_match_finite_differences(monkeypatch):
    with criterion(5, "dual and central gradients match FD") as info:
        h = 1e-6
        key_rng = random.Random(5005)
        keys_a, keys_b = keygen(512, key_rng), keygen(512, key_rng)
        captured = {}

        def capture(model, cache, out_grad):
            captured[id(model)] = out_grad
            return backprop_from_output_grad(model, cache, out_grad)

        monkeypatch.setattr("mpdl.dual.backprop_from_output_grad", capture)
        monkeypatch.setattr("mpdl.dual.RESIDUAL_CLIP", 1e9)
        monkeypatch.setattr("mpdl.dual.GRAD_CLIP", 1e9)
        worst_dual = 0.0
        for inst in range(20):
            state_a, state_b, batch = _dual_round_instance(5000 + inst,
                                                           keys_a, keys_b)
            f, g, lam = state_a.model, state_b.model, state_a.lam
            x_a = state_a.store.rows(batch)
            x_b = state_b.store.rows(batch)
            xhat_b = mlp_forward(f, x_a)[0]
            xhat_a = mlp_forward(g, x_b)[0]  # held fixed
            a_part = log_density_batch(state_a.kde, x_a) - \
                log_density_batch(state_a.kde, xhat_a)
            logp_b = log_density_batch(state_b.kde, x_b)

            def composite(pt):
                # mse(xhat_B, x_B) + lam * mean(r^2), r the paper's residual
                mse = float(((pt - x_b) ** 2).sum() / len(batch))
                r = a_part + log_density_batch(state_b.kde, pt) - logp_b
                return mse + lam * float((r * r).mean())

            hub = Hub()
            run_dual_round(state_a, state_b, batch, hub, random.Random(inst),
                           use_encryption=False)
            hub.close()
            analytic = captured[id(f)]  # A's output gradient, over xhat_B
            for i in range(len(batch)):
                for j in range(xhat_b.shape[1]):
                    up = xhat_b.copy()
                    up[i, j] += h
                    dn = xhat_b.copy()
                    dn[i, j] -= h
                    fd = (composite(up) - composite(dn)) / (2.0 * h)
                    worst_dual = max(worst_dual,
                                     _rel_err(float(analytic[i, j]), fd))
        assert worst_dual < 1e-4

        worst_central = 0.0
        for inst in range(20):
            rng = np.random.default_rng(6000 + inst)
            model = init_split_central(3, 2, 3, rng)
            x_a = rng.uniform(-1.0, 1.0, size=(5, 3))
            x_b = rng.uniform(-1.0, 1.0, size=(5, 2))
            labels = rng.integers(0, 3, size=5)

            def loss_of(m):
                return central_forward_backward(
                    m, party_forward(m.local_a, x_a),
                    party_forward(m.local_b, x_b), labels).loss

            step = central_forward_backward(
                model, party_forward(model.local_a, x_a),
                party_forward(model.local_b, x_b), labels)
            delta = step.delta
            analytic_parts = [
                ("wa", delta.T @ x_a), ("ba", delta.sum(axis=0)),
                ("wb", delta.T @ x_b), ("bb", delta.sum(axis=0)),
            ]
            for k, lg in enumerate(step.central_grads):
                analytic_parts.append((("cw", k), lg.weights))
                analytic_parts.append((("cb", k), lg.bias))

            def perturbed(path, idx, offset):
                local_a, local_b = model.local_a, model.local_b
                central = model.central
                if path == "wa" or path == "ba":
                    field = "weights" if path == "wa" else "bias"
                    arr = getattr(local_a, field).copy()
                    arr[idx] += offset
                    local_a = replace(local_a, **{field: arr})
                elif path == "wb" or path == "bb":
                    field = "weights" if path == "wb" else "bias"
                    arr = getattr(local_b, field).copy()
                    arr[idx] += offset
                    local_b = replace(local_b, **{field: arr})
                else:
                    which, k = path
                    field = "weights" if which == "cw" else "bias"
                    layers = list(central.layers)
                    arr = getattr(layers[k], field).copy()
                    arr[idx] += offset
                    layers[k] = replace(layers[k], **{field: arr})
                    central = replace(central, layers=tuple(layers))
                return replace(model, local_a=local_a, local_b=local_b,
                               central=central)

            for path, grad in analytic_parts:
                for idx in np.ndindex(np.asarray(grad).shape):
                    fd = (loss_of(perturbed(path, idx, h)) -
                          loss_of(perturbed(path, idx, -h))) / (2.0 * h)
                    worst_central = max(worst_central,
                                        _rel_err(float(grad[idx]), fd))
        assert worst_central < 1e-4
        info["detail"] = (f"20+20 instances, worst rel err dual "
                          f"{worst_dual:.1e}, central {worst_central:.1e}")


# -- 6: dual learning beats the joint baseline at low overlap ------------------

def test_criterion_06_dual_beats_joint_on_cancer(cancer):
    with criterion(6, "dual model beats joint baseline, gamma 0.05") as info:
        start = time.monotonic()
        joint, dual = [], []
        for seed in range(10):
            world = prepare_experiment(cancer, gamma=0.05, seed=seed)
            config = MpdlConfig(gamma=0.05, epsilon=2.0,
                                sensitivity_mode="per_neuron", seed=seed)
            result = mpdl_train(world, config)
            joint.append(result.report.accuracy_joint)
            dual.append(result.report.accuracy_dual)
            result.hub.close()
        gap = float(np.mean(dual) - np.mean(joint))
        elapsed = time.monotonic() - start
        assert gap > 0.02, (np.mean(dual), np.mean(joint))
        assert elapsed < 600.0
        info["detail"] = (f"10 seeds: dual {np.mean(dual):.4f} vs joint "
                          f"{np.mean(joint):.4f}, gap {100 * gap:.1f} pts, "
                          f"{elapsed:.0f}s")


# -- 7: privacy budget trades off against utility ------------------------------

def test_criterion_07_privacy_accuracy_tradeoff(cancer):
    epsilons = [0.1, 0.5, 1.0, 2.0, math.inf]
    with criterion(7, "MAE falls and accuracy rises with epsilon") as info:
        worlds = [prepare_experiment(cancer, gamma=0.1, seed=s)
                  for s in range(5)]
        mae_means, acc_means = [], []
        for eps in epsilons:
            maes, accs = [], []
            for seed, world in enumerate(worlds):
                config = MpdlConfig(gamma=0.1, epsilon=eps, seed=seed,
                                    use_encryption=False)
                result = mpdl_train(world, config)
                maes.append(result.report.inference_mae)
                accs.append(result.report.accuracy_dual)
                result.hub.close()
            mae_means.append(float(np.mean(maes)))
            acc_means.append(float(np.mean(accs)))
        rho_mae = float(scipy.stats.spearmanr(epsilons, mae_means).statistic)
        rho_acc = float(scipy.stats.spearmanr(epsilons, acc_means).statistic)
        assert rho_mae <= -0.8, (epsilons, mae_means)
        assert rho_acc >= 0.8, (epsilons, acc_means)
        info["detail"] = (f"5-seed means over eps {{0.1..inf}}: "
                          f"rho(eps, MAE) {rho_mae:.2f}, "
                          f"rho(eps, acc) {rho_acc:.2f}")


# -- 8: the masked matrix product is exact and hides the factor ----------------

def test_criterion_08_confusion_protocol_exact_and_blind():
    with criterion(8, "confusion protocol exact; factor stays hidden") as info:
        worst = 0.0
        for inst in range(100):
            rng = np.random.default_rng(8000 + inst)
            m_a = rng.uniform(-1.0, 1.0, size=(50, 60))
            m_b = rng.uniform(-1.0, 1.0, size=(60, 10))
            hub = Hub()
            try:
                out = confusion_protocol(m_a, m_b, rng, hub)
                report = transcript_assert(hub.transcript, {
                    "m_b hidden from A": forbid_plaintext_rows("A", m_b),
                })
            finally:
                hub.close()
            assert report.ok, report.failures()
            worst = max(worst, float(np.abs(out - m_a @ m_b).max()))
        assert worst <= 1e-8
        info["detail"] = f"100 instances 50x60 @ 60x10, worst err {worst:.1e}"


# -- 9: KDE agrees with the naive product-kernel sum ---------------------------

def _naive_density(support: np.ndarray, bandwidth: float,
                   points: np.ndarray) -> np.ndarray:
    """Direct triple loop over the product-Gaussian mixture."""
    norm = 1.0 / (bandwidth * math.sqrt(2.0 * math.pi))
    out = np.zeros(len(points))
    for k, point in enumerate(points):
        total = 0.0
        for row in support:
            term = 1.0
            for j in range(len(row)):
                term *= norm * math.exp(-(point[j] - row[j]) ** 2 /
                                        (2.0 * bandwidth * bandwidth))
            total += term
        out[k] = total / len(support)
    return out


def test_criterion_09_kde_against_naive_oracle():
    with criterion(9, "KDE density, gradient and mass check out") as info:
        worst_rel = 0.0
        for inst in range(25):
            rng = np.random.default_rng(9000 + inst)
            n = int(rng.integers(5, 51))
            d = int(rng.integers(1, 6))
            support = rng.uniform(size=(n, d))
            kde = fit_kde(support)
            points = rng.uniform(-0.2, 1.2, size=(8, d))
            dens = np.exp(log_density_batch(kde, points))
            naive = _naive_density(support, kde.bandwidth, points)
            worst_rel = max(worst_rel,
                            float(np.abs(dens / naive - 1.0).max()))
        assert worst_rel < 1e-10

        worst_grad = 0.0
        h = 1e-6
        for inst in range(20):
            rng = np.random.default_rng(9100 + inst)
            support = rng.uniform(size=(12, 4))
            kde = fit_kde(support)
            point = rng.uniform(size=4)
            grad = grad_log_density_batch(kde, point[None, :])[0]
            for j in range(4):
                up, dn = point.copy(), point.copy()
                up[j] += h
                dn[j] -= h
                fd = (log_density_batch(kde, up[None, :])[0] -
                      log_density_batch(kde, dn[None, :])[0]) / (2.0 * h)
                worst_grad = max(worst_grad, _rel_err(float(grad[j]), fd))
        assert worst_grad < 1e-4

        support1 = np.random.default_rng(9200).uniform(size=(30, 1))
        kde1 = fit_kde(support1)
        grid = np.linspace(-8.0, 9.0, 20001)
        mass = float(np.trapezoid(np.exp(log_density_batch(
            kde1, grid[:, None])), grid))
        assert abs(mass - 1.0) <= 0.01
        info["detail"] = (f"density rel {worst_rel:.1e}, grad rel "
                          f"{worst_grad:.1e}, d=1 mass {mass:.4f}")


# -- 10: full-run transcript respects every data boundary ----------------------

def test_criterion_10_protocol_boundary_suite():
    with criterion(10, "full run crosses no raw-data boundary") as info:
        source = linear_task(220, 3, 3, seed=11)
        world = prepare_experiment(source, gamma=0.3, seed=11)
        config = MpdlConfig(gamma=0.3, epsilon=1.0, seed=11, dual_epochs=2,
                            central_epochs=4, max_iters=2, batch_size=16)
        hub = Hub()
        result = mpdl_train(world, config, hub)

        store_a = result.state_a.store
        store_b = result.state_b.store
        logp_a = log_density_batch(result.state_a.kde, store_a.features)
        logp_b = log_density_batch(result.state_b.kde, store_b.features)
        report = transcript_assert(hub.transcript, {
            "raw A rows never cross":
                forbid_plaintext_rows(None, world.party_a.features),
            "raw B rows never cross":
                forbid_plaintext_rows(None, world.party_b.features),
            "A never sees B's perturbed rows":
                forbid_plaintext_rows("A", store_b.features),
            "B never sees A's perturbed rows":
                forbid_plaintext_rows("B", store_a.features),
            "A never sees B's log-densities":
                forbid_plaintext_values("A", logp_b),
            "B never sees A's log-densities":
                forbid_plaintext_values("B", logp_a),
            "C only sees partial sums and control":
                allowed_kinds_only("C", (MessageKind.PartialSum,
                                         MessageKind.Control)),
        })
        assert report.ok, report.failures()

        key_ids = {result.state_a.keys.public.key_id,
                   result.state_b.keys.public.key_id}
        n_cipher = n_blinded = 0
        for msg in hub.transcript.messages():
            if msg.kind == MessageKind.CipherBlock:
                n_cipher += 1
                assert unpack_ciphers(msg.payload)[0] in key_ids
            elif msg.kind == MessageKind.BlindedIds:
                n_blinded += 1
                tokens = unpack_tokens(msg.payload)
                # opaque fixed-width digests only, never id-shaped text
                assert len({len(t) for t in tokens}) == 1
        assert n_cipher > 0 and n_blinded > 0
        n_msgs = len(list(hub.transcript.messages()))
        hub.close()

        train_a = list(world.split.co_occurrence) + list(world.split.a_only)
        train_b = list(world.split.co_occurrence) + list(world.split.b_only)
        align_hub = Hub()
        common = blinded_intersection(train_a, train_b,
                                      np.random.default_rng(5), align_hub)
        align_hub.close()
        assert set(common) == set(train_a) & set(train_b)
        assert set(common) == set(world.split.co_occurrence)
        info["detail"] = (f"{n_msgs} messages, {n_cipher} cipher blocks, "
                          f"7 predicates pass, alignment == intersection "
                          f"of {len(common)} ids")


# -- 11: split sizes and AUC are exactly right ---------------------------------

def test_criterion_11_split_sizes_and_auc_exact():
    with criterion(11, "gamma split sizes and AUC match exact oracles") as info:
        rng = np.random.default_rng(1111)
        checked = 0
        while checked < 100:
            n_ids = int(rng.integers(20, 2001))
            gamma = float(np.round(rng.uniform(0.02, 0.9), 3))
            test_fraction = float(rng.choice([0.0, 0.1, 0.2]))
            ids = list(range(n_ids))
            try:
                split = split_by_gamma(ids, SplitSpec(gamma, test_fraction,
                                                      seed=checked))
            except ValueError:
                continue  # degenerate corner: a block would be empty
            n_test = math.floor(n_ids * test_fraction + 1e-9)
            rest = n_ids - n_test
            n_c = math.floor(rest * gamma + 1e-9)
            n_b = math.floor(rest * (0.5 - gamma / 2.0) + 1e-9)
            n_a = rest - n_c - n_b
            got = (len(split.co_occurrence), len(split.b_only),
                   len(split.a_only), len(split.test))
            assert got == (n_c, n_b, n_a, n_test), (n_ids, gamma,
                                                    test_fraction)
            pieces = (split.co_occurrence + split.b_only + split.a_only +
                      split.test)
            assert sorted(pieces) == ids
            checked += 1

        for inst in range(200):
            r = np.random.default_rng(1200 + inst)
            m = int(r.integers(5, 40))
            if inst % 2:
                scores = r.integers(0, 6, size=m).astype(float)
            else:
                scores = r.uniform(size=m)
            truth = r.integers(0, 2, size=m).astype(bool)
            if truth.all() or not truth.any():
                truth[0], truth[-1] = True, False
            positive = scores[truth]
            negative = scores[~truth]
            hits = 0.0
            for p in positive:
                for q in negative:
                    if p > q:
                        hits += 1.0
                    elif p == q:
                        hits += 0.5
            expected = hits / (len(positive) * len(negative))
            assert link_auc(scores, truth) == expected
        info["detail"] = ("100 split layouts exact, 200 AUC instances "
                          "bit-equal to pairwise counting")
