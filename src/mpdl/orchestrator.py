"""End-to-end lifecycle: alignment, perturbation, dual training, split
central training with dual cross validation, and the final metrics.

The driver plays all three roles of the simulation but every tensor
that crosses a trust boundary travels through the hub, so transcripts
reflect exactly what each actor could have observed.  Per run:

1. ``setup_parties`` (``mpdl graph`` runs it too): both parties perturb
   their feature stores once (feature-level DP), fit KDEs on their
   perturbed training partitions and find the co-occurring ids by
   blinded intersection, which are then folded;
2. for up to ``max_iters`` iterations: the dual generators train over
   the co-occurrence block (they persist and keep improving), B infers
   the missing A-side features of its own-only rows to build the
   supplement block, and two fresh central models are trained, one on
   the fold-train rows alone (joint baseline) and one with the
   supplement added; iteration stops early when the supplemented model
   beats the baseline on the held-out fold by more than the threshold;
3. the report carries per-iteration validation scores, test accuracies
   for both central models, the unlabeled-routing accuracy over A-only
   rows, and the inference error of the generators against raw data.
"""

from __future__ import annotations

import hashlib
import math
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from random import Random

import numpy as np

from .central import SPLIT_ACTIVATION, SplitCentralModel, \
    central_forward_backward, init_split_central, party_backward, \
    party_forward
from .data import GammaSplit, PartyDataset, SplitSpec, \
    blinded_intersection, id_token, kfold_split, partition_features, \
    split_by_gamma
from .density import fit_kde
from .dual import DualModelPair, DualPartyState, dual_infer, run_dual_round
from .nn import apply_activation, as_batch, dual_hidden_width, init_mlp, \
    mlp_forward, sgd_step
from .paillier import keygen, parallel_map, serial_map
from .privacy import SENSITIVITY_MODES, DpConfig, OneShotPerturber
from .transport import Hub, MessageKind, ProtocolError, expect_shape, \
    pack_json, pack_matrix, pack_tokens, unpack_json, unpack_matrix, \
    unpack_tokens

# the share of rows held back as the test block; `mpdl --test-fraction`
# overrides it
TEST_FRACTION = 0.1


@dataclass(frozen=True)
class MpdlConfig:
    """Run parameters; defaults follow the simple-dataset preset."""

    gamma: float
    epsilon: float = 0.5
    sensitivity_mode: str = "per_neuron"
    lam: float = 0.01
    lr: float = 0.1
    folds: int = 5
    threshold: float = 0.15
    max_iters: int = 2
    dual_epochs: int = 10
    central_epochs: int = 20
    batch_size: int = 32
    key_bits: int = 512
    use_encryption: bool = True
    exact_duality_grad: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.folds < self.max_iters:
            raise ValueError("folds must be >= max_iters: iterations draw "
                             "validation folds without replacement")
        if self.max_iters < 1 or self.dual_epochs < 0 or \
                self.central_epochs < 1:
            raise ValueError("iteration counts must be positive")
        if self.batch_size < 1 or not 0.0 < self.lr:
            raise ValueError("bad optimizer settings")
        if self.sensitivity_mode not in SENSITIVITY_MODES:
            raise ValueError(f"sensitivity_mode must be one of "
                             f"{SENSITIVITY_MODES}")
        if not self.epsilon > 0.0:
            raise ValueError("epsilon must be positive (inf disables noise)")


@dataclass(frozen=True)
class PreparedExperiment:
    """The simulated multi-party world built from one source dataset."""

    party_a: PartyDataset
    party_b: PartyDataset
    split: GammaSplit
    withheld_labels: dict
    n_classes: int


def prepare_experiment(ds: PartyDataset, gamma: float, seed: int = 0,
                       test_fraction: float = TEST_FRACTION
                       ) -> PreparedExperiment:
    """Partition one labeled dataset into the three-actor world.

    B receives the labels for its own rows (co-occurrence, B-only and
    test); labels of A-only rows never enter the protocol and are kept
    aside purely for scoring the unlabeled-routing accuracy.
    """
    if ds.labels is None:
        raise ValueError("the source dataset must carry labels")
    fsplit = partition_features(ds, seed=seed)
    gsplit = split_by_gamma(ds.ids, SplitSpec(gamma, test_fraction, seed))
    rows_a = list(gsplit.co_occurrence) + list(gsplit.a_only) + \
        list(gsplit.test)
    rows_b = list(gsplit.co_occurrence) + list(gsplit.b_only) + \
        list(gsplit.test)
    party_a = PartyDataset(tuple(rows_a), fsplit.party_a.rows(rows_a))
    party_b = PartyDataset(tuple(rows_b), fsplit.party_b.rows(rows_b),
                           fsplit.party_b.labels_for(rows_b))
    withheld = {i: int(lab) for i, lab in
                zip(gsplit.a_only, ds.labels_for(gsplit.a_only))}
    return PreparedExperiment(party_a, party_b, gsplit, withheld,
                              int(ds.labels.max()) + 1)


@dataclass
class IterationRecord:
    fold_index: int
    v_joint: float
    v_dual: float


@dataclass
class RunReport:
    """A run's scores; ``config`` is the run's ``MpdlConfig`` as a dict."""

    converged: bool
    iterations: list[IterationRecord]
    accuracy_joint: float
    accuracy_dual: float
    accuracy_unlabeled: float
    inference_mae: float
    config: dict

    def to_dict(self) -> dict:
        out = asdict(self)
        out["config"] = {k: (repr(v) if isinstance(v, float) and
                             math.isinf(v) else v)
                        for k, v in out["config"].items()}
        return out


@dataclass
class MpdlResult:
    report: RunReport
    model_joint: SplitCentralModel
    model_dual: SplitCentralModel
    pair: DualModelPair
    state_a: DualPartyState
    state_b: DualPartyState
    received_a: dict
    hub: Hub


def _rng_int(ss: np.random.SeedSequence) -> int:
    return int(ss.generate_state(2, dtype=np.uint64)[0])


def _labels_to_c(hub: Hub, party_b: PartyDataset) -> dict:
    """B hands C the labels of its rows once, keyed by opaque repr."""
    payload = {repr(i): int(l) for i, l in zip(party_b.ids, party_b.labels)}
    msg = hub.exchange("B", "C", MessageKind.Control,
                       pack_json({"labels": payload}))
    return unpack_json(msg.payload)["labels"]


def _partial_sums(hub: Hub, model: SplitCentralModel, x_a, x_b, rows: int):
    """A's and B's first-layer partial sums; C takes each as ``rows`` rows."""
    return tuple(hub.exchange_matrix(
        sender, "C", MessageKind.PartialSum, party_forward(local, x),
        (rows, model.hidden_width), codec=(pack_matrix, unpack_matrix))
        for sender, local, x in (("A", model.local_a, x_a),
                                 ("B", model.local_b, x_b)))


def split_train(hub: Hub, model: SplitCentralModel, x_a, x_b, labels,
                lr: float, epochs: int, batch_size: int,
                rng: np.random.Generator) -> SplitCentralModel:
    """Minibatch SGD over seeded shuffles, every step routed through the hub.

    A holds ``x_a``, B holds ``x_b`` and C holds ``labels``.  Per batch,
    C combines the partial sums, steps its own layers and returns the
    hidden-layer delta, from which each party steps its local layer.
    """
    x_a = as_batch(x_a)
    x_b = as_batch(x_b)
    labels = np.asarray(labels)
    for _ in range(epochs):
        order = rng.permutation(x_a.shape[0])
        for start in range(0, len(order), batch_size):
            idx = order[start:start + batch_size]
            xa, xb = x_a[idx], x_b[idx]
            z_a, z_b = _partial_sums(hub, model, xa, xb, len(idx))
            step = central_forward_backward(model, z_a, z_b, labels[idx])
            new_central = sgd_step(model.central, step.central_grads, lr)
            local = []
            for party, layer, x in (("A", model.local_a, xa),
                                    ("B", model.local_b, xb)):
                local.append(party_backward(layer, hub.exchange_matrix(
                    "C", party, MessageKind.DeltaError, step.delta,
                    (x.shape[0], model.hidden_width),
                    codec=(pack_matrix, unpack_matrix)), x, lr))
            model = SplitCentralModel(*local, new_central)
    return model


def split_predict(hub: Hub, model: SplitCentralModel, x_a,
                  x_b) -> np.ndarray:
    """C's argmax labels for rows whose features A and B hold."""
    z_a, z_b = _partial_sums(hub, model, x_a, x_b, len(x_a))
    hidden = apply_activation(SPLIT_ACTIVATION, z_a + z_b)
    probs, _ = mlp_forward(model.central, hidden)
    return probs.argmax(axis=1)


def train_dual_generators(state_a: DualPartyState, state_b: DualPartyState,
                          ids, hub: Hub, epochs: int, batch_size: int,
                          order_rng: np.random.Generator, protocol_rng,
                          first_tag: int = 0, use_encryption: bool = True,
                          exact_duality_grad: bool = False) -> int:
    """Train both generators for ``epochs`` passes over the aligned ids.

    Each epoch draws one permutation of ``ids`` from ``order_rng`` and
    runs one ``run_dual_round`` per consecutive ``batch_size`` slice of
    it, with ``protocol_rng`` and the round's encryption and gradient
    settings.  Rounds are tagged ``first_tag``, ``first_tag + 1``, ...;
    the next free tag is returned.  With encryption on, the rounds'
    cipher exponentiations share ``paillier.parallel_map``'s worker
    processes, which are gone again when this returns or raises.
    """
    tag = first_tag
    pool = parallel_map() if use_encryption else nullcontext(serial_map)
    with pool as pmap:
        for _ in range(epochs):
            order = order_rng.permutation(len(ids))
            for start in range(0, len(ids), batch_size):
                batch = [ids[k] for k in order[start:start + batch_size]]
                run_dual_round(state_a, state_b, batch, hub, protocol_rng,
                               use_encryption=use_encryption,
                               exact_duality_grad=exact_duality_grad,
                               round_tag=tag, pmap=pmap)
                tag += 1
    return tag


def mpdl_train(data: PreparedExperiment, config: MpdlConfig,
               hub: Hub | None = None) -> MpdlResult:
    """Run the full multi-party lifecycle and return models plus report.

    Without a ``hub`` the run opens its own, which the result carries
    open (``result.hub``) and which is closed if the run raises.
    """
    if not data.split.test:
        raise ValueError("the test block is empty: mpdl_train scores both "
                         "central models on it")
    if hub is not None:
        return _run_lifecycle(data, config, hub)
    hub = Hub()
    try:
        return _run_lifecycle(data, config, hub)
    except BaseException:
        hub.close()
        raise


@dataclass(frozen=True)
class PartySetup:
    """Both parties ready for dual training, and the run's other streams."""

    state_a: DualPartyState
    state_b: DualPartyState
    common: tuple
    order_rng: np.random.Generator
    protocol_rng: Random
    fold_seed: np.random.SeedSequence
    central_seed: np.random.SeedSequence

    def train_generators(self, hub: Hub, config: MpdlConfig,
                         first_tag: int = 0) -> int:
        """``config.dual_epochs`` epochs; returns the next free round tag."""
        return train_dual_generators(
            self.state_a, self.state_b, self.common, hub, config.dual_epochs,
            config.batch_size, self.order_rng, self.protocol_rng, first_tag,
            use_encryption=config.use_encryption,
            exact_duality_grad=config.exact_duality_grad)


def setup_parties(data: PreparedExperiment, config: MpdlConfig,
                  hub: Hub) -> PartySetup:
    """Both parties draw keys; each perturbs its features once (feature-
    oriented DP), fits its KDE on the perturbed training rows and draws
    its generator; blinded intersection on ``hub`` then finds the
    co-occurring ids."""
    (ss_keys, ss_noise_a, ss_noise_b, ss_align, ss_dual_init, ss_folds,
     ss_dual_order, ss_central, ss_protocol) = \
        np.random.SeedSequence(config.seed).spawn(9)

    split = data.split
    train_a = list(split.co_occurrence) + list(split.a_only)
    train_b = list(split.co_occurrence) + list(split.b_only)
    hidden = dual_hidden_width(data.party_a.features.shape[1] +
                               data.party_b.features.shape[1], data.n_classes)
    key_rng = Random(_rng_int(ss_keys))
    keys_a = keygen(config.key_bits, key_rng)
    keys_b = keygen(config.key_bits, key_rng)
    dual_rng = np.random.default_rng(ss_dual_init)

    def party_state(name, party, ss_noise, train, partner, keys,
                    partner_keys):
        cfg = DpConfig(config.epsilon, hidden, len(train),
                       config.sensitivity_mode)
        perturber = OneShotPerturber(cfg, np.random.default_rng(ss_noise))
        out = perturber.perturb(name, party.features)
        store = PartyDataset(party.ids, out.features, party.labels)
        d_in, d_out = party.features.shape[1], partner.features.shape[1]
        generator = init_mlp([d_in, dual_hidden_width(d_in, d_out), d_out],
                             ["relu", "identity"], dual_rng)
        return DualPartyState(name, store, fit_kde(store.rows(train)),
                              generator, keys, partner_keys.public,
                              config.lam, config.lr)

    state_a = party_state("A", data.party_a, ss_noise_a, train_a,
                          data.party_b, keys_a, keys_b)
    state_b = party_state("B", data.party_b, ss_noise_b, train_b,
                          data.party_a, keys_b, keys_a)
    common = blinded_intersection(train_a, train_b,
                                  np.random.default_rng(ss_align), hub)
    if set(common) != set(split.co_occurrence):
        raise ProtocolError("alignment disagrees with the constructed split")
    return PartySetup(state_a, state_b, common,
                      np.random.default_rng(ss_dual_order),
                      Random(_rng_int(ss_protocol)), ss_folds, ss_central)


def _run_lifecycle(data: PreparedExperiment, config: MpdlConfig,
                   hub: Hub) -> MpdlResult:
    setup = setup_parties(data, config, hub)
    state_a, state_b, common = setup.state_a, setup.state_b, setup.common
    store_a, store_b, split = state_a.store, state_b.store, data.split

    labels_c = _labels_to_c(hub, data.party_b)
    folds = kfold_split(common, config.folds,
                        seed=_rng_int(setup.fold_seed))
    fold_order = np.random.default_rng(setup.fold_seed).permutation(
        config.folds)
    central_rng = np.random.default_rng(setup.central_seed)

    received_a: dict = {}
    records: list[IterationRecord] = []
    model_joint = model_dual = None
    converged = False
    round_tag = 0

    def split_rows(ids):
        """A's features for ``ids`` (its own, or the rows B inferred for
        its own-only ids), B's, and C's labels."""
        index = store_a.index
        x_a = np.array([store_a.features[index[i]] if i in index
                        else received_a[repr(i)] for i in ids])
        return (x_a, store_b.rows(ids),
                np.array([labels_c[repr(i)] for i in ids], dtype=np.int64))

    def train(base, ids):
        return split_train(hub, base, *split_rows(ids), config.lr,
                           config.central_epochs, config.batch_size,
                           central_rng)

    def accuracy(model, ids):
        x_a, x_b, truth = split_rows(ids)
        return float((split_predict(hub, model, x_a, x_b) == truth).mean())

    for iteration in range(config.max_iters):
        fold_idx = int(fold_order[iteration])
        d_v = list(folds[fold_idx])
        held_out = set(d_v)
        d_t = [i for i in common if i not in held_out]

        # dual generators keep training across iterations
        round_tag = setup.train_generators(hub, config, round_tag)

        # B completes its own-only rows with inferred A-side features
        b_only = list(split.b_only)
        if b_only:
            inferred = dual_infer(state_b.model, store_b.rows(b_only))
            got_ids = unpack_json(hub.exchange(
                "B", "A", MessageKind.Control, pack_json(
                    {"supplement_ids": [repr(i) for i in b_only]})).payload)
            got_ids = got_ids.get("supplement_ids") \
                if isinstance(got_ids, dict) else None
            if not isinstance(got_ids, list) or \
                    not all(isinstance(i, str) for i in got_ids):
                raise ProtocolError("Control from B holds no list of "
                                    "supplement ids")
            # a short block would drop ids in the zip
            received_a.update(zip(got_ids, hub.exchange_matrix(
                "B", "A", MessageKind.InferredBatch, inferred,
                (len(got_ids), store_a.features.shape[1]),
                codec=(pack_matrix, unpack_matrix))))

        # fresh central models each iteration, identical initial weights
        base = init_split_central(store_a.features.shape[1],
                                  store_b.features.shape[1], data.n_classes,
                                  central_rng)
        model_joint = train(base, d_t)
        model_dual = train(base, d_t + b_only)

        v_joint = accuracy(model_joint, d_v)
        v_dual = accuracy(model_dual, d_v)
        records.append(IterationRecord(fold_idx, v_joint, v_dual))
        if v_dual - v_joint > config.threshold:
            converged = True
            break

    # final metrics on the held-back test block
    test = list(split.test)
    acc_joint = accuracy(model_joint, test)
    acc_dual = accuracy(model_dual, test)

    result = MpdlResult(
        RunReport(converged, records, acc_joint, acc_dual, 0.0, 0.0,
                  asdict(config)),
        model_joint, model_dual,
        DualModelPair(state_a.model, state_b.model),
        state_a, state_b, received_a, hub)

    a_only = list(split.a_only)
    if a_only:
        preds = predict_unlabeled(result, store_a.rows(a_only), a_only)
        truth = np.array([data.withheld_labels[i] for i in a_only])
        result.report.accuracy_unlabeled = float((preds == truth).mean())
    result.report.inference_mae = inference_mae_report(data, result)
    return result


def predict_unlabeled(result: MpdlResult, x_a, ids) -> np.ndarray:
    """Label A-side rows through the routing protocol, on ``result.hub``.

    A infers the missing partner features and ships them with blinded
    id tokens; B swaps in its true features for any token it holds and
    both parties send partial sums to C, which returns the labels to A.
    Ids B does not hold take the inferred path.
    """
    hub = result.hub
    x_a = np.atleast_2d(np.asarray(x_a, dtype=np.float64))
    ids = list(ids)
    rows = len(ids)
    if rows != x_a.shape[0]:
        raise ValueError("one id per row required")

    # fresh blinding key so B can match tokens without seeing raw ids;
    # derived from B's public modulus to stay reproducible per run
    n = result.state_b.keys.public.n
    key = hashlib.sha256(b"routing" + n.to_bytes((n.bit_length() + 7) // 8,
                                                 "big")).digest()
    key = unpack_tokens(hub.exchange("B", "A", MessageKind.BlindedIds,
                                     pack_tokens([key])).payload)[0]
    tokens = [id_token(key, i) for i in ids]
    xhat_b = dual_infer(result.state_a.model, x_a)
    got_tokens = unpack_tokens(hub.exchange(
        "A", "B", MessageKind.BlindedIds, pack_tokens(tokens)).payload)
    expect_shape(MessageKind.BlindedIds, "A", (len(got_tokens),), (rows,))
    got_xhat = hub.exchange_matrix(
        "A", "B", MessageKind.InferredBatch, xhat_b,
        (rows, result.state_b.store.features.shape[1]),
        codec=(pack_matrix, unpack_matrix))

    # B resolves alignment hits against its own token table
    table = {id_token(key, i): i for i in result.state_b.store.ids}
    x_b = np.array([result.state_b.store.rows([table[t]])[0]
                    if t in table else got_xhat[j]
                    for j, t in enumerate(got_tokens)])

    preds = split_predict(hub, result.model_dual, x_a, x_b)
    back = unpack_json(hub.exchange(
        "C", "A", MessageKind.Control,
        pack_json({"labels": [int(p) for p in preds]})).payload)
    expect_shape(MessageKind.Control, "C", (len(back["labels"]),), (rows,))
    return np.array(back["labels"], dtype=np.int64)


def inference_mae(raw, inferred) -> float:
    """Mean absolute entrywise deviation between two matrices."""
    a = np.asarray(raw, dtype=np.float64)
    b = np.asarray(inferred, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError("matrices must share a shape")
    return float(np.abs(a - b).mean())


def inference_mae_report(data: PreparedExperiment,
                         result: MpdlResult) -> float:
    """Generator leakage proxy: inferred vs raw features on test rows,
    averaged over both directions."""
    test = list(data.split.test)
    raw_a = data.party_a.rows(test)
    raw_b = data.party_b.rows(test)
    inf_b = dual_infer(result.state_a.model,
                       result.state_a.store.rows(test))
    inf_a = dual_infer(result.state_b.model,
                       result.state_b.store.rows(test))
    return 0.5 * (inference_mae(raw_b, inf_b) + inference_mae(raw_a, inf_a))
