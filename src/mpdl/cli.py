"""Command line front end.

Four subcommands: ``mpdl`` (accuracy table over co-occurrence
fractions), ``privacy-sweep`` (accuracy and inference error against the
privacy budget), ``graph`` (link-prediction AUC over co-occurrence
fractions) and ``selftest`` (built-in oracle checks).  Each setting is
declared once, in ``MpdlConfig`` or ``DEFAULTS``, and the type of its
default picks its parser; ``SETTINGS`` names the settings each
subcommand reads, the only ones it takes as flags.  Settings resolve
as CLI flags over config-file entries over built-in defaults; the seed
additionally falls back to the MPDL_SEED environment variable.  Every
output CSV embeds the resolved settings and a content hash of the
input files, and identical settings produce byte-identical files.

Exit codes: 0 success, 1 selftest failure, 2 invalid configuration,
3 protocol violation, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys

import numpy as np

from .orchestrator import MpdlConfig, mpdl_train, prepare_experiment, \
    train_dual_generators
from .privacy import SENSITIVITY_MODES
from .transport import ProtocolError

_CONFIG_FIELDS = {f.name for f in dataclasses.fields(MpdlConfig)}

# every MpdlConfig default (the CLI spells use_encryption as
# no_encryption), then the settings only the front end reads
DEFAULTS = {f.name: f.default for f in dataclasses.fields(MpdlConfig)
            if f.default is not dataclasses.MISSING
            and f.name != "use_encryption"}
DEFAULTS.update(gamma=0.1, gammas="0.05,0.1,0.2,0.4,0.6,0.8",
                epsilons="0.1,0.5,1,2,inf", test_fraction=0.1, repeats=3,
                holdout_fraction=0.2, synthetic_nodes=150, id_column=None,
                label_column="label", no_encryption=False)

_TRAINING = ("seed", "repeats", "id_column", "label_column", "test_fraction",
             "sensitivity_mode", "lam", "lr", "folds", "threshold",
             "max_iters", "dual_epochs", "central_epochs", "batch_size",
             "key_bits", "no_encryption", "exact_duality_grad")

# the settings each subcommand reads: the only ones it takes as flags and
# records in its CSV's "# config:" line
SETTINGS = {
    "mpdl": ("gammas", "epsilon") + _TRAINING,
    "privacy-sweep": ("gamma", "epsilons") + _TRAINING,
    "graph": ("gammas", "seed", "repeats", "id_column", "synthetic_nodes",
              "holdout_fraction", "lam", "lr", "dual_epochs", "batch_size",
              "key_bits", "no_encryption", "exact_duality_grad"),
}


def content_hash(path: str) -> str:
    """Git blob hash of a file: sha1 over 'blob <len>\\0' + bytes."""
    with open(path, "rb") as fh:
        raw = fh.read()
    return hashlib.sha1(b"blob %d\0" % len(raw) + raw).hexdigest()


def parse_float(text: str) -> float:
    if text.strip().lower() in ("inf", "infinity"):
        return math.inf
    return float(text)


def parse_list(text: str) -> list[float]:
    return [parse_float(part) for part in text.split(",") if part.strip()]


def parse_bool(text: str) -> bool:
    word = text.strip().lower()
    if word in ("1", "true", "yes", "on"):
        return True
    if word in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parser(key: str):
    """The parser picked by the type of ``key``'s default."""
    default = DEFAULTS[key]
    if isinstance(default, bool):
        return parse_bool
    if isinstance(default, int):
        return int
    return parse_float if isinstance(default, float) else str


def read_config_file(path: str) -> dict:
    """Flat ``key = value`` lines; '#' starts a comment."""
    out = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, value = (part.strip() for part in line.split("=", 1))
            key = key.replace("-", "_")
            if key not in DEFAULTS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                out[key] = _parser(key)(value)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {key}: {exc}") from None
    return out


def resolve_settings(args: argparse.Namespace) -> dict:
    """defaults < MPDL_SEED env < config file < explicit CLI flags, over
    the settings that ``args.command`` reads."""
    keys = SETTINGS[args.command]
    settings = {key: DEFAULTS[key] for key in keys}
    env_seed = os.environ.get("MPDL_SEED")
    if env_seed is not None:
        settings["seed"] = int(env_seed)
    if args.config:
        settings.update((key, value) for key, value
                        in read_config_file(args.config).items()
                        if key in settings)
    for key in keys:
        value = getattr(args, key)
        if value is not None:
            settings[key] = value
    if settings["repeats"] < 1:
        raise ValueError("repeats must be at least 1")
    return settings


def build_config(settings: dict, gamma: float, epsilon: float,
                 seed: int) -> MpdlConfig:
    given = {k: v for k, v in settings.items() if k in _CONFIG_FIELDS}
    given.update(gamma=gamma, epsilon=epsilon, seed=seed,
                 use_encryption=not settings["no_encryption"])
    return MpdlConfig(**given)


def write_csv(path: str, settings: dict, input_hash: str, header: list[str],
              rows: list[list]) -> None:
    def fmt(v) -> str:
        if isinstance(v, float):
            return "inf" if math.isinf(v) else repr(v)
        return str(v)

    resolved = {k: ("inf" if isinstance(v, float) and math.isinf(v) else v)
                for k, v in sorted(settings.items())}
    lines = [f"# config: {json.dumps(resolved, sort_keys=True)}",
             f"# inputs: {input_hash}", ",".join(header)]
    lines += [",".join(fmt(v) for v in row) for row in rows]
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def load_dataset(settings: dict, path: str):
    from .data import load_normalize
    return load_normalize(path, id_column=settings["id_column"],
                          label_column=settings["label_column"])


def _run_batch(ds, settings: dict, gamma: float, epsilon: float):
    """Mean/std of the three accuracies and the MAE over repeats."""
    keys = ("accuracy_joint", "accuracy_dual", "accuracy_unlabeled",
            "inference_mae")
    stats = {k: [] for k in keys}
    for r in range(settings["repeats"]):
        seed = settings["seed"] + r
        data = prepare_experiment(ds, gamma, seed=seed,
                                  test_fraction=settings["test_fraction"])
        config = build_config(settings, gamma, epsilon, seed)
        result = mpdl_train(data, config)
        result.hub.close()
        for k in keys:
            stats[k].append(getattr(result.report, k))
    return {k: (float(np.mean(v)), float(np.std(v)))
            for k, v in stats.items()}


def cmd_mpdl(args: argparse.Namespace) -> int:
    settings = resolve_settings(args)
    ds = load_dataset(settings, args.dataset)
    if args.gamma is not None:
        settings["gammas"] = repr(args.gamma)
    rows = []
    for gamma in parse_list(settings["gammas"]):
        stats = _run_batch(ds, settings, gamma, settings["epsilon"])
        for method, key in (("joint_T", "accuracy_joint"),
                            ("dual_T", "accuracy_dual"),
                            ("MPDL_A", "accuracy_unlabeled")):
            mean, std = stats[key]
            rows.append([gamma, method, mean, std, settings["repeats"]])
    write_csv(args.out, settings, content_hash(args.dataset),
              ["gamma", "method", "accuracy_mean", "accuracy_std",
               "repeats"], rows)
    return 0


def cmd_privacy_sweep(args: argparse.Namespace) -> int:
    settings = resolve_settings(args)
    ds = load_dataset(settings, args.dataset)
    rows = []
    for epsilon in parse_list(settings["epsilons"]):
        stats = _run_batch(ds, settings, settings["gamma"], epsilon)
        acc_mean, acc_std = stats["accuracy_dual"]
        mae_mean, mae_std = stats["inference_mae"]
        rows.append([epsilon, acc_mean, acc_std, mae_mean, mae_std,
                     settings["repeats"]])
    write_csv(args.out, settings, content_hash(args.dataset),
              ["epsilon", "accuracy_mean", "accuracy_std", "mae_mean",
               "mae_std", "repeats"], rows)
    return 0


def cmd_graph(args: argparse.Namespace) -> int:
    from random import Random
    from .data import PartyDataset, SplitSpec, load_normalize, \
        partition_features, split_by_gamma
    from .density import fit_kde
    from .dual import DualModelPair, DualPartyState
    from .graph import link_prediction_auc
    from .nn import dual_hidden_width, init_mlp
    from .paillier import keygen
    from .transport import Hub

    settings = resolve_settings(args)
    if bool(args.edges) != bool(args.features):
        raise ValueError("--edges and --features must be given together")
    if args.edges:
        feats = load_normalize(args.features, id_column=settings["id_column"],
                               label_column=None)
        index = {i: k for k, i in enumerate(feats.ids)}
        n = len(feats.ids)
        adj = np.zeros((n, n), dtype=np.int8)
        with open(args.edges) as fh:
            for lineno, line in enumerate(fh, 1):
                parts = line.split()
                if not parts:
                    continue
                where = f"{args.edges}:{lineno}"
                if len(parts) != 2:
                    raise ValueError(f"{where}: expected 'src dst'")
                for p in parts:
                    if p not in index:
                        raise ValueError(f"{where}: unknown node {p!r}")
                u, v = (index[p] for p in parts)
                adj[u, v] = adj[v, u] = 1
        ds = PartyDataset(feats.ids, feats.features,
                          np.zeros(n, dtype=np.int64))
        input_hash = f"{content_hash(args.edges)},{content_hash(args.features)}"
    else:
        from .synthetic import linked_graph
        ds, adj = linked_graph(settings["synthetic_nodes"], 4, 4,
                               seed=settings["seed"])
        input_hash = "synthetic"

    rows = []
    for gamma in parse_list(settings["gammas"]):
        aucs = []
        for r in range(settings["repeats"]):
            seed = settings["seed"] + r
            rng = np.random.default_rng(seed)
            fsplit = partition_features(ds, seed=seed)
            gsplit = split_by_gamma(ds.ids, SplitSpec(gamma, 0.0, seed))
            co = list(gsplit.co_occurrence)
            idx = {i: k for k, i in enumerate(ds.ids)}
            has_a = np.zeros(len(ds.ids), dtype=bool)
            has_b = np.zeros(len(ds.ids), dtype=bool)
            for i in co + list(gsplit.a_only):
                has_a[idx[i]] = True
            for i in co + list(gsplit.b_only):
                has_b[idx[i]] = True

            key_rng = Random(seed)
            keys_a = keygen(settings["key_bits"], key_rng)
            keys_b = keygen(settings["key_bits"], key_rng)
            fa_co = fsplit.party_a.rows(co)
            fb_co = fsplit.party_b.rows(co)
            d_a = fa_co.shape[1]
            d_b = fb_co.shape[1]
            state_a = DualPartyState(
                "A", PartyDataset(tuple(co), fa_co), fit_kde(fa_co),
                init_mlp([d_a, dual_hidden_width(d_a, d_b), d_b],
                         ["relu", "identity"], rng),
                keys_a, keys_b.public, settings["lam"], settings["lr"])
            state_b = DualPartyState(
                "B", PartyDataset(tuple(co), fb_co), fit_kde(fb_co),
                init_mlp([d_b, dual_hidden_width(d_b, d_a), d_a],
                         ["relu", "identity"], rng),
                keys_b, keys_a.public, settings["lam"], settings["lr"])
            hub = Hub()
            try:
                train_dual_generators(
                    state_a, state_b, co, hub, settings["dual_epochs"],
                    settings["batch_size"], rng, Random(seed + 1),
                    use_encryption=not settings["no_encryption"],
                    exact_duality_grad=settings["exact_duality_grad"])
                pair = DualModelPair(state_a.model, state_b.model)
                aucs.append(link_prediction_auc(
                    pair, adj, fsplit.party_a.features,
                    fsplit.party_b.features, has_a, has_b,
                    settings["holdout_fraction"], rng, hub))
            finally:
                hub.close()
        rows.append([gamma, float(np.mean(aucs)), float(np.std(aucs)),
                     settings["repeats"]])
    write_csv(args.out, settings, input_hash,
              ["gamma", "auc_mean", "auc_std", "repeats"], rows)
    return 0


def cmd_selftest(args: argparse.Namespace) -> int:
    from .selftest import run_selftest
    return run_selftest()


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mpdl", description="multi-party dual learning simulator")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "mpdl": (cmd_mpdl, "accuracy table over gammas"),
        "privacy-sweep": (cmd_privacy_sweep,
                          "accuracy and inference MAE per epsilon"),
        "graph": (cmd_graph, "link prediction AUC over gammas"),
    }
    subparsers = {}
    for name, (func, help_text) in commands.items():
        # no abbreviations: privacy-sweep's --epsilon must not pass for
        # --epsilons
        p = subparsers[name] = sub.add_parser(name, help=help_text,
                                              allow_abbrev=False)
        p.set_defaults(func=func)
        if name != "graph":
            p.add_argument("--dataset", required=True,
                           help="headered CSV with features and a label")
        p.add_argument("--config", help="key = value settings file")
        p.add_argument("--out", required=True, help="output CSV path")
        for key in SETTINGS[name]:
            flag = "--" + key.replace("_", "-")
            if isinstance(DEFAULTS[key], bool):
                p.add_argument(flag, action="store_const", const=True)
            else:
                p.add_argument(flag, type=_parser(key),
                               help=f"default: {DEFAULTS[key]}",
                               choices=SENSITIVITY_MODES
                               if key == "sensitivity_mode" else None)
    subparsers["mpdl"].add_argument("--gamma", type=float,
                                    help="single value; overrides --gammas")
    subparsers["graph"].add_argument(
        "--edges", help="edge list: one 'src dst' per line")
    subparsers["graph"].add_argument("--features", help="node feature CSV")

    p_self = sub.add_parser("selftest", help="run the built-in oracle checks")
    p_self.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ProtocolError as exc:
        print(f"protocol violation: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OverflowError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
