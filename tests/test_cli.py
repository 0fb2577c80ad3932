"""Command line behaviour: precedence, determinism, exit codes, CSV shape."""

import dataclasses
import hashlib
import json
import subprocess
import sys

import numpy as np
import pytest

from mpdl.cli import (DEFAULTS, content_hash, main, make_parser, parse_float,
                      parse_list, read_config_file, resolve_settings)
from mpdl.orchestrator import MpdlConfig
from mpdl.synthetic import linear_task
from mpdl.transport import ProtocolError


FAST_ARGS = ["--repeats", "1", "--dual-epochs", "1", "--central-epochs", "2",
             "--max-iters", "1", "--epsilon", "inf", "--no-encryption"]


@pytest.fixture(scope="module")
def dataset_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "task.csv"
    ds = linear_task(80, 3, 3, seed=4)
    cols = [f"f{j}" for j in range(6)]
    lines = ["id," + ",".join(cols) + ",label"]
    for i, (row, lab) in enumerate(zip(ds.features, ds.labels)):
        lines.append(f"row{i}," + ",".join(repr(float(v)) for v in row) +
                     f",{int(lab)}")
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def run_mpdl(dataset, out, *extra):
    return main(["mpdl", "--dataset", dataset, "--id-column", "id",
                 "--out", str(out), "--gammas", "0.3", *FAST_ARGS, *extra])


# -- parsing helpers ---------------------------------------------------------------

def test_parse_float_inf_token():
    assert parse_float("inf") == float("inf")
    assert parse_float("Infinity") == float("inf")
    assert parse_float("0.5") == 0.5
    with pytest.raises(ValueError):
        parse_float("zero")


def test_parse_list():
    got = parse_list("0.1,0.5,inf")
    assert got[:2] == [0.1, 0.5]
    assert np.isinf(got[2])
    assert parse_list("1,") == [1.0]


def test_content_hash_matches_git_blob(tmp_path):
    path = tmp_path / "blob.txt"
    path.write_bytes(b"some bytes\n")
    want = hashlib.sha1(b"blob 11\0some bytes\n").hexdigest()
    assert content_hash(str(path)) == want
    git = subprocess.run(["git", "hash-object", str(path)],
                         capture_output=True, text=True)
    if git.returncode == 0:
        assert content_hash(str(path)) == git.stdout.strip()


# -- configuration precedence ---------------------------------------------------------

def test_config_file_parsing(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# a comment\n"
                   "gamma = 0.25   # trailing comment\n"
                   "epsilon = inf\n"
                   "max-iters = 3\n"
                   "no_encryption = true\n"
                   "label_column = outcome\n")
    got = read_config_file(str(cfg))
    assert got["gamma"] == 0.25
    assert np.isinf(got["epsilon"])
    assert got["max_iters"] == 3
    assert got["no_encryption"] is True
    assert got["label_column"] == "outcome"


def test_config_file_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus = 1\n")
    with pytest.raises(ValueError):
        read_config_file(str(cfg))
    cfg.write_text("gamma 0.5\n")
    with pytest.raises(ValueError):
        read_config_file(str(cfg))
    cfg.write_text("unsafe_audit = 1\n")
    with pytest.raises(ValueError):
        read_config_file(str(cfg))


def test_config_file_rejects_a_misspelt_boolean(tmp_path):
    cfg = tmp_path / "typo.cfg"
    cfg.write_text("seed = 1\nno_encryption = ture\n")
    with pytest.raises(ValueError, match=r"typo\.cfg:2: "):
        read_config_file(str(cfg))
    for word, want in (("YES", True), ("On", True), ("0", False),
                       ("off", False), ("False", False)):
        cfg.write_text(f"exact_duality_grad = {word}\n")
        assert read_config_file(str(cfg)) == {"exact_duality_grad": want}


def test_defaults_take_every_mpdl_config_default():
    for f in dataclasses.fields(MpdlConfig):
        if f.default is dataclasses.MISSING or f.name == "use_encryption":
            continue
        assert f.name in DEFAULTS
        assert DEFAULTS[f.name] == f.default
    assert "use_encryption" not in DEFAULTS


@pytest.mark.parametrize("command, unread", [
    ("mpdl", {"epsilons", "gamma", "holdout_fraction", "synthetic_nodes"}),
    ("privacy-sweep", {"epsilon", "gammas", "holdout_fraction",
                       "synthetic_nodes"}),
    ("graph", {"epsilon", "sensitivity_mode", "folds", "threshold",
               "max_iters", "central_epochs", "test_fraction", "epsilons",
               "gamma", "label_column"}),
])
def test_each_subcommand_resolves_only_what_it_reads(tmp_path, command,
                                                     unread):
    cfg = tmp_path / "all.cfg"
    cfg.write_text("".join(f"{key} = {value}\n"
                           for key, value in DEFAULTS.items()
                           if value is not None))
    argv = [command, "--out", "o.csv", "--config", str(cfg)]
    if command != "graph":
        argv += ["--dataset", "d.csv"]
    settings = resolve_settings(make_parser().parse_args(argv))
    assert set(DEFAULTS) - set(settings) == unread


@pytest.mark.parametrize("flag, value", [
    ("--epsilon", "0.1"), ("--sensitivity-mode", "per_layer"),
    ("--folds", "2"), ("--threshold", "0.1"), ("--max-iters", "1"),
    ("--central-epochs", "1"), ("--test-fraction", "0.2")])
def test_graph_rejects_settings_it_ignores(tmp_path, capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(["graph", "--out", str(tmp_path / "g.csv"), "--synthetic-nodes",
              "50", "--gammas", "0.4", "--repeats", "1", "--dual-epochs",
              "1", "--no-encryption", flag, value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not (tmp_path / "g.csv").exists()


def test_privacy_sweep_rejects_epsilon(dataset_csv, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["privacy-sweep", "--dataset", dataset_csv, "--id-column", "id",
              "--out", str(tmp_path / "s.csv"), "--epsilon", "0.1",
              "--repeats", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --epsilon" in capsys.readouterr().err


def test_precedence_defaults_env_file_flags(tmp_path, monkeypatch):
    parser = make_parser()
    base = ["mpdl", "--dataset", "x.csv", "--out", "y.csv"]

    # defaults
    monkeypatch.delenv("MPDL_SEED", raising=False)
    settings = resolve_settings(parser.parse_args(base))
    assert settings["seed"] == DEFAULTS["seed"] == 0

    # env beats defaults
    monkeypatch.setenv("MPDL_SEED", "5")
    settings = resolve_settings(parser.parse_args(base))
    assert settings["seed"] == 5

    # config file beats env
    cfg = tmp_path / "c.cfg"
    cfg.write_text("seed = 7\nlam = 0.5\n")
    settings = resolve_settings(parser.parse_args(base + ["--config",
                                                          str(cfg)]))
    assert settings["seed"] == 7
    assert settings["lam"] == 0.5

    # explicit flag beats the file
    settings = resolve_settings(parser.parse_args(
        base + ["--config", str(cfg), "--seed", "9", "--lam", "0.25"]))
    assert settings["seed"] == 9
    assert settings["lam"] == 0.25


# -- end-to-end subcommands -------------------------------------------------------------

def test_mpdl_csv_shape_and_determinism(dataset_csv, tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert run_mpdl(dataset_csv, out1) == 0
    assert run_mpdl(dataset_csv, out2) == 0
    assert out1.read_bytes() == out2.read_bytes()

    lines = out1.read_text().splitlines()
    assert lines[0].startswith("# config: ")
    resolved = json.loads(lines[0][len("# config: "):])
    assert resolved["epsilon"] == "inf"
    assert resolved["gammas"] == "0.3"
    assert lines[1] == f"# inputs: {content_hash(dataset_csv)}"
    assert lines[2] == "gamma,method,accuracy_mean,accuracy_std,repeats"
    body = [line.split(",") for line in lines[3:]]
    assert [row[1] for row in body] == ["joint_T", "dual_T", "MPDL_A"]
    for row in body:
        assert row[0] == "0.3"
        assert 0.0 <= float(row[2]) <= 1.0


def test_mpdl_seed_changes_output(dataset_csv, tmp_path):
    out1 = tmp_path / "s0.csv"
    out2 = tmp_path / "s1.csv"
    run_mpdl(dataset_csv, out1, "--seed", "0")
    run_mpdl(dataset_csv, out2, "--seed", "1")
    assert out1.read_bytes() != out2.read_bytes()


def test_mpdl_env_seed_applies(dataset_csv, tmp_path, monkeypatch):
    out_env = tmp_path / "env.csv"
    out_flag = tmp_path / "flag.csv"
    monkeypatch.setenv("MPDL_SEED", "3")
    run_mpdl(dataset_csv, out_env)
    monkeypatch.delenv("MPDL_SEED")
    run_mpdl(dataset_csv, out_flag, "--seed", "3")
    assert out_env.read_bytes() == out_flag.read_bytes()



def test_mpdl_closes_each_run_hub(dataset_csv, tmp_path, monkeypatch):
    from mpdl.transport import Hub
    closed = []
    original = Hub.close
    monkeypatch.setattr(Hub, "close",
                        lambda self: (closed.append(self), original(self)))
    assert run_mpdl(dataset_csv, tmp_path / "c.csv", "--repeats", "2") == 0
    assert len(closed) == 2
    assert closed[0] is not closed[1]


def _failing_round(*args, **kwargs):
    raise ProtocolError("injected failure")


def _record_closes(monkeypatch):
    from mpdl.transport import Hub
    closed = []
    original = Hub.close
    monkeypatch.setattr(Hub, "close",
                        lambda self: (closed.append(self), original(self)))
    return closed


def test_mpdl_closes_run_hub_on_failure(dataset_csv, tmp_path, monkeypatch):
    closed = _record_closes(monkeypatch)
    monkeypatch.setattr("mpdl.orchestrator.run_dual_round", _failing_round)
    assert run_mpdl(dataset_csv, tmp_path / "c.csv") == 3
    assert len(closed) == 1


def test_graph_closes_hub_on_failure(tmp_path, monkeypatch):
    closed = _record_closes(monkeypatch)
    monkeypatch.setattr("mpdl.orchestrator.run_dual_round", _failing_round)
    assert main(["graph", "--out", str(tmp_path / "g.csv"),
                 "--synthetic-nodes", "50", "--gammas", "0.4", "--repeats",
                 "1", "--dual-epochs", "1", "--no-encryption"]) == 3
    assert len(closed) == 1


def test_mpdl_single_gamma_override(dataset_csv, tmp_path):
    out = tmp_path / "g.csv"
    assert main(["mpdl", "--dataset", dataset_csv, "--id-column", "id",
                 "--out", str(out), "--gammas", "0.2,0.4", "--gamma", "0.25",
                 *FAST_ARGS]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[3:]]
    assert {row[0] for row in rows} == {"0.25"}


def test_privacy_sweep_csv(dataset_csv, tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(["privacy-sweep", "--dataset", dataset_csv, "--id-column",
                 "id", "--out", str(out), "--gamma", "0.3", "--epsilons",
                 "1,inf", "--repeats", "1", "--dual-epochs", "1",
                 "--central-epochs", "2", "--max-iters", "1",
                 "--no-encryption"])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[2] == ("epsilon,accuracy_mean,accuracy_std,mae_mean,"
                        "mae_std,repeats")
    eps = [line.split(",")[0] for line in lines[3:]]
    assert eps == ["1.0", "inf"]


def test_graph_synthetic_csv(tmp_path):
    out = tmp_path / "graph.csv"
    code = main(["graph", "--out", str(out), "--synthetic-nodes", "50",
                 "--gammas", "0.4", "--repeats", "1", "--dual-epochs", "1",
                 "--no-encryption"])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "# inputs: synthetic"
    assert lines[2] == "gamma,auc_mean,auc_std,repeats"
    auc = float(lines[3].split(",")[1])
    assert 0.0 <= auc <= 1.0


# exact bytes of a seeded multi-epoch graph run: its own epoch loop over
# run_dual_round repeats the same rows, and no golden digest covers it
GRAPH_MULTI_EPOCH_CSV = (
    '# config: {"batch_size": 32, "dual_epochs": 3, '
    '"exact_duality_grad": false, "gammas": "0.4", "holdout_fraction": 0.2, '
    '"id_column": null, "key_bits": 512, "lam": 0.01, "lr": 0.1, '
    '"no_encryption": true, "repeats": 1, "seed": 0, '
    '"synthetic_nodes": 50}\n'
    "# inputs: synthetic\n"
    "gamma,auc_mean,auc_std,repeats\n"
    "0.4,0.84,0.0,1\n").encode()


def test_graph_multi_epoch_csv_bytes(tmp_path):
    out = tmp_path / "graph.csv"
    assert main(["graph", "--out", str(out), "--synthetic-nodes", "50",
                 "--gammas", "0.4", "--repeats", "1", "--dual-epochs", "3",
                 "--no-encryption"]) == 0
    assert out.read_bytes() == GRAPH_MULTI_EPOCH_CSV


def test_graph_config_file_setting_it_ignores_is_not_recorded(tmp_path):
    cfg = tmp_path / "eps.cfg"
    cfg.write_text("epsilon = 0.1\ncentral_epochs = 1\n")
    out = tmp_path / "graph.csv"
    assert main(["graph", "--out", str(out), "--synthetic-nodes", "50",
                 "--gammas", "0.4", "--repeats", "1", "--dual-epochs", "3",
                 "--no-encryption", "--config", str(cfg)]) == 0
    assert out.read_bytes() == GRAPH_MULTI_EPOCH_CSV


def test_graph_edge_list_inputs(tmp_path):
    # tiny explicit graph: a 6-cycle with one chord
    feats = tmp_path / "nodes.csv"
    rng = np.random.default_rng(2)
    lines = ["id," + ",".join(f"f{j}" for j in range(4))]
    for i in range(30):
        lines.append(f"n{i}," + ",".join(repr(float(v))
                                         for v in rng.uniform(size=4)))
    feats.write_text("\n".join(lines) + "\n")
    edges = tmp_path / "edges.txt"
    edge_lines = [f"n{i} n{(i + 1) % 30}" for i in range(30)]
    edge_lines += [f"n{i} n{(i + 7) % 30}" for i in range(0, 30, 2)]
    edges.write_text("\n".join(edge_lines) + "\n")
    out = tmp_path / "g.csv"
    code = main(["graph", "--edges", str(edges), "--features", str(feats),
                 "--id-column", "id", "--out", str(out), "--gammas", "0.6",
                 "--repeats", "1", "--dual-epochs", "1", "--no-encryption"])
    assert code == 0
    header = out.read_text().splitlines()[1]
    assert header == (f"# inputs: {content_hash(str(edges))},"
                      f"{content_hash(str(feats))}")


def test_graph_passes_exact_duality_grad_to_every_round(tmp_path,
                                                       monkeypatch):
    import mpdl.orchestrator
    seen = []
    original = mpdl.orchestrator.run_dual_round

    def recording(*args, **kwargs):
        seen.append(kwargs)
        return original(*args, **kwargs)

    monkeypatch.setattr("mpdl.orchestrator.run_dual_round", recording)
    assert main(["graph", "--out", str(tmp_path / "g.csv"),
                 "--synthetic-nodes", "50", "--gammas", "0.4", "--repeats",
                 "1", "--dual-epochs", "2", "--no-encryption",
                 "--exact-duality-grad"]) == 0
    assert seen
    assert all(kw.get("exact_duality_grad") is True for kw in seen)


def _graph_inputs(tmp_path, edge_text):
    feats = tmp_path / "nodes.csv"
    feats.write_text("id,f0,f1\nn1,0.1,0.2\nn2,0.3,0.4\nn3,0.5,0.6\n"
                     "n4,0.7,0.8\n")
    edges = tmp_path / "edges.txt"
    edges.write_text(edge_text)
    return ["graph", "--edges", str(edges), "--features", str(feats),
            "--id-column", "id", "--out", str(tmp_path / "g.csv"),
            "--gammas", "0.6", "--repeats", "1", "--dual-epochs", "1",
            "--no-encryption"]


@pytest.mark.parametrize("edge_text, message", [
    ("n1 n2\n\nn1 n9\n", "edges.txt:3: unknown node 'n9'"),
    ("n1 n2\nn2 n3 n4\n", "edges.txt:2: expected 'src dst'"),
], ids=["unknown-node", "three-fields"])
def test_graph_bad_edge_line_exits_2(tmp_path, capsys, edge_text, message):
    assert main(_graph_inputs(tmp_path, edge_text)) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "g.csv").exists()


@pytest.mark.parametrize("flag", ["--edges", "--features"])
def test_graph_one_input_flag_alone_exits_2(tmp_path, capsys, flag):
    argv = _graph_inputs(tmp_path, "n1 n2\n")
    drop = "--features" if flag == "--edges" else "--edges"
    k = argv.index(drop)
    del argv[k:k + 2]
    assert main(argv) == 2
    assert "--edges and --features" in capsys.readouterr().err
    assert not (tmp_path / "g.csv").exists()


@pytest.mark.parametrize("fraction", ["0", "1.5"])
def test_graph_holdout_fraction_outside_unit_interval_exits_2(tmp_path, capsys,
                                                               fraction):
    out = tmp_path / "g.csv"
    assert main(["graph", "--out", str(out), "--synthetic-nodes", "50",
                 "--gammas", "0.4", "--repeats", "1", "--dual-epochs", "1",
                 "--no-encryption", "--holdout-fraction", fraction]) == 2
    assert "holdout fraction must be in (0, 1)" in capsys.readouterr().err
    assert not out.exists()


# -- exit codes ----------------------------------------------------------------------

def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["mpdl", "--no-such-flag"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["mpdl", "privacy-sweep", "graph"])
def test_zero_repeats_exits_2(dataset_csv, tmp_path, capsys, command):
    out = tmp_path / "out.csv"
    argv = [command, "--out", str(out), "--repeats", "0", "--dual-epochs",
            "1", "--no-encryption"]
    if command == "graph":
        argv += ["--synthetic-nodes", "50", "--gammas", "0.4"]
    else:
        argv += ["--dataset", dataset_csv, "--id-column", "id"]
    assert main(argv) == 2
    assert "repeats must be at least 1" in capsys.readouterr().err
    assert not out.exists()


def test_misspelt_config_boolean_exits_2(dataset_csv, tmp_path, capsys):
    cfg = tmp_path / "typo.cfg"
    cfg.write_text("no_encryption = ture\n")
    out = tmp_path / "out.csv"
    assert main(["mpdl", "--dataset", dataset_csv, "--id-column", "id",
                 "--out", str(out), "--config", str(cfg)]) == 2
    assert "typo.cfg:1: " in capsys.readouterr().err
    assert not out.exists()


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    assert "9/9 checks passed" in capsys.readouterr().out


def test_missing_dataset_exits_4(tmp_path):
    code = main(["mpdl", "--dataset", str(tmp_path / "missing.csv"),
                 "--out", str(tmp_path / "out.csv")])
    assert code == 4


def test_bad_epsilon_exits_2(dataset_csv, tmp_path, capsys):
    code = main(["mpdl", "--dataset", dataset_csv, "--id-column", "id",
                 "--out", str(tmp_path / "out.csv"), "--epsilon", "0",
                 "--gammas", "0.3", "--repeats", "1"])
    assert code == 2
    assert "invalid configuration" in capsys.readouterr().err


def test_unknown_config_key_exits_2(dataset_csv, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("not_a_key = 1\n")
    code = main(["mpdl", "--dataset", dataset_csv, "--id-column", "id",
                 "--out", str(tmp_path / "out.csv"), "--config", str(cfg)])
    assert code == 2


def test_bad_key_bits_exits_2(dataset_csv, tmp_path):
    code = main(["mpdl", "--dataset", dataset_csv, "--id-column", "id",
                 "--out", str(tmp_path / "out.csv"), "--key-bits", "256",
                 "--gammas", "0.3", "--repeats", "1", "--dual-epochs", "1",
                 "--central-epochs", "2", "--max-iters", "1",
                 "--epsilon", "inf"])
    assert code == 2


def test_help_exits_0():
    proc = subprocess.run([sys.executable, "-m", "mpdl.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    for sub in ("mpdl", "privacy-sweep", "graph", "selftest"):
        assert sub in proc.stdout
