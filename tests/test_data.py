"""Loading, normalization, gamma/k-fold partitioning, blinded alignment."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mpdl.data
from mpdl.data import (AlignmentCollisionError, GammaSplit, PartyDataset,
                       SplitSpec, _xor, blinded_intersection, kfold_split,
                       load_normalize, min_max_normalize,
                       partition_features, split_by_gamma)
from mpdl.transport import Hub


# -- normalization and loading -------------------------------------------------

def test_min_max_example():
    out = min_max_normalize(np.array([[2.0], [4.0], [6.0]]))
    assert np.array_equal(out[:, 0], [0.0, 0.5, 1.0])


def test_min_max_column_independence():
    x = np.array([[0.0, 10.0], [1.0, 30.0], [2.0, 20.0]])
    out = min_max_normalize(x)
    assert np.array_equal(out[:, 0], [0.0, 0.5, 1.0])
    assert np.array_equal(out[:, 1], [0.0, 1.0, 0.5])


def test_min_max_constant_column_warns_and_zeroes():
    with pytest.warns(RuntimeWarning):
        out = min_max_normalize(np.array([[5.0, 1.0], [5.0, 2.0]]))
    assert np.array_equal(out[:, 0], [0.0, 0.0])


def test_min_max_idempotent():
    rng = np.random.default_rng(0)
    x = rng.uniform(-10, 10, size=(20, 4))
    once = min_max_normalize(x)
    assert np.allclose(min_max_normalize(once), once)
    assert once.min() == 0.0 and once.max() == 1.0


def test_load_normalize_csv(tmp_path):
    path = tmp_path / "toy.csv"
    path.write_text("id,size,color,label\n"
                    "r1,2.0,red,yes\n"
                    "r2,4.0,blue,no\n"
                    "r3,6.0,red,yes\n")
    ds = load_normalize(path, id_column="id", label_column="label")
    assert ds.ids == ("r1", "r2", "r3")
    # size normalizes to [0, .5, 1]; color expands to blue,red one-hots
    assert ds.features.shape == (3, 3)
    assert np.array_equal(ds.features[:, 0], [0.0, 0.5, 1.0])
    assert np.array_equal(ds.features[:, 1], [0.0, 1.0, 0.0])  # blue
    assert np.array_equal(ds.features[:, 2], [1.0, 0.0, 1.0])  # red
    assert np.array_equal(ds.labels, [1, 0, 1])  # sorted: no=0, yes=1


def test_load_normalize_without_id_uses_row_index(tmp_path):
    path = tmp_path / "noid.csv"
    path.write_text("a,b\n1,2\n3,4\n")
    ds = load_normalize(path)
    assert ds.ids == (0, 1)
    assert ds.labels is None


def test_load_normalize_error_cases(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ValueError):
        load_normalize(empty)
    headeronly = tmp_path / "h.csv"
    headeronly.write_text("a,b\n")
    with pytest.raises(ValueError):
        load_normalize(headeronly)
    ragged = tmp_path / "r.csv"
    ragged.write_text("a,b\n1,2\n3\n")
    with pytest.raises(ValueError):
        load_normalize(ragged)
    with pytest.raises(ValueError):
        good = tmp_path / "g.csv"
        good.write_text("a,b\n1,2\n")
        load_normalize(good, id_column="missing")


def test_cancer_dataset_shape(cancer):
    assert len(cancer.ids) == 569
    assert cancer.features.shape == (569, 30)
    assert cancer.features.min() == 0.0
    assert cancer.features.max() == 1.0
    assert set(np.unique(cancer.labels)) == {0, 1}


def test_party_dataset_validation():
    with pytest.raises(ValueError):
        PartyDataset(("a",), np.zeros((2, 1)))
    with pytest.raises(ValueError):
        PartyDataset(("a", "a"), np.zeros((2, 1)))
    with pytest.raises(ValueError):
        PartyDataset(("a", "b"), np.zeros((2, 1)), labels=np.zeros(3))
    ds = PartyDataset(("x", "y"), np.array([[1.0], [2.0]]),
                      labels=np.array([0, 1]))
    assert np.array_equal(ds.rows(["y", "x"]), [[2.0], [1.0]])
    assert np.array_equal(ds.labels_for(["y"]), [1])
    with pytest.raises(ValueError):
        PartyDataset(("x",), np.array([[1.0]])).labels_for(["x"])


def test_party_dataset_index_built_once():
    rng = np.random.default_rng(3)
    ids = tuple(f"id{i}" for i in rng.permutation(50))
    feats = rng.normal(size=(50, 3))
    labels = rng.integers(0, 2, size=50)
    ds = PartyDataset(ids, feats, labels)
    index = ds.index
    assert index == {i: row for row, i in enumerate(ids)}
    picks = [ids[k] for k in (7, 0, 49, 7, 23)]
    rows = [ids.index(i) for i in picks]
    for _ in range(3):
        assert np.array_equal(ds.rows(picks), feats[rows])
        assert np.array_equal(ds.labels_for(picks), labels[rows])
        assert ds.index is index
    # a fresh dataset builds its own
    other = PartyDataset(ids[:2], feats[:2])
    assert other.index == {ids[0]: 0, ids[1]: 1}
    assert ds.index is index


# -- vertical feature partition -------------------------------------------------

def test_partition_features_reassembles():
    ds = PartyDataset(tuple(range(5)),
                      np.random.default_rng(1).uniform(size=(5, 7)),
                      labels=np.zeros(5, dtype=int))
    split = partition_features(ds, seed=3)
    assert sorted(split.cols_a + split.cols_b) == list(range(7))
    assert np.array_equal(split.party_a.features,
                          ds.features[:, list(split.cols_a)])
    assert np.array_equal(split.party_b.features,
                          ds.features[:, list(split.cols_b)])
    assert split.party_b.labels is not None
    assert split.party_a.labels is None


# -- horizontal gamma partition --------------------------------------------------

def test_gamma_split_documented_sizes():
    ids = list(range(1000))
    got = split_by_gamma(ids, SplitSpec(gamma=0.1, test_fraction=0.0, seed=0))
    assert (len(got.co_occurrence), len(got.b_only), len(got.a_only)) == \
        (100, 450, 450)
    got = split_by_gamma(ids, SplitSpec(gamma=0.8, test_fraction=0.0, seed=0))
    assert (len(got.co_occurrence), len(got.b_only), len(got.a_only)) == \
        (800, 100, 100)


def test_gamma_split_with_test_fraction():
    got = split_by_gamma(range(1000), SplitSpec(gamma=0.1, test_fraction=0.1,
                                                      seed=0))
    assert len(got.test) == 100
    assert (len(got.co_occurrence), len(got.b_only), len(got.a_only)) == \
        (90, 405, 405)


def test_gamma_split_partition_properties():
    """100 random (N, gamma) pairs: disjoint cover with exact floor sizes."""
    rng = np.random.default_rng(42)
    for trial in range(100):
        n_total = int(rng.integers(40, 2000))
        gamma = float(rng.uniform(0.02, 0.9))
        spec = SplitSpec(gamma=gamma, test_fraction=0.1, seed=trial)
        ids = [f"row{i}" for i in range(n_total)]
        try:
            got = split_by_gamma(ids, spec)
        except ValueError:
            # tiny n with extreme gamma can empty a block; must be real
            n = n_total - int(n_total * 0.1 + 1e-9)
            nc = int(n * gamma + 1e-9)
            nb = int(n * (0.5 - gamma / 2) + 1e-9)
            assert nc == 0 or nb == 0 or n - nc - nb <= 0
            continue
        parts = [got.co_occurrence, got.b_only, got.a_only, got.test]
        flat = [i for p in parts for i in p]
        assert sorted(flat) == sorted(ids)
        assert len(set(flat)) == n_total
        n = n_total - len(got.test)
        assert len(got.test) == int(n_total * 0.1 + 1e-9)
        assert len(got.co_occurrence) == int(n * gamma + 1e-9)
        assert len(got.b_only) == int(n * (0.5 - gamma / 2) + 1e-9)


def test_gamma_split_seed_determinism():
    ids = [f"s{i}" for i in range(200)]
    a = split_by_gamma(ids, SplitSpec(gamma=0.2, test_fraction=0.1, seed=9))
    b = split_by_gamma(ids, SplitSpec(gamma=0.2, test_fraction=0.1, seed=9))
    c = split_by_gamma(ids, SplitSpec(gamma=0.2, test_fraction=0.1,
                                      seed=10))
    assert a == b
    assert a != c


def test_gamma_split_rejects_duplicates_and_bad_spec():
    with pytest.raises(ValueError):
        split_by_gamma([1, 1, 2], SplitSpec(gamma=0.5, test_fraction=0.1,
                                            seed=0))
    with pytest.raises(ValueError):
        SplitSpec(gamma=0.0, test_fraction=0.1, seed=0)
    with pytest.raises(ValueError):
        SplitSpec(gamma=1.0, test_fraction=0.1, seed=0)
    with pytest.raises(ValueError):
        SplitSpec(gamma=0.5, test_fraction=1.0, seed=0)


def test_kfold_sizes():
    folds = kfold_split(range(10), 5)
    assert [len(f) for f in folds] == [2, 2, 2, 2, 2]
    folds = kfold_split(range(11), 5)
    assert [len(f) for f in folds] == [3, 2, 2, 2, 2]
    flat = [i for f in folds for i in f]
    assert sorted(flat) == list(range(11))


def test_kfold_validation_and_determinism():
    with pytest.raises(ValueError):
        kfold_split(range(3), 4)
    with pytest.raises(ValueError):
        kfold_split(range(3), 1)
    assert kfold_split(range(20), 4, seed=1) == kfold_split(range(20), 4,
                                                            seed=1)


# -- blinded alignment -----------------------------------------------------------

def test_blinded_intersection_matches_set_oracle(hub):
    rng = np.random.default_rng(31)
    for trial in range(100):
        universe = [f"id{i}" for i in range(int(rng.integers(2, 60)))]
        take_a = rng.random(len(universe)) < 0.6
        take_b = rng.random(len(universe)) < 0.6
        ids_a = [u for u, t in zip(universe, take_a) if t]
        ids_b = [u for u, t in zip(universe, take_b) if t]
        if not ids_a or not ids_b:
            continue
        got = blinded_intersection(ids_a, ids_b, rng, hub)
        assert got == tuple(sorted(set(ids_a) & set(ids_b), key=repr))


def test_blinded_intersection_disjoint_is_empty(hub):
    rng = np.random.default_rng(5)
    assert blinded_intersection(["a", "b"], ["c", "d"], rng, hub) == ()


def test_blinded_intersection_mixed_id_types(hub):
    rng = np.random.default_rng(6)
    got = blinded_intersection([1, 2, "x"], [2, "x", 9], rng, hub)
    assert got == tuple(sorted([2, "x"], key=repr))


def test_blinded_intersection_transcript_has_no_raw_ids():
    rng = np.random.default_rng(7)
    hub = Hub()
    ids_a = ["alice-7731", "bob-0042", "carol-9999"]
    ids_b = ["bob-0042", "dave-1234"]
    got = blinded_intersection(ids_a, ids_b, rng, hub=hub)
    assert got == ("bob-0042",)
    blob = b"".join(m.payload for m in hub.transcript.messages())
    for raw in ids_a + ids_b:
        assert raw.encode() not in blob
        assert repr(raw).encode() not in blob
    hub.close()


def test_blinded_intersection_survives_collisions(hub, monkeypatch):
    # 1-byte digests collide constantly; retries must still converge or
    # raise the typed error rather than return a wrong answer.
    monkeypatch.setattr(mpdl.data, "DIGEST_BYTES", 1)
    monkeypatch.setattr(mpdl.data, "ALIGN_ATTEMPTS", 50)
    rng = np.random.default_rng(8)
    ids_a = [f"a{i}" for i in range(10)]
    ids_b = [f"a{i}" for i in range(5, 15)]
    expected = tuple(sorted(set(ids_a) & set(ids_b), key=repr))
    hits = 0
    for _ in range(20):
        try:
            got = blinded_intersection(ids_a, ids_b, rng, hub)
        except AlignmentCollisionError:
            continue
        assert got == expected
        hits += 1
    assert hits > 0


def test_blinded_intersection_rejects_duplicate_ids(hub):
    rng = np.random.default_rng(9)
    with pytest.raises(ValueError):
        blinded_intersection(["a", "a"], ["b"], rng, hub)


def test_xor_matches_bytewise_xor():
    rng = np.random.default_rng(10)
    for nbytes in (1, 2, 16, 32):
        token, mask = rng.bytes(nbytes), rng.bytes(nbytes)
        assert _xor(token, mask) == bytes(a ^ b for a, b in zip(token, mask))
    assert _xor(b"\x00\x01", b"\x00\x00") == b"\x00\x01"


@settings(max_examples=40, deadline=None)
@given(st.sets(st.integers(0, 200)), st.sets(st.integers(0, 200)),
       st.integers(0, 2 ** 31 - 1))
def test_blinded_intersection_property(set_a, set_b, seed):
    if not set_a or not set_b:
        return
    rng = np.random.default_rng(seed)
    hub = Hub()
    got = blinded_intersection(sorted(set_a), sorted(set_b), rng, hub)
    hub.close()
    assert got == tuple(sorted(set_a & set_b, key=repr))
