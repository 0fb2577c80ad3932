import csv

import pytest

from mpdl.data import load_normalize
from mpdl.transport import Hub


@pytest.fixture(scope="session")
def cancer_csv(tmp_path_factory):
    """Breast-cancer CSV fixture: id column, 30 features, binary label."""
    sklearn_datasets = pytest.importorskip("sklearn.datasets")
    data = sklearn_datasets.load_breast_cancer()
    path = tmp_path_factory.mktemp("data") / "cancer.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        names = [n.replace(" ", "_") for n in data.feature_names]
        writer.writerow(["id"] + names + ["label"])
        for i, (row, y) in enumerate(zip(data.data, data.target)):
            writer.writerow([i] + [repr(float(v)) for v in row] + [int(y)])
    return str(path)


@pytest.fixture(scope="session")
def cancer(cancer_csv):
    return load_normalize(cancer_csv, id_column="id", label_column="label")


@pytest.fixture
def hub():
    """A fresh three-actor local hub, closed after the test."""
    h = Hub()
    yield h
    h.close()
