import numpy as np
import pytest

from multidendro import parse_matrix

# four individuals, two tied shortest distances that chain x1-x2-x3
TOY_TEXT = """\
0 2 4 7
2 0 2 5
4 2 0 3
7 5 3 0
"""


@pytest.fixture
def toy_text():
    return TOY_TEXT


@pytest.fixture
def toy():
    return parse_matrix(TOY_TEXT, "square")


@pytest.fixture
def toy_file(tmp_path):
    path = tmp_path / "toy.txt"
    path.write_text(TOY_TEXT)
    return str(path)


@pytest.fixture(scope="session")
def tied_cloud():
    """Whole-number distances rint(d) + 1 between 900 uniform points, as a
    square array with a zero diagonal: the first iteration merges one
    group of 896 of the 900 clusters."""
    pts = np.random.default_rng(5).uniform(0.0, 10.0, size=(900, 2))
    d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=-1))
    d = np.rint(d) + 1.0
    np.fill_diagonal(d, 0.0)
    return d
