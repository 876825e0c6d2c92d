from collections import Counter

import numpy as np
import pytest

from lglift.graph import EdgeRec, Graph, build_line_graph
from lglift.simulation import sample_network


@pytest.fixture
def triangle_graph():
    return Graph(
        [(1, (0.0, 0.0)), (2, (1.0, 0.0)), (3, (0.5, 1.0))],
        [EdgeRec("e1", 1, 2), EdgeRec("e2", 2, 3), EdgeRec("e3", 1, 3)],
    )


@pytest.fixture
def star_graph():
    return Graph(
        [(0, (0.0, 0.0)), (1, (1.0, 0.0)), (2, (0.0, 1.0)), (3, (-1.0, 0.0))],
        [EdgeRec("a", 0, 1), EdgeRec("b", 0, 2), EdgeRec("c", 0, 3)],
    )


@pytest.fixture
def small_tree_lg():
    """Line graph of a 6-edge random tree, coordinates and lengths present."""
    return build_line_graph(sample_network(7, seed=42))


@pytest.fixture
def mst_lg():
    """Line graph of a 100-vertex MST network (m = 99)."""
    return build_line_graph(sample_network(100, seed=7))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


class CountingMapping(dict):
    """A signal by id that counts how often each id is read."""

    def __init__(self, *args):
        super().__init__(*args)
        self.reads = Counter()

    def __getitem__(self, k):
        self.reads[k] += 1
        return super().__getitem__(k)


@pytest.fixture
def counting_mapping():
    return CountingMapping
