"""The plain-dict Kernighan–Lin against the networkx original it ports.

``partition.strategies`` bisects without a graph library.  On the whole
graph and on every subset of at least half of it, networkx visits nodes
in insertion order, and there the port must return exactly networkx's
bisection.  On smaller subsets networkx walks a ``set`` (its order
follows ``PYTHONHASHSEED``); the port keeps ``graph.objects`` order, so
its placements must not depend on the hash seed.
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.partition import CommGraph, kernighan_lin
from repro.partition.strategies import _kl_bisection


def random_graph(seed: int, n: int, messages: int) -> CommGraph:
    """A seeded communication graph; names are shuffled so that
    ``objects`` order is not name order."""
    rng = random.Random(seed)
    names = [f"obj-{i}" for i in range(n)]
    rng.shuffle(names)
    graph = CommGraph(objects=names)
    for _ in range(messages):
        a, b = rng.sample(names, 2)
        graph.add_message(a, b, rng.randint(1, 50))
    return graph


def as_networkx(nx, graph: CommGraph):
    out = nx.Graph()
    out.add_nodes_from(graph.objects)
    for (a, b), w in graph.weights.items():
        out.add_edge(a, b, weight=w)
    return out


@pytest.mark.parametrize("case", range(40))
def test_bisection_equals_networkx(case):
    nx = pytest.importorskip("networkx")
    rng = random.Random(case)
    n = rng.randint(2, 24)
    graph = random_graph(case, n, rng.randint(0, 3 * n))
    reference = as_networkx(nx, graph)
    adjacency = graph.adjacency()
    seed = rng.randint(0, 100)
    subset = rng.sample(graph.objects, rng.randint(max(2, (n + 1) // 2), n))
    for nodes in (graph.objects, subset):
        want = nx.algorithms.community.kernighan_lin_bisection(
            reference.subgraph(nodes), weight="weight", seed=seed
        )
        left, right = _kl_bisection(adjacency, nodes, seed)
        assert (set(left), set(right)) == want


GRAPH_CODE = """
import json
from repro.partition import kernighan_lin
from tests.partition.test_kl_parity import random_graph
print(json.dumps(sorted(kernighan_lin(random_graph(3, 13, 40), 4).items())))
"""


def test_four_way_placement_ignores_the_hash_seed():
    # 13 objects over 4 LPs bisects a 6-object subset: networkx's set walk
    placements = []
    for hash_seed in ("1", "2"):
        out = subprocess.run(
            [sys.executable, "-c", GRAPH_CODE],
            capture_output=True, text=True, check=True, cwd=Path(__file__).parents[2],
            env={**os.environ, "PYTHONHASHSEED": hash_seed},
        )
        placements.append(json.loads(out.stdout))
    assert placements[0] == placements[1]
    assert dict(placements[0]) == kernighan_lin(random_graph(3, 13, 40), 4)
