"""Golden outputs of the sampling estimators, compared exactly.

`golden_estimators.json` holds, for every case below, the value, variance
and sample count of scalar estimates, and a sha256 of every reach vector.
Floats are compared with ==, so any change to the worlds drawn, to the reach
counts or to the arithmetic on them shows up here.  The graphs are directed
and undirected, with up to a few thousand edges, and the sample sizes fall
on both sides of a 64-world word.  Regenerate (only when an answer change
is intended and recorded) with:

    PYTHONPATH=src python tests/test_estimator_parity.py > tests/golden_estimators.json
"""
import hashlib
import json
import pathlib

import numpy as np
import pytest

from relgain import estimators
from relgain.estimators import (reach_counts, reliability_all_from, reliability_all_to,
                                reliability_mc, reliability_rss)
from relgain.multi import influence_spread

from helpers import random_graph

GOLDEN = pathlib.Path(__file__).with_name("golden_estimators.json")
SAMPLES = (1, 7, 63, 64, 65, 300, 5000)
GRAPHS = {  # name: (nodes, edges, directed)
    "tiny-directed": (12, 30, True),
    "tiny-undirected": (12, 24, False),
    "er300-directed": (300, 1500, True),
    "er300-undirected": (300, 1200, False),
    "er800-directed": (800, 3000, True),
    "er800-undirected": (800, 2600, False),
}


def _graph(name):
    n, m, directed = GRAPHS[name]
    return random_graph(np.random.default_rng(sum(map(ord, name))), n, m,
                        directed=directed, lo=0.1, hi=0.9)


def _sha(vec) -> str:
    return hashlib.sha256(np.ascontiguousarray(vec).tobytes()).hexdigest()


def _scalar(est):
    return [float(est.value), float(est.variance), int(est.samples_used)]


def _outputs(g, z: int, seed: int) -> dict:
    s, t = 0, g.n - 1
    sources, targets = (0, 3, 7), tuple(range(g.n // 2, g.n))
    return {
        "mc": _scalar(reliability_mc(g, s, t, z, seed)),
        "rss": _scalar(reliability_rss(g, s, t, z, seed)),
        "all_from_mc": _sha(reliability_all_from(g, s, z, seed, method="mc")),
        "all_to_rss": _sha(reliability_all_to(g, t, z, seed, method="rss")),
        "reach_counts": _sha(reach_counts(g, sources, z, seed)),
        "influence_spread": float(influence_spread(g, sources, targets, z, seed)),
    }


def _cases():
    for name in GRAPHS:
        for z in SAMPLES:
            yield f"{name}-z{z}", name, z


def _capture() -> dict:
    out = {}
    for key, name, z in _cases():
        out[key] = _outputs(_graph(name), z, seed=len(key))
    return out


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("key,name,z", list(_cases()), ids=[c[0] for c in _cases()])
def test_matches_golden(golden, key, name, z):
    assert _outputs(_graph(name), z, seed=len(key)) == golden[key]


@pytest.mark.parametrize("name", ["er300-directed", "er300-undirected"])
def test_small_chunks_match_golden(golden, monkeypatch, name):
    # 98-world chunks: an MC leaf of Z=300 is drawn in four chunks and
    # spread in three flushes of 128 worlds, the last one partial
    g = _graph(name)
    monkeypatch.setattr(estimators, "_CHUNK_COINS", 98 * g.m)
    key = f"{name}-z300"
    assert _outputs(g, 300, seed=len(key)) == golden[key]


@pytest.mark.parametrize("name", ["tiny-undirected", "er300-directed"])
def test_three_world_chunks_match_golden(golden, monkeypatch, name):
    # 3-world draws and 64-world flushes: an MC or reach-count leaf of Z=300
    # spans 100 draws and five flushes, and draws straddle flush boundaries
    g = _graph(name)
    monkeypatch.setattr(estimators, "_CHUNK_COINS", 3 * g.m)
    key = f"{name}-z300"
    assert _outputs(g, 300, seed=len(key)) == golden[key]


if __name__ == "__main__":
    print(json.dumps(_capture(), indent=1, sort_keys=True))
