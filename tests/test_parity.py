"""Golden answers of the greedy selectors, compared exactly.

`golden_selection.json` holds, for every case below, the chosen edges, the
base/new/gain values, the flags and a sha256 of the round trace.  Floats are
compared with ==, so any change to the selectors' arithmetic, estimator
seeds or tie breaks shows up here.  Regenerate (only when an answer change
is intended and recorded) with:

    PYTHONPATH=src python tests/test_parity.py > tests/golden_selection.json
"""
import dataclasses
import hashlib
import json
import pathlib

import numpy as np
import pytest

from relgain.baselines import select_hill_climbing, select_individual_topk
from relgain.candidates import eliminate
from relgain.estimators import EstimatorConfig
from relgain.multi import MultiQuery, select_multi
from relgain.selection import improve_single_pair, select_be, select_ip

from helpers import random_graph

GOLDEN = pathlib.Path(__file__).with_name("golden_selection.json")


def _plain(obj):
    """Nested tuples of Python ints, floats and strings."""
    if isinstance(obj, (str, bool)) or obj is None:
        return obj
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    if dataclasses.is_dataclass(obj):
        obj = dataclasses.astuple(obj)
    return [_plain(x) for x in obj]


def _record(res):
    trace = json.dumps(_plain(res.trace)).encode()
    return {"method": res.method, "chosen": _plain(res.chosen),
            "base": float(res.base_reliability), "new": float(res.new_reliability),
            "gain": float(res.gain), "flags": list(res.flags),
            "trace_sha256": hashlib.sha256(trace).hexdigest()}


def _graph(directed: bool, seed: int):
    return random_graph(np.random.default_rng(seed), 24, 60 if directed else 45,
                        directed=directed, lo=0.1, hi=0.7)


def _cases():
    for directed in (True, False):
        kind = "directed" if directed else "undirected"
        for seed in (0, 1):
            g = _graph(directed, seed)
            config = EstimatorConfig(samples=200, seed=seed)
            for method in ("be", "ip"):
                for k in (2, 5):
                    yield (f"{method}-{kind}-g{seed}-k{k}",
                           lambda g=g, m=method, k=k, c=config: improve_single_pair(
                               g, 0, 23, k, method=m, r=6, l=12, zeta=0.5, config=c))
                # s == t: every round is a fill round on a certain pair
                yield (f"{method}-{kind}-g{seed}-same",
                       lambda g=g, m=method, c=config: improve_single_pair(
                           g, 5, 5, 2, method=m, r=6, l=3, config=c))
            cands = eliminate(g, 0, 23, r=6, config=config)
            for name, select in (("select_be", select_be), ("select_ip", select_ip)):
                yield (f"{name}-{kind}-g{seed}",
                       lambda g=g, f=select, cs=cands, c=config: f(g, cs, 0, 23, 3, c, l=12))
                # unpruned candidates and three paths: the budget ends in fill rounds
                yield (f"{name}-{kind}-g{seed}-fill",
                       lambda g=g, f=select, cs=cands, c=config: f(g, cs, 0, 23, 6, c, l=3))
            yield (f"topk-{kind}-g{seed}",
                   lambda g=g, cs=cands, c=config: select_individual_topk(g, cs, 0, 23, 2, c))
            yield (f"hc-{kind}-g{seed}",
                   lambda g=g, cs=cands, c=config: select_hill_climbing(g, cs, 0, 23, 2, c))
            queries = {"avg-2x2": MultiQuery((0, 1), (22, 23), "avg", k=4),
                       # source 1 is also a target: the pair (1, 1) is certain
                       "avg-same": MultiQuery((0, 1), (1, 23), "avg", k=4),
                       "avg-fill": MultiQuery((0, 1), (1, 23), "avg", k=6),
                       "min-2x2": MultiQuery((0, 1), (22, 23), "min", k=4, k1_ratio=0.5)}
            for name, q in queries.items():
                l = 2 if name == "avg-fill" else 12
                yield (f"{name}-{kind}-g{seed}",
                       lambda g=g, q=q, l=l, c=config: select_multi(g, q, r=6, l=l, config=c))


CASES = dict(_cases())


def _golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_selection_matches_golden(name):
    assert _record(CASES[name]()) == _golden()[name]


def test_golden_covers_every_case():
    assert sorted(_golden()) == sorted(CASES)


if __name__ == "__main__":
    print("{\n" + ",\n".join(f"{json.dumps(name)}: {json.dumps(_record(run()), sort_keys=True)}"
                             for name, run in sorted(CASES.items())) + "\n}")
