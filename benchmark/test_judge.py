"""The judge against closed-form series and parallel reliabilities.

Run with ``python3 -m pytest benchmark/test_judge.py`` from the repository
root.  Every bound is five standard errors of the judge's own estimate.
"""
import math
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from judge import Judge  # noqa: E402

WORLDS = 40_000


def _judge(n, edges, seed=3):
    src, dst, prob = zip(*edges)
    return Judge(n, src, dst, prob, WORLDS, seed)


def _close(got, want, se):
    assert abs(got - want) <= 5 * se + 1e-12, (got, want, se)


def test_series_path_and_added_shortcut():
    p1, p2, z = 0.7, 0.4, 0.5
    judge = _judge(3, [(0, 1, p1), (1, 2, p2)])
    lab = judge.labels([0, 1, 2])
    v = judge.verdict(lab, {0: 0, 1: 1, 2: 2}, [(0, 2)], [(0, 2, z)], key=0)
    base = p1 * p2
    _close(v.base, base, math.sqrt(base * (1 - base) / WORLDS))
    gain = z * (1 - base)
    _close(v.gain, gain, v.gain_se)
    assert abs(v.new - v.base - v.gain) < 1e-12


def test_parallel_paths_closed_form():
    # two disjoint two-hop routes 0-1-3 and 0-2-3
    p = (0.6, 0.5, 0.3, 0.9)
    judge = _judge(4, [(0, 1, p[0]), (1, 3, p[1]), (0, 2, p[2]), (2, 3, p[3])])
    lab = judge.labels([0, 3])
    v = judge.verdict(lab, {0: 0, 3: 1}, [(0, 3)], [], key=0)
    want = 1 - (1 - p[0] * p[1]) * (1 - p[2] * p[3])
    _close(v.base, want, math.sqrt(want * (1 - want) / WORLDS))
    assert v.gain == 0.0 and v.new == v.base


def test_added_edges_chain_through_two_unions():
    # s=0 and t=3 sit in separate certain components {0,1} and {2,3}; the
    # two added edges 1-4 and 4-2 must both appear, so the gain is z1 * z2
    judge = _judge(5, [(0, 1, 1.0), (2, 3, 1.0)])
    nodes = [0, 1, 2, 3, 4]
    lab = judge.labels(nodes)
    col = {u: i for i, u in enumerate(nodes)}
    z1, z2 = 0.8, 0.3
    v = judge.verdict(lab, col, [(0, 3)], [(1, 4, z1), (4, 2, z2)], key=7)
    assert v.base == 0.0
    _close(v.gain, z1 * z2, math.sqrt(z1 * z2 * (1 - z1 * z2) / WORLDS))


def test_pair_mean_and_common_worlds():
    # pairs (0, 2) and (0, 1) on the series path: mean of p1*p2 and p1
    p1, p2 = 0.5, 0.8
    judge = _judge(3, [(0, 1, p1), (1, 2, p2)], seed=11)
    lab = judge.labels([0, 1, 2])
    v = judge.verdict(lab, {0: 0, 1: 1, 2: 2}, [(0, 2), (0, 1)], [(1, 2, 0.5)], key=1)
    _close(v.base, (p1 * p2 + p1) / 2, 0.5 / math.sqrt(WORLDS))
    # the added 1-2 edge is parallel to an existing one: gain p1 (1-p2) z / 2
    _close(v.gain, p1 * (1 - p2) * 0.5 / 2, v.gain_se)
    again = judge.verdict(judge.labels([0, 1, 2]), {0: 0, 1: 1, 2: 2},
                          [(0, 2), (0, 1)], [(1, 2, 0.5)], key=1)
    assert again == v
