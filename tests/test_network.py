import itertools
import json
import math
import sys
from dataclasses import dataclass

import numpy as np
import pytest

from vectorgain.gains import (
    Compose, GainFn, GridSpec, Linear, LogExpSq, Max, Power, Scale, Zero,
    check_contraction, compose_chain,
)
import vectorgain.network as network
from vectorgain.network import (
    GainMatrix, SmallGainReport, _cycle_witness, as_plus_vec, check_small_gain,
    gamma_apply, gas_witness_search, matrix_from_json, matrix_to_json,
    q_operator, support_circuits,
)
from vectorgain.recipes import random_linear_matrix
from conftest import random_verified_matrix
from oracles import gamma_apply_oracle, max_cycle_products, q_oracle


def test_as_plus_vec_validation():
    assert np.array_equal(as_plus_vec([1.0, 0.0]), np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        as_plus_vec([[1.0]])
    with pytest.raises(ValueError):
        as_plus_vec([1.0, -0.1])
    with pytest.raises(ValueError):
        as_plus_vec([1.0, float("inf")])
    with pytest.raises(ValueError):
        as_plus_vec([1.0], n=2)


def test_matrix_construction_and_entries():
    G = GainMatrix.zeros(3)
    assert all(isinstance(G.gain(i, j), Zero) for i in range(3) for j in range(3))
    G = G.with_entry(0, 2, Linear(0.5))
    assert G.gain(0, 2) == Linear(0.5)
    with pytest.raises(ValueError):
        GainMatrix(0, ())
    with pytest.raises(ValueError):
        GainMatrix.from_entries([[Linear(1.0)], [Linear(1.0)]])


def test_gamma_apply_matches_oracle(rng):
    for _ in range(50):
        n = int(rng.integers(1, 5))
        G = random_linear_matrix(rng, n)
        x = rng.uniform(0.0, 10.0, size=n)
        assert np.array_equal(gamma_apply(G, x), gamma_apply_oracle(G, x))


def test_q_operator_matches_oracle(rng):
    for _ in range(50):
        n = int(rng.integers(1, 5))
        G = random_linear_matrix(rng, n)
        x = rng.uniform(0.0, 10.0, size=n)
        assert np.array_equal(q_operator(G, x), q_oracle(G, x))


def _complete_digraph(n):
    return GainMatrix.from_entries([[Linear(0.5)] * n for _ in range(n)])


def test_enumerate_cycles_counts():
    # the complete digraph: n self-loops + sum_r C(n,r)*(r-1)!
    expected = {1: 1, 2: 3, 3: 8, 4: 24}
    for n, count in expected.items():
        cycles = [c for c, _, _ in support_circuits(_complete_digraph(n))]
        assert len(cycles) == count
        assert len(set(cycles)) == count
        for cyc in cycles:
            assert len(set(cyc)) == len(cyc)
            assert cyc[0] == min(cyc)  # canonical rotation


def _brute_force_cycles(G):
    """Reference: every node sequence, kept in its canonical rotation when
    every coupling along it is non-Zero, in the order check_small_gain
    reports (length, node set, rotation)."""
    n = G.n
    cycles = []
    for r in range(1, n + 1):
        for nodes in itertools.permutations(range(n), r):
            if nodes[0] != min(nodes):
                continue
            if all(not isinstance(G.gain(nodes[m], nodes[(m + 1) % r]), Zero)
                   for m in range(r)):
                cycles.append(nodes)
    return sorted(cycles, key=lambda c: (len(c), sorted(c), c))


def _random_sparse_gain(rng):
    kind = int(rng.integers(0, 8))
    if kind == 0:
        return Zero()
    if kind == 1:
        return Linear(0.0)
    if kind == 2:
        return Linear(float(rng.uniform(0.0, 1.3)))
    if kind == 3:
        return LogExpSq(0.5, float(rng.uniform(0.3, 1.2)))
    if kind == 4:
        return Scale(float(rng.uniform(0.5, 1.0)),
                     LogExpSq(0.5, float(rng.uniform(0.3, 0.9))))
    if kind == 5:
        return Power(float(rng.uniform(0.3, 1.5)), float(rng.choice([0.5, 2.0])))
    if kind == 6:
        return Max(Linear(float(rng.uniform(0.0, 0.9))),
                   LogExpSq(float(rng.uniform(0.2, 0.45)),
                            float(rng.uniform(0.3, 0.9))))
    return LogExpSq(float(rng.uniform(0.2, 0.6)), float(rng.uniform(0.3, 1.2)))


def _random_sparse_matrix(rng, n):
    """Mixed sparse gains; about one row in four is all Zero."""
    return GainMatrix.from_entries(
        [[Zero()] * n if rng.random() < 0.25
         else [_random_sparse_gain(rng) for _ in range(n)] for _ in range(n)])


def test_gamma_apply_matches_full_row_formula(rng):
    """Support-only evaluation gives the bytes of max over every entry of
    the row, signed zeros included."""
    for _ in range(300):
        n = int(rng.integers(1, 7))
        G = _random_sparse_matrix(rng, n)
        x = rng.uniform(0.0, 10.0, size=n) * (rng.random(n) < 0.7)
        x[rng.random(n) < 0.2] = -0.0
        v = as_plus_vec(x)
        expect = np.array([max(G.entries[i][j](v[j]) for j in range(n))
                           for i in range(n)])
        assert gamma_apply(G, x).tobytes() == expect.tobytes()


def test_q_operator_matches_gamma_apply_loop_by_bytes(rng):
    """q_operator's unchecked steps give the bytes of a loop of gamma_apply
    and np.maximum, signed zeros included (Python's max keeps the first of
    0.0 and -0.0, np.maximum does not)."""
    for _ in range(300):
        n = int(rng.integers(1, 7))
        G = _random_sparse_matrix(rng, n)
        x = rng.uniform(0.0, 10.0, size=n) * (rng.random(n) < 0.7)
        x[rng.random(n) < 0.2] = -0.0
        acc = cur = as_plus_vec(x)
        for _ in range(n - 1):
            cur = gamma_apply(G, cur)
            acc = np.maximum(acc, cur)
        assert q_operator(G, x).tobytes() == acc.tobytes()


def _witness_per_row(G, samples, radius, seed):
    """The sampler as one draw and one gamma_apply per row."""
    rng = np.random.default_rng(seed)
    lo, hi = np.log(1e-6 * radius), np.log(radius)
    for _ in range(samples):
        x = np.exp(rng.uniform(lo, hi, size=G.n))
        if np.all(gamma_apply(G, x) >= x):
            return x
    return None


def test_witness_sampler_matches_per_row_loop(rng, monkeypatch):
    # blocks of a few rows, so that block boundaries fall inside the run
    monkeypatch.setattr(network, "_WITNESS_BLOCK", 10)
    no_cycles = SmallGainReport(holds=True, cycles=())
    found = 0
    for k in range(60):
        G = _random_sparse_matrix(rng, int(rng.integers(1, 5)))
        expect = _witness_per_row(G, 300, 1e2, k)
        got = gas_witness_search(G, samples=300, radius=1e2, seed=k,
                                 report=no_cycles)
        if expect is None:
            assert got is None
        else:
            found += 1
            assert got.tobytes() == expect.tobytes()
    assert found >= 5


@dataclass(frozen=True)
class _LowOnArrays(GainFn):
    """The identity on floats, one ulp low on arrays."""

    def _eval(self, s):
        return np.nextafter(s, 0.0) if isinstance(s, np.ndarray) else s


def test_witness_sampler_keeps_last_bit_rows():
    """A row that passes gamma_apply only by the last bit is not dropped
    by the array filter."""
    G = GainMatrix.from_entries([[_LowOnArrays()]])
    no_cycles = SmallGainReport(holds=True, cycles=())
    expect = _witness_per_row(G, 5, 1e2, 0)
    assert expect is not None
    got = gas_witness_search(G, samples=5, radius=1e2, seed=0,
                             report=no_cycles)
    assert got.tobytes() == expect.tobytes()


def test_support_circuits_match_brute_force(rng):
    grid = GridSpec(points=64)
    for _ in range(300):
        n = int(rng.integers(1, 6))
        density = rng.uniform(0.2, 0.8)
        G = GainMatrix.from_entries(
            [[_random_sparse_gain(rng) if rng.uniform() < density else Zero()
              for _ in range(n)] for _ in range(n)])
        expected = _brute_force_cycles(G)
        report = check_small_gain(G, grid)
        assert [cv.cycle for cv in report.cycles] == expected
        failing = None
        for cv in report.cycles:
            r = len(cv.cycle)
            chain = compose_chain([G.gain(cv.cycle[m], cv.cycle[(m + 1) % r])
                                   for m in range(r)])
            assert cv.verdict == check_contraction(chain, grid)
            assert not cv.skipped
            if failing is None and not cv.holds:
                failing = cv
        assert report.holds == (failing is None)
        if failing is not None:
            assert report.failing_cycle == failing.cycle
            assert report.witness == failing.verdict.witness


def test_ring_reports_one_cycle():
    n = 30
    G = GainMatrix.zeros(n)
    for i in range(n):
        G = G.with_entry(i, (i + 1) % n, LogExpSq(0.3, 0.8))
    report = check_small_gain(G)
    assert [cv.cycle for cv in report.cycles] == [tuple(range(n))]
    assert report.holds


def test_ring_longer_than_recursion_limit():
    n = sys.getrecursionlimit() + 100
    rows = [[Zero()] * n for _ in range(n)]
    for i in range(n):
        rows[i][(i + 1) % n] = Linear(0.999)
    report = check_small_gain(GainMatrix.from_entries(rows))
    assert len(report.cycles) == 1 and report.cycles[0].cycle == tuple(range(n))
    assert report.holds and report.cycles[0].verdict.status == "exact-true"


def test_cycle_witness_on_ring_longer_than_recursion_limit():
    n = sys.getrecursionlimit() + 100
    rows = [[Zero()] * n for _ in range(n)]
    for i in range(n):
        rows[i][(i + 1) % n] = Linear(1.001)
    G = GainMatrix.from_entries(rows)
    report = check_small_gain(G)
    assert not report.holds
    x = gas_witness_search(G, samples=1, report=report)
    assert x is not None and np.all(x > 0)
    assert np.all(gamma_apply(G, x) >= x)


def test_cycle_witness_matches_composed_chains():
    # the backward walk gives x_{c_j} = (gamma_{c_j c_j+1} o ... o
    # gamma_{c_r-1 c_0})(s), the value of the composed chain, bit for bit
    cycle = (0, 3, 1, 4, 2)
    fns = [LogExpSq(0.6, 0.9), Power(1.3, 1.1), Linear(1.7),
           Compose(Linear(1.2), LogExpSq(0.55, 0.7)), Power(0.9, 0.95)]
    G = GainMatrix.zeros(5)
    for m, fn in enumerate(fns):
        G = G.with_entry(cycle[m], cycle[(m + 1) % 5], fn)
    s = 3.7
    x = _cycle_witness(G, cycle, s)
    assert x is not None
    expected = np.zeros(5)
    expected[cycle[0]] = s
    for j in range(1, 5):
        expected[cycle[j]] = compose_chain(fns[j:])(s)
    assert np.array_equal(x, expected)


def test_one_rotation_per_cycle_is_enough(rng):
    """Brute-force check of the design decision behind support_circuits:
    the contraction verdict of a cycle composition is rotation-invariant,
    so checking one rotation per cycle gives the same overall verdict as
    checking all of them."""
    for _ in range(200):
        n = int(rng.integers(2, 5))
        G = random_linear_matrix(rng, n)
        holds = check_small_gain(G).holds
        # exhaustive: every rotation of every simple cycle
        all_ok = True
        for r in range(1, n + 1):
            for nodes in itertools.permutations(range(n), r):
                gains = [G.gain(nodes[m], nodes[(m + 1) % r]) for m in range(r)]
                if any(isinstance(g, Zero) for g in gains):
                    continue
                if not check_small_gain(
                        _single_cycle_matrix(n, nodes, gains)).holds:
                    all_ok = False
        assert holds == all_ok


def _single_cycle_matrix(n, nodes, gains):
    G = GainMatrix.zeros(n)
    r = len(nodes)
    for m in range(r):
        G = G.with_entry(nodes[m], nodes[(m + 1) % r], gains[m])
    return G


def test_small_gain_verdict_matches_cycle_products(rng):
    for _ in range(100):
        n = int(rng.integers(2, 5))
        G = random_linear_matrix(rng, n)
        holds = check_small_gain(G).holds
        assert holds == all(p < 1.0 for p in max_cycle_products(G))


def test_small_gain_exact_on_logexpsq_cycle():
    # single cycle of LogExpSq gains: contraction iff parameter product < 1
    for th, mu, expect in [(0.9, 1.02, True), (0.9, 1.06, False)]:
        G = GainMatrix.zeros(3)
        G = G.with_entry(0, 2, LogExpSq(0.5, th))
        G = G.with_entry(1, 0, LogExpSq(0.5, mu))
        G = G.with_entry(2, 1, LogExpSq(0.5, mu))
        report = check_small_gain(G)
        assert report.holds == (mu * mu * th < 1.0) == expect


def test_report_identifies_failing_cycle():
    G = GainMatrix.zeros(2)
    G = G.with_entry(0, 1, Linear(1.0))
    G = G.with_entry(1, 0, Linear(1.0))
    report = check_small_gain(G)
    assert not report.holds
    assert report.failing_cycle == (0, 1)
    assert report.witness is not None
    table = report.table()
    assert "REFUTED" in table
    json.dumps(report.to_json())


def test_gas_witness_on_refuted_instances(rng):
    for _ in range(20):
        n = int(rng.integers(2, 5))
        G = random_linear_matrix(rng, n, coeff_max=2.0)
        if check_small_gain(G).holds:
            continue
        x = gas_witness_search(G, samples=1000)
        assert x is not None
        assert np.any(x > 0)
        assert np.all(gamma_apply(G, x) >= x)


def test_gas_witness_none_on_verified_instances(rng):
    for _ in range(10):
        G = random_verified_matrix(rng, int(rng.integers(2, 4)))
        assert gas_witness_search(G, samples=2000) is None


def test_cycle_witness_power_gain():
    # Power with p > 1 fails near infinity; the witness must satisfy
    # Gamma(x) >= x at the reported point
    G = GainMatrix.zeros(2)
    G = G.with_entry(0, 1, Power(0.5, 2.0))
    G = G.with_entry(1, 0, Linear(0.9))
    report = check_small_gain(G)
    assert not report.holds
    for passed in (None, report):
        x = gas_witness_search(G, samples=100, report=passed)
        assert x is not None and np.all(gamma_apply(G, x) >= x)


def test_matrix_json_round_trip(rng):
    G = GainMatrix.zeros(3)
    G = G.with_entry(0, 2, LogExpSq(0.5, 0.9))
    G = G.with_entry(1, 0, Compose(Linear(0.5), Power(1.0, 2.0)))
    d = matrix_to_json(G)
    json.dumps(d)
    G2 = matrix_from_json(d)
    assert G2 == G
    assert len(d["gains"]) == 2  # zero entries omitted
    # 1-based indices on the wire
    assert {(e["i"], e["j"]) for e in d["gains"]} == {(1, 3), (2, 1)}


def test_matrix_json_rejects_bad_input():
    with pytest.raises(ValueError):
        matrix_from_json({"gains": []})
    with pytest.raises(ValueError):
        matrix_from_json({"n": 2, "gains": [
            {"i": 3, "j": 1, "fn": {"kind": "zero"}}]})
