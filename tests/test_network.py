import itertools
import json
import math
import re
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
        cycles = list(support_circuits(_complete_digraph(n)))
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
        expect = np.array([max(G.gain(i, j)(v[j]) for j in range(n))
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


def _fold_test_gain(rng):
    """Every kind the fold meets, nonzero but now and then; Linear(1e-200)
    twice on a path has a product below the normal floats, so the fold
    keeps a Compose and the grid decides."""
    kind = int(rng.integers(0, 8))
    if kind == 0:
        return Zero()
    if kind == 1:
        return Linear(1e-200)
    if kind == 2:
        return Linear(float(rng.uniform(0.2, 1.2)))
    if kind == 3:
        return Power(float(rng.uniform(0.5, 1.5)),
                     float(rng.choice([0.5, 1.0, 2.0])))
    if kind == 4:
        return Scale(float(rng.uniform(0.5, 1.2)),
                     LogExpSq(0.5, float(rng.uniform(0.3, 1.1))))
    if kind == 5:
        return Max(Linear(float(rng.uniform(0.0, 0.9))),
                   LogExpSq(float(rng.uniform(0.2, 0.45)),
                            float(rng.uniform(0.3, 0.9))))
    return LogExpSq(0.5, float(rng.uniform(0.3, 1.1)))


def _chain(G, cycle):
    r = len(cycle)
    return [G.gain(cycle[m], cycle[(m + 1) % r]) for m in range(r)]


def test_prefix_fold_matches_check_contraction_per_circuit(rng, monkeypatch):
    """Dense matrices with self-loops, whose consecutive circuits share long
    prefixes: each verdict is check_contraction's on the circuit's chain,
    and the report is the one that deciding each circuit alone gives."""
    def each_alone(G, circuits, grid):
        for cycle in circuits:
            yield network.CycleVerdict(
                cycle, check_contraction(_chain(G, cycle), grid))

    grid = GridSpec(points=64)
    kept_compose = 0
    for _ in range(30):
        n = int(rng.integers(3, 7))
        G = GainMatrix.from_entries([[_fold_test_gain(rng) for _ in range(n)]
                                     for _ in range(n)])
        report = check_small_gain(G, grid)
        for cv in report.cycles:
            chain = _chain(G, cv.cycle)
            assert cv.verdict == check_contraction(chain, grid)
            kept_compose += (not cv.verdict.exact
                             and all(isinstance(g, Linear) for g in chain))
        with monkeypatch.context() as m:
            m.setattr(network, "_circuit_verdicts", each_alone)
            alone = check_small_gain(G, grid)
        assert report == alone
        assert json.dumps(report.to_json()) == json.dumps(alone.to_json())
    assert kept_compose > 0


def test_prefix_fold_work_on_complete_digraph(monkeypatch):
    """Each edge is normalized once, and each circuit composes at most two
    normal forms: one for the edge it adds to the shared prefix, one for
    its closing edge."""
    calls = {"collapse": 0, "compose": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(network, "_collapse",
                        counted("collapse", network._collapse))
    monkeypatch.setattr(network, "_collapse_compose",
                        counted("compose", network._collapse_compose))
    report = check_small_gain(_complete_digraph(7))
    assert len(report.cycles) == 2372 and report.holds
    assert calls["collapse"] == 49
    assert calls["compose"] <= 2 * 2372


def test_only_rows_on_circuits_are_normalized(monkeypatch):
    """A large acyclic matrix normalizes no edge; a 2-cycle at the head of
    a long chain normalizes only the rows of its two nodes."""
    n = 20_000
    chain = tuple(((i + 1, Linear(0.5)),) for i in range(n - 1)) + ((),)

    def no_collapse(g):
        raise AssertionError("an edge was normalized")
    with monkeypatch.context() as m:
        m.setattr(network, "_collapse", no_collapse)
        report = check_small_gain(GainMatrix(n, chain))
        assert report.holds and report.cycles == ()
        assert check_small_gain(GainMatrix.zeros(n)).holds

    seen = []

    def counted(g):
        seen.append(g)
        return collapse(g)
    collapse = network._collapse
    monkeypatch.setattr(network, "_collapse", counted)
    rows = ((((1, Linear(0.4)),), ((0, Linear(0.9)), (2, Linear(3.0))))
            + chain[2:])
    report = check_small_gain(GainMatrix(n, rows))
    assert [cv.cycle for cv in report.cycles] == [(0, 1)] and report.holds
    assert seen == [Linear(0.4), Linear(0.9), Linear(3.0)]


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
    # a missing field is named, and a value of the wrong JSON type is
    # described by its type
    entry = {"i": 1, "j": 1, "fn": {"kind": "zero"}}
    for gains, message in [
            ([{k: v for k, v in entry.items() if k != "i"}],
             "gain entry requires a field 'i'"),
            ([{k: v for k, v in entry.items() if k != "j"}],
             "gain entry requires a field 'j'"),
            ([{k: v for k, v in entry.items() if k != "fn"}],
             "gain entry requires a field 'fn'"),
            ("x", "gain matrix field 'gains' must be an array, got 'x'"),
            ([5], "gain entry must be an object, got 5"),
            ([[entry]], "gain entry must be an object, got a JSON array")]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            matrix_from_json({"n": 1, "gains": gains})


def _random_multiplicative_matrix(rng, n):
    """Strongly connected: a ring through a random node order plus random
    edges and self-loops, all Linear or all LogExpSq(0.5, .), now and then
    a Linear(0) edge.  Returns the matrix and the coefficient (k or th, 0
    for Linear(0)) of each edge."""
    make = Linear if rng.random() < 0.5 else (lambda th: LogExpSq(0.5, th))
    order = [int(v) for v in rng.permutation(n)]
    edges = {(order[m], order[(m + 1) % n]) for m in range(n)}
    edges |= {(i, j) for i in range(n) for j in range(n) if rng.random() < 0.4}
    rows = [[Zero()] * n for _ in range(n)]
    coef = {}
    for i, j in edges:
        coef[i, j] = 0.0 if rng.random() < 0.1 else float(np.exp(rng.uniform(-1, 1)))
        rows[i][j] = Linear(0.0) if coef[i, j] == 0.0 else make(coef[i, j])
    return GainMatrix.from_entries(rows), coef


def test_max_cycle_mean_matches_brute_force(rng):
    for _ in range(300):
        n = int(rng.integers(1, 7))
        G, coef = _random_multiplicative_matrix(rng, n)
        weights = network._log_weights(G, set(range(n)))
        assert weights is not None
        lam, cycle = network._max_cycle_mean(weights)
        # the mean of the log product of every simple cycle, by brute force
        means = {}
        for nodes in _brute_force_cycles(G):
            r = len(nodes)
            p = math.prod(coef[nodes[m], nodes[(m + 1) % r]] for m in range(r))
            means[nodes] = math.log(p) / r if p > 0 else -math.inf
        best = max(means.values())
        assert len(set(cycle)) == len(cycle) and cycle in means
        if best == -math.inf:
            assert lam == -math.inf
        else:
            assert abs(lam - best) <= 1e-12
            assert abs(means[cycle] - best) <= 1e-12


class _Allocated(Exception):
    pass


def test_max_cycle_mean_caps_its_tables(monkeypatch):
    # two (c + 1) x c tables of 8-byte floats pass 2**30 bytes from c = 8192:
    # such a component is refused before either table is allocated, and
    # c = 8191 still reaches the allocation
    def zeros(*args, **kwargs):
        raise _Allocated(args)

    def ring(c):
        return {(v, (v + 1) % c): -0.1 for v in range(c)}

    monkeypatch.setattr(np, "zeros", zeros)
    with pytest.raises(_Allocated):
        network._max_cycle_mean(ring(8191))
    for c in (8192, 100_000):
        with pytest.raises(ValueError, match=rf"^a strongly connected "
                           rf"component of c = {c} nodes is too large"):
            network._max_cycle_mean(ring(c))


def _dense(n, coeffs, make=Linear):
    return GainMatrix.from_entries(
        [[make(float(coeffs[i, j])) for j in range(n)] for i in range(n)])


@pytest.mark.parametrize("make", [Linear, lambda th: LogExpSq(0.5, th)],
                         ids=["linear", "logexpsq"])
def test_over_cap_decided_by_max_cycle_mean(rng, monkeypatch, make):
    n = 8
    cycles = _brute_force_cycles(_complete_digraph(n))
    assert len(cycles) == 16_072 > network._LIST_CAP
    for rho in (0.9, 1.1):
        A = rng.uniform(0.1, 1.0, size=(n, n))
        # scale the largest geometric cycle mean of the coefficients to rho
        A *= rho / max(math.prod(A[c[m], c[(m + 1) % len(c)]]
                                 for m in range(len(c))) ** (1 / len(c))
                       for c in cycles)
        G = _dense(n, A, make)
        report = check_small_gain(G)
        assert report.critical_only and len(report.cycles) == 1
        products = max_cycle_products(_dense(n, A))
        assert report.holds == all(p < 1.0 for p in products) == (rho < 1)
        with monkeypatch.context() as m:
            m.setattr(network, "_LIST_CAP", 10 ** 6)
            full = check_small_gain(G)
        assert not full.critical_only and len(full.cycles) == 16_072
        assert report.holds == full.holds
        assert report.cycles[0] in full.cycles
        if not report.holds:
            assert report.failing_cycle == report.cycles[0].cycle
            x = gas_witness_search(G, samples=1, report=report)
            assert x is not None and np.any(x > 0)
            assert np.all(gamma_apply(G, x) >= x)


def test_over_cap_tie_decided_by_critical_cycle():
    # the largest cycle mean is ln k for a constant k, and for A it is the
    # 2-cycle's (ln k + ln(1/k))/2 < 0 while its float product is 1.0:
    # each lies in the tie band, where the exact verdict decides
    k = 1.1004
    assert k * (1 / k) == 1.0 and math.log(k) + math.log(1 / k) < 0
    A = np.full((8, 8), 0.5)
    A[0, 1], A[1, 0] = k, 1 / k
    for coeffs, status in [(np.full((8, 8), 1.0), "exact-false"),
                           (np.full((8, 8), 1.0 - 1e-15), "exact-true"),
                           (A, "exact-false")]:
        report = check_small_gain(_dense(8, coeffs))
        assert report.critical_only and len(report.cycles) == 1
        verdict = report.cycles[0].verdict
        assert verdict.status == status
        assert report.holds == (status == "exact-true")
        if not report.holds:
            assert verdict.witness == 1.0 and report.witness == 1.0


def test_over_cap_lists_each_circuit_of_other_components():
    # a Power entry makes the component non-multiplicative
    G = _dense(8, np.full((8, 8), 0.5)).with_entry(0, 1, Power(0.5, 2.0))
    report = check_small_gain(G)
    assert not report.critical_only and len(report.cycles) == 16_072
    assert not report.holds
    # a dense linear block and, apart from it, a 2-cycle of Power gains:
    # the linear block's circuits are listed one by one too
    rows = [[Zero()] * 10 for _ in range(10)]
    for i in range(8):
        rows[i][:8] = [Linear(0.5)] * 8
    rows[8][9] = rows[9][8] = Power(0.5, 2.0)
    report = check_small_gain(GainMatrix.from_entries(rows))
    assert not report.critical_only and len(report.cycles) == 16_073
    assert sum(max(cv.cycle) < 8 for cv in report.cycles) == 16_072
    assert (8, 9) in [cv.cycle for cv in report.cycles]


@pytest.mark.parametrize("k", [0.5, 2.0])
def test_over_cap_mean_that_disagrees_lists_every_circuit(monkeypatch, k):
    # a maximum cycle mean of the wrong sign, beyond the tie band, leaves
    # the component to the circuit-by-circuit listing
    karp, calls = network._max_cycle_mean, []

    def wrong_sign(weights):
        lam, cycle = karp(weights)
        calls.append(lam)
        return -lam, cycle
    monkeypatch.setattr(network, "_max_cycle_mean", wrong_sign)
    report = check_small_gain(_dense(8, np.full((8, 8), k)))
    assert calls == [pytest.approx(math.log(k))]
    assert not report.critical_only and len(report.cycles) == 16_072
    assert report.holds == (k < 1)


def test_witness_sampler_stops_at_the_first_row_without_a_hit():
    # row 0 has no coupling, so no sample has Gamma(x)_0 >= x_0 and the
    # gains of row 1 are never evaluated
    seen = []

    @dataclass(frozen=True)
    class Seen(GainFn):
        def _eval(self, s):
            seen.append(s)
            return s
    G = GainMatrix.from_entries([[Zero(), Zero()], [Seen(), Zero()]])
    no_cycles = SmallGainReport(holds=True, cycles=())
    assert gas_witness_search(G, samples=1000, report=no_cycles) is None
    assert seen == []
    rows = network._gamma_block(G, np.ones((2, 3)))
    assert next(rows).tolist() == [0.0, 0.0, 0.0] and seen == []
    assert next(rows).tolist() == [1.0, 1.0, 1.0] and len(seen) == 1


def test_over_cap_one_critical_cycle_per_component():
    # two dense blocks of 8 and a one-way link between them: two
    # components, each decided alone; 10**8 circuits at n = 12
    A = np.zeros((16, 16))
    A[:8, :8] = 0.9
    A[8:, 8:] = 1.1
    A[0, 8] = 5.0
    rows = [[Linear(float(v)) if v else Zero() for v in row] for row in A]
    report = check_small_gain(GainMatrix.from_entries(rows))
    assert report.critical_only and not report.holds
    assert {cv.cycle[0] < 8: cv.holds for cv in report.cycles} == {
        True: True, False: False}
    assert min(report.failing_cycle) >= 8
    report = check_small_gain(_dense(12, np.full((12, 12), 0.99)))
    assert report.critical_only and report.holds


def test_dense_linear_over_cap_composes_nothing(monkeypatch):
    """Counting the circuits past the cap and deciding the critical cycle
    exactly construct no Compose."""
    def no_compose(self):
        raise AssertionError("a Compose was constructed")
    monkeypatch.setattr(Compose, "__post_init__", no_compose)
    report = check_small_gain(_dense(8, np.full((8, 8), 0.5)))
    assert report.critical_only and report.holds
    assert report.cycles[0].verdict.status == "exact-true"


def test_mixed_ring_longer_than_recursion_limit():
    # no closed form: the grid evaluates a 2,000-gain chain
    n = 2000
    g = Scale(0.9, LogExpSq(0.5, 0.8))
    report = check_small_gain(
        GainMatrix(n, tuple((((i + 1) % n, g),) for i in range(n))))
    assert [cv.cycle for cv in report.cycles] == [tuple(range(n))]
    assert report.holds and report.cycles[0].verdict.status == "grid-verified"


def test_matrix_stored_as_support_rows():
    G = GainMatrix.from_entries([[Zero(), Linear(0.5), Zero()],
                                 [Linear(0.0), Zero(), Zero()],
                                 [Zero(), Zero(), Zero()]])
    assert G.rows == (((1, Linear(0.5)),), ((0, Linear(0.0)),), ())
    assert G.support == ((1,), (0,), ())
    assert G.gain(0, 0) is G.gain(2, 2) and isinstance(G.gain(0, 0), Zero)
    assert G.with_entry(0, 1, Zero()).rows[0] == ()
    assert G.with_entry(0, 2, Linear(1.0)).rows[0] == (
        (1, Linear(0.5)), (2, Linear(1.0)))
    assert matrix_from_json(matrix_to_json(G)) == G
    for bad in [((0, Linear(1.0)), (0, Linear(1.0))),
                ((1, Linear(1.0)), (0, Linear(1.0))),
                ((3, Linear(1.0)),), ((0, Zero()),), ((0, 1.0),)]:
        with pytest.raises(ValueError):
            GainMatrix(3, (bad, (), ()))


def test_matrix_json_later_entry_wins():
    fn = {"kind": "linear", "k": 0.5}
    G = matrix_from_json({"n": 2, "gains": [
        {"i": 1, "j": 2, "fn": fn}, {"i": 1, "j": 1, "fn": fn},
        {"i": 1, "j": 2, "fn": {"kind": "zero"}}]})
    assert G.rows == (((0, Linear(0.5)),), ())


@pytest.mark.parametrize("n", [0, -1, network.MAX_NODES + 1, 10 ** 15])
def test_matrix_json_size_rejected_before_allocation(monkeypatch, n):
    monkeypatch.setattr(network, "GainMatrix", lambda *a: pytest.fail(
        "matrix allocated"))
    with pytest.raises(ValueError, match="matrix dimension must be 1 to"):
        matrix_from_json({"n": n, "gains": []})
