"""Self-tests of the benchmark's checks: each check accepts a real output of
the package and rejects the same output with one thing corrupted.

    python3 -m pytest vgbench/test_checks.py
"""

import copy
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import workloads  # noqa: E402
from vectorgain import cli  # noqa: E402
from vectorgain.gains import Linear  # noqa: E402
from vectorgain.iteration import iterate  # noqa: E402
from vectorgain.models import SystemSpec  # noqa: E402
from vectorgain.network import GainMatrix, q_operator  # noqa: E402
from vectorgain.signals import Signal  # noqa: E402
from vectorgain.simulate import integrate_delay, integrate_sampled  # noqa: E402
from vectorgain.validate import LyapunovSetup, check_implication, ldn_rho  # noqa: E402

# node 1 <-> node 2 multiplies to 1.6: refuted, with a GAS witness
REFUTED = {"gains": {"n": 2, "gains": [
    {"i": 1, "j": 1, "fn": {"kind": "linear", "k": 0.5}},
    {"i": 1, "j": 2, "fn": {"kind": "linear", "k": 2.0}},
    {"i": 2, "j": 1, "fn": {"kind": "linear", "k": 0.8}},
    {"i": 2, "j": 2, "fn": {"kind": "linear", "k": 0.5}}]}}


def _cli(tmp_path, command, cfg, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    rc = cli.main([command, "--input", str(path), "--out", str(out)])
    capsys.readouterr()
    return rc, out


def test_check_sg_rejects_flipped_verdict(tmp_path, capsys):
    cfg = workloads.dense_linear(np.random.default_rng(1), 4, 0.9)
    rc, out = _cli(tmp_path, "check-sg", cfg, capsys)
    report = json.loads((out / "report.json").read_text())
    assert checks.check_small_gain_output("maxlinear", cfg, rc, report) == []
    report["small_gain"]["holds"] = not report["small_gain"]["holds"]
    assert checks.check_small_gain_output("maxlinear", cfg, rc, report)


def test_check_sg_rejects_bad_witnesses(tmp_path, capsys):
    rc, out = _cli(tmp_path, "check-sg", REFUTED, capsys)
    report = json.loads((out / "report.json").read_text())
    assert checks.check_small_gain_output("maxlinear", REFUTED, rc, report) == []
    bad = copy.deepcopy(report)
    bad["gas_witness"] = [1.0, 1e-3]      # Gamma_1(x) = 0.5 < 1
    assert checks.check_small_gain_output("maxlinear", REFUTED, rc, bad)
    bad = copy.deepcopy(report)
    held = next(e for e in bad["small_gain"]["cycles"] if "witness" not in e)
    held["witness"] = 1.0                 # a contracting cycle is no witness
    assert checks.check_small_gain_output("maxlinear", REFUTED, rc, bad)


def test_lexp_ring_verdict_follows_the_product():
    rng = np.random.default_rng(2)
    assert checks.expected_small_gain("lexp_ring", workloads.lexp_ring(rng, 5, 0.8))
    assert not checks.expected_small_gain("lexp_ring",
                                          workloads.lexp_ring(rng, 5, 1.25))


def test_check_synth_rejects_scaled_theta_and_loose_inverse(tmp_path, capsys):
    cfg = workloads.synth_config(np.random.default_rng(3), 3,
                                 {"kind": "power", "k": 0.5, "p": 2.0})
    rc, out = _cli(tmp_path, "synth", cfg, capsys)
    assert rc == 0
    table = checks.parse_table((out / "gain_table.csv").read_text())
    assert checks.check_synth_output(cfg, table) == []
    s, theta, overall = table[40]
    scaled = list(table)
    scaled[40] = (s, theta * (1.0 + 1e-9), overall)
    assert "theta" in [t for t, _ in checks.check_synth_output(cfg, scaled)]
    for factor in (1.0 - 1e-9, 1.0 + 1e-5):     # unsound, then loose
        moved = list(table)
        moved[7] = (table[7][0], table[7][1], table[7][2] * factor)
        assert [t for t, _ in checks.check_synth_output(cfg, moved)] == \
            ["a1-inverse"]


def test_check_biochem_rejects_final_state_off_equilibrium():
    params = {"a": [1.0, 0.98, 1.03], "tau": [0.1] * 3,
              "g": {"form": "mm", "c": 3.1, "K": 0.8}}
    spec = SystemSpec(kind="delay", model="biochem_circuit", params=params)
    xstar = checks.biochem_equilibrium(params)
    traj = integrate_delay(spec, xstar * np.exp([0.7, -0.9, 0.2]),
                           horizon=60.0, dt=0.01)
    assert checks.check_biochem(params, traj.states[-1]) == []
    off = traj.states[-1].copy()
    off[1] *= 1.0 + 1e-3
    assert checks.check_biochem(params, off)


def test_check_ldn_rejects_missing_decay_and_growth():
    h = np.array([0.6, -1.0, 0.4])
    spec = SystemSpec(kind="delay", model="linear_delay_network",
                      params={"a": workloads.LDN_A, "c": workloads.LDN_C,
                              "r": 0.5})
    states = integrate_delay(spec, h, horizon=4.0, dt=1e-3).states
    assert checks.check_ldn_verified(h, states) == []
    assert checks.check_ldn_violating(h, states)
    stalled = states.copy()
    stalled[-1] = states[0]
    assert checks.check_ldn_verified(h, stalled)


def test_check_sampled_rejects_moved_instant():
    amp, freq, phase = workloads.ZOH["jitter"]
    spec = SystemSpec(kind="sampled", model="zoh_linear",
                      params=workloads.ZOH["params"],
                      h={"kind": "state_norm", "value": workloads.ZOH["h0"]},
                      dtilde=Signal(kind="sinusoid", amplitude=amp,
                                    frequency=freq, phase=phase))
    tr = integrate_sampled(spec, workloads.ZOH["x0"], horizon=3.0, dt=1e-3)
    dtilde = checks.sinusoid(amp, freq, phase)
    assert checks.check_sampled(workloads.ZOH["h0"], dtilde, 3.0, tr.times,
                                tr.states, tr.sampling_times) == []
    moved = tr.sampling_times.copy()
    moved[5] += 1e-9
    assert checks.check_sampled(workloads.ZOH["h0"], dtilde, 3.0, tr.times,
                                tr.states, moved)


def test_check_implication_rejects_unconfirmed_violation():
    a, c, lam = [2.0], [[0.5]], 0.9
    G = GainMatrix.zeros(1).with_entry(0, 0, Linear(0.1 * c[0][0] ** 2
                                                    / (lam * lam * a[0] ** 2)))
    model = SystemSpec(kind="delay", model="linear_delay_network",
                       params={"a": a, "c": c, "r": 0.5})
    found = check_implication(LyapunovSetup(gains=G, rho_list=ldn_rho(a, lam)),
                              model, sample_count=5000, seed=4)
    assert checks.check_implication(a, c, lam, 0.1, found) == []
    assert checks.check_implication(a, c, lam, 0.1, [])
    assert checks.check_implication(a, c, lam, 1.0, found)
    bad = copy.deepcopy(found)
    bad[0]["V"] = [v * 1e-4 for v in bad[0]["V"]]   # drive too weak to violate
    assert checks.check_implication(a, c, lam, 0.1, bad)


@pytest.mark.parametrize("rho", [0.7, 1.3])
def test_check_iterate_rejects_flipped_status(rho):
    rng = np.random.default_rng(5)
    A = rng.uniform(0.1, 1.0, size=(3, 3))
    A *= rho / checks.maxtimes_radius(A)
    G = GainMatrix.from_entries([[Linear(float(v)) for v in row] for row in A])
    status = iterate(G, np.ones(3)).status
    assert checks.check_iterate(A, status) == []
    flipped = "diverged" if status == "converged" else "converged"
    assert checks.check_iterate(A, flipped)


def test_check_q_rejects_perturbed_value():
    rng = np.random.default_rng(6)
    A = rng.uniform(0.1, 1.0, size=(4, 4))
    A *= 0.7 / checks.maxtimes_radius(A)
    G = GainMatrix.from_entries([[Linear(float(v)) for v in row] for row in A])
    x = rng.uniform(0.0, 10.0, size=4)
    q = q_operator(G, x)
    assert checks.check_q(A, x, q) == []
    low = q.copy()
    low[np.argmax(q - x)] = math.nextafter(float(x[np.argmax(q - x)]), -1.0)
    assert checks.check_q(A, x, low)
