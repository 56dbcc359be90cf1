"""Acceptance gate: eleven criteria, one printed pass/fail line each.

Lines are written to the real stdout so they remain visible under pytest's
capture.  Every criterion also asserts, so a failure shows up both in the
printed line and as a test failure.
"""

import math

import numpy as np
import pytest

from vectorgain.gains import Linear, Power, Zero
from vectorgain.iteration import lfp_bound_check
from vectorgain.models import SystemSpec
from vectorgain.network import check_small_gain, gamma_apply, q_operator
from vectorgain.recipes import (
    BIO_MU, BIO_THETA, biochem_gain_matrix, cycle_test_sweep, rk4_order,
    run_recipe,
)
from vectorgain.signals import Signal
from vectorgain.simulate import integrate_delay, integrate_sampled
from vectorgain.synthesis import SynthesisInput, overall_gain
from vectorgain.validate import (
    LyapunovSetup, check_asymptotic_gain, check_implication, ldn_rho,
    recheck_violation,
)
from vectorgain.network import GainMatrix

from conftest import random_verified_matrix as _verified
from oracles import logexpsq_closed_form, theta_oracle


@pytest.fixture(autouse=True)
def _line(capfd):
    """One pass/fail line per criterion, emitted past pytest's capture."""
    def emit(num: int, ok: bool, desc: str) -> None:
        line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {desc}"
        with capfd.disabled():
            print(line, flush=True)
        assert ok, line
    return emit


def test_criterion_01_cycle_test_vs_iteration(_line):
    out = cycle_test_sweep()
    _line(1, out["passed"],
            f"cycle test agrees with brute-force iteration "
            f"{out['agreements']}/{out['cases']}")


def test_criterion_02_q_operator_laws(_line):
    rng = np.random.default_rng(202)
    ok = True
    for _ in range(1000):
        n = int(rng.integers(2, 5))
        G = _verified(rng, n)
        x = rng.uniform(0.0, 10.0, size=n)
        q = q_operator(G, x)
        ok = ok and bool(np.all(x <= q))
        ok = ok and bool(np.all(gamma_apply(G, q) <= q))
        v = x
        for _k in range(3 * n):
            v = gamma_apply(G, v)
            ok = ok and bool(np.all(v <= q))
        if not ok:
            break
    _line(2, ok, "Q-operator laws exact on 1000 verified (matrix, x) pairs")


def test_criterion_03_least_fixed_point_bound(_line):
    rng = np.random.default_rng(303)
    ok = True
    for _ in range(500):
        n = int(rng.integers(2, 5))
        G = _verified(rng, n)
        a = np.exp(rng.uniform(-3.0, 3.0, size=n))
        ok = ok and lfp_bound_check(G, a)
        if not ok:
            break
    _line(3, ok, "least fixed point of MAX{a, Gamma(x)} stays below Q(a) "
                   "on 500 instances")


def test_criterion_04_biochem_closed_form_composition(_line):
    theta, mu = 0.9, 1.02
    ok = True
    ss = np.logspace(-6.0, 2.0, 200)
    for n in (2, 3, 4):
        G = biochem_gain_matrix(n, theta, mu)
        param = mu ** (n - 1) * theta
        for s in ss:
            v = float(s)
            for j in range(1, n):
                v = G.gain(j, j - 1)(v)
            v = G.gain(0, n - 1)(v)
            ref = logexpsq_closed_form(0.5, param, float(s))
            if not math.isclose(v, ref, rel_tol=1e-9):
                ok = False
                break
        ok = ok and check_small_gain(G).holds
        mu_fail = (1.01 / theta) ** (1.0 / (n - 1))
        ok = ok and not check_small_gain(
            biochem_gain_matrix(n, theta, mu_fail)).holds
    _line(4, ok, "cycle composition matches the closed form (rel 1e-9) and "
                   "the verdict flips at the parameter boundary")


def test_criterion_05_theta_matches_direct_evaluation(_line):
    rng = np.random.default_rng(505)
    ok = True
    for n in (1, 2, 3, 4):
        for M in (1.0, 1.7):
            G = _verified(rng, n) if n > 1 else GainMatrix.zeros(1)
            zeta = Linear(float(rng.uniform(0.1, 2.0)))
            p_list = tuple(Linear(float(rng.uniform(0.1, 2.0)))
                           for _ in range(n))
            inp = SynthesisInput(gains=G, zeta=zeta, p_list=p_list,
                                 a1=Linear(1.0 / (2.0 * n)), M=M)
            th = overall_gain(inp).theta
            for s in np.exp(rng.uniform(-6.0, 6.0, size=100)):
                ref = theta_oracle(G, zeta, p_list, float(s), M=M)
                if not math.isclose(th(float(s)), ref, rel_tol=1e-12):
                    ok = False
    _line(5, ok, "synthesized theta equals nested-loop direct evaluation "
                   "(rel 1e-12)")


def test_criterion_06_delay_network_reproduction(_line):
    out = run_recipe("delay-network")
    _line(6, out["passed"],
            "delay network: verified instance decays below 1e-4, violating "
            "instance fails the cycle test and does not decay")


def test_criterion_07_biochem_reproduction(_line):
    out = run_recipe("biochem-circuit")
    _line(7, out["passed"] and out["hypothesis"]["left_ok"]
            and out["hypothesis"]["right_ok"]
            and out["small_gain_holds"],
            f"biochemical circuit: sector hypothesis holds, cycle test "
            f"passes (theta={BIO_THETA}, mu={BIO_MU}), all runs converge")


LAM = 0.9
A, C = 2.0, 0.5


def _scalar_setup(gain_scale=1.0):
    k = gain_scale * C * C / (LAM * LAM * A * A)
    G = GainMatrix.zeros(1).with_entry(0, 0, Linear(k))
    return LyapunovSetup(gains=G, rho_list=ldn_rho([A], LAM))


def _scalar_model():
    return SystemSpec(kind="delay", model="linear_delay_network",
                      params={"a": [A], "c": [[C]], "r": 0.5})


def test_criterion_08_implication_checker_soundness(_line):
    clean = check_implication(_scalar_setup(), _scalar_model(),
                              sample_count=100_000, seed=8)
    shrunk = check_implication(_scalar_setup(gain_scale=0.1), _scalar_model(),
                               sample_count=100_000, seed=8)
    reproduced = bool(shrunk) and recheck_violation(
        _scalar_setup(gain_scale=0.1), _scalar_model(), shrunk[0])
    ok = not clean and reproduced
    _line(8, ok, f"implication checker: 0 violations at 1e5 samples with "
                   f"derived gains; {len(shrunk)} reproducible violations "
                   f"with the gain shrunk 10x")


def test_criterion_09_rk4_order(_line):
    out = rk4_order()
    orders = ", ".join(f"{o:.3f}" for o in out["measured_orders"])
    _line(9, out["passed"], f"measured RK4 orders [{orders}] in [3.5, 4.5]")


def test_criterion_10_sampling_times(_line):
    h0 = 0.25
    base = SystemSpec(kind="sampled", model="zoh_linear", params={"n": 1},
                      h={"kind": "constant", "value": h0},
                      dtilde=Signal(kind="zero"))
    traj = integrate_sampled(base, [1.0], horizon=2.0, dt=0.01)
    exact = bool(np.array_equal(traj.sampling_times, h0 * np.arange(9)))
    jit = SystemSpec(kind="sampled", model="zoh_linear", params={"n": 1},
                     h={"kind": "constant", "value": h0},
                     dtilde=Signal(kind="constant", value=math.log(2.0)))
    traj = integrate_sampled(jit, [1.0], horizon=2.0, dt=0.01)
    halved = bool(np.all(np.diff(traj.sampling_times) == h0 / 2.0))
    _line(10, exact and halved,
            "sampling instants exact at i*h0; gaps exactly h0/2 under "
            "a log-2 time-scale disturbance")


def test_criterion_11_asymptotic_gain_bound(_line):
    lam = 0.9
    inp = SynthesisInput(gains=GainMatrix.zeros(1),
                         zeta=Power(1.0 / (2.0 * lam * lam), 2.0),
                         p_list=(Zero(),), a1=Power(0.5, 2.0))
    comp = overall_gain(inp)
    ok = True
    for c in (0.1, 1.0, 10.0):
        spec = SystemSpec(kind="ode", model="scalar_linear",
                          params={"a": 1.0, "bu": 1.0},
                          input_signal=Signal(kind="constant", value=c))
        traj = integrate_delay(spec, [0.0], horizon=40.0, dt=1e-2)
        out = check_asymptotic_gain(traj, comp.gmap, u_sup=c)
        ok = ok and out[0]["status"] == "satisfied"
        ok = ok and math.isclose(out[0]["tail_sup"], 0.5 * c * c, rel_tol=1e-5)
    _line(11, ok, "tail Lyapunov value c^2/2 within the synthesized "
                    "channel bound (factor 1.05) for c in {0.1, 1, 10}")
