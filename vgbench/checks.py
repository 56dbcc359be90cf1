"""Output checks for the benchmark, written apart from the package.

Nothing here imports ``vectorgain``.  Gains are re-evaluated from their JSON
description by :func:`compile_gain`, max-linear verdicts come from max-times
matrix powers in numpy, and the simulation checks use closed forms or the
trajectory itself.  Every check returns a list of ``(tag, message)``
problems; an empty list means the output passed.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

Problem = Tuple[str, str]
Gain = Callable[[float], float]

# a1(overall(s)) must lie in [theta*(1 - SOUND_SLACK), theta*(1 + TIGHT_REL)].
# SOUND_SLACK only absorbs the rounding of an analytic inverse (a few ulp).
SOUND_SLACK = 1e-12
TIGHT_REL = 1e-6
THETA_REL = 1e-12
# the verified delay network must shrink to this share of the history norm
LDN_DECAY = 0.25
BIOCHEM_REL = 1e-4
GAP_ABS = 1e-12
IMPL_TOL = 1e-8


# ---------------------------------------------------------------------------
# gains, evaluated from JSON
# ---------------------------------------------------------------------------

def compile_gain(d: Dict) -> Gain:
    """A Python closure for a gain given in the package's JSON form."""
    kind = d["kind"]
    if kind == "zero":
        return lambda s: 0.0
    if kind == "linear":
        k = float(d["k"])
        return lambda s: k * s
    if kind == "power":
        k, p = float(d["k"]), float(d["p"])
        return lambda s: k * s ** p
    if kind == "logexpsq":
        c, th = float(d["c"]), float(d["th"])
        log_th = math.log(th)

        def lexp(s: float) -> float:
            t = math.sqrt(2.0 * s)
            # past exp overflow the value is c*(t + ln th)^2 to double precision
            inner = t + log_th if t > 700.0 else math.log1p(th * math.expm1(t))
            return c * inner * inner
        return lexp
    if kind == "max":
        a, b = compile_gain(d["a"]), compile_gain(d["b"])
        return lambda s: max(a(s), b(s))
    if kind == "compose":
        outer, inner = compile_gain(d["outer"]), compile_gain(d["inner"])
        return lambda s: outer(inner(s))
    if kind == "scale":
        k, fn = float(d["k"]), compile_gain(d["fn"])
        return lambda s: k * fn(s)
    raise ValueError(f"unknown gain kind {kind!r}")


def edge_gains(gains_json: Dict) -> Tuple[int, Dict[Tuple[int, int], Gain]]:
    """Dimension and 0-based (i, j) -> gain for the listed entries."""
    n = int(gains_json["n"])
    edges = {(int(e["i"]) - 1, int(e["j"]) - 1): compile_gain(e["fn"])
             for e in gains_json["gains"]}
    return n, edges


def gamma(n: int, edges: Dict[Tuple[int, int], Gain],
          x: Sequence[float]) -> List[float]:
    """Gamma_i(x) = max_j gamma_ij(x_j); absent entries are zero."""
    out = [0.0] * n
    for (i, j), g in edges.items():
        v = g(float(x[j]))
        if v > out[i]:
            out[i] = v
    return out


def cycle_value(edges: Dict[Tuple[int, int], Gain], cycle: Sequence[int],
                s: float) -> float:
    """gamma_{c1 c2} o gamma_{c2 c3} o ... o gamma_{cr c1} at s (0-based)."""
    r = len(cycle)
    v = s
    for m in range(r - 1, -1, -1):
        g = edges.get((cycle[m], cycle[(m + 1) % r]))
        v = 0.0 if g is None else g(v)
    return v


def linear_matrix(gains_json: Dict) -> np.ndarray:
    """Coefficient array of a max-linear config (absent entries are 0)."""
    n = int(gains_json["n"])
    A = np.zeros((n, n))
    for e in gains_json["gains"]:
        if e["fn"]["kind"] != "linear":
            raise ValueError("expected a max-linear config")
        A[int(e["i"]) - 1, int(e["j"]) - 1] = float(e["fn"]["k"])
    return A


# ---------------------------------------------------------------------------
# max-times algebra
# ---------------------------------------------------------------------------

def maxtimes(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """(P (x) Q)_ij = max_k P_ik * Q_kj."""
    return np.max(P[:, :, None] * Q[None, :, :], axis=1)


def maxtimes_closure(A: np.ndarray) -> np.ndarray:
    """A (+) A^2 (+) ... (+) A^n in max-times algebra."""
    acc, P = A.copy(), A.copy()
    for _ in range(A.shape[0] - 1):
        P = maxtimes(P, A)
        acc = np.maximum(acc, P)
    return acc


def maxtimes_radius(A: np.ndarray) -> float:
    """Largest geometric mean of a cycle product: max_k max_i (A^k)_ii^(1/k)."""
    best, P = 0.0, A.copy()
    for k in range(1, A.shape[0] + 1):
        if k > 1:
            P = maxtimes(P, A)
        best = max(best, float(np.max(np.diag(P))) ** (1.0 / k))
    return best


def gamma_linear(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    return np.max(A * x[None, :], axis=1)


def q_reference(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    acc, cur = x.copy(), x.copy()
    for _ in range(A.shape[0] - 1):
        cur = gamma_linear(A, cur)
        acc = np.maximum(acc, cur)
    return acc


# ---------------------------------------------------------------------------
# check-sg
# ---------------------------------------------------------------------------

def expected_small_gain(family: str, cfg: Dict) -> bool:
    """The verdict the method must reach, derived from the config alone.

    maxlinear: every diagonal entry of A (+) ... (+) A^n below 1.
    lexp_ring: a ring of LogExpSq(1/2, th_i) holds iff prod th_i < 1.
    below_identity: every edge gain lies pointwise below the identity, so
    every cycle composition does too.
    """
    g = cfg["gains"]
    if family == "maxlinear":
        return bool(np.all(np.diag(maxtimes_closure(linear_matrix(g))) < 1.0))
    if family == "lexp_ring":
        prod = 1.0
        for e in g["gains"]:
            if e["fn"]["kind"] != "logexpsq" or float(e["fn"]["c"]) != 0.5:
                raise ValueError("lexp_ring configs hold LogExpSq(1/2, th) only")
            prod *= float(e["fn"]["th"])
        return prod < 1.0
    if family == "below_identity":
        return True
    raise ValueError(f"unknown config family {family!r}")


def check_small_gain_output(family: str, cfg: Dict, rc: int,
                            report: Dict) -> List[Problem]:
    probs: List[Problem] = []
    expect = expected_small_gain(family, cfg)
    sg = report.get("small_gain", {})
    holds = sg.get("holds")
    if holds is not expect:
        probs.append(("verdict", f"holds={holds}, expected {expect}"))
    if rc != (0 if expect else 2):
        probs.append(("exit-code", f"exit code {rc} for holds={expect}"))
    n, edges = edge_gains(cfg["gains"])
    for entry in sg.get("cycles", []):
        if "witness" not in entry:
            continue
        cyc = [i - 1 for i in entry["cycle"]]
        w = float(entry["witness"])
        if not cycle_value(edges, cyc, w) >= w:
            probs.append(("cycle-witness",
                          f"cycle {entry['cycle']}: g({w}) < {w}"))
    if not expect:
        x = report.get("gas_witness")
        if x is None:
            probs.append(("gas-witness", "refuted without a GAS witness"))
        else:
            gx = gamma(n, edges, x)
            if len(x) != n or not any(v > 0 for v in x) or \
                    any(a < b for a, b in zip(gx, x)):
                probs.append(("gas-witness", f"Gamma(x) >= x fails at {x}"))
    return probs


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

def _phi_nested(n: int, edges: Dict[Tuple[int, int], Gain], i: int,
                s: float) -> float:
    """max of s and every chain gamma_{i j1} o ... o gamma_{j(l-1) jl}(s)
    over all index tuples (repeats allowed), l = 1..n-1."""
    best = s
    for l in range(1, n):
        for js in itertools.product(range(n), repeat=l):
            chain = (i,) + js
            v = s
            for m in range(l - 1, -1, -1):
                g = edges.get((chain[m], chain[m + 1]))
                if g is None:
                    v = 0.0
                    break
                v = g(v)
            if v > best:
                best = v
    return best


def theta_nested(cfg: Dict, s: float) -> float:
    """Composite gain theta(s) by literal nested loops over index tuples."""
    n, edges = edge_gains(cfg["gains"])
    syn = cfg["synthesis"]
    zeta = compile_gain(syn["zeta"])
    p_list = [compile_gain(d) for d in syn.get("p", [])] or \
        [lambda v: 0.0] * n
    M = float(syn.get("M", 1.0))
    zs = zeta(s)
    phi_z = [_phi_nested(n, edges, j, zs) for j in range(n)]
    branch_pu = max([zs] + [p(zs) for p in p_list])
    branch_p = 0.0
    for i in range(n):
        for j in range(n):
            g = edges.get((i, j))
            gij = 0.0 if g is None else g(phi_z[j])
            branch_p = max(branch_p, gij, p_list[i](gij))
    inner = max(M * branch_pu, M * branch_p, zs)
    return max(_phi_nested(n, edges, i, inner) for i in range(n))


def a1_of(cfg: Dict) -> Gain:
    syn = cfg["synthesis"]
    if "a1" in syn:
        return compile_gain(syn["a1"])
    k = 1.0 / (2.0 * int(cfg["gains"]["n"]))  # the CLI's a1 when none is given
    return lambda s: k * s


def parse_table(text: str) -> List[Tuple[float, float, float]]:
    lines = text.strip().splitlines()
    if lines[0] != "s,theta,overall":
        raise ValueError(f"unexpected gain table header {lines[0]!r}")
    return [tuple(float(v) for v in line.split(",")) for line in lines[1:]]


def check_synth_output(cfg: Dict, table: Sequence[Tuple[float, float, float]],
                       theta_every: int = 20) -> List[Problem]:
    """theta equals the nested-loop value on every theta_every-th row, and
    a1(overall(s)) is a sound and tight inverse on every row."""
    probs: List[Problem] = []
    points = int(cfg.get("analysis", {}).get("table_points", 121))
    if len(table) != points:
        probs.append(("table", f"{len(table)} rows, expected {points}"))
        return probs
    ref_s = np.logspace(-6.0, 6.0, points)
    a1 = a1_of(cfg)
    for k, (s, theta, overall) in enumerate(table):
        if not math.isclose(s, float(ref_s[k]), rel_tol=1e-15):
            probs.append(("table", f"row {k}: s = {s!r}"))
            continue
        if k % theta_every == 0:
            ref = theta_nested(cfg, s)
            if abs(theta - ref) > THETA_REL * ref:
                probs.append(("theta", f"s={s:.6g}: theta {theta!r} vs "
                                       f"nested-loop {ref!r}"))
        y = a1(overall)
        if y < theta * (1.0 - SOUND_SLACK):
            probs.append(("a1-inverse", f"s={s:.6g}: a1(overall) = {y!r} < "
                                        f"theta = {theta!r} (unsound)"))
        elif y > theta * (1.0 + TIGHT_REL):
            probs.append(("a1-inverse", f"s={s:.6g}: a1(overall) = {y!r} > "
                                        f"theta*(1+{TIGHT_REL:g}) (loose)"))
    return probs


# ---------------------------------------------------------------------------
# sim
# ---------------------------------------------------------------------------

def _sup(a) -> float:
    return float(np.max(np.abs(np.asarray(a, dtype=float))))


def check_ldn_verified(history: Sequence[float], states: np.ndarray) -> List[Problem]:
    """Sup-norm never above the history's, and shrunk by the horizon."""
    h = _sup(history)
    probs: List[Problem] = []
    if _sup(states) > h * (1.0 + 1e-12):
        probs.append(("ldn-bound", f"sup |x| = {_sup(states)!r} > history {h!r}"))
    if _sup(states[-1]) > LDN_DECAY * h:
        probs.append(("ldn-decay", f"final sup {_sup(states[-1])!r} > "
                                   f"{LDN_DECAY} * {h!r}"))
    return probs


def check_ldn_violating(history: Sequence[float], states: np.ndarray) -> List[Problem]:
    if _sup(states[-1]) < _sup(history):
        return [("ldn-violating", f"final sup {_sup(states[-1])!r} < "
                                  f"history {_sup(history)!r}: it decayed")]
    return []


def biochem_equilibrium(params: Dict) -> np.ndarray:
    """Closed form for Michaelis-Menten g = cX/(K+X): X_n* = c/prod(a) - K,
    X_i* = g(X_n*) / prod_{k<=i} a_k."""
    a = [float(v) for v in params["a"]]
    c, K = float(params["g"]["c"]), float(params["g"]["K"])
    xn = c / math.prod(a) - K
    gx = c * xn / (K + xn)
    return np.array([gx / math.prod(a[: i + 1]) for i in range(len(a))])


def check_biochem(params: Dict, final: np.ndarray) -> List[Problem]:
    xs = biochem_equilibrium(params)
    rel = float(np.max(np.abs(np.asarray(final) - xs) / xs))
    if not rel <= BIOCHEM_REL:
        return [("biochem", f"final state {list(final)} is {rel:.3g} "
                            f"(relative) from X* = {list(xs)}")]
    return []


def sinusoid(amplitude: float, frequency: float, phase: float) -> Gain:
    return lambda t: amplitude * math.sin(2.0 * math.pi * frequency * t + phase)


def check_sampled(h0: float, dtilde: Gain, horizon: float, times: np.ndarray,
                  states: np.ndarray, sampling: np.ndarray) -> List[Problem]:
    """Each gap tau_{i+1} - tau_i equals exp(-dtilde(tau_i)) * h0/(1+|x(tau_i)|)
    with x(tau_i) read from the trajectory."""
    probs: List[Problem] = []
    if len(sampling) < 2 or sampling[0] != times[0]:
        return [("sampling", "fewer than two sampling instants")]
    if abs(float(times[-1]) - (float(times[0]) + horizon)) > 1e-9:
        probs.append(("sampling", f"trajectory ends at {times[-1]!r}"))
    idx = np.searchsorted(times, sampling)
    for k in range(len(sampling) - 1):
        tau = float(sampling[k])
        cands = [m for m in (idx[k] - 1, idx[k]) if 0 <= m < len(times)]
        m = min(cands, key=lambda m: abs(float(times[m]) - tau))
        if abs(float(times[m]) - tau) > 1e-9:
            probs.append(("sampling", f"no trajectory node at tau = {tau!r}"))
            break
        x = states[m]
        norm = math.sqrt(sum(float(v) * float(v) for v in x))
        gap = math.exp(-dtilde(tau)) * h0 / (1.0 + norm)
        got = float(sampling[k + 1]) - tau
        if abs(got - gap) > GAP_ABS * max(1.0, float(sampling[k + 1])):
            probs.append(("sampling", f"gap at tau={tau!r}: {got!r} vs {gap!r}"))
            break
    return probs


# ---------------------------------------------------------------------------
# sample-iterate
# ---------------------------------------------------------------------------

def check_implication(a: Sequence[float], c: Sequence[Sequence[float]], lam: float,
                      gain_scale: float, violations: List[Dict]) -> List[Problem]:
    """Derived gains (scale 1) admit no violation.  Shrunk gains must yield
    at least one, and each is re-derived from the closed-form derivative
    sup -a_i x^2 + |x| max_j c_ij sqrt(2 V_j) against -2(1-lam) a_i x^2/2."""
    if gain_scale == 1.0:
        if violations:
            return [("implication", f"{len(violations)} violations with the "
                                    f"derived gains")]
        return []
    if not violations:
        return [("implication", "no violation found with shrunk gains")]
    probs: List[Problem] = []
    for v in violations:
        i, x, V = int(v["i"]) - 1, float(v["x_i"]), [float(t) for t in v["V"]]
        q = 0.5 * x * x
        premise = all(
            gain_scale * c[i][j] ** 2 / (lam * lam * a[i] ** 2) * V[j] <= q
            for j in range(len(a)) if c[i][j] != 0.0)
        deriv = -a[i] * x * x + abs(x) * max(
            c[i][j] * math.sqrt(2.0 * V[j]) for j in range(len(a)))
        bound = -2.0 * (1.0 - lam) * a[i] * q
        if not (premise and deriv > bound + IMPL_TOL):
            probs.append(("implication", f"unconfirmed violation {v}"))
            break
        if abs(deriv - float(v["derivative"])) > 1e-9 * max(1.0, abs(deriv)):
            probs.append(("implication", f"derivative {v['derivative']!r} "
                                         f"vs closed form {deriv!r}"))
            break
    return probs


def check_iterate(A: np.ndarray, status: str) -> List[Problem]:
    rho = maxtimes_radius(A)
    expect = "converged" if rho < 1.0 else "diverged"
    if status != expect:
        return [("iterate", f"status {status!r} with max-times radius "
                            f"{rho:.6g}, expected {expect!r}")]
    return []


def check_q(A: np.ndarray, x: np.ndarray, q: np.ndarray) -> List[Problem]:
    """Q(x) equals the reference and satisfies x <= Q, Gamma(Q) <= Q and
    Gamma^k(x) <= Q for k < 3n, all exactly."""
    probs: List[Problem] = []
    if not np.array_equal(q, q_reference(A, x)):
        probs.append(("q-operator", f"Q(x) = {q} differs from {q_reference(A, x)}"))
    ok = bool(np.all(x <= q)) and bool(np.all(gamma_linear(A, q) <= q))
    v = x
    for _ in range(3 * A.shape[0]):
        v = gamma_linear(A, v)
        ok = ok and bool(np.all(v <= q))
    if not ok:
        probs.append(("q-operator", "a Q-operator law fails"))
    return probs
