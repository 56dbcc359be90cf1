"""The four workloads: their inputs, drawn from a seed, and their operations.

Each workload is a list of :class:`Op`.  A pass runs every op once; an op's
output is checked by :mod:`checks`, which never calls the package.  The seed
draws coefficients, histories and sampler seeds; the shape of every input
(dimensions, sparsity, horizons, step sizes, sample counts) is fixed, so the
work done per pass does not depend on the seed.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import math
import shutil
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

import checks


class Op:
    """One timed call into the package plus the check of its output."""

    #: tag of the one check failure that is a known fault of the package
    known_fault: Optional[str] = None

    def __init__(self, name: str):
        self.name = name

    def prepare(self) -> None:
        """Untimed work before each run (clearing old output)."""

    def run(self):
        raise NotImplementedError

    def digest(self, result) -> str:
        raise NotImplementedError

    def check(self, result) -> List[checks.Problem]:
        raise NotImplementedError

    def output_bytes(self) -> int:
        return 0


class CliOp(Op):
    """``vectorgain <command> --input cfg --out dir`` through ``cli.main``."""

    def __init__(self, vg, work: Path, name: str, command: str, cfg: Dict,
                 check: Callable[[Dict, int, Path], List[checks.Problem]],
                 known_fault: Optional[str] = None):
        super().__init__(name)
        self.vg, self.command, self.cfg = vg, command, cfg
        self._check, self.known_fault = check, known_fault
        self.cfg_path = work / f"{name}.json"
        self.out = work / f"{name}.out"

    def prepare(self) -> None:
        # the config is written here, outside the timed set-up, whose file
        # system calls varied by a quarter from run to run
        if not self.cfg_path.exists():
            self.cfg_path.write_text(json.dumps(self.cfg))
        shutil.rmtree(self.out, ignore_errors=True)
        gc.collect()    # start each CLI run from a collected heap

    def run(self):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            rc = self.vg.cli.main([self.command, "--input", str(self.cfg_path),
                                   "--out", str(self.out)])
        return rc, buf.getvalue()

    def _files(self):
        # run_meta.json holds a timestamp; every other artifact is reproducible
        return [p for p in sorted(self.out.iterdir()) if p.name != "run_meta.json"]

    def digest(self, result) -> str:
        rc, stdout = result
        h = hashlib.sha256(f"{rc}\n".encode())
        h.update(stdout.encode())
        for p in self._files():
            with p.open("rb") as fh:
                h.update(p.name.encode() + hashlib.file_digest(fh, "sha256").digest())
        return h.hexdigest()

    def output_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.out.iterdir())

    def check(self, result) -> List[checks.Problem]:
        return self._check(self.cfg, result[0], self.out)


class LibOp(Op):
    """A direct library call; `call` looks the function up at call time so
    that traced wrappers are used."""

    def __init__(self, name: str, call: Callable, digest: Callable,
                 check: Callable):
        super().__init__(name)
        self._call, self._digest, self._check = call, digest, check

    def run(self):
        return self._call()

    def digest(self, result) -> str:
        return hashlib.sha256(self._digest(result)).hexdigest()

    def check(self, result) -> List[checks.Problem]:
        return self._check(result)


# ---------------------------------------------------------------------------
# config builders (JSON, 1-based indices, as the CLI reads them)
# ---------------------------------------------------------------------------

def _linear(k: float) -> Dict:
    return {"kind": "linear", "k": float(k)}


def _lexp(c: float, th: float) -> Dict:
    return {"kind": "logexpsq", "c": float(c), "th": float(th)}


def _gains(n: int, entries: Dict) -> Dict:
    return {"n": n, "gains": [{"i": i + 1, "j": j + 1, "fn": fn}
                              for (i, j), fn in sorted(entries.items())]}


def dense_linear(rng, n: int, rho: float) -> Dict:
    """Every entry linear, scaled so the largest cycle geometric mean is rho."""
    A = rng.uniform(0.1, 1.0, size=(n, n))
    A *= rho / checks.maxtimes_radius(A)
    return {"gains": _gains(n, {(i, j): _linear(A[i, j])
                                for i in range(n) for j in range(n)})}


def below_identity_gain(rng, form: int) -> Dict:
    """A gain lying pointwise below the identity that no exact rule decides."""
    th = lambda: float(rng.uniform(0.3, 0.9))
    if form == 0:
        return {"kind": "scale", "k": float(rng.uniform(0.5, 0.95)),
                "fn": _lexp(0.5, th())}
    if form == 1:
        return {"kind": "max", "a": _lexp(float(rng.uniform(0.2, 0.45)), th()),
                "b": {"kind": "scale", "k": float(rng.uniform(0.3, 0.9)),
                      "fn": _lexp(0.5, th())}}
    return _lexp(float(rng.uniform(0.2, 0.45)), th())


def mixed_sparse(rng, n: int, ring: bool) -> Dict:
    """Ring (i -> i+1 mod n) or chain (i -> i+1) of below-identity gains."""
    m = n if ring else n - 1
    return {"gains": _gains(n, {(i, (i + 1) % n): below_identity_gain(rng, i % 3)
                                for i in range(m)})}


def lexp_ring(rng, n: int, product: float) -> Dict:
    """Ring of LogExpSq(1/2, th_i) whose parameters multiply to `product`."""
    u = rng.uniform(-0.5, 0.5, size=n)
    u += (math.log(product) - u.sum()) / n
    return {"gains": _gains(n, {(i, (i + 1) % n): _lexp(0.5, math.exp(u[i]))
                                for i in range(n)})}


def synth_config(rng, n: int, a1: Optional[Dict]) -> Dict:
    """Off-diagonal mix of Linear and LogExpSq(1/2, th) below the identity."""
    entries = {}
    for i in range(n):
        for j in range(n):
            if i != j:
                entries[(i, j)] = (_lexp(0.5, rng.uniform(0.2, 0.6)) if (i + j) % 2 == 0
                                   else _linear(rng.uniform(0.05, 0.4)))
    syn = {"zeta": _linear(rng.uniform(0.3, 1.0))}
    if a1 is not None:
        syn["a1"] = a1
    return {"gains": _gains(n, entries), "synthesis": syn}


# seed-independent: this op hits the absolute bisection tolerance of
# gains.invert, so its table fails the a1 check on every run
BISECT_CONFIG = {
    "gains": _gains(3, {(0, 1): _linear(0.3), (1, 2): _lexp(0.5, 0.5),
                        (2, 0): _linear(0.2), (0, 2): _lexp(0.5, 0.4)}),
    "synthesis": {"zeta": _linear(0.5), "a1": _lexp(0.5, 0.5)},
}


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def _check_sg(family: str):
    def check(cfg, rc, out):
        with (out / "report.json").open() as fh:
            report = json.load(fh)
        return checks.check_small_gain_output(family, cfg, rc, report)
    return check


def _check_synth(cfg, rc, out):
    if rc != 0:
        return [("exit-code", f"synth exit code {rc}")]
    table = checks.parse_table((out / "gain_table.csv").read_text())
    return checks.check_synth_output(cfg, table)


def check_sg_ops(vg, rng, work: Path) -> List[Op]:
    plan = [(f"dense{n}", "maxlinear", dense_linear(rng, n, 0.9))
            for n in range(3, 9)]
    plan += [(f"dense{n}-refuted", "maxlinear", dense_linear(rng, n, 1.1))
             for n in (3, 5, 7)]
    plan += [("ring5-mixed", "below_identity", mixed_sparse(rng, 5, True)),
             ("ring9-mixed", "below_identity", mixed_sparse(rng, 9, True)),
             ("chain8-mixed", "below_identity", mixed_sparse(rng, 8, False)),
             ("ring7-lexp", "lexp_ring", lexp_ring(rng, 7, 0.8)),
             ("ring6-lexp-refuted", "lexp_ring", lexp_ring(rng, 6, 1.25))]
    return [CliOp(vg, work, name, "check-sg", cfg, _check_sg(family))
            for name, family, cfg in plan]


def synth_ops(vg, rng, work: Path) -> List[Op]:
    power = {"kind": "power", "k": 0.5, "p": 2.0}
    # no n = 5: its single 8-15 s call leaves two or three samples per run,
    # too few to average out the host's speed swings
    plan = [("synth2", 2, None), ("synth3", 3, power)] + [
        (f"synth4-{k}", 4, power) for k in range(3)]
    ops = [CliOp(vg, work, name, "synth", synth_config(rng, n, a1), _check_synth)
           for name, n, a1 in plan]
    ops.append(CliOp(vg, work, "synth3-bisect", "synth", BISECT_CONFIG,
                     _check_synth, known_fault="a1-inverse"))
    return ops


def _traj_digest(traj) -> bytes:
    parts = [traj.times.tobytes(), traj.states.tobytes()]
    if traj.sampling_times is not None:
        parts.append(traj.sampling_times.tobytes())
    return b"".join(parts)


LDN_A = [1.0, 1.0, 1.0]
LDN_C = [[0.4, 0.6, 0.5], [0.5, 0.4, 0.6], [0.6, 0.5, 0.4]]
LDN_C_VIOLATING = [[0.4, math.sqrt(1.2), 0.5], [math.sqrt(1.2), 0.4, 0.6],
                   [0.6, 0.5, 0.4]]
LDN_R, LDN_HORIZON, LDN_DT = 0.5, 6.0, 1e-3
BIO_TAU, BIO_HORIZON, BIO_DT = 0.1, 60.0, 0.01
ZOH = {"params": {"A_cur": [[0.0, 0.3], [-0.3, 0.0]],
                  "A_hold": [[-1.0, 0.2], [0.1, -1.0]]},
       "h0": 0.2, "jitter": (0.3, 0.5, 0.1), "x0": [2.0, -1.5],
       "horizon": 12.0, "dt": 1e-3}


def sim_ops(vg, rng, work: Path) -> List[Op]:
    M, sim = vg.models, vg.simulate
    ops: List[Op] = []

    def ldn_op(name, c, history, check):
        spec = M.SystemSpec(kind="delay", model="linear_delay_network",
                            params={"a": LDN_A, "c": c, "r": LDN_R,
                                    "coupling": "sign_aligned"})
        hist = np.asarray(history, dtype=float)
        return LibOp(name,
                     lambda: sim.integrate_delay(spec, hist, horizon=LDN_HORIZON,
                                                 dt=LDN_DT),
                     _traj_digest, lambda tr: check(hist, tr.states))

    for k in range(2):
        h = rng.uniform(0.3, 1.0, size=3) * rng.choice([-1.0, 1.0], size=3)
        ops.append(ldn_op(f"ldn-verified{k}", LDN_C, h, checks.check_ldn_verified))
    # pinned: from a smaller history the growth may not show by the horizon
    ops.append(ldn_op("ldn-violating", LDN_C_VIOLATING, np.ones(3),
                      checks.check_ldn_violating))

    params = {"a": [float(v) for v in rng.uniform(0.95, 1.05, size=3)],
              "tau": [BIO_TAU] * 3,
              "g": {"form": "mm", "c": float(rng.uniform(2.8, 3.4)),
                    "K": float(rng.uniform(0.6, 1.0))}}
    bio = M.SystemSpec(kind="delay", model="biochem_circuit", params=params)
    xstar = checks.biochem_equilibrium(params)
    for k in range(2):
        hist = xstar * np.exp(rng.uniform(-1.0, 1.0, size=3))
        ops.append(LibOp(
            f"biochem{k}",
            lambda hist=hist: sim.integrate_delay(bio, hist, horizon=BIO_HORIZON,
                                                  dt=BIO_DT),
            _traj_digest, lambda tr: checks.check_biochem(params, tr.states[-1])))

    amp, freq, phase = ZOH["jitter"]
    zoh = M.SystemSpec(kind="sampled", model="zoh_linear", params=ZOH["params"],
                       h={"kind": "state_norm", "value": ZOH["h0"]},
                       dtilde=vg.signals.Signal(kind="sinusoid", amplitude=amp,
                                                frequency=freq, phase=phase))
    # pinned: the step count of a state-dependent period follows the state
    ops.append(LibOp(
        "zoh-sampled",
        lambda: sim.integrate_sampled(zoh, ZOH["x0"], horizon=ZOH["horizon"],
                                      dt=ZOH["dt"]),
        _traj_digest,
        lambda tr: checks.check_sampled(
            ZOH["h0"], checks.sinusoid(amp, freq, phase), ZOH["horizon"],
            tr.times, tr.states, tr.sampling_times)))
    return ops


IMPL_SAMPLES = 20_000
MATRICES_PER_CASE = 30


def sample_iterate_ops(vg, rng, work: Path) -> List[Op]:
    G_, V, I = vg.network, vg.validate, vg.iteration
    L = vg.gains.Linear
    ops: List[Op] = []

    def lyapunov(a, c, lam, scale):
        n = len(a)
        rows = [[L(scale * c[i][j] ** 2 / (lam * lam * a[i] ** 2)) for j in range(n)]
                for i in range(n)]
        return (V.LyapunovSetup(gains=G_.GainMatrix.from_entries(rows),
                                rho_list=V.ldn_rho(a, lam)),
                vg.models.SystemSpec(kind="delay", model="linear_delay_network",
                                     params={"a": a, "c": c, "r": 0.5}))

    cases = [("scalar", [2.0], [[0.5]], 0.9), ("ldn3", LDN_A, LDN_C, 0.95)]
    for label, a, c, lam in cases:
        for scale in (1.0, 0.1):
            setup, model = lyapunov(a, c, lam, scale)
            seed = int(rng.integers(2 ** 31))
            ops.append(LibOp(
                f"implication-{label}-x{scale:g}",
                lambda setup=setup, model=model, seed=seed: V.check_implication(
                    setup, model, sample_count=IMPL_SAMPLES, seed=seed),
                lambda r: json.dumps(r, sort_keys=True).encode(),
                lambda r, a=a, c=c, lam=lam, scale=scale:
                    checks.check_implication(a, c, lam, scale, r)))

    for n in (2, 3, 4):
        for rho in (0.7, 1.3):
            for k in range(MATRICES_PER_CASE):
                A = rng.uniform(0.1, 1.0, size=(n, n))
                A *= rho / checks.maxtimes_radius(A)
                G = G_.GainMatrix.from_entries(
                    [[L(float(A[i, j])) for j in range(n)] for i in range(n)])
                x0 = rng.uniform(0.5, 2.0, size=n)
                ops.append(LibOp(
                    f"iterate-n{n}-rho{rho}-{k}",
                    lambda G=G, x0=x0: I.iterate(G, x0),
                    lambda r: repr((r.status, r.steps)).encode()
                    + r.iterates[-1].tobytes(),
                    lambda r, A=A: checks.check_iterate(A, r.status)))
                if rho > 1.0:
                    continue
                a = np.exp(rng.uniform(-3.0, 3.0, size=n))
                ops.append(LibOp(
                    f"lfp-n{n}-{k}", lambda G=G, a=a: I.lfp_bound_check(G, a),
                    lambda r: repr(r).encode(),
                    lambda r: [] if r is True else
                    [("lfp", f"lfp_bound_check returned {r!r}")]))
                x = rng.uniform(0.0, 10.0, size=n)
                ops.append(LibOp(
                    f"q-n{n}-{k}", lambda G=G, x=x: G_.q_operator(G, x),
                    lambda r: r.tobytes(),
                    lambda r, A=A, x=x: checks.check_q(A, x, r)))
    return ops


WORKLOADS = {
    "sim": sim_ops,
    "check-sg": check_sg_ops,
    "synth": synth_ops,
    "sample-iterate": sample_iterate_ops,
}
