"""Command-line entry point.

Subcommands: check-sg, synth, iterate, simulate, validate, repro.  All
take a JSON config (``--input``) and write artifacts into an output
directory (``--out``): ``report.json`` with the verdicts, CSV sidecars
where trajectories or tables are produced, and ``effective_config.json``
with every default resolved so a run is reproducible from its artifacts
alone.  Wall-clock metadata goes to ``run_meta.json`` so the reports stay
byte-identical across reruns.

Exit codes: 0 = analysis ran and all verdicts positive, 2 = analysis ran
but a verdict is negative (small gain refuted, iteration not converged,
finite escape, validation failed), 1 = usage or runtime error.
"""

from __future__ import annotations

import argparse
import datetime
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from .gains import GridSpec, Linear, Zero, gain_from_json
from .iteration import TOL_CONV, iterate
from .models import SystemSpec, spec_from_json
from .network import (
    GainMatrix, check_small_gain, gas_witness_search, matrix_from_json,
)
from .recipes import RECIPES, run_recipe
from .simulate import (
    ConfigError, FiniteEscapeError, SimulationError, Trajectory,
    integrate_delay, integrate_ode, integrate_sampled,
)
from .synthesis import SmallGainRequired, SynthesisInput, overall_gain
from .validate import (
    TAIL_FRACTION, TOL_GAIN, TOL_TAIL, InconclusiveError, check_asymptotic_gain,
    check_convergence, quadratic_channels,
)

__all__ = ["main"]


class CliError(Exception):
    """User-facing error: message printed, exit code 1."""


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------

def _load_config(path: str) -> Dict:
    p = Path(path)
    if not p.is_file():
        raise CliError(f"input file not found: {path}")
    try:
        with p.open() as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as exc:
        raise CliError(f"{path}: invalid JSON at line {exc.lineno}, "
                       f"column {exc.colno}: {exc.msg}")
    except RecursionError:
        raise CliError(f"{path}: JSON nested too deeply to decode")
    if not isinstance(cfg, dict):
        raise CliError(f"{path}: top level must be a JSON object")
    return cfg


def _require(cfg: Dict, field: str) -> Dict:
    if field not in cfg:
        raise CliError(f"config is missing the required field {field!r}")
    return cfg[field]


def _gains_from_config(cfg: Dict) -> GainMatrix:
    try:
        return matrix_from_json(_require(cfg, "gains"))
    except (ValueError, KeyError) as exc:
        raise CliError(f"config field 'gains': {exc}")


def _system_from_config(cfg: Dict) -> SystemSpec:
    try:
        return spec_from_json(_require(cfg, "system"))
    except (ValueError, KeyError) as exc:
        raise CliError(f"config field 'system': {exc}")


def _synthesis_from_config(cfg: Dict, G: GainMatrix) -> SynthesisInput:
    syn = _require(cfg, "synthesis")
    try:
        zeta = gain_from_json(syn["zeta"]) if "zeta" in syn else Zero()
        p_raw = syn.get("p", [])
        p_list = tuple(gain_from_json(d) for d in p_raw) if p_raw \
            else tuple(Zero() for _ in range(G.n))
        a1 = gain_from_json(syn["a1"]) if "a1" in syn \
            else Linear(1.0 / (2.0 * G.n))
        return SynthesisInput(gains=G, zeta=zeta, p_list=p_list, a1=a1,
                              M=float(syn.get("M", 1.0)))
    except (ValueError, KeyError) as exc:
        raise CliError(f"config field 'synthesis': {exc}")


class _Out:
    """Output directory with overwrite protection and JSON/CSV writers."""

    def __init__(self, path: str, force: bool):
        self.dir = Path(path)
        self.force = force
        self.dir.mkdir(parents=True, exist_ok=True)

    def _target(self, name: str) -> Path:
        p = self.dir / name
        if p.exists() and not self.force:
            raise CliError(f"refusing to overwrite {p}; pass --force")
        return p

    def write_json(self, name: str, payload: Dict) -> None:
        with self._target(name).open("w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")

    def write_lines(self, name: str, lines) -> None:
        with self._target(name).open("w") as fh:
            for line in lines:
                fh.write(line + "\n")


def _emit_common(out: _Out, command: str, cfg: Dict,
                 seed: Optional[int]) -> None:
    out.write_json("effective_config.json",
                   {"command": command, "config": cfg, "seed": seed})
    out.write_json("run_meta.json", {
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "argv": sys.argv[1:],
    })


def _analysis(cfg: Dict) -> Dict:
    a = cfg.get("analysis", {})
    if not isinstance(a, dict):
        raise CliError("config field 'analysis' must be an object")
    return a


def _resolve_seed(args, analysis: Dict) -> int:
    if args.seed is not None:
        return args.seed
    return int(analysis.get("seed", 0))


def _grid_from_analysis(analysis: Dict) -> Optional[GridSpec]:
    g = analysis.get("grid")
    if g is None:
        return None
    return GridSpec(s_min=float(g.get("s_min", 1e-12)),
                    s_max=float(g.get("s_max", 1e12)),
                    points=int(g.get("points", 2048)))


# ---------------------------------------------------------------------------
# subcommands; each returns the process exit code
# ---------------------------------------------------------------------------

def _cmd_check_sg(args) -> int:
    cfg = _load_config(args.input)
    analysis = _analysis(cfg)
    G = _gains_from_config(cfg)
    report = check_small_gain(G, _grid_from_analysis(analysis))
    payload = {"command": "check-sg", "small_gain": report.to_json()}
    if not report.holds:
        witness = gas_witness_search(G, seed=_resolve_seed(args, analysis),
                                     report=report)
        if witness is not None:
            payload["gas_witness"] = [float(v) for v in witness]
    out = _Out(args.out, args.force)
    out.write_json("report.json", payload)
    _emit_common(out, "check-sg", cfg, _resolve_seed(args, analysis))
    print(report.table())
    return 0 if report.holds else 2


def _cmd_synth(args) -> int:
    cfg = _load_config(args.input)
    analysis = _analysis(cfg)
    G = _gains_from_config(cfg)
    inp = _synthesis_from_config(cfg, G)
    out = _Out(args.out, args.force)
    report = check_small_gain(G, _grid_from_analysis(analysis))
    if not report.holds:
        out.write_json("report.json", {
            "command": "synth", "status": "small-gain-refuted",
            "small_gain": report.to_json()})
        _emit_common(out, "synth", cfg, _resolve_seed(args, analysis))
        print(report.table())
        return 2
    comp = overall_gain(inp, report)
    out.write_json("report.json", {
        "command": "synth", "status": "synthesized",
        "small_gain": report.to_json(), "composite": comp.to_json()})
    samples = np.logspace(-6, 6, int(analysis.get("table_points", 121)))
    rows = ["s,theta,overall"]
    for s in samples:
        s = float(s)
        theta = comp.theta(s)
        rows.append(f"{s!r},{theta!r},{comp.overall.inverse_at(theta)!r}")
    out.write_lines("gain_table.csv", rows)
    _emit_common(out, "synth", cfg, _resolve_seed(args, analysis))
    print(f"synthesized composite gain over {G.n} nodes; "
          f"table in {out.dir / 'gain_table.csv'}")
    return 0


def _cmd_iterate(args) -> int:
    cfg = _load_config(args.input)
    analysis = _analysis(cfg)
    G = _gains_from_config(cfg)
    x0 = analysis.get("x0")
    if x0 is None:
        raise CliError("iterate needs analysis.x0 (initial vector)")
    try:
        res = iterate(G, np.asarray(x0, dtype=float),
                      max_steps=int(analysis.get("max_steps", 200)),
                      tol_conv=float(analysis.get("tol_conv", TOL_CONV)))
    except ValueError as exc:
        raise CliError(str(exc))
    out = _Out(args.out, args.force)
    out.write_json("report.json", {
        "command": "iterate", "status": res.status, "steps": res.steps,
        "final": [float(v) for v in res.iterates[-1]],
        "sup_norms": [float(v) for v in res.sup_norm_trace]})
    rows = ["k," + ",".join(f"x{i+1}" for i in range(G.n))]
    for k, x in enumerate(res.iterates):
        rows.append(f"{k}," + ",".join(repr(float(v)) for v in x))
    out.write_lines("iterates.csv", rows)
    _emit_common(out, "iterate", cfg, _resolve_seed(args, analysis))
    print(f"iteration {res.status} after {res.steps} steps")
    return 0 if res.status == "converged" else 2


def _run_simulation(spec: SystemSpec, analysis: Dict) -> Trajectory:
    horizon = float(analysis.get("horizon", 10.0))
    dt = float(analysis.get("dt", 1e-3))
    try:
        if spec.kind == "ode":
            x0 = analysis.get("x0")
            if x0 is None:
                raise CliError("simulate needs analysis.x0 for an ODE model")
            return integrate_ode(spec, x0, horizon=horizon, dt=dt)
        if spec.kind == "delay":
            hist = analysis.get("history", analysis.get("x0"))
            if hist is None:
                raise CliError(
                    "simulate needs analysis.history (or x0) for a delay model")
            return integrate_delay(spec, np.asarray(hist, dtype=float),
                                   horizon=horizon, dt=dt)
        x0 = analysis.get("x0")
        if x0 is None:
            raise CliError("simulate needs analysis.x0 for a sampled model")
        return integrate_sampled(spec, x0, horizon=horizon, dt=dt)
    except ConfigError as exc:
        raise CliError(str(exc))


def _emit_trajectory(out: _Out, traj: Trajectory) -> None:
    out.write_lines("trajectory.csv", traj.csv_rows())
    if traj.sampling_times is not None:
        out.write_lines("sampling_times.csv",
                        ["tau"] + [repr(float(t)) for t in traj.sampling_times])


def _cmd_simulate(args) -> int:
    cfg = _load_config(args.input)
    analysis = _analysis(cfg)
    spec = _system_from_config(cfg)
    out = _Out(args.out, args.force)
    seed = _resolve_seed(args, analysis)
    try:
        traj = _run_simulation(spec, analysis)
    except FiniteEscapeError as exc:
        out.write_json("report.json", {
            "command": "simulate", "status": "finite-escape",
            "escape_time": exc.time})
        _emit_common(out, "simulate", cfg, seed)
        print(f"finite escape at t = {exc.time:g}")
        return 2
    final = traj.states[-1]
    out.write_json("report.json", {
        "command": "simulate", "status": "completed",
        "t_final": float(traj.times[-1]),
        "final_state": [float(v) for v in final],
        "final_sup_norm": float(np.max(np.abs(final)))})
    _emit_trajectory(out, traj)
    _emit_common(out, "simulate", cfg, seed)
    print(f"simulated to t = {traj.times[-1]:g}; "
          f"final sup-norm {np.max(np.abs(final)):.3e}")
    return 0


def _cmd_validate(args) -> int:
    cfg = _load_config(args.input)
    analysis = _analysis(cfg)
    spec = _system_from_config(cfg)
    out = _Out(args.out, args.force)
    seed = _resolve_seed(args, analysis)
    payload: Dict = {"command": "validate"}
    ok = True
    try:
        traj = _run_simulation(spec, analysis)
    except FiniteEscapeError as exc:
        out.write_json("report.json", {
            "command": "validate", "status": "finite-escape",
            "escape_time": exc.time})
        _emit_common(out, "validate", cfg, seed)
        print(f"finite escape at t = {exc.time:g}")
        return 2
    channels = quadratic_channels(traj.n)
    tail_fraction = float(analysis.get("tail_fraction", TAIL_FRACTION))
    try:
        conv = check_convergence(
            traj, channels, tol_tail=float(analysis.get("tol_tail", TOL_TAIL)),
            tail_fraction=tail_fraction)
    except InconclusiveError as exc:
        raise CliError(str(exc))
    payload["convergence"] = conv
    lines = [f"channel {k + 1}: {c['status']} (tail sup {c['tail_sup']:.3e})"
             for k, c in enumerate(conv)]
    if analysis.get("require_convergence", True):
        ok = ok and all(c["status"] == "converged" for c in conv)
    if "gains" in cfg and "synthesis" in cfg and "u_sup" in analysis:
        G = _gains_from_config(cfg)
        inp = _synthesis_from_config(cfg, G)
        report = check_small_gain(G, _grid_from_analysis(analysis))
        try:
            comp = overall_gain(inp, report)
        except SmallGainRequired as exc:
            raise CliError(str(exc))
        ag = check_asymptotic_gain(
            traj, channels, comp.gmap, float(analysis["u_sup"]),
            tol_gain=float(analysis.get("tol_gain", TOL_GAIN)),
            tail_fraction=tail_fraction)
        payload["asymptotic_gain"] = ag
        ok = ok and all(e["status"] == "satisfied" for e in ag)
        lines += [f"gain bound {k + 1}: {e['status']}"
                  for k, e in enumerate(ag)]
    payload["status"] = "passed" if ok else "failed"
    out.write_json("report.json", payload)
    _emit_trajectory(out, traj)
    _emit_common(out, "validate", cfg, seed)
    print("\n".join(lines + [f"overall: {payload['status']}"]))
    return 0 if ok else 2


def _cmd_repro(args) -> int:
    try:
        result = run_recipe(args.name, seed=args.seed)
    except KeyError as exc:
        raise CliError(exc.args[0])
    out = _Out(args.out, args.force)
    out.write_json("report.json", {"command": "repro", "recipe": args.name,
                                   **result})
    _emit_common(out, "repro", {"recipe": args.name}, args.seed)
    print(f"repro {args.name}: {'PASS' if result['passed'] else 'FAIL'}")
    return 0 if result["passed"] else 2


# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vectorgain",
        description="Cyclic small-gain verification, composite gain "
                    "synthesis and trajectory validation for interconnected "
                    "systems.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_input=True):
        if needs_input:
            p.add_argument("--input", required=True,
                           help="JSON config file")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="seed overriding analysis.seed")
        p.add_argument("--force", action="store_true",
                       help="overwrite existing output files")

    common(sub.add_parser("check-sg", help="verify the cyclic small-gain "
                                           "condition of a gain matrix"))
    common(sub.add_parser("synth", help="synthesize the composite "
                                        "closed-loop gain"))
    common(sub.add_parser("iterate", help="iterate the induced discrete map"))
    common(sub.add_parser("simulate", help="integrate a system model"))
    common(sub.add_parser("validate", help="simulate and check convergence "
                                           "and gain bounds"))
    repro = sub.add_parser("repro", help="run a pinned reproduction recipe")
    repro.add_argument("name", choices=sorted(RECIPES),
                       help="recipe name")
    common(repro, needs_input=False)
    return parser


_DISPATCH = {
    "check-sg": _cmd_check_sg,
    "synth": _cmd_synth,
    "iterate": _cmd_iterate,
    "simulate": _cmd_simulate,
    "validate": _cmd_validate,
    "repro": _cmd_repro,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (SimulationError, ValueError) as exc:
        print(f"error ({args.command}): {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
