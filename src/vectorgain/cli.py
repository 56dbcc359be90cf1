"""Command-line entry point.

Subcommands: check-sg, synth, iterate, simulate, validate, repro.  All but
repro take a JSON config (``--input``); all write artifacts into an output
directory (``--out``).

There is one write path.  A subcommand only computes: it returns its exit
code, its report payload, its CSV sidecars and its message.  ``main``
loads the config, resolves the seed, runs the subcommand (a finite escape
becomes an exit-2 report here) and then writes, in this order:
``report.json`` (the payload plus ``"command"``), the sidecars,
``effective_config.json`` (the config as given plus the seed used, so a
run of the same version is reproducible from its artifacts alone) and
``run_meta.json`` (wall-clock metadata, kept apart so the other artifacts
are byte-identical across reruns).  Every target path is checked before
the first write, so a run that fails before this point, or would
overwrite a file without ``--force``, writes nothing and creates no
output directory.

Every config object is read by its table (see :mod:`vectorgain.config`):
``main`` reads the top level, where each command requires the objects it
uses, and ``analysis``, whose one table holds the fields of every
command, so one config serves them all; a command parses ``gains``,
``system`` and ``synthesis`` when it uses them.  An unknown key, a
missing required field or a value of the wrong JSON type is an error
that names the field.

Exit codes: 0 = analysis ran and all verdicts positive, 2 = analysis ran
but a verdict is negative (small gain refuted, iteration not converged,
finite escape, validation failed), 1 = usage or runtime error.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import itertools
import json
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from .config import (
    REQUIRED, Mismatch, anything, array, boolean, integer, number, numbers,
    obj, read,
)
from .gains import MAX_GRID_POINTS, GridSpec, Linear, Zero, gain_from_json
from .iteration import TOL_CONV, iterate
from .models import SystemSpec, spec_from_json
from .network import (
    GainMatrix, check_small_gain, gas_witness_search, matrix_from_json,
)
from .recipes import RECIPES, run_recipe
from .simulate import (
    ConfigError, FiniteEscapeError, SimulationError, Trajectory,
    integrate_delay, integrate_sampled,
)
from .synthesis import SmallGainRequired, SynthesisInput, overall_gain
from .validate import (
    TAIL_FRACTION, TOL_GAIN, TOL_TAIL, InconclusiveError, check_asymptotic_gain,
    check_convergence,
)

__all__ = ["main"]


class CliError(Exception):
    """User-facing error: message printed, exit code 1."""


# a report is written in parts of this many encoder chunks: json.dump makes
# one write per chunk (about 55,000 for a 0.5 MB report), json.dumps holds
# every chunk at once
_JSON_CHUNKS = 4096
_JSON = json.JSONEncoder(indent=2, sort_keys=True)


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
    return cfg


def _write_json(fh, body: Dict) -> None:
    chunks = _JSON.iterencode(body)
    while part := "".join(itertools.islice(chunks, _JSON_CHUNKS)):
        fh.write(part)
    fh.write("\n")


def _parse(field: str, value, parse):
    """parse(value); a field of the wrong shape or JSON type becomes a
    CliError that names the field."""
    try:
        return parse(value)
    except (ValueError, KeyError, TypeError, AttributeError,
            OverflowError) as exc:
        raise CliError(f"config field {field!r}: {exc}")


def _gain(v):
    """Config rule: a gain object."""
    return gain_from_json(obj(v))


def _gain_array(v):
    """Config rule: an array of gain objects."""
    for g in array(v):
        if not isinstance(g, dict):
            raise Mismatch("an object", g, entry=True)
    return tuple(map(gain_from_json, v))


# the config tables: the top level, where main requires the objects that
# _NEEDS names for the command; synthesis; analysis, which holds the
# fields of every command; and its grid
_OBJECTS = ("gains", "system", "synthesis", "analysis")
_NEEDS = {"check-sg": ("gains",), "synth": ("gains", "synthesis"),
          "iterate": ("gains",), "simulate": ("system",),
          "validate": ("system",)}
_SYNTHESIS = (("zeta", _gain, None), ("p", _gain_array, ()),
              ("a1", _gain, None), ("M", number, 1.0))
_ANALYSIS = (
    ("seed", integer, 0), ("grid", obj, None), ("table_points", integer, 121),
    ("x0", numbers, None), ("history", numbers, None),
    ("max_steps", integer, 200), ("tol_conv", number, TOL_CONV),
    ("horizon", number, 10.0), ("dt", number, 1e-3),
    ("tail_fraction", number, TAIL_FRACTION), ("tol_tail", number, TOL_TAIL),
    ("u_sup", number, None), ("tol_gain", number, TOL_GAIN),
    ("require_convergence", boolean, True),
)
_GRID = (("s_min", number, GridSpec.s_min), ("s_max", number, GridSpec.s_max),
         ("points", integer, GridSpec.points))


def _read_config(cfg, command: str) -> Dict:
    """The analysis values of a config, its grid a GridSpec or None, after
    checking the top level."""
    read(cfg, tuple((name, anything,
                     REQUIRED if name in _NEEDS[command] else None)
                    for name in _OBJECTS), "config", error=CliError)
    try:
        # a null analysis field takes its default
        analysis = read(cfg.get("analysis", {}), _ANALYSIS, "analysis",
                        nulls=[name for name, _, _ in _ANALYSIS])
    except ValueError as exc:
        where = "analysis" + (f".{exc.field}" if exc.field else "")
        raise CliError(f"config field {where!r}: {exc}")
    if analysis["grid"] is not None:
        analysis["grid"] = _parse("analysis.grid", analysis["grid"],
                                  lambda g: GridSpec(**read(g, _GRID, "grid")))
    return analysis


def _gains_from_config(cfg: Dict) -> GainMatrix:
    return _parse("gains", cfg["gains"], matrix_from_json)


def _system_from_config(cfg: Dict) -> SystemSpec:
    return _parse("system", cfg["system"], spec_from_json)


def _synthesis_from_config(cfg: Dict, G: GainMatrix) -> SynthesisInput:
    def build(syn) -> SynthesisInput:
        v = read(syn, _SYNTHESIS, "synthesis")
        return SynthesisInput(
            gains=G, zeta=v["zeta"] or Zero(),
            p_list=v["p"] or tuple(Zero() for _ in range(G.n)),
            a1=v["a1"] or Linear(1.0 / (2.0 * G.n)), M=v["M"])

    return _parse("synthesis", cfg["synthesis"], build)


# ---------------------------------------------------------------------------
# subcommands; each takes the config, its analysis values, the seed and the
# output directory (named in messages only) and returns (exit code, report
# payload, {sidecar name: lines}, message), which main writes and prints
# ---------------------------------------------------------------------------

_Result = Tuple[int, Dict, Dict[str, Iterable[str]], str]


def _cmd_check_sg(cfg: Dict, analysis: Dict, seed: int, out: Path) -> _Result:
    G = _gains_from_config(cfg)
    report = check_small_gain(G, analysis["grid"])
    payload = {"small_gain": report.to_json()}
    if not report.holds:
        witness = gas_witness_search(G, seed=seed, report=report)
        if witness is not None:
            payload["gas_witness"] = [float(v) for v in witness]
    return (0 if report.holds else 2), payload, {}, report.table()


def _cmd_synth(cfg: Dict, analysis: Dict, seed: int, out: Path) -> _Result:
    G = _gains_from_config(cfg)
    inp = _synthesis_from_config(cfg, G)
    points = analysis["table_points"]
    if not 0 <= points <= MAX_GRID_POINTS:
        raise CliError(f"config field 'analysis.table_points': must be 0 to "
                       f"{MAX_GRID_POINTS}, got {points}")
    report = check_small_gain(G, analysis["grid"])
    if not report.holds:
        return 2, {"status": "small-gain-refuted",
                   "small_gain": report.to_json()}, {}, report.table()
    comp = overall_gain(inp, report)
    rows = ["s,theta,overall"]
    for s in np.logspace(-6, 6, points):
        s = float(s)
        theta = comp.theta(s)
        rows.append(f"{s!r},{theta!r},{comp.overall.inverse_at(theta)!r}")
    payload = {"status": "synthesized", "small_gain": report.to_json(),
               "composite": comp.to_json()}
    return 0, payload, {"gain_table.csv": rows}, (
        f"synthesized composite gain over {G.n} nodes; "
        f"table in {out / 'gain_table.csv'}")


def _cmd_iterate(cfg: Dict, analysis: Dict, seed: int, out: Path) -> _Result:
    G = _gains_from_config(cfg)
    if analysis["x0"] is None:
        raise CliError("iterate needs analysis.x0 (initial vector)")
    try:
        res = iterate(G, analysis["x0"], max_steps=analysis["max_steps"],
                      tol_conv=analysis["tol_conv"])
    except ValueError as exc:
        raise CliError(str(exc))
    rows = ["k," + ",".join(f"x{i+1}" for i in range(G.n))]
    for k, x in enumerate(res.iterates):
        rows.append(f"{k}," + ",".join(repr(float(v)) for v in x))
    payload = {"status": res.status, "steps": res.steps,
               "final": [float(v) for v in res.iterates[-1]],
               "sup_norms": [float(v) for v in res.sup_norm_trace]}
    return (0 if res.status == "converged" else 2), payload, \
        {"iterates.csv": rows}, f"iteration {res.status} after {res.steps} steps"


# what a run of each kind starts from, as named when it is missing
_START = {"ode": "x0 for an ODE model",
          "delay": "history (or x0) for a delay model",
          "sampled": "x0 for a sampled model"}


def _run_simulation(spec: SystemSpec, analysis: Dict) -> Trajectory:
    horizon, dt, start = analysis["horizon"], analysis["dt"], analysis["x0"]
    if spec.kind == "delay" and analysis["history"] is not None:
        start = analysis["history"]
    if start is None:
        raise CliError(f"simulate needs analysis.{_START[spec.kind]}")
    try:
        if spec.kind == "sampled":
            return integrate_sampled(spec, start, horizon=horizon, dt=dt)
        return integrate_delay(spec, start, horizon=horizon, dt=dt)
    except ConfigError as exc:
        raise CliError(str(exc))


def _trajectory_files(traj: Trajectory) -> Dict[str, Iterable[str]]:
    files = {"trajectory.csv": traj.csv_rows()}
    if traj.sampling_times is not None:
        files["sampling_times.csv"] = \
            ["tau"] + [repr(float(t)) for t in traj.sampling_times]
    return files


def _cmd_simulate(cfg: Dict, analysis: Dict, seed: int, out: Path) -> _Result:
    traj = _run_simulation(_system_from_config(cfg), analysis)
    final = traj.states[-1]
    sup = float(np.max(np.abs(final)))
    payload = {"status": "completed", "t_final": float(traj.times[-1]),
               "final_state": [float(v) for v in final],
               "final_sup_norm": sup}
    return 0, payload, _trajectory_files(traj), \
        f"simulated to t = {traj.times[-1]:g}; final sup-norm {sup:.3e}"


def _cmd_validate(cfg: Dict, analysis: Dict, seed: int, out: Path) -> _Result:
    spec = _system_from_config(cfg)
    tail_fraction, u_sup = analysis["tail_fraction"], analysis["u_sup"]
    traj = _run_simulation(spec, analysis)
    try:
        conv = check_convergence(traj, tol_tail=analysis["tol_tail"],
                                 tail_fraction=tail_fraction)
    except InconclusiveError as exc:
        raise CliError(str(exc))
    payload: Dict = {"convergence": conv}
    lines = [f"channel {k + 1}: {c['status']} (tail sup {c['tail_sup']:.3e})"
             for k, c in enumerate(conv)]
    ok = (not analysis["require_convergence"]
          or all(c["status"] == "converged" for c in conv))
    if "gains" in cfg and "synthesis" in cfg and u_sup is not None:
        G = _gains_from_config(cfg)
        inp = _synthesis_from_config(cfg, G)
        report = check_small_gain(G, analysis["grid"])
        try:
            comp = overall_gain(inp, report)
        except SmallGainRequired as exc:
            raise CliError(str(exc))
        ag = check_asymptotic_gain(traj, comp.gmap, u_sup,
                                   tol_gain=analysis["tol_gain"],
                                   tail_fraction=tail_fraction)
        payload["asymptotic_gain"] = ag
        ok = ok and all(e["status"] == "satisfied" for e in ag)
        lines += [f"gain bound {k + 1}: {e['status']}"
                  for k, e in enumerate(ag)]
    payload["status"] = "passed" if ok else "failed"
    return (0 if ok else 2), payload, _trajectory_files(traj), \
        "\n".join(lines + [f"overall: {payload['status']}"])


def _cmd_repro(cfg: Dict, analysis: Dict, seed: Optional[int],
               out: Path) -> _Result:
    name = cfg["recipe"]
    result = run_recipe(name, seed=seed)
    verdict = "PASS" if result["passed"] else "FAIL"
    return (0 if result["passed"] else 2), {"recipe": name, **result}, {}, \
        f"repro {name}: {verdict}"


# ---------------------------------------------------------------------------

@functools.cache  # built on the first call, not at import
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
    """Run one command; argv defaults to the process's arguments."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "repro":
            cfg, analysis, seed = {"recipe": args.name}, {}, args.seed
        else:
            cfg = _load_config(args.input)
            analysis = _read_config(cfg, args.command)
            seed = args.seed if args.seed is not None else analysis["seed"]
        out = Path(args.out)
        try:
            code, payload, sidecars, message = _DISPATCH[args.command](
                cfg, analysis, seed, out)
        except FiniteEscapeError as exc:
            code, payload, sidecars = 2, {"status": "finite-escape",
                                          "escape_time": exc.time}, {}
            message = f"finite escape at t = {exc.time:g}"
        files = {
            "report.json": {"command": args.command, **payload}, **sidecars,
            "effective_config.json": {"command": args.command, "config": cfg,
                                      "seed": seed},
            "run_meta.json": {"timestamp": datetime.datetime.now(
                datetime.timezone.utc).isoformat(), "argv": argv}}
        for path in (out / name for name in files):
            if path.exists() and not args.force:
                raise CliError(f"refusing to overwrite {path}; pass --force")
        out.mkdir(parents=True, exist_ok=True)
        for name, body in files.items():
            with (out / name).open("w") as fh:
                if isinstance(body, dict):
                    _write_json(fh, body)
                else:
                    fh.writelines(line + "\n" for line in body)
        print(message)
        return code
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (SimulationError, ValueError) as exc:
        print(f"error ({args.command}): {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
