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
output directory.  Every ``analysis`` field is read by ``_field``, by the
JSON type rules of gain configs, so a value of the wrong type is an error
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

from .gains import (
    MAX_GRID_POINTS, GridSpec, Linear, Zero, _describe_json, _json_array,
    _json_number, gain_from_json,
)
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
    if not isinstance(cfg, dict):
        raise CliError(f"{path}: top level must be a JSON object")
    return cfg


def _write_json(fh, body: Dict) -> None:
    chunks = _JSON.iterencode(body)
    while part := "".join(itertools.islice(chunks, _JSON_CHUNKS)):
        fh.write(part)
    fh.write("\n")


def _require(cfg: Dict, field: str) -> Dict:
    if field not in cfg:
        raise CliError(f"config is missing the required field {field!r}")
    return cfg[field]


def _parse(field: str, value, parse):
    """parse(value); a field of the wrong shape or JSON type becomes a
    CliError that names the field."""
    try:
        return parse(value)
    except (ValueError, KeyError, TypeError, AttributeError,
            OverflowError) as exc:
        raise CliError(f"config field {field!r}: {exc}")


def _gains_from_config(cfg: Dict) -> GainMatrix:
    return _parse("gains", _require(cfg, "gains"), matrix_from_json)


def _system_from_config(cfg: Dict) -> SystemSpec:
    return _parse("system", _require(cfg, "system"), spec_from_json)


def _synthesis_from_config(cfg: Dict, G: GainMatrix) -> SynthesisInput:
    def build(syn: Dict) -> SynthesisInput:
        zeta = gain_from_json(syn["zeta"]) if "zeta" in syn else Zero()
        p_raw = syn.get("p", [])
        p_list = tuple(gain_from_json(d) for d in p_raw) if p_raw \
            else tuple(Zero() for _ in range(G.n))
        a1 = gain_from_json(syn["a1"]) if "a1" in syn \
            else Linear(1.0 / (2.0 * G.n))
        return SynthesisInput(gains=G, zeta=zeta, p_list=p_list, a1=a1,
                              M=_json_number(syn.get("M", 1.0), "M"))

    return _parse("synthesis", _require(cfg, "synthesis"), build)


def _analysis(cfg: Dict) -> Dict:
    a = cfg.get("analysis", {})
    if not isinstance(a, dict):
        raise CliError("config field 'analysis' must be an object")
    return a


def _real(value) -> float:
    return _json_number(value, "value")


def _integer(value) -> int:
    return _json_number(value, "value", integer=True)


def _boolean(value) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"value must be true or false, "
                         f"got {_describe_json(value)}")
    return value


def _vector(value) -> np.ndarray:
    """A JSON number, or nested arrays of them, as a float array."""
    return _json_array(value, "each entry")


def _field(analysis: Dict, name: str, default=None, parse=_real):
    """analysis[name] read by parse (_real, _integer, _boolean or _vector),
    default when absent or null; a value parse rejects is a CliError naming
    the field."""
    value = analysis.get(name)
    return default if value is None else _parse(f"analysis.{name}", value, parse)


def _grid_from_analysis(analysis: Dict) -> Optional[GridSpec]:
    g = analysis.get("grid")
    if g is None:
        return None
    d = GridSpec()
    return _parse("analysis.grid", g, lambda g: GridSpec(
        s_min=_json_number(g.get("s_min", d.s_min), "s_min"),
        s_max=_json_number(g.get("s_max", d.s_max), "s_max"),
        points=_json_number(g.get("points", d.points), "points",
                            integer=True)))


# ---------------------------------------------------------------------------
# subcommands; each takes the config, its analysis object, the seed and the
# output directory (named in messages only) and returns (exit code, report
# payload, {sidecar name: lines}, message), which main writes and prints
# ---------------------------------------------------------------------------

_Result = Tuple[int, Dict, Dict[str, Iterable[str]], str]


def _cmd_check_sg(cfg: Dict, analysis: Dict, seed: int, out: Path) -> _Result:
    G = _gains_from_config(cfg)
    report = check_small_gain(G, _grid_from_analysis(analysis))
    payload = {"small_gain": report.to_json()}
    if not report.holds:
        witness = gas_witness_search(G, seed=seed, report=report)
        if witness is not None:
            payload["gas_witness"] = [float(v) for v in witness]
    return (0 if report.holds else 2), payload, {}, report.table()


def _table_points(value) -> int:
    points = _integer(value)
    if not 0 <= points <= MAX_GRID_POINTS:
        raise ValueError(f"must be 0 to {MAX_GRID_POINTS}, got {points}")
    return points


def _cmd_synth(cfg: Dict, analysis: Dict, seed: int, out: Path) -> _Result:
    G = _gains_from_config(cfg)
    inp = _synthesis_from_config(cfg, G)
    points = _field(analysis, "table_points", 121, _table_points)
    report = check_small_gain(G, _grid_from_analysis(analysis))
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
    x0 = _field(analysis, "x0", parse=_vector)
    if x0 is None:
        raise CliError("iterate needs analysis.x0 (initial vector)")
    max_steps = _field(analysis, "max_steps", 200, _integer)
    tol_conv = _field(analysis, "tol_conv", TOL_CONV)
    try:
        res = iterate(G, x0, max_steps=max_steps, tol_conv=tol_conv)
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
    horizon = _field(analysis, "horizon", 10.0)
    dt = _field(analysis, "dt", 1e-3)
    start = _field(analysis, "x0", parse=_vector)
    if spec.kind == "delay":
        start = _field(analysis, "history", start, _vector)
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
    tail_fraction = _field(analysis, "tail_fraction", TAIL_FRACTION)
    tol_tail = _field(analysis, "tol_tail", TOL_TAIL)
    tol_gain = _field(analysis, "tol_gain", TOL_GAIN)
    u_sup = _field(analysis, "u_sup")
    require = _field(analysis, "require_convergence", True, _boolean)
    traj = _run_simulation(spec, analysis)
    try:
        conv = check_convergence(traj, tol_tail=tol_tail,
                                 tail_fraction=tail_fraction)
    except InconclusiveError as exc:
        raise CliError(str(exc))
    payload: Dict = {"convergence": conv}
    lines = [f"channel {k + 1}: {c['status']} (tail sup {c['tail_sup']:.3e})"
             for k, c in enumerate(conv)]
    ok = not require or all(c["status"] == "converged" for c in conv)
    if "gains" in cfg and "synthesis" in cfg and u_sup is not None:
        G = _gains_from_config(cfg)
        inp = _synthesis_from_config(cfg, G)
        report = check_small_gain(G, _grid_from_analysis(analysis))
        try:
            comp = overall_gain(inp, report)
        except SmallGainRequired as exc:
            raise CliError(str(exc))
        ag = check_asymptotic_gain(traj, comp.gmap, u_sup, tol_gain=tol_gain,
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
            analysis = _analysis(cfg)
            seed = args.seed if args.seed is not None \
                else _field(analysis, "seed", 0, _integer)
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
