"""Compare the output of every benchmark op between two source trees.

    python3 tools/op_digests.py OLD_SRC NEW_SRC [--seeds 0 7 201]
                                [--workload W ...]

OLD_SRC and NEW_SRC are ``src/`` directories, each holding a ``vectorgain``
package.  Each tree runs in its own process, which imports the package from
that tree and runs every op of ``vgbench/workloads.py`` (the workload
definitions of this checkout) once per workload and seed, recording the
op's ``Op.digest`` (for a CLI op: exit code, stdout and every artifact but
``run_meta.json``) and the number of problems its check finds.
``--workload W``, which may be repeated, restricts both trees to the named
workloads of ``BENCHMARK.json``; by default all of them run.  The two
trees run one after the other in the same work directory, since ``synth``
prints its output directory and so a different path changes its digest.

Prints one line per op whose digest differs, whose check fails on either
side, or that is missing on one side, then a summary line.  Exits 0 when
every op gives the same digest on both trees and no check fails, else 1.
"""

from __future__ import annotations

import argparse
import importlib
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
VGBENCH = ROOT / "vgbench"
WORKLOADS = [w["name"] for w in
             json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def emit(src: Path, seeds, workloads, work: Path) -> None:
    """Run every op of the named workloads against the package in src;
    print one JSON line each."""
    sys.path[:0] = [str(src), str(VGBENCH)]
    import numpy as np
    from workloads import WORKLOADS as BUILD

    vg = importlib.import_module("vectorgain")
    importlib.import_module("vectorgain.cli")
    if Path(vg.__file__).resolve().parent.parent != src:
        raise ImportError(f"vectorgain imported from {vg.__file__}, not {src}")
    for workload in workloads:
        build = BUILD[workload]
        for seed in seeds:
            where = work / f"{workload}-{seed}"
            shutil.rmtree(where, ignore_errors=True)
            where.mkdir(parents=True)
            for op in build(vg, np.random.default_rng(seed), where):
                op.prepare()
                try:
                    result = op.run()
                    digest = op.digest(result)
                    problems = len(op.check(result))
                except Exception as exc:  # a fault of the program: report it
                    digest, problems = f"{type(exc).__name__}: {exc}", 1
                print(json.dumps({"op": f"{workload}/{seed}/{op.name}",
                                  "digest": digest, "problems": problems}),
                      flush=True)
            shutil.rmtree(where, ignore_errors=True)


def collect(src: Path, seeds, workloads, work: Path) -> dict:
    cmd = [sys.executable, __file__, "--emit", str(src), "--work", str(work),
           "--seeds", *map(str, seeds)]
    for workload in workloads:
        cmd += ["--workload", workload]
    out = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True)
    rows = (json.loads(line) for line in out.stdout.splitlines())
    return {row["op"]: row for row in rows}


def compare(old: dict, new: dict) -> int:
    bad = 0
    for op in list(old) + [op for op in new if op not in old]:
        a, b = old.get(op), new.get(op)
        if a is None or b is None:
            why = "missing in " + ("OLD" if a is None else "NEW")
        elif a["digest"] != b["digest"]:
            why = "digest differs"
        elif a["problems"] or b["problems"]:
            why = (f"check problems: OLD {a['problems']}, "
                   f"NEW {b['problems']}")
        else:
            continue
        bad += 1
        print(f"{op}: {why}")
    print(f"{len(old)} ops OLD, {len(new)} ops NEW, {bad} differ or fail")
    return 0 if bad == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", nargs="*", type=Path, metavar="SRC",
                        help="the OLD and the NEW src/ directory")
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 7, 201])
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="run only this workload (repeatable; "
                             "default: all)")
    parser.add_argument("--emit", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--work", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    workloads = args.workload or WORKLOADS
    if args.emit is not None:
        emit(args.emit.resolve(), args.seeds, workloads, args.work)
        return 0
    if len(args.trees) != 2:
        parser.error("give two src/ directories, OLD and NEW")
    with tempfile.TemporaryDirectory(prefix="op-digests-") as tmp:
        work = Path(tmp)
        old, new = (collect(src.resolve(), args.seeds, workloads, work)
                    for src in args.trees)
        return compare(old, new)


if __name__ == "__main__":
    sys.exit(main())
