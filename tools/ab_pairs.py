"""Time two checkouts against each other on one benchmark workload.

    python3 tools/ab_pairs.py OLD_ROOT NEW_ROOT --workload W --pairs N

OLD_ROOT and NEW_ROOT are checkouts of this repository, each with its own
``vgbench/run.py`` and ``src/``.  Each pair runs the workload once on each
tree, one after the other, in a fresh process; which side runs first
alternates from pair to pair, so a slow stretch of a shared host falls on
both sides alike.  Every run takes the ``run_seconds`` of ``BENCHMARK.json``
and ``run.py``'s default seed, as the benchmark does.

For every end-to-end metric of ``BENCHMARK.json`` this prints each side's
median and quartiles over the N runs and the number of pairs NEW wins, ties
counting for neither side.  A gain holds when NEW wins at least nine tenths
of the pairs and the medians differ, in NEW's favour, by more than the
distance between OLD's quartiles.  The mirror rule marks a metric ``worse``:
OLD wins at least nine tenths of the pairs and the medians differ, in OLD's
favour, by more than the distance between NEW's quartiles.  A run with
failed ops or wrong output is reported, and so is a run that exits non-zero
(its side, pair and exit code; that pair is left out of the statistics and
wins for neither side).  The exit code is 1 if any run had one, else 0.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent


def run_once(root: Path, workload: str, seconds: float
             ) -> tuple[int, Optional[dict]]:
    """One benchmark run of the tree at root: its exit code and, when that
    is 0, its final JSON line."""
    cmd = [sys.executable, str(root / "vgbench" / "run.py"), "--workload",
           workload, "--seconds", str(seconds)]
    out = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    if out.returncode:
        return out.returncode, None
    return 0, json.loads(out.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path, metavar="OLD_ROOT")
    parser.add_argument("new", type=Path, metavar="NEW_ROOT")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    roots = {"OLD": args.old.resolve(), "NEW": args.new.resolve()}

    runs = {"OLD": [], "NEW": []}
    bad = 0
    for pair in range(args.pairs):
        order = ("OLD", "NEW") if pair % 2 == 0 else ("NEW", "OLD")
        done = {}
        for side in order:
            code, res = run_once(roots[side], args.workload, seconds)
            if res is None:
                bad += 1
                print(f"pair {pair + 1} {side}: run.py exited with code {code}")
                continue
            done[side] = res
            if res["failed"] or not res["correct"]:
                bad += 1
                print(f"pair {pair + 1} {side}: {res['failed']} of "
                      f"{res['attempted']} ops failed, correct = "
                      f"{res['correct']}")
        if len(done) < 2:
            continue
        for side, res in done.items():
            runs[side].append(res)
        shown = "  ".join(side + "".join(
            f" {name}={done[side]['metrics'][name]['value']:.4g}"
            for name in metrics) for side in ("OLD", "NEW"))
        print(f"pair {pair + 1} ({order[0]} first): {shown}", flush=True)

    complete = len(runs["OLD"])
    print(f"\n{args.workload}: {args.pairs} pairs, {complete} complete, "
          f"{seconds:g} s runs")
    if complete < 2:
        print("fewer than 2 complete pairs: no statistics")
        return 1
    print(f"{'metric':<14}{'OLD median [q1, q3]':>30}"
          f"{'NEW median [q1, q3]':>30}{'NEW wins':>10}{'OLD wins':>10}"
          "  gain   worse")
    need = math.ceil(0.9 * args.pairs)
    for name, spec in metrics.items():
        sign = 1.0 if spec["better"] == "lower" else -1.0
        vals = {side: [r["metrics"][name]["value"] for r in runs[side]]
                for side in runs}
        diffs = [sign * (o - n) for o, n in zip(vals["OLD"], vals["NEW"])]
        wins, losses = sum(d > 0 for d in diffs), sum(d < 0 for d in diffs)
        (o1, om, o3), (n1, nm, n3) = (
            statistics.quantiles(vals[side], n=4, method="inclusive")
            for side in ("OLD", "NEW"))
        gain = wins >= need and sign * (om - nm) > o3 - o1
        worse = losses >= need and sign * (nm - om) > n3 - n1
        print(f"{name:<14}{f'{om:.4g} [{o1:.4g}, {o3:.4g}]':>30}"
              f"{f'{nm:.4g} [{n1:.4g}, {n3:.4g}]':>30}"
              f"{f'{wins}/{args.pairs}':>10}{f'{losses}/{args.pairs}':>10}"
              f"  {'holds' if gain else 'no':<6} {'worse' if worse else 'no'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
