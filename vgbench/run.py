"""Benchmark of the vectorgain package, driven from outside the package.

    python3 vgbench/run.py --workload {sim,check-sg,synth,sample-iterate}
                           --seed N --seconds S --trace {0,1}
    python3 vgbench/run.py --workload all      # every workload, one table

One workload runs in one single-threaded process.  Set-up (importing the
package from ``src/`` and drawing the inputs from the seed) is repeated
SETUP_REPEATS times and its median reported as ``setup_s``.  Then whole
passes over the workload's ops run until the next pass would end after
``--seconds``; ``wall_s`` and ``cpu_s`` are the time of one pass, summed
over ops from each op's median over the passes.  Outputs
are checked after the last pass (each pass must reproduce the first pass's
output exactly), and the last line printed is one JSON object.  With
``--trace 1`` the per-layer metrics of :mod:`tracing` are reported instead of
the end-to-end ones.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))
# set-up times a warm import, as after an install: the first of the repeats
# writes the bytecode cache even where PYTHONDONTWRITEBYTECODE is set
sys.dont_write_bytecode = False

import numpy as np  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 21
END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
# Times are reported for a host on which reference_loop() takes REF_S: this
# machine shares its cores, and its speed moves between two levels about
# 1.6x apart for tens of seconds at a time.
REF_S = 0.003
REF_EVERY_S = 0.25   # op time between two timings of the reference loop


def reference_loop() -> float:
    """Fixed interpreter and numpy work, the mix the package itself does."""
    acc, d = 0.0, {}
    for i in range(10000):
        x = math.sqrt(i + 1.0)
        d[i % 97] = (x, i)
        acc += x * 0.5
    a = np.arange(16.0)
    for _ in range(600):
        a = np.maximum(a * 0.5, 1.0)
    return acc + float(a[0])


def reference_time() -> float:
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        reference_loop()
        best = min(best, time.perf_counter() - t0)
    return best


class HostScale:
    """Factor REF_S / r for each op, with r the mean of the reference
    timings taken just before and just after the op's stretch of runs."""

    def __init__(self) -> None:
        self.last = reference_time()
        self.stretch, self.stretch_s = [], 0.0
        self.factors = {}

    def ran(self, k: int, wall: float) -> None:
        self.stretch.append(k)
        self.stretch_s += wall
        if self.stretch_s >= REF_EVERY_S:
            self.close()

    def close(self) -> None:
        if not self.stretch:
            return
        now = reference_time()
        f = REF_S / (0.5 * (self.last + now))
        for k in self.stretch:
            self.factors[k] = f
        self.last, self.stretch, self.stretch_s = now, [], 0.0


def import_package():
    """Import vectorgain afresh from the src/ of this checkout."""
    for name in [m for m in sys.modules
                 if m == "vectorgain" or m.startswith("vectorgain.")]:
        del sys.modules[name]
    vg = importlib.import_module("vectorgain")
    importlib.import_module("vectorgain.cli")
    if Path(vg.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"vectorgain imported from {vg.__file__}, not {SRC}")
    return vg


def setup(workload: str, seed: int, work: Path):
    """Median set-up time; returns it with the last set-up's package and ops."""
    times = []
    before = reference_time()
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        gc.collect()
        t0 = time.perf_counter()
        vg = import_package()
        ops = WORKLOADS[workload](vg, np.random.default_rng(seed), work)
        dt = time.perf_counter() - t0
        after = reference_time()
        times.append(dt * REF_S / (0.5 * (before + after)))
        before = after
    return statistics.median(times), vg, ops


def per_op_median(passes) -> float:
    """Time of one pass: the sum over ops of each op's median over passes.

    The host's speed changes in episodes of a second or two, so taking the
    median per op keeps a slow episode inside one pass from moving the
    whole pass.
    """
    return sum(statistics.median(times) for times in zip(*passes))


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    work = HERE / "_work" / f"{workload}-{os.getpid()}"
    try:
        setup_s, vg, ops = setup(workload, seed, work)
        tracer = None
        if traced:
            tracer = tracing.Tracer(vg)
            tracer.install()
        first = [None] * len(ops)
        results = [None] * len(ops)
        failures = [0] * len(ops)
        errors = {}        # op name -> why it failed
        walls, cpus, layers = [], [], []   # per pass, per op, raw
        scaled_walls, scaled_cpus = [], []
        start = time.perf_counter()
        while not walls or (time.perf_counter() - start
                            + statistics.median(map(sum, walls)) <= seconds):
            wall, cpu = [0.0] * len(ops), [0.0] * len(ops)
            gc.collect()
            scale = HostScale()
            for k, op in enumerate(ops):
                results[k] = None
                op.prepare()
                t0, c0 = time.perf_counter(), time.process_time()
                try:
                    result = op.run()
                except Exception as exc:  # a fault of the program: count it
                    result = None
                    errors[op.name] = f"{type(exc).__name__}: {exc}"
                wall[k] = time.perf_counter() - t0
                cpu[k] = time.process_time() - c0
                scale.ran(k, wall[k])
                if result is None:
                    failures[k] += 1
                    continue
                if tracer is not None:
                    tracer.add("cli.output_bytes", op.output_bytes())
                digest = op.digest(result)
                first[k] = first[k] or digest
                if digest != first[k]:
                    failures[k] += 1
                    errors[op.name] = "output differs from the first pass"
                results[k] = result
            scale.close()
            walls.append(wall)
            cpus.append(cpu)
            scaled_walls.append([w * scale.factors[k] for k, w in enumerate(wall)])
            scaled_cpus.append([c * scale.factors[k] for k, c in enumerate(cpu)])
            if tracer is not None:
                layers.append(tracer.take())
        passes = len(walls)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # outputs of every pass equal the first pass's, so the check of the
        # last pass's outputs stands for all passes
        unexpected = set(errors)
        for k, op in enumerate(ops):
            if results[k] is None:
                continue
            try:
                problems = op.check(results[k])
            except Exception as exc:  # unreadable output counts as wrong
                problems = [("check", f"{type(exc).__name__}: {exc}")]
            if problems:
                failures[k] = passes
                known = all(tag == op.known_fault for tag, _ in problems)
                if not known:
                    unexpected.add(op.name)
                errors[op.name] = (f"{len(problems)} problems"
                                   f"{' (known fault)' if known else ''}; "
                                   f"first: {problems[0][1]}")
        correct = not unexpected
        for name, msg in errors.items():
            print(f"# {workload} op {name} failed: {msg}", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    info = {"workload": workload, "seed": seed, "passes": passes,
            "ops_per_pass": len(ops), "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "traced": traced,
            "raw_wall_s_passes": [round(sum(w), 6) for w in walls],
            "host_scale": round(sum(map(sum, scaled_walls)) / sum(map(sum, walls)), 4)}
    print("# " + json.dumps(info))
    if traced:
        metrics = {name: {"value": statistics.median(p[name] for p in layers),
                          "unit": unit}
                   for name, (unit, _) in tracing.LAYER_METRICS.items()}
    else:
        values = {"setup_s": setup_s, "wall_s": per_op_median(scaled_walls),
                  "cpu_s": per_op_median(scaled_cpus), "peak_rss_mb": peak_rss_mb}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    return {"correct": correct, "attempted": passes * len(ops),
            "failed": sum(failures), "metrics": metrics}


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    print(f"{'workload':<16}{'attempted':>10}{'failed':>8}  correct  metrics")
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=600)
        if proc.returncode != 0:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        shown = "  ".join(f"{m}={v['value']:.6g} {v['unit']}"
                          for m, v in res["metrics"].items())
        print(f"{name:<16}{res['attempted']:>10}{res['failed']:>8}  "
              f"{str(res['correct']):<7}  {shown}")
        total["correct"] = total["correct"] and res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for m, v in res["metrics"].items():
            total["metrics"][f"{name}.{m}"] = v
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "vectorgain" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'vectorgain'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
