"""Per-layer timers and counters, recorded from outside the package.

:class:`Tracer` replaces public functions of ``vectorgain`` by wrappers, both
in the module that defines them and at every ``from ... import`` site, so
calls made between the package's own modules are seen too.  Times are
inclusive of everything a call does, except ``cli.self_s``: the time of
``cli.main`` minus the wrapped library calls it makes directly.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, Optional

# name -> (unit, better); the order is the order of the printed metrics
LAYER_METRICS = {
    "cli.self_s": ("s", "lower"),
    "cli.output_bytes": ("bytes", "lower"),
    "network.check_small_gain_s": ("s", "lower"),
    "network.check_small_gain_calls": ("count", "lower"),
    "network.cycles_listed": ("count", "lower"),
    "network.cycles_checked": ("count", "lower"),
    "network.gas_witness_search_s": ("s", "lower"),
    "network.gamma_apply_calls": ("count", "lower"),
    "gains.check_contraction_s": ("s", "lower"),
    "gains.check_contraction_calls": ("count", "lower"),
    "gains.exact_verdicts": ("count", "higher"),
    "gains.grid_verdicts": ("count", "lower"),
    "gains.eval_calls": ("count", "lower"),
    "gains.invert_s": ("s", "lower"),
    "gains.invert_calls": ("count", "lower"),
    "synthesis.overall_gain_s": ("s", "lower"),
    "synthesis.theta_nodes": ("count", "lower"),
    "synthesis.theta_eval_s": ("s", "lower"),
    "synthesis.overall_eval_s": ("s", "lower"),
    "iteration.iterate_s": ("s", "lower"),
    "iteration.iterate_steps": ("count", "lower"),
    "iteration.lfp_bound_check_s": ("s", "lower"),
    "validate.check_implication_s": ("s", "lower"),
    "validate.implication_samples": ("count", "higher"),
    "validate.violations_found": ("count", "higher"),
    "simulate.integrate_delay_s": ("s", "lower"),
    "simulate.integrate_sampled_s": ("s", "lower"),
    "simulate.rk4_steps": ("count", "lower"),
    "simulate.ldn_step_us": ("us", "lower"),
    "simulate.biochem_step_us": ("us", "lower"),
    "simulate.sampled_step_us": ("us", "lower"),
    "models.rhs_calls": ("count", "lower"),
    "models.rhs_s": ("s", "lower"),
}

_STEP_KIND = {"linear_delay_network": "ldn", "biochem_circuit": "biochem"}


def _replace_everywhere(original: Callable, wrapper: Callable) -> None:
    """Rebind every module-level name of the package that is `original`."""
    for name, mod in list(sys.modules.items()):
        if name != "vectorgain" and not name.startswith("vectorgain."):
            continue
        for attr, val in list(vars(mod).items()):
            if val is original:
                setattr(mod, attr, wrapper)


class Tracer:
    """Accumulates one pass of per-layer numbers; see :meth:`take`."""

    def __init__(self, vg) -> None:
        self.vg = vg
        self.acc: Dict[str, float] = defaultdict(float)
        self._stack = []            # child time of each open span
        self._thetas: Dict[int, object] = {}

    # -- span bookkeeping --------------------------------------------------

    def _timed(self, key: Optional[str], fn: Callable,
               after: Optional[Callable] = None, self_key: Optional[str] = None):
        acc, stack, clock = self.acc, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                if key:
                    acc[key] += dt
                if self_key:
                    acc[self_key] += dt - child
            hook = 0.0
            if after is not None:
                h0 = clock()
                after(result, args, kwargs, dt)
                hook = clock() - h0
            if stack:
                stack[-1] += dt + hook
            return result
        return wrapper

    def _wrap_function(self, module, name: str, key: Optional[str],
                       calls: Optional[str] = None, after=None, self_key=None):
        original = getattr(module, name)
        acc = self.acc
        if calls:
            inner_after = after

            def after(result, args, kwargs, dt, _a=inner_after):
                acc[calls] += 1
                if _a is not None:
                    _a(result, args, kwargs, dt)
        _replace_everywhere(original,
                            self._timed(key, original, after, self_key))

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        vg, acc = self.vg, self.acc
        gains, network, synthesis = vg.gains, vg.network, vg.synthesis
        iteration, validate, simulate, models = (
            vg.iteration, vg.validate, vg.simulate, vg.models)
        self._wrap_function(vg.cli, "main", None, self_key="cli.self_s")

        def sg_after(report, args, kwargs, dt):
            acc["network.cycles_listed"] += len(report.cycles)
            acc["network.cycles_checked"] += sum(
                1 for cv in report.cycles if not cv.skipped)
        self._wrap_function(network, "check_small_gain",
                            "network.check_small_gain_s",
                            "network.check_small_gain_calls", sg_after)
        self._wrap_function(network, "gas_witness_search",
                            "network.gas_witness_search_s")
        self._wrap_function(network, "gamma_apply", None,
                            "network.gamma_apply_calls")

        def contraction_after(verdict, args, kwargs, dt):
            exact = verdict.status.startswith("exact")
            acc["gains.exact_verdicts" if exact else "gains.grid_verdicts"] += 1
        self._wrap_function(gains, "check_contraction",
                            "gains.check_contraction_s",
                            "gains.check_contraction_calls", contraction_after)
        self._wrap_function(gains, "invert", "gains.invert_s",
                            "gains.invert_calls")

        # GainFn.__call__ is the top-level entry of every gain evaluation;
        # calls on a synthesized theta are also timed
        gain_call, thetas = gains.GainFn.__call__, self._thetas
        timed_theta = self._timed("synthesis.theta_eval_s", gain_call)

        def counted_call(g, s):
            acc["gains.eval_calls"] += 1
            if thetas and id(g) in thetas:
                return timed_theta(g, s)
            return gain_call(g, s)
        gains.GainFn.__call__ = counted_call
        synthesis.OverallGain.__call__ = self._timed(
            "synthesis.overall_eval_s", synthesis.OverallGain.__call__)

        node_types = gains.GainFn

        def overall_after(comp, args, kwargs, dt):
            acc["synthesis.theta_nodes"] += _count_nodes(comp.theta, node_types)
            thetas[id(comp.theta)] = comp.theta
        self._wrap_function(synthesis, "overall_gain",
                            "synthesis.overall_gain_s", after=overall_after)

        def iterate_after(result, args, kwargs, dt):
            acc["iteration.iterate_steps"] += result.steps
        self._wrap_function(iteration, "iterate", "iteration.iterate_s",
                            after=iterate_after)
        self._wrap_function(iteration, "lfp_bound_check",
                            "iteration.lfp_bound_check_s")

        impl_sig = inspect.signature(validate.check_implication)

        def impl_after(violations, args, kwargs, dt):
            bound = impl_sig.bind(*args, **kwargs)
            bound.apply_defaults()
            acc["validate.implication_samples"] += bound.arguments["sample_count"]
            acc["validate.violations_found"] += len(violations)
        self._wrap_function(validate, "check_implication",
                            "validate.check_implication_s", after=impl_after)

        def simulate_after(traj, args, kwargs, dt):
            spec = args[0] if args else kwargs["spec"]
            kind = _STEP_KIND.get(spec.model, spec.kind)
            steps = len(traj.times) - 1
            acc["simulate.rk4_steps"] += steps
            acc[f"_{kind}_steps"] += steps
            acc[f"_{kind}_s"] += dt
        for name in ("integrate_delay", "integrate_sampled"):
            self._wrap_function(simulate, name, f"simulate.{name}_s",
                                after=simulate_after)

        model_rhs, timed = models.model_rhs, self._timed

        def rhs_after(result, args, kwargs, dt):
            acc["models.rhs_calls"] += 1

        def traced_model_rhs(spec):
            return timed("models.rhs_s", model_rhs(spec), rhs_after)
        _replace_everywhere(model_rhs, traced_model_rhs)

    # -- per-pass results --------------------------------------------------

    def add(self, key: str, value: float) -> None:
        self.acc[key] += value

    def take(self) -> Dict[str, float]:
        """Metrics of the pass just ended; resets for the next pass."""
        a = self.acc
        out = {name: float(a.get(name, 0.0)) for name in LAYER_METRICS}
        for kind in ("ldn", "biochem", "sampled"):
            steps = a.get(f"_{kind}_steps", 0.0)
            out[f"simulate.{kind}_step_us"] = (
                1e6 * a[f"_{kind}_s"] / steps if steps else 0.0)
        a.clear()
        self._thetas.clear()
        return out


def _count_nodes(root, node_type) -> int:
    """Nodes of a gain expression tree, shared subtrees counted per use."""
    count, todo = 0, [root]
    while todo:
        node = todo.pop()
        count += 1
        if dataclasses.is_dataclass(node):
            for f in dataclasses.fields(node):
                child = getattr(node, f.name)
                if isinstance(child, node_type):
                    todo.append(child)
    return count
