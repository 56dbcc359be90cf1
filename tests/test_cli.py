import io
import itertools
import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vectorgain.cli import _JSON_CHUNKS, _TABLE_ROWS, _write_json, main
from vectorgain.gains import ContractionVerdict, GridSpec, LogExpSq
import vectorgain.network as network
from vectorgain.network import (
    CycleVerdict, SmallGainReport, check_small_gain, matrix_from_json,
)


def _write(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def sg_config(tmp_path):
    return _write(tmp_path / "cfg.json", {
        "gains": {"n": 2, "gains": [
            {"i": 1, "j": 2, "fn": {"kind": "linear", "k": 0.5}},
            {"i": 2, "j": 1, "fn": {"kind": "linear", "k": 0.9}},
        ]},
        "synthesis": {"zeta": {"kind": "linear", "k": 0.3}},
        "analysis": {"x0": [1.0, 2.0]},
    })


def test_check_sg_positive(tmp_path, sg_config, capsys):
    out = tmp_path / "out"
    assert main(["check-sg", "--input", sg_config, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["small_gain"]["holds"]
    assert (out / "effective_config.json").exists()
    assert (out / "run_meta.json").exists()
    # reports hold no timestamps (they live in the sidecar)
    assert "timestamp" not in (out / "report.json").read_text()
    assert "holds" in capsys.readouterr().out


def test_check_sg_negative_exit_2(tmp_path):
    cfg = _write(tmp_path / "bad.json", {
        "gains": {"n": 2, "gains": [
            {"i": 1, "j": 2, "fn": {"kind": "linear", "k": 1.0}},
            {"i": 2, "j": 1, "fn": {"kind": "linear", "k": 1.0}},
        ]}})
    out = tmp_path / "out"
    assert main(["check-sg", "--input", cfg, "--out", str(out)]) == 2
    report = json.loads((out / "report.json").read_text())
    assert report["small_gain"]["failing_cycle"] == [1, 2]
    assert "witness" in report["small_gain"]
    assert "gas_witness" in report


def test_run_meta_records_the_arguments_main_parsed(tmp_path, sg_config,
                                                    monkeypatch):
    # an in-process call records its own argv, not the host process's
    monkeypatch.setattr(sys, "argv", ["host", "--unrelated"])
    argv = ["check-sg", "--input", sg_config, "--out", str(tmp_path / "out")]
    assert main(argv) == 0
    meta = json.loads((tmp_path / "out" / "run_meta.json").read_text())
    assert meta["argv"] == argv


def test_overwrite_protection(tmp_path, sg_config):
    out = tmp_path / "out"
    assert main(["check-sg", "--input", sg_config, "--out", str(out)]) == 0
    assert main(["check-sg", "--input", sg_config, "--out", str(out)]) == 1
    assert main(["check-sg", "--input", sg_config, "--out", str(out),
                 "--force"]) == 0


def test_force_does_not_carry_over_to_the_next_run(tmp_path, sg_config):
    # the parser is built once per process; --force belongs to one call
    out = tmp_path / "out"
    assert main(["check-sg", "--input", sg_config, "--out", str(out)]) == 0
    assert main(["check-sg", "--input", sg_config, "--out", str(out),
                 "--force"]) == 0
    assert main(["check-sg", "--input", sg_config, "--out", str(out)]) == 1


def test_refused_overwrite_writes_nothing(tmp_path, sg_config, capsys):
    # run_meta.json is the last file written: every path is checked before
    # report.json, the first, is written
    out = tmp_path / "out"
    out.mkdir()
    (out / "run_meta.json").write_text("{}\n")
    assert main(["check-sg", "--input", sg_config, "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: refusing to overwrite {out / 'run_meta.json'}; pass --force\n")
    assert sorted(p.name for p in out.iterdir()) == ["run_meta.json"]
    assert (out / "run_meta.json").read_text() == "{}\n"


_SIM_CFG = {
    "system": {"kind": "ode", "model": "scalar_linear",
               "params": {"a": 1.0, "bu": 1.0},
               "input_signal": {"kind": "constant", "value": 1.0}},
    "gains": {"n": 1, "gains": []},
    "synthesis": {"zeta": {"kind": "power", "k": 0.6173, "p": 2.0},
                  "a1": {"kind": "power", "k": 0.5, "p": 2.0}},
    "analysis": {"horizon": 10.0, "dt": 0.01, "x0": [0.0], "u_sup": 1.0,
                 "require_convergence": False}}


def _dense6_gains():
    """A complete digraph with self-loops on 6 nodes, 415 circuits: a
    cycle table longer than one write block, with exact and grid verdicts,
    and a refuted 2-cycle (1.5 * 0.9 > 1)."""
    def gain(i, j):
        if (i, j) in ((1, 2), (2, 1)):
            return {"kind": "linear", "k": 1.5 if i == 1 else 0.9}
        if (i + j) % 3 == 0:
            return {"kind": "logexpsq", "c": 0.5, "th": 0.2 + 0.05 * i}
        return {"kind": "linear", "k": 0.3 + 0.1 * j}
    return {"n": 6, "gains": [{"i": i, "j": j, "fn": gain(i, j)}
                              for i in range(1, 7) for j in range(1, 7)]}


def test_byte_identical_reports(tmp_path, sg_config):
    sim_config = _write(tmp_path / "sim.json", _SIM_CFG)
    dense_config = _write(tmp_path / "dense6.json", {
        "gains": _dense6_gains(),
        "synthesis": {"zeta": {"kind": "linear", "k": 0.3}}})
    runs = {"check-sg": ["check-sg", "--input", sg_config],
            "synth": ["synth", "--input", sg_config],
            "iterate": ["iterate", "--input", sg_config],
            "simulate": ["simulate", "--input", sim_config],
            "validate": ["validate", "--input", sim_config],
            "repro": ["repro", "rk4-order"],
            "check-sg-dense6": ["check-sg", "--input", dense_config],
            "synth-dense6": ["synth", "--input", dense_config]}
    for run, args in runs.items():
        outs = [tmp_path / run / "o1", tmp_path / run / "o2"]
        for out in outs:
            main(args + ["--out", str(out), "--seed", "4"])
        names = sorted(p.name for p in outs[0].iterdir())
        assert names == sorted(p.name for p in outs[1].iterdir()), args
        assert {"report.json", "effective_config.json", "run_meta.json"} \
            <= set(names), args
        for name in names:
            if name != "run_meta.json":
                assert (outs[0] / name).read_bytes() == \
                    (outs[1] / name).read_bytes(), (args, name)
        # every JSON artifact is the text json.dumps writes for it
        for name in names:
            if name.endswith(".json"):
                text = (outs[0] / name).read_text()
                assert text == json.dumps(json.loads(text), indent=2,
                                          sort_keys=True) + "\n", (args, name)
    dense = json.loads((tmp_path / "check-sg-dense6" / "o1" / "report.json")
                       .read_text())["small_gain"]
    assert len(dense["cycles"]) == 415 > _TABLE_ROWS
    assert not dense["holds"] and dense["failing_cycle"] == [1, 2]
    statuses = {e["status"] for e in dense["cycles"]}
    assert statuses == {"exact-true", "exact-false", "grid-verified",
                        "grid-refuted"}


class _Writes(io.StringIO):
    """A text file that keeps each write."""

    def __init__(self):
        super().__init__()
        self.parts = []

    def write(self, text):
        self.parts.append(text)
        return super().write(text)


def test_long_cycle_table_written_in_blocks():
    report = check_small_gain(matrix_from_json(_dense6_gains()))
    assert len(report.cycles) == 415
    fh = _Writes()
    _write_json(fh, {"command": "check-sg", "small_gain": report})
    _assert_same_text(fh.getvalue(), json.dumps(
        {"command": "check-sg", "small_gain": report.to_json()}, indent=2,
        sort_keys=True) + "\n")
    # the table is written in two blocks of at most _TABLE_ROWS entries, and
    # no write holds the whole table
    rows = [part.count('"cycle": ') for part in fh.parts]
    assert sorted(n for n in rows if n) == [415 - _TABLE_ROWS, _TABLE_ROWS]
    assert max(map(len, fh.parts)) < len(fh.getvalue()) / 1.5


def test_json_written_in_parts_equals_one_dumps(tmp_path):
    # thousands of encoder chunks, so the report is written in several parts
    body = {"rows": [{"k": i, "v": i / 7, "nan": math.nan}
                     for i in range(_JSON_CHUNKS)]}
    path = tmp_path / "report.json"
    with path.open("w") as fh:
        _write_json(fh, body)
    assert path.read_text() == \
        json.dumps(body, indent=2, sort_keys=True) + "\n"


# text that json must escape: quotes, backslashes, control characters,
# non-ASCII text, and % signs, which must not reach a %-format
_TEXT = st.one_of(
    st.text(max_size=8),
    st.lists(st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f",
                              "é", "\u2028", "☃", "\U0001f600", "%s", "%",
                              "k=0.9 < 1"]),
             max_size=4).map("".join))
_WITNESS = st.one_of(
    st.none(), st.floats(), st.sampled_from(
        [math.inf, -math.inf, math.nan, 0.0, -0.0, 5e-324, 1e-310, 1.0,
         1.7976931348623157e308]))
_VERDICT = st.builds(
    CycleVerdict,
    cycle=st.lists(st.integers(0, 12), min_size=1, max_size=5).map(tuple),
    verdict=st.builds(ContractionVerdict, status=st.one_of(st.sampled_from(
        ["exact-true", "exact-false", "grid-verified", "grid-refuted"]),
        _TEXT), witness=_WITNESS, detail=_TEXT))


@st.composite
def _payloads(draw):
    """A check-sg or synth payload holding a SmallGainReport, and its JSON
    body.  A few drawn verdicts are repeated up to a table length of none,
    one, or more than one write block."""
    verdicts = draw(st.lists(_VERDICT, min_size=1, max_size=4))
    length = draw(st.sampled_from(
        [0, 1, len(verdicts), _TABLE_ROWS, _TABLE_ROWS + 1,
         2 * _TABLE_ROWS + 3]))
    failing = draw(st.none() | st.lists(st.integers(0, 12), min_size=1,
                                        max_size=5).map(tuple))
    report = SmallGainReport(
        holds=draw(st.booleans()),
        cycles=tuple(itertools.islice(itertools.cycle(verdicts), length)),
        failing_cycle=failing,
        witness=draw(_WITNESS) if failing is not None else None,
        critical_only=draw(st.booleans()))
    payload = {"command": draw(st.sampled_from(["check-sg", "synth"])),
               "small_gain": report}
    if draw(st.booleans()):
        payload["gas_witness"] = draw(st.lists(st.floats(), max_size=3))
    if draw(st.booleans()):
        payload["status"] = "synthesized"
        payload["composite"] = {"note": draw(_TEXT), "rows": [[1.5, None]]}
    return payload, {**payload, "small_gain": report.to_json()}


def _assert_same_text(text, expected):
    # names the first difference: pytest's own diff of two long texts takes
    # minutes, on every example that hypothesis shrinks
    if text != expected:
        k = next((i for i, (a, b) in enumerate(zip(text, expected)) if a != b),
                 min(len(text), len(expected)))
        pytest.fail(f"texts differ at {k}: {text[k - 40:k + 40]!r} != "
                    f"{expected[k - 40:k + 40]!r}")


@settings(max_examples=150, deadline=None)
@given(_payloads())
def test_written_report_equals_json_dumps(payload_and_body):
    payload, body = payload_and_body
    fh = io.StringIO()
    _write_json(fh, payload)
    _assert_same_text(fh.getvalue(),
                      json.dumps(body, indent=2, sort_keys=True) + "\n")


def test_synth_outputs(tmp_path, sg_config):
    out = tmp_path / "out"
    assert main(["synth", "--input", sg_config, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "synthesized"
    assert set(report["composite"]) == {"gains", "phi", "theta", "gmap",
                                        "overall"}
    table = (out / "gain_table.csv").read_text().splitlines()
    assert table[0] == "s,theta,overall"
    assert len(table) > 100


def test_synth_overall_gain_rounds_a1_inverse_up(tmp_path):
    # vgbench.workloads.BISECT_CONFIG: theta runs from 5e-7, where an
    # absolute bisection tolerance of 1e-10 missed 45 of the 121 rows
    cfg = _write(tmp_path / "bisect.json", {
        "gains": {"n": 3, "gains": [
            {"i": 1, "j": 2, "fn": {"kind": "linear", "k": 0.3}},
            {"i": 1, "j": 3, "fn": {"kind": "logexpsq", "c": 0.5, "th": 0.4}},
            {"i": 2, "j": 3, "fn": {"kind": "logexpsq", "c": 0.5, "th": 0.5}},
            {"i": 3, "j": 1, "fn": {"kind": "linear", "k": 0.2}}]},
        "synthesis": {"zeta": {"kind": "linear", "k": 0.5},
                      "a1": {"kind": "logexpsq", "c": 0.5, "th": 0.5}}})
    out = tmp_path / "out"
    assert main(["synth", "--input", cfg, "--out", str(out)]) == 0
    a1 = LogExpSq(0.5, 0.5)
    rows = (out / "gain_table.csv").read_text().splitlines()[1:]
    assert len(rows) == 121
    for row in rows:
        _, theta, overall = map(float, row.split(","))
        assert theta <= a1(overall) <= theta * (1 + 1e-12), row


def test_synth_refuted_exit_2(tmp_path):
    cfg = _write(tmp_path / "bad.json", {
        "gains": {"n": 1, "gains": [
            {"i": 1, "j": 1, "fn": {"kind": "linear", "k": 1.5}}]},
        "synthesis": {"zeta": {"kind": "linear", "k": 1.0}}})
    out = tmp_path / "out"
    assert main(["synth", "--input", cfg, "--out", str(out)]) == 2
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "small-gain-refuted"


def test_iterate_csv(tmp_path, sg_config):
    out = tmp_path / "out"
    assert main(["iterate", "--input", sg_config, "--out", str(out)]) == 0
    lines = (out / "iterates.csv").read_text().splitlines()
    assert lines[0] == "k,x1,x2"
    first = [float(v) for v in lines[1].split(",")]
    assert first == [0.0, 1.0, 2.0]


def test_simulate_ode_and_trajectory(tmp_path):
    cfg = _write(tmp_path / "sim.json", {
        "system": {"kind": "ode", "model": "scalar_linear",
                   "params": {"a": 1.0}},
        "analysis": {"horizon": 1.0, "dt": 0.001, "x0": [1.0]}})
    out = tmp_path / "out"
    assert main(["simulate", "--input", cfg, "--out", str(out)]) == 0
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,x1"
    final = float(lines[-1].split(",")[1])
    assert final == pytest.approx(math.exp(-1.0), abs=1e-10)
    assert not (out / "sampling_times.csv").exists()


def test_simulate_sampled_writes_sampling_times(tmp_path):
    cfg = _write(tmp_path / "sim.json", {
        "system": {"kind": "sampled", "model": "zoh_linear",
                   "params": {"n": 1},
                   "h": {"kind": "constant", "value": 0.25},
                   "dtilde": {"kind": "zero"}},
        "analysis": {"horizon": 1.0, "dt": 0.01, "x0": [1.0]}})
    out = tmp_path / "out"
    assert main(["simulate", "--input", cfg, "--out", str(out)]) == 0
    taus = (out / "sampling_times.csv").read_text().splitlines()
    assert taus[0] == "tau"
    assert [float(v) for v in taus[1:]] == [0.0, 0.25, 0.5, 0.75, 1.0]


def test_simulate_sampling_period_rounded_to_zero_rejected(tmp_path, capsys):
    # h(x) = 5e-324 / (1 + |x|) rounds to 0 at |x| = 1
    cfg = _write(tmp_path / "sim.json", {
        "system": {"kind": "sampled", "model": "zoh_linear",
                   "params": {"n": 1},
                   "h": {"kind": "state_norm", "value": 5e-324}},
        "analysis": {"horizon": 1.0, "dt": 0.01, "x0": [1.0]}})
    out = tmp_path / "out"
    assert main(["simulate", "--input", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: sampling gap 0 at tau = 0 must be finite and move tau "
        "forward\n")
    assert not out.exists()


@pytest.mark.parametrize("dtilde, gap", [(-800.0, "inf"), (800.0, "0")],
                         ids=["overflow", "zero"])
def test_simulate_sampling_gap_not_finite_or_zero_rejected(
        tmp_path, capsys, dtilde, gap):
    # exp(800) overflows; exp(-800) is 0, a gap that never moves tau
    cfg = _write(tmp_path / "sim.json", {
        "system": {"kind": "sampled", "model": "zoh_linear",
                   "params": {"n": 1},
                   "h": {"kind": "constant", "value": 0.25},
                   "dtilde": {"kind": "constant", "value": dtilde}},
        "analysis": {"horizon": 1.0, "dt": 0.01, "x0": [1.0]}})
    out = tmp_path / "out"
    assert main(["simulate", "--input", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: sampling gap {gap} at tau = 0 must be finite and move tau "
        f"forward\n")
    assert not out.exists()


def test_simulate_finite_escape_exit_2(tmp_path):
    cfg = _write(tmp_path / "sim.json", {
        "system": {"kind": "delay", "model": "linear_delay_network",
                   "params": {"a": [1.0], "c": [[3.0]], "r": 0.1}},
        "analysis": {"horizon": 200.0, "dt": 0.01, "history": [1.0]}})
    out = tmp_path / "out"
    assert main(["simulate", "--input", cfg, "--out", str(out)]) == 2
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "finite-escape"
    assert report["escape_time"] > 0


def test_simulate_hill_curve_past_the_float_range_escapes(tmp_path, capsys):
    # 1e9 ** 40 is past the float range: the Hill curve is inf / inf = NaN,
    # as it is on arrays, so the first step escapes; no traceback, no warning
    cfg = _write(tmp_path / "sim.json", {
        "system": {"kind": "delay", "model": "biochem_circuit",
                   "params": {"a": [1.0, 1.0], "tau": [0.1, 0.1],
                              "g": {"form": "hill", "c": 2.0, "p": 40}}},
        "analysis": {"horizon": 1.0, "dt": 0.01, "history": [1e9, 1e9]}})
    out = tmp_path / "out"
    assert main(["simulate", "--input", cfg, "--out", str(out)]) == 2
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "finite-escape"
    assert report["escape_time"] == 0.01
    assert capsys.readouterr() == ("finite escape at t = 0.01\n", "")


def test_simulate_delay_network_without_delay(tmp_path, capsys):
    # r defaults to 0 (the present state drives the coupling); a positive
    # delay below one step is a config error
    for params, code in [({"a": [1.0], "c": [[0.5]]}, 0),
                         ({"a": [1.0], "c": [[0.5]], "r": 1e-20}, 1)]:
        cfg = _write(tmp_path / "sim.json", {
            "system": {"kind": "delay", "model": "linear_delay_network",
                       "params": params},
            "analysis": {"horizon": 1.0, "dt": 0.01, "history": [1.0]}})
        out = tmp_path / f"out{code}"
        assert main(["simulate", "--input", cfg, "--out", str(out)]) == code
        err = capsys.readouterr().err
        assert err.startswith("error: ") if code else err == ""


@pytest.mark.parametrize("system, message", [
    ({"input_signal": "step"},
     "system field 'input_signal' must be an object, got 'step'"),
    ({"params": [1]}, "system field 'params' must be an object, got a JSON "
                      "array"),
])
def test_simulate_system_field_not_an_object(tmp_path, capsys, system,
                                             message):
    cfg = _write(tmp_path / "sim.json", {
        "system": {"kind": "ode", "model": "scalar_linear", **system},
        "analysis": {"horizon": 1.0, "dt": 0.01, "x0": [1.0]}})
    out = tmp_path / "out"
    assert main(["simulate", "--input", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: config field 'system': {message}\n")
    assert not out.exists()


def test_simulate_noise_past_the_draw_cap_exits_1(tmp_path, capsys):
    # interval t / dt_switch = 5e9 at the first half step
    cfg = _write(tmp_path / "sim.json", {
        "system": {"kind": "ode", "model": "scalar_linear",
                   "input_signal": {"kind": "noise", "amplitude": 1.0,
                                    "dt_switch": 1e-12}},
        "analysis": {"horizon": 1.0, "dt": 0.01, "x0": [1.0]}})
    out = tmp_path / "out"
    assert main(["simulate", "--input", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error (simulate): noise signal at t = 0.005 needs more than "
        "10000000 draws; raise dt_switch (1e-12)\n")
    assert not out.exists()


def test_validate_convergence_and_gain(tmp_path):
    cfg = _write(tmp_path / "val.json", {
        "system": {"kind": "ode", "model": "scalar_linear",
                   "params": {"a": 1.0, "bu": 1.0},
                   "input_signal": {"kind": "constant", "value": 1.0}},
        "gains": {"n": 1, "gains": []},
        "synthesis": {"zeta": {"kind": "power", "k": 0.6173, "p": 2.0},
                      "a1": {"kind": "power", "k": 0.5, "p": 2.0}},
        "analysis": {"horizon": 30.0, "dt": 0.01, "x0": [0.0],
                     "u_sup": 1.0, "require_convergence": False}})
    out = tmp_path / "out"
    assert main(["validate", "--input", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "passed"
    assert report["asymptotic_gain"][0]["status"] == "satisfied"


def test_validate_uses_configured_grid(tmp_path):
    # g(s)/s is 0.98 at s = 100 and 1.05 at s = 1000: the self-loop passes
    # the small-gain test on the configured grid only
    self_gain = {"kind": "scale", "k": 0.9,
                 "fn": {"kind": "logexpsq", "c": 0.6, "th": 0.5}}
    cfg = _write(tmp_path / "val.json", {
        "system": {"kind": "ode", "model": "scalar_linear",
                   "params": {"a": 1.0, "bu": 1.0},
                   "input_signal": {"kind": "constant", "value": 1.0}},
        "gains": {"n": 1, "gains": [{"i": 1, "j": 1, "fn": self_gain}]},
        "synthesis": {"zeta": {"kind": "power", "k": 0.6173, "p": 2.0},
                      "a1": {"kind": "power", "k": 0.5, "p": 2.0}},
        "analysis": {"horizon": 30.0, "dt": 0.01, "x0": [0.0],
                     "u_sup": 1.0, "require_convergence": False,
                     "grid": {"s_max": 100.0}}})
    assert main(["check-sg", "--input", cfg, "--out", str(tmp_path / "sg")]) == 0
    out = tmp_path / "out"
    assert main(["validate", "--input", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["asymptotic_gain"][0]["status"] == "satisfied"


def test_validate_nonconverging_exit_2(tmp_path):
    cfg = _write(tmp_path / "val.json", {
        "system": {"kind": "ode", "model": "scalar_linear",
                   "params": {"a": 1.0, "bu": 1.0},
                   "input_signal": {"kind": "constant", "value": 1.0}},
        "analysis": {"horizon": 10.0, "dt": 0.01, "x0": [0.0]}})
    out = tmp_path / "out"
    assert main(["validate", "--input", cfg, "--out", str(out)]) == 2
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "failed"


def test_error_paths(tmp_path, sg_config):
    out = tmp_path / "out"
    assert main(["check-sg", "--input", str(tmp_path / "missing.json"),
                 "--out", str(out)]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["check-sg", "--input", str(bad), "--out", str(out)]) == 1
    nofield = _write(tmp_path / "nf.json", {"analysis": {}})
    assert main(["check-sg", "--input", nofield, "--out", str(out)]) == 1
    # an output directory that names an existing file
    assert main(["check-sg", "--input", sg_config, "--out", str(bad)]) == 1


def test_deep_json_rejected(tmp_path, capsys):
    fn = {"kind": "linear", "k": 0.5}
    for _ in range(900):
        fn = {"kind": "scale", "k": 1.0, "fn": fn}
    deep_gain = _write(tmp_path / "deep.json", {
        "gains": {"n": 1, "gains": [{"i": 1, "j": 1, "fn": fn}]}})
    deep_json = tmp_path / "nested.json"
    deep_json.write_text('{"gains": ' + "[" * 100_000 + "]" * 100_000 + "}")
    for cfg in (deep_gain, str(deep_json)):
        capsys.readouterr()
        assert main(["check-sg", "--input", cfg,
                     "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith("error: ")


def test_check_sg_power_self_gain_near_one(tmp_path, capsys):
    # 0.5*s**1.0001 crosses the identity at e^6931, outside the float range
    cfg = _write(tmp_path / "pow.json", {"gains": {"n": 1, "gains": [
        {"i": 1, "j": 1, "fn": {"kind": "power", "k": 0.5, "p": 1.0001}}]}})
    out = tmp_path / "out"
    assert main(["check-sg", "--input", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == ""
    sg = json.loads((out / "report.json").read_text())["small_gain"]
    assert sg["failing_cycle"] == [1] and sg["witness"] is None
    assert sg["cycles"][0]["status"] == "exact-false"


def test_check_sg_power_ring_past_float_range(tmp_path, capsys):
    # the composed coefficient of the ring, 1000**156, overflows a float:
    # the cycle is left to the grid instead of ending in an OverflowError
    cfg = _write(tmp_path / "ring.json", {"gains": {"n": 4, "gains": [
        {"i": i + 1, "j": (i + 1) % 4 + 1,
         "fn": {"kind": "power", "k": 1000.0, "p": 5.0}} for i in range(4)]}})
    out = tmp_path / "out"
    assert main(["check-sg", "--input", cfg, "--out", str(out)]) == 2
    assert "Traceback" not in capsys.readouterr().err
    sg = json.loads((out / "report.json").read_text())["small_gain"]
    assert sg["cycles"][0]["status"] == "grid-refuted"


def test_check_sg_witness_past_float_range(tmp_path, capsys):
    # walking the refuted ring from its grid witness overflows to inf; the
    # sampler finds the witness instead
    cfg = _write(tmp_path / "ring.json", {"gains": {"n": 3, "gains": [
        {"i": i + 1, "j": (i + 1) % 3 + 1,
         "fn": {"kind": "linear", "k": 1e200}} for i in range(3)]}})
    out = tmp_path / "out"
    assert main(["check-sg", "--input", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == ""
    witness = json.loads((out / "report.json").read_text())["gas_witness"]
    assert len(witness) == 3 and all(0 < v < math.inf for v in witness)


_SG_GAINS = {"n": 1, "gains": [
    {"i": 1, "j": 1, "fn": {"kind": "linear", "k": 0.5}}]}
_ODE = {"kind": "ode", "model": "scalar_linear", "params": {"a": 1.0}}
_ODE_RUN = {"horizon": 0.1, "dt": 0.01, "x0": [1.0]}
_SAMPLED = {"kind": "sampled", "model": "zoh_linear", "params": {"n": 1}}


@pytest.mark.parametrize("grid", ['{"s_max": 1e400}',
                                  '{"points": 1000000000000}',
                                  '{"points": 1}', '{"s_min": -1e400}'])
def test_check_sg_hostile_grid_rejected(tmp_path, capsys, monkeypatch, grid):
    # the limits are checked before any grid point is computed
    monkeypatch.setattr(GridSpec, "values", property(
        lambda self: pytest.fail("grid points computed")))
    path = tmp_path / "cfg.json"
    path.write_text('{"gains": %s, "analysis": {"grid": %s}}'
                    % (json.dumps(_SG_GAINS), grid))
    out = tmp_path / "out"
    assert main(["check-sg", "--input", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(
        "error: config field 'analysis.grid': grid requires ")
    assert not out.exists()


def test_check_sg_component_past_karp_cap_rejected(tmp_path, capsys,
                                                   monkeypatch):
    # a complete digraph on nodes 1-8 has more circuits than the listing
    # cap, and a ring through node 1 makes its component 8,192 nodes long:
    # Karp's tables for it would pass 2**30 bytes, so the run stops with
    # exit 1 before they are allocated
    n, half = 8192, {"kind": "linear", "k": 0.5}
    ring = [1] + list(range(9, n + 1))
    gains = [{"i": i, "j": j, "fn": half} for i in range(1, 9)
             for j in range(1, 9) if i != j]
    gains += [{"i": a, "j": b, "fn": half}
              for a, b in zip(ring, ring[1:] + ring[:1])]
    cfg = _write(tmp_path / "cfg.json", {"gains": {"n": n, "gains": gains}})
    monkeypatch.setattr(np, "zeros", lambda *args, **kwargs: pytest.fail(
        f"np.zeros{args} reached"))
    out = tmp_path / "out"
    assert main(["check-sg", "--input", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(
        "error (check-sg): a strongly connected component of c = 8192 nodes "
        "is too large for the maximum cycle mean")
    assert not out.exists()


def test_check_sg_grid_chain_overflow_leaves_stderr_empty(tmp_path, capsys):
    # 1e300*s overflows above s = 1.8e8, so the array pass meets inf
    chain = {"kind": "compose", "outer": {"kind": "linear", "k": 1e-301},
             "inner": {"kind": "compose",
                       "outer": {"kind": "logexpsq", "c": 0.5, "th": 0.5},
                       "inner": {"kind": "linear", "k": 1e300}}}
    cfg = _write(tmp_path / "cfg.json", {"gains": {"n": 1, "gains": [
        {"i": 1, "j": 1, "fn": chain}]}})
    out = tmp_path / "out"
    assert main(["check-sg", "--input", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == ""
    sg = json.loads((out / "report.json").read_text())["small_gain"]
    assert sg["cycles"][0]["status"] == "grid-refuted"
    assert 1.8e8 < sg["witness"] < 1.9e8


@pytest.mark.parametrize("command, field, cfg", [
    ("check-sg", "analysis.grid", {"gains": _SG_GAINS, "analysis": {"grid": 5}}),
    ("check-sg", "gains", {"gains": {"n": 1, "gains": [5]}}),
    ("simulate", "system", {"system": 5, "analysis": _ODE_RUN}),
    ("simulate", "system", {"system": dict(_ODE, params=5),
                            "analysis": _ODE_RUN}),
    ("simulate", "system", {"system": dict(_ODE, input_signal=5),
                            "analysis": _ODE_RUN}),
    ("synth", "synthesis", {"gains": _SG_GAINS, "synthesis": 5}),
    ("synth", "synthesis", {"gains": _SG_GAINS, "synthesis": {"p": 5}}),
    ("simulate", "system", {"system": dict(_SAMPLED, h=5),
                            "analysis": _ODE_RUN}),
    ("simulate", "system", {"system": dict(_SAMPLED, h={"kind": "constant"}),
                            "analysis": _ODE_RUN}),
    ("iterate", "analysis.x0", {"gains": _SG_GAINS, "analysis": {"x0": {}}}),
    ("iterate", "analysis.max_steps", {"gains": _SG_GAINS, "analysis": {
        "x0": [1.0], "max_steps": math.inf}}),
    ("synth", "synthesis", {"gains": _SG_GAINS, "synthesis": {"M": "2"}}),
])
def test_config_field_of_wrong_json_type_rejected(tmp_path, capsys, command,
                                                  field, cfg):
    path = _write(tmp_path / "cfg.json", cfg)
    assert main([command, "--input", path, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: config field '{field}': ")
    assert "Traceback" not in err


_HALF = {"kind": "linear", "k": 0.5}


@pytest.mark.parametrize("gains, message", [
    ({"n": 2.9, "gains": []},
     "gain matrix field 'n' must be an integer, got 2.9"),
    ({"n": True, "gains": []},
     "gain matrix field 'n' must be an integer, got True"),
    ({"n": "2", "gains": []},
     "gain matrix field 'n' must be an integer, got '2'"),
    ({"n": 2, "gains": [{"i": 1.7, "j": 1, "fn": _HALF}]},
     "gain entry field 'i' must be an integer, got 1.7"),
    ({"n": 2, "gains": [{"i": True, "j": 1, "fn": _HALF}]},
     "gain entry field 'i' must be an integer, got True"),
    ({"n": 2, "gains": [{"i": 1, "j": 2.0, "fn": _HALF}]},
     "gain entry field 'j' must be an integer, got 2.0"),
    ({"n": 1, "gains": [{"i": 1, "j": 1, "fn": {"kind": "linear", "k": "0.5"}}]},
     "linear parameter 'k' must be a number, got '0.5'"),
    ({"n": 1, "gains": [{"i": 1, "j": 1, "fn": {"kind": "linear", "k": True}}]},
     "linear parameter 'k' must be a number, got True"),
    ({"n": 1, "gains": [{"i": 1, "j": 1, "fn": {
        "kind": "scale", "k": 1, "fn": {"kind": "power", "k": 0.5, "p": None}}}]},
     "power parameter 'p' must be a number, got None"),
], ids=["n-float", "n-bool", "n-string", "i-float", "i-bool", "j-float",
        "k-string", "k-bool", "nested-null"])
def test_check_sg_gain_config_numbers_strict(tmp_path, capsys, gains, message):
    # a float index was truncated, and a bool or a numeric string was taken
    # as a number: each ran to exit 0 (a null got float()'s message)
    path = _write(tmp_path / "cfg.json", {"gains": gains})
    out = tmp_path / "out"
    assert main(["check-sg", "--input", path, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: config field 'gains': {message}\n"
    assert not out.exists()


_BIG = [{"i": 1, "j": 1, "fn": _HALF}] * 100_000


@pytest.mark.parametrize("gains, message", [
    (_BIG, "gain matrix must be an object, got a JSON array"),
    ({"gains": _BIG}, "gain matrix requires a field 'n'"),
    ({"n": _BIG, "gains": []},
     "gain matrix field 'n' must be an integer, got a JSON array"),
    ({"n": 1, "gains": [{"i": 2, "j": 1, "fn": {"kind": "linear", "k": 0.5,
                                               "pad": _BIG}}]},
     "gain index out of range: i = 2, j = 1 with n = 1"),
    ({"n": 1, "gains": [{"i": 1, "j": 1, "fn": {"k": _BIG}}]},
     "gain requires a field 'kind'"),
    ({"n": 1, "gains": [{"i": 1, "j": 1, "fn": {"kind": "x" * 100_000}}]},
     "gain field 'kind' must be one of 'zero', 'linear', 'power', 'logexpsq', "
     "'max', 'compose', 'scale', got a JSON string"),
    ({"n": 1, "gains": [{"i": 1, "j": 1, "fn": {"kind": "linear",
                                               "k": _BIG}}]},
     "linear parameter 'k' must be a number, got a JSON array"),
], ids=["array", "no-n", "n-array", "index-out-of-range", "no-kind",
        "long-kind", "k-array"])
def test_gain_config_error_names_the_field_not_its_value(tmp_path, capsys,
                                                         gains, message):
    # the message names the field, never its value: echoing a 100,000-entry
    # matrix whole took 5.4 MB of stderr
    path = _write(tmp_path / "cfg.json", {"gains": gains})
    out = tmp_path / "out"
    assert main(["check-sg", "--input", path, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: config field 'gains': {message}\n"
    assert len(err.encode()) < 1024


_FIELDS = {
    "check-sg": ["seed"],
    "synth": ["seed", "table_points"],
    "iterate": ["seed", "max_steps", "tol_conv"],
    "simulate": ["seed", "horizon", "dt"],
    "validate": ["seed", "horizon", "dt", "tail_fraction", "tol_tail",
                 "tol_gain", "u_sup"],
}


# values of a JSON type that Python's float, int or truth test would take
_WRONG_TYPE = {
    "simulate-horizon-string": ("simulate", "horizon", "0.05"),
    "simulate-horizon-bool": ("simulate", "horizon", True),
    "simulate-seed-float": ("simulate", "seed", 2.9),
    "simulate-seed-bool": ("simulate", "seed", True),
    "iterate-max_steps-float": ("iterate", "max_steps", 2.9),
    "iterate-x0-string": ("iterate", "x0", [1.0, "2"]),
    "simulate-x0-bool": ("simulate", "x0", [[True]]),
    "synth-table_points-float": ("synth", "table_points", 3.0),
    "check-sg-grid-points-float": ("check-sg", "grid", {"points": 2.5}),
    "check-sg-grid-s_min-string": ("check-sg", "grid", {"s_min": "1e-9"}),
    "validate-require_convergence-string": (
        "validate", "require_convergence", "false"),
    "validate-require_convergence-number": (
        "validate", "require_convergence", 0),
}


@pytest.mark.parametrize("command, name, value", [
    (command, name, [1]) for command, names in _FIELDS.items()
    for name in names] + list(_WRONG_TYPE.values()), ids=[
    f"{command}-{name}" for command, names in _FIELDS.items()
    for name in names] + list(_WRONG_TYPE))
def test_analysis_field_of_wrong_type_rejected(tmp_path, capsys, command,
                                               name, value):
    cfg = dict(_SIM_CFG, gains=_SG_GAINS,
               analysis=dict(_SIM_CFG["analysis"], horizon=0.1))
    cfg["analysis"][name] = value
    out = tmp_path / "out"
    path = _write(tmp_path / "cfg.json", cfg)
    assert main([command, "--input", path, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: config field 'analysis.{name}': ")
    assert "Traceback" not in err
    assert not out.exists()


def test_check_sg_ring_longer_than_recursion_limit(tmp_path, capsys):
    n = sys.getrecursionlimit() + 100
    cfg = _write(tmp_path / "ring.json", {"gains": {"n": n, "gains": [
        {"i": i + 1, "j": (i + 1) % n + 1, "fn": {"kind": "linear", "k": 1.001}}
        for i in range(n)]}})
    out = tmp_path / "out"
    assert main(["check-sg", "--input", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == ""
    report = json.loads((out / "report.json").read_text())
    assert report["small_gain"]["failing_cycle"] == list(range(1, n + 1))
    assert report["gas_witness"] is not None


_DELAY = {"kind": "delay", "model": "linear_delay_network",
          "params": {"a": [1.0], "c": [[0.5]], "r": 0.1}}
_SAMPLED_RUN = dict(_SAMPLED, h={"kind": "constant", "value": 0.25})


@pytest.mark.parametrize("system, run", [
    (_ODE, {"horizon": math.inf, "dt": 0.01, "x0": [1.0]}),
    (_DELAY, {"horizon": math.inf, "dt": 0.01, "history": [1.0]}),
    (_SAMPLED_RUN, {"horizon": math.inf, "dt": 0.01, "x0": [1.0]}),
    (_ODE, {"horizon": 1.0, "dt": math.nan, "x0": [1.0]}),
], ids=["ode-inf", "delay-inf", "sampled-inf", "ode-nan-dt"])
def test_simulate_grid_not_finite_rejected(tmp_path, capsys, system, run):
    path = _write(tmp_path / "cfg.json", {"system": system, "analysis": run})
    out = tmp_path / "out"
    assert main(["simulate", "--input", path, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: need finite dt and horizon")
    assert not out.exists()


_STEPS_ERR = "horizon / dt = 1e+18 exceeds MAX_STEPS = 10000000"
_SYSTEM_ERR = "config field 'system': "
_R_ERR = "linear_delay_network: delay r must be finite and >= 0"
_HISTORY_RUN = {"horizon": 1.0, "dt": 1e-3, "history": [1.0]}


@pytest.mark.parametrize("system, run, err", [
    (_ODE, {"horizon": 1e15, "dt": 1e-3, "x0": [1.0]}, _STEPS_ERR),
    (_DELAY, {"horizon": 1e15, "dt": 1e-3, "history": [1.0]}, _STEPS_ERR),
    (_SAMPLED_RUN, {"horizon": 1e15, "dt": 1e-3, "x0": [1.0]}, _STEPS_ERR),
    # the r / dt history rows count with the steps
    (dict(_DELAY, params=dict(_DELAY["params"], r=1e9)), _HISTORY_RUN,
     "r / dt + horizon / dt = 1e+12 exceeds MAX_STEPS = 10000000"),
    # an infinite delay is rejected when the system is parsed
    (dict(_DELAY, params=dict(_DELAY["params"], r=math.inf)), _HISTORY_RUN,
     _SYSTEM_ERR + _R_ERR),
], ids=["ode", "delay", "sampled", "delay-history", "delay-history-inf"])
def test_simulate_past_max_steps_rejected(tmp_path, capsys, monkeypatch,
                                          system, run, err):
    # the step count is checked before the grid is allocated
    path = _write(tmp_path / "cfg.json", {"system": system, "analysis": run})
    for name in ("arange", "empty"):
        monkeypatch.setattr(np, name, lambda *a, **k: pytest.fail(
            "simulation grid allocated"))
    out = tmp_path / "out"
    assert main(["simulate", "--input", path, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {err}\n"
    assert not out.exists()


_BIO = {"kind": "delay", "model": "biochem_circuit",
        "params": {"a": [1.0], "tau": [0.1],
                   "g": {"form": "mm", "c": 3.0, "K": 1.0}}}


def _with(system, **params):
    return dict(system, params=dict(system["params"], **params))


def _input(**signal):
    return dict(_ODE, input_signal=signal)


@pytest.mark.parametrize("system, run, err", [
    (_with(_DELAY, r=math.nan), _HISTORY_RUN, _R_ERR),
    (_with(_BIO, tau=[math.nan]), _HISTORY_RUN,
     "biochem_circuit: tau must match a and be finite and >= 0"),
    (_with(_DELAY, a=[math.nan]), _HISTORY_RUN,
     "linear_delay_network: a must be finite and positive"),
    (_with(_DELAY, c=[[math.inf]]), _HISTORY_RUN,
     "linear_delay_network: c must be n x n, finite and nonnegative"),
    (_with(_BIO, g={"form": "mm", "c": math.nan, "K": 1.0}), _HISTORY_RUN,
     "mm g-curve needs finite c > 0, K > 0"),
    (_with(_ODE, a=math.nan), _ODE_RUN,
     "scalar_linear: a must be finite and > 0"),
    (_with(_SAMPLED, A_hold=[[math.nan]]), _ODE_RUN,
     "zoh_linear: A_hold must be 1 x 1 and finite"),
    (_with(_BIO, a=[], tau=[]), dict(_HISTORY_RUN, history=[]),
     "biochem_circuit: a must be a nonempty finite positive vector"),
    (dict(_SAMPLED, h={"kind": "constant", "value": math.nan}), _ODE_RUN,
     "h value must be finite and > 0, got nan"),
    (dict(_SAMPLED, h={"kind": "jittered", "value": 0.1}), _ODE_RUN,
     "h field 'kind' must be one of 'constant', 'state_norm', got 'jittered'"),
    (_input(kind="noise", amplitude=math.nan), _ODE_RUN,
     "noise signal needs finite numbers"),
    (_input(kind="noise", amplitude=1e308), _ODE_RUN,
     "noise amplitude must be below half the float range"),
    (_input(kind="piecewise", times=[0.0, math.nan], values=[1.0, 2.0]),
     _ODE_RUN, "piecewise signal needs finite numbers"),
    (_input(kind="constant", value=math.nan), _ODE_RUN,
     "constant signal needs finite numbers"),
    (dict(_BIO, kind="ode"), _ODE_RUN,
     "model 'biochem_circuit' does not support kind 'ode'"),
    ({k: v for k, v in _ODE.items() if k != "kind"}, _ODE_RUN,
     "system requires a field 'kind'"),
    ({k: v for k, v in _ODE.items() if k != "model"}, _ODE_RUN,
     "system requires a field 'model'"),
    (dict(_ODE, kind=["ode"] * 100), _ODE_RUN,
     "system field 'kind' must be one of 'ode', 'delay', 'sampled', got a "
     "JSON array"),
    (dict(_DELAY, params={"c": [[0.5]]}), _HISTORY_RUN,
     "linear_delay_network requires a parameter 'a'"),
    (dict(_DELAY, params={"a": [1.0]}), _HISTORY_RUN,
     "linear_delay_network requires a parameter 'c'"),
    (dict(_BIO, params={"a": [1.0], "g": _BIO["params"]["g"]}), _HISTORY_RUN,
     "biochem_circuit requires a parameter 'tau'"),
    (dict(_BIO, params={"a": [1.0], "tau": [0.1]}), _HISTORY_RUN,
     "biochem_circuit requires a parameter 'g'"),
    (_with(_BIO, g={"form": "mm", "c": 3.0}), _HISTORY_RUN,
     "mm g-curve requires a field 'K'"),
    (_with(_BIO, g={"form": "hill", "c": 3.0}), _HISTORY_RUN,
     "hill g-curve requires a field 'p'"),
    (_with(_BIO, g=5), _HISTORY_RUN,
     "biochem_circuit parameter 'g' must be an object, got 5"),
    (_with(_BIO, g=[1.0] * 100), _HISTORY_RUN,
     "biochem_circuit parameter 'g' must be an object, got a JSON array"),
    (_input(kind="constant"), _ODE_RUN,
     "constant signal requires a field 'value'"),
    (_input(kind="sinusoid", frequency=1.0), _ODE_RUN,
     "sinusoid signal requires a field 'amplitude'"),
    (_input(kind="piecewise", values=[1.0]), _ODE_RUN,
     "piecewise signal requires a field 'times'"),
    (_input(kind="piecewise", times=[0.0]), _ODE_RUN,
     "piecewise signal requires a field 'values'"),
    (_input(kind="noise", seed=3), _ODE_RUN,
     "noise signal requires a field 'amplitude'"),
    # an unknown kind is described, not echoed: a 100,000-entry array as
    # h's kind took 500 KB of stderr
    (dict(_SAMPLED, h={"kind": ["x"] * 100_000, "value": 0.1}), _ODE_RUN,
     "h field 'kind' must be one of 'constant', 'state_norm', got a JSON "
     "array"),
    (_with(_BIO, g={"form": ["x"] * 100_000}), _HISTORY_RUN,
     "g field 'form' must be one of 'mm', 'hill', got a JSON array"),
], ids=["ldn-r-nan", "bio-tau-nan", "ldn-a-nan", "ldn-c-inf", "bio-g-c-nan",
        "scalar-a-nan", "zoh-a-hold-nan", "bio-no-nodes", "h-nan",
        "h-unknown-kind", "noise-amplitude-nan", "noise-amplitude-huge",
        "piecewise-time-nan", "constant-input-nan", "kind-not-the-models",
        "no-kind", "no-model", "kind-array", "ldn-no-a", "ldn-no-c",
        "bio-no-tau", "bio-no-g", "mm-no-K", "hill-no-p", "bio-g-number",
        "bio-g-array", "constant-no-value", "sinusoid-no-amplitude",
        "piecewise-no-times", "piecewise-no-values", "noise-no-amplitude",
        "h-kind-array", "g-form-array"])
def test_simulate_system_not_finite_or_out_of_range_rejected(
        tmp_path, capsys, system, run, err):
    path = _write(tmp_path / "cfg.json", {"system": system, "analysis": run})
    out = tmp_path / "out"
    assert main(["simulate", "--input", path, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {_SYSTEM_ERR}{err}\n"
    assert not out.exists()


# each of these ran to exit 0: float(), int() and np.asarray took a bool or a
# numeric string as a number and truncated a float seed, and a key that no
# reader reads was dropped, so a misspelled optional field took its default
@pytest.mark.parametrize("system, run, err", [
    (_input(kind="constant", value="0.5"), _ODE_RUN,
     "constant signal field 'value' must be a number, got '0.5'"),
    (_input(kind="constant", value=True), _ODE_RUN,
     "constant signal field 'value' must be a number, got True"),
    (_input(kind="noise", amplitude=1.0, seed=2.9), _ODE_RUN,
     "noise signal field 'seed' must be an integer, got 2.9"),
    (_input(kind="sinusoid", amplitude=1.0, frequncy=5.0), _ODE_RUN,
     "sinusoid signal has no field 'frequncy'"),
    (_input(kind="piecewise", times=["0"], values=[1.0]), _ODE_RUN,
     "each entry of piecewise signal field 'times' must be a number, got '0'"),
    (_with(_DELAY, r=True), _HISTORY_RUN,
     "linear_delay_network parameter 'r' must be a number, got True"),
    (_with(_DELAY, a=["1.0"], c=[["0.5"]], r="0.1"), _HISTORY_RUN,
     "each entry of linear_delay_network parameter 'a' must be a number, "
     "got '1.0'"),
    (_with(_DELAY, c=[["0.5"]]), _HISTORY_RUN,
     "each entry of linear_delay_network parameter 'c' must be a number, "
     "got '0.5'"),
    (_with(_DELAY, couplng="delayed_linear"), _HISTORY_RUN,
     "linear_delay_network has no parameter 'couplng'"),
    (_with(_BIO, tau=[True]), _HISTORY_RUN,
     "each entry of biochem_circuit parameter 'tau' must be a number, "
     "got True"),
    (_with(_BIO, g={"form": "mm", "c": 3.0, "K": 1.0, "p": 2.0}),
     _HISTORY_RUN, "mm g-curve has no field 'p'"),
    (_with(_BIO, g={"form": "hill", "c": "3", "p": 2.0}), _HISTORY_RUN,
     "hill g-curve field 'c' must be a number, got '3'"),
    (_with(_ODE, bd="0"), _ODE_RUN,
     "scalar_linear parameter 'bd' must be a number, got '0'"),
    (_with(_ODE, b=1.0), _ODE_RUN, "scalar_linear has no parameter 'b'"),
    (dict(_SAMPLED, h={"kind": "constant", "value": True}), _ODE_RUN,
     "h field 'value' must be a number, got True"),
    (dict(_SAMPLED, h={"kind": "constant", "value": 0.1, "h0": 0.2}),
     _ODE_RUN, "h has no field 'h0'"),
    (_with(_SAMPLED, n=1.5), _ODE_RUN,
     "zoh_linear parameter 'n' must be an integer, got 1.5"),
    (_with(_SAMPLED, A_hold=[["-1"]]), _ODE_RUN,
     "each entry of zoh_linear parameter 'A_hold' must be a number, "
     "got '-1'"),
    (dict(_ODE, input=_ODE["params"]), _ODE_RUN, "system has no field 'input'"),
], ids=["constant-string", "constant-bool", "noise-seed-float",
        "sinusoid-misspelled", "piecewise-time-string", "ldn-r-bool",
        "ldn-strings", "ldn-c-string", "ldn-misspelled", "bio-tau-bool",
        "mm-g-unknown", "hill-c-string", "scalar-bd-string",
        "scalar-unknown", "h-bool", "h-unknown", "zoh-n-float",
        "zoh-a-hold-string", "system-unknown"])
def test_simulate_system_field_of_wrong_type_or_name_rejected(
        tmp_path, capsys, system, run, err):
    path = _write(tmp_path / "cfg.json", {"system": system, "analysis": run})
    out = tmp_path / "out"
    assert main(["simulate", "--input", path, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {_SYSTEM_ERR}{err}\n"
    assert not out.exists()


@pytest.mark.parametrize("system, run, err", [
    (_ODE, dict(_ODE_RUN, x0=[math.nan]), "initial state"),
    (_DELAY, dict(_HISTORY_RUN, history=[math.nan]), "history"),
    (_SAMPLED, dict(_ODE_RUN, x0=[math.inf]), "initial state"),
], ids=["ode", "delay", "sampled"])
def test_simulate_initial_state_not_finite_rejected(tmp_path, capsys, system,
                                                    run, err):
    # a config error, not a finite escape of the system
    path = _write(tmp_path / "cfg.json", {"system": system, "analysis": run})
    out = tmp_path / "out"
    assert main(["simulate", "--input", path, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {err} must be finite\n"
    assert not out.exists()


def test_simulate_zoh_dimension_checked_before_default_matrices(
        tmp_path, capsys, monkeypatch):
    # n alone allocates nothing: a 10^7-node default A_hold would be 728 TiB
    for name in ("zeros", "eye"):
        monkeypatch.setattr(np, name, lambda *a, **k: pytest.fail(
            "default matrix allocated"))
    path = _write(tmp_path / "cfg.json", {
        "system": _with(_SAMPLED, n=10 ** 7), "analysis": _ODE_RUN})
    out = tmp_path / "out"
    assert main(["simulate", "--input", path, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(
        "error (simulate): cannot reshape array of size 1")
    assert not out.exists()


@pytest.mark.parametrize("points", [-1, 2 ** 20 + 1, 10 ** 12])
def test_synth_table_points_out_of_range_rejected(tmp_path, capsys,
                                                  monkeypatch, points):
    # the row count is checked before the table is allocated
    monkeypatch.setattr(np, "logspace", lambda *a, **k: pytest.fail(
        "gain table allocated"))
    path = _write(tmp_path / "cfg.json", {
        "gains": _SG_GAINS, "synthesis": {"zeta": {"kind": "linear", "k": 0.5}},
        "analysis": {"table_points": points}})
    out = tmp_path / "out"
    assert main(["synth", "--input", path, "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: config field 'analysis.table_points': must be 0 to "
        f"{2 ** 20}, got {points}\n")
    assert not out.exists()


def test_synth_table_of_zero_points_is_its_header(tmp_path):
    path = _write(tmp_path / "cfg.json", {
        "gains": _SG_GAINS, "synthesis": {"zeta": {"kind": "linear", "k": 0.5}},
        "analysis": {"table_points": 0}})
    out = tmp_path / "out"
    assert main(["synth", "--input", path, "--out", str(out)]) == 0
    assert (out / "gain_table.csv").read_text() == "s,theta,overall\n"


def _ring(n, k):
    return {"n": n, "gains": [{"i": i + 1, "j": (i + 1) % n + 1,
                               "fn": {"kind": "linear", "k": k}}
                              for i in range(n)]}


@pytest.mark.parametrize("gains, synthesis", [
    # zeta(s) = s^52 is finite up to s = 10^5.9 and inf at s = 1e6
    (_ring(n, 0.5), {"zeta": {"kind": "power", "k": 1.0, "p": 52.0}})
    for n in (1, 2)] + [
    # zeta(s) = 1e308*s is finite at s = 10^0.1, but M*zeta(s) is not: the
    # node itself is inf, and with n = 1 Q takes no Gamma step to check it
    (_ring(1, 0.5), {"zeta": {"kind": "linear", "k": 1e308}, "M": 1.7,
                     "a1": {"kind": "linear", "k": 1.0}}),
    # y = Gamma(Q(z*1)) holds 2z, and p_1(2z) = (2z)^60 overflows first at
    # s = 1e5; p_1 gets a float, so no numpy warning precedes the error
    ({"n": 2, "gains": [{"i": 1, "j": 2, "fn": {"kind": "linear", "k": 2.0}},
                        {"i": 2, "j": 1, "fn": {"kind": "linear", "k": 0.25}}]},
     {"zeta": {"kind": "linear", "k": 1.0},
      "p": [{"kind": "power", "k": 1.0, "p": 60.0}, {"kind": "zero"}],
      "a1": {"kind": "linear", "k": 1.0}})],
    ids=["zeta-inf-n1", "zeta-inf-n2", "inner-inf-n1", "p-of-y-inf"])
def test_synth_theta_argument_past_the_float_range(tmp_path, capsys, gains,
                                                   synthesis):
    path = _write(tmp_path / "cfg.json", {"gains": gains,
                                          "synthesis": synthesis})
    out = tmp_path / "out"
    assert main(["synth", "--input", path, "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error (synth): vector entries must be finite and >= 0\n")
    assert not out.exists()


@pytest.mark.parametrize("n", [0, 2 ** 20 + 1])
def test_check_sg_matrix_size_rejected(tmp_path, capsys, monkeypatch, n):
    monkeypatch.setattr(network, "GainMatrix", lambda *a: pytest.fail(
        "matrix allocated"))
    path = _write(tmp_path / "cfg.json", {"gains": {"n": n, "gains": []}})
    out = tmp_path / "out"
    assert main(["check-sg", "--input", path, "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: config field 'gains': matrix dimension must be 1 to "
        f"{2 ** 20}, got {n}\n")
    assert not out.exists()


def test_check_sg_empty_matrix_of_100000_nodes(tmp_path, capsys):
    path = _write(tmp_path / "cfg.json", {"gains": {"n": 100_000, "gains": []}})
    out = tmp_path / "out"
    assert main(["check-sg", "--input", path, "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert json.loads((out / "report.json").read_text())["small_gain"] == {
        "holds": True, "cycles": []}


def test_check_sg_mixed_ring_of_2000_nodes(tmp_path, capsys):
    # no closed form: the grid evaluates the ring's 2,000-gain chain
    n = 2000
    fn = {"kind": "scale", "k": 0.9,
          "fn": {"kind": "logexpsq", "c": 0.5, "th": 0.8}}
    path = _write(tmp_path / "ring.json", {"gains": {"n": n, "gains": [
        {"i": i + 1, "j": (i + 1) % n + 1, "fn": fn} for i in range(n)]}})
    out = tmp_path / "out"
    assert main(["check-sg", "--input", path, "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    sg = json.loads((out / "report.json").read_text())["small_gain"]
    assert [c["status"] for c in sg["cycles"]] == ["grid-verified"]


@pytest.mark.parametrize("low, high, code", [(0.1, 0.95, 0), (0.5, 1.5, 2)])
def test_check_sg_dense_over_cap_lists_critical_cycle(tmp_path, capsys, low,
                                                      high, code):
    # dense n = 9 has 125,673 circuits; the report lists the critical one
    n = 9
    k = np.random.default_rng(9).uniform(low, high, size=(n, n))
    cfg = _write(tmp_path / "dense.json", {"gains": {"n": n, "gains": [
        {"i": i + 1, "j": j + 1, "fn": {"kind": "linear", "k": float(k[i, j])}}
        for i in range(n) for j in range(n)]}})
    out = tmp_path / "out"
    assert main(["check-sg", "--input", cfg, "--out", str(out)]) == code
    assert capsys.readouterr().err == ""
    assert (out / "report.json").stat().st_size < 10_000
    report = json.loads((out / "report.json").read_text())
    sg = report["small_gain"]
    assert len(sg["cycles"]) == 1 and "cycles_listed" in sg
    if code == 0:
        assert sg["holds"] and "gas_witness" not in report
        return
    cyc = [i - 1 for i in sg["failing_cycle"]]
    assert math.prod(k[cyc[m], cyc[(m + 1) % len(cyc)]]
                     for m in range(len(cyc))) >= 1.0
    x = np.array(report["gas_witness"])
    assert len(x) == n and np.any(x > 0)
    assert np.all((k * x[None, :]).max(axis=1) >= x)


def _count_equal(node, target):
    if node == target:
        return 1
    if isinstance(node, dict):
        return sum(_count_equal(v, target) for v in node.values())
    if isinstance(node, list):
        return sum(_count_equal(v, target) for v in node)
    return 0


def test_synth_report_holds_gain_matrix_once(tmp_path):
    # 16 entries, each a 99-level scale chain over a linear gain
    entries = []
    for i in range(4):
        for j in range(4):
            fn = {"kind": "linear", "k": 0.2}
            for _ in range(99):
                fn = {"kind": "scale", "k": 1.0, "fn": fn}
            entries.append({"i": i + 1, "j": j + 1, "fn": fn})
    gains = {"n": 4, "gains": entries}
    cfg = _write(tmp_path / "deep4.json", {
        "gains": gains, "synthesis": {"zeta": {"kind": "linear", "k": 0.5}},
        "analysis": {"table_points": 5}})
    out = tmp_path / "out"
    assert main(["synth", "--input", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["composite"]["gains"] == gains
    assert _count_equal(report, gains) == 1


def test_repro_unknown_name_rejected(tmp_path, capsys):
    with pytest.raises(SystemExit):
        main(["repro", "nope", "--out", str(tmp_path / "o")])


def test_repro_rk4_order(tmp_path):
    out = tmp_path / "out"
    assert main(["repro", "rk4-order", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["passed"]
    assert all(3.5 <= o <= 4.5 for o in report["measured_orders"])
