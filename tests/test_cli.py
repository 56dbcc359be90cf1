import json
import math

import numpy as np
import pytest

from vectorgain.cli import main


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


def test_overwrite_protection(tmp_path, sg_config):
    out = tmp_path / "out"
    assert main(["check-sg", "--input", sg_config, "--out", str(out)]) == 0
    assert main(["check-sg", "--input", sg_config, "--out", str(out)]) == 1
    assert main(["check-sg", "--input", sg_config, "--out", str(out),
                 "--force"]) == 0


def test_byte_identical_reports(tmp_path, sg_config):
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    main(["check-sg", "--input", sg_config, "--out", str(out1), "--seed", "4"])
    main(["check-sg", "--input", sg_config, "--out", str(out2), "--seed", "4"])
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    assert (out1 / "effective_config.json").read_bytes() == \
        (out2 / "effective_config.json").read_bytes()


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
