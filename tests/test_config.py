"""The config tables: every field of every object rejects a value of the
wrong JSON type, and every object a key outside its table, through the
command line, with the field named and no output written."""

import contextlib
import copy
import io
import json
import math
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vectorgain.cli as cli
import vectorgain.gains as gains
import vectorgain.models as models
import vectorgain.network as network
import vectorgain.signals as signals
from vectorgain.config import (
    REQUIRED, Mismatch, integer, number, numbers, one_of, read, read_kind,
)
from vectorgain.gains import (
    Compose, Linear, LogExpSq, Max, Power, Scale, Zero, gain_to_json,
)
from vectorgain.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _run(tmp_path, command, cfg):
    """(exit code, stderr, whether the output directory exists) of one
    command run in process, with its files in tmp_path."""
    tmp_path.mkdir(parents=True, exist_ok=True)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        code = main([command, "--input", str(path), "--out", str(out)])
    return code, err.getvalue(), out.exists()


# -- the reader -------------------------------------------------------------

_TABLE = (("n", integer, REQUIRED), ("x", number, 1.0),
          ("mode", one_of("a", "b"), "a"))


def test_read_gives_defaults_in_table_order():
    assert read({"n": 3}, _TABLE, "thing") == {"n": 3, "x": 1.0, "mode": "a"}
    values = read({"mode": "b", "x": 2, "n": 1}, _TABLE, "thing")
    assert list(values.items()) == [("n", 1), ("x", 2.0), ("mode", "b")]


@pytest.mark.parametrize("d, message, field", [
    ([1], "thing must be an object, got a JSON array", None),
    ({"n": 1, "y": 2}, "thing has no part 'y'", None),
    ({"x": 1.0}, "thing requires a part 'n'", "n"),
    ({"n": 1.0}, "thing part 'n' must be an integer, got 1.0", "n"),
    ({"n": 1, "mode": "c"}, "thing part 'mode' must be one of 'a', 'b', "
                            "got 'c'", "mode"),
    # the first fault in table order, then the first key outside it
    ({"x": "1", "y": 2}, "thing requires a part 'n'", "n"),
    ({"n": 1, "y": 2, "mode": 3}, "thing part 'mode' must be one of 'a', "
                                  "'b', got 3", "mode"),
    ({"n": 1, "y": 2, "z": 3}, "thing has no part 'y'", None),
])
def test_read_names_the_first_fault(d, message, field):
    with pytest.raises(KeyError) as exc:
        read(d, _TABLE, "thing", "part", error=KeyError)
    assert exc.value.args == (message,) and exc.value.field == field


def test_read_nulls_and_array_entries():
    table = (("v", numbers, None), ("w", number, 0.0))
    assert read({"v": None, "w": None}, table, "t", nulls=("v", "w")) == {
        "v": None, "w": 0.0}
    with pytest.raises(ValueError, match="^t field 'w' must be a number, "
                                         "got None$"):
        read({"w": None}, table, "t", nulls=("v",))
    with pytest.raises(ValueError, match="^each entry of t field 'v' must be "
                                         "a number, got True$"):
        read({"v": [[1.0], [True]]}, table, "t")
    with pytest.raises(ValueError, match="^t field 'v' must be a rectangular "
                                         "array of numbers, got a JSON array$"):
        read({"v": [[1.0], [1.0, 2.0]]}, table, "t")


def test_read_kind():
    kinds = {"a": (_TABLE, "a thing", "field"), "b": ((), "b thing", "field")}
    assert read_kind({"kind": "b"}, kinds, "thing") == ("b", {})
    assert read_kind({"kind": "a", "n": 2}, kinds, "thing")[1]["n"] == 2
    for d, message in [
            (5, "thing must be an object, got 5"),
            ({}, "thing requires a field 'kind'"),
            ({"kind": ["a"]}, "thing field 'kind' must be one of 'a', 'b', "
                              "got a JSON array"),
            ({"kind": "b", "n": 1}, "b thing has no field 'n'"),
            ({"kind": "a"}, "a thing requires a field 'n'")]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            read_kind(d, kinds, "thing")


def test_a_rule_error_other_than_mismatch_passes_through():
    def rule(v):
        raise OverflowError("own error")

    with pytest.raises(OverflowError, match="own error"):
        read({"v": 1}, (("v", rule, None),), "t")


# -- every table, through the command line ----------------------------------

_G1 = {"n": 1, "gains": [{"i": 1, "j": 1, "fn": {"kind": "linear",
                                                 "k": 0.5}}]}
_RUN = {"horizon": 0.1, "dt": 0.01, "x0": [1.0]}
_HISTORY = {"horizon": 0.1, "dt": 0.01, "history": [1.0]}
_SCALAR = {"kind": "ode", "model": "scalar_linear", "params": {}}
_BIO = {"kind": "delay", "model": "biochem_circuit",
        "params": {"a": [1.0], "tau": [0.1],
                   "g": {"form": "mm", "c": 3.0, "K": 1.0}}}
# a valid system of each model, with the analysis it runs on
_MODELS = {
    "linear_delay_network": ({"kind": "delay", "model": "linear_delay_network",
                              "params": {"a": [1.0], "c": [[0.5]]}}, _HISTORY),
    "biochem_circuit": (_BIO, _HISTORY),
    "scalar_linear": (_SCALAR, _RUN),
    "zoh_linear": ({"kind": "sampled", "model": "zoh_linear",
                    "params": {"n": 1}, "h": {"value": 0.05}}, _RUN),
}
_GAINS = [Zero(), Linear(0.5), Power(0.5, 2.0), LogExpSq(0.5, 0.5),
          Max(Zero(), Zero()), Compose(Zero(), Zero()), Scale(0.5, Zero())]
_G_FORMS = {"mm": {"form": "mm", "c": 3.0, "K": 1.0},
            "hill": {"form": "hill", "p": 2.0}}
_SIGNALS = {"zero": {}, "constant": {"value": 1.0},
            "sinusoid": {"amplitude": 1.0},
            "piecewise": {"times": [0.0], "values": [1.0]},
            "noise": {"amplitude": 1.0}}


def _sites():
    """(name, command, valid config, path to the object, its table and the
    item its fields are called) of every table."""
    yield ("analysis", "check-sg", {"gains": _G1, "analysis": {}},
           ["analysis"], cli._ANALYSIS, "field")
    yield ("grid", "check-sg", {"gains": _G1, "analysis": {"grid": {}}},
           ["analysis", "grid"], cli._GRID, "field")
    yield ("synthesis", "synth", {"gains": _G1, "synthesis": {}},
           ["synthesis"], cli._SYNTHESIS, "field")
    yield ("gain matrix", "check-sg", {"gains": _G1}, ["gains"],
           network._MATRIX, "field")
    yield ("gain entry", "check-sg", {"gains": _G1}, ["gains", "gains", 0],
           network._ENTRY, "field")
    assert {gain_to_json(g)["kind"] for g in _GAINS} == set(gains._TABLES)
    for g in _GAINS:
        kind = gain_to_json(g)["kind"]
        cfg = {"gains": {"n": 1, "gains": [{"i": 1, "j": 1,
                                            "fn": gain_to_json(g)}]}}
        yield (kind, "check-sg", cfg, ["gains", "gains", 0, "fn"],
               gains._TABLES[kind][0], "parameter")
    yield ("system", "simulate", {"system": _SCALAR, "analysis": _RUN},
           ["system"], models._SYSTEM, "field")
    assert set(_MODELS) == set(models._REGISTRY)
    for model, (system, run) in _MODELS.items():
        yield (model, "simulate", {"system": system, "analysis": run},
               ["system", "params"], models._REGISTRY[model][0], "parameter")
    yield ("h", "simulate", {"system": _MODELS["zoh_linear"][0],
                             "analysis": _RUN}, ["system", "h"], models._H,
           "field")
    assert set(_G_FORMS) == set(models._G_FORMS)
    for form, g in _G_FORMS.items():
        system = dict(_BIO, params=dict(_BIO["params"], g=g))
        yield (f"{form} g-curve", "simulate",
               {"system": system, "analysis": _HISTORY},
               ["system", "params", "g"], models._G_FORMS[form][0], "field")
    assert set(_SIGNALS) == set(signals._FIELDS)
    for kind, signal in _SIGNALS.items():
        system = dict(_SCALAR, input_signal=dict(signal, kind=kind))
        yield (f"{kind} signal", "simulate", {"system": system,
                                              "analysis": _RUN},
               ["system", "input_signal"], signals._FIELDS[kind], "field")


# a bool, a string, a fraction where an integer is wanted and an array where
# an object is wanted: each value that a field's rule rejects is a case
_WRONG = {"bool": True, "string": "bogus", "fraction": 2.5, "array": [1.0]}


def _rejects(rule, value) -> bool:
    try:
        rule(value)
    except (Mismatch, ValueError):
        return True
    return False


def _cases():
    for site, command, cfg, path, table, item in _sites():
        for name, rule, _ in table:
            for label, value in _WRONG.items():
                if _rejects(rule, value):
                    yield pytest.param(command, cfg, path, name, value,
                                       f"'{name}'",
                                       id=f"{site}-{name}-{label}")
        key = (table[0][0] if table else "kind") + "x"
        yield pytest.param(command, cfg, path, key, 1.0,
                           f"has no {item} '{key}'", id=f"{site}-{key}")
    # the top-level objects, each under a command that reads it
    for name, command, cfg in [
            ("gains", "check-sg", {"gains": _G1}),
            ("system", "simulate", {"system": _SCALAR, "analysis": _RUN}),
            ("synthesis", "synth", {"gains": _G1, "synthesis": {}}),
            ("analysis", "check-sg", {"gains": _G1, "analysis": {}})]:
        for label in ("bool", "string", "array"):
            yield pytest.param(command, cfg, [], name, _WRONG[label],
                               f"'{name}'", id=f"config-{name}-{label}")
    yield pytest.param("check-sg", {"gains": _G1}, [], "gainsx", {},
                       "config has no field 'gainsx'", id="config-gainsx")


@pytest.mark.parametrize("command, cfg, path, key, value, named", _cases())
def test_every_table_rejects_a_wrong_type_or_name(tmp_path, command, cfg,
                                                  path, key, value, named):
    code, err, _ = _run(tmp_path / "valid", command, cfg)
    assert code in (0, 2), err
    cfg = copy.deepcopy(cfg)
    node = cfg
    for step in path:
        node = node[step]
    node[key] = value
    code, err, written = _run(tmp_path / "wrong", command, cfg)
    assert code == 1
    assert err.startswith("error: ") and named in err, err
    assert "Traceback" not in err
    assert not written


# each of these ran to exit 0, or printed a Python error text
_G2 = {"n": 2, "gains": [{"i": 1, "j": 2, "fn": {"kind": "linear", "k": 0.5}},
                         {"i": 2, "j": 1, "fn": {"kind": "linear", "k": 0.9}}]}
_LINEAR = {"i": 1, "j": 1, "fn": {"kind": "linear", "k": 0.5}}
_VALIDATE = {
    "system": {"kind": "ode", "model": "scalar_linear",
               "params": {"a": 1.0, "bu": 1.0},
               "input_signal": {"kind": "constant", "value": 1.0}},
    "gains": {"n": 1, "gains": []},
    "synthesis": {"zeta": {"kind": "power", "k": 0.6173, "p": 2.0},
                  "a1": {"kind": "power", "k": 0.5, "p": 2.0}},
    "analysis": {"horizon": 1.0, "dt": 0.01, "x0": [0.0], "u_sup": 1.0,
                 "require_convergence": False}}


def _entry(**fn):
    return {"n": 1, "gains": [dict(_LINEAR, fn=fn)]}


@pytest.mark.parametrize("command, cfg, message", [
    # read as an empty matrix, which holds
    ("check-sg", {"gains": {"n": 2, "gainz": _G2["gains"]}},
     "config field 'gains': gain matrix has no field 'gainz'"),
    ("check-sg", {"gains": {"n": 1, "gains": [dict(_LINEAR, w=2)]}},
     "config field 'gains': gain entry has no field 'w'"),
    ("check-sg", {"gains": _entry(kind="linear", k=0.5, kk=0.5)},
     "config field 'gains': linear has no parameter 'kk'"),
    ("check-sg", {"gains": _entry(kind="linear", kk=0.5)},
     "config field 'gains': linear requires a parameter 'k'"),
    # printed a bare 'k'
    ("check-sg", {"gains": _entry(kind="linear")},
     "config field 'gains': linear requires a parameter 'k'"),
    # a table of zeros
    ("synth", {"gains": _G2, "synthesis": {"zetta": {"kind": "linear",
                                                     "k": 2.0}}},
     "config field 'synthesis': synthesis has no field 'zetta'"),
    # every p silently Zero
    ("synth", {"gains": _G2, "synthesis": {"p": {}}},
     "config field 'synthesis': synthesis field 'p' must be an array, "
     "got a JSON object"),
    ("synth", {"gains": _G2, "synthesis": {"p": 5}},
     "config field 'synthesis': synthesis field 'p' must be an array, "
     "got 5"),
    ("synth", {"gains": _G2, "synthesis": {"p": [{"kind": "zero"}, 5]}},
     "config field 'synthesis': each entry of synthesis field 'p' must be "
     "an object, got 5"),
    ("synth", {"gains": _G2, "synthesis": []},
     "config field 'synthesis': synthesis must be an object, got a JSON "
     "array"),
    ("check-sg", {"gains": _G2, "analysis": {"grid": []}},
     "config field 'analysis.grid': analysis field 'grid' must be an "
     "object, got a JSON array"),
    ("check-sg", {"gains": _G2, "analysis": {"grid": {"point": 10}}},
     "config field 'analysis.grid': grid has no field 'point'"),
    # ran to t = 10
    ("simulate", {"system": _VALIDATE["system"],
                  "analysis": {"horizn": 0.1, "x0": [0.0]}},
     "config field 'analysis': analysis has no field 'horizn'"),
    # skipped the gain-bound check and passed
    ("validate", dict(_VALIDATE, analysis={
        **{k: v for k, v in _VALIDATE["analysis"].items() if k != "u_sup"},
        "usup": 1.0}),
     "config field 'analysis': analysis has no field 'usup'"),
    ("validate", {("synthesys" if k == "synthesis" else k): v
                  for k, v in _VALIDATE.items()},
     "config has no field 'synthesys'"),
    # a field that the command does not use is read all the same
    ("check-sg", {"gains": _G2, "analysis": {"horizon": "1"}},
     "config field 'analysis.horizon': analysis field 'horizon' must be a "
     "number, got '1'"),
    # an integer past the float range: named, not an OverflowError's text
    ("check-sg", {"gains": _G2, "analysis": {"x0": [1, 10 ** 400]}},
     "config field 'analysis.x0': analysis field 'x0' must be an array of "
     "numbers in the float range, got a JSON array"),
    ("check-sg", {"gains": _entry(kind="linear", k=10 ** 400)},
     "config field 'gains': linear parameter 'k' must be a number in the "
     "float range, got a JSON integer"),
    ("check-sg", {"analysis": {}}, "config requires a field 'gains'"),
    ("check-sg", [_G2], "config must be an object, got a JSON array"),
], ids=["gainz", "entry-extra-key", "gain-kk", "gain-kk-for-k", "gain-no-k",
        "zetta",
        "p-object", "p-number", "p-entry", "synthesis-array", "grid-array",
        "grid-point", "horizn", "usup", "synthesys", "unused-field-mistyped",
        "x0-past-float-range", "k-past-float-range", "no-gains",
        "config-array"])
def test_config_that_ran_before_is_rejected(tmp_path, command, cfg, message):
    code, err, written = _run(tmp_path, command, cfg)
    assert (code, err) == (1, f"error: {message}\n")
    assert not written


@pytest.mark.parametrize("fraction", [1.5, 7.0, 0.0, -0.5, math.nan])
def test_validate_tail_fraction_outside_unit_interval_exits_1(tmp_path,
                                                              fraction):
    cfg = dict(_VALIDATE, analysis=dict(_VALIDATE["analysis"],
                                        tail_fraction=fraction))
    code, err, written = _run(tmp_path, "validate", cfg)
    assert (code, err) == (1, "error (validate): tail_fraction must be in "
                              f"(0, 1], got {fraction}\n")
    assert not written


def test_one_config_serves_every_command(tmp_path):
    # the analysis table holds the fields of every command
    cfg = dict(_VALIDATE, gains=_G2, synthesis={}, analysis=dict(
        _VALIDATE["analysis"], x0=[0.0, 0.0], table_points=5,
        grid={"points": 64}))
    cfg["system"] = dict(cfg["system"], kind="ode")
    for command in ("check-sg", "synth", "iterate"):
        code, err, _ = _run(tmp_path / command, command, cfg)
        assert (code, err) == (0, ""), command


# -- no traceback on any one value ------------------------------------------

def _readme_sketch():
    text = README.read_text()
    sketch = text.split("### Config\n", 1)[1].split("```json\n", 1)[1]
    return json.loads(sketch.split("```", 1)[0])


def _paths(node, path=()):
    yield path
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _paths(child, path + (key,))


_SKETCH = _readme_sketch()
_SKETCH["analysis"].update(horizon=0.5, dt=0.01)
_SKETCH_PATHS = [p for p in _paths(_SKETCH) if p]
_NUMBERS = st.recursive(st.sampled_from([1e308, -1e308, 0.5, 2, 10 ** 400]),
                        lambda inner: st.lists(inner, max_size=3),
                        max_leaves=4)
_VALUES = st.one_of(
    st.booleans(), st.text(max_size=4), st.none(), _NUMBERS,
    st.sampled_from([1e308, -1e308]),
    st.dictionaries(st.sampled_from(["kind", "k", "n", "a", "x"]),
                    st.one_of(st.none(), st.booleans(), _NUMBERS),
                    max_size=2))


@settings(max_examples=60, deadline=None)
@given(path=st.sampled_from(_SKETCH_PATHS), value=_VALUES,
       command=st.sampled_from(["check-sg", "synth", "simulate"]))
def test_any_one_value_gives_an_exit_code_not_a_traceback(tmp_path_factory,
                                                          path, value,
                                                          command):
    cfg = copy.deepcopy(_SKETCH)
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    code, err, _ = _run(tmp_path_factory.mktemp("run"), command, cfg)
    assert code in (0, 1, 2)
    assert "Traceback" not in err


# -- the README -------------------------------------------------------------

def test_readme_config_section_names_every_field():
    section = README.read_text().split("### Config\n", 1)[1].split("\n## ")[0]
    prose = re.sub(r"```.*?```", "", section, flags=re.S)
    named = set(re.findall(r"`([^`]+)`", prose))
    fields = [name for name, _, _ in cli._ANALYSIS] + [
        name for table, _ in models._REGISTRY.values()
        for name, _, _ in table]
    assert [name for name in fields if name not in named] == []
