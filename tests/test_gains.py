import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from vectorgain.gains import (
    MAX_JSON_DEPTH, BracketError, Compose, GainError, GridSpec,
    Linear, LogExpSq, Max, Power, Scale, Zero, _collapse, check_contraction,
    compose_chain, gain_from_json, gain_to_json, invert,
)
from oracles import logexpsq_closed_form


# -- evaluation against independent formulas --------------------------------

S_VALUES = [0.0, 1e-12, 1e-6, 0.5, 1.0, 7.3, 1e3, 1e9]


def test_zero_and_linear_eval():
    z, l = Zero(), Linear(2.5)
    for s in S_VALUES:
        assert z(s) == 0.0
        assert l(s) == 2.5 * s


def test_power_eval():
    g = Power(3.0, 0.5)
    for s in S_VALUES:
        assert g(s) == pytest.approx(3.0 * s ** 0.5, rel=1e-15)


def test_logexpsq_eval_matches_closed_form():
    g = LogExpSq(0.5, 0.8)
    # closed-form oracle overflows above s ~ 2.5e5 (t = sqrt(2s) > 709)
    for s in [1e-12, 1e-6, 0.5, 1.0, 7.3, 1e3, 1e5]:
        assert g(s) == pytest.approx(logexpsq_closed_form(0.5, 0.8, s),
                                     rel=1e-12)
    assert g(0.0) == 0.0


def test_logexpsq_huge_argument_no_overflow():
    g = LogExpSq(0.5, 0.9)
    s = 1e12
    t = math.sqrt(2 * s)
    expected = 0.5 * (t + math.log(0.9)) ** 2
    assert g(s) == pytest.approx(expected, rel=1e-9)
    assert math.isfinite(g(1e300))


def test_max_compose_scale_eval():
    g = Max(Linear(0.5), Power(1.0, 2.0))
    for s in S_VALUES:
        assert g(s) == max(0.5 * s, s * s)
    c = Compose(Linear(2.0), Power(1.0, 2.0))
    assert c(3.0) == 18.0
    assert Scale(4.0, Linear(0.5))(2.0) == 4.0


def test_compose_chain_order():
    # chain [f, g] means f(g(s)): leftmost is outermost
    f, g = Linear(2.0), Power(1.0, 2.0)
    assert compose_chain([f, g])(3.0) == 2.0 * 9.0
    assert compose_chain([g, f])(3.0) == 36.0
    assert compose_chain([f])(5.0) == 10.0


def test_eval_rejects_bad_input():
    g = Linear(1.0)
    with pytest.raises(GainError):
        g(-1.0)
    with pytest.raises(GainError):
        g(float("nan"))


def test_constructor_validation():
    with pytest.raises(GainError):
        Linear(-0.1)
    with pytest.raises(GainError):
        Power(1.0, 0.0)
    with pytest.raises(GainError):
        LogExpSq(0.0, 0.5)
    with pytest.raises(GainError):
        LogExpSq(0.5, -1.0)
    with pytest.raises(GainError):
        Scale(-1.0, Linear(1.0))


# -- contraction verdicts ---------------------------------------------------

def test_linear_contraction_exact():
    assert check_contraction(Linear(0.999999)).status == "exact-true"
    v = check_contraction(Linear(1.0))
    assert v.status == "exact-false" and v.witness is not None
    assert Linear(1.0)(v.witness) >= v.witness


def test_power_contraction_exact_cases():
    assert check_contraction(Power(0.5, 1.0)).status == "exact-true"
    # p != 1 always fails somewhere: near 0 for p < 1, near inf for p > 1
    for g in (Power(0.5, 0.5), Power(0.5, 2.0), Power(2.0, 0.5)):
        v = check_contraction(g)
        assert v.status == "exact-false"
        assert g(v.witness) >= v.witness


def test_power_contraction_exponent_near_one():
    # the crossing point k*s**(p-1) = 1 is e^6931 for p = 1.0001 and e^-6931
    # for p = 0.9999: refuted, with no float witness instead of an overflow
    # or a witness of 0
    for g in (Power(0.5, 1.0001), Power(0.5, 0.9999)):
        v = check_contraction(g)
        assert v.status == "exact-false" and not v.holds
        assert v.witness is None
        assert "no witness" in v.detail
    # crossing points at about 1e30 and 1e-69 are still representable
    for g in (Power(0.5, 1.01), Power(0.2, 0.99)):
        v = check_contraction(g)
        assert v.status == "exact-false"
        assert v.witness > 0 and g(v.witness) >= v.witness


def test_logexpsq_contraction_iff_param_below_one():
    assert check_contraction(LogExpSq(0.5, 0.97)).status == "exact-true"
    v = check_contraction(LogExpSq(0.5, 1.0))
    assert not v.holds
    v = check_contraction(LogExpSq(0.5, 1.3))
    assert not v.holds and LogExpSq(0.5, 1.3)(v.witness) >= v.witness


def test_logexpsq_half_scale_fixed_points_numeric():
    # with c = 1/2 the map is conjugate to t -> ln(1 + th*(e^t - 1)),
    # which is below identity everywhere iff th < 1
    g_ok, g_bad = LogExpSq(0.5, 0.9), LogExpSq(0.5, 1.1)
    for s in np.logspace(-8, 8, 100):
        assert g_ok(s) < s
        assert g_bad(s) > s


def test_composition_collapse_power():
    g = Compose(Power(2.0, 2.0), Power(3.0, 0.5))
    v = check_contraction(g)
    # 2*(3*sqrt(s))^2 = 18 s: exact linear verdict expected
    assert v.exact
    assert not v.holds
    for s in (0.1, 1.0, 10.0):
        assert g(s) == pytest.approx(18.0 * s, rel=1e-12)


def test_composition_collapse_logexpsq_parameters_multiply():
    a, b = 0.7, 1.2
    g = Compose(LogExpSq(0.5, a), LogExpSq(0.5, b))
    merged = LogExpSq(0.5, a * b)
    for s in np.logspace(-6, 4, 60):
        assert g(s) == pytest.approx(merged(s), rel=1e-9)
    assert check_contraction(g).exact
    assert check_contraction(g).holds == (a * b < 1)


def test_collapse_underflow_is_no_proof():
    # 1e-200*(1e-200*s**2)**2 = 1e-600*s**4 >= s for s >= 1e200: the
    # merged coefficient underflows to 0, which proves nothing
    g = compose_chain([Power(1e-200, 2.0)] * 2)
    v = check_contraction(g)
    assert not v.exact and v.status.startswith("grid-")


@pytest.mark.parametrize("g", [
    compose_chain([Linear(1e200)] * 2),           # k*k' = 1e400
    compose_chain([Power(1000.0, 5.0)] * 4),      # 1000**156
    compose_chain([LogExpSq(0.5, 1e200)] * 2),    # th*th' = 1e400
])
def test_collapse_overflow_is_left_to_the_grid(g):
    v = check_contraction(g)
    assert v.status == "grid-refuted" and g(v.witness) >= v.witness
    s = invert(g, 1.0)
    assert g(s) >= 1.0 > g(math.nextafter(s, 0.0))


def test_logexpsq_large_th_is_finite_where_th_expm1_overflows():
    # ln(1 + th*(e^t - 1)) = ln th + t + ln(1 - e^-t), t = sqrt(2s); for
    # th = 1e305 the product th*expm1(t) overflows up to t = 700
    th = 1e305
    g = LogExpSq(0.5, th)
    s = np.array([1e-20, 100.0, 2.4e5, 2.45e5, 2.6e5])
    t = np.sqrt(2.0 * s)
    expected = 0.5 * (math.log(th) + t + np.log(-np.expm1(-t))) ** 2
    np.testing.assert_allclose([g(v) for v in s.tolist()], expected,
                               rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(g(s), expected, rtol=1e-12, atol=0.0)
    assert g(100.0) == pytest.approx(2.5664e5, rel=1e-4)


def test_grid_verdict_for_mixed_tree():
    g = Max(Linear(0.4), Compose(Linear(0.5), LogExpSq(0.5, 0.9)))
    v = check_contraction(g)
    assert v.holds
    bad = Max(Linear(0.4), Power(0.5, 2.0))
    v = check_contraction(bad)
    assert not v.holds and bad(v.witness) >= v.witness


def test_grid_spec_validation():
    with pytest.raises(GainError):
        GridSpec(s_min=1.0, s_max=0.5)
    with pytest.raises(GainError):
        GridSpec(points=1)


# -- inversion --------------------------------------------------------------

def test_invert_linear_and_power_analytic():
    assert invert(Linear(2.0), 8.0) == pytest.approx(4.0, rel=1e-12)
    assert invert(Power(2.0, 2.0), 8.0) == pytest.approx(2.0, rel=1e-12)


def test_invert_bisection_round_trip():
    g = Max(LogExpSq(0.5, 0.9), Linear(0.01))  # no closed form: bisection
    for s in (1e-4, 0.3, 2.0, 50.0):
        y = g(s)
        s_inv = invert(g, y)
        assert g(s_inv) >= y
        assert s_inv == pytest.approx(s, rel=1e-12, abs=0.0)


def test_invert_rejects_zero_gain():
    with pytest.raises(BracketError):
        invert(Zero(), 1.0)


def test_invert_bracket_error():
    # Linear(1e-10) stays below 1e300 up to the largest float
    with pytest.raises(BracketError):
        invert(Linear(1e-10), 1e300)
    with pytest.raises(BracketError):
        invert(Max(Linear(1e-10), Linear(1e-20)), 1e300)  # no closed form


def test_invert_small_targets_round_up():
    # an absolute stopping tolerance of 1e-10 returned g(s) = 5.55e-11 here
    g = LogExpSq(0.5, 0.5)
    s = invert(g, 1e-12)
    assert 1e-12 <= g(s) <= 1e-12 * (1 + 1e-12)
    assert g(math.nextafter(s, 0.0)) < 1e-12
    # and 7.6e-6 here, where the root is sqrt(2e-14)
    g = Max(Power(0.5, 2.0), Linear(1e-30))
    s = invert(g, 1e-14)
    assert s == pytest.approx(math.sqrt(2e-14), rel=1e-12, abs=0.0)
    assert 1e-14 <= g(s) <= 1e-14 * (1 + 1e-12)


def test_invert_power_at_the_ends_of_the_float_range():
    with pytest.raises(BracketError):  # (1e300)**10 overflows
        invert(Power(1.0, 0.1), 1e300)
    s = invert(Power(1.0, 0.1), 1e30)
    assert s == pytest.approx(1e300, rel=1e-12)
    assert Power(1.0, 0.1)(s) >= 1e30
    # y/k underflows to 0, some 1e291 ulps below the root (about 4.4e-33,
    # where s**10 reaches the subnormals): the search doubles its step
    g = Power(1e300, 10.0)
    s = invert(g, 1e-30)
    assert g(s) >= 1e-30 > g(math.nextafter(s, 0.0))
    assert 1e-33 < s < 1e-32


# two leaves keep every intermediate value of a root for y in [1e-30, 1e30]
# within the float range; deeper chains of Power(k, 0.2) overflow or
# underflow inside, and g then jumps between adjacent floats
INVERT_TREES = st.recursive(st.one_of(
    st.builds(Linear, st.floats(1e-3, 1e3)),
    st.builds(Power, st.floats(1e-3, 1e3), st.floats(0.2, 5.0)),
    st.builds(LogExpSq, st.floats(0.1, 2.0), st.floats(0.1, 10.0))),
    lambda kids: st.one_of(
        st.builds(Max, kids, kids),
        st.builds(Compose, kids, kids),
        st.builds(Scale, st.floats(1e-3, 1e3), kids)), max_leaves=2)


@settings(max_examples=300, deadline=None)
@given(INVERT_TREES, st.floats(1e-30, 1e30))
def test_invert_rounds_up_without_tolerance(g, y):
    try:
        s = invert(g, y)
    except BracketError:
        assert g(1.7976931348623157e308) < y
        return
    assert y <= g(s)
    assert g(math.nextafter(s, 0.0)) < y
    if s >= 2.2250738585072014e-308:  # normal: relative spacing <= 2**-52
        assert g(s) <= y * (1 + 1e-12)


# -- JSON round trips -------------------------------------------------------

@pytest.mark.parametrize("g", [
    Zero(), Linear(0.7), Power(2.0, 0.5), LogExpSq(0.5, 0.9),
    Max(Linear(1.0), Power(0.5, 2.0)),
    Compose(LogExpSq(0.5, 1.1), Linear(2.0)),
    Scale(3.0, Max(Zero(), Linear(0.2))),
])
def test_gain_json_round_trip(g):
    d = gain_to_json(g)
    json.dumps(d)  # must be serializable
    g2 = gain_from_json(d)
    assert g2 == g
    for s in (0.0, 0.5, 3.0):
        assert g2(s) == g(s)


def test_gain_json_rejects_unknown_kind():
    with pytest.raises(ValueError):
        gain_from_json({"kind": "cubic", "k": 1.0})


def test_gain_json_depth_cap():
    d = {"kind": "linear", "k": 2.0}
    for _ in range(MAX_JSON_DEPTH - 1):
        d = {"kind": "scale", "k": 1.0, "fn": d}
    assert gain_from_json(d)(1.5) == 3.0
    with pytest.raises(GainError, match="nested deeper"):
        gain_from_json({"kind": "max", "a": {"kind": "zero"}, "b": d})


# -- property tests (hypothesis) -------------------------------------------

GAIN_STRATEGY = st.deferred(lambda: st.one_of(
    st.just(Zero()),
    st.builds(Linear, st.floats(0.01, 3.0)),
    st.builds(Power, st.floats(0.01, 3.0), st.floats(0.25, 3.0)),
    st.builds(LogExpSq, st.just(0.5), st.floats(0.05, 2.0)),
    st.builds(Max, GAIN_STRATEGY, GAIN_STRATEGY),
    st.builds(Compose, GAIN_STRATEGY, GAIN_STRATEGY),
))


@settings(max_examples=60, deadline=None)
@given(GAIN_STRATEGY, st.floats(0.0, 1e4), st.floats(0.0, 1e4))
def test_gains_nondecreasing_and_zero_at_zero(g, s1, s2):
    assert g(0.0) == 0.0
    lo, hi = min(s1, s2), max(s1, s2)
    assert g(lo) <= g(hi)


@settings(max_examples=40, deadline=None)
@given(GAIN_STRATEGY, GAIN_STRATEGY, GAIN_STRATEGY, st.floats(0.0, 100.0))
def test_composition_associative(f, g, h, s):
    lhs = Compose(f, Compose(g, h))(s)
    rhs = Compose(Compose(f, g), h)(s)
    assert lhs == rhs


def _wide(lo, hi):
    """Floats log-uniform over [10**lo, 10**hi]."""
    return st.floats(lo, hi).map(lambda e: 10.0 ** e)


# coefficients over [1e-200, 1e200]: a product of two or three of them can
# leave the float range, as a merged coefficient of _collapse can; th up
# to 1e305 makes th*expm1(sqrt(2s)) overflow in LogExpSq
WIDE_TREES = st.recursive(st.one_of(
    st.builds(Linear, _wide(-200, 200)),
    st.builds(Power, _wide(-200, 200), st.floats(0.2, 5.0)),
    st.builds(LogExpSq, st.one_of(st.just(0.5), st.floats(0.1, 2.0)),
              _wide(-200, 305))),
    lambda kids: st.one_of(
        st.builds(Max, kids, kids),
        st.builds(Compose, kids, kids),
        st.builds(Scale, _wide(-200, 200), kids)), max_leaves=3)
WIDE_S = st.one_of(st.just(0.0), _wide(-300, 300))


@settings(max_examples=300, deadline=None)
@given(WIDE_TREES, WIDE_S, WIDE_S)
def test_every_node_nondecreasing_on_floats_and_arrays(g, s1, s2):
    lo, hi = min(s1, s2), max(s1, s2)
    assert g(lo) <= g(hi)
    with np.errstate(over="ignore"):  # past the float range a gain is inf
        out = g(np.array([lo, hi]))
    assert out[0] <= out[1]


def _steps(g, s):
    """g(s) first, then every value computed on the way, s**p included."""
    if isinstance(g, Compose):
        inner = _steps(g.inner, s)
        return _steps(g.outer, inner[0]) + inner
    if isinstance(g, Max):
        a, b = _steps(g.a, s), _steps(g.b, s)
        return [max(a[0], b[0])] + a + b
    if isinstance(g, Scale):
        fn = _steps(g.fn, s)
        return [g.k * fn[0]] + fn
    if isinstance(g, Power):
        try:
            return [g(s), s ** g.p]
        except OverflowError:
            return [g(s), math.inf]
    return [g(s)]


def _normal(v):
    return 2.2250738585072014e-308 <= v < math.inf


@settings(max_examples=300, deadline=None)
@given(WIDE_TREES, _wide(-300, 300))
def test_collapse_keeps_the_value(g, s):
    # Compared only where no step of either evaluation leaves the normal
    # floats: a step that underflows or overflows makes that evaluation
    # wrong, not the rewrite.  A merge rounds a coefficient or exponent
    # once, and pow and expm1 scale a relative error of their argument by
    # |p ln s| <= 709*125 and by t = sqrt(2s) <= 709, so one merge moves
    # the value by at most about 709*125*2**-52 = 2e-11, and a three-leaf
    # tree merges twice at most.
    c = _collapse(g)
    assume(all(map(_normal, _steps(g, s) + _steps(c, s))))
    assert c(s) == pytest.approx(g(s), rel=1e-10, abs=0.0)


@settings(max_examples=200, deadline=None)
@given(WIDE_TREES)
def test_gain_json_round_trip_property(g):
    assert gain_from_json(json.loads(json.dumps(gain_to_json(g)))) == g


# -- array evaluation --------------------------------------------------------

def _gain_trees(leaves):
    return st.recursive(leaves, lambda kids: st.one_of(
        st.builds(Max, kids, kids),
        st.builds(Compose, kids, kids),
        st.builds(Scale, st.floats(0.01, 3.0), kids)), max_leaves=5)


LINEAR_TREES = _gain_trees(st.one_of(
    st.just(Zero()), st.builds(Linear, st.floats(0.01, 3.0))))
ALL_TREES = _gain_trees(st.one_of(
    st.just(Zero()), st.builds(Linear, st.floats(0.01, 3.0)),
    st.builds(Power, st.floats(0.01, 3.0), st.floats(0.25, 2.0)),
    st.builds(LogExpSq, st.floats(0.1, 2.0), st.floats(0.1, 10.0))))
# s = 1e6 puts LogExpSq on its log-space branch (sqrt(2s) > 700)
S_ARRAYS = st.lists(st.one_of(st.floats(0.0, 1e6),
                              st.sampled_from([0.0, 1e6, math.inf])),
                    min_size=1, max_size=16)


def _elementwise(g, s):
    return np.array([g(v) for v in s])


@settings(max_examples=200, deadline=None)
@given(LINEAR_TREES, S_ARRAYS)
def test_array_eval_equals_scalar_eval(g, s):
    s = np.array(s)
    out = g(s)
    assert out.shape == s.shape
    np.testing.assert_array_equal(out, _elementwise(g, s.tolist()))


@settings(max_examples=200, deadline=None)
@given(ALL_TREES, S_ARRAYS)
def test_array_eval_close_to_scalar_eval_with_power_and_logexpsq(g, s):
    # numpy's power, expm1 and log1p differ from libm in the last bit on
    # a few per cent of arguments
    s = np.array(s)
    with np.errstate(over="ignore"):
        out = g(s)
    np.testing.assert_allclose(out, _elementwise(g, s.tolist()),
                               rtol=1e-14, atol=0.0)


def test_zero_gain_array_is_zero_at_inf():
    out = Zero()(np.array([0.0, 1.0, math.inf]))
    assert out.tolist() == [0.0, 0.0, 0.0]


@pytest.mark.parametrize("bad", [[1.0, math.nan], [0.5, -1e-300]])
def test_array_argument_with_nan_or_negative_rejected(bad):
    for g in (Zero(), Linear(1.0), LogExpSq(0.5, 0.8),
              Max(Linear(1.0), Power(0.5, 2.0))):
        with pytest.raises(GainError, match="nonnegative"):
            g(np.array(bad))


def test_power_overflow_is_inf_on_floats_and_arrays():
    g = Power(1.0, 30.0)
    assert g(1e11) == math.inf
    with np.errstate(over="ignore"):
        assert g(np.array([1e11])).tolist() == [math.inf]
