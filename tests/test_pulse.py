import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from ramanpulse import (CosineSeriesPulse, Envelope, ValidationError,
                        as_envelope, constrained_series, load_pulse,
                        save_pulse, sin2_pulse, write_samples)
from ramanpulse.pulse import NORM_SWITCH, write_csv
from ramanpulse.trajectory import max_efficiency

TWO_PI = 2.0 * math.pi


def test_evaluate_at_zero():
    pl = CosineSeriesPulse(0.8, (0.7, -0.2, 0.1))
    f, df, d2f = pl.evaluate(0.0)
    assert f == 0.0 and df == 0.0
    expected = sum(v * (TWO_PI * n / 0.8) ** 2
                   for n, v in enumerate(pl.coeffs, start=1))
    assert d2f == pytest.approx(expected, rel=1e-12)


def test_evaluate_midpoint_single_term():
    pl = CosineSeriesPulse(0.5, (0.9,))
    assert pl.f(0.25) == pytest.approx(2 * 0.9, rel=1e-12)


def test_second_derivative_cancellation():
    # v2 = -v1/4 kills the curvature at both ends for a two-term series
    pl = CosineSeriesPulse(0.6, (1.0, -0.25))
    assert abs(pl.d2f(0.0)) < 1e-10
    assert abs(pl.d2f(0.6)) < 1e-10


def test_outside_support_is_zero():
    pl = sin2_pulse(0.44)
    for t in (-0.1, 0.45, 5.0):
        assert pl.f(t) == 0.0 and pl.df(t) == 0.0 and pl.d2f(t) == 0.0


def test_evaluate_takes_an_empty_array():
    # a maximum search with no falling zero of d samples the pulse at no time
    pl = CosineSeriesPulse(0.44, (1.0, -0.2, 0.1))
    assert [x.shape for x in pl.evaluate(np.zeros((2, 0)))] == [(2, 0)] * 3


def test_boundary_values_vanish():
    rng = np.random.default_rng(0)
    for _ in range(5):
        pl = CosineSeriesPulse(rng.uniform(0.2, 2.0),
                               tuple(rng.uniform(-1, 1, size=3)))
        for t in (0.0, pl.T):
            assert pl.f(t) == pytest.approx(0.0, abs=1e-12)
            assert pl.df(t) == pytest.approx(0.0, abs=1e-12)


def test_normalization_single_term():
    pl = CosineSeriesPulse(0.44, (1.0,)).normalize()
    assert pl.coeffs[0] == pytest.approx(1.2309149097933274, rel=1e-12)
    pl2 = CosineSeriesPulse(0.97, (2.5,)).normalize()
    assert pl2.coeffs[0] == pytest.approx(math.sqrt(2 / (3 * 0.97)), rel=1e-12)


def test_normalize_idempotent():
    pl = CosineSeriesPulse(0.3, (0.4, 0.1)).normalize()
    again = pl.normalize()
    assert np.max(np.abs(np.array(again.coeffs) - np.array(pl.coeffs))) < 1e-12


def test_normalize_all_zero():
    with pytest.raises(ValidationError):
        CosineSeriesPulse(1.0, (0.0, 0.0)).normalize()


def test_norm_against_quadrature():
    rng = np.random.default_rng(8)
    for _ in range(5):
        pl = CosineSeriesPulse(rng.uniform(0.2, 2.0),
                               tuple(rng.uniform(-1, 1, size=3))).normalize()
        val, _ = quad(lambda t: pl.f(t) ** 2, 0.0, pl.T, limit=200)
        assert abs(val - 1.0) < 1e-9


# derandomize=True does not pin the examples: Hypothesis 6.155 mixes in
# literals mined from the loaded src modules, and no settings profile stops it.
@settings(max_examples=200, deadline=None, derandomize=True)
@given(T=st.floats(0.01, 100.0), lead=st.floats(0.1, 5.0),
       ratios=st.lists(st.floats(-2.0, 2.0), min_size=0, max_size=5),
       chirp=st.floats(-100.0, 100.0))
def test_normalized_pulse_has_unit_norm(T, lead, ratios, chirp):
    pl = CosineSeriesPulse(T, (lead, *ratios), chirp=chirp).normalize()
    assert pl.cumulative_norm(T) == pytest.approx(1.0, abs=1e-12)


def test_cumulative_norm():
    pl = sin2_pulse(0.7)
    ts = np.linspace(0, 0.7, 9)
    cum = pl.cumulative_norm(ts)
    assert cum[0] == 0.0
    assert np.all(np.diff(cum) >= 0)
    assert cum[-1] == pytest.approx(1.0, abs=1e-12)
    assert pl.cumulative_norm(5.0) == pytest.approx(1.0, abs=1e-12)
    mid, _ = quad(lambda t: pl.f(t) ** 2, 0.0, 0.3)
    assert pl.cumulative_norm(0.3) == pytest.approx(mid, abs=1e-10)


def test_constrained_series_ratios():
    pl = constrained_series([1.0], 1.0)
    assert pl.coeffs == pytest.approx((1.0, -0.25))
    pl = constrained_series([1.35], 0.50)
    assert pl.coeffs[1] == pytest.approx(-0.3375, rel=1e-12)
    pl = constrained_series([1.0, 0.5, -0.3], 1.0)
    # slaved pairs: -(1/2)^2, -(3/4)^2, -(5/6)^2 of the preceding odd term
    assert pl.coeffs[1] == pytest.approx(-0.25)
    assert pl.coeffs[3] == pytest.approx(-0.5 * 9 / 16)
    assert pl.coeffs[5] == pytest.approx(0.3 * 25 / 36)


def test_constrained_series_kills_curvature():
    rng = np.random.default_rng(4)
    for _ in range(5):
        odd = rng.uniform(-1, 1, size=3)
        pl = constrained_series(odd, rng.uniform(0.2, 1.5))
        assert abs(pl.d2f(0.0)) < 1e-10
        assert abs(pl.d2f(pl.T)) < 1e-10


def test_constrained_series_empty():
    with pytest.raises(ValidationError):
        constrained_series([], 1.0)


def test_sin2_pulse():
    pl = sin2_pulse(0.44)
    assert pl.norm_sq() == pytest.approx(1.0, abs=1e-12)
    assert pl.f(0.22) == pytest.approx(2 * math.sqrt(2 / (3 * 0.44)), rel=1e-12)
    with pytest.raises(ValidationError):
        sin2_pulse(0.0)


def test_time_rescaling_covariance():
    pl = CosineSeriesPulse(0.5, (0.8, -0.2)).normalize()
    s = 3.7
    scaled = CosineSeriesPulse(s * pl.T, tuple(c / math.sqrt(s) for c in pl.coeffs))
    assert scaled.norm_sq() == pytest.approx(1.0, abs=1e-12)


def test_serialization_round_trip(tmp_path):
    pl = CosineSeriesPulse(0.44, (1.2, -0.3), chirp=2.5)
    d = pl.to_dict()
    assert d["theta"] == {"type": "linear", "c_rad_per_ns": 2.5}
    back = CosineSeriesPulse.from_dict(d)
    assert back == pl
    path = tmp_path / "pulse.json"
    save_pulse(pl, path)
    assert load_pulse(path) == pl
    plain = sin2_pulse(0.3)
    assert plain.to_dict()["theta"] == {"type": "none"}


def test_from_dict_errors():
    with pytest.raises(ValidationError):
        CosineSeriesPulse.from_dict({"coeffs": [1.0]})
    with pytest.raises(ValidationError):
        CosineSeriesPulse.from_dict(
            {"T_ns": 1.0, "coeffs": [1.0], "theta": {"type": "spline"}})


def test_constructor_keeps_converted_duration_and_chirp():
    # T and chirp are stored as the floats the finiteness check returns, as
    # the coefficients are
    pl = CosineSeriesPulse("0.5", ("1.0",), chirp="2")
    assert (pl.T, pl.coeffs, pl.chirp) == (0.5, (1.0,), 2.0)
    assert all(type(x) is float for x in (pl.T, pl.chirp, *pl.coeffs))
    assert pl.theta(0.1) == pytest.approx(0.2)
    assert pl.f(0.25) == CosineSeriesPulse(0.5, (1.0,)).f(0.25)
    for bad in ({"T": "abc"}, {"T": "-0.5"}, {"chirp": "inf"}):
        with pytest.raises(ValidationError):
            CosineSeriesPulse(**{"T": 0.5, "coeffs": (1.0,), **bad})


def test_envelope_finite_difference_fallback(siv_params):
    pl = sin2_pulse(0.8)
    env = Envelope(T=0.8, f=pl.f)  # derivatives by finite differences
    ts = np.linspace(0.05, 0.75, 17)
    assert np.max(np.abs(env.df(ts) - pl.df(ts))) < 1e-5
    assert np.max(np.abs(env.d2f(ts) - pl.d2f(ts))) < 1e-4
    assert env.cumulative_norm(0.4) == pytest.approx(
        pl.cumulative_norm(0.4), abs=1e-9)
    # the bound needs f'' accurate enough for the Chebyshev series of G to
    # resolve d above the noise of the finite differences
    short = sin2_pulse(0.4)
    assert max_efficiency(siv_params, Envelope(T=0.4, f=short.f)) == \
        pytest.approx(max_efficiency(siv_params, short), abs=1e-8)


def test_envelope_chirp_accessors():
    pl = CosineSeriesPulse(0.5, (1.0,), chirp=3.0)
    env = as_envelope(pl)
    assert env is pl
    assert env.theta(0.2) == pytest.approx(0.6)
    assert env.dtheta(0.2) == pytest.approx(3.0)
    assert env.d2theta(0.2) == 0.0
    assert env.v(0.25) == pytest.approx(np.exp(0.75j) * pl.f(0.25), rel=1e-12)


def test_write_samples(tmp_path):
    path = tmp_path / "pulse.csv"
    write_samples(sin2_pulse(0.44), path, n=11, header="unit test")
    lines = path.read_text().splitlines()
    assert lines[0] == "# unit test"
    assert lines[1] == "t_ns,f,theta"
    assert len(lines) == 13


def test_write_csv_format(tmp_path):
    path = tmp_path / "rows.csv"
    write_csv(path, ("name", "x", "n"),
              [("Gamma1", 1.0 / 3.0, 2), (f"{0.25:g}", np.float64(1e-20), 0)],
              header="provenance")
    assert path.read_text().splitlines() == [
        "# provenance",
        "name,x,n",
        "Gamma1,0.333333333333,2",
        "0.25,1e-20,0",
    ]
    write_csv(path, ("x",), [(1.5,)])
    assert path.read_text() == "x\n1.5\n"


@pytest.mark.parametrize("T, coeffs", [(0.44, (1.0,)), (0.5, (1.0, -0.3)),
                                       (0.345, (1.0, -0.2, 0.11)),
                                       (1.2, (0.4, 0.3, -0.2, 0.1))])
def test_cumulative_norm_harmonic_sum_against_quadrature(T, coeffs):
    # per-harmonic closed form above w_max t = NORM_SWITCH, power series below
    pl = CosineSeriesPulse(T, coeffs).normalize()
    w_max = 2 * math.pi * pl.order / T
    ts = np.r_[np.geomspace(1e-3, 0.5, 30) / w_max, np.linspace(0.0, T, 21)]
    assert np.any(ts * w_max < NORM_SWITCH) and np.any(ts * w_max > NORM_SWITCH)
    got = pl.cumulative_norm(ts)
    for t, value in zip(ts, got):
        ref, _ = quad(lambda x: pl.f(x) ** 2, 0.0, t, epsabs=0.0, epsrel=1e-13,
                      limit=200)
        assert value == pytest.approx(ref, rel=1e-6, abs=0.0)
    assert pl.cumulative_norm(2 * T) == pytest.approx(1.0, abs=1e-12)


def test_cumulative_norm_against_mpmath_on_both_sides_of_the_switch():
    # the full-grid L=3 optimum against 40-digit quadrature of f^2, on both
    # sides of the switch to the power series, and of w_max t = 0.05
    import mpmath
    T = 0.344942025959689
    v = (1.4631658561574354, -0.292633171231487, 0.16094824417731804)
    pl = CosineSeriesPulse(T, v)
    w_max = 2 * math.pi * pl.order / T
    ts = np.array([0.01, 0.049, 0.051, 0.99, 1.01, 0.99 * NORM_SWITCH,
                   1.01 * NORM_SWITCH, 2.0 * NORM_SWITCH]) / w_max
    with mpmath.workdps(40):
        def f2(x):
            return sum(c * (1 - mpmath.cos(2 * mpmath.pi * n * x / T))
                       for n, c in enumerate(v, start=1)) ** 2

        for t, value in zip(ts, pl.cumulative_norm(ts)):
            ref = mpmath.quad(f2, [0, t])
            assert abs(value - ref) <= 1e-12 * ref
            assert abs(pl.cumulative_norm(t) - ref) <= 1e-12 * ref


def test_series_evaluate_is_one_pass_of_f_df_d2f():
    pl = CosineSeriesPulse(0.5, (1.0, -0.3, 0.2))
    ts = np.linspace(-0.1, 0.6, 71)
    f, df, d2f = pl.evaluate(ts)
    assert np.array_equal(f, pl.f(ts))
    assert np.array_equal(df, pl.df(ts))
    assert np.array_equal(d2f, pl.d2f(ts))
    generic = Envelope(T=0.5, f=pl.f, df=pl.df, d2f=pl.d2f)
    assert all(np.array_equal(a, b)
               for a, b in zip(generic.evaluate(ts), (f, df, d2f)))


def test_cumulative_norm_of_constrained_pulse_at_small_t():
    # the desk L=3 constrained optimum: f''(0) = 0, so the leading series
    # coefficient cancels to the rounding level, and its float sum has the
    # wrong sign; each coefficient is rounded once from its exact value
    import mpmath
    T = 0.3507904868147897
    v = (1.5376551479467162, -0.38441378698667905, 0.18451861775360612,
         -0.10379172248640343, 0.061506205917868706, -0.04271264299851994)
    pl = CosineSeriesPulse(T, v)
    ts = np.array([1e-3, 1e-2, 0.05, 0.5, 3.9]) / (2 * math.pi * pl.order / T)
    with mpmath.workdps(40):
        def f2(x):
            return sum(c * (1 - mpmath.cos(2 * mpmath.pi * n * x / T))
                       for n, c in enumerate(v, start=1)) ** 2

        for t, value in zip(ts, pl.cumulative_norm(ts)):
            ref = mpmath.quad(f2, [0, t])
            assert abs(value - ref) <= 1e-12 * ref
            assert abs(pl.cumulative_norm(t) - ref) <= 1e-12 * ref
