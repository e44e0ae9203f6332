import json
import math

import numpy as np
import pytest
from scipy.integrate import quad

from ramanpulse import (CosineSeriesPulse, Envelope, ValidationError,
                        constrained_series, load_pulse, save_pulse,
                        sin2_pulse, write_samples)
from ramanpulse.pulse import write_csv

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


def test_envelope_finite_difference_fallback():
    pl = sin2_pulse(0.8)
    env = Envelope(T=0.8, f=pl.f)  # derivatives by finite differences
    ts = np.linspace(0.05, 0.75, 17)
    assert np.max(np.abs(env.df(ts) - pl.df(ts))) < 1e-5
    assert np.max(np.abs(env.d2f(ts) - pl.d2f(ts))) < 1e-2
    assert env.cumulative_norm(0.4) == pytest.approx(
        pl.cumulative_norm(0.4), abs=1e-9)


def test_envelope_chirp_accessors():
    pl = CosineSeriesPulse(0.5, (1.0,), chirp=3.0)
    env = pl.envelope()
    assert env.theta(0.2) == pytest.approx(0.6)
    assert env.dtheta(0.2) == pytest.approx(3.0)
    assert env.d2theta(0.2) == 0.0
    v = env.v(0.25)
    assert abs(v) == pytest.approx(pl.f(0.25), rel=1e-12)


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
    # per-harmonic closed form above w_max t = 0.05, power series below
    pl = CosineSeriesPulse(T, coeffs).normalize()
    w_max = 2 * math.pi * pl.order / T
    ts = np.r_[np.geomspace(1e-3, 0.5, 30) / w_max, np.linspace(0.0, T, 21)]
    assert np.any(ts * w_max < 0.05) and np.any(ts * w_max > 0.05)
    got = pl.cumulative_norm(ts)
    for t, value in zip(ts, got):
        ref, _ = quad(lambda x: pl.f(x) ** 2, 0.0, t, epsabs=0.0, epsrel=1e-13,
                      limit=200)
        assert value == pytest.approx(ref, rel=1e-6, abs=0.0)
    assert pl.cumulative_norm(2 * T) == pytest.approx(1.0, abs=1e-12)


def test_series_evaluate_is_one_pass_of_f_df_d2f():
    pl = CosineSeriesPulse(0.5, (1.0, -0.3, 0.2))
    ts = np.linspace(-0.1, 0.6, 71)
    f, df, d2f = pl.evaluate(ts)
    assert np.array_equal(f, pl.f(ts))
    assert np.array_equal(df, pl.df(ts))
    assert np.array_equal(d2f, pl.d2f(ts))
    env_jet = pl.envelope().evaluate(ts)
    assert all(np.array_equal(a, b) for a, b in zip(env_jet, (f, df, d2f)))
    generic = Envelope(T=0.5, f=pl.f, df=pl.df, d2f=pl.d2f)
    assert all(np.array_equal(a, b)
               for a, b in zip(generic.evaluate(ts), (f, df, d2f)))
