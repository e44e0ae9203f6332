import json
import math

import numpy as np
import pytest

from ramanpulse import (CosineSeriesPulse, EmitterParams, Envelope,
                        InitialState, RawRates, ValidationError, DomainError,
                        combine_rates, cooperativity, emitter_from_raw, ghz,
                        load_params, params_from_dict, sin2_pulse)
from ramanpulse.trajectory import ClosedFormSolution


def test_combine_identity():
    raw = RawRates(gamma=0.2 * math.pi)
    comb = combine_rates(raw)
    assert comb.gamma_tilde == 0.2 * math.pi
    assert comb.Gamma1 == 0.0
    assert comb.Gamma2 == 0.0


def test_combine_sums():
    comb = combine_rates(RawRates(gamma=1.0, gamma_ph_e=2.0))
    assert comb.gamma_tilde == 3.0
    comb = combine_rates(RawRates(gamma_1to0=0.5, gamma_ph_1=0.25))
    assert comb.Gamma1 == 0.75
    comb = combine_rates(RawRates(gamma_0to1=0.4))
    assert comb.Gamma2 == 0.4


def test_combine_monotone():
    rng = np.random.default_rng(3)
    base = RawRates(gamma=1.0, gamma_ph_e=0.5, gamma_ph_1=0.2,
                    gamma_1to0=0.3, gamma_0to1=0.1)
    c0 = combine_rates(base)
    for name in ("gamma", "gamma_ph_e", "gamma_ph_1", "gamma_1to0", "gamma_0to1"):
        bumped = {f: getattr(base, f) for f in
                  ("gamma", "xi", "gamma_ph_e", "gamma_ph_1", "gamma_1to0",
                   "gamma_0to1", "kappa_tilde")}
        bumped[name] += rng.uniform(0.01, 1.0)
        c1 = combine_rates(RawRates(**bumped))
        assert c1.gamma_tilde >= c0.gamma_tilde
        assert c1.Gamma1 >= c0.Gamma1
        assert c1.Gamma2 >= c0.Gamma2


def test_raw_rates_validation():
    with pytest.raises(ValidationError):
        RawRates(gamma=-1.0)
    with pytest.raises(ValidationError):
        RawRates(xi=2.0)


def test_cooperativity_benchmark():
    p = EmitterParams(g=ghz(6), kappa=ghz(30), gamma_tilde=ghz(0.1))
    assert cooperativity(p) == pytest.approx(24.0, rel=1e-12)


def test_cooperativity_scale_invariance():
    rng = np.random.default_rng(1)
    for _ in range(10):
        g, k, gt = rng.uniform(0.5, 50, size=3)
        s = rng.uniform(0.1, 10)
        p1 = EmitterParams(g=g, kappa=k, gamma_tilde=gt)
        p2 = EmitterParams(g=g * s, kappa=k * s, gamma_tilde=gt * s)
        assert cooperativity(p2) == pytest.approx(cooperativity(p1), rel=1e-12)


def test_cooperativity_extra_loss_halves():
    p1 = EmitterParams(g=2.0, kappa=5.0, gamma_tilde=1.0)
    p2 = EmitterParams(g=2.0, kappa=5.0, kappa_tilde=5.0, gamma_tilde=1.0)
    assert cooperativity(p2) == pytest.approx(0.5 * cooperativity(p1), rel=1e-12)


def test_cooperativity_domain_error():
    p = EmitterParams(g=1.0, kappa=1.0, gamma_tilde=0.0)
    with pytest.raises(DomainError):
        cooperativity(p)


def test_emitter_validation():
    with pytest.raises(ValidationError):
        EmitterParams(g=0.0, kappa=1.0)
    with pytest.raises(ValidationError):
        EmitterParams(g=1.0, kappa=1.0, Gamma1=-0.1)


def test_params_from_dict_defaults():
    p, raw = params_from_dict({"g_GHz": 6, "kappa_GHz": 30, "gamma_GHz": 0.1})
    assert p.g == pytest.approx(ghz(6))
    assert p.gamma_tilde == pytest.approx(ghz(0.1))
    assert p.Gamma1 == 0.0 and p.Gamma2 == 0.0 and p.Delta == 0.0
    assert raw.kappa_tilde == 0.0


def test_params_gamma2_override():
    p, _ = params_from_dict({"g_GHz": 6, "kappa_GHz": 30,
                             "gamma_0to1_GHz": 0.01, "Gamma2_GHz": 0.05})
    assert p.Gamma2 == pytest.approx(ghz(0.05))


def test_params_from_dict_errors():
    with pytest.raises(ValidationError):
        params_from_dict({"kappa_GHz": 30})
    with pytest.raises(ValidationError):
        params_from_dict({"g_GHz": 6, "kappa_GHz": 30, "bogus": 1})


def test_load_params_roundtrip(tmp_path):
    path = tmp_path / "params.json"
    path.write_text(json.dumps({"g_GHz": 6, "kappa_GHz": 30,
                                "gamma_GHz": 0.1, "gamma_0to1_GHz": 0.01}))
    p, raw = load_params(path)
    assert p.Gamma2 == pytest.approx(ghz(0.01))
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    with pytest.raises(ValidationError):
        load_params(bad)


def test_emitter_from_raw_matches_combination(siv_raw):
    p = emitter_from_raw(siv_raw, g=ghz(6), kappa=ghz(30))
    comb = combine_rates(siv_raw)
    assert p.gamma_tilde == comb.gamma_tilde
    assert p.Gamma1 == comb.Gamma1
    assert p.Gamma2 == comb.Gamma2


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("build", [
    pytest.param(lambda: EmitterParams(g=NAN, kappa=1.0), id="params-g-nan"),
    pytest.param(lambda: EmitterParams(g=1.0, kappa=INF), id="params-kappa-inf"),
    pytest.param(lambda: EmitterParams(g=1.0, kappa=1.0, Gamma1=INF),
                 id="params-Gamma1-inf"),
    pytest.param(lambda: EmitterParams(g=1.0, kappa=1.0, Delta=NAN),
                 id="params-Delta-nan"),
    pytest.param(lambda: EmitterParams(g="six", kappa=1.0), id="params-g-text"),
    pytest.param(lambda: EmitterParams(g=None, kappa=1.0), id="params-g-none"),
    pytest.param(lambda: RawRates(gamma=INF), id="raw-gamma-inf"),
    pytest.param(lambda: RawRates(kappa_tilde=NAN), id="raw-kappa_tilde-nan"),
    pytest.param(lambda: CosineSeriesPulse(INF, (1.0,)), id="pulse-T-inf"),
    pytest.param(lambda: CosineSeriesPulse(NAN, (1.0,)), id="pulse-T-nan"),
    pytest.param(lambda: CosineSeriesPulse(0.5, (1.0, NAN)), id="pulse-coeff-nan"),
    pytest.param(lambda: CosineSeriesPulse(0.5, ("one",)), id="pulse-coeff-text"),
    pytest.param(lambda: CosineSeriesPulse(0.5, (1.0,), chirp=INF),
                 id="pulse-chirp-inf"),
    pytest.param(lambda: Envelope(T=INF, f=np.sin), id="envelope-T-inf"),
    pytest.param(lambda: Envelope(T=NAN, f=np.sin), id="envelope-T-nan"),
    pytest.param(lambda: InitialState(NAN, 0.0), id="state-alpha0-nan"),
    pytest.param(lambda: InitialState(1.0, complex(0.0, INF)),
                 id="state-beta0-inf"),
    pytest.param(lambda: InitialState(None), id="state-alpha0-none"),
    pytest.param(lambda: ClosedFormSolution(EmitterParams(g=1.0, kappa=1.0),
                                            sin2_pulse(0.5), NAN),
                 id="synthesis-E-nan"),
])
def test_non_finite_input_rejected(build):
    with pytest.raises(ValidationError):
        build()
