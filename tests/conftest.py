import pytest

from ramanpulse import EmitterParams, RawRates, checks, emitter_from_raw, ghz


@pytest.fixture(scope="session")
def siv_raw():
    # defect-emitter benchmark set: (g, kappa, gamma) = 2pi x (6, 30, 0.1) GHz,
    # both ground-state rates at a tenth of the optical decay
    return RawRates(gamma=ghz(0.1), gamma_1to0=ghz(0.01), gamma_0to1=ghz(0.01))


@pytest.fixture(scope="session")
def siv_params(siv_raw):
    return emitter_from_raw(siv_raw, g=ghz(6), kappa=ghz(30))


@pytest.fixture(scope="session")
def perfect_params():
    # no ground-state decoherence, lossy excited state only
    return EmitterParams(g=ghz(6), kappa=ghz(30), gamma_tilde=ghz(0.1))


@pytest.fixture(scope="session")
def table_row_unconstrained(siv_params):
    return checks.l1_optimum(siv_params)


@pytest.fixture(scope="session")
def optimal_sin2(table_row_unconstrained):
    return table_row_unconstrained.pulse
