"""Acceptance suite: one test per release criterion of ramanpulse.checks.

Each test runs one criterion on the benchmark emitter of conftest, which is
also the default emitter of `figures --check`, asserts every record it
returns and prints a single PASS line; run with `pytest -v -s
tests/test_acceptance.py` to see them. The inputs and limits live in
ramanpulse.checks.
"""

from ramanpulse import checks


def _accept(number: str, title: str, records):
    assert records
    for record in records:
        assert record.passed, str(record)
    print(f"\nACCEPTANCE {number} {title}: PASS [{len(records)} records]")


def test_c1_optimized_pulse_table(siv_params, table_row_unconstrained):
    _accept("1", "optimized-pulse table (L=1, both modes)",
            checks.c1_optimized_pulse_table(siv_params, table_row_unconstrained))


def test_c1b_desk_grid_runtime(siv_params):
    _accept("1b", "desk-grid L=2 runtime",
            checks.c1b_desk_grid_runtime(siv_params))


def test_c2_slow_pulse_asymptote(siv_params):
    _accept("2", "slow-pulse asymptote", checks.c2_slow_pulse_asymptote(siv_params))


def test_c3_analytic_vs_quadrature():
    _accept("3", "closed-form vs quadrature G (100 cases)",
            checks.c3_analytic_vs_quadrature())


def test_c4_synthesis_closure(siv_params, optimal_sin2):
    _accept("4", "synthesis closure (drive -> amplitude equations)",
            checks.c4_synthesis_closure(siv_params, optimal_sin2))


def test_c5_lindblad_confirmation(siv_raw, siv_params, optimal_sin2):
    _accept("5", "master-equation confirmation at 1e-3",
            checks.c5_lindblad_confirmation(siv_params, siv_raw, optimal_sin2))


def test_c6_phase_properties(siv_params, optimal_sin2):
    _accept("6", "phase properties",
            checks.c6_phase_properties(siv_params, optimal_sin2))


def test_c7_bloch_average_identity(siv_params):
    _accept("7", "Bloch-average identity",
            checks.c7_bloch_average_identity(siv_params))


def test_c8_protocol_exactness():
    _accept("8", "protocol exactness (all four circuits)",
            checks.c8_protocol_exactness())
