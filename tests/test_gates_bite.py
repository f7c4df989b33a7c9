"""Each acceptance gate must catch a known mutant of the code it guards:
the mutant is applied with ``monkeypatch``, and the gate must then fail."""

import pytest

from qbounds import geometry, oracle
from qbounds.eb_bounds import _QUARTER, _rank_bound

import test_acceptance as acceptance
import test_geometry as geometry_tests


@pytest.mark.parametrize("criterion", [
    acceptance.test_criterion_01_n0_tables,
    acceptance.test_criterion_02_N_tables_and_anchor_scan],
    ids=["criterion_01", "criterion_02"])
def test_f1_raised_by_1e_8_fails_the_table_criteria(monkeypatch, criterion):
    # f1(29) is within 7e-5 of c(29) and of 3/8, so n0(29) and N(29),
    # both near 2e5, move with it and disagree with the published tables
    values = geometry._constant_values

    def raised(p, digits):
        f1, *rest = values(p, digits)
        return (f1 * (1 + 1e-8), *rest)

    monkeypatch.setattr(geometry, "_constant_values", raised)
    with pytest.raises(AssertionError, match=r"failed.*\(29, \d+, \d+\)"):
        criterion()


def test_a_ball_volume_1_percent_large_fails_criterion_07(monkeypatch):
    # floor(1.01 V), an integer as a volume is, moves V_3(11, 2) = 243 and
    # no volume below 100: the seeded codes leave the pigeonhole bound
    # slack enough to pass, and the Golay code, which meets it with
    # equality, must catch it
    volume = oracle.hamming_ball_volume
    monkeypatch.setattr(oracle, "hamming_ball_volume", lambda q, n, e: (
        volume(q, n, e) * 101 // 100 if 0 < e < n else volume(q, n, e)))
    with pytest.raises(AssertionError, match="criterion 7 failed"):
        acceptance.test_criterion_07_lemma_checks()


def test_a_third_rank_bound_at_a_quarter_fails_the_codim_fields(monkeypatch):
    # codim_guarantees evaluating its delta = 1/3 rank bound at 1/4 must
    # disagree with rank_bound(p, n // 2, 1/3)
    def quarter(m, p, n):
        return _rank_bound(m, p, n // 2, _QUARTER).r_upper

    monkeypatch.setattr(geometry, "_CODIM_FORMULAS",
                        (*geometry._CODIM_FORMULAS[:2], quarter))
    gate = geometry_tests.TestCodimGuarantees()
    with pytest.raises(AssertionError):
        gate.test_fields_are_the_public_functions(None)
