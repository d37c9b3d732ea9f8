"""Criteria 5, 6 and 8 evaluate their samples as stacks. The per-point loops they
replaced are kept here as references: at the CI seeds each criterion passes and
its figure agrees with its loop to rounding. A criterion that raises a check error
fails in the report, which still holds every criterion."""

import json

import numpy as np
import pytest

from yaxter import baxterize, cli, dynamics, suite
from yaxter.baxterize import SpectralPoint
from yaxter.catalog import Family, FamilySpec, Sign
from yaxter.dynamics import evolve, gauge_unitary, hamiltonian_closed
from yaxter.entangle import (classification_gauge_R, concurrence_det, det_b_closed,
                             product_state, state)
from yaxter.linalg import frobenius
from yaxter.verify import TOLERANCES, family_inverse_unitarity, rho_formula, sample_x, worst

SEEDS = [42, 1, 7, 123]


def inverse_unitarity_loop(seed: int) -> tuple[float, float]:
    """(max gap, largest rho) of criterion 5, one point per call."""
    rng = np.random.default_rng(seed + 300)
    gaps, rhos = [], []
    for family in (Family.EIGHT_II, Family.EIGHT_III, Family.EIGHT_IV):
        spec = suite.representative_spec(family)
        for _ in range(10):
            x = sample_x(spec, rng)
            measured, _ = family_inverse_unitarity(spec, x)
            rhos.append(rho_formula(spec, "x", x))
            gaps.append(abs(measured - rhos[-1]))
    return worst(gaps), max(rhos)


def det_gap_loop(seed: int) -> tuple[float, float]:
    """(max gap, largest |Det|) of the closed-form determinants of criterion 6, one
    state per call."""
    rng = np.random.default_rng(seed + 402)
    gaps, dets = [], []
    for family in suite.R_FAMILIES:
        spec = suite.representative_spec(family)
        p = SpectralPoint.from_theta(0.7) if family is not Family.EIGHT_I \
            else SpectralPoint.from_x(0.6)
        r = classification_gauge_R(spec, p)
        for k in range(20):
            f = rng.standard_normal(8)
            make = product_state if k % 2 == 0 else state
            psi = make(f[0] + 1j * f[1], f[2] + 1j * f[3], f[4] + 1j * f[5], f[6] + 1j * f[7])
            dets.append(abs(concurrence_det(r @ psi)))
            gaps.append(abs(concurrence_det(r @ psi) - det_b_closed(spec, p, psi)))
    return worst(gaps), max(dets)


def evolution_loop(seed: int) -> float:
    """Max residual of criterion 8, one sample per call, from the single-matrix gauge
    unitary, closed-form Hamiltonian and exponential."""
    rng = np.random.default_rng(seed + 500)
    residuals = []
    for _ in range(50):
        phi = float(rng.uniform(0, 2 * np.pi))
        theta = float(rng.uniform(-1.2, 1.2))
        sign = Sign.PLUS if rng.integers(2) == 0 else Sign.MINUS
        spec = FamilySpec.eight1(phi=phi, sign=sign)
        r = gauge_unitary(spec, SpectralPoint.from_theta(theta))
        u = evolve(hamiltonian_closed(spec, theta), -(np.pi / 2.0 - 2.0 * theta))
        residuals.append(frobenius(r - u))
    return worst(residuals)


@pytest.mark.parametrize("seed", SEEDS)
def test_criterion_5_agrees_with_its_loop(seed):
    entry = suite.criterion_inverse_unitarity(seed)
    gap, rho = inverse_unitarity_loop(seed)
    assert entry["pass"] and gap < TOLERANCES["inverse-unitarity"]
    assert abs(entry["max_gap_compatible"] - gap) <= 1e-14 * max(1.0, rho)


@pytest.mark.parametrize("seed", SEEDS)
def test_criterion_6_agrees_with_its_loop(seed):
    entry = suite.criterion_universality(seed)
    gap, det = det_gap_loop(seed)
    assert entry["pass"] and gap < entry["tolerance"]
    assert abs(entry["max_det_gap"] - gap) <= 1e-14 * max(1.0, det)


@pytest.mark.parametrize("seed", SEEDS)
def test_criterion_8_agrees_with_its_loop(seed):
    entry = suite.criterion_evolution(seed)
    residual = evolution_loop(seed)
    assert entry["pass"] and residual < entry["tolerance"]
    # R and the exponential are unitary, ||.||_F = 2: agreement relative to that norm
    assert abs(entry["max_residual"] - residual) <= 2e-14


def test_each_family_has_its_representative_spec():
    for family in Family:
        spec = suite.representative_spec(family)
        assert spec.family is family and spec == suite.representative_spec(family)


def test_a_wrong_table_fails_its_criteria_and_the_report_keeps_all_ten(capsys, monkeypatch):
    # the flip of test_a_sign_flipped_in_eight2s_linear_coefficient_fails_the_qybe_scan, in
    # eight2's rows only, seen by the builders and by the exact generators
    exact = baxterize._coefficient_rows

    def flipped(spec, ordering=None):
        rows = exact(spec, ordering)
        if spec.family is Family.EIGHT_II:
            rows = rows.copy()
            rows[1, 2] *= -1  # the -q of B at (0, 3), row 2 in the block order of _WEIGHTS
        return rows

    for module in (baxterize, dynamics):
        monkeypatch.setattr(module, "_coefficient_rows", flipped)
    report = suite.run_suite(42)
    criteria = report["criteria"]
    assert [c["id"] for c in criteria] == list(range(1, 11))
    assert [c["name"] for c in criteria] == list(suite.NAMES)
    assert report["all_pass"] is False
    errors = {c["id"]: c for c in criteria if "error" in c}
    assert sorted(errors) == [5, 7]
    for entry in errors.values():  # no numbers beside the message
        assert entry["pass"] is False and list(entry) == ["id", "name", "pass", "error"]
    assert errors[5]["error"].startswith("R(x) R(1/x) is not proportional to 1")
    assert errors[7]["error"].startswith("Hamiltonian is not Hermitian")
    assert cli.main(["suite"]) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out) == json.loads(json.dumps(report)) and captured.err == ""


def test_an_error_that_is_no_check_error_propagates(monkeypatch):
    def broken(seed):
        raise RuntimeError("not a check error")

    monkeypatch.setattr(suite, "CRITERIA", [*suite.CRITERIA[:3], broken, *suite.CRITERIA[4:]])
    with pytest.raises(RuntimeError, match="not a check error"):
        suite.run_suite(42)
