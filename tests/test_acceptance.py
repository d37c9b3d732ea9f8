"""End-to-end acceptance battery: one test and one printed pass/fail line per
criterion, at the stated tolerances. Criteria 1-10 come from the seeded suite;
criterion 11 re-runs the CLI and compares bytes."""

import subprocess
import sys

import pytest

from yaxter.suite import run_suite

SEED = 42


@pytest.fixture(scope="module")
def suite_result():
    return run_suite(seed=SEED)


def _check(result, cid):
    entry = next(c for c in result["criteria"] if c["id"] == cid)
    status = "PASS" if entry["pass"] else "FAIL"
    detail = {k: v for k, v in entry.items() if k not in ("id", "name", "pass")}
    print(f"[{status}] criterion {cid}: {entry['name']} {detail}")
    assert entry["pass"], entry
    return entry


def test_criterion_01_braid_relation(suite_result):
    entry = _check(suite_result, 1)
    assert entry["max_residual"] < 1e-11


def test_criterion_02_qybe_all_parametrizations(suite_result):
    entry = _check(suite_result, 2)
    assert entry["max_bound"] < 1e-15


def test_criterion_03_asymptotics(suite_result):
    entry = _check(suite_result, 3)
    assert entry["max_residual"] < 1e-12


def test_criterion_04_unitarity(suite_result):
    entry = _check(suite_result, 4)
    assert entry["max_residual"] < 1e-10
    assert entry["min_off_domain_residual"] > 1e-3


def test_criterion_05_inverse_unitarity_compatibility(suite_result):
    entry = _check(suite_result, 5)
    assert entry["max_gap_compatible"] < 1e-9
    assert entry["eight1_gap_at_x2"] > 1e-3


def test_criterion_06_universality(suite_result):
    entry = _check(suite_result, 6)
    assert entry["classification_ok"]
    assert entry["max_det_gap"] < 1e-12


def test_criterion_07_hamiltonians(suite_result):
    entry = _check(suite_result, 7)
    assert entry["max_hermiticity_defect"] < 1e-12
    assert entry["eight1_exact_gap"] < 1e-12
    # the exact extractor agrees with every closed form to rounding
    assert entry["max_closed_vs_exact"] < 1e-12
    assert entry["eight1_theta_independence"] < 1e-12
    assert entry["max_special_form_gap"] < 1e-12
    assert entry["six_vertex_cosh_confirmed"]
    # the printed coth variant is discrepant and reported, not silently fixed
    assert entry["six_vertex_coth_printed_deviation"] > 1e-3


def test_criterion_08_evolution_identities(suite_result):
    entry = _check(suite_result, 8)
    assert entry["max_residual"] < 1e-10
    assert entry["theta_zero_gap"] < 1e-12


def test_criterion_09_cnot_routes(suite_result):
    entry = _check(suite_result, 9)
    assert entry["theorem1_residual"] < 1e-12
    assert entry["evolution_residual"] < 1e-11
    assert entry["route_agreement"] < 1e-11


def test_criterion_10_bell_basis(suite_result):
    entry = _check(suite_result, 10)
    assert entry["max_residual"] < 1e-12


def test_criterion_11_determinism():
    cmd = [sys.executable, "-m", "yaxter.cli", "suite", "--seed", str(SEED)]
    first = subprocess.run(cmd, capture_output=True, check=False)
    second = subprocess.run(cmd, capture_output=True, check=False)
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout
    print(f"[PASS] criterion 11: identical seeds give byte-identical suite output "
          f"({len(first.stdout)} bytes)")


def test_suite_reports_all_pass(suite_result):
    assert suite_result["all_pass"]
