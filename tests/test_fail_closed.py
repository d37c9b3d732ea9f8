"""No check passes vacuously: NaN wins every reduction and trips every guard."""

import math

import numpy as np
import pytest

from yaxter import suite
from yaxter.baxterize import SpectralPoint
from yaxter.catalog import FamilySpec
from yaxter.dynamics import Hamiltonian, HamiltonianSource
from yaxter.gates import OneQubitGate, rotation
from yaxter.linalg import inverse, spectral_projectors
from yaxter.verify import ResidualReport, inverse_unitarity, worst

NAN = float("nan")


def test_worst_is_the_max_and_keeps_the_first_tie():
    assert worst([0.5, 2.0, 1.0]) == 2.0
    assert worst([1.0, 3.0, 3.0], ["a", "b", "c"]) == (3.0, "b")


@pytest.mark.parametrize("k", [0, 1, 2])
def test_worst_counts_nan_as_the_largest(k):
    values = [1.0, 2.0, 3.0]
    values[k] = NAN
    residual, case = worst(values, ["a", "b", "c"])
    assert math.isnan(residual) and case == "abc"[k]
    assert not residual < 1.0


def test_worst_of_nothing_raises():
    with pytest.raises(ValueError):
        worst([])


# ---------------------------------------------------------------------------
# Suite criteria: one NaN value (or all of them) turns the criterion's figure
# NaN and its verdict to fail.

def _nan_like(out):
    if isinstance(out, ResidualReport):
        return ResidualReport(residual=NAN, tolerance=out.tolerance, worst_case=out.worst_case)
    if isinstance(out, tuple):
        return tuple(NAN for _ in out)
    return NAN


# (criterion, function it calls from the suite module, field that must turn NaN)
INJECTIONS = [
    (suite.criterion_braid, "scan_braid", "max_residual"),
    (suite.criterion_qybe, "scan_qybe", "max_residual"),
    (suite.criterion_asymptotics, "frobenius", "max_residual"),
    (suite.criterion_unitarity, "scan_unitarity", "max_residual"),
    (suite.criterion_unitarity, "unitarity_residual", "min_off_domain_residual"),
    (suite.criterion_inverse_unitarity, "family_inverse_unitarity", "max_gap_compatible"),
    (suite.criterion_universality, "det_b_closed", "max_det_gap"),
    (suite.criterion_hamiltonians, "hermiticity_defect", "max_hermiticity_defect"),
    (suite.criterion_evolution, "braiding_evolution_residual", "max_residual"),
    (suite.criterion_bell, "concurrence_det", "max_residual"),
]


@pytest.mark.parametrize("every", [False, True], ids=["one-nan", "all-nan"])
@pytest.mark.parametrize("criterion,name,field", INJECTIONS,
                         ids=[f"{c.__name__}-{n}" for c, n, _ in INJECTIONS])
def test_criterion_with_a_nan_value_fails(monkeypatch, criterion, name, field, every):
    real = getattr(suite, name)
    calls = []

    def poisoned(*args, **kwargs):
        calls.append(None)
        out = real(*args, **kwargs)
        return _nan_like(out) if every or len(calls) == 2 else out

    monkeypatch.setattr(suite, name, poisoned)
    entry = criterion(42)
    assert len(calls) >= 2
    assert math.isnan(entry[field])
    assert entry["pass"] is False


# ---------------------------------------------------------------------------
# Guards: a comparison written as ``not defect <= tol`` raises on NaN.

NAN4 = np.full((4, 4), NAN, dtype=complex)

GUARDS = {
    "spectral_projectors": lambda: spectral_projectors(NAN4, 1.0, -1.0),
    "inverse": lambda: inverse(NAN4),
    "inverse_unitarity": lambda: inverse_unitarity(lambda x: NAN4, 0.5),
    "Hamiltonian": lambda: Hamiltonian(NAN4, HamiltonianSource.CLOSED_FORM,
                                       FamilySpec.eight1(phi=0.0), SpectralPoint.from_theta(0.1)),
    "OneQubitGate": lambda: OneQubitGate(np.full((2, 2), NAN, dtype=complex), "nan"),
    "rotation": lambda: rotation((NAN, 0.0, 0.0), 1.0),
}


@pytest.mark.parametrize("guard", GUARDS)
def test_guard_rejects_nan_input(guard):
    with pytest.raises(ValueError):
        GUARDS[guard]()
