"""No check passes vacuously: NaN wins every reduction and trips every guard."""

import math
import re
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from yaxter import linalg, suite, verify
from yaxter.baxterize import SpectralPoint, build_R
from yaxter.catalog import (BoltzmannWeights, FamilySpec, braid_matrix, braid_residual,
                            eigenvalues_of)
from yaxter.dynamics import Hamiltonian, hamiltonian, hamiltonian_closed, hamiltonian_fd
from yaxter.entangle import brylinski_witness, det_b_closed
from yaxter.gates import OneQubitGate, rotation
from yaxter.linalg import WeightRows, expm_hermitian, inverse, spectral_projectors, strand_gap
from yaxter.verify import (ResidualReport, family_inverse_unitarity, inverse_unitarity,
                           inverse_unitarity_expected, rho_formula, unitarity_residual,
                           worst)

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
# NaN and its verdict to fail. A call that returns an array evaluates one value
# per entry; "one-nan" poisons the second value the criterion evaluates.

def _nan_like(out, k=None):
    """``out`` with a NaN at its flat value k, or at every value for k None."""
    if isinstance(out, ResidualReport):
        return ResidualReport(residual=NAN, tolerance=out.tolerance, worst_case=out.worst_case)
    if isinstance(out, tuple):
        return tuple(_nan_like(part, k) for part in out)
    if isinstance(out, Hamiltonian):  # no record holds a NaN: a stand-in that reads as one
        return SimpleNamespace(matrix=_nan_like(out.matrix, k))
    if isinstance(out, np.ndarray):
        out = out.astype(np.result_type(out, float))
        out.flat[slice(None) if k is None else k] = NAN
        return out
    return NAN


def _values(out) -> int:
    """How many values a call evaluated: the entries of an array or a Hamiltonian record's
    matrix, else one."""
    if isinstance(out, Hamiltonian):
        return np.size(out.matrix)
    return _values(out[0]) if isinstance(out, tuple) else np.size(out)


# (criterion, function it calls from the suite module, field that must turn NaN)
INJECTIONS = [
    (suite.criterion_braid, "braid_residual", "max_residual"),
    (suite.criterion_qybe, "qybe_bound", "max_bound"),
    (suite.criterion_asymptotics, "frobenius", "max_residual"),
    (suite.criterion_unitarity, "_unitarity_gaps", "max_residual"),
    (suite.criterion_unitarity, "unitarity_residual", "min_off_domain_residual"),
    (suite.criterion_inverse_unitarity, "family_inverse_unitarity", "max_gap_compatible"),
    (suite.criterion_universality, "det_b_closed", "max_det_gap"),
    (suite.criterion_hamiltonians, "hermiticity_defect", "max_hermiticity_defect"),
    (suite.criterion_hamiltonians, "hamiltonian_closed", "max_closed_vs_exact"),
    (suite.criterion_evolution, "braiding_evolution_residual", "max_residual"),
    (suite.criterion_bell, "concurrence_det", "max_residual"),
]


@pytest.mark.parametrize("every", [False, True], ids=["one-nan", "all-nan"])
@pytest.mark.parametrize("criterion,name,field", INJECTIONS,
                         ids=[f"{c.__name__}-{n}" for c, n, _ in INJECTIONS])
def test_criterion_with_a_nan_value_fails(monkeypatch, criterion, name, field, every):
    real = getattr(suite, name)
    evaluated = [0]

    def poisoned(*args, **kwargs):
        out = real(*args, **kwargs)
        first = evaluated[0]
        evaluated[0] += _values(out)
        if every:
            return _nan_like(out)
        return _nan_like(out, 1 - first) if first <= 1 < evaluated[0] else out

    monkeypatch.setattr(suite, name, poisoned)
    entry = criterion(42)
    assert evaluated[0] >= 2
    assert math.isnan(entry[field])
    assert entry["pass"] is False


# ---------------------------------------------------------------------------
# Guards: a comparison written as ``not defect <= tol`` raises on NaN.

NAN4 = np.full((4, 4), NAN, dtype=complex)

GUARDS = {
    "spectral_projectors": lambda: spectral_projectors(NAN4, 1.0, -1.0),
    "inverse": lambda: inverse(NAN4),
    "inverse_unitarity": lambda: inverse_unitarity(NAN4, NAN4),
    "Hamiltonian": lambda: Hamiltonian(NAN4),
    "OneQubitGate": lambda: OneQubitGate(np.full((2, 2), NAN, dtype=complex), "nan"),
    "rotation": lambda: rotation((NAN, 0.0, 0.0), 1.0),
    "expm_hermitian": lambda: expm_hermitian(NAN4, 0.5),
    "expm_hermitian_theta": lambda: expm_hermitian(np.eye(4, dtype=complex), NAN),
}


@pytest.mark.parametrize("guard", GUARDS)
def test_guard_rejects_nan_input(guard):
    with pytest.raises(ValueError) as err:
        GUARDS[guard]()
    # the guard's own error, not numpy's failure on the NaN it let through
    assert not isinstance(err.value, np.linalg.LinAlgError)


# ---------------------------------------------------------------------------
# Operand forms: an eight-vertex kernel takes one dense 4x4 matrix or WeightRows. Any other
# dense operand is refused, naming the kernel and the operand, before any arithmetic: read
# as one matrix, the stack below would pass as its first matrix.

I4 = np.eye(4, dtype=complex)

#: each kernel with the bad operand in one place, the kernel's name and that operand's name
SHAPE_KERNELS = {
    "strand_gap": (lambda m: strand_gap(I4, m, I4), "strand_gap", "c"),
    "braid_residual": (braid_residual, "strand_gap", "a"),
    "unitarity_residual": (lambda m: unitarity_residual(I4, m), "unitarity_residual", "rconj"),
    "inverse_unitarity": (lambda m: inverse_unitarity(m, I4), "inverse_unitarity", "R(x)"),
    "brylinski_witness": (brylinski_witness, "brylinski_witness", "r"),
    "BoltzmannWeights.from_matrix": (BoltzmannWeights.from_matrix,
                                     "BoltzmannWeights.from_matrix", "b"),
}

BAD_OPERANDS = {
    "stack": (np.stack([I4, 2 * I4]), r"of shape \(2, 4, 4\)"),
    "2x2": (np.eye(2), r"of shape \(2, 2\)"),
    "flat": (np.ones(16), r"of shape \(16,\)"),
    "ragged": ([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1], [0, 0, 0, 1]], "not an array of numbers"),
}


@pytest.mark.parametrize("operand", BAD_OPERANDS)
@pytest.mark.parametrize("kernel", SHAPE_KERNELS)
def test_a_dense_operand_that_is_not_one_4x4_matrix_is_refused(kernel, operand, monkeypatch):
    def arithmetic(*args):
        raise AssertionError("arithmetic ran on a refused operand")

    monkeypatch.setattr(linalg, "_block_gaps", arithmetic)
    monkeypatch.setattr(verify, "block_product", arithmetic)
    call, name, what = SHAPE_KERNELS[kernel]
    m, shape = BAD_OPERANDS[operand]
    with pytest.raises(ValueError, match=rf"^{re.escape(name)} takes one dense 4x4 matrix or "
                                         rf"WeightRows: {re.escape(what)} is {shape}; read a "
                                         r"dense stack with WeightRows.of$"):
        call(m)


@pytest.mark.parametrize("call", [
    lambda rows: strand_gap(rows, I4, I4),
    lambda rows: strand_gap(I4, rows, I4),
    lambda rows: unitarity_residual(rows, I4),
    lambda rows: inverse_unitarity(I4, rows),
], ids=["strand_gap-rows-first", "strand_gap-dense-first", "unitarity_residual",
        "inverse_unitarity"])
def test_operands_of_mixed_forms_are_refused(call):
    # a dense matrix among rows would otherwise be reshaped as rows of its own
    rows = WeightRows.of(np.stack([I4, 2 * I4]))
    with pytest.raises(ValueError, match=r"^\w+ takes (dense 4x4 matrices or WeightRows, not "
                                         r"both|one dense 4x4 matrix or WeightRows: .* is not)"):
        call(rows)


def test_weight_rows_of_refuses_a_stack_of_other_matrices():
    for m in (np.eye(2), np.ones((3, 4, 2))):
        with pytest.raises(ValueError, match=r"^WeightRows.of takes a \(\.\.\., 4, 4\) stack"):
            WeightRows.of(m)


class _Unlisted:
    """A family value that no table lists, as a new Family member would be."""

    value = "unlisted"


UNLISTED = SimpleNamespace(family=_Unlisted(), q=1.0, t=2.0, parameters=lambda: (1j, 2.0, 1),
                           domain_violation=lambda x: None)


@pytest.mark.parametrize("call,message", [
    (lambda: det_b_closed(FamilySpec.bell(0.3), SpectralPoint.from_x(0.5), np.eye(4)[0]),
     "no closed-form determinant for bell-phi"),
    (lambda: inverse_unitarity_expected(FamilySpec.bell(0.3), 0.5),
     "no inverse-unitarity closed form for bell-phi"),
    (lambda: braid_matrix(UNLISTED.family, 1.0, 2.0, 1), "unknown family unlisted"),
    (lambda: eigenvalues_of(UNLISTED), "unknown family unlisted"),
    (lambda: rho_formula(UNLISTED, "x", 1.0), "unknown family unlisted"),
], ids=["det_b_closed", "inverse_unitarity_expected", "braid_matrix", "eigenvalues_of",
        "rho_formula"])
def test_a_family_is_named_by_its_value_in_errors(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


_E4_T16, _E4_IMAGINARY_T = FamilySpec.eight4(t=1.6, q=1.0), FamilySpec.eight4(t=1.5j, q=1.0)
_HUGE_X = SpectralPoint.from_x(1e200)


@pytest.mark.parametrize("call,message", [
    (lambda: build_R(_E4_T16, _HUGE_X), "matrix entries must be finite"),
    (lambda: family_inverse_unitarity(_E4_T16, 1e200), "an R-matrix entry reaches inf"),
    (lambda: hamiltonian(_E4_IMAGINARY_T, _HUGE_X), "an entry of R or dR/ds reaches nan"),
    (lambda: hamiltonian_fd(_E4_IMAGINARY_T, _HUGE_X), "rho = nan at x = 1e[+]200 is degenerate"),
    (lambda: hamiltonian_closed(FamilySpec.eight2(t=1e200, q=1.0), 0.0),
     "closed-form rho = nan is not finite"),
    (lambda: hamiltonian_closed(FamilySpec.eight4(t=1e200, q=1.0), 0.3),
     "closed-form rho = inf is not finite"),
], ids=["R_weights", "bounded_rows", "generator_job", "unitaries", "closed-inf-times-0",
        "closed-overflow"])
def test_each_overflow_guard_keeps_its_warnings_in_and_its_check_refuses(call, message):
    # the arithmetic overflows (or takes inf * 0) under np.errstate, and the check after it
    # refuses the result: an error, and no RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            call()


def test_build_at_an_overflowing_x_exits_2(capsys):
    # the table's polynomial overflows at x = 1e200; the evaluated R is checked once
    from yaxter import cli

    assert cli.main(["build", "--family", "eight4", "--t", "1.6", "--x", "1e200"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "must be finite" in err
