"""Two-qubit states, the concurrence determinant, and entangling-gate classification.

A pure state a = (a00, a01, a10, a11) is a tensor product of one-qubit states
exactly when Det(A) = a00 a11 - a01 a10 vanishes. A two-qubit gate is
universal (with local unitaries) iff it is entangling, i.e. maps some product
state to a state with Det != 0. For a product input a x b, Det(R (a x b)) is a
binary quadratic form in a and another in b, so it vanishes on every product
state iff it vanishes on the nine states of ``GRID``,
{|0>, |1>, |+>} x {|0>, |1>, |+>}. ``brylinski_witness`` evaluates those nine
determinants at once; the grid state with the largest |Det| is both the
decision and the witness.

Closed-form determinants after one application of an R-matrix are provided
per family in the family's rational (u) gauge, and in the trigonometric
gauge for the six-vertex families; ``classification_gauge_R`` builds the
matching matrix.
"""

from __future__ import annotations

import cmath
import enum
from dataclasses import dataclass

import numpy as np

from .baxterize import SpectralPoint, build_R, family_x, reference_gauge, x_to_u
from .catalog import Family, FamilySpec
from .linalg import require_invertible

ENTANGLING_TOL = 1e-8

SWAP = np.eye(4, dtype=complex)[[0, 2, 1, 3]]

_KETS = np.array([[1, 0], [0, 1], np.array([1, 1]) / np.sqrt(2)], dtype=complex)  # |0>, |1>, |+>

#: the (9, 4) product states {|0>, |1>, |+>} x {|0>, |1>, |+>}, one per row.
GRID = np.array([np.kron(a, b) for a in _KETS for b in _KETS])
GRID.flags.writeable = False


def state(a00, a01, a10, a11) -> np.ndarray:
    """The state (a00, a01, a10, a11); amplitude arrays that broadcast give the (..., 4)
    stack of states. The amplitudes of no state may all vanish."""
    psi = np.stack(np.broadcast_arrays(*(np.asarray(a, dtype=complex)
                                         for a in (a00, a01, a10, a11))), axis=-1)
    if not psi.any(axis=-1).all():
        raise ValueError("state amplitudes must not all vanish")
    return psi


def product_state(a, b, c, d) -> np.ndarray:
    """The product (a|0> + b|1>) x (c|0> + d|1>), or the stack of them; its determinant
    is exactly 0."""
    return state(a * c, a * d, b * c, b * d)


def apply(r: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """b_kl = sum_ij R^{kl}_{ij} a_ij in basis order (00, 01, 10, 11)."""
    return np.asarray(r, dtype=complex) @ np.asarray(psi, dtype=complex)


def concurrence_det(psi: np.ndarray):
    """Det(A) = a00 a11 - a01 a10; scale-covariant: Det(l psi) = l^2 Det(psi). A (..., 4)
    stack of states gives one Det per state."""
    psi = np.asarray(psi)
    det = psi[..., 0] * psi[..., 3] - psi[..., 1] * psi[..., 2]
    return det if det.ndim else complex(det)


def brylinski_witness(r: np.ndarray, tol: float = ENTANGLING_TOL) -> np.ndarray | None:
    """The ``GRID`` state whose image under r has the largest |Det|, if that
    |Det| exceeds tol ||r||_F^2; else None, and r keeps every product state a
    product. Scaling the floor with ||r||_F^2 makes the test invariant under r -> l r.

    Of states whose |Det| ties with the largest up to rounding (relative 1e-9),
    the first in ``GRID`` order is returned, so r and l r give the same witness.
    """
    r = np.asarray(r, dtype=complex)
    out = GRID @ r.T
    dets = np.abs(out[:, 0] * out[:, 3] - out[:, 1] * out[:, 2])
    top = dets.max()
    if not top > tol * np.vdot(r, r).real:
        return None
    return GRID[int(np.argmax(dets >= (1 - 1e-9) * top))].copy()


class Classification(str, enum.Enum):
    ENTANGLING = "entangling"
    NOT_ENTANGLING = "not-entangling"


@dataclass(frozen=True)
class ClassificationResult:
    classification: Classification
    witness: np.ndarray | None
    det: complex


def classification_gauge_R(spec: FamilySpec, p: SpectralPoint) -> np.ndarray:
    """The gauge in which the closed-form determinants below are stated."""
    if spec.family in (Family.SIX_NONSTD, Family.SIX_STD):
        return build_R(spec, p) / reference_gauge(spec, p.kind, p.value)
    u = x_to_u(family_x(spec, p.kind, p.value))
    return build_R(spec, SpectralPoint.from_u(u))


def classify(
    spec: FamilySpec,
    p: SpectralPoint,
    *,
    tol: float = ENTANGLING_TOL,
    probes: int | None = None,
    seed: int | None = None,
) -> ClassificationResult:
    """Brylinski classification of the family's gate at p, decided by ``brylinski_witness``.

    A singular R raises ``SingularMatrixError``: the criterion needs an
    invertible map. An entangling gate carries its witness and that state's
    output Det; a non-entangling one carries None and Det 0. ``probes`` and
    ``seed`` are accepted and ignored: they exist only because the ``sweep``
    workload of ``bench/`` still passes them.
    """
    r = classification_gauge_R(spec, p)
    require_invertible(r, context=f"{spec.family.value}, {p.kind} = {p.value}")
    witness = brylinski_witness(r, tol)
    if witness is None:
        return ClassificationResult(Classification.NOT_ENTANGLING, None, 0j)
    return ClassificationResult(Classification.ENTANGLING, witness, concurrence_det(r @ witness))


def det_b_closed(spec: FamilySpec, p: SpectralPoint, psi: np.ndarray):
    """Closed-form Det of (classification_gauge_R(spec, p) @ psi) for any input state; a
    (..., 4) stack of states gives one Det per state."""
    a0, a1, a2, a3 = np.moveaxis(np.asarray(psi, dtype=complex), -1, 0)
    q, t, s = spec.parameters()
    fam = spec.family
    if fam in (Family.SIX_NONSTD, Family.SIX_STD):
        g = spec.gamma
        theta = (p.value.real if p.kind == "theta"  # else x = e^{2 i theta}
                 else cmath.phase(family_x(spec, p.kind, p.value)) / 2)
        sh, sn = np.sinh(g), np.sin(theta)
        cross = 1j * sn * sh * (a1 * a1 * np.exp(1j * theta) + a2 * a2 * np.exp(-1j * theta))
        if fam is Family.SIX_NONSTD:
            return (sh * sh + sn * sn) * a0 * a3 - (sh * sh - sn * sn) * a1 * a2 + cross
        return np.sinh(g - 1j * theta) ** 2 * a0 * a3 - (sh * sh - sn * sn) * a1 * a2 + cross
    u = x_to_u(family_x(spec, p.kind, p.value))
    if fam is Family.EIGHT_I:
        return (1 - u * u) * (a0 * a3 - a1 * a2) + u * (
            q * a3 * a3 - a0 * a0 / q + s * (a1 * a1 - a2 * a2)
        )
    if fam is Family.EIGHT_II:
        z2 = t * t - 2 * t + 2
        b00b11 = (1 + (2 - z2) * u * u) * a0 * a3 + u * (
            (1 + (1 - t) * u) * a0 * a0 / q + q * (1 + (t - 1) * u) * a3 * a3
        )
        b01b10 = (1 + z2 * u * u) * a1 * a2 + s * u * np.sqrt(z2) * (a1 * a1 + a2 * a2)
        return b00b11 - b01b10
    if fam is Family.EIGHT_III:
        return (1 + t * t * u * u) * (a0 * a3 - a1 * a2) + u * t * (
            a0 * a0 / q + q * a3 * a3 - s * (a1 * a1 + a2 * a2)
        )
    if fam is Family.EIGHT_IV:
        b00b11 = (1 + t * u) ** 2 * ((t * t + u * u) * a0 * a3 + u * t * (a0 * a0 / q + q * a3 * a3))
        b01b10 = (u + t) ** 2 * ((1 + t * t * u * u) * a1 * a2 + s * u * t * (a1 * a1 + a2 * a2))
        return b00b11 - b01b10
    raise ValueError(f"no closed-form determinant for {fam.value}")


def nonentangling_locus(spec: FamilySpec, a: complex, b: complex, c: complex, d: complex) -> complex:
    """The product whose vanishing marks factors (a, b, c, d) as non-entangling.

    eight1: (d^2 -+ c^2/q)(q b^2 +- a^2); eight3: (a^2 -+ q b^2)(c^2/q -+ d^2),
    upper signs for the plus branch. Both factorizations reproduce the
    closed-form determinant exactly: Det = u * locus for eight1 and
    Det = u t * locus for eight3.
    """
    q = complex(spec.q)
    s = spec.sign.factor
    if spec.family is Family.EIGHT_I:
        return (d * d - s * c * c / q) * (q * b * b + s * a * a)
    if spec.family is Family.EIGHT_III:
        return (a * a - s * q * b * b) * (c * c / q - s * d * d)
    raise ValueError("non-entangling locus is catalogued only for eight1/eight3, "
                     f"not {spec.family.value}")


def nonentangling_locus_check(
    spec: FamilySpec,
    p: SpectralPoint,
    factors: tuple[complex, complex, complex, complex],
    tol: float = ENTANGLING_TOL,
) -> bool:
    """True iff the factors sit on the non-entangling locus.

    The locus value and the actual output determinant must agree on whether
    they vanish (the factorization is exact); disagreement raises.
    """
    a, b, c, d = (complex(z) for z in factors)
    na = float(np.hypot(abs(a), abs(b)))
    nc = float(np.hypot(abs(c), abs(d)))
    if na == 0 or nc == 0:
        raise ValueError("factors must describe a nonzero product state")
    a, b, c, d = a / na, b / na, c / nc, d / nc
    on_locus = abs(nonentangling_locus(spec, a, b, c, d)) < tol
    r = classification_gauge_R(spec, p)
    det = concurrence_det(apply(r, product_state(a, b, c, d)))
    u = x_to_u(family_x(spec, p.kind, p.value))
    prefactor = u if spec.family is Family.EIGHT_I else u * complex(spec.t)
    det_zero = abs(det) < tol * max(abs(prefactor), 1e-30)
    if abs(prefactor) > tol and on_locus != det_zero:
        raise RuntimeError(
            f"locus and determinant disagree: on_locus={on_locus}, |det|={abs(det):.3e}"
        )
    return on_locus and det_zero if abs(prefactor) > tol else on_locus
