"""Two-qubit states, the concurrence determinant, and entangling-gate classification.

A pure state a = (a00, a01, a10, a11) is a tensor product of one-qubit states
exactly when Det(A) = a00 a11 - a01 a10 vanishes. A two-qubit gate is
universal (with local unitaries) iff it is entangling, i.e. maps some product
state to a state with Det != 0. For a product input a x b, Det(R (a x b)) is a
binary quadratic form in a and another in b, so it vanishes on every product
state iff it vanishes on the nine states of ``GRID``,
{|0>, |1>, |+>} x {|0>, |1>, |+>}.

``brylinski_witness`` takes eight-vertex matrices: the direct sum of
O = [[p, q], [r, s]] on |00>, |11> and I = [[p', q'], [r', s']] on |01>, |10>.
With A = a0 b0, B = a1 b1, C = a0 b1 and D = a1 b0, the form is the quartic

    Det(R (a x b)) = p r A^2 + q s B^2 - p' r' C^2 - q' s' D^2 + (p s + q r - p' s' - q' r') A B

(AB = CD), which it evaluates at the nine grid states from R's eight weights on
Python numbers; the grid state with the largest |Det| is both the decision and
the witness. ``classify`` reads R's weights once, as Python numbers from its
rows (``baxterize.R_weights``), for the witness and for its singularity guard
det R = det O det I; it scatters R to a dense matrix only for a witness's Det.

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

from .baxterize import R_weights, SpectralPoint, _u_gauge, family_x, reference_gauge, x_to_u
from .catalog import Family, FamilySpec
from .linalg import WeightRows, require_invertible, weights

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


def brylinski_witness(r, tol: float = ENTANGLING_TOL) -> np.ndarray | None:
    """The ``GRID`` state whose image under r has the largest |Det|, if that
    |Det| exceeds tol ||r||_F^2; else None, and r keeps every product state a
    product. Scaling the floor with ||r||_F^2 makes the test invariant under r -> l r.

    Of states whose |Det| ties with the largest up to rounding (relative 1e-9),
    the first in ``GRID`` order is returned, so r and l r give the same witness.

    r is an eight-vertex 4x4 matrix (``linalg.weights`` raises on an entry off the
    pattern) or its eight weights as ``weights`` reads them; the nine determinants are
    the quartic of the module docstring.
    """
    (w,) = weights("brylinski_witness", "r", r)
    (p, q, r, s), (pi, qi, ri, si) = w[0::2], w[1::2]
    a, b, c, d = p * r, q * s, -pi * ri, -qi * si  # the coefficients of A^2, B^2, C^2, D^2
    ab = p * s + q * r - pi * si - qi * ri  # and of A B
    # (A, B, C, D) at |00>, |01>, |0+>, |10>, |11>, |1+>, |+0>, |+1>, |++>, the GRID order, is
    # (1, 0, 0, 0), (0, 0, 1, 0), (h, 0, h, 0), (0, 0, 0, 1), (0, 1, 0, 0), (0, h, 0, h),
    # (h, 0, 0, h), (0, h, h, 0) and (h^2, h^2, h^2, h^2), with h^2 = 1/2
    dets = [abs(a), abs(c), abs(a + c) / 2, abs(d), abs(b), abs(b + d) / 2, abs(a + d) / 2,
            abs(b + c) / 2, abs(a + b + c + d + ab) / 4]
    top = max(dets)
    if not top > tol * sum([(v * v.conjugate()).real for v in w]):  # ||r||_F^2
        return None
    floor = (1 - 1e-9) * top
    return GRID[next(k for k, det in enumerate(dets) if det >= floor)].copy()


class Classification(str, enum.Enum):
    ENTANGLING = "entangling"
    NOT_ENTANGLING = "not-entangling"


@dataclass(frozen=True)
class ClassificationResult:
    classification: Classification
    witness: np.ndarray | None
    det: complex


def classification_gauge_R(spec: FamilySpec, p: SpectralPoint) -> np.ndarray:
    """The gauge of the closed-form determinants below: ``build_R`` over the trigonometric
    gauge for the six-vertex families, else ``build_R`` at the point's x times the u view's
    gauge at that x. x = -1, where the u view does not exist, is a DomainError."""
    return WeightRows(_classification_weights(spec, p)).dense()


def _classification_weights(spec: FamilySpec, p: SpectralPoint) -> np.ndarray:
    """The (8,) weight rows of ``classification_gauge_R``: ``R_weights``, under its
    finiteness check, times the gauge."""
    if spec.family in (Family.SIX_NONSTD, Family.SIX_STD):
        return R_weights(spec, p) / reference_gauge(spec, p.kind, p.value)
    x = family_x(spec, p.kind, p.value)
    x_to_u(x)  # the DomainError at x = -1
    return _u_gauge(spec, x) * R_weights(spec, SpectralPoint.from_x(x))


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
    workload of ``bench/`` still passes them. R's eight weights are taken once as Python
    numbers from its rows (``_classification_weights``), for the singularity guard
    (``linalg.require_invertible``) and for the witness; the dense R is built only for a
    witness's det.
    """
    rows = _classification_weights(spec, p)
    w = tuple(rows.tolist())
    require_invertible(w, context=f"{spec.family.value}, {p.kind} = {p.value}")
    witness = brylinski_witness(w, tol)
    if witness is None:
        return ClassificationResult(Classification.NOT_ENTANGLING, None, 0j)
    r = WeightRows(rows).dense()
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
