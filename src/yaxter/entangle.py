"""Two-qubit states, the concurrence determinant, and entangling-gate classification.

A pure state a = (a00, a01, a10, a11) is a tensor product of one-qubit states
exactly when Det(A) = a00 a11 - a01 a10 vanishes. A two-qubit gate is
universal (with local unitaries) iff it is entangling, i.e. maps some product
state to a state with Det != 0. An invertible map keeps every product state a
product iff it is A x B or SWAP (A x B); ``is_local`` decides this exactly,
and the witness search (fixed probes, then seeded random product states) only
finds an example state for an entangling gate.

Closed-form determinants after one application of an R-matrix are provided
per family in the family's rational (u) gauge, and in the trigonometric
gauge for the six-vertex families; ``classification_gauge_R`` builds the
matching matrix.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .baxterize import SpectralPoint, ThetaConvention, build_R, family_x, reference_gauge, x_to_u
from .catalog import Family, FamilySpec
from .linalg import inverse

ENTANGLING_TOL = 1e-8

SWAP = np.eye(4, dtype=complex)[[0, 2, 1, 3]]

_KET = {
    "0": np.array([1, 0], dtype=complex),
    "1": np.array([0, 1], dtype=complex),
    "+": np.array([1, 1], dtype=complex) / np.sqrt(2),
    "-": np.array([1, -1], dtype=complex) / np.sqrt(2),
    "i": np.array([1, 1j], dtype=complex) / np.sqrt(2),
}

#: deterministic product-state probes: all pairs over {0, 1, +, -, i}.
PROBE_LABELS = [a + b for a in _KET for b in _KET]


def state(a00: complex, a01: complex, a10: complex, a11: complex) -> np.ndarray:
    psi = np.array([a00, a01, a10, a11], dtype=complex)
    if not psi.any():
        raise ValueError("state amplitudes must not all vanish")
    return psi


def product_state(a: complex, b: complex, c: complex, d: complex) -> np.ndarray:
    """The product (a|0> + b|1>) x (c|0> + d|1>); its determinant is exactly 0."""
    return state(a * c, a * d, b * c, b * d)


def probe_state(label: str) -> np.ndarray:
    return np.kron(_KET[label[0]], _KET[label[1]])


def apply(r: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """b_kl = sum_ij R^{kl}_{ij} a_ij in basis order (00, 01, 10, 11)."""
    return np.asarray(r, dtype=complex) @ np.asarray(psi, dtype=complex)


def concurrence_det(psi: np.ndarray) -> complex:
    """Det(A) = a00 a11 - a01 a10; scale-covariant: Det(l psi) = l^2 Det(psi)."""
    return complex(psi[0] * psi[3] - psi[1] * psi[2])


def brylinski_witness(
    r: np.ndarray,
    tol: float = ENTANGLING_TOL,
    probes: int = 1000,
    seed: int = 42,
) -> np.ndarray | None:
    """A product state that r maps to an entangled one (|Det| > tol), or None
    after the budget: deterministic probes first, then seeded random product states."""
    r = np.asarray(r, dtype=complex)
    for label in PROBE_LABELS:
        psi = probe_state(label)
        if abs(concurrence_det(apply(r, psi))) > tol:
            return psi
    rng = np.random.default_rng(seed)
    for _ in range(probes):
        f = rng.standard_normal(8)
        a, b, c, d = f[0] + 1j * f[1], f[2] + 1j * f[3], f[4] + 1j * f[5], f[6] + 1j * f[7]
        na, nc = np.hypot(abs(a), abs(b)), np.hypot(abs(c), abs(d))
        if na < 1e-6 or nc < 1e-6:
            continue
        psi = product_state(a / na, b / na, c / nc, d / nc)
        if abs(concurrence_det(apply(r, psi))) > tol:
            return psi
    return None


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
        return build_R(spec, p) / reference_gauge(spec, p)
    u = x_to_u(family_x(spec, p))
    return build_R(spec, SpectralPoint.from_u(u))


def is_local(r: np.ndarray, tol: float = ENTANGLING_TOL) -> bool:
    """True iff r = A x B or r = SWAP (A x B) within tol: the realignment
    m[(i,k),(j,l)] -> m[(i,j),(k,l)] of r or of r SWAP, rank 1 exactly for a
    product, has its second singular value below tol times its first."""
    r = np.asarray(r, dtype=complex)
    m = np.stack([r, r @ SWAP]).reshape(2, 2, 2, 2, 2).transpose(0, 1, 3, 2, 4)
    s = np.linalg.svd(m.reshape(2, 4, 4), compute_uv=False)
    return bool(np.any(s[:, 1] < tol * s[:, 0]))


def classify(
    spec: FamilySpec,
    p: SpectralPoint,
    probes: int = 1000,
    seed: int = 42,
    tol: float = ENTANGLING_TOL,
) -> ClassificationResult:
    """Brylinski classification of the family's gate at p, decided by ``is_local``.

    A singular R raises ``SingularMatrixError``: the criterion needs an
    invertible map. An entangling gate carries the first witness the search
    finds within ``probes`` (with its output Det), or None and Det 0.
    """
    r = classification_gauge_R(spec, p)
    inverse(r, context=f"{spec.family.value}, {p.kind} = {p.value}")
    if is_local(r, tol):
        return ClassificationResult(Classification.NOT_ENTANGLING, None, 0j)
    witness = brylinski_witness(r, tol=tol, probes=probes, seed=seed)
    det = 0j if witness is None else concurrence_det(apply(r, witness))
    return ClassificationResult(Classification.ENTANGLING, witness, det)


def det_b_closed(spec: FamilySpec, p: SpectralPoint, psi: np.ndarray) -> complex:
    """Closed-form Det of (classification_gauge_R(spec, p) @ psi) for any input state."""
    a0, a1, a2, a3 = (complex(z) for z in psi)
    q = complex(spec.q)
    s = spec.sign.factor
    fam = spec.family
    if fam in (Family.SIX_NONSTD, Family.SIX_STD):
        g = spec.gamma
        theta = complex(p.theta(ThetaConvention.HALF)).real
        sh, sn = np.sinh(g), np.sin(theta)
        cross = 1j * sn * sh * (a1 * a1 * np.exp(1j * theta) + a2 * a2 * np.exp(-1j * theta))
        if fam is Family.SIX_NONSTD:
            return (sh * sh + sn * sn) * a0 * a3 - (sh * sh - sn * sn) * a1 * a2 + cross
        return np.sinh(g - 1j * theta) ** 2 * a0 * a3 - (sh * sh - sn * sn) * a1 * a2 + cross
    u = x_to_u(family_x(spec, p))
    t = complex(spec.t)
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
    raise ValueError(f"no closed-form determinant for {fam}")


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
    raise ValueError(f"non-entangling locus is catalogued only for eight1/eight3, not {spec.family}")


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
    u = x_to_u(family_x(spec, p))
    prefactor = u if spec.family is Family.EIGHT_I else u * complex(spec.t)
    det_zero = abs(det) < tol * max(abs(prefactor), 1e-30)
    if abs(prefactor) > tol and on_locus != det_zero:
        raise RuntimeError(
            f"locus and determinant disagree: on_locus={on_locus}, |det|={abs(det):.3e}"
        )
    return on_locus and det_zero if abs(prefactor) > tol else on_locus
