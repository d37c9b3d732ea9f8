"""Small dense complex matrix kernel.

Everything in this package lives on 2x2 or 4x4 complex matrices stored as
numpy ``complex128`` arrays, row-major, in the computational basis order
|00>, |01>, |10>, |11| (first tensor factor = control/left strand).

The JSON wire format for a matrix, shared by the whole package and the CLI, is

    {"dim": n, "entries": [[[re, im], ...], ...]}
"""

from __future__ import annotations

import numpy as np

DEFAULT_ATOL = 1e-10

# Scale-aware singularity threshold: |det(A / max|A_ij|)| < SINGULAR_EPS.
SINGULAR_EPS = 1e-12


class DegenerateSpectrumError(ValueError):
    """Raised when two supposedly distinct eigenvalues coincide."""


class NotTwoEigenvalueError(ValueError):
    """Raised when a matrix does not satisfy (b - l1)(b - l2) = 0."""


class SingularMatrixError(ValueError):
    """Raised when a matrix is singular within the scale-aware threshold."""


class NotHermitianError(ValueError):
    """Raised when a Hermitian matrix was required."""


def cmat(rows) -> np.ndarray:
    """Build a complex matrix, validating squareness, dim in {2, 4} and finiteness."""
    a = np.asarray(rows, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] not in (2, 4):
        raise ValueError(f"expected a 2x2 or 4x4 matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a.view(float))):
        raise ValueError("matrix entries must be finite")
    return a


def dagger(a: np.ndarray) -> np.ndarray:
    return a.conj().T


def frobenius(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))


def identity(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=complex)


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product (a x b)[i*n+k][j*n+l] = a[i][j] * b[k][l], capped at dim 4."""
    m, n = a.shape[0], b.shape[0]
    if m * n > 4:
        raise ValueError(f"tensor product dim {m}*{n} exceeds the dim-4 carrier")
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def spectral_projectors(
    b: np.ndarray,
    lam1: complex,
    lam2: complex,
    tol: float = DEFAULT_ATOL,
) -> tuple[np.ndarray, np.ndarray]:
    """Projectors of a two-eigenvalue matrix: P1 = (b - l2)/(l1 - l2), P2 = (b - l1)/(l2 - l1).

    Requires (b - l1)(b - l2) = 0 within ``tol`` (scaled by the matrix size);
    then P1 + P2 = 1, Pi^2 = Pi, P1 P2 = 0 and b = l1 P1 + l2 P2.
    """
    b = np.asarray(b, dtype=complex)
    scale = max(1.0, float(np.abs(b).max())) ** 2
    if not abs(lam1 - lam2) > tol * max(1.0, abs(lam1), abs(lam2)):
        raise DegenerateSpectrumError(f"eigenvalues coincide: {lam1} ~ {lam2}")
    eye = identity(b.shape[0])
    minimal = (b - lam1 * eye) @ (b - lam2 * eye)
    if not frobenius(minimal) <= tol * scale:
        raise NotTwoEigenvalueError(
            f"(b - {lam1})(b - {lam2}) has norm {frobenius(minimal):.3e}; "
            "matrix is not annihilated by the two-eigenvalue polynomial"
        )
    p1 = (b - lam2 * eye) / (lam1 - lam2)
    p2 = (b - lam1 * eye) / (lam2 - lam1)
    return p1, p2


def inverse(a: np.ndarray, context: str = "") -> np.ndarray:
    """Matrix inverse with a scale-aware singularity guard."""
    a = np.asarray(a, dtype=complex)
    with np.errstate(invalid="ignore"):  # a zero or non-finite a gives a NaN det, which fails below
        det = np.linalg.det(a / np.abs(a).max())
    if not abs(det) >= SINGULAR_EPS:
        where = f" at {context}" if context else ""
        raise SingularMatrixError(
            f"matrix is singular{where}: |det(a / max|a_ij|)| = {abs(det):.3e}")
    return np.linalg.inv(a)


def hermiticity_defect(h: np.ndarray) -> float:
    return frobenius(h - dagger(h))


def expm_hermitian(h: np.ndarray, theta: float, tol: float = DEFAULT_ATOL) -> np.ndarray:
    """U = exp(-i H theta) for Hermitian H, via eigendecomposition."""
    h = np.asarray(h, dtype=complex)
    defect = hermiticity_defect(h)
    if defect > tol * max(1.0, frobenius(h)):
        raise NotHermitianError(f"matrix is not Hermitian: ||H - H^dag|| = {defect:.3e}")
    w, v = np.linalg.eigh((h + dagger(h)) / 2.0)
    return (v * np.exp(-1j * w * theta)) @ dagger(v)


def mat_to_json(a: np.ndarray) -> dict:
    """Encode a matrix in the package wire format."""
    a = np.asarray(a, dtype=complex)
    return {
        "dim": int(a.shape[0]),
        "entries": [[[float(z.real), float(z.imag)] for z in row] for row in a],
    }


def mat_from_json(obj: dict) -> np.ndarray:
    """Decode the wire format back into a complex matrix."""
    dim = int(obj["dim"])
    entries = obj["entries"]
    if len(entries) != dim or any(len(row) != dim for row in entries):
        raise ValueError("entry grid does not match dim")
    return cmat([[complex(re, im) for re, im in row] for row in entries])
