"""Small dense complex matrix kernel.

Everything in this package lives on 2x2 or 4x4 complex matrices stored as
numpy ``complex128`` arrays, row-major, in the computational basis order
|00>, |01>, |10>, |11| (first tensor factor = control/left strand).
``dagger``, ``frobenius``, ``strand_gap``, ``require_hermitian`` and ``expm_hermitian``
also take (..., n, n) stacks and work matrix by matrix; a single matrix gives the
single-matrix result.
``cmat_stack`` assembles such a stack from entries that broadcast. ``strand_gap``, the
braid and QYBE kernel, forms no 8x8 lift and runs a stack in fixed blocks of 64
triples, so its temporaries stay about 64 KB each for any stack size.

The JSON wire format for a matrix, shared by the whole package and the CLI, is

    {"dim": n, "entries": [[[re, im], ...], ...]}
"""

from __future__ import annotations

import numpy as np

DEFAULT_ATOL = 1e-10

# Scale-aware singularity threshold: |det(A / max|A_ij|)| < SINGULAR_EPS.
SINGULAR_EPS = 1e-12

#: largest |entry| of a 4x4 matrix that the residual products take: with |entries| <= M, an
#: entry of the two-term strand sums of ``strand_gap`` is at most 2 M^2, one of either side
#: at most 8 M^3, a difference at most 16 M^3 and the squared norm of the 64 differences at
#: most 2^14 M^6. The bound keeps a conservative 2^20 M^6 <= max float, so every
#: intermediate of ``strand_gap`` (and of any shorter product) stays finite.
MAX_ENTRY = (np.finfo(float).max / 2.0**20) ** (1 / 6)


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
    if not np.isfinite(a.view(float)).all():
        raise ValueError("matrix entries must be finite")
    return a


def cmat_stack(rows) -> np.ndarray:
    """The (..., n, n) stack of matrices whose entries, laid out as for ``cmat``, are
    scalars or arrays that broadcast against each other; the checks of ``cmat``."""
    n = len(rows)
    if n not in (2, 4) or any(len(row) != n for row in rows):
        raise ValueError(f"expected 2x2 or 4x4 rows, got {[len(row) for row in rows]}")
    entries = [v for row in rows for v in row]
    shape = np.broadcast(*entries).shape
    a = np.empty((n * n, *shape), dtype=complex)
    for k, v in enumerate(entries):  # entry-major: each entry is one contiguous write
        a[k] = v
    a = np.ascontiguousarray(np.moveaxis(a, 0, -1)).reshape(*shape, n, n)
    if not np.isfinite(a.view(float)).all():
        raise ValueError("matrix entries must be finite")
    return a


def dagger(a: np.ndarray) -> np.ndarray:
    return a.conj().swapaxes(-1, -2)


def frobenius(a: np.ndarray):
    """||a||_F as a float for one matrix; one norm per matrix of a (..., n, n) stack."""
    a = np.asarray(a)
    return float(np.linalg.norm(a)) if a.ndim == 2 else np.linalg.norm(a, axis=(-2, -1))


def identity(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=complex)


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(a x b)[i*n+k][j*n+l] = a[i][j] * b[k][l] by broadcasting over leading axes; for two
    matrices bitwise equal to np.kron."""
    mn = a.shape[-1] * b.shape[-1]
    prod = a[..., :, None, :, None] * b[..., None, :, None, :]
    return prod.reshape(*prod.shape[:-4], mn, mn)


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product (a x b)[i*n+k][j*n+l] = a[i][j] * b[k][l], capped at dim 4."""
    m, n = a.shape[0], b.shape[0]
    if m * n > 4:
        raise ValueError(f"tensor product dim {m}*{n} exceeds the dim-4 carrier")
    return _kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


#: triples per block of ``strand_gap``; a block temporary holds 64 x 64 complex = 64 KB
_BLOCK = 64


def _block_gaps(a: np.ndarray, c: np.ndarray, d: np.ndarray) -> np.ndarray:
    """``strand_gap`` of an (n, 4, 4) block of triples; C^8 indices are bits ijk, one per strand."""
    n = len(a)
    cz, d2 = c.reshape(n, 4, 2, 2), d.reshape(n, 2, 2, 4)
    # Z = (1 x c)(d x 1): Z[p, qk, i'j', k'] = sum_m c[qk, mk'] d[pm, i'j']
    z = (cz[:, None, :, 0, None, :] * d2[:, :, None, 0, :, None]
         + cz[:, None, :, 1, None, :] * d2[:, :, None, 1, :, None])
    cs, a2 = c.reshape(n, 2, 2, 2, 2), a.reshape(n, 2, 2, 4)
    # S = (c x 1)(1 x a): S[i, q, r, i', j'k'] = sum_m c[iq, i'm] a[mr, j'k']
    s = (cs[:, :, :, None, :, 0, None] * a2[:, None, None, 0, :, None, :]
         + cs[:, :, :, None, :, 1, None] * a2[:, None, None, 1, :, None, :])
    # (a x 1) Z = a @ Z over the rows pq; (1 x d) S = d @ S over the rows qr of each i
    lhs = a @ z.reshape(n, 4, 16)
    rhs = d[:, None] @ s.reshape(n, 2, 4, 8)
    return np.linalg.norm(lhs.reshape(n, 64) - rhs.reshape(n, 64), axis=-1)


def strand_gap(a: np.ndarray, c: np.ndarray, d: np.ndarray):
    """||(a x 1)(1 x c)(d x 1) - (1 x d)(c x 1)(1 x a)||_F on C^8 for 4x4 a, c, d: the
    braid relation at (b, b, b), the QYBE at (R(x), R(x o y), R(y)).

    (..., 4, 4) stacks broadcast and give one gap per triple; three matrices give a float.
    Two-term sums over the middle strand, then a and d as 4x4 matrices on them: 768 complex
    multiply-adds a triple, not the 2,048 of four 8x8 products. Blocks of ``_BLOCK`` keep a
    300-triple call at 0 minor page faults (386 with whole-stack lifts), 0.5 MB traced peak.
    """
    a, c, d = np.broadcast_arrays(*(np.asarray(m, dtype=complex) for m in (a, c, d)))
    shape = a.shape[:-2]
    a, c, d = (m.reshape(-1, 4, 4) for m in (a, c, d))
    gaps = np.empty(len(a))
    for k in range(0, len(a), _BLOCK):
        gaps[k:k + _BLOCK] = _block_gaps(a[k:k + _BLOCK], c[k:k + _BLOCK], d[k:k + _BLOCK])
    return gaps.reshape(shape) if shape else float(gaps[0])


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


def require_hermitian(h: np.ndarray, tol: float, what: str = "matrix") -> None:
    """NotHermitianError unless H, or every matrix of an (..., n, n) stack, is finite and
    Hermitian within tol relative to max(1, ||H||_F); the error names the first failing
    matrix of a stack. A NaN or infinite entry fails: its defect is NaN or its norm inf."""
    with np.errstate(invalid="ignore"):  # inf - inf in a non-finite H is NaN, which fails below
        defect, scale = hermiticity_defect(h), frobenius(h)
    hermitian = (defect <= tol * np.maximum(1.0, scale)) & (scale < np.inf)
    if not hermitian.all():
        k = np.argmin(hermitian)  # the first False
        where = f" at index {k} of the stack" if np.ndim(defect) else ""
        raise NotHermitianError(f"{what} is not Hermitian{where}: "
                                f"||H - H^dag|| = {np.ravel(defect)[k]:.3e}")


def expm_hermitian(h: np.ndarray, theta, tol: float = DEFAULT_ATOL) -> np.ndarray:
    """U = exp(-i H theta) for Hermitian H, via eigendecomposition.

    An (..., n, n) stack of H, with theta a scalar or an array that broadcasts against
    the stack, gives the stack of U from one batched eigh. Every H must pass
    ``require_hermitian`` at tol, so a non-finite H raises NotHermitianError before eigh
    sees it, and a non-finite theta raises a ValueError.
    """
    h = np.asarray(h, dtype=complex)
    require_hermitian(h, tol)
    if not np.isfinite(theta).all():
        raise ValueError("exp(-i H theta) needs a finite theta (the evolution time), "
                         f"got {theta}")
    w, v = np.linalg.eigh((h + dagger(h)) / 2.0)
    phase = np.exp(-1j * w * np.asarray(theta)[..., None])
    return (v * phase[..., None, :]) @ dagger(v)


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
