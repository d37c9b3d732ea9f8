"""Small dense complex matrix kernel.

Everything in this package lives on 2x2 or 4x4 complex matrices stored as
numpy ``complex128`` arrays, row-major, in the computational basis order
|00>, |01>, |10>, |11| (first tensor factor = control/left strand).
``dagger``, ``frobenius``, ``require_hermitian`` and ``expm_hermitian`` also take
(..., n, n) stacks and work matrix by matrix; ``require_hermitian`` decides one matrix on
Python floats and returns on a pass right after its two ``vdot`` (the bench ``sweep`` op
pays 12-19 % more CPU time on stacks of one), with the stack's verdict and error text.
``HERM_TOL`` is the one Hermiticity tolerance, of ``expm_hermitian`` and ``dynamics.Hamiltonian``;
``expm_checked`` is ``expm_hermitian`` after its check, for an H that passed it already.
``cmat`` builds one matrix under one finiteness check.
``require_invertible`` is the scale-aware singularity guard of ``inverse``, for a
check that needs no inverse; it also takes the eight weights of one eight-vertex matrix.

Every braid matrix and R(x) here is eight-vertex: nonzero only where the row and column
bits have equal parity, so the direct sum of a 2x2 block on |00>, |11> and one on |01>,
|10>. Only this module knows that layout; the others read the weights that ``weights``
gives, the outer block's (p, q, r, s) at the even places and the inner block's at the odd
ones, and write tables as 4x4 rows. A stack of such matrices travels as ``WeightRows``,
its (8, ...) weight rows in the block order of ``_WEIGHTS``: ``pattern_rows`` assembles
them from tables under one finiteness check (``pattern_stack`` writes one, scaled, straight
to dense matrices); at the API edges ``WeightRows.of`` reads a dense stack and ``dense``
writes one. The kernels take one dense 4x4 matrix, gathered and checked by ``weights`` into
eight Python numbers (the ``sweep`` op pays 25-33 % more for a stack of one), or
``WeightRows``: ``strand_gap``, the braid and QYBE kernel, computes only the entries the
weights reach, and ``block_product``, ``weight_product`` and ``defect`` multiply such
matrices block by block. ``scatter`` writes one matrix's eight weights, an (8,) row or
Python numbers, to a dense 4x4 matrix, as ``dense`` writes a stack.

The JSON wire format for a matrix, shared by the whole package and the CLI, is

    {"dim": n, "entries": [[[re, im], ...], ...]}
"""

from __future__ import annotations

import math
import operator

import numpy as np

DEFAULT_ATOL = 1e-10
HERM_TOL = 1e-9  # relative Hermiticity defect allowed: above an FD generator's rounding (~3e-10)

# Scale-aware singularity threshold: |det(A / max|A_ij|)| < SINGULAR_EPS.
SINGULAR_EPS = 1e-12

#: largest |entry| of a 4x4 matrix that the residual products take: with |entries| <= M, an
#: entry of Z or S in ``strand_gap`` is one product, at most M^2, one of either side at most
#: 2 M^3, a difference at most 4 M^3 and the squared norm of the 32 differences at most
#: 2^9 M^6. The bound keeps a conservative 2^20 M^6 <= max float, so every intermediate of
#: ``strand_gap`` (and of any shorter product) stays finite.
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


def dagger(a):
    """The conjugate transpose of a matrix or a (..., n, n) stack, or of ``WeightRows``:
    the conjugate rows with q and r swapped in each block."""
    if isinstance(a, WeightRows):
        w = a.w.take(_ADJOINT, 0)
        return WeightRows(np.conjugate(w, out=w))
    return a.conj().swapaxes(-1, -2)


def frobenius(a: np.ndarray):
    """||a||_F as a float for one matrix; one norm per matrix of a (..., n, n) stack. A
    complex matrix's norm is the dot products of its real and imaginary parts, a stack's
    sums the |z|^2 pairwise, so the two can differ in the last bit."""
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


#: the eight-vertex pattern in block order: the entries (r, c) of p, q, r and s of the 2x2
#: blocks [[p, q], [r, s]] on |00>, |11> (outer) and on |01>, |10> (inner), each outer then
#: inner. An eight-vertex matrix is 0 at the other eight, ``_OFF_PATTERN``, in row-major order.
_WEIGHTS = ((0, 0), (1, 1), (0, 3), (1, 2), (3, 0), (2, 1), (3, 3), (2, 2))
_OFF_PATTERN = tuple((r, c) for r in range(4) for c in range(4) if (r, c) not in _WEIGHTS)
#: what ``weights`` reads, the weights then the other eight: (row, col) pairs, a flat getter
_ROW, _COL = np.array(_WEIGHTS + _OFF_PATTERN).T
_read = operator.itemgetter(*(4 * _ROW + _COL).tolist())
#: the row-major places of the weights, where ``WeightRows.dense`` writes them
_PLACES = 4 * _ROW[:8] + _COL[:8]
#: the error of ``weights`` and ``WeightRows.of``: the kernel, the matrix, the value, the entry
_OFF_PATTERN_ERROR = ("{} takes eight-vertex matrices, nonzero only where the row and column "
                      "bits have equal parity: {} has {} at entry {}")
#: the weight order of the adjoint: (p, q, r, s) -> (p, r, q, s) in each block
_ADJOINT = np.array([0, 1, 4, 5, 2, 3, 6, 7])


class WeightRows:
    """A stack of eight-vertex 4x4 matrices as its weights: ``w`` holds (8, ...) rows in the
    block order of ``_WEIGHTS``, one axis after the first per axis of the stack.

    The one stacked operand form of the eight-vertex kernels, eight-vertex by construction:
    ``of`` reads it from a dense (..., 4, 4) stack and ``dense`` scatters it back, at the API
    edges. Indexing and ``len``, and so iteration, run over the first axis of the stack:
    ``strand_gap(*rows)`` takes the three matrices of a (3, n) stack.
    """

    __slots__ = ("w",)

    def __init__(self, w: np.ndarray):
        self.w = w

    def __len__(self) -> int:
        return self.w.shape[1]

    def __getitem__(self, k) -> "WeightRows":
        return WeightRows(self.w[:, k])

    @classmethod
    def of(cls, stack) -> "WeightRows":
        """The rows of a dense (..., 4, 4) stack of eight-vertex matrices, read by (row, col)
        pairs, so that a strided stack such as a dagger is not copied. One pattern check: an
        entry off it is a ValueError naming the first such matrix's flat stack index and entry."""
        m = np.asarray(stack, dtype=complex)
        if m.shape[-2:] != (4, 4):
            raise ValueError(f"WeightRows.of takes a (..., 4, 4) stack, got shape {m.shape}")
        reads = m.reshape(-1, 4, 4).transpose(1, 2, 0)[_ROW, _COL]  # (entry, matrix)
        if reads[8:].any():  # a NaN is nonzero
            k, entry = np.argwhere(reads[8:].T != 0)[0]
            matrix = f"the matrix at index {k} of the stack"
            raise ValueError(_OFF_PATTERN_ERROR.format("WeightRows.of", matrix,
                                                       reads[8 + entry, k], _OFF_PATTERN[entry]))
        return cls(reads[:8].reshape(8, *m.shape[:-2]))

    def dense(self) -> np.ndarray:
        """The (..., 4, 4) stack: the weights at their places, 0 at the other eight."""
        w = self.w
        m = np.zeros((16, *w.shape[1:]), dtype=complex)
        m[_PLACES] = w  # entry-major, then one transposing copy
        return m.transpose(*range(1, w.ndim), 0).reshape(*w.shape[1:], 4, 4)


#: which weights of ``_WEIGHTS`` lie on the diagonal
_ON_DIAGONAL = np.array([r == c for r, c in _WEIGHTS])


def pattern_rows(tables, shift=None) -> np.ndarray:
    """The (k, 8, ...) weight rows of k eight-vertex 4x4 tables written as rows of entries,
    which are numbers or arrays that broadcast against each other: the entries on the
    pattern in the block order of ``_WEIGHTS``. The tables' other entries must be 0; they
    are not read.

    Three passes: one write per entry into one (k, 8, ...) block (one conversion for
    numbers only); with ``shift``, a number or an array of the entries' shape, the rows of
    shift * 1 - (the last table) as one more table, in one array operation on that table's
    rows, shift - w on the diagonal and 0 - w off it (so a zero weight gives +0, not -0);
    and one finiteness check over the whole block."""
    entries = [table[r][c] for table in tables for r, c in _WEIGHTS]
    shape = np.broadcast(*entries).shape if np.ndarray in map(type, entries) else ()
    k = len(tables) + (shift is not None)
    flat = np.empty((8 * k, *shape), dtype=complex)
    rows = flat.reshape(k, 8, *shape)  # a view
    if shape:
        for i, v in enumerate(entries):  # weight-major: each entry is one contiguous write
            flat[i] = v
    else:  # numbers only: one conversion
        flat[:len(entries)] = entries
    if shift is not None:
        on_diagonal = _ON_DIAGONAL.reshape(8, *(1,) * len(shape))
        np.subtract(np.where(on_diagonal, shift, 0), rows[-2], out=rows[-1])
    if np.count_nonzero(np.isfinite(rows)) < rows.size:
        raise ValueError("matrix entries must be finite")
    return rows


def pattern_stack(scale, table, shift=None) -> np.ndarray:
    """shift + scale * table: the (..., 4, 4) stack in the shape of ``scale``, a number or an
    array, of an eight-vertex ``table`` written as 4x4 rows, whose entries are numbers or
    arrays in that shape. ``shift`` is a constant matrix, added last."""
    if isinstance(scale, np.ndarray):  # entry-major: one write per entry
        m = np.zeros((4, 4, *scale.shape), dtype=complex)
        for r, c in _WEIGHTS:
            m[r, c] = table[r][c]
    else:  # a number's table: one conversion
        m = np.array(table, dtype=complex)
    m *= scale
    h = m.transpose(*range(2, m.ndim), 0, 1)
    return np.add(h, shift, order="C") if shift is not None else np.ascontiguousarray(h)


def _strand_tables() -> tuple:
    """The index tables of ``strand_gap``, from the index formula of its docstring with only
    the terms whose two factors lie in the pattern.

    Every entry of Z and of S is one product, both sides have the same 32 nonzero entries
    (the C^8 entries whose row and column have equal total parity) of two terms each, and
    the other 32 entries are 0 on both sides. Z, S and the sides share one order of the 32
    entries, and each side's first term takes the Z or S entry at its own place. Returns
    (ZC, ZD, SC, SA, LA0, LA1, LZ1, RD0, RD1, RS1): Z = c[ZC] d[ZD], S = c[SC] a[SA],
    lhs = a[LA0] Z + a[LA1] Z[LZ1] and rhs = d[RD0] S + d[RD1] S[RS1] on weight rows.
    """
    weight = {rc: n for n, rc in enumerate(_WEIGHTS)}

    def w(row, col):  # the weight at two strand-bit pairs of a 4x4 matrix, or None
        return weight.get((2 * row[0] + row[1], 2 * col[0] + col[1]))

    def kept(terms):  # the terms whose two factors are both nonzero
        return [t for t in terms if None not in t]

    bits = [(x, y) for x in (0, 1) for y in (0, 1)]
    strands = [(i, j, k) for i, j in bits for k in (0, 1)]
    cells = [(row, col) for row in strands for col in strands]
    z, s = {}, {}
    for cell in cells:
        (i, j, k), (i2, j2, k2) = cell
        zt = kept((w((j, k), (m, k2)), w((i, m), (i2, j2))) for m in (0, 1))
        st = kept((w((i, j), (i2, m)), w((m, k), (j2, k2))) for m in (0, 1))
        assert len(zt) <= 1 and len(st) <= 1
        z.update((cell, t) for t in zt)
        s.update((cell, t) for t in st)
    assert z.keys() == s.keys() and len(z) == 32
    at = {cell: n for n, cell in enumerate(z)}
    lhs, rhs = [], []
    for cell in cells:
        (i, j, k), col = cell
        lt = kept((w((i, j), (x, y)), at.get(((x, y, k), col))) for x, y in bits)
        rt = kept((w((j, k), (y, v)), at.get(((i, y, v), col))) for y, v in bits)
        assert len(lt) == len(rt) == (2 if cell in at else 0)
        if cell in at:  # the term at the entry's own place first
            lhs.append(sorted(lt, key=lambda t: t[1] != at[cell]))
            rhs.append(sorted(rt, key=lambda t: t[1] != at[cell]))
            assert lhs[-1][0][1] == rhs[-1][0][1] == at[cell]
    z, s = np.array(list(z.values())).T, np.array(list(s.values())).T
    lhs, rhs = np.array(lhs), np.array(rhs)
    return (z[0], z[1], s[0], s[1], lhs[:, 0, 0], lhs[:, 1, 0], lhs[:, 1, 1],
            rhs[:, 0, 0], rhs[:, 1, 0], rhs[:, 1, 1])


_ZC, _ZD, _SC, _SA, _LA0, _LA1, _LZ1, _RD0, _RD1, _RS1 = _strand_tables()

#: triples per block of ``strand_gap``; a block temporary holds 32 x 128 complex = 64 KB
_BLOCK = 128


def _block_diffs(a: np.ndarray, c: np.ndarray, d: np.ndarray) -> np.ndarray:
    """The 32 nonzero entries of (a x 1)(1 x c)(d x 1) - (1 x d)(c x 1)(1 x a) from the
    (8, ...) weights of a, c and d, with any trailing axes: a (32, ...) array in the order
    of ``_strand_tables``. Z and S are (32, ...) arrays too; Z goes before S is formed."""
    z = c.take(_ZC, 0) * d.take(_ZD, 0)  # take: the row gather of x[idx], with less overhead
    diff = a.take(_LA0, 0) * z
    diff += a.take(_LA1, 0) * z.take(_LZ1, 0)
    del z
    s = c.take(_SC, 0) * a.take(_SA, 0)
    diff -= d.take(_RD0, 0) * s
    diff -= d.take(_RD1, 0) * s.take(_RS1, 0)
    return diff


def _block_gaps(a: np.ndarray, c: np.ndarray, d: np.ndarray) -> np.ndarray:
    """``strand_gap`` of a block from the (8, n) weights of a, c and d: the norm of each
    triple's ``_block_diffs``."""
    return np.linalg.norm(_block_diffs(a, c, d), axis=0)


def weights(kernel: str, names, *matrices) -> list:
    """The weights of a kernel's operands in the block order of ``_WEIGHTS``: a dense 4x4
    matrix becomes a tuple of eight Python complex numbers, for the one-matrix paths;
    ``WeightRows`` (as their rows) and tuples of eight weights pass through unread.

    Operands of mixed forms, or a dense one that is not one 4x4 matrix (a stack among them,
    which ``WeightRows.of`` reads), are a ValueError of ``kernel``; so is a nonzero or NaN
    entry off the pattern, naming the first: the matrix (by ``names``), then the entry.
    """
    if isinstance(matrices[0], (WeightRows, tuple)):
        if any(type(m) is not type(matrices[0]) for m in matrices):
            raise ValueError(f"{kernel} takes dense 4x4 matrices or WeightRows, not both")
        return [getattr(m, "w", m) for m in matrices]
    reads = []
    for name, m in zip(names, matrices):
        try:
            m = np.asarray(m, dtype=complex)
        except (TypeError, ValueError):  # a ragged sequence, or no numbers
            m = None
        if m is None or m.shape != (4, 4):
            what = "not an array of numbers" if m is None else f"of shape {m.shape}"
            raise ValueError(f"{kernel} takes one dense 4x4 matrix or WeightRows: {name} is "
                             f"{what}; read a dense stack with WeightRows.of")
        w = _read(m.ravel().tolist())
        if any(w[8:]):  # a NaN is nonzero
            k = next(k for k, v in enumerate(w[8:]) if v)
            raise ValueError(_OFF_PATTERN_ERROR.format(kernel, name, w[8 + k], _OFF_PATTERN[k]))
        reads.append(w[:8])
    return reads


#: the zero 4x4 matrix, flat, into a copy of which ``scatter`` writes
_ZERO = np.zeros(16, dtype=complex)
_ZERO.flags.writeable = False


def scatter(w) -> np.ndarray:
    """The dense 4x4 matrix of one eight-vertex matrix's eight weights in the block order of
    ``_WEIGHTS``, a sequence of numbers as ``weights`` reads them or an (8,) row: the
    inverse of that gather, one write into a copy of the zero matrix. ``WeightRows.dense``
    scatters a stack."""
    m = _ZERO.copy()
    m[_PLACES] = w
    return m.reshape(4, 4)


def block_product(x, y) -> tuple:
    """The entry rows (p, q, r, s) of the 2x2 block product x y, with x and y given as their
    entry rows: Python complex numbers for one block, or arrays that hold many blocks."""
    p, q, r, s = x
    e, f, g, h = y
    return p * e + q * g, p * f + q * h, r * e + s * g, r * f + s * h


#: ``weight_product``'s index tables: weight k of x y is x[_XA[k]] y[_YA[k]] + x[_XB[k]] y[_YB[k]],
#: the (p, q, r, s) of ``block_product`` in each block of the block order of ``_WEIGHTS``
_XA, _YA = np.array([0, 1, 0, 1, 4, 5, 4, 5]), np.array([0, 1, 2, 3, 0, 1, 2, 3])
_XB, _YB = _XA + 2, _YA + 4


def weight_product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The (8, ...) weight rows of the product x y of eight-vertex matrices given as their
    (8, ...) weight rows, which broadcast: ``block_product`` in both blocks at once, as four
    row gathers, two products and a sum."""
    return x.take(_XA, 0) * y.take(_YA, 0) + x.take(_XB, 0) * y.take(_YB, 0)


def defect(m: tuple, rho):
    """||m - rho 1||_F^2 of 2x2 blocks given as entry rows, as in ``block_product``."""
    p, q, r, s = m
    p, s = p - rho, s - rho
    return ((p * p.conjugate()).real + (q * q.conjugate()).real
            + (r * r.conjugate()).real + (s * s.conjugate()).real)


def strand_gap(a: np.ndarray, c: np.ndarray, d: np.ndarray):
    """||(a x 1)(1 x c)(d x 1) - (1 x d)(c x 1)(1 x a)||_F on C^8 for eight-vertex 4x4 a, c,
    d: the braid relation at (b, b, b), the QYBE at (R(x), R(x o y), R(y)).

    Three dense 4x4 matrices give a float, ``WeightRows`` of one shape a gap per triple in
    their shape; ``weights`` refuses any other operand and an entry off the pattern.

    With C^8 indices ijk, one bit per strand, and 4x4 indices as bit pairs, the two sides are
    (a x 1) Z and (1 x d) S with Z = (1 x c)(d x 1) and S = (c x 1)(1 x a):

        Z[ijk, i'j'k'] = sum_m c[jk, mk'] d[im, i'j'],   lhs[ijk, .] = sum_xy a[ij, xy] Z[xyk, .]
        S[ijk, i'j'k'] = sum_m c[ij, i'm] a[mk, j'k'],   rhs[ijk, .] = sum_yz d[jk, yz] S[iyz, .]

    Kept to the terms inside the pattern (``_strand_tables``), every entry of Z and S is one
    product and each side has 32 nonzero entries of two terms: 192 complex multiplies and
    96 additions a triple, against the 768 multiply-adds of the general 4x4 contraction,
    and a norm over 32 differences instead of 64. Stacks run in blocks of ``_BLOCK``
    triples on (8, n) weight rows, so the temporaries stay 64 KB each. Each block's rows are
    made contiguous once: a block of wider ``WeightRows``, or a strided view such as the
    middle matrix of a (3, n) stack, would otherwise be copied by each of the ten row
    gathers of ``_block_diffs``.
    """
    w = weights("strand_gap", "acd", a, c, d)
    if isinstance(w[0], tuple):  # three matrices
        return float(_block_gaps(*np.reshape(w, (3, 8, 1)))[0])
    shape, w = w[0].shape[1:], [m.reshape(8, -1) for m in w]
    gaps = np.empty(w[0].shape[1])
    for k in range(0, len(gaps), _BLOCK):  # contiguous blocks: take copies a strided source first
        gaps[k:k + _BLOCK] = _block_gaps(*[np.ascontiguousarray(m[:, k:k + _BLOCK]) for m in w])
    return gaps.reshape(shape)


def require_two_eigenvalues(b: np.ndarray, lam1: complex, lam2: complex,
                            tol: float = DEFAULT_ATOL) -> None:
    """DegenerateSpectrumError unless l1 and l2 are distinct, and NotTwoEigenvalueError
    unless (b - l1)(b - l2) = 0 within ``tol`` (scaled by the matrix size)."""
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


def spectral_projectors(
    b: np.ndarray,
    lam1: complex,
    lam2: complex,
    tol: float = DEFAULT_ATOL,
) -> tuple[np.ndarray, np.ndarray]:
    """Projectors of a two-eigenvalue matrix: P1 = (b - l2)/(l1 - l2), P2 = (b - l1)/(l2 - l1).

    Requires what ``require_two_eigenvalues`` checks; then P1 + P2 = 1, Pi^2 = Pi,
    P1 P2 = 0 and b = l1 P1 + l2 P2.
    """
    require_two_eigenvalues(b, lam1, lam2, tol)
    b = np.asarray(b, dtype=complex)
    eye = identity(b.shape[0])
    p1 = (b - lam2 * eye) / (lam1 - lam2)
    p2 = (b - lam1 * eye) / (lam2 - lam1)
    return p1, p2


def require_invertible(a, context: str = "") -> None:
    """SingularMatrixError, naming ``context`` when given, unless |det(a / max|a_ij|)| is at
    least ``SINGULAR_EPS``: the scale-aware singularity guard of ``inverse``. ``a`` is a
    matrix, or the eight weights of an eight-vertex one as ``weights`` reads them, whose det
    is det O det I of its two 2x2 blocks, taken on Python numbers."""
    if isinstance(a, tuple):
        sizes = [abs(v) for v in a]
        peak = max(sizes)
        if math.isnan(sum(sizes)) or not peak:  # numpy's det of a / peak below is NaN here,
            det = math.nan
        elif peak == math.inf:  # and 0 here, where a / peak holds NaN and 0 only
            det = 0.0
        else:
            p, pi, q, qi, r, ri, s, si = (v / peak for v in a)
            det = (p * s - q * r) * (pi * si - qi * ri)
    else:
        a = np.asarray(a, dtype=complex)
        with np.errstate(invalid="ignore"):  # a zero or non-finite a: a NaN or 0 det, which fails
            det = np.linalg.det(a / np.abs(a).max())
    if not abs(det) >= SINGULAR_EPS:
        where = f" at {context}" if context else ""
        raise SingularMatrixError(
            f"matrix is singular{where}: |det(a / max|a_ij|)| = {abs(det):.3e}")


def inverse(a: np.ndarray, context: str = "") -> np.ndarray:
    """Matrix inverse with the scale-aware singularity guard of ``require_invertible``."""
    a = np.asarray(a, dtype=complex)
    require_invertible(a, context)
    return np.linalg.inv(a)


def hermiticity_defect(h: np.ndarray) -> float:
    return frobenius(h - dagger(h))


def require_hermitian(h: np.ndarray, tol: float, what: str = "matrix") -> None:
    """NotHermitianError unless H, or every matrix of an (..., n, n) stack, is finite and
    Hermitian within tol relative to max(1, ||H||_F); the error names the first failing
    matrix of a stack. A NaN or infinite entry fails: its defect is NaN or its norm inf.
    One matrix is judged on Python floats, a finite one in one pass that returns on a pass
    right after its two ``vdot``: its |entries| stay below sqrt(max float), so H - H^dag
    cannot overflow and needs no ``np.errstate``. Judged as a stack of one, it took the bench
    ``sweep`` op 12-19 % more CPU time; the verdict and the error text are the stack's."""
    h = np.asarray(h)
    scale = math.sqrt(np.vdot(h, h).real) if h.ndim == 2 else math.inf
    if scale < math.inf:  # one matrix of finite norm: NaN and inf take the route below
        d = h - h.conj().T
        defect = math.sqrt(np.vdot(d, d).real)
        if defect <= tol * max(1.0, scale):
            return
    else:
        with np.errstate(invalid="ignore", over="ignore"):  # NaN and inf norms fail below
            defect, scale = hermiticity_defect(h), frobenius(h)
    if isinstance(defect, float):  # one matrix: Python floats
        if defect <= tol * max(1.0, scale) and scale < math.inf:
            return
        where = ""
    else:
        hermitian = (defect <= tol * np.maximum(1.0, scale)) & (scale < np.inf)
        if hermitian.all():
            return
        k = np.argmin(hermitian)  # the first False
        where, defect = f" at index {k} of the stack", defect.flat[k]
    raise NotHermitianError(f"{what} is not Hermitian{where}: ||H - H^dag|| = {defect:.3e}")


def expm_hermitian(h: np.ndarray, theta) -> np.ndarray:
    """U = exp(-i H theta) for Hermitian H, via eigendecomposition.

    An (..., n, n) stack of H, with theta a scalar or an array that broadcasts against
    the stack, gives the stack of U from one batched eigh. Every H must pass
    ``require_hermitian`` at ``HERM_TOL``, so a non-finite H raises NotHermitianError
    before eigh sees it; then ``expm_checked``, so a non-finite theta raises a ValueError.
    """
    h = np.asarray(h, dtype=complex)
    require_hermitian(h, HERM_TOL)
    return expm_checked(h, theta)


def expm_checked(h: np.ndarray, theta) -> np.ndarray:
    """The body of ``expm_hermitian`` after its Hermiticity check, for an H that passed it
    already (a ``dynamics.Hamiltonian`` record's matrix): a ValueError for a non-finite
    theta, then one (batched) eigh of H's Hermitian part."""
    h = np.asarray(h, dtype=complex)
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
