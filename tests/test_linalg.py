import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from yaxter.baxterize import SpectralPoint, build_R
from yaxter.catalog import FamilySpec
from yaxter.linalg import (
    _BLOCK,
    _block_diffs,
    _block_gaps,
    HERM_TOL,
    MAX_ENTRY,
    DegenerateSpectrumError,
    NotHermitianError,
    NotTwoEigenvalueError,
    SingularMatrixError,
    cmat,
    dagger,
    expm_hermitian,
    frobenius,
    identity,
    inverse,
    mat_from_json,
    mat_to_json,
    WeightRows,
    require_hermitian,
    require_invertible,
    require_two_eigenvalues,
    spectral_projectors,
    strand_gap,
    tensor,
    weight_product,
    weights,
)
from yaxter.verify import worst

SP = np.array([[0, 1], [0, 0]], dtype=complex)
SM = np.array([[0, 0], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def kron_oracle(a, b):
    """Direct index-formula Kronecker product."""
    m, n = a.shape[0], b.shape[0]
    out = np.zeros((m * n, m * n), dtype=complex)
    for i in range(m):
        for j in range(m):
            for k in range(n):
                for l in range(n):
                    out[i * n + k, j * n + l] = a[i, j] * b[k, l]
    return out


def expm_series_oracle(a):
    """exp(a) by scaling-and-squaring of the plain power series."""
    a = np.asarray(a, dtype=complex)
    squarings = 0
    while np.abs(a).max() > 0.25:
        a = a / 2.0
        squarings += 1
    term = np.eye(a.shape[0], dtype=complex)
    out = term.copy()
    for k in range(1, 40):
        term = term @ a / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


finite = st.floats(min_value=-3, max_value=3, allow_nan=False)
EPS = np.finfo(float).eps


def test_tensor_identity():
    assert np.array_equal(tensor(identity(2), identity(2)), identity(4))


def test_tensor_sigma_plus_minus():
    got = tensor(SP, SM)
    want = np.zeros((4, 4), dtype=complex)
    want[1, 2] = 1.0
    assert np.array_equal(got, want)


def test_tensor_matches_index_oracle():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    assert np.allclose(tensor(a, b), kron_oracle(a, b), atol=0)
    assert np.array_equal(tensor(SZ, SZ), np.diag([1, -1, -1, 1]).astype(complex))


def complex_matrices(n, count):
    """``count`` complex n x n matrices drawn from 2 n^2 floats each."""
    size = 2 * n * n * count
    return st.lists(finite, min_size=size, max_size=size).map(
        lambda vals: [(v[0::2] + 1j * v[1::2]).reshape(n, n)
                      for v in np.array(vals).reshape(count, 2 * n * n)])


#: the entries an eight-vertex matrix may have nonzero: row and column bits of equal parity
PATTERN = np.array([[1, 0, 0, 1], [0, 1, 1, 0], [0, 1, 1, 0], [1, 0, 0, 1]], dtype=bool)


def eight_vertex(weights):
    """The (..., 4, 4) matrices with the (..., 8) ``weights`` at the entries of PATTERN,
    row-major, and 0 elsewhere."""
    weights = np.asarray(weights, dtype=complex)
    m = np.zeros((*weights.shape[:-1], 4, 4), dtype=complex)
    m[..., PATTERN] = weights
    return m


def strand_gap_reference(a, c, d):
    e = np.eye(2, dtype=complex)
    lhs = np.kron(a, e) @ np.kron(e, c) @ np.kron(d, e)
    rhs = np.kron(e, d) @ np.kron(c, e) @ np.kron(e, a)
    return float(np.linalg.norm(lhs - rhs))


@settings(max_examples=60, deadline=None)
@given(complex_matrices(2, 2))
def test_tensor_is_bitwise_kron(mats):
    a, b = mats
    assert np.array_equal(tensor(a, b), np.kron(a, b))


def gaussian_integer_matrices(count):
    """``count`` eight-vertex 4x4 matrices with weights in {-3..3} + i{-3..3}: every sum of
    the gap is exact."""
    return st.lists(st.integers(-3, 3), min_size=16 * count, max_size=16 * count).map(
        lambda vals: [eight_vertex(v[0::2] + 1j * v[1::2])
                      for v in np.array(vals, dtype=float).reshape(count, 16)])


def eight_vertex_matrices(count):
    """``count`` eight-vertex 4x4 matrices with weights drawn from 16 floats each."""
    return st.lists(finite, min_size=16 * count, max_size=16 * count).map(
        lambda vals: [eight_vertex(v[0::2] + 1j * v[1::2])
                      for v in np.array(vals).reshape(count, 16)])


@settings(max_examples=60, deadline=None)
@given(gaussian_integer_matrices(3))
def test_strand_gap_on_gaussian_integers_is_bitwise_the_kron_reference(mats):
    a, c, d = mats
    assert strand_gap(a, c, d) == strand_gap_reference(a, c, d)


@settings(max_examples=60, deadline=None)
@given(eight_vertex_matrices(3))
def test_strand_gap_is_the_kron_reference_to_rounding(mats):
    a, c, d = mats
    scale = frobenius(a) * frobenius(c) * frobenius(d)
    assert abs(strand_gap(a, c, d) - strand_gap_reference(a, c, d)) <= 8 * EPS * scale


def random_eight_vertex(rng, *shape):
    """A (*shape, 4, 4) stack of eight-vertex matrices with complex Gaussian weights."""
    return eight_vertex(rng.standard_normal((*shape, 8)) + 1j * rng.standard_normal((*shape, 8)))


def test_stacked_strand_gap_agrees_with_per_item_calls():
    rng = np.random.default_rng(31)
    a, c, d = (random_eight_vertex(rng, 5) for _ in range(3))
    gaps = strand_gap(*map(WeightRows.of, (a, c, d)))
    assert gaps.shape == (5,)
    for k in range(5):
        assert gaps[k] == pytest.approx(strand_gap(a[k], c[k], d[k]), rel=1e-14)


# sizes inside one block (63, 64, 65), at its edges, and over several blocks with a partial tail
@pytest.mark.parametrize("n", sorted({0, 1, 63, 64, 65, 199,
                                      _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7}))
def test_strand_gap_blocks_agree_with_per_item_calls(n):
    rng = np.random.default_rng(n)
    a, c, d = (random_eight_vertex(rng, n) for _ in range(3))
    gaps = strand_gap(*map(WeightRows.of, (a, c, d)))
    assert gaps.shape == (n,)
    assert np.allclose(gaps, [strand_gap(*abc) for abc in zip(a, c, d)], rtol=1e-14, atol=0)


def test_strand_gap_on_rows_with_leading_axes_agrees_with_per_item_calls():
    # (8, 2, 3) rows give a (2, 3) result
    rng = np.random.default_rng(41)
    a, c, d = (random_eight_vertex(rng, 2, 3) for _ in range(3))
    gaps = strand_gap(*map(WeightRows.of, (a, c, d)))
    assert gaps.shape == (2, 3)
    assert np.allclose(gaps, [[strand_gap(a[i, j], c[i, j], d[i, j]) for j in range(3)]
                              for i in range(2)], rtol=1e-14, atol=0)


def test_a_nan_in_one_triple_is_nan_in_that_gap_only():
    rng = np.random.default_rng(43)
    a, c, d = (random_eight_vertex(rng, _BLOCK + 3) for _ in range(3))
    want = strand_gap(*map(WeightRows.of, (a, c, d)))
    c[_BLOCK + 1, 2, 1] = np.nan  # a weight, inside the pattern
    gaps = strand_gap(*map(WeightRows.of, (a, c, d)))
    assert np.isnan(gaps[_BLOCK + 1])
    assert np.array_equal(np.delete(gaps, _BLOCK + 1), np.delete(want, _BLOCK + 1))


def test_a_nan_off_the_pattern_is_a_value_error():
    rng = np.random.default_rng(43)
    c = random_eight_vertex(rng, _BLOCK + 3)
    c[_BLOCK + 1, 2, 3] = np.nan
    with pytest.raises(ValueError, match=rf"^WeightRows.of takes eight-vertex matrices.*: the "
                                         rf"matrix at index {_BLOCK + 1} of the stack has "
                                         r"\(nan\+0j\) at entry \(2, 3\)$"):
        WeightRows.of(c)
    with pytest.raises(ValueError, match=r"^strand_gap takes .*: c has \(nan\+0j\) at entry "
                                         r"\(2, 3\)$"):
        strand_gap(c[0], c[_BLOCK + 1], c[0])


@pytest.mark.parametrize("entry", [(0, 1), (0, 2), (1, 0), (1, 3), (2, 0), (2, 3), (3, 1), (3, 2)])
def test_a_nonzero_entry_off_the_pattern_names_its_matrix_index_and_entry(entry):
    rng = np.random.default_rng(59)
    a, c, d = (random_eight_vertex(rng, 2 * _BLOCK + 9) for _ in range(3))
    d[_BLOCK + 4][entry] = 1e-300  # any nonzero value, however small
    d[2 * _BLOCK + 1][entry] = 1.0  # a later index: the first one is reported
    with pytest.raises(ValueError, match=rf"^WeightRows.of .*: the matrix at index {_BLOCK + 4} "
                                         rf"of the stack has \(1e-300\+0j\) "
                                         rf"at entry \({entry[0]}, {entry[1]}\)$"):
        WeightRows.of(d)
    with pytest.raises(ValueError, match=rf"^strand_gap .*: d has \(1\+0j\) "
                                         rf"at entry \({entry[0]}, {entry[1]}\)$"):
        strand_gap(a[0], c[0], d[2 * _BLOCK + 1])  # three matrices: no stack index
    b = identity(4)
    b[entry] = 0.5
    with pytest.raises(ValueError, match="eight-vertex"):
        strand_gap(b, b, b)


def test_an_empty_stack_gives_no_gaps_and_no_worst_case():
    a = WeightRows.of(np.zeros((0, 4, 4), dtype=complex))
    gaps = strand_gap(a, a, a)
    assert gaps.shape == (0,)
    with pytest.raises(ValueError, match="at least one sample"):
        worst(gaps)


#: the 32 entries of C^8 whose row and column bits have equal total parity, row-major
STRAND_PARITY = np.equal.outer(*[np.array([bin(k).count("1") % 2 for k in range(8)])] * 2)


@settings(max_examples=60, deadline=None)
@given(gaussian_integer_matrices(3))
def test_block_diffs_are_bitwise_the_kron_residual_at_its_32_entries(mats):
    a, c, d = mats
    e = np.eye(2, dtype=complex)
    full = (np.kron(a, e) @ np.kron(e, c) @ np.kron(d, e)
            - np.kron(e, d) @ np.kron(c, e) @ np.kron(e, a))
    diffs = _block_diffs(*(np.array(w)[:, None] for w in weights("t", "acd", a, c, d)))
    assert np.array_equal(diffs[:, 0], full[STRAND_PARITY]) and not full[~STRAND_PARITY].any()
    assert _block_gaps(*(np.array(w)[:, None] for w in weights("t", "acd", a, c, d)))[0] \
        == strand_gap(a, c, d)


def test_a_block_holds_at_most_five_of_its_temporaries_at_once():
    # Z goes before S is formed, and the norm runs after both are gone
    rng = np.random.default_rng(43)
    a, c, d = (rng.standard_normal((8, _BLOCK)) + 1j * rng.standard_normal((8, _BLOCK))
               for _ in range(3))
    _block_gaps(a, c, d)
    tracemalloc.start()
    try:
        _block_gaps(a, c, d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5.5 * 32 * _BLOCK * 16  # five (32, _BLOCK) complex arrays and small change


def test_strand_gap_memory_does_not_grow_with_the_stack():
    rng = np.random.default_rng(47)
    a, c, d = (WeightRows.of(random_eight_vertex(rng, 3000)) for _ in range(3))
    tracemalloc.start()
    try:  # the kernel call only: the rows are read before
        strand_gap(a, c, d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_weight_rows_of_reads_a_strided_stack_without_copying_it():
    # the dagger of a stack is a strided view: read entry by entry, it costs one (16, n)
    # gather, the size of the stack, and no contiguous copy of the stack besides
    r = random_eight_vertex(np.random.default_rng(61), 3000)
    view = dagger(r)
    assert not view.flags.c_contiguous
    tracemalloc.start()
    try:
        rows = WeightRows.of(view)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * r.nbytes
    assert np.array_equal(rows.w, dagger(WeightRows.of(r)).w)


def test_entries_at_the_product_bound_give_finite_gaps():
    # |entries| = MAX_ENTRY with random phases, and all-equal entries, where every sum adds up
    rng = np.random.default_rng(53)
    a, c, d = (eight_vertex(MAX_ENTRY * np.exp(2j * np.pi * rng.random((3 * _BLOCK + 7, 8))))
               for _ in range(3))
    a[0] = c[0] = MAX_ENTRY * PATTERN
    d[0] = -MAX_ENTRY * PATTERN
    a, c, d = map(WeightRows.of, (a, c, d))
    with np.errstate(all="raise"):
        gaps = strand_gap(a, c, d)
    assert np.isfinite(gaps).all()


def test_stacked_frobenius_and_dagger_work_matrix_by_matrix():
    rng = np.random.default_rng(37)
    m = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
    assert np.array_equal(dagger(m), np.array([dagger(mk) for mk in m]))
    assert np.allclose(frobenius(m), [frobenius(mk) for mk in m], rtol=1e-15, atol=0)
    assert isinstance(frobenius(m[0]), float)
    assert frobenius(m[:0]).shape == (0,)


def test_tensor_rejects_overflow():
    with pytest.raises(ValueError, match="exceeds"):
        tensor(identity(4), identity(2))


@settings(max_examples=40, deadline=None)
@given(st.lists(finite, min_size=16, max_size=16))
def test_tensor_mixed_product(vals):
    a, b, c, d = (np.array(vals[4 * k:4 * k + 4]).reshape(2, 2).astype(complex)
                  for k in range(4))
    lhs = tensor(a, b) @ tensor(c, d)
    rhs = tensor(a @ c, b @ d)
    assert frobenius(lhs - rhs) < 1e-12 * max(1.0, frobenius(lhs))


def six_nonstd_b(q):
    return cmat([[q, 0, 0, 0], [0, 0, 1, 0], [0, 1, q - 1 / q, 0], [0, 0, 0, -1 / q]])


def test_projectors_six_vertex_displayed_entries():
    q = 2.0
    p1, p2 = spectral_projectors(six_nonstd_b(q), q, -1 / q)
    d = 1 + q * q
    want_p1 = cmat([[1, 0, 0, 0], [0, 1 / d, q / d, 0], [0, q / d, q * q / d, 0], [0, 0, 0, 0]])
    want_p2 = cmat([[0, 0, 0, 0], [0, q * q / d, -q / d, 0], [0, -q / d, 1 / d, 0], [0, 0, 0, 1]])
    assert frobenius(p1 - want_p1) < 1e-14
    assert frobenius(p2 - want_p2) < 1e-14


def test_projectors_diagonal_case():
    b = np.diag([1, -1, -1, 1]).astype(complex)
    p1, p2 = spectral_projectors(b, 1, -1)
    assert np.allclose(p1, np.diag([1, 0, 0, 1]))
    assert np.allclose(p2, np.diag([0, 1, 1, 0]))


def test_projectors_eight_vertex_residuals():
    b = cmat([[1, 0, 0, 1], [0, 1, 1, 0], [0, -1, 1, 0], [-1, 0, 0, 1]])
    p1, p2 = spectral_projectors(b, 1 - 1j, 1 + 1j)
    for p in (p1, p2):
        assert frobenius(p @ p - p) < 1e-12
    assert frobenius(p1 @ p2) < 1e-12
    assert frobenius(p1 + p2 - identity(4)) < 1e-12
    assert frobenius((1 - 1j) * p1 + (1 + 1j) * p2 - b) < 1e-12


def test_projectors_degenerate_spectrum():
    with pytest.raises(DegenerateSpectrumError):
        spectral_projectors(identity(4), 1.0, 1.0 + 1e-14)


def test_projectors_rejects_three_eigenvalue_matrix():
    t = 2.0
    b = cmat([[t, 0, 0, 1], [0, 1, t, 0], [0, t, 1, 0], [1, 0, 0, t]])
    with pytest.raises(NotTwoEigenvalueError):
        spectral_projectors(b, 1 + t, 1 - t)


def test_inverse_identity_and_residual():
    assert np.allclose(inverse(identity(4)), identity(4))
    b = six_nonstd_b(2.0)
    assert frobenius(b @ inverse(b) - identity(4)) < 1e-14


def test_inverse_cayley_hamilton_eight_vertex():
    # eigenvalues 1 -+ i give b^2 - 2b + 2 = 0, so b^{-1} = (2 - b)/2
    b = cmat([[1, 0, 0, 1], [0, 1, 1, 0], [0, -1, 1, 0], [-1, 0, 0, 1]])
    assert frobenius(inverse(b) - (2 * identity(4) - b) / 2) < 1e-14


def test_inverse_singular_names_context():
    ones = np.ones((4, 4), dtype=complex)
    with pytest.raises(SingularMatrixError, match="t = 1"):
        inverse(ones, context="t = 1")


def test_the_guard_split_from_inverse_keeps_its_rule_and_message():
    b = six_nonstd_b(2.0)
    assert require_invertible(b) is None and require_invertible(b, context="t = 1") is None
    ones = np.ones((4, 4), dtype=complex)
    for guard in (require_invertible, inverse):
        with pytest.raises(SingularMatrixError, match=r"^matrix is singular at t = 1: "
                                                      r"\|det\(a / max\|a_ij\|\)\| = "):
            guard(ones, context="t = 1")
        with pytest.raises(SingularMatrixError, match=r"^matrix is singular: "):
            guard(ones)


#: the eight-vertex pattern: the entries where the row and column bits have equal parity
EIGHT_VERTEX = np.array([[1, 0, 0, 1], [0, 1, 1, 0], [0, 1, 1, 0], [1, 0, 0, 1]], dtype=bool)


def _eight_vertex(w) -> np.ndarray:
    m = np.zeros((4, 4), dtype=complex)
    m[EIGHT_VERTEX] = w
    return m


def _guard_message(a) -> str | None:
    try:
        require_invertible(a, context="t = 1")
    except SingularMatrixError as err:
        return str(err)
    return None


def _guard_cases():
    rng = np.random.default_rng(83)
    cases = [_eight_vertex(rng.standard_normal(8) + 1j * rng.standard_normal(8))
             for _ in range(200)]
    cases.append(_eight_vertex([1, 2, 0.5, 0.3, 2, -0.7, 2, 4]))  # O = [[1, 2], [2, 4]]
    cases.append(np.zeros((4, 4), dtype=complex))
    for value in (np.nan, complex(0, np.nan), np.inf, -np.inf, complex(1, np.inf)):
        for k in range(8):
            w = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            w[k] = value
            cases.append(_eight_vertex(w))
    return cases


def test_the_eight_weight_guard_decides_and_words_as_the_dense_one():
    # the weights as classify reads them; NaN, zero and infinite entries give the same
    # message, numbers included
    verdicts = []
    for m in _guard_cases():
        (w,) = weights("guard", "a", m)
        assert _guard_message(w) == _guard_message(m)
        verdicts.append(_guard_message(m) is None)
    assert verdicts.count(True) == 200


def test_the_eight_weight_guard_at_a_singular_family_matrix():
    # six-nonstd at x = q^2 = e: q - x/q = 0; the two dets differ only in rounding
    r = build_R(FamilySpec.six_nonstd(gamma=0.5), SpectralPoint.from_x(np.e))
    dense, eight = _guard_message(r), _guard_message(weights("guard", "a", r)[0])
    number = r"\d\.\d{3}e-\d+$"
    for message in (dense, eight):
        assert re.match(r"^matrix is singular at t = 1: \|det\(a / max\|a_ij\|\)\| = " + number,
                        message)
    assert float(dense.rsplit(" ", 1)[1]) < 1e-30 and float(eight.rsplit(" ", 1)[1]) < 1e-30


@pytest.mark.parametrize("dtype", [float, complex])
def test_frobenius_of_one_matrix_is_bitwise_numpys_norm(dtype):
    rng = np.random.default_rng(89)
    mats = [rng.standard_normal((n, n)) + (1j * rng.standard_normal((n, n)) if dtype is complex
                                           else 0) for n in (2, 4, 4, 4)]
    mats += [m.T for m in mats] + [1e150 * mats[1], 1e-170 * mats[1]]
    mats.append(np.where(np.eye(4, dtype=bool), np.nan, mats[2]))
    mats.append(np.where(np.eye(4, dtype=bool), np.inf, mats[2]))
    with np.errstate(over="ignore"):
        for m in mats:
            m = np.asarray(m, dtype=dtype)
            got, want = frobenius(m), float(np.linalg.norm(m))
            assert isinstance(got, float)
            assert got == want or (np.isnan(got) and np.isnan(want))


def test_weight_product_is_the_dense_product_of_eight_vertex_matrices():
    rng = np.random.default_rng(97)
    x, y = (rng.standard_normal((8, 5)) + 1j * rng.standard_normal((8, 5)) for _ in range(2))
    got = WeightRows(weight_product(x, y)).dense()
    want = WeightRows(x).dense() @ WeightRows(y).dense()
    assert np.allclose(got, want, rtol=1e-15, atol=1e-15)
    one = weight_product(x[:, :1], y[:, :2])  # rows broadcast
    assert np.array_equal(one, weight_product(np.repeat(x[:, :1], 2, 1), y[:, :2]))


def test_the_two_eigenvalue_check_is_the_projectors_check():
    t = 2.0
    three = cmat([[t, 0, 0, 1], [0, 1, t, 0], [0, t, 1, 0], [1, 0, 0, t]])
    for b, lams, error in ((identity(4), (1.0, 1.0 + 1e-14), DegenerateSpectrumError),
                           (three, (1 + t, 1 - t), NotTwoEigenvalueError)):
        with pytest.raises(error) as check:
            require_two_eigenvalues(b, *lams)
        with pytest.raises(error) as projectors:
            spectral_projectors(b, *lams)
        assert str(check.value) == str(projectors.value)
    assert require_two_eigenvalues(six_nonstd_b(2.0), 2.0, -0.5) is None


def _hermitian_case(kind: str, tol: float) -> np.ndarray:
    rng = np.random.default_rng(31)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = a + dagger(a)
    if kind.startswith("small"):  # ||H|| < 1, so the bound is tol itself
        h = h / (4 * frobenius(h))
    if kind.endswith("-below") or kind.endswith("-above"):
        factor = 1 - 1e-3 if kind.endswith("-below") else 1 + 1e-3
        h[0, 1] += factor * tol * max(1.0, frobenius(h)) / np.sqrt(2)  # defect sqrt(2) |dh|
    elif kind == "nan-offdiag":
        h[0, 1] = np.nan
    elif kind == "nan-diag":
        h[2, 2] = np.nan
    elif kind == "inf-diag":
        h[1, 1] = np.inf
    elif kind == "inf-offdiag":
        h[0, 3] = h[3, 0] = np.inf
    elif kind == "minus-inf-diag":
        h[3, 3] = -np.inf
    elif kind == "imaginary-inf-offdiag":  # Hermitian in form: -i inf above, i inf below
        h[1, 2], h[2, 1] = complex(0, -np.inf), complex(0, np.inf)
    elif kind == "huge":  # Hermitian, but its norm overflows
        h = np.full((4, 4), 1e200, dtype=complex)
    elif kind == "huge-anti-hermitian":  # finite entries, an overflowing norm and defect
        h = 1e200j * np.full((4, 4), 1.0)
    elif kind == "anti-hermitian":
        h = a - dagger(a)
    return h


@pytest.mark.parametrize("kind,passes", [
    ("hermitian", True), ("small", True),
    ("large-below", True), ("large-above", False), ("small-below", True), ("small-above", False),
    ("nan-offdiag", False), ("nan-diag", False), ("inf-diag", False), ("inf-offdiag", False),
    ("minus-inf-diag", False), ("imaginary-inf-offdiag", False), ("huge", False),
    ("huge-anti-hermitian", False), ("anti-hermitian", False),
])
def test_one_matrix_hermiticity_verdict_is_the_stack_verdict(kind, passes):
    tol = 1e-9
    h = _hermitian_case(kind, tol)
    verdicts, messages = [], []
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning, no OverflowError on either path
        for m in (h, h[None]):
            try:
                require_hermitian(m, tol, "H")
                verdicts.append(True)
            except NotHermitianError as err:
                verdicts.append(False)
                messages.append(str(err))
    assert verdicts == [passes, passes]
    if not passes:
        one, stack = messages
        assert stack == one.replace("H is not Hermitian", "H is not Hermitian at index 0 of "
                                    "the stack")


@pytest.mark.parametrize("seed", range(12))
def test_seeded_one_matrix_hermiticity_verdicts_are_the_stack_of_one_verdicts(seed):
    # Hermitian matrices at scales 1e-3 to 1e3 with an anti-Hermitian defect at 0.5 and 2
    # times HERM_TOL of their scale, and with a NaN or an infinite entry: one matrix (which
    # returns on a pass right after its two vdot) and the same matrix as a stack of one give
    # one verdict and one error text
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = (a + dagger(a)) * 10.0 ** rng.uniform(-3, 3)
    b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    k = (b - dagger(b)) / (2 * frobenius(b - dagger(b)))  # ||k - k^dag|| = 1
    i, j = rng.integers(4, size=2)
    cases = []
    for factor in (0.5, 2.0):
        m = h + factor * HERM_TOL * max(1.0, frobenius(h)) * k
        cases.append((m, factor < 1))
    for bad in (np.nan, np.inf, complex(0, -np.inf)):
        m = h.copy()
        m[i, j] = bad
        cases.append((m, False))
    for m, passes in cases:
        messages = []
        for operand in (m, m[None]):
            try:
                require_hermitian(operand, HERM_TOL, "H")
            except NotHermitianError as err:
                messages.append(str(err))
        assert len(messages) == (0 if passes else 2)
        if not passes:
            one, stack = messages
            assert stack == one.replace("Hermitian:", "Hermitian at index 0 of the stack:")
            with np.errstate(invalid="ignore"):  # inf - inf on the diagonal
                defect = np.linalg.norm(m - dagger(m))
            assert one == f"H is not Hermitian: ||H - H^dag|| = {defect:.3e}"


def test_expm_zero_is_identity():
    assert np.allclose(expm_hermitian(np.zeros((4, 4)), 0.7), identity(4))


def test_expm_involution_closed_form():
    # H = (s1 x s2)/2 with (s1 x s2)^2 = 1: exp(-iH t) = cos(t/2) - i sin(t/2) s1 x s2
    phi = 0.9
    s1 = np.cos((np.pi + phi) / 2) * np.array([[0, 1], [1, 0]]) \
        + np.sin((np.pi + phi) / 2) * np.array([[0, -1j], [1j, 0]])
    s2 = np.cos(phi / 2) * np.array([[0, 1], [1, 0]]) \
        + np.sin(phi / 2) * np.array([[0, -1j], [1j, 0]])
    big = np.kron(s1, s2)
    theta = 1.23
    want = np.cos(theta / 2) * identity(4) - 1j * np.sin(theta / 2) * big
    assert frobenius(expm_hermitian(big / 2, theta) - want) < 1e-13


def test_expm_matches_series_oracle():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = (a + a.conj().T) / 2
    theta = 0.3
    assert frobenius(expm_hermitian(h, theta) - expm_series_oracle(-1j * h * theta)) < 1e-10


def test_expm_group_law():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = (a + a.conj().T) / 2
    lhs = expm_hermitian(h, 0.4) @ expm_hermitian(h, 0.9)
    assert frobenius(lhs - expm_hermitian(h, 1.3)) < 1e-10


def test_expm_rejects_non_hermitian():
    with pytest.raises(NotHermitianError):
        expm_hermitian(np.array([[0, 1], [0, 0]], dtype=complex), 1.0)


@pytest.mark.parametrize("entry", [(0, 0), (0, 1), (2, 3)])
@pytest.mark.parametrize("value", [np.nan, np.inf, complex(0, -np.inf)])
def test_expm_rejects_a_non_finite_matrix_before_eigh(entry, value):
    # the guard fails on a NaN defect and on an infinite norm, so no eigh warning or error
    h = np.zeros((4, 4), dtype=complex)
    h[entry] = value
    with pytest.raises(NotHermitianError):
        expm_hermitian(h, 0.5)


def _hermitian_stack(rng, n):
    a = rng.standard_normal((n, 4, 4)) + 1j * rng.standard_normal((n, 4, 4))
    return (a + dagger(a)) / 2


def test_stacked_expm_is_bitwise_the_single_matrix_call():
    rng = np.random.default_rng(61)
    h, theta = _hermitian_stack(rng, 30), rng.uniform(-2.0, 2.0, 30)
    stack = expm_hermitian(h, theta)
    assert stack.shape == (30, 4, 4)
    assert np.array_equal(stack, [expm_hermitian(h[k], theta[k]) for k in range(30)])
    # a scalar theta broadcasts over the stack, an array of theta over one matrix
    assert np.array_equal(expm_hermitian(h, 0.7), [expm_hermitian(m, 0.7) for m in h])
    assert np.array_equal(expm_hermitian(h[0], theta), [expm_hermitian(h[0], t) for t in theta])


def test_stacked_expm_rejects_the_one_non_hermitian_matrix():
    h = _hermitian_stack(np.random.default_rng(67), 5)
    h[3, 0, 0] = np.nan
    with pytest.raises(NotHermitianError, match="index 3 of the stack"):
        expm_hermitian(h, 0.5)
    assert expm_hermitian(h[:0], np.empty(0)).shape == (0, 4, 4)


def test_json_round_trip():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    assert np.array_equal(mat_from_json(mat_to_json(a)), a)
    blob = mat_to_json(a)
    assert blob["dim"] == 4 and len(blob["entries"]) == 4


@pytest.mark.parametrize("entries", [[[[1, 0], [0, 0]], [[0, 0]]], [[[1, 0], [0, 0]]]])
def test_mat_from_json_refuses_a_grid_off_dim(entries):
    with pytest.raises(ValueError, match="^entry grid does not match dim$"):
        mat_from_json({"dim": 2, "entries": entries})


def test_cmat_validation():
    with pytest.raises(ValueError):
        cmat(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        cmat([[np.inf, 0], [0, 0]])
    with pytest.raises(ValueError):
        cmat(np.zeros((2, 4, 4)))
