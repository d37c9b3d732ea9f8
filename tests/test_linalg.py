import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from yaxter.linalg import (
    _BLOCK,
    MAX_ENTRY,
    DegenerateSpectrumError,
    NotHermitianError,
    NotTwoEigenvalueError,
    SingularMatrixError,
    cmat,
    cmat_stack,
    dagger,
    expm_hermitian,
    frobenius,
    identity,
    inverse,
    mat_from_json,
    mat_to_json,
    spectral_projectors,
    strand_gap,
    tensor,
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
    """``count`` 4x4 matrices with entries in {-3..3} + i{-3..3}: every sum of the gap is exact."""
    return st.lists(st.integers(-3, 3), min_size=32 * count, max_size=32 * count).map(
        lambda vals: [(v[0::2] + 1j * v[1::2]).reshape(4, 4)
                      for v in np.array(vals, dtype=float).reshape(count, 32)])


@settings(max_examples=60, deadline=None)
@given(gaussian_integer_matrices(3))
def test_strand_gap_on_gaussian_integers_is_bitwise_the_kron_reference(mats):
    a, c, d = mats
    assert strand_gap(a, c, d) == strand_gap_reference(a, c, d)


@settings(max_examples=60, deadline=None)
@given(complex_matrices(4, 3))
def test_strand_gap_is_the_kron_reference_to_rounding(mats):
    a, c, d = mats
    scale = frobenius(a) * frobenius(c) * frobenius(d)
    assert abs(strand_gap(a, c, d) - strand_gap_reference(a, c, d)) <= 8 * EPS * scale


def random_matrices(rng, *shape):
    """A (*shape, 4, 4) stack of complex Gaussian matrices."""
    return rng.standard_normal((*shape, 4, 4)) + 1j * rng.standard_normal((*shape, 4, 4))


def test_stacked_strand_gap_agrees_with_per_item_calls():
    rng = np.random.default_rng(31)
    a, c, d = (rng.standard_normal((5, 4, 4)) + 1j * rng.standard_normal((5, 4, 4))
               for _ in range(3))
    gaps = strand_gap(a, c, d)
    assert gaps.shape == (5,)
    for k in range(5):
        assert gaps[k] == pytest.approx(strand_gap(a[k], c[k], d[k]), rel=1e-14)
    # a single matrix broadcasts against a stack
    assert np.allclose(strand_gap(a[0], c, d[0]),
                       [strand_gap(a[0], ck, d[0]) for ck in c], rtol=1e-14, atol=0)


@pytest.mark.parametrize("n", [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7])
def test_strand_gap_blocks_agree_with_per_item_calls(n):
    rng = np.random.default_rng(n)
    a, c, d = (random_matrices(rng, n) for _ in range(3))
    gaps = strand_gap(a, c, d)
    assert gaps.shape == (n,)
    assert np.allclose(gaps, [strand_gap(*abc) for abc in zip(a, c, d)], rtol=1e-14, atol=0)


def test_strand_gap_broadcasts_leading_axes_and_single_matrices_across_blocks():
    rng = np.random.default_rng(41)
    a, c, d = (random_matrices(rng, 2, 3) for _ in range(3))
    gaps = strand_gap(a, c, d)
    assert gaps.shape == (2, 3)
    assert np.allclose(gaps, [[strand_gap(a[i, j], c[i, j], d[i, j]) for j in range(3)]
                              for i in range(2)], rtol=1e-14, atol=0)
    a1, c, d1 = random_matrices(rng), random_matrices(rng, 2 * _BLOCK + 5), random_matrices(rng)
    assert np.allclose(strand_gap(a1, c, d1), [strand_gap(a1, ck, d1) for ck in c],
                       rtol=1e-14, atol=0)


def test_a_nan_in_one_triple_is_nan_in_that_gap_only():
    rng = np.random.default_rng(43)
    a, c, d = (random_matrices(rng, _BLOCK + 3) for _ in range(3))
    want = strand_gap(a, c, d)
    c[_BLOCK + 1, 2, 3] = np.nan
    gaps = strand_gap(a, c, d)
    assert np.isnan(gaps[_BLOCK + 1])
    assert np.array_equal(np.delete(gaps, _BLOCK + 1), np.delete(want, _BLOCK + 1))


def test_an_empty_stack_gives_no_gaps_and_no_worst_case():
    a = np.zeros((0, 4, 4), dtype=complex)
    gaps = strand_gap(a, a, a)
    assert gaps.shape == (0,)
    with pytest.raises(ValueError, match="at least one sample"):
        worst(gaps)


def test_strand_gap_memory_does_not_grow_with_the_stack():
    rng = np.random.default_rng(47)
    a, c, d = (random_matrices(rng, 3000) for _ in range(3))
    tracemalloc.start()
    try:
        strand_gap(a, c, d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_entries_at_the_product_bound_give_finite_gaps():
    # |entries| = MAX_ENTRY with random phases, and all-equal entries, where every sum adds up
    rng = np.random.default_rng(53)
    a, c, d = (MAX_ENTRY * np.exp(2j * np.pi * rng.random((3 * _BLOCK + 7, 4, 4)))
               for _ in range(3))
    a[0] = c[0] = MAX_ENTRY
    d[0] = -MAX_ENTRY
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


def test_cmat_stack_broadcasts_entries_into_matrices():
    a = np.array([1.0, 2.0, 3.0])
    stack = cmat_stack([[a, 0], [1j * a, 2]])
    assert stack.shape == (3, 2, 2) and stack.dtype == complex
    for k in range(3):
        assert np.array_equal(stack[k], cmat([[a[k], 0], [1j * a[k], 2]]))
    assert cmat_stack([[a[:0], 0], [0, 1]]).shape == (0, 2, 2)
    with pytest.raises(ValueError, match="finite"):
        cmat_stack([[a, np.inf], [0, 1]])
    with pytest.raises(ValueError, match="rows"):
        cmat_stack([[a, 0, 0], [0, 1, 0], [0, 0, 1]])


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


def test_json_round_trip():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    assert np.array_equal(mat_from_json(mat_to_json(a)), a)
    blob = mat_to_json(a)
    assert blob["dim"] == 4 and len(blob["entries"]) == 4


def test_cmat_validation():
    with pytest.raises(ValueError):
        cmat(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        cmat([[np.inf, 0], [0, 0]])
