import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from yaxter import suite, verify
from yaxter.baxterize import SpectralPoint, _u_gauge, build_R, family_x, reference_gauge
from yaxter.catalog import Family, FamilySpec, Sign, build_b
from yaxter.entangle import (
    ENTANGLING_TOL,
    GRID,
    SWAP,
    Classification,
    apply,
    brylinski_witness,
    classification_gauge_R,
    classify,
    concurrence_det,
    det_b_closed,
    nonentangling_locus_check,
    product_state,
    state,
)
from yaxter.linalg import SingularMatrixError, identity, require_invertible, weights

X = SpectralPoint.from_x
TH = SpectralPoint.from_theta

#: the eight-vertex pattern: the entries where the row and column bits have equal parity
EIGHT_VERTEX = np.array([[1, 0, 0, 1], [0, 1, 1, 0], [0, 1, 1, 0], [1, 0, 0, 1]], dtype=bool)

amp = st.floats(min_value=-2, max_value=2, allow_nan=False)


def test_apply_identity():
    psi = state(0.3, 0.1j, -0.2, 0.7)
    assert np.array_equal(apply(identity(4), psi), psi)


def test_apply_phase_swap_gate():
    a, b, c, d = 1.0, np.exp(0.3j), np.exp(0.7j), np.exp(1.1j)
    r = np.array([[a, 0, 0, 0], [0, 0, d, 0], [0, c, 0, 0], [0, 0, 0, b]], dtype=complex)
    psi = state(1, 1, 1, 1)  # (|0> + |1>) x (|0> + |1>)
    out = apply(r, psi)
    assert np.allclose(out, [a, d, c, b])


@pytest.mark.parametrize("sign", [Sign.PLUS, Sign.MINUS])
def test_bell_braid_action_on_basis(sign):
    phi = 0.8
    b = build_b(FamilySpec.bell(phi=phi, sign=sign))
    s = sign.factor
    got = apply(b, state(1, 0, 0, 0))
    assert np.allclose(got, np.array([1, 0, 0, -np.exp(1j * phi)]) / np.sqrt(2))
    got = apply(b, state(0, 1, 0, 0))
    assert np.allclose(got, np.array([0, 1, -s, 0]) / np.sqrt(2))
    got = apply(b, state(0, 0, 0, 1))
    assert np.allclose(got, np.array([np.exp(-1j * phi), 0, 0, 1]) / np.sqrt(2))


@settings(max_examples=50, deadline=None)
@given(amp, amp, amp, amp, amp, amp, amp, amp)
@example(1e-200, 0.0, 0.0, 0.0, 1e-200, 0.0, 0.0, 0.0)  # a c underflows, b = d = 0
def test_product_state_det_vanishes(ar, ai, br, bi, cr, ci, dr, di):
    a, b, c, d = ar + 1j * ai, br + 1j * bi, cr + 1j * ci, dr + 1j * di
    if abs(a) + abs(b) == 0 or abs(c) + abs(d) == 0:
        return
    if not any((a * c, a * d, b * c, b * d)):  # nonzero factors whose products underflow
        with pytest.raises(ValueError, match="must not all vanish"):
            product_state(a, b, c, d)
        return
    scale = max(abs(z) for z in (a, b, c, d)) ** 4 + 1.0
    assert abs(concurrence_det(product_state(a, b, c, d))) < 1e-14 * scale


def test_bell_state_det():
    psi = state(1 / np.sqrt(2), 0, 0, 1 / np.sqrt(2))
    assert concurrence_det(psi) == pytest.approx(0.5)


@settings(max_examples=30, deadline=None)
@given(amp, amp)
def test_det_scale_covariance(lr, li):
    lam = lr + 1j * li
    psi = state(0.3, 0.5, -0.1, 0.4)
    got = concurrence_det(lam * psi)
    assert abs(got - lam * lam * concurrence_det(psi)) < 1e-12


def test_swap_has_no_witness():
    assert brylinski_witness(SWAP) is None


def test_theorem_matrix_has_witness():
    r = build_b(FamilySpec.bell(phi=0.0, sign=Sign.MINUS))
    assert brylinski_witness(r) is not None


def test_six_nonstd_probe_from_the_construction():
    # a00 = a10 = 0, a01 != 0 with gamma != 0 witnesses the entanglement
    spec = FamilySpec.six_nonstd(gamma=0.5)
    r = classification_gauge_R(spec, TH(0.6))
    out = apply(r, state(0, 1, 0, 0))
    assert abs(concurrence_det(out)) > 1e-3


ENTANGLING_CASES = [
    (FamilySpec.six_nonstd(gamma=0.3), TH(0.6)),
    (FamilySpec.six_nonstd(q=1.0), TH(0.6)),  # the q = 1 contrast: still universal
    (FamilySpec.six_std(gamma=0.45), TH(0.6)),
    (FamilySpec.eight1(phi=0.9), X(0.5)),
    (FamilySpec.eight2(t=1.7, q=np.exp(-0.4j), sign=Sign.MINUS), TH(0.8)),
    (FamilySpec.eight3(t=2.1, q=np.exp(0.33j)), TH(0.8)),
    (FamilySpec.eight4(t=1.6, q=np.exp(0.25j)), TH(0.8)),
]

EXCLUDED_CASES = [
    (FamilySpec.six_nonstd(gamma=0.3), TH(0.0)),
    (FamilySpec.six_std(q=1.0), TH(0.6)),  # the q = 1 swap-like standard gate
    (FamilySpec.eight1(phi=0.9), X(1.0)),
    (FamilySpec.eight2(t=1.7, q=np.exp(-0.4j)), TH(0.0)),
    (FamilySpec.eight3(t=0.0, q=np.exp(0.33j)), TH(0.8)),
    (FamilySpec.eight4(t=1.6, q=np.exp(0.25j)), TH(0.0)),
]


def _assert_grid_witness(spec, p, result):
    """An ENTANGLING result carries a grid product state whose image has |Det| > tol ||R||_F^2."""
    r = classification_gauge_R(spec, p)
    assert result.classification is Classification.ENTANGLING
    assert any(np.array_equal(result.witness, g) for g in GRID)
    assert concurrence_det(result.witness) == pytest.approx(0, abs=1e-14)
    assert result.det == concurrence_det(r @ result.witness)
    assert abs(result.det) > ENTANGLING_TOL * np.linalg.norm(r) ** 2


@pytest.mark.parametrize("spec,p", ENTANGLING_CASES)
def test_classify_entangling(spec, p):
    result = classify(spec, p)
    _assert_grid_witness(spec, p, result)
    # probes and seed are accepted for old callers and change nothing
    ignored = classify(spec, p, probes=0, seed=7)
    assert np.array_equal(ignored.witness, result.witness) and ignored.det == result.det


@pytest.mark.parametrize("spec,p", EXCLUDED_CASES)
def test_classify_not_entangling_on_excluded_loci(spec, p):
    result = classify(spec, p)
    assert result.classification is Classification.NOT_ENTANGLING
    assert result.witness is None and result.det == 0
    rng = np.random.default_rng(41)
    for _ in range(10):
        z = rng.standard_normal(8)
        psi = product_state(z[0] + 1j * z[1], z[2] + 1j * z[3],
                            z[4] + 1j * z[5], z[6] + 1j * z[7])
        assert abs(det_b_closed(spec, p, psi / np.linalg.norm(psi))) < 1e-12


CLOSED_FORM_CASES = [
    (FamilySpec.six_nonstd(gamma=0.3), TH(0.7)),
    (FamilySpec.six_std(gamma=0.45), TH(0.7)),
    (FamilySpec.eight1(phi=0.9), X(0.6)),
    (FamilySpec.eight2(t=1.7, q=np.exp(-0.4j), sign=Sign.MINUS), TH(0.7)),
    (FamilySpec.eight3(t=2.1, q=np.exp(0.33j)), TH(0.7)),
    (FamilySpec.eight4(t=1.6, q=np.exp(0.25j), sign=Sign.MINUS), TH(0.7)),
]


def _complex_matrix(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def _unitary(rng, n):
    q, _ = np.linalg.qr(_complex_matrix(rng, n))
    return q


def is_local(r: np.ndarray, tol: float = ENTANGLING_TOL) -> bool:
    """Reference for the grid test: an invertible map keeps every product state a
    product iff it is A x B or SWAP (A x B). The realignment
    m[(i,k),(j,l)] -> m[(i,j),(k,l)] of r or of r SWAP is rank 1 exactly for a
    product, so r is local iff its second singular value is below tol times its first."""
    r = np.asarray(r, dtype=complex)
    m = np.stack([r, r @ SWAP]).reshape(2, 2, 2, 2, 2).transpose(0, 1, 3, 2, 4)
    s = np.linalg.svd(m.reshape(2, 4, 4), compute_uv=False)
    return bool(np.any(s[:, 1] < tol * s[:, 0]))


def dense_witness(r: np.ndarray, tol: float = ENTANGLING_TOL) -> np.ndarray | None:
    """The general-gate reference of ``brylinski_witness``, for any 4x4 r: the nine grid
    images as one dense product GRID @ r.T, the same floor and the same tie rule."""
    r = np.asarray(r, dtype=complex)
    out = GRID @ r.T
    dets = np.abs(out[:, 0] * out[:, 3] - out[:, 1] * out[:, 2])
    top = dets.max()
    if not top > tol * np.vdot(r, r).real:
        return None
    return GRID[int(np.argmax(dets >= (1 - 1e-9) * top))].copy()


def _grid_is_local(r: np.ndarray) -> bool:
    return dense_witness(r) is None


def _eight_vertex_gate(rng) -> np.ndarray:
    """A random eight-vertex 4x4 matrix: standard normal weights on the pattern, 0 off it."""
    r = np.zeros((4, 4), dtype=complex)
    r[EIGHT_VERTEX] = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    return r


def _assert_witness_is_the_reference(r):
    """The eight-weight kernel and the dense reference give the same verdict and witness."""
    got, want = brylinski_witness(r), dense_witness(r)
    assert (got is None) == (want is None)
    assert got is None or np.array_equal(got, want)


def _assert_classify_is_the_reference(spec, p):
    """classify decides as the dense guard and the dense reference witness on the same R."""
    r = classification_gauge_R(spec, p)
    require_invertible(r)
    result, want = classify(spec, p), dense_witness(r)
    if want is None:
        assert result.classification is Classification.NOT_ENTANGLING
        assert result.witness is None and result.det == 0
    else:
        assert result.classification is Classification.ENTANGLING
        assert np.array_equal(result.witness, want)
        assert result.det == concurrence_det(r @ want)


def test_is_local_exactly_on_products_and_swapped_products():
    rng = np.random.default_rng(43)
    for _ in range(20):
        ab = np.kron(_complex_matrix(rng, 2), _complex_matrix(rng, 2))
        assert is_local(ab) and is_local(SWAP @ ab)
        assert not is_local(_complex_matrix(rng, 4))


def test_grid_agrees_with_realignment_on_random_and_local_gates():
    rng = np.random.default_rng(47)
    for _ in range(2000):
        r = _complex_matrix(rng, 4)
        assert _grid_is_local(r) == is_local(r)
    for _ in range(200):
        ab = np.kron(_complex_matrix(rng, 2), _complex_matrix(rng, 2))
        for r in (ab, SWAP @ ab):
            assert _grid_is_local(r) and is_local(r)
            out = GRID @ r.T
            dets = out[:, 0] * out[:, 3] - out[:, 1] * out[:, 2]
            assert np.abs(dets).max() < 1e-15 * np.linalg.norm(r) ** 2


@pytest.mark.parametrize("eps,local", [(1e-3, False), (1e-6, False), (1e-11, True)])
def test_grid_agrees_with_realignment_near_local_gates(eps, local):
    # a local unitary gate moved by eps in a random direction of unit norm
    rng = np.random.default_rng(53)
    for _ in range(50):
        ab = np.kron(_unitary(rng, 2), _unitary(rng, 2))
        e = _complex_matrix(rng, 4)
        for r in (ab, SWAP @ ab):
            r = r + eps * e / np.linalg.norm(e)
            assert _grid_is_local(r) == is_local(r) == local


def _fixed_points():
    cases = ENTANGLING_CASES + EXCLUDED_CASES + CLOSED_FORM_CASES
    return cases + suite._UNIVERSALITY_POINTS + suite._EXCLUDED_POINTS


def test_grid_agrees_with_realignment_at_every_fixed_point():
    # criterion 6's 15 points among them
    for spec, p in _fixed_points():
        r = classification_gauge_R(spec, p)
        assert _grid_is_local(r) == is_local(r), (spec, p)
        _assert_witness_is_the_reference(r)
        _assert_classify_is_the_reference(spec, p)


@pytest.mark.parametrize("family", suite.R_FAMILIES, ids=lambda f: f.value)
def test_grid_agrees_with_realignment_on_seeded_curve_points(family):
    # the grids of 34 sweep-style ops per family, 204 in all: seeded specs, 15 points at
    # 0.1 <= |offset| <= 1.4 from the non-entangling locus (theta = 0, or x = 1 for eight1),
    # and the locus itself
    rng = np.random.default_rng(59)
    eight1 = family is Family.EIGHT_I
    on_locus = 1.0 if eight1 else 0.0
    for _ in range(34):
        spec = verify.sample_spec(family, rng)
        offsets = rng.uniform(0.1, 1.4, 15) * rng.choice((-1.0, 1.0), 15)
        for value in (on_locus, *(on_locus + offsets)):
            p = X(value) if eight1 else TH(value)
            r = classification_gauge_R(spec, p)
            result = classify(spec, p)
            assert _grid_is_local(r) == is_local(r) == (value == on_locus)
            _assert_classify_is_the_reference(spec, p)
            if value != on_locus:
                _assert_grid_witness(spec, p, result)


def test_eight_weight_witness_is_the_dense_reference_on_eight_vertex_gates():
    rng = np.random.default_rng(71)
    for _ in range(500):
        r = _eight_vertex_gate(rng)
        _assert_witness_is_the_reference(r)
        for lam in (1e-6, 1e6, 1j):
            _assert_witness_is_the_reference(lam * r)
    # local eight-vertex gates (diagonal or antidiagonal factors), swapped and moved by eps
    # along a random eight-vertex direction: the floor decides as the reference's does
    for eps, local in ((1e-3, False), (1e-11, True)):
        for _ in range(50):
            a, b = (np.diag(rng.standard_normal(2) + 1j * rng.standard_normal(2))
                    for _ in range(2))
            flip = np.array([[0, 1], [1, 0]])
            for ab in (np.kron(a, b), np.kron(flip @ a, flip @ b)):
                for r in (ab, SWAP @ ab):
                    e = _eight_vertex_gate(rng)
                    r = r + eps * np.linalg.norm(r) * e / np.linalg.norm(e)
                    _assert_witness_is_the_reference(r)
                    assert (brylinski_witness(r) is None) == local
    # ties: O = I = [[1, 1], [-1, 1]] gives |Det| = 1 at six grid states, up to rounding in
    # the reference, and the first of them is the witness
    tie = np.zeros((4, 4), dtype=complex)
    tie[EIGHT_VERTEX] = [1, 1, 1, 1, -1, 1, -1, 1]
    assert np.array_equal(brylinski_witness(tie), GRID[0])
    _assert_witness_is_the_reference(tie)


def test_the_witness_takes_eight_vertex_matrices_only():
    r = _eight_vertex_gate(np.random.default_rng(73))
    r[0, 1] = 0.5
    with pytest.raises(ValueError, match=r"^brylinski_witness takes eight-vertex matrices"):
        brylinski_witness(r)


@pytest.mark.parametrize("lam", [1e-6, 1e6])
def test_grid_test_is_scale_invariant(lam):
    rng = np.random.default_rng(61)
    gates = [classification_gauge_R(spec, p) for spec, p in _fixed_points()]
    gates += [_eight_vertex_gate(rng) for _ in range(50)]
    for r in gates:
        w, w_scaled = brylinski_witness(r), brylinski_witness(lam * r)
        assert (w is None) == (w_scaled is None)
        assert w is None or np.array_equal(w, w_scaled)


def test_singular_gate_is_an_error():
    # six-nonstd at x = q^2 = e: q - x/q = 0, so R is singular and the
    # criterion, stated for invertible maps, does not apply
    spec = FamilySpec.six_nonstd(gamma=0.5)
    with pytest.raises(SingularMatrixError, match="six-nonstd"):
        classify(spec, X(np.e))


def test_classify_guards_with_the_singularity_rule_of_inverse():
    # classify runs linalg.require_invertible, the guard of linalg.inverse, without forming
    # the inverse; the message is the guard's, with the family and point as its context
    spec = FamilySpec.six_nonstd(gamma=0.5)
    want = (r"^matrix is singular at six-nonstd, x = \(2\.718281828459045\+0j\): "
            r"\|det\(a / max\|a_ij\|\)\| = \d\.\d{3}e-\d+$")
    with pytest.raises(SingularMatrixError, match=want):
        classify(spec, X(np.e))


def test_classify_of_a_non_finite_R_is_the_finiteness_error():
    # eight4 at t = -5 and x = 1.3e154: C x^2 overflows to inf in the R(x) entries
    spec, p = FamilySpec.eight4(t=-5.0, q=1.0), X(1.3e154)
    for call in (classify, classification_gauge_R):
        with pytest.raises(ValueError, match=r"^matrix entries must be finite$"):
            call(spec, p)


def dense_classify(spec, p):
    """``classify`` on the dense classification-gauge matrix: its weights read back from
    ``classification_gauge_R``, the guard, the witness and the det of R times it."""
    r = classification_gauge_R(spec, p)
    (w,) = weights("classify", "r", r)
    require_invertible(w)
    witness = brylinski_witness(w)
    return (Classification.NOT_ENTANGLING, None, 0j) if witness is None else (
        Classification.ENTANGLING, witness, concurrence_det(r @ witness))


def _sweep_grids():
    """16-point sweep-style grids, one seeded spec per family: 15 points at
    0.1 <= |offset| <= 1.4 from the non-entangling locus, and the locus itself."""
    rng = np.random.default_rng(89)
    for family in suite.R_FAMILIES:
        eight1 = family is Family.EIGHT_I
        on_locus = 1.0 if eight1 else 0.0
        spec = verify.sample_spec(family, rng)
        offsets = rng.uniform(0.1, 1.4, 15) * rng.choice((-1.0, 1.0), 15)
        for value in (on_locus, *(on_locus + offsets)):
            yield spec, X(value) if eight1 else TH(value)


def test_classify_is_bitwise_the_dense_route():
    # classify reads R's weights as rows and scatters R only for a witness's det
    for spec, p in [*_fixed_points(), *_sweep_grids()]:
        result = classify(spec, p)
        label, witness, det = dense_classify(spec, p)
        assert result.classification is label
        assert (result.witness is None) == (witness is None)
        assert witness is None or np.array_equal(result.witness, witness)
        assert result.det == det and repr(result.det) == repr(det)


def test_classification_gauge_R_is_the_gauge_times_build_R():
    # the six-vertex trigonometric gauge, else the u view's gauge times R at the point's x
    for spec, p in [*_fixed_points(), *_sweep_grids()]:
        if spec.family in (Family.SIX_NONSTD, Family.SIX_STD):
            want = build_R(spec, p) / reference_gauge(spec, p.kind, p.value)
        else:
            x = family_x(spec, p.kind, p.value)
            want = _u_gauge(spec, x) * build_R(spec, X(x))
        got = classification_gauge_R(spec, p)
        assert np.array_equal(got[EIGHT_VERTEX], want[EIGHT_VERTEX])
        assert got[EIGHT_VERTEX].tobytes() == want[EIGHT_VERTEX].tobytes()
        assert not got[~EIGHT_VERTEX].any() and not want[~EIGHT_VERTEX].any()


@pytest.mark.parametrize("spec,p", CLOSED_FORM_CASES)
def test_closed_form_det_matches_apply(spec, p):
    rng = np.random.default_rng(29)
    r = classification_gauge_R(spec, p)
    for k in range(20):
        z = rng.standard_normal(8)
        if k % 2 == 0:
            psi = product_state(z[0] + 1j * z[1], z[2] + 1j * z[3],
                                z[4] + 1j * z[5], z[6] + 1j * z[7])
        else:
            psi = state(z[0] + 1j * z[1], z[2] + 1j * z[3],
                        z[4] + 1j * z[5], z[6] + 1j * z[7])
        want = concurrence_det(apply(r, psi))
        assert abs(det_b_closed(spec, p, psi) - want) < 1e-12


def _random_states(seed, n):
    """n states with standard normal amplitudes; the even ones are products."""
    g = np.random.default_rng(seed).standard_normal((n, 8))
    amps = (g[:, 0::2] + 1j * g[:, 1::2]).T
    psi = state(*amps)
    psi[0::2] = product_state(*amps[:, 0::2])
    return psi


def test_state_stacks_are_the_per_state_calls():
    amps = np.random.default_rng(89).standard_normal((4, 6)) * (1 + 0.5j)
    assert np.array_equal(state(*amps), [state(*a) for a in amps.T])
    # products of amplitudes: numpy's array and scalar loops may round differently
    np.testing.assert_allclose(product_state(*amps), [product_state(*a) for a in amps.T],
                               rtol=1e-15, atol=0)
    assert state(*np.empty((4, 0))).shape == (0, 4)
    amps[:, 4] = 0
    with pytest.raises(ValueError, match="must not all vanish"):
        state(*amps)


@pytest.mark.parametrize("spec,p", CLOSED_FORM_CASES)
def test_stacked_dets_agree_with_the_single_state_calls(spec, p):
    psi = _random_states(97, 40)
    closed, measured = det_b_closed(spec, p, psi), concurrence_det(psi)
    assert closed.shape == measured.shape == (40,)
    for k in range(40):
        want = det_b_closed(spec, p, psi[k])
        assert abs(closed[k] - want) <= 1e-14 * max(1.0, abs(want))
        assert measured[k] == concurrence_det(psi[k])


def test_empty_det_stacks_are_a_usage_error():
    spec, p = CLOSED_FORM_CASES[0]
    for dets in (det_b_closed(spec, p, np.empty((0, 4))), concurrence_det(np.empty((0, 4)))):
        assert dets.shape == (0,)
        with pytest.raises(ValueError, match="at least one sample"):
            verify.worst(abs(dets))


def test_a_nan_state_gives_nan_for_that_state_only():
    spec, p = CLOSED_FORM_CASES[0]
    psi = _random_states(101, 6)
    psi[3, 1] = np.nan
    for dets in (det_b_closed(spec, p, psi), concurrence_det(psi)):
        assert np.isnan(dets[3]) and np.isfinite(np.delete(dets, 3)).all()


def test_six_nonstd_displayed_det_for_product_inputs():
    g, th = 0.5, 0.8
    spec = FamilySpec.six_nonstd(gamma=g)
    r = classification_gauge_R(spec, TH(th))
    rng = np.random.default_rng(31)
    for _ in range(20):
        z = rng.standard_normal(8)
        psi = product_state(z[0] + 1j * z[1], z[2] + 1j * z[3],
                            z[4] + 1j * z[5], z[6] + 1j * z[7])
        want = np.sin(th) * (
            2 * psi[0] * psi[3] * np.sin(th)
            + 1j * (psi[1] ** 2 * np.exp(1j * th) + psi[2] ** 2 * np.exp(-1j * th)) * np.sinh(g)
        )
        assert abs(concurrence_det(apply(r, psi)) - want) < 1e-12


def test_eight1_displayed_det_for_product_inputs():
    spec = FamilySpec.eight1(phi=0.6, sign=Sign.MINUS)
    p = X(0.4)
    u = (1 - 0.4) / (1 + 0.4)
    q = complex(spec.q)
    r = classification_gauge_R(spec, p)
    rng = np.random.default_rng(37)
    for _ in range(20):
        z = rng.standard_normal(8)
        psi = product_state(z[0] + 1j * z[1], z[2] + 1j * z[3],
                            z[4] + 1j * z[5], z[6] + 1j * z[7])
        want = u * (q * psi[3] ** 2 - psi[0] ** 2 / q - psi[1] ** 2 + psi[2] ** 2)
        assert abs(concurrence_det(apply(r, psi)) - want) < 1e-12


def test_locus_eight1_plus_d_equals_c():
    spec = FamilySpec.eight1(q=1.0, sign=Sign.PLUS)
    assert nonentangling_locus_check(spec, X(0.5), (0.7, 0.2, 0.5, 0.5))


def test_locus_eight3_plus_a_equals_b():
    spec = FamilySpec.eight3(t=2.0, q=1.0, sign=Sign.PLUS)
    assert nonentangling_locus_check(spec, X(0.5), (0.6, 0.6, 0.9, 0.3))


def test_locus_generic_factors_are_off_locus():
    spec = FamilySpec.eight1(phi=0.7, sign=Sign.PLUS)
    assert not nonentangling_locus_check(spec, X(0.5), (0.9, 0.2, 0.4, 0.8))
    spec3 = FamilySpec.eight3(t=2.0, q=np.exp(0.5j))
    assert not nonentangling_locus_check(spec3, X(0.5), (0.9, 0.2, 0.4, 0.8))


def test_locus_unsupported_family():
    with pytest.raises(ValueError, match="eight1/eight3"):
        nonentangling_locus_check(FamilySpec.eight2(t=1.5), X(0.5), (1, 0, 0, 1))


@pytest.mark.parametrize("factors", [(0, 0, 1, 0), (1, 0, 0, 0)])
def test_locus_refuses_a_zero_factor(factors):
    with pytest.raises(ValueError, match="^factors must describe a nonzero product state$"):
        nonentangling_locus_check(FamilySpec.eight1(phi=0.7), X(0.5), factors)


def test_locus_minus_branch():
    # minus branch of eight1: d^2 = -c^2/q, here q = 1, d = i c
    spec = FamilySpec.eight1(q=1.0, sign=Sign.MINUS)
    assert nonentangling_locus_check(spec, X(0.5), (0.7, 0.3, 0.5, 0.5j))
