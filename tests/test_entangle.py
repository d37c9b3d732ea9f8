import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from yaxter.baxterize import SpectralPoint
from yaxter.catalog import Family, FamilySpec, Sign, build_b
from yaxter.entangle import (
    SWAP,
    Classification,
    apply,
    brylinski_witness,
    classification_gauge_R,
    classify,
    concurrence_det,
    det_b_closed,
    is_local,
    nonentangling_locus_check,
    probe_state,
    product_state,
    state,
)
from yaxter.linalg import SingularMatrixError, identity

X = SpectralPoint.from_x
TH = SpectralPoint.from_theta

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
def test_product_state_det_vanishes(ar, ai, br, bi, cr, ci, dr, di):
    a, b, c, d = ar + 1j * ai, br + 1j * bi, cr + 1j * ci, dr + 1j * di
    if abs(a) + abs(b) == 0 or abs(c) + abs(d) == 0:
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
    assert brylinski_witness(SWAP, probes=300, seed=1) is None


def test_theorem_matrix_has_witness():
    r = build_b(FamilySpec.bell(phi=0.0, sign=Sign.MINUS))
    assert brylinski_witness(r) is not None


def test_six_nonstd_probe_from_the_construction():
    # a00 = a10 = 0, a01 != 0 with gamma != 0 witnesses the entanglement
    spec = FamilySpec.six_nonstd(gamma=0.5)
    r = classification_gauge_R(spec, TH(0.6))
    out = apply(r, probe_state("01"))
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


@pytest.mark.parametrize("spec,p", ENTANGLING_CASES)
def test_classify_entangling(spec, p):
    result = classify(spec, p, seed=2)
    assert result.classification is Classification.ENTANGLING
    assert abs(result.det) > 1e-8
    assert concurrence_det(result.witness) == pytest.approx(0, abs=1e-14)


@pytest.mark.parametrize("spec,p", EXCLUDED_CASES)
def test_classify_not_entangling_on_excluded_loci(spec, p):
    result = classify(spec, p, seed=2)
    assert result.classification is Classification.NOT_ENTANGLING
    assert result.witness is None and result.det == 0
    rng = np.random.default_rng(41)
    for _ in range(10):
        z = rng.standard_normal(8)
        psi = product_state(z[0] + 1j * z[1], z[2] + 1j * z[3],
                            z[4] + 1j * z[5], z[6] + 1j * z[7])
        assert abs(det_b_closed(spec, p, psi / np.linalg.norm(psi))) < 1e-12


def _complex_matrix(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def test_is_local_exactly_on_products_and_swapped_products():
    rng = np.random.default_rng(43)
    for _ in range(20):
        ab = np.kron(_complex_matrix(rng, 2), _complex_matrix(rng, 2))
        assert is_local(ab) and is_local(SWAP @ ab)
        assert not is_local(_complex_matrix(rng, 4))


def test_singular_gate_is_an_error():
    # six-nonstd at x = q^2 = e: q - x/q = 0, so R is singular and the
    # criterion, stated for invertible maps, does not apply
    spec = FamilySpec.six_nonstd(gamma=0.5)
    with pytest.raises(SingularMatrixError, match="six-nonstd"):
        classify(spec, X(np.e))


@pytest.mark.parametrize(
    "spec,p",
    [
        (FamilySpec.six_nonstd(gamma=0.3), TH(0.7)),
        (FamilySpec.six_std(gamma=0.45), TH(0.7)),
        (FamilySpec.eight1(phi=0.9), X(0.6)),
        (FamilySpec.eight2(t=1.7, q=np.exp(-0.4j), sign=Sign.MINUS), TH(0.7)),
        (FamilySpec.eight3(t=2.1, q=np.exp(0.33j)), TH(0.7)),
        (FamilySpec.eight4(t=1.6, q=np.exp(0.25j), sign=Sign.MINUS), TH(0.7)),
    ],
)
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


def test_locus_minus_branch():
    # minus branch of eight1: d^2 = -c^2/q, here q = 1, d = i c
    spec = FamilySpec.eight1(q=1.0, sign=Sign.MINUS)
    assert nonentangling_locus_check(spec, X(0.5), (0.7, 0.3, 0.5, 0.5j))
