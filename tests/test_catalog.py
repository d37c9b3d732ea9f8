import numpy as np
import pytest

from yaxter.catalog import (
    BoltzmannWeights,
    DomainError,
    Family,
    FamilySpec,
    Sign,
    braid_residual,
    build_b,
    eigenvalues_of,
    eight_vertex_residuals,
    is_imag,
    is_real,
    on_unit_circle,
)
from yaxter.linalg import frobenius, identity
from yaxter.verify import sample_spec


def test_six_nonstd_at_q1_display():
    b = build_b(FamilySpec.six_nonstd(q=1.0))
    want = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, -1]], dtype=complex)
    assert np.array_equal(b, want)


def test_eight1_display():
    q = 0.6 + 0.8j
    b = build_b(FamilySpec.eight1(q=q))
    want = np.array([[1, 0, 0, q], [0, 1, 1, 0], [0, -1, 1, 0], [-1 / q, 0, 0, 1]])
    assert np.allclose(b, want, atol=1e-15)


def test_eight2_entries():
    t = 1.5
    spec = FamilySpec.eight2(t=t, q=1.0, sign=Sign.MINUS)
    b = build_b(spec)
    z = np.sqrt(t * t - 2 * t + 2)
    assert b[0, 0] == 2 - t and b[3, 3] == t
    assert np.isclose(b[1, 2], -z) and np.isclose(b[2, 1], -z)


def test_bell_phi_zero_minus_is_theorem_matrix():
    b = build_b(FamilySpec.bell(phi=0.0, sign=Sign.MINUS))
    want = np.array(
        [[1, 0, 0, 1], [0, 1, -1, 0], [0, 1, 1, 0], [-1, 0, 0, 1]], dtype=complex
    ) / np.sqrt(2)
    assert frobenius(b - want) < 1e-15


@pytest.mark.parametrize("phi", [0.0, 0.7, 2.1, 5.5])
@pytest.mark.parametrize("sign", [Sign.PLUS, Sign.MINUS])
def test_bell_phi_unitary(phi, sign):
    b = build_b(FamilySpec.bell(phi=phi, sign=sign))
    assert frobenius(b @ b.conj().T - identity(4)) < 1e-12


def test_eigenvalues_displayed():
    q = 1.7 + 0.2j
    assert eigenvalues_of(FamilySpec(Family.SIX_NONSTD, q=q)) == [q, -1 / q]
    assert eigenvalues_of(FamilySpec.eight1(q=1.0)) == [1 - 1j, 1 + 1j]
    assert eigenvalues_of(FamilySpec.eight3(t=3.0)) == [4, -2, 2]


@pytest.mark.parametrize("family", list(Family))
def test_eigenvalues_annihilate(family):
    rng = np.random.default_rng(17)
    for _ in range(10):
        spec = sample_spec(family, rng)
        b = build_b(spec)
        prod = identity(4)
        for lam in eigenvalues_of(spec):
            prod = prod @ (b - lam * identity(4))
        assert frobenius(prod) < 1e-10


def test_braid_residual_identity_is_zero():
    assert braid_residual(identity(4)) == 0.0


@pytest.mark.parametrize("family", list(Family))
def test_braid_residual_across_families(family):
    rng = np.random.default_rng(23)
    for _ in range(25):
        assert braid_residual(build_b(sample_spec(family, rng))) < 1e-11


def test_braid_residual_detects_broken_matrix():
    broken = identity(4)
    broken[0, 1] = 1.0
    broken[1, 2] = 1.0
    assert braid_residual(broken) > 0.1


def test_q_zero_rejected():
    with pytest.raises(ValueError, match="nonzero"):
        FamilySpec(Family.SIX_NONSTD, q=0)


def test_gamma_requires_real_positive_q():
    with pytest.raises(DomainError):
        FamilySpec(Family.SIX_NONSTD, q=1 + 1j).gamma
    assert np.isclose(FamilySpec.six_nonstd(gamma=0.4).gamma, 0.4)


def test_domain_violations_are_named():
    spec = FamilySpec(Family.SIX_NONSTD, q=1 + 1j)
    assert "real q" in spec.domain_violation()
    spec = FamilySpec.six_nonstd(gamma=0.3)
    assert "|x| = 1" in spec.domain_violation(x=2.0)
    assert spec.domain_violation(x=np.exp(0.4j)) is None
    spec = FamilySpec(Family.EIGHT_I, q=2.0)
    assert "|q| = 1" in spec.domain_violation()
    spec = FamilySpec.eight4(t=1.5, q=1.0)
    assert "|x| = 1" in spec.domain_violation(x=0.5)
    spec = FamilySpec.eight4(t=1.5j, q=1.0)
    assert spec.domain_violation(x=0.5) is None
    spec = FamilySpec.eight4(t=1 + 1j, q=1.0)
    assert "real or pure imaginary" in spec.domain_violation()


def test_domain_predicates_are_relative_and_reject_nan():
    assert is_real(1e6 + 1e-8j) and not is_real(1 + 1e-8j)
    assert is_imag(1e-8 + 1e6j) and not is_imag(1e-8 + 1j)
    assert on_unit_circle(np.exp(0.3j)) and not on_unit_circle(1 + 1e-9)
    nan = complex(float("nan"), 0.0)
    assert not (is_real(nan) or is_imag(nan) or on_unit_circle(nan))


def test_q_is_the_only_stored_parameter():
    with pytest.raises(TypeError):
        FamilySpec(Family.EIGHT_I, q=2, phi=0)
    with pytest.raises(ValueError, match="not both"):
        FamilySpec.eight1(q=1.0, phi=0.3)
    spec = FamilySpec.eight1(phi=0.9)
    assert spec.q == np.exp(-0.9j) and spec.phi == pytest.approx(0.9)
    assert FamilySpec.bell(phi=0.9).q == spec.q


# --- eight-vertex constraint system ------------------------------------------

def weights_of(spec):
    return BoltzmannWeights.from_matrix(build_b(spec))


def test_weights_of_eight2_satisfy_system():
    w = weights_of(FamilySpec.eight2(t=1.5, q=1.0))
    res = eight_vertex_residuals(w)
    assert np.abs(res).max() < 1e-12


def test_weights_of_eight1_branch():
    w = weights_of(FamilySpec.eight1(q=1.0))
    assert (w.w1, w.w2, w.w5, w.w6) == (1, 1, 1, 1)
    assert (w.w3, w.w4, w.w7, w.w8) == (1, -1, 1, -1)
    # w3 != w4 branch: w1^2 = w3^2 = w4^2 and w3^2 + w7 w8 = 0
    assert w.w3 ** 2 + w.w7 * w.w8 == 0
    res = eight_vertex_residuals(w)
    assert np.abs(res).max() < 1e-12


def test_all_ones_weights_solve_the_system():
    # w_i = 1 sits on the w3 = w4 branch with t = z = 1 and passes every
    # constraint; the assembled matrix 1 + sx x sx genuinely satisfies the
    # braid relation (its two tensor slots commute), so the full residual
    # vector vanishes.
    w = BoltzmannWeights(1, 1, 1, 1, 1, 1, 1, 1)
    res = eight_vertex_residuals(w)
    assert np.abs(res).max() < 1e-12
    assert braid_residual(w.as_matrix()) == 0.0


def test_broken_weights_fail_the_system():
    w = BoltzmannWeights(1, 1, 2, 2, 1, 1, 1, 1)
    res = eight_vertex_residuals(w)
    assert np.abs(res).max() > 0.5


def test_vanishing_weight_rejected():
    with pytest.raises(ValueError, match="w3"):
        BoltzmannWeights(1, 1, 0, 1, 1, 1, 1, 1)
