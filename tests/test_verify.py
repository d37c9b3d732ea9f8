import numpy as np
import pytest

from yaxter.baxterize import EigOrdering, SpectralPoint, build_R, x_to_u
from yaxter.catalog import DomainError, Family, FamilySpec, Sign, build_b
from yaxter.linalg import dagger, frobenius, identity
from yaxter.verify import (
    DegenerateNormalizationError,
    NotProportionalError,
    conjugate_partner,
    family_builder,
    family_inverse_unitarity,
    inverse_unitarity,
    matrix_norm_factor,
    qybe_residual,
    qybe_residual_additive,
    qybe_residual_rational,
    rho_formula,
    sample_domain_point,
    sample_spec,
    scan_braid,
    scan_qybe,
    scan_unitarity,
    unitarity_gap,
    unitarity_residual,
)

X = SpectralPoint.from_x
TH = SpectralPoint.from_theta

R_FAMILIES = [Family.SIX_NONSTD, Family.SIX_STD, Family.EIGHT_I,
              Family.EIGHT_II, Family.EIGHT_III, Family.EIGHT_IV]


# --- QYBE ----------------------------------------------------------------------

def test_qybe_identity_builder_is_exact():
    builder = lambda x: identity(4)
    assert qybe_residual(builder, 0.3 + 0.1j, 2.0) == 0.0


def test_qybe_six_nonstd_unit_circle():
    spec = FamilySpec.six_nonstd(q=np.exp(0.3))
    builder = family_builder(spec, "x")
    rng = np.random.default_rng(0)
    for _ in range(50):
        x, y = np.exp(1j * rng.uniform(0, 2 * np.pi, 2))
        assert qybe_residual(builder, x, y) < 1e-10


def test_qybe_eight1_real_x():
    spec = FamilySpec.eight1(q=1j)
    builder = family_builder(spec, "x")
    rng = np.random.default_rng(1)
    for _ in range(50):
        x, y = rng.uniform(0.05, 2.0, 2)
        assert qybe_residual(builder, x, y) < 1e-10


def test_qybe_additive_six_nonstd():
    spec = FamilySpec.six_nonstd(gamma=0.3)
    builder = family_builder(spec, "theta")
    assert qybe_residual_additive(builder, 0.0, 0.0) < 1e-12
    rng = np.random.default_rng(2)
    for _ in range(50):
        t1, t2 = rng.uniform(-1.2, 1.2, 2)
        assert qybe_residual_additive(builder, t1, t2) < 1e-10


def test_qybe_rational_eight1():
    spec = FamilySpec.eight1(phi=0.7)
    builder = family_builder(spec, "u")
    rng = np.random.default_rng(3)
    for _ in range(50):
        u = complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7))
        v = complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7))
        if abs(1 + u * v) < 0.3:
            continue
        assert qybe_residual_rational(builder, u, v) < 1e-10


@pytest.mark.parametrize("ordering", [EigOrdering.FIRST, EigOrdering.SECOND])
def test_qybe_three_eigenvalue_orderings(ordering):
    spec = FamilySpec.eight3(t=2.1, q=np.exp(0.33j))
    builder = family_builder(spec, "x", ordering=ordering)
    rng = np.random.default_rng(5)
    for _ in range(20):
        x, y = np.exp(1j * rng.uniform(0, 2 * np.pi, 2))
        assert qybe_residual(builder, x, y) < 1e-9


# --- unitarity ------------------------------------------------------------------

def test_unitarity_bell_phi_is_exact():
    b = build_b(FamilySpec.bell(phi=0.4, sign=Sign.MINUS))
    rho, res = unitarity_residual(b, dagger(b))
    assert abs(rho - 1.0) < 1e-14
    assert res < 1e-12


def test_unitarity_six_nonstd_rho_value():
    g, th = 0.4, 0.6
    spec = FamilySpec.six_nonstd(gamma=g)
    p = X(np.exp(2j * th))
    r = build_R(spec, p)
    rho, res = unitarity_residual(r, conjugate_partner(spec, p))
    assert res < 1e-12
    # the emitted matrix carries an overall 2 e^{i theta}, hence the factor 4
    assert abs(rho - 4 * (np.sinh(g) ** 2 + np.sin(th) ** 2)) < 1e-12
    assert abs(rho - matrix_norm_factor(spec, p)) < 1e-12


def test_unitarity_eight2_matches_formula():
    spec = FamilySpec.eight2(t=1.9, q=np.exp(0.33j), sign=Sign.MINUS)
    p = X(np.exp(0.71j))
    r = build_R(spec, p)
    rho, res = unitarity_residual(r, conjugate_partner(spec, p))
    assert res < 1e-11
    assert abs(rho - rho_formula(spec, p)) < 1e-11


def test_unitarity_degenerate_rho_rejected():
    z = np.zeros((4, 4), dtype=complex)
    with pytest.raises(DegenerateNormalizationError):
        unitarity_residual(z, z)


@pytest.mark.parametrize("family", R_FAMILIES)
def test_conjugate_partner_equals_adjoint(family):
    rng = np.random.default_rng(7)
    for _ in range(5):
        spec = sample_spec(family, rng)
        p = sample_domain_point(spec, rng)
        assert frobenius(conjugate_partner(spec, p) - dagger(build_R(spec, p))) < 1e-12


@pytest.mark.parametrize("family", R_FAMILIES)
def test_unitarity_gap_holds_in_every_view(family):
    rng = np.random.default_rng(11)
    for _ in range(5):
        spec = sample_spec(family, rng)
        x = complex(sample_domain_point(spec, rng).value)
        if family is Family.EIGHT_I:
            theta = np.arctan(x.real)
        else:
            theta = np.angle(x) / (2 if family in (Family.SIX_NONSTD, Family.SIX_STD) else 1)
        for p in (X(x), TH(theta), SpectralPoint.from_u(x_to_u(x))):
            gap, rho = unitarity_gap(spec, p)
            assert gap < 1e-12
            assert abs(rho - matrix_norm_factor(spec, p)) < 1e-12 * rho


def test_conjugate_partner_eight1_theta_form():
    spec = FamilySpec.eight1(phi=0.9)
    p = TH(0.4)
    assert frobenius(conjugate_partner(spec, p) - dagger(build_R(spec, p))) < 1e-13


# --- rho closed forms ------------------------------------------------------------

def test_rho_values_from_formulas():
    assert rho_formula(FamilySpec.six_nonstd(gamma=0.0), TH(np.pi / 2)) == pytest.approx(1.0)
    assert rho_formula(FamilySpec.eight2(t=1.0, q=1.0), TH(0.9)) == pytest.approx(4.0)
    spec = FamilySpec.eight4(t=2.0, q=1.0)
    assert rho_formula(spec, X(1j)) == pytest.approx(10.0)


def test_rho_domain_errors_name_the_constraint():
    with pytest.raises(DomainError, match=r"\|x\| = 1"):
        rho_formula(FamilySpec.six_nonstd(gamma=0.3), X(2.0))
    with pytest.raises(DomainError, match="real x"):
        rho_formula(FamilySpec.eight1(phi=0.3), X(np.exp(0.4j)))
    with pytest.raises(DomainError, match="real t"):
        rho_formula(FamilySpec.eight2(t=1 + 0.5j, q=1.0), TH(0.4))


def test_matrix_norm_factor_eight4_gauge():
    spec = FamilySpec.eight4(t=1.7, q=np.exp(0.4j))
    p = X(np.exp(0.8j))
    r = build_R(spec, p)
    rho, res = unitarity_residual(r, conjugate_partner(spec, p))
    assert res / rho < 1e-12
    assert abs(rho - matrix_norm_factor(spec, p)) < 1e-9
    # the g view carries the bare |g2|^2
    rg = build_R(spec, p, form="g")
    rho_g, res_g = unitarity_residual(rg, conjugate_partner(spec, p, form="g"))
    assert res_g / rho_g < 1e-12
    assert abs(rho_g - rho_formula(spec, p)) < 1e-12


def test_unitarity_on_imaginary_t_branch():
    spec = FamilySpec.eight4(t=0.7j, q=np.exp(0.2j))
    p = X(1.3)
    r = build_R(spec, p)
    rho, res = unitarity_residual(r, conjugate_partner(spec, p))
    assert res / rho < 1e-12
    g2sq = (1 - 1.3) ** 2 + 0.49 * (1 + 1.3) ** 2
    assert abs(rho_formula(spec, p) - g2sq) < 1e-12


def test_eight4_rho_branches_agree_on_the_domain_overlap():
    # real t + real x is unitary only at x = +-1, and there the two branch
    # formulas |g2|^2 coincide: 4t^2 at x = 1 and 4 at x = -1
    t = 1.7
    for x, want in ((1.0, 4 * t * t), (-1.0, 4.0)):
        real_branch = 2 * (1 + t * t) - (1 - t * t) * 2 * x
        imag_branch = (1 - x) ** 2 + t * t * (1 + x) ** 2
        assert real_branch == pytest.approx(want)
        assert imag_branch == pytest.approx(want)


def test_unitarity_fails_for_nonreal_q_six_vertex():
    spec = FamilySpec(Family.SIX_NONSTD, q=1.1 + 0.4j)
    p = X(np.exp(0.9j))
    r = build_R(spec, p)
    _, res = unitarity_residual(r, dagger(r))
    assert res > 1e-3


# --- inverse unitarity ------------------------------------------------------------

def test_inverse_unitarity_eight1_at_one():
    spec = FamilySpec.eight1(phi=0.8)
    measured = inverse_unitarity(family_builder(spec, "x"), 1.0)
    assert abs(measured - 4.0) < 1e-13


def test_inverse_unitarity_six_vertex_value():
    spec = FamilySpec.six_nonstd(q=np.exp(0.3))
    x = np.exp(0.5j)
    measured = inverse_unitarity(family_builder(spec, "x"), x)
    assert abs(measured - (2 * np.cosh(0.6) - 2 * np.cos(0.5))) < 1e-13


def test_inverse_unitarity_eight3_t_one():
    spec = FamilySpec.eight3(t=1.0, q=np.exp(0.4j))
    for x in (0.3 + 0.2j, 2.0, np.exp(1.1j)):
        assert abs(inverse_unitarity(family_builder(spec, "x"), x) - 4.0) < 1e-12


@pytest.mark.parametrize("family", R_FAMILIES)
def test_inverse_unitarity_matches_expected(family):
    rng = np.random.default_rng(19)
    spec = sample_spec(family, rng)
    for _ in range(5):
        x = complex(rng.uniform(0.3, 1.8), rng.uniform(-0.5, 0.5))
        measured, expected = family_inverse_unitarity(spec, x)
        assert abs(measured - expected) < 1e-10 * max(1.0, abs(expected))


def test_inverse_unitarity_rejects_non_proportional():
    with pytest.raises(NotProportionalError):
        inverse_unitarity(lambda x: np.diag([1, 2, 3, 4]).astype(complex), 0.5)


def test_compatibility_split():
    # scalar of R(x) R(1/x) equals rho on the circle for eight2/3/4 (real t) ...
    for family in (Family.EIGHT_II, Family.EIGHT_III, Family.EIGHT_IV):
        spec = sample_spec(family, np.random.default_rng(23))
        p = X(np.exp(0.9j))
        measured, _ = family_inverse_unitarity(spec, p.value)
        assert abs(measured - rho_formula(spec, p)) < 1e-10
    # ... but differs for eight1 away from x = 1
    spec = FamilySpec.eight1(phi=0.8)
    measured, expected = family_inverse_unitarity(spec, 2.0)
    assert abs(measured - expected) < 1e-12
    assert abs(measured - rho_formula(spec, X(2.0))) > 1.0


# --- scans -----------------------------------------------------------------------

@pytest.mark.parametrize("family", list(Family))
def test_scan_braid_passes(family):
    report = scan_braid(family, samples=30, seed=11)
    assert report.passed and report.worst_case is not None


def test_scan_qybe_passes():
    spec = FamilySpec.eight2(t=1.7, q=np.exp(-0.4j), sign=Sign.MINUS)
    for kind in ("x", "theta", "u"):
        report = scan_qybe(spec, kind=kind, samples=20, seed=12)
        assert report.passed, kind


@pytest.mark.parametrize("family", R_FAMILIES)
def test_scan_unitarity_passes(family):
    report = scan_unitarity(family, samples=30, seed=13)
    assert report.passed


def test_scan_unitarity_imaginary_branch():
    report = scan_unitarity(Family.EIGHT_IV, samples=30, seed=14, imaginary_t=True)
    assert report.passed


# --- fail-closed scans --------------------------------------------------------------

SCANS = {
    "braid": lambda samples: scan_braid(Family.EIGHT_II, samples=samples, seed=3),
    "qybe": lambda samples: scan_qybe(FamilySpec.eight3(t=2.1, q=np.exp(0.33j)),
                                      samples=samples, seed=3),
    "unitarity": lambda samples: scan_unitarity(Family.EIGHT_IV, samples=samples, seed=3),
}


@pytest.mark.parametrize("what", SCANS)
@pytest.mark.parametrize("samples", [0, -2])
def test_scan_without_samples_is_rejected(what, samples):
    with pytest.raises(ValueError, match="at least one sample"):
        SCANS[what](samples)


@pytest.mark.parametrize("what,kernel", [("braid", "braid_residual"),
                                         ("qybe", "qybe_residual"),
                                         ("unitarity", "unitarity_residual")])
def test_scan_with_a_nan_sample_fails(what, kernel, monkeypatch):
    import yaxter.verify as verify

    real = getattr(verify, kernel)
    calls = []

    def poisoned(*args):
        calls.append(None)
        out = real(*args)
        if len(calls) != 4:
            return out
        return (out[0], float("nan")) if kernel == "unitarity_residual" else float("nan")

    monkeypatch.setattr(verify, kernel, poisoned)
    report = SCANS[what](10)
    assert len(calls) == 10
    assert np.isnan(report.residual)
    assert not report.passed
