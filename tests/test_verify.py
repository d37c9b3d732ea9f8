import operator

import numpy as np
import pytest

from yaxter.baxterize import EigOrdering, SpectralPoint, build_R, compose_u, x_form, x_to_u
from yaxter.catalog import (DomainError, Family, FamilySpec, FamilySpecs, Sign, braid_matrix,
                            braid_residual, build_b)
from yaxter.linalg import dagger, frobenius, identity, strand_gap
from yaxter.verify import (
    QYBE_PARAMETRIZATIONS,
    DegenerateNormalizationError,
    NotProportionalError,
    conjugate_partner,
    family_builder,
    family_inverse_unitarity,
    inverse_unitarity,
    matrix_norm_factor,
    qybe_residual,
    rho_formula,
    sample_domain_point,
    sample_spec,
    sample_specs,
    sample_x,
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


@pytest.mark.parametrize("compose", [operator.mul, operator.add, compose_u])
def test_qybe_residual_builds_each_matrix_once(compose):
    spec = FamilySpec.eight3(t=2.1, q=np.exp(0.33j))
    build = family_builder(spec, "u")
    calls = []

    def builder(value):
        calls.append(value)
        return build(value)

    a, b = 0.3 + 0.1j, -0.2 + 0.4j
    res = qybe_residual(builder, a, b, compose)
    assert calls == [a, compose(a, b), b]
    assert res == strand_gap(build(a), build(compose(a, b)), build(b))


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
    assert qybe_residual(builder, 0.0, 0.0, operator.add) < 1e-12
    rng = np.random.default_rng(2)
    for _ in range(50):
        t1, t2 = rng.uniform(-1.2, 1.2, 2)
        assert qybe_residual(builder, t1, t2, operator.add) < 1e-10


def test_qybe_rational_eight1():
    spec = FamilySpec.eight1(phi=0.7)
    builder = family_builder(spec, "u")
    rng = np.random.default_rng(3)
    for _ in range(50):
        u = complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7))
        v = complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7))
        if abs(1 + u * v) < 0.3:
            continue
        assert qybe_residual(builder, u, v, compose_u) < 1e-10


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
        # one batched call per scan: turn sample 4 of its residual stack into NaN
        calls.append(None)
        out = real(*args)
        residuals = np.array(out[1] if kernel == "unitarity_residual" else out)
        assert residuals.shape == (10,)
        residuals[3] = float("nan")
        return (out[0], residuals) if kernel == "unitarity_residual" else residuals

    monkeypatch.setattr(verify, kernel, poisoned)
    report = SCANS[what](10)
    assert len(calls) == 1
    assert np.isnan(report.residual)
    assert not report.passed


# --- batched scans against the per-sample loop --------------------------------------

def _scale3(*mats):
    return max(frobenius(m) for m in mats) ** 3


QYBE_PAIRS = [(family, kind, None) for family, kinds in QYBE_PARAMETRIZATIONS.items()
              for kind in kinds] + [(Family.EIGHT_III, "x", EigOrdering.SECOND)]


@pytest.mark.parametrize("family,kind,ordering", QYBE_PAIRS,
                         ids=lambda v: getattr(v, "value", v))
def test_batched_qybe_residuals_match_the_per_sample_loop(family, kind, ordering):
    from yaxter.suite import representative_spec
    from yaxter.verify import _QYBE_LAWS

    spec = representative_spec(family)
    draw, compose = _QYBE_LAWS[kind]
    rng = np.random.default_rng(41)
    pairs = np.array([draw(spec, rng) for _ in range(50)], dtype=complex)
    builder = family_builder(spec, kind, ordering=ordering)
    batched = qybe_residual(builder, pairs[:, 0], pairs[:, 1], compose)
    assert batched.shape == (50,)
    for (a, b), got in zip(pairs, batched):
        mats = (builder(a), builder(compose(a, b)), builder(b))
        assert abs(got - strand_gap(*mats)) <= 1e-14 * _scale3(*mats)
    report = scan_qybe(spec, kind=kind, samples=50, seed=41, ordering=ordering)
    assert report.residual == batched.max() and report.passed


@pytest.mark.parametrize("family", list(Family))
def test_batched_braid_scan_matches_the_per_sample_loop(family):
    specs = sample_specs(family, np.random.default_rng(43), 40)
    loop = [(braid_residual(b), _scale3(b)) for b in (build_b(specs[k]) for k in range(40))]
    worst_loop, scale = max(loop)
    assert abs(scan_braid(family, samples=40, seed=43).residual - worst_loop) <= 1e-14 * scale


def _unitarity_scan_against_the_loop(family, imaginary_t=False):
    rng = np.random.default_rng(47)
    specs = sample_specs(family, rng, 40, imaginary_t)
    xs = sample_x(family, rng, 40, imaginary_t)
    loop = [unitarity_gap(specs[k], X(xs[k]))[0] for k in range(40)]
    report = scan_unitarity(family, samples=40, seed=47, imaginary_t=imaginary_t)
    assert abs(report.residual - max(loop)) <= 1e-14


@pytest.mark.parametrize("family", R_FAMILIES)
def test_batched_unitarity_scan_matches_the_per_sample_loop(family):
    _unitarity_scan_against_the_loop(family)


def test_batched_imaginary_t_unitarity_scan_matches_the_per_sample_loop():
    _unitarity_scan_against_the_loop(Family.EIGHT_IV, imaginary_t=True)


def _sample_spec_one_at_a_time(family, rng):
    """The scalar sampler that ``sample_specs`` replaced: one draw per call."""
    sign = Sign.PLUS if rng.integers(2) == 0 else Sign.MINUS
    if family in (Family.SIX_NONSTD, Family.SIX_STD):
        gamma = float(rng.uniform(0.2, 1.5)) * (1 if rng.integers(2) == 0 else -1)
        return FamilySpec(family, q=float(np.exp(gamma)))
    if family in (Family.EIGHT_I, Family.BELL_PHI):
        phi = float(rng.uniform(0.0, 2 * np.pi))
        return FamilySpec(family, q=complex(np.exp(-1j * phi)), sign=sign)
    t = float(rng.uniform(1.2, 2.8)) * (1 if rng.integers(2) == 0 else -1)
    phi = float(rng.uniform(0.0, 2 * np.pi))
    return FamilySpec(family, q=complex(np.exp(-1j * phi)), t=t, sign=sign)


def _domain_point_one_at_a_time(spec, rng):
    fam = spec.family
    if fam in (Family.SIX_NONSTD, Family.SIX_STD):
        return X(complex(np.exp(2j * float(rng.uniform(0.1, np.pi - 0.1)))))
    if fam is Family.EIGHT_I or (fam is Family.EIGHT_IV and spec.t.imag != 0):
        return X(float(rng.uniform(-2.5, 2.5)))
    return X(complex(np.exp(1j * float(rng.uniform(0.05, 2 * np.pi - 0.05)))))


def _bits(spec):
    return [(type(v), np.float64(v.real).tobytes(), np.float64(v.imag).tobytes())
            for v in (spec.q, spec.t)] + [spec.family, spec.sign]


@pytest.mark.parametrize("family", list(Family))
def test_sampler_at_one_draw_is_bitwise_the_scalar_sampler(family):
    for seed in range(150):
        new, old = np.random.default_rng(seed), np.random.default_rng(seed)
        spec, want = sample_spec(family, new), _sample_spec_one_at_a_time(family, old)
        assert _bits(spec) == _bits(want)
        assert new.bit_generator.state == old.bit_generator.state
        batched = np.random.default_rng(seed)
        assert _bits(sample_specs(family, batched, 1)[0]) == _bits(want)
        assert batched.bit_generator.state == old.bit_generator.state
        if family is not Family.BELL_PHI:
            p, p_want = sample_domain_point(spec, new), _domain_point_one_at_a_time(want, old)
            assert np.float64(p.value.real).tobytes() == np.float64(p_want.value.real).tobytes()
            assert np.float64(p.value.imag).tobytes() == np.float64(p_want.value.imag).tobytes()
            assert new.bit_generator.state == old.bit_generator.state


@pytest.mark.parametrize("family", list(Family))
def test_sampled_specs_are_in_the_domain_and_index_as_specs(family):
    specs = sample_specs(family, np.random.default_rng(5), 25)
    assert len(specs) == 25
    assert all(specs[k].domain_violation() is None for k in range(25))
    b = braid_matrix(family, specs.q, specs.t, specs.s)
    for k in (0, 13, 24):
        assert np.allclose(b[k], build_b(specs[k]), rtol=0, atol=1e-15 * np.abs(b[k]).max())


@pytest.mark.parametrize("kind", ["x", "theta", "u"])
def test_qybe_pair_draws_continue_the_one_pair_stream(kind):
    from yaxter.verify import _QYBE_LAWS

    spec = FamilySpec.eight2(t=1.7, q=np.exp(-0.4j))
    draw, _ = _QYBE_LAWS[kind]
    rng = np.random.default_rng(9)
    one_by_one = np.array([draw(spec, rng) for _ in range(60)])
    batched = draw(spec, np.random.default_rng(9), 60)
    assert batched.shape == (60, 2) and np.array_equal(batched, one_by_one)
    assert draw(spec, rng, -2).shape == (0, 2)


# --- forced bad samples -------------------------------------------------------------

def _forcing(monkeypatch, name, change):
    """Replace verify's sampler ``name`` by one whose output sample 4 ``change`` edits."""
    import yaxter.verify as verify

    real = getattr(verify, name)

    def forced(*args):
        return change(real(*args))

    monkeypatch.setattr(verify, name, forced)


def _with_q4(specs, q4):
    q = specs.q.astype(complex)
    q[4] = q4
    return FamilySpecs(specs.family, q, specs.t, specs.s)


def test_scan_with_a_forced_off_domain_spec_is_a_domain_error(monkeypatch):
    _forcing(monkeypatch, "sample_specs", lambda specs: _with_q4(specs, 2.0))
    with pytest.raises(DomainError, match=r"eight4 unitarity needs \|q\| = 1, got \|q\| = 2"):
        scan_unitarity(Family.EIGHT_IV, samples=10, seed=3)


@pytest.mark.parametrize("x4,match", [(1.5, r"\|x\| = 1, got \|x\| = 1\.5"),
                                      (np.nan, r"\|x\| = 1, got \|x\| = nan")])
def test_scan_with_a_forced_off_domain_or_nan_x_is_a_domain_error(monkeypatch, x4, match):
    def change(x):
        x = x.copy()
        x[4] = x4
        return x

    _forcing(monkeypatch, "sample_x", change)
    with pytest.raises(DomainError, match=match):
        scan_unitarity(Family.EIGHT_II, samples=10, seed=3)


@pytest.mark.parametrize("scan", [
    lambda: scan_braid(Family.EIGHT_III, samples=10, seed=3),
    lambda: scan_unitarity(Family.EIGHT_III, samples=10, seed=3),
])
def test_scan_with_a_forced_nan_spec_is_a_value_error(monkeypatch, scan):
    _forcing(monkeypatch, "sample_specs", lambda specs: _with_q4(specs, complex(np.nan, 0)))
    with pytest.raises(ValueError, match=r"q must be finite, got \(nan\+0j\)"):
        scan()


def test_kernels_reject_a_non_finite_sample():
    specs = sample_specs(Family.EIGHT_III, np.random.default_rng(3), 10)
    t = specs.t.copy()
    t[4] = np.inf
    with pytest.raises(ValueError, match="t must be finite, got inf"):
        braid_matrix(Family.EIGHT_III, specs.q, t, specs.s)


def test_stacked_kernels_name_a_non_finite_sample_before_computing():
    # numpy warns on 1 / nan, and the warning config turns that into an error: the
    # kernels must reject the sample before any arithmetic on it
    q = np.array([1.0, np.exp(0.3j), complex(np.nan, 0.0)])
    with pytest.raises(ValueError, match=r"q must be finite, got \(nan\+0j\)"):
        braid_matrix(Family.SIX_NONSTD, q, 2.0, 1)
    with pytest.raises(ValueError, match=r"q must be finite, got \(nan\+0j\)"):
        x_form(Family.EIGHT_II, q, 1.5, 1, 0.5)
    with pytest.raises(ValueError, match="x must be finite, got inf"):
        x_form(Family.EIGHT_I, np.ones(3, dtype=complex), 2.0, 1, np.array([0.5, np.inf, np.nan]))


def test_stacked_unitarity_residual_agrees_with_per_item_calls():
    rng = np.random.default_rng(53)
    specs = [sample_spec(Family.EIGHT_II, rng) for _ in range(6)]
    r = np.array([build_R(s, sample_domain_point(s, rng)) for s in specs])
    rho, res = unitarity_residual(r, dagger(r))
    assert rho.shape == res.shape == (6,)
    for k in range(6):
        rho_k, res_k = unitarity_residual(r[k], dagger(r[k]))
        assert rho[k] == pytest.approx(rho_k, rel=1e-15)
        assert abs(res[k] - res_k) <= 1e-14 * rho_k


def test_stacked_unitarity_residual_rejects_a_degenerate_matrix():
    r = np.array([identity(4), np.zeros((4, 4), dtype=complex)])
    with pytest.raises(DegenerateNormalizationError):
        unitarity_residual(r, dagger(r))


# --- parametrization table and entry bound ------------------------------------------

def test_suite_reads_the_parametrization_table():
    from yaxter import suite

    assert suite.QYBE_PARAMETRIZATIONS is QYBE_PARAMETRIZATIONS


@pytest.mark.parametrize("spec,kind", [(FamilySpec.eight1(phi=0.9), "theta"),
                                       (FamilySpec.bell(phi=0.9), "x")])
def test_scan_qybe_rejects_a_pair_outside_the_table(spec, kind):
    with pytest.raises(ValueError, match="no QYBE composition law"):
        scan_qybe(spec, kind=kind, samples=3)


@pytest.mark.parametrize("value", [0.5, np.array([0.5, 0.7])])
def test_entries_beyond_the_product_bound_are_a_domain_error(value):
    builder = family_builder(FamilySpec.eight3(t=1e60, q=1.0), "x")
    with pytest.raises(DomainError, match=r"t = 1e\+60, x = 0\.5: an R-matrix entry"):
        builder(value)


def test_entries_below_the_product_bound_give_finite_residuals():
    spec = FamilySpec.eight3(t=1e50, q=1.0)
    with np.errstate(all="raise"):  # 200 samples span several blocks of the kernel
        report = scan_qybe(spec, samples=200, seed=3)
    assert np.isfinite(report.residual)


@pytest.mark.parametrize("check", [
    lambda: scan_qybe(FamilySpec.eight3(t=1e200, q=1.0), samples=3),
    lambda: family_inverse_unitarity(FamilySpec.eight3(t=1e200, q=1.0), 0.7),
    lambda: family_inverse_unitarity(FamilySpec.eight3(t=2.0, q=1.0), 1e-200),
])
def test_overflowing_checks_raise_before_any_product(check):
    with np.errstate(all="raise"):
        with pytest.raises(DomainError, match="residual products stay finite"):
            check()
