import operator
import re

import numpy as np
import pytest

from yaxter.baxterize import EigOrdering, R_rows, SpectralPoint, build_R, compose_u, x_to_u
from yaxter.catalog import (DomainError, Family, FamilySpec, FamilySpecs, Sign, braid_matrix,
                            braid_residual, build_b)
from yaxter.linalg import WeightRows, dagger, frobenius, identity, strand_gap
from yaxter.verify import (
    QYBE_PARAMETRIZATIONS,
    DegenerateNormalizationError,
    NotProportionalError,
    conjugate_partner,
    family_inverse_unitarity,
    inverse_unitarity,
    matrix_norm_factor,
    qybe_job,
    rho_formula,
    sample_spec,
    sample_specs,
    sample_x,
    scan_braid,
    scan_qybe,
    scan_unitarity,
    unitarity_gap,
    unitarity_residual,
    worst,
    _bounded_rows,
    _QYBE_LAWS,
)

X = SpectralPoint.from_x
TH = SpectralPoint.from_theta


def dense_builder(spec, kind="x", ordering=None, form="canonical"):
    """R at a ``kind`` value, or the stack at an array of them: ``R_rows``' dense edge."""
    return lambda value: R_rows(spec, kind, value, ordering=ordering, form=form).dense()

R_FAMILIES = [Family.SIX_NONSTD, Family.SIX_STD, Family.EIGHT_I,
              Family.EIGHT_II, Family.EIGHT_III, Family.EIGHT_IV]


# --- QYBE ----------------------------------------------------------------------

def qybe_rows(spec, kind, a, b, ordering=None):
    """R(a), R(a o b) and R(b) under the ``kind`` law as one (3, ...) stack of bounded rows:
    the rows ``qybe_job`` builds from its draw, here at given pairs."""
    values = np.broadcast_arrays(a, _QYBE_LAWS[kind][1](a, b), b)
    return _bounded_rows(spec, kind, np.stack(values), ordering)


def test_qybe_identity_is_exact():
    assert strand_gap(identity(4), identity(4), identity(4)) == 0.0


@pytest.mark.parametrize("kind,compose", [("x", operator.mul), ("theta", operator.add),
                                          ("u", compose_u)])
@pytest.mark.parametrize("samples", [1, 40])
def test_a_qybe_job_builds_one_stack_of_a_composed_and_b(kind, compose, samples):
    spec = FamilySpec.eight3(t=2.1, q=np.exp(0.33j))
    rows, case = qybe_job(spec, kind, samples, seed=67)
    pairs = np.asarray(_QYBE_LAWS[kind][0](spec, np.random.default_rng(67), samples))
    a, b = pairs[:, 0], pairs[:, 1]
    build = dense_builder(spec, kind)
    assert np.array_equal(rows.dense(), build(np.stack([a, compose(a, b), b])))
    dense = (build(a), build(compose(a, b)), build(b))
    assert np.array_equal(strand_gap(*rows), strand_gap(*map(WeightRows.of, dense)))
    assert case(samples - 1)["second"] == [b[-1].real, b[-1].imag]


def test_qybe_six_nonstd_unit_circle():
    assert scan_qybe(FamilySpec.six_nonstd(q=np.exp(0.3)), "x", samples=50, seed=0,
                     tol=1e-10).passed


def test_qybe_eight1_real_x():
    assert scan_qybe(FamilySpec.eight1(q=1j), "x", samples=50, seed=1, tol=1e-10).passed


def test_qybe_additive_six_nonstd():
    spec = FamilySpec.six_nonstd(gamma=0.3)
    assert strand_gap(*qybe_rows(spec, "theta", 0.0, 0.0)) < 1e-12
    assert scan_qybe(spec, "theta", samples=50, seed=2, tol=1e-10).passed


def test_qybe_rational_eight1():
    assert scan_qybe(FamilySpec.eight1(phi=0.7), "u", samples=50, seed=3, tol=1e-10).passed


@pytest.mark.parametrize("ordering", [EigOrdering.FIRST, EigOrdering.SECOND])
def test_qybe_three_eigenvalue_orderings(ordering):
    spec = FamilySpec.eight3(t=2.1, q=np.exp(0.33j))
    assert scan_qybe(spec, "x", samples=20, seed=5, ordering=ordering).passed


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
    assert abs(rho - rho_formula(spec, p.kind, p.value)) < 1e-11


def test_unitarity_degenerate_rho_rejected():
    z = np.zeros((4, 4), dtype=complex)
    with pytest.raises(DegenerateNormalizationError):
        unitarity_residual(z, z)


@pytest.mark.parametrize("family", R_FAMILIES)
def test_conjugate_partner_equals_adjoint(family):
    rng = np.random.default_rng(7)
    for _ in range(5):
        spec = sample_spec(family, rng)
        p = X(sample_x(spec, rng))
        assert frobenius(conjugate_partner(spec, p) - dagger(build_R(spec, p))) < 1e-12


@pytest.mark.parametrize("family", R_FAMILIES)
def test_unitarity_gap_holds_in_every_view(family):
    rng = np.random.default_rng(11)
    for _ in range(5):
        spec = sample_spec(family, rng)
        x = complex(sample_x(spec, rng))
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
    assert rho_formula(FamilySpec.six_nonstd(gamma=0.0), "theta", np.pi / 2) == pytest.approx(1.0)
    assert rho_formula(FamilySpec.eight2(t=1.0, q=1.0), "theta", 0.9) == pytest.approx(4.0)
    spec = FamilySpec.eight4(t=2.0, q=1.0)
    assert rho_formula(spec, "x", 1j) == pytest.approx(10.0)


def test_rho_domain_errors_name_the_constraint():
    with pytest.raises(DomainError, match=r"\|x\| = 1"):
        rho_formula(FamilySpec.six_nonstd(gamma=0.3), "x", 2.0)
    with pytest.raises(DomainError, match="real x"):
        rho_formula(FamilySpec.eight1(phi=0.3), "x", np.exp(0.4j))
    with pytest.raises(DomainError, match="real t"):
        rho_formula(FamilySpec.eight2(t=1 + 0.5j, q=1.0), "theta", 0.4)


def test_matrix_norm_factor_eight4_gauge():
    spec = FamilySpec.eight4(t=1.7, q=np.exp(0.4j))
    p = X(np.exp(0.8j))
    r = build_R(spec, p)
    rho, res = unitarity_residual(r, conjugate_partner(spec, p))
    assert res / rho < 1e-12
    assert abs(rho - matrix_norm_factor(spec, p)) < 1e-9
    # the g view carries the bare |g2|^2
    rg = build_R(spec, p, form="g")
    rho_g, res_g = unitarity_residual(rg, dagger(rg))
    assert res_g / rho_g < 1e-12
    assert abs(rho_g - rho_formula(spec, p.kind, p.value)) < 1e-12


def test_unitarity_on_imaginary_t_branch():
    spec = FamilySpec.eight4(t=0.7j, q=np.exp(0.2j))
    p = X(1.3)
    r = build_R(spec, p)
    rho, res = unitarity_residual(r, conjugate_partner(spec, p))
    assert res / rho < 1e-12
    g2sq = (1 - 1.3) ** 2 + 0.49 * (1 + 1.3) ** 2
    assert abs(rho_formula(spec, p.kind, p.value) - g2sq) < 1e-12


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

def dense_pair(spec, x, form="canonical"):
    """R(x) and R(1/x) on ``R_rows``' dense edge: the operands of ``inverse_unitarity``."""
    build, x = dense_builder(spec, "x", form=form), np.asarray(x)
    return build(x), build(1 / x)


def test_inverse_unitarity_eight1_at_one():
    spec = FamilySpec.eight1(phi=0.8)
    measured = inverse_unitarity(*dense_pair(spec, 1.0))
    assert abs(measured - 4.0) < 1e-13


def test_inverse_unitarity_six_vertex_value():
    spec = FamilySpec.six_nonstd(q=np.exp(0.3))
    x = np.exp(0.5j)
    measured = inverse_unitarity(*dense_pair(spec, x))
    assert abs(measured - (2 * np.cosh(0.6) - 2 * np.cos(0.5))) < 1e-13


def test_inverse_unitarity_eight3_t_one():
    spec = FamilySpec.eight3(t=1.0, q=np.exp(0.4j))
    for x in (0.3 + 0.2j, 2.0, np.exp(1.1j)):
        assert abs(inverse_unitarity(*dense_pair(spec, x)) - 4.0) < 1e-12


@pytest.mark.parametrize("family", R_FAMILIES)
def test_inverse_unitarity_matches_expected(family):
    rng = np.random.default_rng(19)
    spec = sample_spec(family, rng)
    for _ in range(5):
        x = complex(rng.uniform(0.3, 1.8), rng.uniform(-0.5, 0.5))
        measured, expected = family_inverse_unitarity(spec, x)
        assert abs(measured - expected) < 1e-10 * max(1.0, abs(expected))


def test_inverse_unitarity_rejects_non_proportional():
    # diag(1, 4, 9, 16) less 7.5 * 1 has norm sqrt(129)
    with pytest.raises(NotProportionalError,
                       match=r"^R\(x\) R\(1/x\) is not proportional to 1: gap 1\.136e\+01$"):
        inverse_unitarity(np.diag([1, 2, 3, 4]).astype(complex), np.diag([1, 2, 3, 4]))


@pytest.mark.parametrize("family", R_FAMILIES)
def test_a_dense_inverse_unitarity_pair_is_its_stack_of_one(family):
    # one body: a dense pair gives, bitwise, the scalar of the same pair as WeightRows of one
    rng = np.random.default_rng(113)
    spec = sample_spec(family, rng)
    form = "g" if family is Family.EIGHT_IV else "canonical"
    for x in (0.7, complex(rng.uniform(0.3, 1.8), rng.uniform(-0.5, 0.5))):
        r, rinv = dense_pair(spec, x, form)
        got = inverse_unitarity(r, rinv)
        stack = inverse_unitarity(WeightRows.of(r[None]), WeightRows.of(rinv[None]))
        assert got.shape == () and stack.shape == (1,) and got == stack[0]


def test_compatibility_split():
    # scalar of R(x) R(1/x) equals rho on the circle for eight2/3/4 (real t) ...
    for family in (Family.EIGHT_II, Family.EIGHT_III, Family.EIGHT_IV):
        spec = sample_spec(family, np.random.default_rng(23))
        p = X(np.exp(0.9j))
        measured, _ = family_inverse_unitarity(spec, p.value)
        assert abs(measured - rho_formula(spec, p.kind, p.value)) < 1e-10
    # ... but differs for eight1 away from x = 1
    spec = FamilySpec.eight1(phi=0.8)
    measured, expected = family_inverse_unitarity(spec, 2.0)
    assert abs(measured - expected) < 1e-12
    assert abs(measured - rho_formula(spec, "x", 2.0)) > 1.0


@pytest.mark.parametrize("family", R_FAMILIES)
def test_stacked_inverse_unitarity_agrees_with_the_single_point_call(family):
    rng = np.random.default_rng(103)
    spec = sample_spec(family, rng)
    xs = sample_x(spec, rng, 30)
    measured, expected = family_inverse_unitarity(spec, xs)
    assert measured.shape == expected.shape == (30,)
    for x, got, want in zip(xs, measured, expected):
        one = family_inverse_unitarity(spec, x)
        assert abs(got - one[0]) <= 1e-14 * max(1.0, abs(one[0]))
        assert want == one[1]


def test_empty_inverse_unitarity_stack_is_a_usage_error():
    measured, _ = family_inverse_unitarity(FamilySpec.eight3(t=2.0, q=1.0), np.empty(0, complex))
    assert measured.shape == (0,)
    with pytest.raises(ValueError, match="at least one sample"):
        worst(abs(measured))


@pytest.mark.parametrize("bad,error", [(np.nan, DomainError), (0.0, DomainError)])
def test_a_bad_x_in_an_inverse_unitarity_stack_raises(bad, error):
    xs = np.exp(1j * np.linspace(0.3, 2.0, 5))
    xs[3] = bad
    with pytest.raises(error):
        family_inverse_unitarity(FamilySpec.eight3(t=2.0, q=1.0), xs)


def test_a_stack_with_one_product_not_proportional_to_1_is_rejected():
    r = np.broadcast_to(identity(4), (3, 4, 4)).copy()
    r[1] = np.diag([1, 2, 3, 4])
    r = WeightRows.of(r)
    with pytest.raises(NotProportionalError):
        inverse_unitarity(r, r)


@pytest.mark.parametrize("sequence", [list, tuple])
def test_inverse_unitarity_takes_a_list_or_tuple_of_x(sequence):
    spec = FamilySpec.eight3(t=2.0, q=np.exp(0.4j))
    xs = np.exp(1j * np.linspace(0.3, 2.0, 5))
    got = family_inverse_unitarity(spec, sequence(xs.tolist()))
    assert all(map(np.array_equal, got, family_inverse_unitarity(spec, xs)))
    with pytest.raises(DomainError, match="x != 0"):
        family_inverse_unitarity(spec, sequence([0.5, 0.0]))


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
                                         ("qybe", "strand_gap"),
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

    spec = representative_spec(family)
    draw, compose = _QYBE_LAWS[kind]
    rng = np.random.default_rng(41)
    pairs = np.array([draw(spec, rng) for _ in range(50)], dtype=complex)
    builder = dense_builder(spec, kind, ordering=ordering)
    batched = strand_gap(*qybe_job(spec, kind, 50, 41, ordering)[0])
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
    xs = sample_x(specs, rng, 40)
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
            p, p_want = X(sample_x(spec, new)), _domain_point_one_at_a_time(want, old)
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
        FamilySpecs(Family.EIGHT_II, q, np.full(3, 1.5), np.ones(3, dtype=int))
    # the stacked evaluator takes q and t from a spec, which has checked them, and its values
    spec = FamilySpec.eight1(phi=0.3)
    with pytest.raises(ValueError, match="x must be finite, got inf"):
        R_rows(spec, "x", np.array([0.5, np.inf, np.nan]))
    with pytest.raises(ValueError, match="theta must be finite, got nan"):
        R_rows(spec, "theta", np.array([0.5, np.nan]))


def test_stacked_unitarity_residual_agrees_with_per_item_calls():
    rng = np.random.default_rng(53)
    specs = [sample_spec(Family.EIGHT_II, rng) for _ in range(6)]
    r = np.array([build_R(s, X(sample_x(s, rng))) for s in specs])
    rows = WeightRows.of(r)
    rho, res = unitarity_residual(rows, dagger(rows))
    assert rho.shape == res.shape == (6,)
    for k in range(6):
        rho_k, res_k = unitarity_residual(r[k], dagger(r[k]))
        assert rho[k] == pytest.approx(rho_k, rel=1e-15)
        assert abs(res[k] - res_k) <= 1e-14 * rho_k


def test_one_matrix_decides_a_degenerate_rho_as_a_stack_of_one_does():
    # a negative rho fails both; a NaN rho is no verdict of the guard: a NaN residual
    r, nan = identity(4), identity(4)
    nan[0, 0] = np.nan
    for a, b in ((r, -r), (WeightRows.of(r[None]), WeightRows.of(-r[None]))):
        with pytest.raises(DegenerateNormalizationError,
                           match=r"^estimated rho = -1\.000e\+00 is not positive$"):
            unitarity_residual(a, b)
    for a in (nan, WeightRows.of(nan[None])):
        assert np.isnan(unitarity_residual(a, dagger(a))).all()


def test_stacked_unitarity_residual_rejects_a_degenerate_matrix():
    r = WeightRows.of([identity(4), np.zeros((4, 4), dtype=complex)])
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
    with pytest.raises(DomainError, match=r"t = 1e\+60, x = 0\.5: an R-matrix entry"):
        _bounded_rows(FamilySpec.eight3(t=1e60, q=1.0), "x", value)


def test_entries_below_the_product_bound_give_finite_residuals():
    spec = FamilySpec.eight3(t=1e50, q=1.0)
    with np.errstate(all="raise"):  # 200 samples span several blocks of the kernel
        report = scan_qybe(spec, samples=200, seed=3)
    assert np.isfinite(report.residual)


@pytest.mark.parametrize("check", [
    lambda: scan_qybe(FamilySpec.eight3(t=1e200, q=1.0), samples=3),
    lambda: family_inverse_unitarity(FamilySpec.eight3(t=1e200, q=1.0), 0.7),
    lambda: family_inverse_unitarity(FamilySpec.eight3(t=2.0, q=1.0), 1e-200),
    lambda: family_inverse_unitarity(FamilySpec.eight4(t=2.0), 1e-200),  # C x^2 overflows
    lambda: family_inverse_unitarity(FamilySpec.eight4(t=2.0), 1e200),
])
def test_overflowing_checks_raise_before_any_product(check):
    with np.errstate(all="raise"):
        with pytest.raises(DomainError, match="residual products stay finite"):
            check()


# --- the eight-vertex contract of the three-strand kernel ----------------------------

def test_batched_qybe_bound_names_the_first_value_in_a_composed_b_order():
    # sample 0 fails only at b (x = 6), sample 1 only at a o b (x = 5): a o b comes first
    with pytest.raises(DomainError, match=r"x = 5: an R-matrix entry"):
        qybe_rows(FamilySpec.eight3(t=1e50, q=1.0), "x", np.array([0.1, 2.5]), np.array([6.0, 2.0]))


#: the entries an eight-vertex matrix may have nonzero: row and column bits of equal parity
EIGHT_VERTEX = np.array([[1, 0, 0, 1], [0, 1, 1, 0], [0, 1, 1, 0], [1, 0, 0, 1]], dtype=bool)


def _off_pattern(m):
    return np.asarray(m)[..., ~EIGHT_VERTEX]


@pytest.mark.parametrize("family", list(Family))
def test_every_braid_matrix_stack_is_eight_vertex(family):
    specs = sample_specs(family, np.random.default_rng(71), 50)
    b = braid_matrix(family, specs.q, specs.t, specs.s)
    assert b.shape == (50, 4, 4) and np.count_nonzero(_off_pattern(b)) == 0


@pytest.mark.parametrize("family,kind,ordering", QYBE_PAIRS,
                         ids=lambda v: getattr(v, "value", v))
def test_every_R_stack_and_coefficient_is_eight_vertex(family, kind, ordering):
    from yaxter.baxterize import _coefficient_rows
    from yaxter.linalg import WeightRows
    from yaxter.suite import representative_spec
    from yaxter.verify import _QYBE_LAWS

    spec = representative_spec(family)
    draw, compose = _QYBE_LAWS[kind]
    rng = np.random.default_rng(73)
    pairs = np.asarray(draw(spec, rng, 50), dtype=complex)
    a, b = pairs[:, 0], pairs[:, 1]
    r = R_rows(spec, kind, np.stack([a, compose(a, b), b]), ordering=ordering).dense()
    assert r.shape == (3, 50, 4, 4) and np.count_nonzero(_off_pattern(r)) == 0
    for rows in (_coefficient_rows(spec, ordering),
                 _coefficient_rows(sample_specs(family, rng, 50), ordering)):
        assert all(np.count_nonzero(_off_pattern(WeightRows(w).dense())) == 0 for w in rows)


def test_a_sign_flipped_in_eight2s_linear_coefficient_fails_the_qybe_scan(monkeypatch):
    from yaxter import baxterize
    from yaxter.suite import representative_spec

    spec = representative_spec(Family.EIGHT_II)
    assert scan_qybe(spec, "x", samples=50, seed=5).passed
    exact = baxterize._coefficient_rows

    def flipped(spec, ordering=None):
        rows = exact(spec, ordering).copy()
        rows[1, 2] *= -1  # the -q of B at (0, 3), row 2 in the block order of _WEIGHTS
        return rows

    monkeypatch.setattr(baxterize, "_coefficient_rows", flipped)
    report = scan_qybe(spec, "x", samples=50, seed=5)
    assert not report.passed and report.residual > 0.1


# --- the eight-vertex unitarity kernel against the dense products ---------------------

EPS = np.finfo(float).eps
OFF_PATTERN_ENTRIES = [tuple(int(i) for i in rc) for rc in np.argwhere(~EIGHT_VERTEX)]


def _eight_vertex(weights):
    """The (..., 4, 4) matrices with the (..., 8) ``weights`` on the pattern, row-major."""
    weights = np.asarray(weights, dtype=complex)
    m = np.zeros((*weights.shape[:-1], 4, 4), dtype=complex)
    m[..., EIGHT_VERTEX] = weights
    return m


def unitarity_residual_reference(r, rconj):
    """The dense formula for two 4x4 matrices: rho = Re tr(r rconj) / 4 and
    ||r rconj - rho 1||_F + ||rconj r - rho 1||_F from two full products."""
    prod = r @ rconj
    rho = np.real(np.trace(prod)) / 4.0
    eye = rho * identity(4)
    return rho, float(np.linalg.norm(prod - eye)) + float(np.linalg.norm(rconj @ r - eye))


def _pairs(rng, n, draw):
    """n pairs (r, rconj) of eight-vertex matrices with a positive reference rho: the first
    half with rconj = r^dag, the rest with rconj drawn independently of r."""
    r, other = _eight_vertex(draw((2 * n, 8))), _eight_vertex(draw((2 * n, 8)))
    rconj = np.where((np.arange(2 * n) < n // 2)[:, None, None], dagger(r), other)
    keep = [k for k in range(2 * n) if unitarity_residual_reference(r[k], rconj[k])[0] > 0]
    return r[keep[:n]], rconj[keep[:n]]


@pytest.mark.parametrize("n", [300, 700, 1000])
def test_unitarity_residual_on_gaussian_integers_is_bitwise_the_dense_reference(n):
    # weights in {-3..3} + i{-3..3}: every product, rho and sum of squares is exact, so a
    # stack and its single matrices agree bitwise
    rng = np.random.default_rng(79)
    r, rconj = _pairs(rng, n, lambda s: rng.integers(-3, 4, s) + 1j * rng.integers(-3, 4, s))
    rho, res = unitarity_residual(WeightRows.of(r), WeightRows.of(rconj))
    for k in range(len(r)):
        want = unitarity_residual_reference(r[k], rconj[k])
        assert unitarity_residual(r[k], rconj[k]) == want
        assert (rho[k], res[k]) == want


def test_unitarity_residual_is_the_dense_reference_to_rounding():
    rng = np.random.default_rng(83)
    r, rconj = _pairs(rng, 300, lambda s: rng.standard_normal(s) + 1j * rng.standard_normal(s))
    rho, res = unitarity_residual(WeightRows.of(r), WeightRows.of(rconj))
    for k in range(len(r)):
        want_rho, want_res = unitarity_residual_reference(r[k], rconj[k])
        scale = frobenius(r[k]) * frobenius(rconj[k])
        one_rho, one_res = unitarity_residual(r[k], rconj[k])
        assert isinstance(one_rho, float) and isinstance(one_res, float)
        for got_rho, got_res in ((one_rho, one_res), (rho[k], res[k])):
            assert abs(got_rho - want_rho) <= 2 * EPS * scale
            assert abs(got_res - want_res) <= 8 * EPS * scale
        # a single matrix and its stack item: the same formula, both arithmetics
        assert abs(one_rho - rho[k]) <= 2 * EPS * scale
        assert abs(one_res - res[k]) <= 8 * EPS * scale


def test_unitarity_residual_on_rows_with_leading_axes_agrees_with_per_item_calls():
    # (8, 2, 3) rows give (2, 3) results; positive weights, so that rho is positive
    r = _eight_vertex(np.random.default_rng(89).uniform(0.5, 1.5, (2, 3, 8)))
    rows = WeightRows.of(r)
    rho, res = unitarity_residual(rows, dagger(rows))
    assert rho.shape == res.shape == (2, 3)
    for i in range(2):
        for j in range(3):
            want = unitarity_residual(r[i, j], dagger(r[i, j]))
            assert rho[i, j] == pytest.approx(want[0], rel=1e-14)
            assert res[i, j] == pytest.approx(want[1], rel=1e-14)


def inverse_unitarity_reference(r, rinv):
    """The dense formula for two 4x4 matrices: scalar = tr(r rinv) / 4 and the gap
    ||r rinv - scalar 1||_F of one full product."""
    prod = r @ rinv
    scalar = np.trace(prod) / 4.0
    return complex(scalar), float(np.linalg.norm(prod - scalar * identity(4)))


@pytest.mark.parametrize("n", [600, 700, 1000])
def test_inverse_unitarity_on_gaussian_integers_is_bitwise_the_dense_reference(n):
    # weights in {-2..2} + i{-2..2}: every product, scalar and sum of squares is exact, so a
    # stack and its single matrices agree bitwise
    rng = np.random.default_rng(107)
    r, rinv = (_eight_vertex(rng.integers(-2, 3, (n, 8)) + 1j * rng.integers(-2, 3, (n, 8)))
               for _ in range(2))
    scalars = inverse_unitarity(WeightRows.of(r), WeightRows.of(rinv), np.inf)
    pinned = 0
    for k in range(len(r)):
        want, gap = inverse_unitarity_reference(r[k], rinv[k])
        assert scalars[k] == want and inverse_unitarity(r[k], rinv[k], np.inf) == want
        if abs(want) <= 1 and gap > 0:  # the bound tol * max(1, |scalar|) is tol itself
            inverse_unitarity(r[k], rinv[k], tol=gap)  # so the gap is exactly the reference
            with pytest.raises(NotProportionalError):
                inverse_unitarity(r[k], rinv[k], tol=np.nextafter(gap, 0))
            pinned += 1
    assert pinned >= 20


@pytest.mark.parametrize("family", R_FAMILIES)
def test_inverse_unitarity_is_the_dense_reference_to_rounding(family):
    rng = np.random.default_rng(109)
    spec = sample_spec(family, rng)
    form = "g" if family is Family.EIGHT_IV else "canonical"
    xs = rng.uniform(0.3, 1.8, 40) + 1j * rng.uniform(-0.5, 0.5, 40)
    r, rinv = dense_pair(spec, xs, form)
    scalars = inverse_unitarity(WeightRows.of(r), WeightRows.of(rinv))
    for k, x in enumerate(xs):
        want, gap = inverse_unitarity_reference(r[k], rinv[k])
        scale = frobenius(r[k]) * frobenius(rinv[k])
        one = dense_pair(spec, x, form)
        for got in (scalars[k], inverse_unitarity(*one)):
            assert abs(got - want) <= 4 * EPS * scale
        # the kernel's gap is at most the reference gap plus rounding
        inverse_unitarity(*one, tol=(gap + 8 * EPS * scale) / max(1.0, abs(want)))


#: the kernels that read two eight-vertex matrices, and their names for the two
PAIR_KERNELS = [(unitarity_residual, "unitarity_residual", ("r", "rconj")),
                (lambda a, c: strand_gap(a, c, a), "strand_gap", ("a", "c")),
                (inverse_unitarity, "inverse_unitarity", ("R(x)", "R(1/x)"))]


@pytest.mark.parametrize("entry", OFF_PATTERN_ENTRIES)
def test_unitarity_residual_off_the_pattern_names_the_matrix_index_and_entry(entry):
    # WeightRows.of names the stack index and entry of a bad stack, and every kernel the
    # same matrix and entry of two bad matrices
    rng = np.random.default_rng(97)
    r = _eight_vertex(rng.standard_normal((9, 8)) + 1j * rng.standard_normal((9, 8)))
    rconj = dagger(r).copy()
    rconj[4][entry] = 1e-300  # any nonzero value, however small
    r[7][entry] = 1.0  # a later index: the first one is reported
    nan = rconj.copy()
    nan[4][entry] = np.nan  # a NaN off the pattern is no weight either
    at = rf"at entry \({entry[0]}, {entry[1]}\)$"
    stack = "the matrix at index 4 of the stack"
    with pytest.raises(ValueError, match=rf"^WeightRows.of takes eight-vertex matrices.*"
                                         rf": {stack} has \(1e-300\+0j\) {at}"):
        WeightRows.of(rconj)
    with pytest.raises(ValueError, match=rf": {stack} has \(nan\+0j\) {at}"):
        WeightRows.of(nan)
    for kernel, name, (first, second) in PAIR_KERNELS:
        first, second = re.escape(first), re.escape(second)
        with pytest.raises(ValueError, match=rf"^{name} takes eight-vertex matrices.*"
                                             rf": {first} has \(1\+0j\) {at}"):
            kernel(r[7], rconj[7])  # two matrices: no stack index
        with pytest.raises(ValueError, match=rf": {second} has \(nan\+0j\) {at}"):
            kernel(r[4], nan[4])


def test_a_nan_weight_gives_a_nan_residual_in_that_item_only():
    rng = np.random.default_rng(101)
    r = _eight_vertex(rng.standard_normal((5, 8)) + 1j * rng.standard_normal((5, 8)))
    rows = WeightRows.of(r)
    want_rho, want_res = unitarity_residual(rows, dagger(rows))
    r[2, 2, 1] = np.nan  # a weight, inside the pattern
    rows = WeightRows.of(r)
    rho, res = unitarity_residual(rows, dagger(rows))
    assert np.isnan(res[2]) and np.isnan(rho[2])
    assert np.array_equal(np.delete(res, 2), np.delete(want_res, 2))
    assert np.array_equal(np.delete(rho, 2), np.delete(want_rho, 2))
    assert np.isnan(unitarity_residual(r[2], dagger(r[2]))[1])


def test_the_unitarity_gap_bounds_the_defect_of_the_normalized_matrix():
    # ||U U^dag - 1|| = ||R R^dag - rho_est 1|| / rho_est, a part of the gap, on matrices
    # far from unitary and with a rho_ref that is off
    from yaxter.verify import _unitarity_gaps

    rng = np.random.default_rng(103)
    r = _eight_vertex(rng.standard_normal((200, 8)) + 1j * rng.standard_normal((200, 8)))
    gaps, rho_est = _unitarity_gaps(WeightRows.of(r), rng.uniform(0.5, 20.0, 200))
    u = r / np.sqrt(rho_est)[:, None, None]
    defect = frobenius(u @ dagger(u) - identity(4))
    assert np.all(defect <= gaps * (1 + 1e-14))
    for k in range(0, 200, 40):
        gap, rho = _unitarity_gaps(r[k], 3.0)
        assert frobenius(u[k] @ dagger(u[k]) - identity(4)) <= gap * (1 + 1e-14)


def test_an_off_pattern_entry_deep_in_a_stack_is_named_by_its_stack_index():
    rng = np.random.default_rng(109)
    r = _eight_vertex(rng.standard_normal((1000, 8)) + 1j * rng.standard_normal((1000, 8)))
    r[917, 0, 1] = 2.0
    with pytest.raises(ValueError, match=r"^WeightRows.of .*: the matrix at index 917 of the stack "
                                         r"has \(2\+0j\) at entry \(0, 1\)$"):
        WeightRows.of(r)


@pytest.mark.parametrize("spec,kind,value", [
    (FamilySpec.six_nonstd(gamma=0.4), "x", np.exp(0.7j)),
    (FamilySpec.six_std(gamma=0.4), "u", 0.3j),
    (FamilySpec.six_std(gamma=0.4), "theta", 0.6),
    (FamilySpec.eight4(t=1.6, q=np.exp(0.25j)), "x", np.exp(0.9j)),
    (FamilySpec.eight4(t=1.6, q=np.exp(0.25j)), "theta", 0.8),
    (FamilySpec.eight4(t=1.6, q=np.exp(0.25j)), "u", -0.2j),
], ids=["six-nonstd-x", "six-std-u", "six-std-theta", "eight4-x", "eight4-theta", "eight4-u"])
def test_the_normalization_hands_its_x_to_the_reference_gauge_bitwise(spec, kind, value):
    from yaxter.baxterize import family_x, gauge, reference_gauge
    from yaxter.verify import _normalization, _rho_at, sample_specs

    rng = np.random.default_rng(113)
    step = rng.uniform(-0.2, 0.2, 30)  # along the unitary domain of each view
    values = {"x": value * np.exp(1j * step), "u": value + 1j * step, "theta": value + step}[kind]
    specs = sample_specs(spec.family, rng, 30)
    for s, v in ((spec, value), (spec, values), (specs, values)):
        # the reference gauge that finds its own x: the x handed in changes no bit of rho
        g = abs(gauge(s, kind, v) * reference_gauge(s, kind, v))
        assert np.array_equal(_normalization(s, kind, v), g * g * _rho_at(s, family_x(s, kind, v)))
