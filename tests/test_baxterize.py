import json

import numpy as np
import pytest

from yaxter import baxterize, cli
from yaxter.baxterize import (
    EigOrdering,
    SpectralPoint,
    build_R,
    build_R_stack,
    coefficients,
    compose_u,
    degeneracy_note,
    family_x,
    formula_R,
    g_factors,
    gauge,
    ordered_eigenvalues,
    u_to_x,
    x_to_u,
    yb_three,
    yb_two,
)
from yaxter.catalog import (DomainError, Family, FamilySpec, FamilySpecs, Sign, build_b,
                            eigenvalues_of, z_of)
from yaxter.linalg import (DegenerateSpectrumError, NotTwoEigenvalueError, cmat, dagger, frobenius,
                           identity, inverse, spectral_projectors)
from yaxter.verify import conjugate_partner, sample_spec, sample_specs

X = SpectralPoint.from_x
TH = SpectralPoint.from_theta
U = SpectralPoint.from_u

R_FAMILIES = [Family.SIX_NONSTD, Family.SIX_STD, Family.EIGHT_I,
              Family.EIGHT_II, Family.EIGHT_III, Family.EIGHT_IV]


# --- spectral point algebra ---------------------------------------------------

def test_u_at_x_one_is_zero():
    assert x_to_u(1.0) == 0


def test_u_on_unit_circle_is_minus_i_tan_half():
    theta = 0.8
    u = x_to_u(np.exp(1j * theta))
    assert abs(u - (-1j * np.tan(theta / 2))) < 1e-15
    # a six-vertex theta view doubles the angle: the same x sits at theta/2
    u2 = x_to_u(family_x(FamilySpec.six_nonstd(q=1.4), "theta", theta / 2))
    assert abs(u2 - u) < 1e-15


@pytest.mark.parametrize("value", [float("nan"), float("inf"), complex(0.5, float("-inf"))])
def test_spectral_point_rejects_non_finite_values(value):
    with pytest.raises(ValueError, match="finite"):
        SpectralPoint("x", value)


def test_u_composition_law():
    x, y = 0.5, 2.0
    u, v = x_to_u(x), x_to_u(y)
    assert u == pytest.approx(1 / 3) and v == pytest.approx(-1 / 3)
    assert x_to_u(x * y) == 0
    assert compose_u(u, v) == 0
    rng = np.random.default_rng(4)
    for _ in range(20):
        x, y = rng.uniform(0.2, 3, 2)
        assert abs(compose_u(x_to_u(x), x_to_u(y)) - x_to_u(x * y)) < 1e-14


def test_u_undefined_at_minus_one():
    with pytest.raises(DomainError):
        x_to_u(-1.0)
    with pytest.raises(DomainError):
        u_to_x(-1.0)


# --- the two baxterization formulas -------------------------------------------

def test_yb_two_at_zero_returns_b():
    spec = FamilySpec.six_nonstd(gamma=0.4)
    b = build_b(spec)
    assert np.array_equal(yb_two(b, *eigenvalues_of(spec), 0.0), b)


def test_yb_two_eight1_display_and_x_one():
    q = np.exp(-0.6j)
    spec = FamilySpec.eight1(q=q, sign=Sign.MINUS)
    b = build_b(spec)
    x = 0.37 + 0.21j
    got = yb_two(b, 1 - 1j, 1 + 1j, x)
    want = np.array(
        [
            [1 + x, 0, 0, q * (1 - x)],
            [0, 1 + x, -(1 - x), 0],
            [0, (1 - x), 1 + x, 0],
            [-(1 - x) / q, 0, 0, 1 + x],
        ]
    )
    assert frobenius(got - want) < 1e-14
    assert frobenius(yb_two(b, 1 - 1j, 1 + 1j, 1.0) - 2 * identity(4)) < 1e-14


def test_yb_two_checks_the_spectrum_as_the_projectors_do():
    t = 2.0
    three = cmat([[t, 0, 0, 1], [0, 1, t, 0], [0, t, 1, 0], [1, 0, 0, t]])
    for b, lams, error in ((identity(4), (1.0, 1.0 + 1e-14), DegenerateSpectrumError),
                           (three, (1 + t, 1 - t), NotTwoEigenvalueError)):
        with pytest.raises(error) as formula:
            yb_two(b, *lams, 0.5)
        with pytest.raises(error) as projectors:
            spectral_projectors(b, *lams)
        assert str(formula.value) == str(projectors.value)


def test_yb_two_affine_in_x():
    spec = FamilySpec.eight2(t=1.8, q=np.exp(0.2j))
    b = build_b(spec)
    l1, l2 = eigenvalues_of(spec)
    x1, x2 = 0.3 + 0.1j, -0.7 + 0.4j
    lhs = yb_two(b, l1, l2, x1) + yb_two(b, l1, l2, x2)
    rhs = yb_two(b, l1, l2, x1 + x2) + b
    # the identity is entrywise-algebraic; only rounding separates the sides
    assert frobenius(lhs - rhs) < 1e-14 * max(1.0, frobenius(rhs))


def test_yb_three_validations():
    b = build_b(FamilySpec.eight3(t=2.0))
    with pytest.raises(ValueError, match="lambda2"):
        yb_three(b, (3.0, 0.0, 1.0), 0.5)
    with pytest.raises(ValueError, match="distinct"):
        yb_three(b, (3.0, 3.0, 1.0), 0.5)


def test_yb_three_first_ordering_collapses_to_two_eigenvalue_form():
    t = 2.2
    spec = FamilySpec.eight3(t=t, q=np.exp(0.2j))
    b = build_b(spec)
    x = 0.4 + 0.3j
    got = yb_three(b, ordered_eigenvalues(spec, EigOrdering.FIRST), x)
    want = -(x - 1) * (b + x * (1 - t * t) * inverse(b))
    assert frobenius(got - want) < 1e-12


def test_yb_three_second_ordering_flips_the_sign():
    t = 2.2
    spec = FamilySpec.eight3(t=t, q=np.exp(0.2j))
    b = build_b(spec)
    x = 0.4 + 0.3j
    got = yb_three(b, ordered_eigenvalues(spec, EigOrdering.SECOND), x)
    want = -(x - 1) * (b - x * (1 - t * t) * inverse(b))
    assert frobenius(got - want) < 1e-12


def test_yb_three_third_ordering_matches_eight4_scaled():
    t = 1.8
    spec = FamilySpec.eight4(t=t, q=np.exp(0.33j))
    b = build_b(spec)
    x = 0.4 + 0.3j
    got = yb_three(b, ordered_eigenvalues(spec, EigOrdering.THIRD), x)
    want = build_R(spec, X(x))
    assert frobenius((1 + t) * got - want) < 1e-12


def test_yb_three_proportional_to_identity_at_x_one():
    spec = FamilySpec.eight4(t=1.8)
    lams = ordered_eigenvalues(spec, EigOrdering.THIRD)
    assert abs(sum(lams) + lams[0] * lams[2] / lams[1]) > 0.1  # nonvanishing sum term
    r1 = yb_three(build_b(spec), lams, 1.0)
    scalar = np.trace(r1) / 4
    assert frobenius(r1 - scalar * identity(4)) < 1e-13


# --- closed forms --------------------------------------------------------------

def test_six_nonstd_x_form_display():
    q, x = 1.4, 0.3 + 0.2j
    r = build_R(FamilySpec.six_nonstd(q=q), X(x))
    want = np.array(
        [
            [q - x / q, 0, 0, 0],
            [0, (q - 1 / q) * x, 1 - x, 0],
            [0, 1 - x, q - 1 / q, 0],
            [0, 0, 0, q * x - 1 / q],
        ]
    )
    assert frobenius(r - want) < 1e-14


def test_six_nonstd_theta_form_display():
    g, th = 0.5, 0.7
    r = build_R(FamilySpec.six_nonstd(gamma=g), TH(th))
    sh = np.sinh(g)
    want = 2 * np.exp(1j * th) * np.array(
        [
            [np.sinh(g - 1j * th), 0, 0, 0],
            [0, np.exp(1j * th) * sh, -1j * np.sin(th), 0],
            [0, -1j * np.sin(th), np.exp(-1j * th) * sh, 0],
            [0, 0, 0, np.sinh(g + 1j * th)],
        ]
    )
    assert frobenius(r - want) < 1e-13
    # same matrix as the x-form at x = e^{2 i theta}
    assert frobenius(r - build_R(FamilySpec.six_nonstd(gamma=g), X(np.exp(2j * th)))) < 1e-13


def test_eight2_x_form_display():
    t, q, x = 1.6, np.exp(0.3j), np.exp(0.9j)
    z = np.sqrt(t * t - 2 * t + 2)
    r = build_R(FamilySpec.eight2(t=t, q=q), X(x))
    assert abs(r[0, 0] - (2 - t * (1 - x))) < 1e-14
    assert abs(r[3, 3] - (2 * x + t * (1 - x))) < 1e-14
    assert abs(r[0, 3] - q * (1 - x)) < 1e-14
    assert abs(r[3, 0] - (1 - x) / q) < 1e-14
    assert abs(r[1, 1] - (1 + x)) < 1e-14
    assert abs(r[1, 2] - z * (1 - x)) < 1e-14


@pytest.mark.parametrize("family", R_FAMILIES)
def test_closed_form_agrees_with_baxterization_up_to_scalar(family):
    rng = np.random.default_rng(31)
    for _ in range(5):
        spec = sample_spec(family, rng)
        x = complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8))
        b = build_b(spec)
        lams = eigenvalues_of(spec)
        if family is Family.EIGHT_IV:
            ref = yb_three(b, ordered_eigenvalues(spec, EigOrdering.THIRD), x)
        elif family is Family.EIGHT_III:
            ref = yb_three(b, ordered_eigenvalues(spec, EigOrdering.FIRST), x)
        else:
            ref = yb_two(b, lams[0], lams[1], x)
        got = build_R(spec, X(x))
        idx = np.unravel_index(np.abs(got).argmax(), got.shape)
        scalar = got[idx] / ref[idx]
        assert frobenius(got - scalar * ref) < 1e-10 * max(1.0, frobenius(got))


def test_asymptotic_r_zero():
    for family in (Family.SIX_NONSTD, Family.SIX_STD, Family.EIGHT_I):
        spec = sample_spec(family, np.random.default_rng(8))
        assert frobenius(build_R(spec, X(0.0)) - build_b(spec)) < 1e-12
    for family in (Family.EIGHT_II, Family.EIGHT_III, Family.EIGHT_IV):
        spec = sample_spec(family, np.random.default_rng(8))
        r0, b = build_R(spec, X(0.0)), build_b(spec)
        idx = np.unravel_index(np.abs(r0).argmax(), r0.shape)
        assert frobenius(r0 - (r0[idx] / b[idx]) * b) < 1e-12


def test_eight1_theta_form_is_unitary_combination():
    phi, th = 0.9, 0.4
    spec = FamilySpec.eight1(phi=phi)
    r = build_R(spec, TH(th))
    b = build_b(FamilySpec.bell(phi=phi))
    want = np.cos(th) * b + np.sin(th) * inverse(b)
    assert frobenius(r - want) < 1e-14
    assert frobenius(r @ r.conj().T - identity(4)) < 1e-12
    # equals the x-form rescaled by its normalization at x = tan(theta)
    x = np.tan(th)
    assert frobenius(r - build_R(spec, X(x)) / np.sqrt(2 * (1 + x * x))) < 1e-13


def test_eight4_g_form_is_canonical_divided_by_g1():
    spec = FamilySpec.eight4(t=1.7, q=np.exp(0.4j))
    x = np.exp(0.8j)
    g1, _ = g_factors(spec, x)
    canonical = build_R(spec, X(x))
    gform = build_R(spec, X(x), form="g")
    assert frobenius(canonical - g1 * gform) < 1e-12


@pytest.mark.parametrize(
    "family,power", [(Family.EIGHT_I, 1), (Family.EIGHT_II, 1),
                     (Family.EIGHT_III, 1), (Family.EIGHT_IV, 2)]
)
def test_u_forms_are_x_forms_rescaled(family, power):
    spec = sample_spec(family, np.random.default_rng(13))
    x = 0.6 + 0.3j
    u = x_to_u(x)
    got = build_R(spec, U(u))
    want = build_R(spec, X(x)) / (1 + x) ** power
    assert frobenius(got - want) < 1e-13


def test_ordering_validation():
    with pytest.raises(ValueError, match="eight4"):
        build_R(FamilySpec.eight3(t=2.0), X(0.5), ordering=EigOrdering.THIRD)
    with pytest.raises(ValueError, match="third-ordering"):
        build_R(FamilySpec.eight4(t=2.0), X(0.5), ordering=EigOrdering.FIRST)
    with pytest.raises(ValueError, match="two eigenvalues"):
        build_R(FamilySpec.six_nonstd(q=2.0), X(0.5), ordering=EigOrdering.FIRST)
    with pytest.raises(ValueError, match="braid-matrix family"):
        build_R(FamilySpec.bell(), X(0.5))


def test_six_vertex_u_point_falls_back_to_the_x_form():
    spec = FamilySpec.six_nonstd(q=1.4)
    u = 0.25
    got = build_R(spec, U(u))
    assert frobenius(got - build_R(spec, X(u_to_x(u)))) == 0.0


def test_formula_R_matches_closed_forms_up_to_scalar():
    rng = np.random.default_rng(41)
    for family in R_FAMILIES:
        spec = sample_spec(family, rng)
        x = 0.4 + 0.2j
        got = formula_R(spec, x)
        ref = build_R(spec, X(x))
        idx = np.unravel_index(np.abs(ref).argmax(), ref.shape)
        assert frobenius(ref - (ref[idx] / got[idx]) * got) < 1e-11


def test_formula_R_rejects_collapsed_eigenvalues():
    for t in (0.0, 1.0, -1.0):
        with pytest.raises(DomainError, match="collapse"):
            formula_R(FamilySpec.eight3(t=t), 0.5)


def test_degeneracy_note_at_x_one():
    spec = FamilySpec.six_nonstd(gamma=0.3)
    assert "identity" in degeneracy_note(spec, X(1.0))
    assert degeneracy_note(spec, X(0.5)) is None


# --- the gauge table -------------------------------------------------------------

def table_gauge(spec, p, form):
    """The gauge table of ``build_R``, written out independently."""
    fam = spec.family
    if p.kind == "theta" and fam is Family.EIGHT_I:
        return np.cos(p.value.real) / np.sqrt(2)
    if p.kind == "u" and fam not in (Family.SIX_NONSTD, Family.SIX_STD):
        power = 2 if fam is Family.EIGHT_IV and form == "canonical" else 1
        return (1 + u_to_x(p.value)) ** -power
    return 1.0


VARIANTS = [(f, None, "canonical") for f in R_FAMILIES] + [
    (Family.EIGHT_III, EigOrdering.SECOND, "canonical"),
    (Family.EIGHT_IV, None, "g"),
]


@pytest.mark.parametrize("family,ordering,form", VARIANTS,
                         ids=lambda v: getattr(v, "value", v))
def test_every_view_is_a_scalar_gauge_on_the_x_form(family, ordering, form):
    rng = np.random.default_rng(17)
    for _ in range(10):
        spec = sample_spec(family, rng)
        points = (
            X(complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8))),
            TH(float(rng.uniform(-1.2, 1.2))),
            U(complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8))),
        )
        for p in points:
            r = build_R(spec, p, ordering=ordering, form=form)
            x_form = build_R(spec, X(family_x(spec, p.kind, p.value)), ordering=ordering, form=form)
            want = table_gauge(spec, p, form) * x_form
            assert frobenius(r - want) <= 1e-15 * frobenius(want)
            partner = conjugate_partner(spec, p, ordering=ordering, form=form)
            assert np.array_equal(partner, dagger(r))


def test_eight1_theta_form_reads_q():
    spec = FamilySpec.eight1(q=2.0)
    th = 0.4
    want = np.cos(th) / np.sqrt(2) * build_R(spec, X(np.tan(th)))
    assert frobenius(build_R(spec, TH(th)) - want) <= 1e-15 * frobenius(want)


# --- the x-form polynomial and its stacks ------------------------------------------

@pytest.mark.parametrize("family,ordering,form", VARIANTS,
                         ids=lambda v: getattr(v, "value", v))
def test_coefficients_reproduce_the_x_form(family, ordering, form):
    rng = np.random.default_rng(23)
    for _ in range(10):
        spec = sample_spec(family, rng)
        a, b, c = coefficients(spec, ordering)
        if family is not Family.EIGHT_IV:  # only canonical eight4 is quadratic in x
            assert not c.any()
        xs = rng.uniform(-2.5, 2.5, 8) + 1j * rng.uniform(-2.5, 2.5, 8)
        stack = build_R_stack(spec, "x", xs, ordering=ordering, form=form)
        assert stack.shape == (8, 4, 4)
        for x, r in zip(xs, stack):
            want = build_R(spec, X(x), ordering=ordering, form=form)
            assert frobenius(r - want) <= 4e-15 * frobenius(want)
            if form == "canonical":
                assert frobenius(a + b * x + c * x * x - want) <= 4e-15 * frobenius(want)


@pytest.mark.parametrize("family,ordering,form", VARIANTS,
                         ids=lambda v: getattr(v, "value", v))
def test_stack_in_every_view_matches_build_R(family, ordering, form):
    rng = np.random.default_rng(29)
    spec = sample_spec(family, rng)
    values = {
        "x": rng.uniform(-0.8, 0.8, 6) + 1j * rng.uniform(-0.8, 0.8, 6),
        "theta": rng.uniform(-1.2, 1.2, 6),
        "u": rng.uniform(-0.8, 0.8, 6) + 1j * rng.uniform(-0.8, 0.8, 6),
    }
    for kind, vals in values.items():
        stack = build_R_stack(spec, kind, vals, ordering=ordering, form=form)
        for v, r in zip(vals, stack):
            want = build_R(spec, SpectralPoint(kind, complex(v)), ordering=ordering, form=form)
            assert frobenius(r - want) <= 4e-15 * frobenius(want)


@pytest.mark.parametrize("family,ordering,form", VARIANTS,
                         ids=lambda v: getattr(v, "value", v))
def test_stack_is_bitwise_the_nested_polynomial(family, ordering, form):
    # the one-buffer evaluation keeps every operand order of scale * (a + x * (b + x * c))
    rng = np.random.default_rng(37)
    specs = sample_specs(family, rng, 6)
    values = {
        "x": rng.uniform(-2.5, 2.5, 6) + 1j * rng.uniform(-2.5, 2.5, 6),
        "theta": rng.uniform(-1.2, 1.2, 6),
        "u": rng.uniform(-0.8, 0.8, 6) + 1j * rng.uniform(-0.8, 0.8, 6),
    }
    for spec in (specs[0], specs):
        a, b, c = coefficients(spec, ordering)
        for kind, vals in values.items():
            x = family_x(spec, kind, vals)
            scale = gauge(spec, kind, vals, form)
            if form == "g":
                scale = scale / g_factors(spec, x)[0]
            x, scale = x[:, None, None], np.asarray(scale)[..., None, None]
            want = scale * (a + x * (b + x * c))
            assert np.array_equal(build_R_stack(spec, kind, vals, ordering, form), want)


def test_stack_of_no_values_is_empty():
    spec = FamilySpec.eight3(t=2.1, q=np.exp(0.33j))
    assert build_R_stack(spec, "u", []).shape == (0, 4, 4)


def test_stack_rejects_u_at_minus_one():
    with pytest.raises(DomainError, match="undefined at u = -1"):
        build_R_stack(FamilySpec.eight2(t=1.5), "u", [0.2, -1.0])


# --- the exact coefficient table ---------------------------------------------------

COEFFICIENT_VARIANTS = [(f, None) for f in R_FAMILIES] + [(Family.EIGHT_III, EigOrdering.SECOND)]


@pytest.mark.parametrize("family,ordering", COEFFICIENT_VARIANTS,
                         ids=lambda v: getattr(v, "value", v))
def test_coefficients_are_exact(family, ordering):
    rng = np.random.default_rng(59)
    for _ in range(20):
        spec = sample_spec(family, rng)
        a, b, c = coefficients(spec, ordering)
        if family is Family.EIGHT_IV:  # A = (1 + t) b, and the only quadratic family
            t = complex(spec.t)
            assert frobenius(a - (1 + t) * build_b(spec)) <= 1e-16 * frobenius(a)
            assert c.any()
        else:
            assert np.array_equal(a, build_b(spec))
            assert not c.any()


def test_eight3_second_ordering_has_no_inverse():
    t, q, s = 2.3, np.exp(0.7j), -1
    spec = FamilySpec.eight3(t=t, q=q, sign=Sign.MINUS)
    _, b, _ = coefficients(spec, EigOrdering.SECOND)
    want = [[t, 0, 0, -q], [0, -1, s * t, 0], [0, s * t, -1, 0], [-1 / q, 0, 0, t]]
    assert np.array_equal(b, np.array(want, dtype=complex))
    # b - x (1 - t^2) b^{-1}, the single-point evaluation, at points off the real line
    for x in (0.3 + 0.4j, -1.7 + 0.2j):
        r = build_R(spec, X(x), ordering=EigOrdering.SECOND)
        assert frobenius(build_b(spec) + x * b - r) <= 4e-16 * frobenius(r)


@pytest.mark.parametrize("family,ordering", COEFFICIENT_VARIANTS,
                         ids=lambda v: getattr(v, "value", v))
def test_coefficients_of_a_stack_are_the_stack_of_coefficients(family, ordering):
    specs = sample_specs(family, np.random.default_rng(61), 40)
    stacked = np.array(coefficients(specs, ordering))
    assert stacked.shape == (3, 40, 4, 4)
    for k in range(40):
        one = coefficients(specs[k], ordering)
        # numpy and Python round a complex 1/q differently in the last bit (the same
        # holds for braid_matrix and build_b), so a stack is bitwise its items where q is real
        if family in (Family.SIX_NONSTD, Family.SIX_STD):
            assert np.array_equal(stacked[:, k], one)
        else:
            assert np.all(np.abs(stacked[:, k] - one) <= 2.0**-52 * np.abs(one))


def written_B(family, q, t, s):
    """The two-eigenvalue families' B as written out row by row, before it was generated
    from b: the reference for the generated rows."""
    if family is Family.SIX_NONSTD:
        return [[-1 / q, 0, 0, 0], [0, q - 1 / q, -1, 0], [0, -1, 0, 0], [0, 0, 0, q]]
    if family is Family.SIX_STD:
        return [[-1 / q, 0, 0, 0], [0, q - 1 / q, -1, 0], [0, -1, 0, 0], [0, 0, 0, -1 / q]]
    if family is Family.EIGHT_I:
        return [[1, 0, 0, -q], [0, 1, -s, 0], [0, s, 1, 0], [1 / q, 0, 0, 1]]
    z = z_of(t)
    return [[t, 0, 0, -q], [0, 1, -s * z, 0], [0, -s * z, 1, 0], [-1 / q, 0, 0, 2 - t]]


def dense_table(rows):
    """A 4x4 table of numbers or of (n,) arrays as a (4, 4) or (n, 4, 4) complex array."""
    entries = np.broadcast_arrays(*(v for row in rows for v in row))
    table = np.array(entries, dtype=complex).reshape(4, 4, *entries[0].shape)
    return np.moveaxis(table, (0, 1), (-2, -1))


@pytest.mark.parametrize("family", [Family.SIX_NONSTD, Family.SIX_STD, Family.EIGHT_I,
                                    Family.EIGHT_II], ids=lambda f: f.value)
def test_generated_B_is_the_written_table(family):
    rng = np.random.default_rng(71)
    points = [sample_spec(family, rng) for _ in range(50)] + [sample_specs(family, rng, 50)]
    for spec in points:
        got = coefficients(spec)[1]
        want = dense_table(written_B(family, *spec.parameters()))
        if family is Family.EIGHT_I:  # sum 2 and entries 1, +-q, +-s, +-1/q: no rounding
            assert np.array_equal(got, want)
        # within 4 ulp of the largest entry of each point's B, its weight row: a single
        # entry can cancel, as six-nonstd's (q - 1/q) + 1/q = q at q < 1
        largest = np.abs(want).max(axis=(-2, -1), keepdims=True)
        assert np.all(np.abs(got - want) <= 4 * np.spacing(largest))


@pytest.mark.parametrize("family", R_FAMILIES, ids=lambda f: f.value)
def test_formula_R_of_an_array_is_the_stack_of_its_points(family):
    spec = sample_spec(family, np.random.default_rng(73))
    xs = np.array([0.3 + 0.4j, -1.1 + 0.2j, 2.0])
    stack = formula_R(spec, xs)
    assert stack.shape == (3, 4, 4)
    for x, got in zip(xs, stack):
        want = formula_R(spec, complex(x))
        assert frobenius(got - want) <= 4e-16 * frobenius(want)


@pytest.mark.parametrize("family,ordering,message", [
    (Family.EIGHT_III, EigOrdering.THIRD, "the third ordering of this braid matrix is the eight4"),
    (Family.EIGHT_IV, EigOrdering.FIRST, "eight4 is the third-ordering family"),
    (Family.SIX_STD, EigOrdering.FIRST, "two eigenvalues"),
])
def test_formula_R_takes_the_orderings_build_R_takes(family, ordering, message):
    spec = sample_spec(family, np.random.default_rng(79))
    with pytest.raises(ValueError, match=message):
        formula_R(spec, 0.5, ordering)


def yb_two_mutant(b, lam1, lam2, x):
    """``yb_two`` with lambda1 lambda2 -> -lambda1 lambda2."""
    return np.asarray(b, dtype=complex) - lam1 * lam2 * x * inverse(b)


def yb_three_mutant(b, lams, x):
    """``yb_three`` with the sign of its -(x - 1) b term flipped."""
    lam1, lam2, lam3 = lams
    coeff = lam1 + lam2 + lam3 + lam1 * lam3 / lam2
    return lam1 * lam3 * x * (x - 1) * inverse(b) + coeff * x * identity(4) + (x - 1) * b


@pytest.mark.parametrize("name,mutant", [("yb_two", yb_two_mutant),
                                         ("yb_three", yb_three_mutant)])
def test_a_formula_mutant_fails_the_suite_in_criterion_3_alone(capsys, monkeypatch, name,
                                                               mutant):
    monkeypatch.setattr(baxterize, name, mutant)
    assert cli.main(["suite"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert [c["id"] for c in report["criteria"] if not c["pass"]] == [3]
    assert report["criteria"][2]["max_formula_gap"] > 1e-3


def test_a_stack_over_specs_is_the_stack_of_its_items():
    specs = sample_specs(Family.EIGHT_IV, np.random.default_rng(67), 12)
    xs = np.exp(1j * np.linspace(0.2, 5.8, 12))
    for form in ("canonical", "g"):
        stack = build_R_stack(specs, "u", xs, form=form)
        for k in range(12):
            one = build_R_stack(specs[k], "u", xs[k:k + 1], form=form)[0]
            assert frobenius(stack[k] - one) <= 4e-16 * frobenius(one)
    assert build_R_stack(FamilySpecs.from_specs([specs[0]]), "x", [0.5]).shape == (1, 4, 4)
