import numpy as np
import pytest

from yaxter import dynamics
from yaxter.baxterize import (R_rows, SpectralPoint, _coefficient_rows, family_x, gauge,
                              reference_gauge)
from yaxter.catalog import DomainError, Family, FamilySpec, Sign
from yaxter.dynamics import (
    Hamiltonian,
    HamiltonianSource,
    braiding_evolution_residual,
    eight1_x_hamiltonian,
    evolve,
    gauge_unitary,
    hamiltonian,
    hamiltonian_closed,
    hamiltonian_fd,
    pauli_decompose,
    six_vertex_erratum_report,
    six_vertex_hamiltonian_coth_variant,
)
from yaxter.gates import PAULI, SIGMA_MINUS, SIGMA_PLUS, SX, SZ, sigma_xy, tensor
from yaxter.linalg import (WeightRows, expm_hermitian, frobenius, hermiticity_defect, identity,
                           require_hermitian)
from yaxter.verify import norm_factor, sample_spec, sample_specs, worst

X = SpectralPoint.from_x
TH = SpectralPoint.from_theta
I4 = identity(4)

THETA_FAMILIES = [
    FamilySpec.six_nonstd(gamma=0.5),
    FamilySpec.six_std(gamma=0.45),
    FamilySpec.eight2(t=1.7, q=np.exp(-0.4j), sign=Sign.MINUS),
    FamilySpec.eight3(t=2.1, q=np.exp(0.33j)),
    FamilySpec.eight4(t=1.6, q=np.exp(0.25j)),
]


def central_difference_generator(curve, s0, h=1e-5):
    """Plain O(h^2) generator i U'(s0) U(s0)^dag, without Richardson acceleration."""
    du = (curve(s0 + h) - curve(s0 - h)) / (2 * h)
    return 1j * du @ curve(s0).conj().T


# --- finite differences -----------------------------------------------------------

@pytest.mark.parametrize("spec", THETA_FAMILIES, ids=lambda s: s.family.value)
def test_fd_hamiltonians_are_hermitian(spec):
    for theta in (0.2, 0.9):
        h = hamiltonian_fd(spec, TH(theta))
        assert hermiticity_defect(h.matrix) < 10 * 1e-5 ** 2 + 1e-10


def test_fd_of_constant_curve_vanishes():
    u0 = expm_hermitian(tensor(SZ, SX), 0.7)
    h = central_difference_generator(lambda s: u0, 0.3)
    assert frobenius(h) < 1e-11


def test_fd_degenerate_normalization():
    for extract in (hamiltonian_fd, hamiltonian):
        with pytest.raises(DomainError):
            extract(FamilySpec.six_nonstd(q=1.0), TH(0.0))


def test_fd_richardson_is_second_order():
    spec = FamilySpec.eight2(t=1.7, q=np.exp(-0.4j))
    exact = hamiltonian(spec, TH(0.8)).matrix
    errs = []
    for h in (1e-3, 5e-4):
        fd = central_difference_generator(lambda s: gauge_unitary(spec, TH(s)), 0.8, h)
        errs.append(frobenius(fd - exact))
    ratio = errs[0] / errs[1]
    assert 3.0 < ratio < 5.0  # halving h divides an O(h^2) error by ~4


# --- the exact extractor ------------------------------------------------------------

R_FAMILIES = [Family.SIX_NONSTD, Family.SIX_STD, Family.EIGHT_I, Family.EIGHT_II,
              Family.EIGHT_III, Family.EIGHT_IV]


@pytest.mark.parametrize("family", R_FAMILIES, ids=lambda f: f.value)
def test_exact_matches_the_closed_forms_over_seeded_specs(family):
    # the eight1 theta curve x = tan(theta) runs at twice the closed-form (x = 1) generator
    scale = 2.0 if family is Family.EIGHT_I else 1.0
    rng = np.random.default_rng(2024)
    for _ in range(200):
        spec = sample_spec(family, rng)
        theta = float(rng.uniform(-1.5, 1.5))
        want = scale * hamiltonian_closed(spec, theta).matrix
        got = hamiltonian(spec, TH(theta))
        assert got.source is HamiltonianSource.EXACT
        assert frobenius(got.matrix - want) <= 1e-14 * max(1.0, frobenius(want))


@pytest.mark.parametrize("theta", [1.57, np.pi / 2 - 1e-9, -np.pi / 2 + 1e-12])
def test_exact_eight1_theta_curve_stays_exact_where_tan_theta_is_huge(theta):
    spec = FamilySpec.eight1(phi=0.9, sign=Sign.MINUS)
    want = 2 * hamiltonian_closed(spec, 0.0).matrix
    assert frobenius(hamiltonian(spec, TH(theta)).matrix - want) < 1e-14


def test_exact_real_x_curves():
    rng = np.random.default_rng(7)
    for _ in range(50):
        spec = sample_spec(Family.EIGHT_I, rng)
        x = float(rng.uniform(-2.5, 2.5))
        want = eight1_x_hamiltonian(spec, x)
        assert frobenius(hamiltonian(spec, X(x)).matrix - want) <= 1e-14 * frobenius(want)
        other = sample_spec(Family.EIGHT_IV, rng)
        spec4 = FamilySpec.eight4(t=1j * other.t, q=other.q, sign=other.sign)
        fd = hamiltonian_fd(spec4, X(x)).matrix
        assert frobenius(hamiltonian(spec4, X(x)).matrix - fd) < 1e-9


def fd_reference(spec, kind, s0, h=1e-5):
    """The Richardson difference of ``hamiltonian_fd`` on dense unitaries: the five-point
    stencil as one dense stack, whose central differences and dense product with U^dag
    ``central_difference_generator`` takes."""
    stencil = s0 + np.array([0.0, h, -h, h / 2, -h / 2])
    curve = dict(zip(stencil.tolist(), dynamics._gauge_unitaries(spec, kind, stencil).dense()))
    return (4.0 * central_difference_generator(curve.__getitem__, s0, h / 2)
            - central_difference_generator(curve.__getitem__, s0, h)) / 3.0


@pytest.mark.parametrize("family", R_FAMILIES, ids=lambda f: f.value)
def test_fd_on_weight_rows_is_the_dense_difference(family):
    # the theta curve of every family, eight1's x curve and imaginary-t eight4's x curve
    rng = np.random.default_rng(103)
    curves = [("theta", False)] + {Family.EIGHT_I: [("x", False)],
                                   Family.EIGHT_IV: [("x", True)]}.get(family, [])
    for kind, imaginary_t in curves:
        specs = sample_specs(family, rng, 20, imaginary_t)
        values = rng.uniform(-1.4, 1.4, 20) + (1.0 if kind == "x" else 0.0)
        for spec, s0 in zip(specs, values.tolist()):
            got = hamiltonian_fd(spec, SpectralPoint(kind, s0)).matrix
            want = fd_reference(spec, kind, s0)
            assert frobenius(got - want) <= 1e-14 * frobenius(want)


@pytest.mark.parametrize("family", R_FAMILIES, ids=lambda f: f.value)
def test_exact_matches_the_fd_cross_check(family):
    rng = np.random.default_rng(99)
    for _ in range(20):
        spec = sample_spec(family, rng)
        p = TH(float(rng.uniform(-1.4, 1.4)))
        assert frobenius(hamiltonian(spec, p).matrix - hamiltonian_fd(spec, p).matrix) < 1e-9


@pytest.mark.parametrize("spec,p,error", [
    (FamilySpec.six_nonstd(q=1.1 + 0.4j), TH(0.3), DomainError),
    (FamilySpec.eight2(t=1.5 + 0.2j, q=np.exp(0.3j)), TH(0.3), DomainError),
    (FamilySpec.eight3(t=1.5, q=1.2), TH(0.3), DomainError),
    (FamilySpec.eight4(t=1.5j, q=1.0), TH(0.3), DomainError),
    (FamilySpec.eight1(phi=0.9), X(0.5 + 0.5j), DomainError),
    (FamilySpec.eight2(t=1.5, q=np.exp(0.3j)), SpectralPoint("theta", 0.3 + 0.1j), DomainError),
    (FamilySpec.eight4(t=1.5, q=1.0), X(0.5), DomainError),
    (FamilySpec.eight1(phi=0.9), SpectralPoint.from_u(0.5), DomainError),
    (FamilySpec.bell(phi=0.9), TH(0.3), ValueError),
    (FamilySpec.eight3(t=1e60, q=1.0), TH(0.3), DomainError),  # entries above MAX_ENTRY
    # in the domain, but the real line is not the unitary curve: U fails the Hermiticity check
    (FamilySpec.six_nonstd(gamma=0.3), X(-1.0), ValueError),
    (FamilySpec.eight4(t=1.5j, q=1.0), TH(0.0), ValueError),
], ids=["six-complex-q", "eight2-complex-t", "eight3-q-off-circle", "eight4-imag-t-theta",
        "eight1-complex-x", "complex-theta", "eight4-real-t-x", "u-point", "bell-phi",
        "eight3-huge-t", "six-real-x-line", "eight4-imag-t-circle"])
def test_exact_rejects_points_off_the_unitary_curves(spec, p, error):
    with pytest.raises(error):
        hamiltonian(spec, p)


def test_exact_fails_closed_where_r_is_not_unitary_along_the_curve(monkeypatch):
    spec = FamilySpec.eight2(t=1.7, q=np.exp(-0.4j))
    real = dynamics._coefficient_rows

    def flipped(spec, ordering=None):
        rows = real(spec, ordering).copy()
        rows[1, 2] = -rows[1, 2]  # B's entry (0, 3): row 2 in the block order of _WEIGHTS
        return rows

    monkeypatch.setattr(dynamics, "_coefficient_rows", flipped)
    with pytest.raises(ValueError, match="not Hermitian"):
        hamiltonian(spec, TH(0.4))


# --- six-vertex closed forms and the printed-variant discrepancy -------------------

def test_six_nonstd_closed_matches_fd():
    spec = FamilySpec.six_nonstd(gamma=0.5)
    fd = hamiltonian_fd(spec, TH(0.3)).matrix
    closed = hamiltonian_closed(spec, 0.3).matrix
    assert frobenius(fd - closed) < 1e-9


def test_six_std_closed_matches_fd():
    spec = FamilySpec.six_std(gamma=0.45)
    fd = hamiltonian_fd(spec, TH(0.7)).matrix
    closed = hamiltonian_closed(spec, 0.7).matrix
    assert frobenius(fd - closed) < 1e-9
    # the standard family flips the lower-corner sign relative to the other one
    assert np.isclose(closed[3, 3], closed[0, 0])


def test_six_vertex_coth_variant_is_discrepant():
    spec = FamilySpec.six_nonstd(gamma=0.5)
    report = six_vertex_erratum_report(spec, 0.3, hamiltonian(spec, TH(0.3)).matrix)
    assert report["cosh_variant_confirmed"]
    assert report["coth_variant_discrepant"]
    assert report["deviation_cosh_variant"] < 1e-14
    assert report["deviation_coth_variant"] > 1e-1
    for extract in (hamiltonian, hamiltonian_fd):
        h = extract(spec, TH(0.3)).matrix
        assert frobenius(h - six_vertex_hamiltonian_coth_variant(spec, 0.3)) > 1e-1


def test_six_vertex_matrix_is_theta_independent_up_to_rho():
    # only the overall 1/rho factor moves with theta
    spec = FamilySpec.six_nonstd(gamma=0.5)
    h1 = hamiltonian_closed(spec, 0.3).matrix
    h2 = hamiltonian_closed(spec, 1.1).matrix
    rho1 = np.sinh(0.5) ** 2 + np.sin(0.3) ** 2
    rho2 = np.sinh(0.5) ** 2 + np.sin(1.1) ** 2
    assert frobenius(rho1 * h1 - rho2 * h2) < 1e-12


# --- eight1 -----------------------------------------------------------------------

def test_eight1_time_independent_hamiltonian_display():
    phi = 0.9
    spec = FamilySpec.eight1(phi=phi, sign=Sign.PLUS)
    h = hamiltonian_closed(spec, 0.4).matrix
    want = 0.5j * np.array(
        [
            [0, 0, 0, -np.exp(-1j * phi)],
            [0, 0, -1, 0],
            [0, 1, 0, 0],
            [np.exp(1j * phi), 0, 0, 0],
        ]
    )
    assert frobenius(h - want) < 1e-14
    # equal at every theta
    assert frobenius(h - hamiltonian_closed(spec, 1.2).matrix) == 0.0


@pytest.mark.parametrize("x", [0.5, 1.0, 2.0])
def test_eight1_x_curve_hamiltonian(x):
    spec = FamilySpec.eight1(phi=0.9, sign=Sign.MINUS)
    fd = hamiltonian_fd(spec, X(x)).matrix
    assert frobenius(fd - eight1_x_hamiltonian(spec, x)) < 1e-9
    if x == 1.0:
        assert frobenius(fd - hamiltonian_closed(spec, 0.0).matrix) < 1e-9


def test_eight1_theta_curve_generator_is_twice_the_closed_form():
    spec = FamilySpec.eight1(phi=0.9)
    target = 2 * hamiltonian_closed(spec, 0.0).matrix
    for theta in (0.2, 0.7, 1.1):
        fd = hamiltonian_fd(spec, TH(theta)).matrix
        assert frobenius(fd - target) < 1e-9


def test_eight1_hamiltonian_is_projected_pauli_pair():
    phi = 0.9
    hplus = hamiltonian_closed(FamilySpec.eight1(phi=phi, sign=Sign.PLUS), 0.0).matrix
    assert frobenius(hplus - tensor(sigma_xy((np.pi + phi) / 2), sigma_xy(phi / 2)) / 2) < 1e-13
    hminus = hamiltonian_closed(FamilySpec.eight1(phi=phi, sign=Sign.MINUS), 0.0).matrix
    assert frobenius(hminus - tensor(sigma_xy(phi / 2), sigma_xy((np.pi + phi) / 2)) / 2) < 1e-13


# --- eight2/3/4 closed forms --------------------------------------------------------

@pytest.mark.parametrize(
    "spec",
    [
        FamilySpec.eight2(t=1.7, q=np.exp(-0.4j), sign=Sign.MINUS),
        FamilySpec.eight3(t=2.1, q=np.exp(0.33j)),
        FamilySpec.eight4(t=1.6, q=np.exp(0.25j)),
    ],
    ids=lambda s: s.family.value,
)
def test_eight_vertex_closed_forms_match_fd(spec):
    for theta in (0.0, 0.4, 1.1):
        fd = hamiltonian_fd(spec, TH(theta)).matrix
        closed = hamiltonian_closed(spec, theta).matrix
        assert frobenius(fd - closed) < 1e-7


def v2h1_matrix(q):
    return 0.5 * (
        -I4
        + q * tensor(SIGMA_PLUS, SIGMA_PLUS)
        + tensor(SIGMA_MINUS, SIGMA_MINUS) / q
        + tensor(SIGMA_PLUS, SIGMA_MINUS)
        + tensor(SIGMA_MINUS, SIGMA_PLUS)
    )


@pytest.mark.parametrize("family", [Family.EIGHT_II, Family.EIGHT_III, Family.EIGHT_IV])
def test_t_equals_one_collapses_to_the_shared_form(family):
    q = np.exp(-0.4j)
    spec = FamilySpec(family, q=q, t=1.0, sign=Sign.PLUS)
    for theta in (0.3, 0.9):
        closed = hamiltonian_closed(spec, theta).matrix
        assert frobenius(closed - v2h1_matrix(q)) < 1e-13
        assert frobenius(hamiltonian_fd(spec, TH(theta)).matrix - closed) < 1e-7


def test_eight2_t_one_is_projected_pair():
    phi = 0.4
    q = np.exp(-1j * phi)
    h = hamiltonian_closed(FamilySpec.eight2(t=1.0, q=q, sign=Sign.PLUS), 0.0).matrix
    n1 = sigma_xy(phi / 2)
    assert frobenius(h - 0.5 * (-I4 + tensor(n1, n1))) < 1e-13


def test_eight4_theta_zero_display():
    t, q = 1.6, np.exp(0.25j)
    spec = FamilySpec.eight4(t=t, q=q)
    closed = hamiltonian_closed(spec, 0.0).matrix
    want = -I4 + (1 / (4 * t)) * (
        (t * t + 1) * I4
        + (t * t - 1) * tensor(SZ, SZ)
        + 2 * (q * tensor(SIGMA_PLUS, SIGMA_PLUS) + tensor(SIGMA_MINUS, SIGMA_MINUS) / q)
        + 2 * t * t * (tensor(SIGMA_PLUS, SIGMA_MINUS) + tensor(SIGMA_MINUS, SIGMA_PLUS))
    )
    assert frobenius(closed - want) < 1e-13


# --- Pauli decomposition -------------------------------------------------------------

def test_pauli_decompose_single_term():
    d = pauli_decompose(tensor(SZ, PAULI["i"]))
    assert d.coeff("zi") == pytest.approx(1.0)
    assert d.nonzero_keys() == ["zi"]


def test_pauli_reconstruction_round_trip():
    rng = np.random.default_rng(41)
    h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    d = pauli_decompose(h)
    assert frobenius(d.reconstruct() - h) < 1e-13


def test_six_nonstd_pauli_content():
    spec = FamilySpec.six_nonstd(gamma=0.5)
    d = pauli_decompose(hamiltonian_closed(spec, 0.3).matrix)
    assert set(d.nonzero_keys(tol=1e-10)) == {"iz", "zi", "xx", "yy"}
    g = 0.5
    rho = np.sinh(g) ** 2 + np.sin(0.3) ** 2
    pref = np.sinh(g) / (2 * rho)
    assert d.coeff("xx") == pytest.approx(pref)
    assert d.coeff("yy") == pytest.approx(pref)
    assert d.coeff("iz") == pytest.approx(pref * (np.cosh(g) + np.sinh(g)))
    assert d.coeff("zi") == pytest.approx(pref * (np.cosh(g) - np.sinh(g)))


def test_eight1_pauli_content_lives_in_the_xy_plane():
    spec = FamilySpec.eight1(phi=0.9)
    d = pauli_decompose(hamiltonian_closed(spec, 0.0).matrix)
    assert set(d.nonzero_keys(tol=1e-12)) <= {"xx", "xy", "yx", "yy"}
    for key in d.nonzero_keys():
        assert abs(d.coeff(key).imag) < 1e-14


def test_pauli_json_keys():
    blob = pauli_decompose(tensor(SZ, SX)).to_json()
    assert len(blob["coeffs"]) == 16
    assert blob["coeffs"]["zx"] == [1.0, 0.0]


# --- evolution ------------------------------------------------------------------------

def test_evolve_at_zero_is_identity():
    h = hamiltonian_closed(FamilySpec.eight1(phi=0.3), 0.0)
    assert frobenius(evolve(h, 0.0) - I4) < 1e-14


def test_eight1_evolution_operator_closed_form():
    phi, theta = 0.9, 1.1
    spec = FamilySpec.eight1(phi=phi, sign=Sign.PLUS)
    u = evolve(hamiltonian_closed(spec, 0.0), theta)
    big = tensor(sigma_xy((np.pi + phi) / 2), sigma_xy(phi / 2))
    want = np.cos(theta / 2) * I4 - 1j * np.sin(theta / 2) * big
    assert frobenius(u - want) < 1e-13


def test_eight2_t_one_evolution_phase_form():
    phi, theta = 0.4, 0.8
    q = np.exp(-1j * phi)
    u = evolve(hamiltonian_closed(FamilySpec.eight2(t=1.0, q=q, sign=Sign.PLUS), 0.0), theta)
    n1 = sigma_xy(phi / 2)
    want = np.exp(1j * theta / 2) * (np.cos(theta / 2) * I4 - 1j * np.sin(theta / 2) * tensor(n1, n1))
    assert frobenius(u - want) < 1e-13


def test_braiding_evolution_identity():
    rng = np.random.default_rng(43)
    assert braiding_evolution_residual(FamilySpec.eight1(phi=0.3), np.pi / 4) < 1e-12
    for _ in range(50):
        phi = float(rng.uniform(0, 2 * np.pi))
        theta = float(rng.uniform(-1.2, 1.2))
        sign = Sign.PLUS if rng.integers(2) == 0 else Sign.MINUS
        assert braiding_evolution_residual(FamilySpec.eight1(phi=phi, sign=sign), theta) < 1e-10


def test_theta_zero_minus_branch_is_the_xy_exponential():
    spec = FamilySpec.eight1(phi=0.0, sign=Sign.MINUS)
    r0 = gauge_unitary(spec, TH(0.0))
    assert frobenius(r0 - expm_hermitian(tensor(SX, PAULI["y"]), -np.pi / 4)) < 1e-12


def test_braiding_evolution_requires_eight1():
    with pytest.raises(ValueError, match="eight1"):
        braiding_evolution_residual(FamilySpec.eight2(t=1.5), 0.3)


def _eight1_samples(seed, n):
    rng = np.random.default_rng(seed)
    return sample_specs(Family.EIGHT_I, rng, n), rng.uniform(-1.2, 1.2, n)


def test_stacked_braiding_evolution_agrees_with_the_single_point_call():
    specs, theta = _eight1_samples(71, 60)
    stack = braiding_evolution_residual(specs, theta)
    assert stack.shape == (60,) and stack.max() < 1e-10
    # R and the exponential are unitary, ||.||_F = 2: agreement relative to that norm
    for k in range(60):
        assert abs(stack[k] - braiding_evolution_residual(specs[k], theta[k])) <= 2e-14


def test_single_point_braiding_evolution_is_the_closed_form_generator():
    # the 0-d call is bitwise gauge_unitary against evolve(hamiltonian_closed)
    specs, theta = _eight1_samples(73, 10)
    for k in range(10):
        spec, t = specs[k], float(theta[k])
        want = frobenius(gauge_unitary(spec, TH(t))
                         - evolve(hamiltonian_closed(spec, t), -(np.pi / 2.0 - 2.0 * t)))
        assert braiding_evolution_residual(spec, t) == want


def test_empty_braiding_evolution_stack_is_a_usage_error():
    specs, theta = _eight1_samples(79, 0)
    assert braiding_evolution_residual(specs, theta).shape == (0,)
    with pytest.raises(ValueError, match="at least one sample"):
        worst(braiding_evolution_residual(specs, theta))


def test_a_nan_theta_in_a_braiding_evolution_stack_is_a_domain_error():
    specs, theta = _eight1_samples(83, 5)
    theta[2] = np.nan
    with pytest.raises(DomainError, match="real x, got x = nan"):
        braiding_evolution_residual(specs, theta)


def test_a_degenerate_rho_at_one_sample_of_a_stack_names_that_sample():
    # gamma = 0 makes rho = sin^2 theta, which vanishes at theta = 0 only
    spec = FamilySpec.six_nonstd(gamma=0.0)
    values = np.array([0.3, 0.5, 0.7, 0.0, 0.9])
    kept = dynamics._gauge_unitaries(spec, "theta", np.delete(values, 3))
    assert kept.dense().shape == (4, 4, 4)
    with pytest.raises(DomainError, match=r"rho = 0\.000e\+00 at theta = 0 is degenerate"):
        dynamics._gauge_unitaries(spec, "theta", values)


def gauge_unitaries_reference(spec, kind, values):
    """The stacked gauge unitaries as separate steps: the dense ``R_rows`` matrices
    divided by the dynamics gauge times sqrt(rho), with rho from ``verify.norm_factor``."""
    turn = reference_gauge(spec, kind, values) if spec.family in dynamics.SIX_VERTEX else 1.0
    rho = norm_factor(spec, kind, values) / np.abs(turn) ** 2
    return R_rows(spec, kind, values).dense() / np.asarray(turn * np.sqrt(rho))[..., None, None]


@pytest.mark.parametrize("family", [f for f in Family if f is not Family.BELL_PHI],
                         ids=lambda f: f.value)
def test_gauge_unitaries_are_the_stepwise_reference(family):
    # x, the gauges and rho evaluated once and the quotient folded into the polynomial:
    # the same matrices to rounding, for FamilySpecs and for one spec at a stencil
    rng = np.random.default_rng(101)
    eight1 = family is Family.EIGHT_I
    for imaginary_t in ((False, True) if family is Family.EIGHT_IV else (False,)):
        specs = sample_specs(family, rng, 40, imaginary_t)
        kind = "x" if eight1 or imaginary_t else "theta"
        values = rng.uniform(-1.2, 1.2, 40) + (1.0 if kind == "x" else 0.0)
        cases = [(specs, values)] + [(specs[k], values[k] + np.array([0, 1e-5, -1e-5]))
                                     for k in range(5)]
        cases.append((specs[0], float(values[0])))
        for spec, v in cases:
            got = dynamics._gauge_unitaries(spec, kind, v).dense()
            want = gauge_unitaries_reference(spec, kind, v)
            assert got.shape == want.shape
            assert np.all(frobenius(got - want) <= 1e-14 * frobenius(want))


def test_stacked_hermiticity_check_names_the_one_failing_matrix():
    h = np.stack([I4, tensor(SIGMA_PLUS, SX), I4])
    require_hermitian(h[[0, 2]], dynamics.HERM_TOL)
    with pytest.raises(ValueError, match="not Hermitian at index 1 of the stack: .* = 2"):
        require_hermitian(h, dynamics.HERM_TOL)


@pytest.mark.parametrize("value", [np.inf, complex(0, -np.inf), np.nan])
def test_hamiltonian_rejects_a_non_finite_off_diagonal_entry(value):
    # an infinite entry makes both the defect and ||H|| infinite; the finite-norm term fails it
    h = I4.copy()
    h[0, 3] = h[3, 0] = value
    with pytest.raises(ValueError, match="Hamiltonian is not Hermitian"):
        Hamiltonian(h, HamiltonianSource.EXACT, FamilySpec.eight1(phi=0.0),
                    SpectralPoint.from_theta(0.0))


@pytest.mark.parametrize(
    "spec", THETA_FAMILIES + [FamilySpec.eight1(phi=0.9)], ids=lambda s: s.family.value
)
def test_schroedinger_consistency(spec):
    # psi(s) = U(s) psi0 solves i dpsi/ds = H psi: a central difference of psi against H psi
    h = 1e-5
    hmat = hamiltonian(spec, TH(0.6)).matrix
    u0, up, um = (gauge_unitary(spec, TH(s)) for s in (0.6, 0.6 + h, 0.6 - h))
    rng = np.random.default_rng(47)
    for _ in range(10):
        psi0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        psi0 /= np.linalg.norm(psi0)
        dpsi = (up @ psi0 - um @ psi0) / (2 * h)
        assert np.linalg.norm(1j * dpsi - hmat @ (u0 @ psi0)) < 1e-6


def test_closed_form_source_tags():
    ham = hamiltonian_closed(FamilySpec.eight2(t=1.3, q=1.0), 0.2)
    assert ham.source is HamiltonianSource.CLOSED_FORM
    ham = hamiltonian_fd(FamilySpec.eight2(t=1.3, q=1.0), TH(0.2))
    assert ham.source is HamiltonianSource.FINITE_DIFFERENCE
    ham = hamiltonian(FamilySpec.eight2(t=1.3, q=1.0), TH(0.2))
    assert ham.source is HamiltonianSource.EXACT


# --- the stacked exact generator --------------------------------------------------

CRITERION7_STACKS = [(spec, "theta", (0.25, 0.8, 1.3)) for spec in THETA_FAMILIES] + [
    (FamilySpec.eight1(phi=0.9), "theta", (0.2, 0.7, 1.1)),
    (FamilySpec.eight1(phi=0.9), "x", (1.0, -0.4, 2.5)),
]


@pytest.mark.parametrize("spec,kind,values", CRITERION7_STACKS,
                         ids=lambda v: getattr(getattr(v, "family", None), "value", str(v)))
def test_stacked_exact_generators_agree_with_their_single_calls(spec, kind, values):
    stack = dynamics.exact_generators(spec, kind, np.array(values))
    assert stack.shape == (len(values), 4, 4)
    for h, value in zip(stack, values):
        single = dynamics.exact_generators(spec, kind, value)
        assert single.shape == (4, 4)
        assert frobenius(h - single) <= 1e-14 * frobenius(single)
        assert np.array_equal(single, hamiltonian(spec, SpectralPoint(kind, value)).matrix)


@pytest.mark.parametrize("family", [spec.family for spec in THETA_FAMILIES],
                         ids=lambda f: f.value)
def test_a_generator_in_a_stack_is_bitwise_its_single_call(family):
    # rho and Im tr K are summed in one order at every stack width
    rng = np.random.default_rng(29)
    for _ in range(10):
        spec, thetas = sample_spec(family, rng), rng.uniform(-1.5, 1.5, 6)
        stack = dynamics.exact_generators(spec, "theta", thetas)
        for h, theta in zip(stack, thetas.tolist()):
            assert h.tobytes() == dynamics.exact_generators(spec, "theta", theta).tobytes()


@pytest.mark.parametrize("spec,kind,values,named", [
    (THETA_FAMILIES[2], "theta", (0.25, float("nan"), 1.3),
     "got theta = nan at index 1 of the stack"),
    (THETA_FAMILIES[2], "theta", (0.25, 0.8, 0.3 + 0.1j),
     r"got theta = \(0.3\+0.1j\) at index 2 of the stack"),
    (FamilySpec.eight4(t=1.5, q=1.0), "x", (-1.0, 0.5),  # real t: |x| = 1 only
     r"needs \|x\| = 1, got \|x\| = 0.5 at index 1 of the stack"),
    (FamilySpec.six_nonstd(q=1.0), "theta", (0.3, 0.0, 0.0),  # R vanishes at theta = 0
     r"rho = 0.000e\+00\) at SpectralPoint\(kind='theta', value=0j\) at index 1 of the stack"),
], ids=["nan", "complex", "off-domain", "rho-floor"])
def test_stacked_exact_generators_name_the_first_failing_index(spec, kind, values, named):
    with pytest.raises(DomainError, match=named):
        dynamics.exact_generators(spec, kind, np.array(values))


def test_empty_exact_generator_stack_is_a_usage_error():
    with pytest.raises(ValueError, match="nothing to reduce"):
        dynamics.exact_generators(THETA_FAMILIES[0], "theta", np.array([]))


def _dense_generator_reference(spec, kind, s):
    """The exact generator the dense way: R and R' from ``_coefficient_rows`` as 4x4 matrices,
    K = i R' R^dag / rho with one matmul per matrix, less i Im(tr K)/4 1 (plus 1 for the
    six-vertex dynamics gauge)."""
    def col(v):  # one scalar per matrix
        return np.asarray(v)[..., None, None]

    a, b, *c = (WeightRows(w).dense() for w in _coefficient_rows(spec))
    c = c[0] if c else np.zeros_like(a)
    six = spec.family in (Family.SIX_NONSTD, Family.SIX_STD)
    s = np.asarray(s, dtype=float)
    x = col(family_x(spec, kind, s))
    r = col(gauge(spec, kind, s)) * (a + x * (b + x * c))
    if kind == "theta" and spec.family is Family.EIGHT_I:
        dr = (b * np.cos(col(s)) - a * np.sin(col(s))) / np.sqrt(2)
    else:
        dr = (b + 2.0 * c * x) * (1.0 if kind == "x" else (2j if six else 1j) * x)
    k = 1j * dr @ r.conj().swapaxes(-1, -2) / col(np.linalg.norm(r, axis=(-2, -1)) ** 2 / 4.0)
    return k + col((1.0 if six else 0.0) - 0.25j * np.trace(k, axis1=-2, axis2=-1).imag) * I4


@pytest.mark.parametrize("spec,kind,values", CRITERION7_STACKS + [
    (FamilySpec.eight4(t=1.6j, q=1.0), "x", (0.5, -0.3, 1.7)),
], ids=lambda v: getattr(getattr(v, "family", None), "value", str(v)))
def test_exact_generators_match_the_dense_matmul_reference(spec, kind, values):
    eps = np.finfo(float).eps
    for s in (values[0], np.array(values)):
        h = dynamics.exact_generators(spec, kind, s)
        want = _dense_generator_reference(spec, kind, s)
        assert h.shape == want.shape
        assert np.all(frobenius(h - want) <= 8 * eps * np.maximum(1.0, frobenius(want)))


@pytest.mark.parametrize("make", [
    lambda: hamiltonian(THETA_FAMILIES[2], TH(0.4)),
    lambda: hamiltonian(FamilySpec.eight1(phi=0.9), X(1.0)),
    lambda: hamiltonian_fd(THETA_FAMILIES[0], TH(0.4)),
    lambda: hamiltonian_closed(THETA_FAMILIES[4], 0.4),
], ids=["exact", "exact-x", "fd", "closed"])
def test_every_hamiltonian_is_checked_for_hermiticity_once(monkeypatch, make):
    real, calls = dynamics.require_hermitian, []

    def counted(h, tol, what="matrix"):
        calls.append(what)
        return real(h, tol, what)

    monkeypatch.setattr(dynamics, "require_hermitian", counted)
    make()
    assert calls == ["Hamiltonian"]


def test_a_non_hermitian_exact_hamiltonian_keeps_its_error(monkeypatch):
    # the flip of eight2's linear coefficient: the exact generator is not Hermitian
    exact = dynamics._coefficient_rows

    def flipped(spec, ordering=None):
        rows = exact(spec, ordering).copy()
        rows[1, 2] *= -1
        return rows

    monkeypatch.setattr(dynamics, "_coefficient_rows", flipped)
    spec = THETA_FAMILIES[2]
    with pytest.raises(ValueError) as stacked:
        dynamics.exact_generators(spec, "theta", 0.4)
    with pytest.raises(type(stacked.value)) as single:
        hamiltonian(spec, TH(0.4))
    assert str(single.value) == str(stacked.value)
    assert str(single.value).startswith("Hamiltonian is not Hermitian: ||H - H^dag|| = ")


# --- the generator pass and the closed-form stacks ---------------------------------

# jobs of every family and curve kind, stacks and single values: eight1's theta curve is its
# cos/sin branch of R', eight4 with imaginary t runs along real x
PASS_JOBS = [
    (THETA_FAMILIES[0], "theta", np.array([0.25, 0.8, 1.3, 0.3])),
    (FamilySpec.eight1(phi=0.9), "x", 1.0),
    (THETA_FAMILIES[1], "theta", 0.7),
    (FamilySpec.eight1(phi=0.9), "theta", np.array([0.2, 0.7, 1.1])),
    (THETA_FAMILIES[2], "theta", np.array([0.25, 0.0])),
    (FamilySpec.eight4(t=1.6j, q=1.0), "x", np.array([0.5, -0.3, 1.7])),
    (THETA_FAMILIES[3], "theta", 0.9),
    (FamilySpec.eight1(phi=0.4, sign=Sign.MINUS), "x", np.array([-0.4, 2.5])),
    (THETA_FAMILIES[4], "theta", np.array([0.25, 0.8, 1.3, 0.0])),
    (FamilySpec(Family.EIGHT_IV, q=np.exp(-0.4j), t=1.0, sign=Sign.PLUS), "theta", 0.9),
]


@pytest.mark.parametrize("order", ["forward", "reversed"])
def test_a_pass_over_mixed_jobs_is_bitwise_each_jobs_own_exact_generators(order):
    jobs = PASS_JOBS if order == "forward" else PASS_JOBS[::-1]
    stack = dynamics.generator_pass(jobs)
    ends = np.cumsum([0] + [np.size(s) for _, _, s in jobs])
    assert stack.shape == (ends[-1], 4, 4)
    for k, (spec, kind, s) in enumerate(jobs):
        own = dynamics.exact_generators(spec, kind, s)
        assert np.array_equal(stack[ends[k]:ends[k + 1]], own.reshape(-1, 4, 4))
        if not np.ndim(s):  # a single value is the single-point record's matrix too
            assert np.array_equal(own, hamiltonian(spec, SpectralPoint(kind, s)).matrix)


def test_one_pass_makes_one_hermiticity_check(monkeypatch):
    real, calls = dynamics.require_hermitian, []

    def counted(h, tol, what="matrix"):
        calls.append(h.shape)
        return real(h, tol, what)

    monkeypatch.setattr(dynamics, "require_hermitian", counted)
    dynamics.generator_pass(PASS_JOBS)
    assert calls == [(22, 4, 4)]


@pytest.mark.parametrize("job,named", [
    ((THETA_FAMILIES[2], "theta", np.array([0.25, np.nan, 1.3])),
     r"got theta = nan at index 1 of the stack, in job 2 \(eight2\)"),
    ((FamilySpec.eight4(t=1.5, q=1.0), "x", np.array([-1.0, 0.5])),
     r"got \|x\| = 0.5 at index 1 of the stack, in job 2 \(eight4\)"),
    ((FamilySpec.six_nonstd(q=1.0), "theta", np.array([0.3, 0.0])),
     r"rho = 0.000e\+00\) at SpectralPoint\(kind='theta', value=0j\) at index 1 of the stack, "
     r"in job 2 \(six-nonstd\)"),
    ((FamilySpec.eight3(t=2.1, q=1.0), "theta", np.nan),
     r"got theta = nan, in job 2 \(eight3\)"),
], ids=["nan", "off-domain", "rho-floor", "nan-single"])
def test_a_failing_job_of_a_pass_is_named_by_its_number_family_and_index(job, named):
    jobs = PASS_JOBS[:2] + [job] + PASS_JOBS[2:]
    with pytest.raises(DomainError, match=named + " of the generator pass$"):
        dynamics.generator_pass(jobs)


def test_a_non_hermitian_job_of_a_pass_is_named(monkeypatch):
    # the flip of eight2's linear coefficient: its generators are not Hermitian
    exact = dynamics._coefficient_rows

    def flipped(spec, ordering=None):
        rows = exact(spec, ordering)
        if spec.family is Family.EIGHT_II:
            rows = rows.copy()
            rows[1, 2] *= -1
        return rows

    monkeypatch.setattr(dynamics, "_coefficient_rows", flipped)
    with pytest.raises(ValueError) as alone:
        dynamics.exact_generators(*PASS_JOBS[4])
    with pytest.raises(type(alone.value)) as passed:
        dynamics.generator_pass(PASS_JOBS)
    assert str(passed.value) == f"{alone.value}, in job 4 (eight2) of the generator pass"
    assert str(passed.value).startswith("Hamiltonian is not Hermitian at index 0 of the stack")


CLOSED_SPECS = THETA_FAMILIES + [FamilySpec.eight1(phi=0.9)] + [
    FamilySpec(family, q=np.exp(-0.4j), t=1.0, sign=Sign.PLUS)
    for family in (Family.EIGHT_II, Family.EIGHT_III, Family.EIGHT_IV)]


@pytest.mark.parametrize("spec", CLOSED_SPECS,
                         ids=lambda s: f"{s.family.value}-t{complex(s.t).real:g}")
def test_the_closed_form_stack_is_bitwise_the_single_point_closed_form(spec):
    thetas = np.array([0.0, 0.25, 0.8, 0.9, 1.3, -0.7, 2.9])
    stack = dynamics.closed_generators(spec, thetas)
    assert stack.shape == (7, 4, 4)
    for h, theta in zip(stack, thetas.tolist()):
        assert np.array_equal(h, hamiltonian_closed(spec, theta).matrix)
    grid = dynamics.closed_generators(spec, thetas[:6].reshape(2, 3))
    assert np.array_equal(grid.reshape(6, 4, 4), stack[:6])
    assert np.array_equal(dynamics.closed_generators(spec, 0.8), stack[2])


def test_the_six_vertex_coth_variant_broadcasts_over_theta():
    spec = THETA_FAMILIES[0]
    thetas = np.array([0.3, 1.1])
    stack = six_vertex_hamiltonian_coth_variant(spec, thetas)
    for h, theta in zip(stack, thetas.tolist()):
        assert np.array_equal(h, six_vertex_hamiltonian_coth_variant(spec, theta))


@pytest.mark.parametrize("spec,thetas,index,message", [
    (FamilySpec.six_nonstd(gamma=0.0), (0.3, 0.0, 0.0), 1,
     r"rho = sinh\^2 gamma \+ sin\^2 theta vanishes at gamma = theta = 0"),
    (THETA_FAMILIES[2], (0.3, 0.5, np.nan), 2, "closed-form rho = nan is not finite"),
    (THETA_FAMILIES[4], (np.inf, 0.5), 0, "closed-form rho = nan is not finite"),
], ids=["six-vanishing", "eight2-nan", "eight4-inf"])
def test_a_closed_form_stack_names_its_first_failing_theta(spec, thetas, index, message):
    with np.errstate(invalid="ignore"):  # sin and exp of a non-finite theta
        with pytest.raises(DomainError, match=f"^{message} at index {index} of the stack$"):
            dynamics.closed_generators(spec, np.array(thetas))
        with pytest.raises(DomainError, match=f"^{message}$"):
            dynamics.closed_generators(spec, thetas[index])


def test_the_braiding_evolution_checks_its_generators_once(monkeypatch):
    from yaxter import linalg

    real, calls = linalg.require_hermitian, []

    def counted(h, tol, what="matrix"):
        calls.append(what)
        return real(h, tol, what)

    monkeypatch.setattr(linalg, "require_hermitian", counted)
    monkeypatch.setattr(dynamics, "require_hermitian", counted)
    specs, theta = _eight1_samples(89, 20)
    braiding_evolution_residual(specs, theta)
    braiding_evolution_residual(specs[0], float(theta[0]))
    assert calls == ["matrix", "matrix"]
