import math
import warnings

import numpy as np
import pytest

from yaxter.catalog import (
    BoltzmannWeights,
    DomainError,
    Family,
    FamilySpec,
    FamilySpecs,
    Sign,
    braid_matrix,
    braid_residual,
    build_b,
    eigenvalues_of,
    domain_violation,
    eight_vertex_residuals,
    is_imag,
    is_real,
    on_unit_circle,
    q_from,
)
from yaxter.baxterize import SpectralPoint, family_x
from yaxter.dynamics import hamiltonian_closed
from yaxter.entangle import det_b_closed
from yaxter.linalg import frobenius, identity, strand_gap
from yaxter.verify import rho_formula, sample_spec, sample_specs, unitarity_gap


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
def test_eigenvalues_of_a_stack_are_those_of_its_items(family):
    specs = sample_specs(family, np.random.default_rng(19), 30)
    stacked = eigenvalues_of(specs)
    for k in range(len(specs)):
        item = [np.broadcast_to(lam, (len(specs),))[k].item() for lam in stacked]
        assert item == eigenvalues_of(specs[k])


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


@pytest.mark.parametrize("family", list(Family))
def test_braid_residual_is_the_three_strand_gap(family):
    b = build_b(sample_spec(family, np.random.default_rng(31)))
    assert braid_residual(b) == strand_gap(b, b, b)


def test_braid_residual_detects_broken_matrix():
    broken = identity(4)
    broken[1, 2] = 1.0  # eight-vertex, but no braid matrix
    assert braid_residual(broken) > 0.1


def test_braid_residual_rejects_a_matrix_off_the_eight_vertex_pattern():
    broken = identity(4)
    broken[0, 1] = 1.0
    broken[1, 2] = 1.0
    with pytest.raises(ValueError, match=r"eight-vertex.* at entry \(0, 1\)"):
        braid_residual(broken)


def test_q_zero_rejected():
    with pytest.raises(ValueError, match="nonzero"):
        FamilySpec(Family.SIX_NONSTD, q=0)


def test_gamma_requires_real_positive_q():
    with pytest.raises(DomainError):
        FamilySpec(Family.SIX_NONSTD, q=1 + 1j).gamma
    assert np.isclose(FamilySpec.six_nonstd(gamma=0.4).gamma, 0.4)


@pytest.mark.parametrize("family", [Family.SIX_NONSTD, Family.SIX_STD], ids=lambda f: f.value)
def test_gamma_takes_the_real_q_of_the_domain_check(family):
    # gamma_of decides realness as the domain check does (is_real at DOMAIN_TOL), so every
    # call that reaches it takes the q that the domain takes, and refuses the q it refuses
    p = SpectralPoint.from_theta(0.3)
    x = family_x(FamilySpec(family, q=1.5), p.kind, p.value)
    calls = [lambda spec: unitarity_gap(spec, p), lambda spec: rho_formula(spec, "theta", 0.3),
             lambda spec: hamiltonian_closed(spec, 0.3),
             lambda spec: det_b_closed(spec, p, np.eye(4)[1])]
    for q in (1.5 + 5e-13j, 1.5 - 5e-13j):
        spec = FamilySpec(family, q=q)
        assert spec.domain_violation(x) is None and spec.gamma == math.log(1.5)
        for call in calls:
            call(spec)
    spec = FamilySpec(family, q=1.5 + 1e-9j)
    assert spec.domain_violation(x) == "six-vertex unitarity needs real q, got q = (1.5+1e-09j)"
    for call in calls:
        with pytest.raises(DomainError, match="needs real"):
            call(spec)


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


@pytest.mark.parametrize("make, name, value", [
    *[(ctor, "gamma", g) for ctor in (FamilySpec.six_nonstd, FamilySpec.six_std)
      for g in (712.0, -800.0, float("nan"))],
    *[(ctor, "phi", p) for ctor in (FamilySpec.eight1, FamilySpec.bell)
      for p in (float("inf"), -float("inf"), float("nan"))],
])
def test_gamma_or_phi_off_the_finite_nonzero_q_is_a_value_error_naming_it(make, name, value):
    # exp(712) overflows, exp(-800) underflows to q = 0 and exp(-1j * inf) warns; each is
    # refused before the arithmetic, by the one resolver q_from, naming the parameter given
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"^{name} "):
            make(**{name: value})


def test_q_from_names_the_values_given_more_than_once_or_not_at_all():
    for first, second in (("q", "gamma"), ("q", "phi"), ("gamma", "phi")):
        with pytest.raises(ValueError, match=f"^give {first} or {second}, not both$"):
            q_from(**{first: 1.0, second: 0.3})
    with pytest.raises(ValueError, match="^give q or gamma or phi, not all three$"):
        q_from(q=1.0, gamma=0.3, phi=0.2)
    with pytest.raises(ValueError, match="^give q or gamma$"):
        FamilySpec.six_std()


@pytest.mark.parametrize("value", [0.0, 0.3, -2.5, 709.0, -700.0, 1e-300])
def test_q_from_gamma_or_phi_is_bitwise_the_exponential(value):
    for q in (q_from(gamma=value), FamilySpec.six_nonstd(gamma=value).q,
              FamilySpec.six_std(gamma=value).q):
        assert type(q) is float and q == math.exp(value)
    want = complex(np.exp(-1j * value))
    for q in (q_from(phi=value), FamilySpec.eight1(phi=value).q, FamilySpec.bell(phi=value).q):
        assert type(q) is complex
        assert (q.real, q.imag) == (want.real, want.imag)
        assert math.copysign(1, q.imag) == math.copysign(1, want.imag)


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


def test_weights_of_a_matrix_off_the_ansatz_are_an_error_naming_the_entry():
    # an all-ones b is not eight-vertex: reading its eight ansatz entries alone would certify
    # the braid relation of a different matrix
    with pytest.raises(ValueError, match=r"b has \(1\+0j\) at entry \(0, 1\)"):
        BoltzmannWeights.from_matrix(np.ones((4, 4)))
    b = build_b(FamilySpec.eight2(t=1.5, q=np.exp(0.4j)))
    b[2, 0] = 1e-300
    with pytest.raises(ValueError, match=r"at entry \(2, 0\)"):
        BoltzmannWeights.from_matrix(b)


def test_weights_round_trip_through_the_matrix():
    rng = np.random.default_rng(7)
    for family in (Family.EIGHT_I, Family.EIGHT_II, Family.EIGHT_III, Family.EIGHT_IV):
        b = build_b(sample_spec(family, rng))
        assert np.array_equal(BoltzmannWeights.from_matrix(b).as_matrix(), b)
    w = BoltzmannWeights(*(1 + k + 0.5j * k for k in range(8)))
    assert BoltzmannWeights.from_matrix(w.as_matrix()) == w
    assert w.as_matrix().tolist() == [[w.w1, 0, 0, w.w7], [0, w.w5, w.w3, 0],
                                      [0, w.w4, w.w6, 0], [w.w8, 0, 0, w.w2]]


def test_broken_weights_fail_the_system():
    w = BoltzmannWeights(1, 1, 2, 2, 1, 1, 1, 1)
    res = eight_vertex_residuals(w)
    assert np.abs(res).max() > 0.5


def test_vanishing_weight_rejected():
    with pytest.raises(ValueError, match="w3"):
        BoltzmannWeights(1, 1, 0, 1, 1, 1, 1, 1)


def test_predicates_broadcast_over_arrays():
    z = np.array([1e6 + 1e-8j, 1 + 1e-8j, np.nan, np.exp(0.3j), 1e-8 + 1e6j])
    assert is_real(z).tolist() == [is_real(v) for v in z]
    assert is_imag(z).tolist() == [is_imag(v) for v in z]
    assert on_unit_circle(z).tolist() == [on_unit_circle(v) for v in z]


@pytest.mark.parametrize("family,q,t,x,bad", [
    (Family.SIX_STD, [1.2, 1.3 + 0.1j, 1.4 + 0.2j], 2.0, None, 1),
    (Family.EIGHT_II, np.exp([0.1j, 0.2j, 0.3j]), [1.5, 1.6, 1.7 + 1j], None, 2),
    (Family.EIGHT_IV, np.exp([0.1j, 0.2j, 0.3j]), [1.5j, 1.5j, 1.5j], [0.5, 0.5j, 0.7], 1),
    (Family.EIGHT_IV, np.exp([0.1j, 0.2j, 0.3j]), [1.5, 1.5, 1.5], np.exp([0.1j, 0.2j, 0.4]), 2),
    (Family.EIGHT_I, [1.0, 1.0, 1.0], 2.0, [0.5, 1.5, 0.5], None),
])
def test_domain_violation_of_arrays_names_the_first_violating_sample(family, q, t, x, bad):
    q, t = np.asarray(q, dtype=complex), np.broadcast_to(np.asarray(t, dtype=complex), (3,))
    xs = None if x is None else np.asarray(x, dtype=complex)
    got = domain_violation(family, q, t, xs)
    want = [FamilySpec(family, q=q[k], t=t[k]).domain_violation(None if x is None else xs[k])
            for k in range(3)]
    assert got == (None if bad is None else want[bad])
    assert all(w is None for w in want[:bad])


@pytest.mark.parametrize("family,x,message", [
    (Family.EIGHT_II, np.exp(1j * np.array([0.1, 0.2, 0.3, 0.4, 0.5])) * [1, 1, 1, 1.5, 1],
     "eight2 unitarity needs |x| = 1, got |x| = 1.5"),
    (Family.EIGHT_IV, np.exp(1j * np.array([0.1, 0.2, 0.3, 0.4, 0.5])) * [1, 1, 1, 0.25, 1],
     "eight4 with real t needs |x| = 1, got |x| = 0.25"),
    (Family.EIGHT_I, np.array([0.5, 1.5, 2.5, 3.5j, 4.5]), "eight1 unitarity needs real x, "
                                                           "got x = 3.5j"),
])
def test_domain_violation_names_the_one_failing_sample(family, x, message):
    q, t = np.full(5, np.exp(0.3j)), np.full(5, 1.6 + 0j)
    assert domain_violation(family, q, t, np.where(np.arange(5) == 3, x[2], x)) is None
    assert domain_violation(family, q, t, x) == message


def test_weights_beyond_the_product_bound_are_a_domain_error():
    w = BoltzmannWeights.from_matrix(build_b(FamilySpec.eight3(t=1e200, q=1.0)))
    with np.errstate(all="raise"):
        with pytest.raises(DomainError, match="weight reaches 1e\\+200"):
            eight_vertex_residuals(w)


def test_family_specs_from_specs_round_trips_each_point():
    points = [FamilySpec.eight3(t=1.4, q=np.exp(0.2j), sign=Sign.MINUS),
              FamilySpec.eight3(t=-2.5, q=np.exp(-1.1j))]
    specs = FamilySpecs.from_specs(points)
    assert specs.family is Family.EIGHT_III and len(specs) == 2
    assert [specs[k] for k in range(2)] == points
    assert np.array_equal(braid_matrix(Family.EIGHT_III, *specs.parameters())[0],
                          build_b(points[0]))
    with pytest.raises(ValueError, match="one family, got 2 families"):
        FamilySpecs.from_specs(points + [FamilySpec.eight1(phi=0.3)])
    with pytest.raises(ValueError, match="one family, got 0 families"):
        FamilySpecs.from_specs([])


# --- the (q, t) verdict a FamilySpec keeps, and the x constraints tested beside it ---------

#: per family, parameter points (q, t) inside the domain, then points off it
VERDICT_PARAMETERS = {
    Family.SIX_NONSTD: ([(1.3, 2.0)], [(1.3 + 0.2j, 2.0)]),
    Family.SIX_STD: ([(0.7, 2.0)], [(-0.7 + 0.1j, 2.0)]),
    Family.EIGHT_I: ([(np.exp(0.4j), 2.0)], [(1.2, 2.0)]),
    Family.EIGHT_II: ([(np.exp(0.4j), 1.7)], [(np.exp(0.4j), 1.7 + 0.3j), (1.2, 1.7)]),
    Family.EIGHT_III: ([(np.exp(-0.9j), -2.1)], [(np.exp(-0.9j), 2.1j), (0.8, -2.1)]),
    Family.EIGHT_IV: ([(np.exp(0.4j), 1.6), (np.exp(0.4j), 1.6j)],
                      [(np.exp(0.4j), 1.5 + 0.2j), (1.2, 1.6j)]),
    Family.BELL_PHI: ([(np.exp(0.4j), 2.0)], [(2.0, 2.0)]),
}
#: x on and off every domain, NaN, and arrays whose first failing sample is not the first
VERDICT_XS = [
    None, np.exp(0.6j), 0.5, 0.5 + 0.3j, 2.0, complex("nan"), float("nan"),
    np.exp(1j * np.array([0.1, 0.2, 0.3])), np.array([0.5, -0.25, 0.75]),
    np.array([np.exp(0.1j), np.exp(0.2j), 1.5, 0.5 + 0.5j]),
    np.array([0.5, 1.5, 0.5j, 2.0, 3j]), np.array([np.exp(0.1j), np.nan, 0.3]),
]


@pytest.mark.parametrize("family", list(VERDICT_PARAMETERS), ids=lambda f: f.value)
def test_the_kept_verdict_changes_no_domain_answer(family):
    from yaxter.verify import _rho_at

    inside, off = VERDICT_PARAMETERS[family]
    for q, t in inside + off:
        spec = FamilySpec(family, q=q, t=t)
        verdict = domain_violation(family, complex(q), complex(t))
        assert (verdict is None) == ((q, t) in inside)
        for repeat in range(2):  # the verdict taken with the first x, then kept
            for x in VERDICT_XS:
                want = domain_violation(family, complex(q), complex(t), x)
                assert spec.domain_violation(x) == want, (q, t, x)
                if verdict is not None:  # a parameter off the domain wins over any x
                    assert want == verdict
                if x is None or repeat:
                    continue
                specs = FamilySpecs.from_specs([spec])  # one sample: today's path
                for rho_spec in (spec, specs):
                    if want is None:
                        _rho_at(rho_spec, x)
                    else:
                        with pytest.raises(DomainError) as err:
                            _rho_at(rho_spec, x)
                        assert str(err.value) == want, (rho_spec, x)


@pytest.mark.parametrize("spec,x,message", [
    (FamilySpec.six_std(q=0.7), np.array([np.exp(0.1j), np.exp(0.2j), 1.5, 0.5 + 0.5j]),
     "six-vertex unitarity needs |x| = 1, got |x| = 1.5"),
    (FamilySpec.eight1(phi=0.4), np.array([0.5, 1.5, 0.5j, 2.0, 3j]),
     "eight1 unitarity needs real x, got x = 0.5j"),
    (FamilySpec.eight4(t=1.6j, q=np.exp(0.4j)), np.array([0.5, 1.5, 0.5j, 2.0, 3j]),
     "eight4 with imaginary t needs real x, got x = 0.5j"),
    (FamilySpec.eight3(t=-2.1, q=np.exp(-0.9j)), np.array([np.exp(0.1j), np.nan, 0.3]),
     "eight3 unitarity needs |x| = 1, got |x| = nan"),
    (FamilySpec.eight2(t=1.7 + 0.3j, q=np.exp(0.4j)), np.array([np.nan, 2.0]),
     "eight2 unitarity needs real t, got t = (1.7+0.3j)"),
    (FamilySpec.eight1(q=1.2), complex("nan"), "eight1 unitarity needs |q| = 1, got |q| = 1.2"),
    (FamilySpec.eight1(phi=0.4), float("nan"), "eight1 unitarity needs real x, got x = nan"),
])
def test_the_kept_verdict_keeps_each_message(spec, x, message):
    spec.domain_violation()  # the verdict is kept before x is tested
    assert spec.domain_violation(x) == message
