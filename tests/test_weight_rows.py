"""The weight-row path of the stacked scans against the kernels on the dense reference, read
by ``WeightRows.of``, bitwise, and the domain predicates against their defining expressions."""

import math

import numpy as np
import pytest

from yaxter import verify
from yaxter.baxterize import EigOrdering, R_rows
from yaxter.catalog import (DOMAIN_TOL, DomainError, Family, FamilySpec, _finite, braid_matrix,
                            braid_residual, braid_rows, build_b, domain_violation, is_imag,
                            is_real)
from yaxter.linalg import (_BLOCK, WeightRows, block_product, dagger, defect, scatter,
                           strand_gap)
from yaxter.verify import (QYBE_PARAMETRIZATIONS, _QYBE_LAWS, _bounded_rows, _cpair,
                           _normalization, inverse_unitarity, qybe_job, sample_spec, sample_specs,
                           sample_x, scan_braid, scan_qybe, scan_unitarity, unitarity_job,
                           unitarity_residual, worst)

#: several blocks of the strand kernel and a partial one
SAMPLES = 1000
assert SAMPLES > 2 * _BLOCK and SAMPLES % _BLOCK

NAN, INF = float("nan"), float("inf")


def _spy(monkeypatch, name: str) -> list:
    """Every output of verify's kernel ``name`` while a scan runs."""
    real = getattr(verify, name)
    seen = []

    def spy(*args):
        seen.append(real(*args))
        return seen[-1]

    monkeypatch.setattr(verify, name, spy)
    return seen


def _same_weights(rows, dense) -> bool:
    """The (8, ...) rows are bitwise the weights of the dense (..., 4, 4) stack."""
    return np.array_equal(rows.w, WeightRows.of(dense).w)


QYBE_JOBS = [(family, kind, None) for family, kinds in QYBE_PARAMETRIZATIONS.items()
             for kind in kinds] + [(Family.EIGHT_III, "x", EigOrdering.SECOND)]


@pytest.mark.parametrize("family,kind,ordering", QYBE_JOBS, ids=lambda v: getattr(v, "value", v))
def test_the_qybe_scan_on_rows_is_bitwise_the_dense_kernel(monkeypatch, family, kind, ordering):
    spec = sample_spec(family, np.random.default_rng(5))
    seen = _spy(monkeypatch, "strand_gap")
    report = scan_qybe(spec, kind, SAMPLES, seed=6, ordering=ordering)
    draw, compose = _QYBE_LAWS[kind]
    pairs = np.asarray(draw(spec, np.random.default_rng(6), SAMPLES), dtype=complex)
    a, b = pairs.T
    values = np.stack([a, compose(a, b), b])
    dense = R_rows(spec, kind, values, ordering).dense()
    assert _same_weights(R_rows(spec, kind, values, ordering), dense)
    want = strand_gap(*WeightRows.of(dense))
    (got,) = seen
    assert got.shape == (SAMPLES,) and np.array_equal(got, want)
    residual, (wa, wb) = worst(want, pairs)
    assert report.residual == residual
    assert report.worst_case == {"first": _cpair(wa), "second": _cpair(wb), "kind": kind}


@pytest.mark.parametrize("family,imaginary_t", [
    *((family, False) for family in QYBE_PARAMETRIZATIONS), (Family.EIGHT_IV, True),
], ids=lambda v: getattr(v, "value", "imaginary-t" if v is True else "real-t"))
def test_the_unitarity_scan_on_rows_is_bitwise_the_dense_kernel(monkeypatch, family, imaginary_t):
    seen = _spy(monkeypatch, "unitarity_residual")
    report = scan_unitarity(family, SAMPLES, seed=8, imaginary_t=imaginary_t)
    rng = np.random.default_rng(8)
    specs = sample_specs(family, rng, SAMPLES, imaginary_t)
    x = sample_x(specs, rng, SAMPLES)
    r = R_rows(specs, "x", x).dense()
    assert _same_weights(R_rows(specs, "x", x), r)
    # the kernel itself, not the spy, on the dense stack and its strided adjoint, read
    rho, res = unitarity_residual(WeightRows.of(r), WeightRows.of(dagger(r)))
    ((got_rho, got_res),) = seen
    assert np.array_equal(got_rho, rho) and np.array_equal(got_res, res)
    rho_ref = _normalization(specs, "x", x)
    residual, k = worst(res / rho + abs(rho - rho_ref) / rho_ref, range(SAMPLES))
    assert report.residual == residual and report.worst_case["rho"] == float(rho[k])
    assert report.worst_case["x"] == _cpair(x[k])


@pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
def test_the_braid_scan_on_rows_is_bitwise_the_dense_kernel(monkeypatch, family):
    seen = _spy(monkeypatch, "braid_residual")
    report = scan_braid(family, SAMPLES, seed=9)
    specs = sample_specs(family, np.random.default_rng(9), SAMPLES)
    b = braid_matrix(family, specs.q, specs.t, specs.s)
    assert _same_weights(braid_rows(family, specs.q, specs.t, specs.s), b)
    for k in range(0, SAMPLES, 97):  # the single-point arithmetic, to rounding
        assert np.allclose(b[k], build_b(specs[k]), rtol=1e-15, atol=0)
    want = braid_residual(WeightRows.of(b))
    (got,) = seen
    assert got.shape == (SAMPLES,) and np.array_equal(got, want)
    residual, k = worst(want, range(SAMPLES))
    assert report.residual == residual and report.worst_case["q"] == _cpair(specs.q[k])

def test_strand_gap_on_strided_rows_is_bitwise_its_contiguous_copy():
    spec = sample_spec(Family.EIGHT_III, np.random.default_rng(5))
    rows, _ = qybe_job(spec, "x", SAMPLES, seed=6)
    a, c, d = rows  # c: the middle slice of the (8, 3, n) stack, a strided view
    assert not c.w.flags.c_contiguous
    for triple in ((a, c, d), [WeightRows(m.w[:, ::2]) for m in (a, c, d)]):
        copies = [WeightRows(np.ascontiguousarray(m.w)) for m in triple]
        got, want = strand_gap(*triple), strand_gap(*copies)
        assert got.shape == (len(triple[0]),) and np.array_equal(got, want)


def _unitarity_per_block(x, y):
    """The stacked ``unitarity_residual`` as it was written before the blocks shared an axis:
    each block's (n,) entry rows through ``block_product`` and ``defect`` on their own."""
    (xo, xi), (yo, yi) = (x[0::2], x[1::2]), (y[0::2], y[1::2])
    mo, mi = block_product(xo, yo), block_product(xi, yi)
    rho = ((mo[0] + mo[3]) + (mi[0] + mi[3])).real / 4.0
    left = defect(mo, rho) + defect(mi, rho)
    right = defect(block_product(yo, xo), rho) + defect(block_product(yi, xi), rho)
    return rho, np.sqrt(left) + np.sqrt(right)


def _inverse_unitarity_per_block(wr, wi):
    """The stacked ``inverse_unitarity`` scalars, one block at a time, as in
    ``_unitarity_per_block``."""
    mo, mi = block_product(wr[0::2], wi[0::2]), block_product(wr[1::2], wi[1::2])
    return ((mo[0] + mo[3]) + (mi[0] + mi[3])) / 4.0


R_FAMILIES = [family for family in Family if family is not Family.BELL_PHI]


@pytest.mark.parametrize("family", R_FAMILIES, ids=lambda f: f.value)
def test_the_stacked_unitarity_kernels_are_bitwise_their_per_block_bodies(family):
    rows, _, _ = unitarity_job(family, samples=700, seed=11)
    rho, res = unitarity_residual(rows, dagger(rows))
    want_rho, want_res = _unitarity_per_block(rows.w, dagger(rows).w)
    assert rho.shape == (700,) and np.array_equal(rho, want_rho) and np.array_equal(res, want_res)
    rng = np.random.default_rng(12)
    spec = sample_spec(family, rng)
    x = sample_x(spec, rng, 700)
    form = "g" if family is Family.EIGHT_IV else "canonical"
    r, rinv = (_bounded_rows(spec, "x", v, form=form) for v in (x, 1 / x))
    scalar = inverse_unitarity(r, rinv)
    assert scalar.shape == (700,)
    assert np.array_equal(scalar, _inverse_unitarity_per_block(r.w, rinv.w))



def test_the_adjoint_rows_are_the_weights_of_the_dense_adjoint():
    specs = sample_specs(Family.EIGHT_IV, np.random.default_rng(10), 50)
    rows = R_rows(specs, "x", sample_x(specs, np.random.default_rng(11), 50))
    assert _same_weights(dagger(rows), dagger(rows.dense()))


def test_one_matrix_scatter_is_the_stacked_scatter_of_its_row():
    specs = sample_specs(Family.EIGHT_III, np.random.default_rng(12), 20)
    rows = R_rows(specs, "x", sample_x(specs, np.random.default_rng(13), 20))
    for w, want in zip(rows.w.T, rows.dense()):
        for weights_of_one in (w, w.tolist(), tuple(w.tolist())):
            m = scatter(weights_of_one)
            assert m.shape == (4, 4) and m.flags.c_contiguous and m.flags.writeable
            assert np.array_equal(m, want) and np.array_equal(m, WeightRows(w).dense())


def test_a_nan_value_is_the_same_domain_error_on_rows_and_on_the_dense_edge():
    spec = FamilySpec.eight2(t=1.7, q=np.exp(0.4j))
    for values in (np.array([0.5, NAN]), np.array([[0.5, 0.2], [NAN, 0.1]])):
        for build in (lambda v: R_rows(spec, "x", v), lambda v: R_rows(spec, "x", v).dense(),
                      lambda v: verify._bounded_rows(spec, "x", v)):
            with pytest.raises(DomainError) as err:
                build(values)
            assert str(err.value) == "x must be finite, got nan"


#: (family, kind, ordering, spec seed or a spec) and the message of an entry above 3
BOUND_ERRORS = [
    (Family.EIGHT_II, "x", None, 7, "eight2 at q = 0.160688+0.987005j, t = -2.63554, "
     "x = 0.658274-0.752779j: an R-matrix entry reaches 3.51"),
    (Family.EIGHT_IV, "u", None, 7, "eight4 at q = 0.160688+0.987005j, t = -2.63554, "
     "u = 0.592399-0.341092j: an R-matrix entry reaches 3.73"),
    (Family.SIX_STD, "theta", None, 7, "six-std at q = 0.255029, theta = 0.888598: "
     "an R-matrix entry reaches 3.98"),
    (Family.EIGHT_III, "theta", None, 7, "eight3 at q = 0.160688+0.987005j, t = -2.63554, "
     "theta = 1.51549: an R-matrix entry reaches 3.62"),
    (Family.EIGHT_III, "x", EigOrdering.SECOND, FamilySpec.eight3(t=2.0),
     "eight3 at q = 1, t = 2, x = 0.658274-0.752779j: an R-matrix entry reaches 3.64"),
]


@pytest.mark.parametrize("family,kind,ordering,spec,message", BOUND_ERRORS,
                         ids=[f"{f.value}-{k}-{o}" for f, k, o, _, _ in BOUND_ERRORS])
def test_an_entry_above_the_bound_is_the_same_domain_error(monkeypatch, family, kind, ordering,
                                                         spec, message):
    monkeypatch.setattr(verify, "MAX_ENTRY", 3.0)
    if isinstance(spec, int):
        spec = sample_spec(family, np.random.default_rng(spec))
    with pytest.raises(DomainError) as err:
        scan_qybe(spec, kind, SAMPLES, 9, ordering=ordering)
    assert str(err.value) == message + ", above the 3 up to which the residual products stay finite"


# --- the domain predicates ------------------------------------------------------------

def _finite_before(z):
    return (abs(z.real) < math.inf) & (abs(z.imag) < math.inf)


def _is_real_before(z):
    return _finite_before(z) & ((abs(z.imag) < DOMAIN_TOL) | (abs(z.imag) < DOMAIN_TOL * abs(z)))


def _is_imag_before(z):
    return _finite_before(z) & ((abs(z.real) < DOMAIN_TOL) | (abs(z.real) < DOMAIN_TOL * abs(z)))


PREDICATE_VALUES = [NAN, INF, -INF, complex(INF, NAN), complex(NAN, -INF), complex(1.0, INF),
                    1e308, -1e308j, 0.0, 0j, 1.5, 1 + 1e-13j, 3j, 1e-13 + 2j, 0.5 + 0.5j]


@pytest.mark.parametrize("predicate,before", [(_finite, _finite_before),
                                              (is_real, _is_real_before),
                                              (is_imag, _is_imag_before)],
                         ids=["finite", "is_real", "is_imag"])
def test_the_domain_predicates_keep_their_verdicts(predicate, before):
    for z in PREDICATE_VALUES:
        for v in (z, complex(z), np.asarray(z), np.asarray(z, dtype=complex)):
            assert bool(predicate(v)) == bool(before(v)), v
    for values in (np.array(PREDICATE_VALUES), np.array([NAN, INF, -INF, 1e308, 0.0, 1.5])):
        got = predicate(values)
        assert got.dtype == bool and np.array_equal(got, before(values))


#: one case per constraint of ``domain_violation``, in the order checked, and its message
DOMAIN_CASES = [
    (Family.SIX_STD, 1.2 + 0.5j, 2.0, None, "six-vertex unitarity needs real q, got q = (1.2+0.5j)"),
    (Family.SIX_STD, 1.2, 2.0, 1.5, "six-vertex unitarity needs |x| = 1, got |x| = 1.5"),
    (Family.EIGHT_I, 1.5, 2.0, None, "eight1 unitarity needs |q| = 1, got |q| = 1.5"),
    (Family.EIGHT_I, 1.0, 2.0, 0.5 + 0.5j, "eight1 unitarity needs real x, got x = (0.5+0.5j)"),
    (Family.EIGHT_II, 1.0, 1.5 + 0.5j, None, "eight2 unitarity needs real t, got t = (1.5+0.5j)"),
    (Family.EIGHT_III, 1.0, 1.5, 2.0, "eight3 unitarity needs |x| = 1, got |x| = 2"),
    (Family.EIGHT_IV, 1.0, 1.5 + 0.5j, None,
     "eight4 unitarity needs t real or pure imaginary, got t = (1.5+0.5j)"),
    (Family.EIGHT_IV, 1.0, 1.5, 0.5, "eight4 with real t needs |x| = 1, got |x| = 0.5"),
    (Family.EIGHT_IV, 1.0, 1.5j, 1j, "eight4 with imaginary t needs real x, got x = 1j"),
    (Family.BELL_PHI, 2.0, 2.0, None, "bell-phi unitarity needs |q| = 1, got |q| = 2"),
    (Family.EIGHT_I, 1.0, 2.0, NAN, "eight1 unitarity needs real x, got x = nan"),
]


@pytest.mark.parametrize("family,q,t,x,message", DOMAIN_CASES,
                         ids=[f"{case[0].value}-{k}" for k, case in enumerate(DOMAIN_CASES)])
def test_each_domain_constraint_keeps_its_message(family, q, t, x, message):
    assert domain_violation(family, q, t, x) == message
    # as arrays: two samples inside the domain, then the failing one twice
    inside = {Family.SIX_STD: (1.3, 2.0, 1.0), Family.EIGHT_I: (1.0, 2.0, 0.5),
              Family.BELL_PHI: (1.0, 2.0, 1.0)}.get(family, (1.0, t if t == 1.5j else 1.5, 1.0))
    stack = [np.array([v0, v0, v, v]) for v0, v in zip(inside, (q, t, x))]
    if x is None:
        stack[2] = None
    assert domain_violation(family, *stack) == message
