"""The seeded stacks of the scans and the suite against reference bodies, bitwise: the draw of
``verify.sample_specs``, the coefficient tables of ``baxterize._coefficient_rows`` and the braid
rows of ``catalog.braid_rows``, each kept below as it was written entry by entry, with one
numpy call per entry. Floats and complex numbers are compared through ``.view(np.uint64)``, so
that a signed zero counts; integers by value and dtype."""

import numpy as np
import pytest

from yaxter import suite
from yaxter.baxterize import EigOrdering, _coefficient_rows, _polynomial
from yaxter.catalog import (THREE_EIGENVALUE_FAMILIES, Family, FamilySpec, FamilySpecs, Sign,
                            _braid_table, _finite, _first_failure, braid_rows, eigenvalues_of)
from yaxter.linalg import _WEIGHTS, WeightRows
from yaxter.verify import sample_specs, scan_unitarity, unitarity_job

SIZES = (0, 1, 8, 100, 300)
SEEDS = (0, 3, 42, 1234, 2**31 - 2)
#: the (family, ordering) pairs whose tables criterion 2 certifies
PAIRS = suite.QYBE_PAIRS
assert len(PAIRS) == 7


# ---------------------------------------------------------------------------
# The reference bodies.

def reference_draw_spec(family, rng, size):
    sign = 1 - 2 * rng.integers(2, size=size)
    if family in (Family.SIX_NONSTD, Family.SIX_STD):  # no sign, the default t
        gamma = rng.uniform(0.2, 1.5, size=size) * (1 - 2 * rng.integers(2, size=size))
        return np.exp(gamma), 2.0, 1
    if family in (Family.EIGHT_I, Family.BELL_PHI):
        return np.exp(-1j * rng.uniform(0.0, 2 * np.pi, size=size)), 2.0, sign
    t = rng.uniform(1.2, 2.8, size=size) * (1 - 2 * rng.integers(2, size=size))
    return np.exp(-1j * rng.uniform(0.0, 2 * np.pi, size=size)), t, sign


def reference_sample_specs(family, rng, n, imaginary_t=False):
    """(q, t, s) of the draw, each in the shape of q."""
    q, t, sign = reference_draw_spec(family, rng, max(n, 0))
    if imaginary_t and family is Family.EIGHT_IV:
        t = 1j * t
    return q, np.broadcast_to(t, q.shape), np.broadcast_to(sign, q.shape)


def reference_non_finite(**params):
    for name, value in params.items():
        if not np.isfinite(value).all():
            raise ValueError(_first_failure(_finite(value), f"{name} must be finite, got {{}}",
                                            value))


def reference_pattern_rows(tables):
    entries = [table[r][c] for table in tables for r, c in _WEIGHTS]
    if np.ndarray in map(type, entries):
        rows = np.empty((len(entries), *np.broadcast(*entries).shape), dtype=complex)
        for k, v in enumerate(entries):
            rows[k] = v
    else:
        rows = np.array(entries, dtype=complex)
    if not np.isfinite(rows).all():
        raise ValueError("matrix entries must be finite")
    return rows.reshape(len(tables), 8, *rows.shape[1:])


def reference_table_rows(spec, ordering):
    fam = spec.family
    q, t, s = spec.parameters()
    b = _braid_table(fam, q, t, s)
    if fam not in THREE_EIGENVALUE_FAMILIES:
        lam1, lam2 = eigenvalues_of(spec)
        total = lam1 + lam2
        tables = [b, [[total - v if r == c else -v for c, v in enumerate(row)]
                      for r, row in enumerate(b)]]
    elif fam is Family.EIGHT_III and ordering is not EigOrdering.SECOND:
        tables = [b, [[-t, 0, 0, q], [0, 1, -s * t, 0], [0, -s * t, 1, 0], [1 / q, 0, 0, -t]]]
    else:
        tables = [b, [[t, 0, 0, -q], [0, -1, s * t, 0], [0, s * t, -1, 0], [-1 / q, 0, 0, t]]]
    if fam is Family.EIGHT_IV:
        tables.insert(1, [[1, 0, 0, -q], [0, 1, -s, 0], [0, -s, 1, 0], [-1 / q, 0, 0, 1]])
    rows = reference_pattern_rows(tables)
    if fam is Family.EIGHT_IV:
        np.multiply(np.array((1 + t, 2 * t, 1 - t))[:, None], rows, out=rows)
    return rows


def reference_braid_rows(family, q, t, s):
    reference_non_finite(q=q, t=t)
    w = reference_pattern_rows([_braid_table(family, q, t, s)])[0]
    return w / np.sqrt(2) if family is Family.BELL_PHI else w


# ---------------------------------------------------------------------------

def bits(a):
    """The bits of a float or complex array, each component as one uint64."""
    a = np.ascontiguousarray(a)
    assert a.dtype in (np.float64, np.complex128), a.dtype
    return a.view(np.uint64)


def assert_bitwise(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    if got.dtype.kind == "i":
        assert np.array_equal(got, want)
    else:
        assert np.array_equal(bits(got), bits(want))


def draws(family, n, seed, imaginary_t=False):
    """(the FamilySpecs and generator after ``sample_specs``, the reference's (q, t, s) and
    generator), from two generators of one seed."""
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    specs = sample_specs(family, rng, n, imaginary_t)
    return specs, rng, reference_sample_specs(family, ref_rng, n, imaginary_t), ref_rng


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("family,imaginary_t", [*((f, False) for f in Family),
                                                (Family.EIGHT_IV, True)],
                         ids=lambda v: getattr(v, "value", "imaginary-t" if v is True else "t"))
def test_the_draw_is_bitwise_the_reference(family, imaginary_t, n):
    for seed in SEEDS:
        specs, rng, (q, t, s), ref_rng = draws(family, n, seed, imaginary_t)
        for got, want in zip(specs.parameters(), (q, t, s)):
            assert_bitwise(got, want)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        # the stream continues where the reference's does
        assert_bitwise(rng.uniform(size=3), ref_rng.uniform(size=3))


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("family,ordering", PAIRS,
                         ids=lambda v: getattr(v, "value", str(v)))
def test_the_coefficient_rows_are_bitwise_the_reference(family, ordering, n):
    for seed in SEEDS:
        specs, _, (q, t, s), _ = draws(family, n, seed)
        want = reference_table_rows(FamilySpecs(family, q, t, s), ordering)
        assert_bitwise(_coefficient_rows(specs, ordering), want)


@pytest.mark.parametrize("n", SIZES)
def test_the_imaginary_t_rows_are_bitwise_the_reference(n):
    for seed in SEEDS:
        specs, _, (q, t, s), _ = draws(Family.EIGHT_IV, n, seed, imaginary_t=True)
        want = reference_table_rows(FamilySpecs(Family.EIGHT_IV, q, t, s), None)
        assert_bitwise(_coefficient_rows(specs), want)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
def test_the_braid_rows_are_bitwise_the_reference(family, n):
    for seed in SEEDS:
        specs, _, (q, t, s), _ = draws(family, n, seed)
        got = braid_rows(family, specs.q, specs.t, specs.s)
        assert isinstance(got, WeightRows)
        assert_bitwise(got.w, reference_braid_rows(family, q, t, s))


#: points whose q or t is a complex number with a zero imaginary part, where B's weights
#: 0 - w and the reference's -w differ in the sign of that zero
REAL_POINTS = [FamilySpec.six_nonstd(q=1), FamilySpec.six_std(gamma=-0.4),
               FamilySpec.eight1(q=1), FamilySpec.eight1(phi=0.0, sign=Sign.MINUS),
               FamilySpec.eight2(t=1.5, q=1), FamilySpec.eight2(t=-1.7, q=-1, sign=Sign.MINUS),
               FamilySpec.eight1(phi=0.9), FamilySpec.eight2(t=1.7, q=np.exp(-0.4j))]


@pytest.mark.parametrize("spec", REAL_POINTS, ids=lambda s: f"{s.family.value}-{s.q}-{s.t}")
def test_R_on_the_table_is_bitwise_the_reference_where_B_differs_in_a_zero(spec):
    # A's weight is +0 where B's zero changes sign, and A + x B takes its sign from A
    x = np.array([0.5, -2.0, 1.0, -1.0, 0.0, 1j, -1j, np.exp(0.7j), 0.3 - 0.9j])
    for stack in (spec, FamilySpecs.from_specs([spec] * 3)):
        want = reference_table_rows(stack, None)
        got = _coefficient_rows(stack)
        assert np.array_equal(got, want)  # equal as numbers; the bits may differ in a zero
        if isinstance(stack, FamilySpec):
            got, want = got[..., None], want[..., None]  # against every x
            values = x
        else:
            values = x[:3]
        assert_bitwise(_polynomial(got, values, 1.0), _polynomial(want, values, 1.0))


# ---------------------------------------------------------------------------
# The spec check names the first failing sample as the reference's checks do.

def reference_spec_error(q, t) -> str:
    try:
        reference_non_finite(q=q, t=t)
    except ValueError as err:
        return str(err)
    return _first_failure(q != 0, "deformation parameter q must be nonzero", q)


@pytest.mark.parametrize("q_bad,t_bad", [
    ({4: np.nan}, {}), ({}, {2: np.inf}), ({1: 0}, {}), ({5: complex(0, np.inf)}, {2: np.nan}),
    ({3: 0, 6: np.nan}, {}), ({0: 0}, {7: -np.inf}), ({2: 0, 3: 0}, {}),
    ({7: complex(np.nan, 1)}, {0: np.inf}), ({}, {1: np.nan, 6: np.inf}),
], ids=str)
def test_the_spec_check_names_the_reference_sample(q_bad, t_bad):
    specs = sample_specs(Family.EIGHT_III, np.random.default_rng(5), 8)
    q, t = specs.q.copy(), specs.t.copy()
    for k, v in q_bad.items():
        q[k] = v
    for k, v in t_bad.items():
        t[k] = v
    message = reference_spec_error(q, t)
    assert message
    with pytest.raises(ValueError) as err:
        FamilySpecs(Family.EIGHT_III, q, t, specs.s)
    assert str(err.value) == message


@pytest.mark.parametrize("where,k,v,message", [
    ("q", 1, complex(np.nan, 0), "q must be finite, got (nan+0j)"),
    ("q", 2, complex(0, np.inf), "q must be finite, got infj"),
    ("t", 3, np.inf, "t must be finite, got inf"),
    ("t", 0, np.nan, "t must be finite, got nan"),
    ("q", 0, 0, "deformation parameter q must be nonzero"),
], ids=lambda v: str(v))
def test_the_spec_messages_are_pinned(where, k, v, message):
    params = {"q": np.exp(1j * np.arange(4.0)), "t": np.full(4, 1.5)}
    params[where][k] = v
    with pytest.raises(ValueError) as err:
        FamilySpecs(Family.EIGHT_II, params["q"], params["t"], np.ones(4, dtype=int))
    assert str(err.value) == message


def test_the_single_spec_messages_are_pinned():
    with pytest.raises(ValueError, match=r"^q must be finite, got \(nan\+0j\)$"):
        FamilySpec(Family.EIGHT_II, q=complex(np.nan, 0))
    with pytest.raises(ValueError, match=r"^t must be finite, got \(-inf\+0j\)$"):
        FamilySpec(Family.EIGHT_II, t=-np.inf)
    with pytest.raises(ValueError, match="^deformation parameter q must be nonzero$"):
        FamilySpec(Family.EIGHT_II, q=0)


# ---------------------------------------------------------------------------
# Fail closed: imaginary t is drawn for eight4 only.

@pytest.mark.parametrize("family", [f for f in Family if f is not Family.EIGHT_IV],
                         ids=lambda f: f.value)
def test_imaginary_t_off_eight4_is_a_value_error_that_names_the_family(family):
    rng = np.random.default_rng(9)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=f"imaginary t .*{family.value}"):
        sample_specs(family, rng, 10, imaginary_t=True)
    assert rng.bit_generator.state == state  # refused before any draw
    with pytest.raises(ValueError, match=family.value):
        unitarity_job(family, 10, 9, imaginary_t=True)
    with pytest.raises(ValueError, match=family.value):
        scan_unitarity(family, samples=10, seed=9, imaginary_t=True)
