"""The QYBE certificate: with R(x) = sum_k A_k x^k, the QYBE residual is the polynomial
sum_ij D_ij x^i y^j, and criterion 2 bounds it over |x|, |y| <= 1 from the D_ij of each
seeded parameter point's coefficient table. The theta and u views leave the suite: their
composition laws map to x y, which the laws test below checks."""

import numpy as np
import pytest

from yaxter import baxterize, suite
from yaxter.catalog import Family
from yaxter.linalg import WeightRows
from yaxter.baxterize import family_x
from yaxter.verify import (QYBE_PARAMETRIZATIONS, TOLERANCES, _QYBE_LAWS, _qybe_coefficients,
                           certify_qybe, qybe_bound, sample_specs)

E2 = np.eye(2, dtype=complex)


def dense_residual(a, c, d):
    """(a x 1)(1 x c)(d x 1) - (1 x d)(c x 1)(1 x a) on C^8, from two full products."""
    lhs = np.kron(a, E2) @ np.kron(E2, c) @ np.kron(d, E2)
    return lhs - np.kron(E2, d) @ np.kron(c, E2) @ np.kron(E2, a)


#: the 32 entries of C^8 whose row and column have equal parity, in row-major order: where
#: an eight-vertex residual can be nonzero, in the order of ``linalg._block_diffs``
PARITY = np.equal.outer(*[np.array([bin(k).count("1") % 2 for k in range(8)])] * 2)


def random_rows(rng, m, *shape):
    """(m, 8, *shape) complex Gaussian weight rows: no Yang-Baxter table."""
    return rng.standard_normal((m, 8, *shape)) + 1j * rng.standard_normal((m, 8, *shape))


@pytest.mark.parametrize("m", [2, 3])
def test_the_coefficients_sum_to_the_dense_residual(m):
    rng = np.random.default_rng(90 + m)
    for _ in range(10):
        rows = random_rows(rng, m)
        x, y = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        d, powers = _qybe_coefficients(rows)
        assert d.shape == (32, len(powers)) and len(powers) == {2: 7, 3: 19}[m]  # |i - j| < m
        got = (d * x ** powers[:, 0] * y ** powers[:, 1]).sum(axis=1)
        r = [WeightRows(sum(rows[k] * z ** k for k in range(m))).dense() for z in (x, x * y, y)]
        want = dense_residual(*r)
        scale = np.abs(want).max()
        assert scale > 1.0 and np.abs(want[~PARITY]).max() <= 1e-12 * scale
        assert np.abs(got - want[PARITY]).max() <= 1e-12 * scale


@pytest.mark.parametrize("m", [2, 3])
def test_the_coefficients_of_a_stack_are_those_of_its_items(m):
    rng = np.random.default_rng(95 + m)
    rows = random_rows(rng, m, 2, 3)
    d, powers = _qybe_coefficients(rows)
    assert d.shape == (32, len(powers), 2, 3)
    for i in range(2):
        for j in range(3):
            assert np.array_equal(d[..., i, j], _qybe_coefficients(rows[..., i, j])[0])


# one block holds 16 two-coefficient or 4 three-coefficient samples
@pytest.mark.parametrize("m,n", [(2, 1), (2, 16), (2, 17), (2, 50), (3, 4), (3, 5), (3, 13),
                                 (3, 30)])
def test_the_bound_in_blocks_is_bitwise_the_bound_of_each_sample(m, n):
    rows = random_rows(np.random.default_rng(100 + n), m, n)
    bounds = qybe_bound(rows)
    assert bounds.shape == (n,)
    for k in range(n):
        assert bounds[k] == qybe_bound(rows[..., k:k + 1])[0] == qybe_bound(rows[..., k])
    assert (bounds > 1e-3).all()  # random tables are no Yang-Baxter tables


def test_a_nan_weight_gives_a_nan_bound_for_its_sample_only():
    rows = random_rows(np.random.default_rng(7), 2, 40)
    rows[1, 5, 33] = np.nan
    bounds = qybe_bound(rows)
    assert np.isnan(bounds[33]) and np.isfinite(np.delete(bounds, 33)).all()


PAIR_IDS = [f"{f.value}-{o.value if o else 'default'}" for f, o in suite.QYBE_PAIRS]


@pytest.mark.parametrize("family,ordering", suite.QYBE_PAIRS, ids=PAIR_IDS)
def test_every_table_is_certified_at_its_seeded_points(family, ordering):
    specs = sample_specs(family, np.random.default_rng(61), 300)
    bounds = certify_qybe(specs, ordering)
    assert bounds.shape == (300,) and bounds.max() < 1e-15
    one = certify_qybe(specs[0], ordering)
    assert isinstance(one, float) and one == pytest.approx(bounds[0], rel=1e-6, abs=1e-17)


# ---------------------------------------------------------------------------
# A table of single-sign flips: every weight of every coefficient row A, B and C of every
# family and ordering, applied through the ``_coefficient_rows`` seam. A flip of a 0 entry
# changes nothing; every other flip fails criterion 2 and names its pair.

def _flips():
    for family, ordering in suite.QYBE_PAIRS:
        m = len(baxterize._coefficient_rows(suite.representative_spec(family), ordering))
        for coeff in range(m):
            for w in range(8):
                yield family, ordering, coeff, w


FLIPS = list(_flips())


@pytest.mark.parametrize("family,ordering,coeff,w", FLIPS,
                         ids=[f"{f.value}-{o.value if o else 'default'}-{'ABC'[c]}{w}"
                              for f, o, c, w in FLIPS])
def test_a_single_sign_flip_of_a_coefficient_fails_criterion_2(monkeypatch, family, ordering,
                                                               coeff, w):
    exact, zero = baxterize._coefficient_rows, []

    def flipped(spec, ordering_=None):
        rows = exact(spec, ordering_)
        if spec.family is family and ordering_ is ordering:
            rows = rows.copy()
            zero.append(not rows[coeff, w].any())
            rows[coeff, w] *= -1
        return rows

    monkeypatch.setattr(suite, "_coefficient_rows", flipped)
    entry = suite.criterion_qybe(42)
    assert len(zero) == 1
    if zero[0]:  # the flip leaves the table as it is: an equivalent mutant
        assert entry["pass"]
        return
    assert entry["pass"] is False and entry["max_bound"] > 1e3 * TOLERANCES["qybe"]
    assert entry["worst_case"] == {"family": family.value,
                                   "ordering": ordering.value if ordering else None}


def test_the_flip_table_has_its_zero_entries_only_in_the_six_vertex_tables():
    # six-vertex b is 0 at (0, 3) and (3, 0), and its B has one more 0 on the diagonal
    zeros = [(f, o, c, w) for f, o, c, w in FLIPS
             if not baxterize._coefficient_rows(suite.representative_spec(f), o)[c, w]]
    assert len(FLIPS) == 6 * 16 + 24 and len(zeros) == 12
    assert {f for f, *_ in zeros} == {Family.SIX_NONSTD, Family.SIX_STD}


# ---------------------------------------------------------------------------
# The composition laws of the theta and u views, which the x certificate covers: each maps
# a o b to the product of the x's. The view gauges are scalars and cancel between the sides.

VIEWS = [(family, kind) for family, kinds in QYBE_PARAMETRIZATIONS.items()
         for kind in kinds if kind != "x"]


@pytest.mark.parametrize("family,kind", VIEWS, ids=[f"{f.value}-{k}" for f, k in VIEWS])
def test_a_composition_law_is_multiplication_of_x(family, kind):
    spec = suite.representative_spec(family)
    draw, compose = _QYBE_LAWS[kind]
    pairs = np.asarray(draw(spec, np.random.default_rng(67), 200), dtype=complex)
    a, b = pairs[:, 0], pairs[:, 1]
    composed = family_x(spec, kind, compose(a, b))
    product = family_x(spec, kind, a) * family_x(spec, kind, b)
    assert (np.abs(composed - product) <= 1e-13 * np.abs(product)).all()
