"""Residual checkers: braid relation, QYBE in three parametrizations, unitarity, rho.

The braid relation and the QYBE are one three-strand identity on C^8 with one
kernel, ``linalg.strand_gap(a, c, d)``: the braid residual is (b, b, b), the
QYBE residual R_1(x) R_2(x o y) R_1(y) - R_2(y) R_1(x o y) R_2(x) is
(R(x), R(x o y), R(y)), where x o y is xy, theta1 + theta2 or (u + v)/(1 + uv).
Unitarity is checked as R(x) R(x)^dag = rho * 1 with rho > 0 the family's
normalization factor; rho^{-1/2} R(x) is the physical gate. Its kernel,
``unitarity_residual``, and ``inverse_unitarity`` read eight-vertex matrices with
``linalg.weights`` and multiply them with ``linalg.block_product``, block by block.
Every kernel takes a dense matrix from outside, read and checked once, or a stack
as ``linalg.WeightRows``.
The closed-form rho per family (stated for each family's reference gauge,
``baxterize.reference_gauge``) is:

    six-vertex    sinh^2 gamma + sin^2 theta      (x = e^{2 i theta}, q = e^gamma;
                                                   the x-form is 2 e^{i theta} times the
                                                   trigonometric form, so a factor 4)
    eight1        2 (1 + x^2)                     (real x)
    eight2        4 + (t-1)^2 (2 - x - xbar)      (|x| = |q| = 1, real t)
    eight3        t^2 (2 - x - xbar) + 2 + x + xbar
    eight4        |g2|^2 = 2(1+t^2) - (1-t^2)(x + xbar)   for real t, |x| = 1
                  |g2|^2 = (1-x)^2 + |t|^2 (1+x)^2        for imaginary t, real x
                  (stated for the g-normalized view; the canonical matrix
                   carries the extra factor |g1|^2)

The seeded scans draw each parameter for all of their samples at once, in a
fixed RNG order (``sample_specs``: the sign, then gamma or t with its sign,
then phi; ``sample_x``; ``sample_spec`` is the n = 1 case), then evaluate
every sample in one call of the same kernels. The stacks travel as weight rows,
eight-vertex by construction, from the builders to the kernels, with no dense
stack, gather or pattern check between: every stacked R(x) is
``baxterize.R_rows``, the gauge times the exact polynomial A + x (B + x C) on the
weight rows of the one coefficient table. ``scan_qybe`` builds R(x),
R(x o y) and R(y) as one (3, n) stack, ``scan_unitarity`` one stack over
``FamilySpecs`` with its closed-form rho from ``norm_factor`` and R^dag as the
adjoint rows (``linalg.dagger``), and ``family_inverse_unitarity`` takes an array
of x and builds R(x) and R(1/x) as two stacks; ``scan_braid`` builds one
``catalog.braid_rows`` stack. ``family_builder`` returns the dense edge of the
same builds. The closed forms take (spec, kind, value),
with a FamilySpec or FamilySpecs and a number or an array; ``build_b``,
``build_R`` and ``matrix_norm_factor`` are the single-point calls, and the
single-point checks run the same kernels on one matrix.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .baxterize import (
    EigOrdering,
    R_rows,
    SpectralPoint,
    build_R,
    compose_u,
    family_x,
    g_factors,
    gauge,
    reference_gauge,
)
from .catalog import (THREE_EIGENVALUE_FAMILIES, DomainError, Family, FamilySpec, FamilySpecs, Sign,
                      braid_residual, braid_rows, domain_violation, finite_rho, gamma_of, is_imag)
from .linalg import (MAX_ENTRY, WeightRows, block_product, dagger, defect, stacks, strand_gap,
                     weights)

#: pass thresholds of the residual checks, shared by the scans, the suite and the CLI.
TOLERANCES = {"braid": 1e-11, "qybe": 1e-9, "unitarity": 1e-10, "inverse-unitarity": 1e-9}


class DegenerateNormalizationError(ValueError):
    """The estimated normalization factor is not positive."""


class NotProportionalError(ValueError):
    """A product expected to be a multiple of the identity is not."""


def qybe_residual(builder: Callable[[complex], np.ndarray], a: complex, b: complex,
                  compose: Callable[[complex, complex], complex] = operator.mul):
    """QYBE R1(a) R2(a o b) R1(b) = R2(b) R1(a o b) R2(a), with each R built once.

    ``compose`` is the parametrization's composition law o: ``operator.mul``
    for x, ``operator.add`` for theta (the multiplicative law at x = e^{i k theta})
    and ``compose_u`` for u. The right-hand side carries the swapped arguments;
    the variant with a and b in display order fails by O(1) for every family here.
    Arrays a and b give one residual per pair from one builder call on the stacked
    values (a, a o b, b).
    """
    if np.ndim(a) == 0 and np.ndim(b) == 0:
        return strand_gap(builder(a), builder(compose(a, b)), builder(b))
    return strand_gap(*builder(np.stack(np.broadcast_arrays(a, compose(a, b), b))))


def family_builder(
    spec: FamilySpec,
    kind: str = "x",
    ordering: EigOrdering | None = None,
    form: str = "canonical",
) -> Callable[[complex], np.ndarray]:
    """R-matrix builder for one family, parametrized by x, theta or u.

    A scalar value gives ``build_R`` at that point, an array of values the
    (n, 4, 4) stack of ``build_R_stack``. An entry above ``linalg.MAX_ENTRY``,
    where the residual products would overflow, is a DomainError.
    """
    build = _row_builder(spec, kind, ordering, form)
    return lambda value: build(value) if np.ndim(value) == 0 else build(value).dense()


def _row_builder(spec: FamilySpec, kind: str, ordering: EigOrdering | None = None,
                 form: str = "canonical") -> Callable:
    """``family_builder`` with an array of values built as ``WeightRows``, the form the
    stacked kernels take: the builder of the scans."""
    def build(value):
        if np.ndim(value) == 0:
            r = build_R(spec, SpectralPoint(kind, complex(value)), ordering=ordering, form=form)
        else:
            r = R_rows(spec, kind, value, ordering=ordering, form=form)
        return _bounded(r, spec, kind, value)
    return build


def _bounded(r, spec: FamilySpec, kind: str, value):
    """``r``, one matrix or ``WeightRows``, if no entry exceeds ``MAX_ENTRY``; else a
    DomainError naming the parameters of the first matrix that does."""
    if isinstance(r, WeightRows):
        peaks = np.abs(r.w).max(axis=0, initial=0.0).ravel()
    else:
        peaks = np.abs(r).max(axis=(-2, -1), initial=0.0).ravel()
    over = np.flatnonzero(~(peaks <= MAX_ENTRY))  # a NaN entry is over, too
    if over.size == 0:
        return r
    k = over[0]
    names = ("q", "t") if spec.family in (Family.EIGHT_II, *THREE_EIGENVALUE_FAMILIES) else ("q",)
    params = [f"{name} = {_cstr(getattr(spec, name))}" for name in names]
    params.append(f"{kind} = {_cstr(np.ravel(value)[k])}")
    raise DomainError(f"{spec.family.value} at {', '.join(params)}: an R-matrix entry reaches "
                      f"{peaks[k]:.3g}, above the {MAX_ENTRY:.3g} up to which the residual "
                      "products stay finite")


def unitarity_residual(r: np.ndarray, rconj: np.ndarray):
    """(rho_est, residual) for R(x) R^dag(xbar) = rho * 1 with rconj = R^dag(xbar): rho_est
    = tr(R rconj) / 4 and residual = ||R rconj - rho_est 1||_F + ||rconj R - rho_est 1||_F.
    Two matrices give two floats; (..., 4, 4) stacks broadcast and give two arrays, and so
    do ``WeightRows`` of one shape.

    A dense R and rconj must be eight-vertex (``linalg.weights`` raises on an entry off the
    pattern), and so is each product: 8 complex multiplies a 2x2 block, and a norm over the
    8 entries inside the blocks. A NaN weight gives a NaN residual. A rho_est that is not
    positive is a DegenerateNormalizationError.

    One formula, ``linalg.block_product`` and ``linalg.defect``, in two arithmetics: Python
    complex numbers block by block for one matrix, and for a stack (4, block, side, n) entry
    rows that hold both blocks of R rconj and of rconj R at once.
    """
    (r, rconj), shape = stacks(r, rconj)
    if not shape:
        (xo, xi), (yo, yi) = ((m[0::2], m[1::2]) for m in weights(
            "unitarity_residual", ("r", "rconj"), r, rconj))
        mo, mi = block_product(xo, yo), block_product(xi, yi)
        rho = ((mo[0] + mo[3]) + (mi[0] + mi[3])).real / 4.0
        res = (math.sqrt(defect(mo, rho) + defect(mi, rho))
               + math.sqrt(defect(block_product(yo, xo), rho)
                           + defect(block_product(yi, xi), rho)))
    else:
        x = np.stack(weights("unitarity_residual", ("r", "rconj"), r, rconj), axis=1)
        x = x.reshape(4, 2, 2, -1)  # (entry, block, side, n)
        m = block_product(x, x[:, :, ::-1])  # side 0 is R rconj, side 1 rconj R
        rho = (m[0][:, 0] + m[3][:, 0]).sum(axis=0).real / 4.0
        res = np.sqrt(defect(m, rho).sum(axis=0)).sum(axis=0)
        rho, res = rho.reshape(shape), res.reshape(shape)
    if np.any(rho <= 0):
        raise DegenerateNormalizationError(f"estimated rho = {np.nanmin(rho):.3e} is not positive")
    return rho, res


def conjugate_partner(
    spec: FamilySpec,
    p: SpectralPoint,
    ordering: EigOrdering | None = None,
    form: str = "canonical",
) -> np.ndarray:
    """R^dag(xbar), the Hermitian adjoint of the built matrix R(x)."""
    return dagger(build_R(spec, p, ordering=ordering, form=form))


def unitarity_gap(spec: FamilySpec, p: SpectralPoint) -> tuple[float, float]:
    """(gap, rho_est) for rho^{-1/2} R at one point of the family's unitary domain.

    The gap adds the relative residual of R R^dag = rho 1 and the relative
    distance of rho_est from the closed form, and is at least the unitarity
    defect of U = R / sqrt(rho_est): ||U U^dag - 1|| = ||R R^dag - rho_est 1|| / rho_est,
    a part of the relative residual. Off the domain a DomainError names the
    violated constraint, and a closed-form rho that overflows raises a
    DomainError before R is built; a non-finite residual gives a non-finite gap.
    """
    rho_ref = finite_rho(matrix_norm_factor(spec, p), f" at x = {family_x(spec, p.kind, p.value)}")
    gap, rho_est = _unitarity_gaps(build_R(spec, p), rho_ref)
    return float(gap), float(rho_est)


def _unitarity_gaps(r: np.ndarray, rho_ref):
    """(gap, rho_est) of ``unitarity_gap`` for one matrix, or arrays of them for an
    (n, 4, 4) stack or ``WeightRows``, with ``rho_ref`` the closed-form rho of each matrix;
    a non-finite ``rho_ref`` gives a NaN gap."""
    rho_est, res = unitarity_residual(r, dagger(r))
    return res / rho_est + abs(rho_est - rho_ref) / rho_ref, rho_est


def rho_formula(spec: FamilySpec | FamilySpecs, kind: str, value):
    """The closed-form rho of the module docstring at the spec's parameters and a ``kind``
    view value; FamilySpecs or an array of values give one rho per sample. Off the domain
    a DomainError names the violated constraint (at the first violating sample).

    Squares are written as products so that an overflow gives inf, not an
    OverflowError.
    """
    return _rho_at(spec, family_x(spec, kind, value))


def _rho_at(spec: FamilySpec | FamilySpecs, x):
    """``rho_formula`` at the multiplicative x of the point (or of each sample)."""
    fam = spec.family
    q, t, _ = spec.parameters()
    violation = domain_violation(fam, q, t, x)
    if violation is not None:
        raise DomainError(violation)
    rex = x.real
    if fam in (Family.SIX_NONSTD, Family.SIX_STD):
        sh = np.sinh(gamma_of(q))
        sh = sh if sh.ndim else float(sh)  # a float square overflows to inf without a warning
        return sh * sh + (2.0 - 2.0 * rex) / 4.0  # sin^2 theta for x = e^{2 i theta}
    if fam is Family.EIGHT_I:
        return 2.0 * (1.0 + rex * rex)
    if fam is Family.EIGHT_II:
        tr = t.real
        return 4.0 + (tr - 1.0) * (tr - 1.0) * (2.0 - 2.0 * rex)
    if fam is Family.EIGHT_III:
        tr = t.real
        return tr * tr * (2.0 - 2.0 * rex) + 2.0 + 2.0 * rex
    if fam is Family.EIGHT_IV:
        g2 = abs(g_factors(spec, x)[1])
        return g2 * g2
    if fam is Family.BELL_PHI:
        return 1.0  # bell-phi braid matrices are exactly unitary
    raise ValueError(f"unknown family {fam.value}")


def matrix_norm_factor(spec: FamilySpec, p: SpectralPoint, form: str = "canonical") -> float:
    """rho of the matrix ``build_R(spec, p, form=form)`` emits: the closed-form
    rho times |gauge * reference_gauge|^2 from the gauge table (``norm_factor``)."""
    return float(norm_factor(spec, p.kind, p.value, form))


def norm_factor(spec: FamilySpec | FamilySpecs, kind: str, value, form: str = "canonical"):
    """``matrix_norm_factor`` at a ``kind`` view value, or one per sample of FamilySpecs or
    of an array of values."""
    return _normalization(spec, kind, value, form)[-1]


def _normalization(spec: FamilySpec | FamilySpecs, kind: str, value, form: str = "canonical"):
    """(x, gauge, reference gauge, rho) at a ``kind`` view value: ``family_x``, ``gauge``,
    ``reference_gauge`` and ``norm_factor``, each evaluated once and rho from that x."""
    x = family_x(spec, kind, value)
    view, ref = gauge(spec, kind, value, form), reference_gauge(spec, kind, value, form)
    g = abs(view * ref)
    return x, view, ref, g * g * _rho_at(spec, x)


def inverse_unitarity(builder: Callable[[complex], np.ndarray], x,
                      tol: float = TOLERANCES["inverse-unitarity"]):
    """Proportionality scalar of R(x) R(1/x), which must be a multiple of 1.

    An array of x gives one scalar per x from two builder stacks, R(x) and R(1/x), dense or
    ``WeightRows``; an x = 0, or a product not proportional to 1, at any entry is an error.
    Both must be eight-vertex (``linalg.weights``); their product is ``linalg.block_product``,
    block by block, on Python complex numbers for one x and on (n,) entry rows for a stack.
    """
    x = np.asarray(x)
    if np.any(x == 0):
        raise DomainError("inverse unitarity needs x != 0")
    (r, rinv), shape = stacks(builder(x), builder(1 / x))
    wr, wi = weights("inverse_unitarity", ("R(x)", "R(1/x)"), r, rinv)
    mo, mi = block_product(wr[0::2], wi[0::2]), block_product(wr[1::2], wi[1::2])
    scalar = ((mo[0] + mo[3]) + (mi[0] + mi[3])) / 4.0
    gap = np.sqrt(defect(mo, scalar) + defect(mi, scalar))
    proportional = gap <= tol * np.maximum(1.0, abs(scalar))
    if not proportional.all():
        raise NotProportionalError("R(x) R(1/x) is not proportional to 1: "
                                   f"gap {np.ravel(gap)[np.argmin(proportional)]:.3e}")
    return scalar.reshape(shape) if shape else scalar


def inverse_unitarity_expected(spec: FamilySpec, x: complex) -> complex:
    """Closed-form value of the R(x) R(1/x) scalar (g view for eight4)."""
    q, t = complex(spec.q), complex(spec.t)
    fam = spec.family
    s = x + 1 / x
    if fam in (Family.SIX_NONSTD, Family.SIX_STD):
        return q * q + 1 / (q * q) - s
    if fam is Family.EIGHT_I:
        return 2 * s
    if fam is Family.EIGHT_II:
        z2 = t * t - 2 * t + 2
        return 2 * (1 + z2) + (1 - z2) * s
    if fam is Family.EIGHT_III:
        return 2 * (1 + t * t) + (1 - t * t) * s
    if fam is Family.EIGHT_IV:
        return 2 * (1 + t * t) + (t * t - 1) * s
    raise ValueError(f"no inverse-unitarity closed form for {fam.value}")


def family_inverse_unitarity(spec: FamilySpec, x) -> tuple:
    """(measured, expected) inverse-unitarity scalar in the family's reference view; an
    array of x gives a pair of arrays, measured from one stack each of R(x) and R(1/x)."""
    form = "g" if spec.family is Family.EIGHT_IV else "canonical"
    measured = inverse_unitarity(_row_builder(spec, "x", form=form), x)
    return measured, inverse_unitarity_expected(spec, np.asarray(x) if np.ndim(x) else x)


@dataclass
class ResidualReport:
    residual: float
    tolerance: float
    passed: bool = field(init=False)
    worst_case: dict | None = None

    def __post_init__(self):
        self.passed = bool(self.residual < self.tolerance)


# ---------------------------------------------------------------------------
# Seeded domain scans.

def _draw_spec(family: Family, rng: np.random.Generator, size):
    """(q, t, sign factor) of random parameter points inside the family's unitary domain,
    each parameter drawn in one call of numpy's ``size``: the sign, then gamma or t with
    its sign, then phi. size None gives scalars, with the stream of size 1."""
    sign = 1 - 2 * rng.integers(2, size=size)
    if family in (Family.SIX_NONSTD, Family.SIX_STD):  # no sign, the default t
        gamma = rng.uniform(0.2, 1.5, size=size) * (1 - 2 * rng.integers(2, size=size))
        return np.exp(gamma), 2.0, 1
    if family in (Family.EIGHT_I, Family.BELL_PHI):
        return np.exp(-1j * rng.uniform(0.0, 2 * np.pi, size=size)), 2.0, sign
    # eight2/3/4: real t clear of the eigenvalue-collapse points {0, +-1}
    t = rng.uniform(1.2, 2.8, size=size) * (1 - 2 * rng.integers(2, size=size))
    return np.exp(-1j * rng.uniform(0.0, 2 * np.pi, size=size)), t, sign


def sample_specs(family: Family, rng: np.random.Generator, n: int,
                 imaginary_t: bool = False) -> FamilySpecs:
    """n random parameter points inside the family's unitary domain (``_draw_spec``).

    ``imaginary_t`` turns eight4's t = +-(1.2 .. 2.8) into i t. A count below
    one gives no points.
    """
    q, t, sign = _draw_spec(family, rng, max(n, 0))
    if imaginary_t and family is Family.EIGHT_IV:
        t = 1j * t
    return FamilySpecs(family, q, np.broadcast_to(t, q.shape), np.broadcast_to(sign, q.shape))


def sample_x(spec: FamilySpec | FamilySpecs, rng: np.random.Generator, size=None):
    """Random x inside the unitary domain of the spec's family, in numpy's ``size`` (None:
    one scalar). eight4 with imaginary t (every t of FamilySpecs) takes its real-x branch."""
    family = spec.family
    if family in (Family.SIX_NONSTD, Family.SIX_STD):
        return np.exp(2j * rng.uniform(0.1, np.pi - 0.1, size=size))
    if family is Family.EIGHT_I or (family is Family.EIGHT_IV
                                    and np.all(is_imag(spec.parameters()[1]))):
        return rng.uniform(-2.5, 2.5, size=size)
    return np.exp(1j * rng.uniform(0.05, 2 * np.pi - 0.05, size=size))


def sample_spec(family: Family, rng: np.random.Generator) -> FamilySpec:
    """A random parameter point inside the family's unitary domain: the scalar draw of
    ``_draw_spec``, equal to ``sample_specs(family, rng, 1)[0]``."""
    q, t, sign = _draw_spec(family, rng, None)
    return FamilySpec(family, q=q.item(), t=float(t), sign=Sign.PLUS if sign > 0 else Sign.MINUS)


def worst(values, cases=None):
    """The largest of ``values``; with ``cases``, the pair (largest, its case).

    The one reduction behind every scan and suite criterion. A NaN counts as
    larger than any number, so it wins and then fails every ``< tol`` test;
    ties keep the first; an empty input raises ValueError, so no check (a
    scan with zero samples included) passes without a value.
    """
    a = np.asarray(values, dtype=float)
    if a.size == 0:
        raise ValueError("nothing to reduce: a check needs at least one sample")
    k = int(np.argmax(a))
    return float(a[k]) if cases is None else (float(a[k]), cases[k])


def scan_braid(family: Family, samples: int, seed: int,
               tol: float = TOLERANCES["braid"]) -> ResidualReport:
    """Max braid residual of the braid matrix over seeded parameter points."""
    specs = sample_specs(family, np.random.default_rng(seed), samples)
    b = braid_rows(family, specs.q, specs.t, specs.s)
    residual, k = worst(braid_residual(b), range(len(specs)))
    spec = specs[k]
    return ResidualReport(residual=residual, tolerance=tol, worst_case={
        "q": _cpair(spec.q), "t": _cpair(spec.t), "sign": spec.sign.value})


def _pairs(n: int | None) -> tuple:
    """The shape of n spectral pairs; None is one pair."""
    return (2,) if n is None else (max(n, 0), 2)


def _draw_u(spec: FamilySpec, rng: np.random.Generator, n: int | None = None) -> np.ndarray:
    """u pairs (a, b) with Re and Im in [-0.8, 0.8], drawn as rows (Re a, Im a, Re b, Im b)
    and kept clear of the composition pole 1 + ab = 0: the first n accepted rows."""
    want = 1 if n is None else max(n, 0)
    pairs = np.empty((0, 2), dtype=complex)
    while len(pairs) < want:  # draw only the rows still missing: the stream of one-by-one draws
        rows = rng.uniform(-0.8, 0.8, size=(want - len(pairs), 4)).view(complex)
        pairs = np.concatenate([pairs, rows[np.abs(1 + rows[:, 0] * rows[:, 1]) > 0.3]])
    return pairs.reshape(_pairs(n))


#: the parametrizations in which each R family has a QYBE composition law. The eight1
#: theta view is x = tan(theta), for which theta1 + theta2 is not one.
QYBE_PARAMETRIZATIONS = {
    Family.SIX_NONSTD: ("x", "theta"),
    Family.SIX_STD: ("x", "theta"),
    Family.EIGHT_I: ("x", "u"),
    Family.EIGHT_II: ("x", "theta", "u"),
    Family.EIGHT_III: ("x", "theta", "u"),
    Family.EIGHT_IV: ("x", "theta", "u"),
}

#: per parametrization kind: the seeded draw of n spectral pairs, an (n, 2) array (one
#: pair for n = None; n pairs continue the stream of n draws of one), and the composition law.
_QYBE_LAWS = {
    "x": (lambda spec, rng, n=None: sample_x(spec, rng, _pairs(n)), operator.mul),
    "theta": (lambda spec, rng, n=None: rng.uniform(-1.2, 1.2, size=_pairs(n)), operator.add),
    "u": (_draw_u, compose_u),
}


def scan_qybe(
    spec: FamilySpec,
    kind: str = "x",
    samples: int = 50,
    seed: int = 42,
    tol: float = TOLERANCES["qybe"],
    ordering: EigOrdering | None = None,
) -> ResidualReport:
    """Max QYBE residual over seeded spectral-parameter pairs, drawn and composed
    by the law of ``kind``: "x" (on the family's domain), "theta" or "u".

    A (family, kind) pair outside ``QYBE_PARAMETRIZATIONS`` is a ValueError.
    """
    kinds = QYBE_PARAMETRIZATIONS.get(spec.family, ())
    if kind not in kinds:
        raise ValueError(f"{spec.family.value} has no QYBE composition law in the {kind!r} "
                         f"parametrization; it has {', '.join(kinds) or 'none'}")
    draw, compose = _QYBE_LAWS[kind]
    rng = np.random.default_rng(seed)
    builder = _row_builder(spec, kind, ordering)
    pairs = np.asarray(draw(spec, rng, samples), dtype=complex)
    residual, (a, b) = worst(qybe_residual(builder, pairs[:, 0], pairs[:, 1], compose), pairs)
    return ResidualReport(residual=residual, tolerance=tol, worst_case={
        "first": _cpair(a), "second": _cpair(b), "kind": kind})


def scan_unitarity(
    family: Family,
    samples: int = 100,
    seed: int = 42,
    tol: float = TOLERANCES["unitarity"],
    imaginary_t: bool = False,
) -> ResidualReport:
    """Max deviation of rho^{-1/2} R(x) from unitarity over seeded domain points.

    Also cross-checks the estimated rho against the closed formula (through
    the gauge table); the worst residual covers both gaps.
    """
    rng = np.random.default_rng(seed)
    specs = sample_specs(family, rng, samples, imaginary_t)
    x = sample_x(specs, rng, len(specs))
    rho_ref = norm_factor(specs, "x", x)
    gaps, rho_est = _unitarity_gaps(R_rows(specs, "x", x), rho_ref)
    residual, k = worst(gaps, range(len(specs)))
    spec = specs[k]
    return ResidualReport(residual=residual, tolerance=tol, worst_case={
        "q": _cpair(spec.q), "t": _cpair(spec.t), "x": _cpair(x[k]),
        "sign": spec.sign.value, "rho": float(rho_est[k])})


def _cpair(z) -> list[float]:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def _cstr(z) -> str:
    z = complex(z)
    return f"{z.real:.6g}" if z.imag == 0 else f"{z:.6g}"
