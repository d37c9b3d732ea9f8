"""Residual checkers: braid relation, QYBE in three parametrizations, unitarity, rho.

The braid relation and the QYBE are one three-strand identity on C^8 with one
kernel, ``linalg.strand_gap(a, c, d)``: the braid residual is (b, b, b), the
QYBE residual R_1(x) R_2(x o y) R_1(y) - R_2(y) R_1(x o y) R_2(x) is
(R(x), R(x o y), R(y)), where x o y is xy, theta1 + theta2 or (u + v)/(1 + uv).
The same kernel, before its norm (``linalg._block_diffs``), certifies the QYBE of a
whole coefficient table: ``certify_qybe`` bounds the residual polynomial on all of
|x|, |y| <= 1 from its coefficients (``qybe_bound``). Unitarity is checked as
R(x) R(x)^dag = rho * 1 with rho > 0 the family's normalization factor;
rho^{-1/2} R(x) is the physical gate. Its kernel,
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
then phi; ``sample_x``; ``sample_spec`` is the n = 1 case), and build their rows in
one call: a scan's job (``braid_job``, ``qybe_job``, ``unitarity_job``). ``scan_gaps``
runs the one kernel of a list of jobs, whole jobs grouped into calls of at most a fixed
number of samples, so a suite criterion evaluates all of its families in one pass; a scan
is the pass over its one job, reduced by ``worst``. The stacks travel as weight rows,
eight-vertex by construction, from the builders to the kernels, with no dense stack,
gather or pattern check between. Every R(x), stacked or single, is ``baxterize.R_rows``,
the gauge times the exact polynomial A + x (B + x C) on the weight rows of the one
coefficient table: ``scan_qybe`` builds R(x), R(x o y) and R(y) as one (3, n) stack,
``scan_unitarity`` one stack over ``FamilySpecs`` with R^dag as the adjoint rows
(``linalg.dagger``), and ``family_inverse_unitarity`` R(x) and R(1/x) as two; the
single-point checks take ``baxterize.build_R``, its dense edge at one point, and run the
same kernels on one matrix. The closed forms take (spec, kind, value), with a FamilySpec
or FamilySpecs and a number or an array.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .baxterize import (
    EigOrdering,
    R_rows,
    SpectralPoint,
    _coefficient_rows,
    build_R,
    compose_u,
    family_x,
    g_factors,
    gauge,
    reference_gauge,
)
from .catalog import (THREE_EIGENVALUE_FAMILIES, DomainError, Family, FamilySpec, FamilySpecs, Sign,
                      braid_residual, braid_rows, domain_violation, finite_rho, gamma_of, is_imag)
from .linalg import (_BLOCK, MAX_ENTRY, WeightRows, _block_diffs, block_product, dagger, defect,
                     stacks, strand_gap, weights)

#: pass thresholds of the residual checks, shared by the scans, the suite and the CLI.
TOLERANCES = {"braid": 1e-11, "qybe": 1e-9, "unitarity": 1e-10, "inverse-unitarity": 1e-9}


class DegenerateNormalizationError(ValueError):
    """The estimated normalization factor is not positive."""


class NotProportionalError(ValueError):
    """A product expected to be a multiple of the identity is not."""


def qybe_residual(builder: Callable[[complex], np.ndarray], a: complex, b: complex,
                  compose: Callable[[complex, complex], complex] = operator.mul):
    """QYBE R1(a) R2(a o b) R1(b) = R2(b) R1(a o b) R2(a), from one builder call on the
    stacked values (a, a o b, b), whose stack of three it splits: a float for numbers a
    and b, one residual per pair for arrays.

    ``compose`` is the parametrization's composition law o: ``operator.mul``
    for x, ``operator.add`` for theta (the multiplicative law at x = e^{i k theta})
    and ``compose_u`` for u. The right-hand side carries the swapped arguments;
    the variant with a and b in display order fails by O(1) for every family here.
    """
    return strand_gap(*builder(_composed(a, b, compose)))


def _composed(a, b, compose) -> np.ndarray:
    """The (3, n) values (a, a o b, b) of n spectral pairs, one QYBE triple a column."""
    return np.stack(np.broadcast_arrays(a, compose(a, b), b))


def _row_builder(spec: FamilySpec, kind: str, ordering: EigOrdering | None = None,
                 form: str = "canonical") -> Callable:
    """The R-matrix builder of the scans: ``R_rows`` at a ``kind`` value or an array of them,
    or a DomainError naming the parameters of the first matrix with an entry above
    ``MAX_ENTRY``, where the residual products would overflow."""
    def build(value):
        with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN fail below
            r = R_rows(spec, kind, value, ordering=ordering, form=form)
        peaks = np.abs(r.w).max(axis=0, initial=0.0).ravel()
        over = np.flatnonzero(~(peaks <= MAX_ENTRY))  # a NaN entry is over, too
        if over.size == 0:
            return r
        k = over[0]
        names = "qt" if spec.family in (Family.EIGHT_II, *THREE_EIGENVALUE_FAMILIES) else "q"
        params = [f"{name} = {_cstr(getattr(spec, name))}" for name in names]
        params.append(f"{kind} = {_cstr(np.ravel(value)[k])}")
        raise DomainError(f"{spec.family.value} at {', '.join(params)}: an R-matrix entry reaches "
                          f"{peaks[k]:.3g}, above the {MAX_ENTRY:.3g} up to which the residual "
                          "products stay finite")
    return build


#: columns per block of a stacked ``unitarity_residual``: its (8, 2, n) operand rows take
#: 256 bytes a column, 100 KB at 400, under glibc's 128 KiB mmap threshold, and a 300-sample
#: scan is one block
_UNITARITY_BLOCK = 400


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
    rows that hold both blocks of R rconj and of rconj R at once, in blocks of
    ``_UNITARITY_BLOCK`` matrices. The one-matrix arithmetic stays: one matrix run as a
    stack of one took the bench ``sweep`` op 28-33 % more CPU time.
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
        if len(r) <= _UNITARITY_BLOCK:
            rho, res = _unitarity_block(r, rconj, 0)
        else:
            rho, res = map(np.concatenate, zip(*(
                _unitarity_block(r[k:k + _UNITARITY_BLOCK], rconj[k:k + _UNITARITY_BLOCK], k)
                for k in range(0, len(r), _UNITARITY_BLOCK))))
        rho, res = rho.reshape(shape), res.reshape(shape)
    if (rho <= 0).any() if shape else rho <= 0:  # one matrix's rho is a Python float
        raise DegenerateNormalizationError(f"estimated rho = {np.nanmin(rho):.3e} is not positive")
    return rho, res


def _unitarity_block(r, rconj, start: int) -> tuple:
    """(rho_est, residual) of ``unitarity_residual`` for one block of a stack, whose first
    matrix is at index ``start``."""
    x = np.stack(weights("unitarity_residual", ("r", "rconj"), r, rconj, start=start), axis=1)
    x = x.reshape(4, 2, 2, -1)  # (entry, block, side, n)
    m = block_product(x, x[:, :, ::-1])  # side 0 is R rconj, side 1 rconj R
    rho = (m[0][:, 0] + m[3][:, 0]).sum(axis=0).real / 4.0
    return rho, np.sqrt(defect(m, rho).sum(axis=0)).sum(axis=0)


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
    ``reference_gauge`` and ``norm_factor``, each evaluated once, and the reference gauge and
    rho from that x."""
    x = family_x(spec, kind, value)
    view, ref = gauge(spec, kind, value, form), reference_gauge(spec, kind, value, form, x)
    g = abs(view * ref)
    return x, view, ref, g * g * _rho_at(spec, x)


def inverse_unitarity(builder: Callable[[complex], np.ndarray], x,
                      tol: float = TOLERANCES["inverse-unitarity"]):
    """Proportionality scalar of R(x) R(1/x), which must be a multiple of 1.

    The scalars come in the shape of x, from two builder stacks, R(x) and R(1/x), dense or
    ``WeightRows``; an x = 0, or a product not proportional to 1, at any entry is an error.
    Both must be eight-vertex (``linalg.weights``); their product is ``linalg.block_product``,
    block by block, on Python complex numbers for one dense matrix and on entry rows else.
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
    return np.reshape(scalar, shape)


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


class ScanJob(NamedTuple):
    """One seeded scan up to its kernel: the seeded draw and the row build, done.

    ``operands`` hold the samples on their last axis; ``kernel`` maps operands to per-sample
    arrays, the gaps first; ``chunk`` is the most samples of grouped jobs a pass gives the
    kernel in one call, the kernel's own block (``linalg._BLOCK`` for ``strand_gap``), so a
    group is never split again; ``case(k, *outputs)`` is the report's worst case at sample
    k, from the draw and the kernel's other outputs.
    """

    kernel: Callable
    chunk: int
    operands: tuple
    case: Callable

    @property
    def samples(self) -> int:
        return self.operands[0].shape[-1]


def _braid_kernel(w):
    return (braid_residual(WeightRows(w)),)


def _qybe_kernel(w):
    return (strand_gap(*WeightRows(w)),)


def _unitarity_kernel(w, rho_ref):
    return _unitarity_gaps(WeightRows(w), rho_ref)


def braid_job(family: Family, samples: int, seed: int) -> ScanJob:
    """The job of ``scan_braid``: seeded parameter points and their braid matrices as rows."""
    specs = sample_specs(family, np.random.default_rng(seed), samples)

    def case(k):
        spec = specs[k]
        return {"q": _cpair(spec.q), "t": _cpair(spec.t), "sign": spec.sign.value}
    rows = braid_rows(family, specs.q, specs.t, specs.s)
    return ScanJob(_braid_kernel, _BLOCK, (rows.w,), case)


def qybe_job(spec: FamilySpec, kind: str = "x", samples: int = 50, seed: int = 42,
             ordering: EigOrdering | None = None) -> ScanJob:
    """The job of ``scan_qybe``: seeded spectral pairs and R(a), R(a o b), R(b) as one (3, n)
    stack of rows, under the entry bound. A (family, kind) pair outside
    ``QYBE_PARAMETRIZATIONS`` is a ValueError."""
    kinds = QYBE_PARAMETRIZATIONS.get(spec.family, ())
    if kind not in kinds:
        raise ValueError(f"{spec.family.value} has no QYBE composition law in the {kind!r} "
                         f"parametrization; it has {', '.join(kinds) or 'none'}")
    draw, compose = _QYBE_LAWS[kind]
    pairs = np.asarray(draw(spec, np.random.default_rng(seed), samples), dtype=complex)
    rows = _row_builder(spec, kind, ordering)(_composed(pairs[:, 0], pairs[:, 1], compose))

    def case(k):
        return {"first": _cpair(pairs[k, 0]), "second": _cpair(pairs[k, 1]), "kind": kind}
    return ScanJob(_qybe_kernel, _BLOCK, (rows.w,), case)


def unitarity_job(family: Family, samples: int = 100, seed: int = 42,
                  imaginary_t: bool = False) -> ScanJob:
    """The job of ``scan_unitarity``: seeded domain points, R(x) as rows and the closed-form
    rho of each (through the gauge table)."""
    rng = np.random.default_rng(seed)
    specs = sample_specs(family, rng, samples, imaginary_t)
    x = sample_x(specs, rng, len(specs))
    rho_ref = norm_factor(specs, "x", x)

    def case(k, rho_est):
        spec = specs[k]
        return {"q": _cpair(spec.q), "t": _cpair(spec.t), "x": _cpair(x[k]),
                "sign": spec.sign.value, "rho": float(rho_est[k])}
    return ScanJob(_unitarity_kernel, _UNITARITY_BLOCK, (R_rows(specs, "x", x).w, rho_ref), case)


def _runs(jobs):
    """The kernel calls of ``scan_gaps``, each a list of whole jobs in order: consecutive
    jobs while their samples total at most the jobs' ``chunk``; a larger job goes alone,
    since the kernels block a stack themselves."""
    run, width = [], 0
    for job in jobs:
        if run and width + job.samples > job.chunk:
            yield run
            run, width = [], 0
        run.append(job)
        width += job.samples
    if run:
        yield run


def scan_gaps(jobs) -> tuple:
    """The kernel outputs of every sample of ``jobs``, which share one kernel, in job order:
    a tuple of arrays, the gaps first, for ``worst`` to reduce.

    Whole jobs are grouped into kernel calls of at most the jobs' ``chunk`` samples (a larger
    job is one call by itself), so a single job is one kernel call on its own operands and
    only a group of jobs is concatenated. ``jobs`` may be a generator: it is consumed as the
    pass reaches each job, so only the jobs of the open group are alive. The arithmetic of a
    sample does not depend on its group.
    """
    parts = []
    for run in _runs(jobs):
        operands = run[0].operands if len(run) == 1 else [
            np.concatenate(p, axis=-1) for p in zip(*(job.operands for job in run))]
        parts.append(run[0].kernel(*operands))
    return parts[0] if len(parts) == 1 else tuple(np.concatenate(p) for p in zip(*parts))


def _report(job: ScanJob, tol: float) -> ResidualReport:
    """The one-job scan: the largest gap of ``scan_gaps``, and its worst case."""
    gaps, *outputs = scan_gaps([job])
    residual, k = worst(gaps, range(len(gaps)))
    return ResidualReport(residual=residual, tolerance=tol, worst_case=job.case(k, *outputs))


def scan_braid(family: Family, samples: int, seed: int,
               tol: float = TOLERANCES["braid"]) -> ResidualReport:
    """Max braid residual of the braid matrix over seeded parameter points."""
    return _report(braid_job(family, samples, seed), tol)


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
    return _report(qybe_job(spec, kind, samples, seed, ordering), tol)


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
    return _report(unitarity_job(family, samples, seed, imaginary_t), tol)


# ---------------------------------------------------------------------------
# The QYBE as a polynomial identity.

def _qybe_triples(m: int) -> tuple:
    """The tables of ``_qybe_coefficients`` for m coefficients: the indices (ia, ic, id) of
    the m^3 triples (A_{i'}, A_b, A_{j'}), sorted by the monomial x^{i'+b} y^{b+j'} they
    feed, the index of each monomial's first triple, and the (i, j) of each monomial."""
    terms = sorted((i + b, b + j, i, b, j) for i in range(m) for b in range(m) for j in range(m))
    xi, yj, ia, ic, id_ = np.array(terms).T
    first = np.flatnonzero(np.diff(xi * 2 * m + yj, prepend=-1))
    return ia, ic, id_, first, np.stack([xi[first], yj[first]], axis=1)


_QYBE_TRIPLES = {m: _qybe_triples(m) for m in (2, 3)}


def _qybe_coefficients(rows: np.ndarray) -> tuple:
    """(D, powers): the coefficients of the QYBE residual of R(x) = sum_k A_k x^k,

        R_1(x) R_2(xy) R_1(y) - R_2(y) R_1(xy) R_2(x) = sum_ij D_ij x^i y^j,
        D_ij = sum_b strand difference of (A_{i-b}, A_b, A_{j-b}),

    from the (m, 8, ...) weight rows of (A_0, .., A_{m-1}), m = 2 or 3, with any trailing
    axes. D holds the 32 entries of ``linalg._block_diffs`` as (32, G, ...), one column per
    monomial, and powers the (G, 2) exponents (i, j): all m^3 triples go through one kernel
    call, and ``np.add.reduceat`` sums each monomial's."""
    ia, ic, id_, first, powers = _QYBE_TRIPLES[len(rows)]
    w = rows.swapaxes(0, 1)  # (8, m, ...)
    diffs = _block_diffs(w.take(ia, 1), w.take(ic, 1), w.take(id_, 1))
    return np.add.reduceat(diffs, first, axis=1), powers


def qybe_bound(rows: np.ndarray):
    """sum_ij ||D_ij||_F / (sum_k ||A_k||_F)^3 of ``_qybe_coefficients``, for the (m, 8, ...)
    weight rows of a coefficient table: one bound per trailing index. For |x|, |y| <= 1 the
    QYBE residual is at most this bound times (sum_k ||A_k||_F)^3, which bounds
    ||R(x)||_F ||R(xy)||_F ||R(y)||_F there, so the bound certifies the identity relative to
    the size of its factors on the whole closed polydisc; the theta and u views compose to
    xy under a scalar gauge that cancels between the sides.
    A NaN weight gives a NaN bound. Samples on the last axis run in blocks of at most
    ``linalg._BLOCK`` triples, the blocks of ``strand_gap``: with larger temporaries glibc
    returns the heap top after each call, and the next call faults its pages in again."""
    per = max(1, _BLOCK // len(rows) ** 3)
    if rows.ndim > 2 and rows.shape[-1] > per:
        return np.concatenate([qybe_bound(rows[..., k:k + per])
                               for k in range(0, rows.shape[-1], per)], axis=-1)
    d, _ = _qybe_coefficients(rows)
    # sums in an order that does not depend on the number of samples: over the 32 entries of
    # D and the m coefficients along the first axis, and over the monomials and the 8 weights
    # along the last, contiguous one, where a lone sample would be summed pairwise
    norms = np.linalg.norm(d, axis=0)
    total = norms.transpose(*range(1, norms.ndim), 0).copy().sum(axis=-1)
    scale = np.linalg.norm(rows.transpose(0, *range(2, rows.ndim), 1).copy(), axis=-1).sum(axis=0)
    return total / (scale * scale * scale)


def certify_qybe(spec: FamilySpec | FamilySpecs, ordering: EigOrdering | None = None):
    """``qybe_bound`` of the spec's coefficient table (``baxterize._coefficient_rows``): a
    float for a FamilySpec, one bound per sample of FamilySpecs."""
    bound = qybe_bound(_coefficient_rows(spec, ordering))
    return bound if bound.ndim else float(bound)


def _cpair(z) -> list[float]:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def _cstr(z) -> str:
    z = complex(z)
    return f"{z.real:.6g}" if z.imag == 0 else f"{z:.6g}"
