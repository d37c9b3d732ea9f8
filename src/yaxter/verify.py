"""Residual checkers: braid relation, QYBE in three parametrizations, unitarity, rho.

The braid relation and the QYBE are one three-strand identity on C^8 with one
kernel, ``linalg.strand_gap(a, c, d)``: the braid residual is (b, b, b), the
QYBE residual R_1(x) R_2(x o y) R_1(y) - R_2(y) R_1(x o y) R_2(x) is
(R(x), R(x o y), R(y)), where x o y is xy, theta1 + theta2 or (u + v)/(1 + uv).
The same kernel, before its norm (``linalg._block_diffs``), certifies the QYBE of a
whole coefficient table: ``certify_qybe`` bounds the residual polynomial on all of
|x|, |y| <= 1 from its coefficients (``qybe_bound``). Unitarity is checked as
R(x) R(x)^dag = rho * 1 with rho > 0 the family's normalization factor;
rho^{-1/2} R(x) is the physical gate. Its kernel, ``unitarity_residual(r, rconj)``,
and ``inverse_unitarity(r, rinv)`` read eight-vertex matrices with ``linalg.weights`` and
multiply them with ``linalg.block_product`` on entry rows that hold both blocks on one
axis; ``unitarity_residual`` alone keeps a second arithmetic for one matrix, Python complex
numbers block by block, which the single-point ``sweep`` takes. Every kernel takes one dense
4x4 matrix, read and checked once where it enters, or a stack as ``linalg.WeightRows``,
which ``WeightRows.of`` reads from a dense stack at the edge.
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
                  (stated for the g view; the canonical matrix carries the extra
                   factor |g1|^2. The g form is an argument of the R builders only)

The seeded scans draw each parameter for all of their samples at once, in a
fixed RNG order (``sample_specs``: the sign, then gamma or t with its sign,
then phi; ``sample_x``; ``sample_spec`` is the n = 1 case), and build their rows in
one call: a scan's job (``braid_job``, ``qybe_job``, ``unitarity_job``) returns the weight
rows, ``rho_ref`` for unitarity, and the reader of the report's worst case. A scan is one
kernel call on its job's rows, reduced by ``worst``; a suite criterion joins the rows of
its jobs into one stack and makes one call. The stacks travel as weight rows,
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
from .catalog import (SIX_VERTEX_FAMILIES, THREE_EIGENVALUE_FAMILIES, DomainError, Family,
                      FamilySpec, FamilySpecs, Sign, braid_residual, braid_rows, finite_rho,
                      gamma_of, is_imag)
from .linalg import (_BLOCK, MAX_ENTRY, WeightRows, _block_diffs, block_product, dagger, defect,
                     strand_gap, weights)

#: pass thresholds of the residual checks, shared by the scans, the suite and the CLI.
TOLERANCES = {"braid": 1e-11, "qybe": 1e-9, "unitarity": 1e-10, "inverse-unitarity": 1e-9}


class DegenerateNormalizationError(ValueError):
    """The estimated normalization factor is not positive."""


class NotProportionalError(ValueError):
    """A product expected to be a multiple of the identity is not."""


def _bounded_rows(spec: FamilySpec, kind: str, value, ordering: EigOrdering | None = None,
                  form: str = "canonical") -> WeightRows:
    """The rows of the scans and of ``family_inverse_unitarity``: ``R_rows`` at a ``kind``
    value or an array of them, or a DomainError naming the parameters of the first matrix
    with an entry above ``MAX_ENTRY``, where the residual products would overflow."""
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


def unitarity_residual(r: np.ndarray, rconj: np.ndarray):
    """(rho_est, residual) for R(x) R^dag(xbar) = rho * 1 with rconj = R^dag(xbar): rho_est
    = tr(R rconj) / 4 and residual = ||R rconj - rho_est 1||_F + ||rconj R - rho_est 1||_F.
    Two dense 4x4 matrices give two floats, ``WeightRows`` of one shape two arrays in theirs.

    A dense R and rconj must be one 4x4 each and eight-vertex (``linalg.weights`` raises
    otherwise), and so is each product: 8 complex multiplies a 2x2 block, and a norm over
    the 8 entries inside the blocks. A NaN weight gives a NaN residual. A rho_est that is not
    positive is a DegenerateNormalizationError.

    One formula, ``linalg.block_product`` and ``linalg.defect``, in two arithmetics: Python
    complex numbers for one dense matrix, one block at a time, and for a stack both blocks
    on one axis, as (4, 2, n) entry rows (``_both_blocks``), so that each product and each
    defect is one pass over the stack. The one-matrix arithmetic stays: one matrix run as a
    stack of one took the bench ``sweep`` op 28-33 % more CPU time.
    """
    x, y = weights("unitarity_residual", ("r", "rconj"), r, rconj)
    shape = r.w.shape[1:] if isinstance(r, WeightRows) else ()
    if isinstance(x, tuple):  # one dense matrix: Python numbers throughout
        (xo, xi), (yo, yi) = (x[0::2], x[1::2]), (y[0::2], y[1::2])
        mo, mi = block_product(xo, yo), block_product(xi, yi)
        rho = ((mo[0] + mo[3]) + (mi[0] + mi[3])).real / 4.0
        res = math.sqrt(defect(mo, rho) + defect(mi, rho)) + math.sqrt(
            defect(block_product(yo, xo), rho) + defect(block_product(yi, xi), rho))
    else:
        x, y = _both_blocks(x), _both_blocks(y)
        m = block_product(x, y)
        trace = m[0] + m[3]
        rho = (trace[0] + trace[1]).real / 4.0
        left, right = defect(m, rho), defect(block_product(y, x), rho)
        rho, res = rho.reshape(shape), (np.sqrt(left[0] + left[1])
                                         + np.sqrt(right[0] + right[1])).reshape(shape)
    if (rho <= 0).any() if shape else rho <= 0:
        raise DegenerateNormalizationError(f"estimated rho = {np.nanmin(rho):.3e} is not positive")
    return rho, res


def _both_blocks(w: np.ndarray) -> np.ndarray:
    """The (4, 2, n) entry rows of the (8, n) weight rows of n eight-vertex matrices: the
    (p, q, r, s) of ``linalg.block_product``, each an (outer, inner) pair of block rows.
    A view, as the weights alternate between the blocks."""
    return w.reshape(4, 2, -1)


def conjugate_partner(spec: FamilySpec, p: SpectralPoint) -> np.ndarray:
    """R^dag(xbar), the Hermitian adjoint of the built matrix R(x)."""
    return dagger(build_R(spec, p))


def unitarity_gap(spec: FamilySpec, p: SpectralPoint) -> tuple[float, float]:
    """(gap, rho_est) for rho^{-1/2} R at one point of the family's unitary domain.

    The gap adds the relative residual of R R^dag = rho 1 and the relative
    distance of rho_est from the closed form, and is at least the unitarity
    defect of U = R / sqrt(rho_est): ||U U^dag - 1|| = ||R R^dag - rho_est 1|| / rho_est,
    a part of the relative residual. Off the domain a DomainError names the
    violated constraint, and a closed-form rho that overflows raises a
    DomainError before R is built; a non-finite residual gives a non-finite gap.
    """
    rho_ref = finite_rho(matrix_norm_factor(spec, p),
                         where=f" at x = {family_x(spec, p.kind, p.value)}")
    gap, rho_est = _unitarity_gaps(build_R(spec, p), rho_ref)
    return float(gap), float(rho_est)


def _unitarity_gaps(r: np.ndarray, rho_ref):
    """(gap, rho_est) of ``unitarity_gap`` for one matrix, or arrays of them for
    ``WeightRows``, with ``rho_ref`` the closed-form rho of each matrix; a non-finite
    ``rho_ref`` gives a NaN gap."""
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
    """``rho_formula`` at the multiplicative x of the point (or of each sample), after the
    spec's domain check (on the kept (q, t) verdict of a FamilySpec)."""
    fam = spec.family
    q, t, _ = spec.parameters()
    violation = spec.domain_violation(x)
    if violation is not None:
        raise DomainError(violation)
    rex = x.real
    if fam in SIX_VERTEX_FAMILIES:
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


def matrix_norm_factor(spec: FamilySpec, p: SpectralPoint) -> float:
    """rho of the matrix ``build_R(spec, p)`` emits: the closed-form rho times
    |gauge * reference_gauge|^2 from the gauge table (``_normalization``)."""
    return float(_normalization(spec, p.kind, p.value))


def _normalization(spec: FamilySpec | FamilySpecs, kind: str, value):
    """The rho of ``matrix_norm_factor`` at a ``kind`` view value, |gauge * reference gauge|^2
    times the closed-form rho, with x (``family_x``) evaluated once for the reference gauge
    and rho; FamilySpecs or an array of values give one per sample."""
    x = family_x(spec, kind, value)
    g = abs(gauge(spec, kind, value) * reference_gauge(spec, kind, value, x))
    return g * g * _rho_at(spec, x)


def inverse_unitarity(r: np.ndarray, rinv: np.ndarray,
                      tol: float = TOLERANCES["inverse-unitarity"]):
    """Proportionality scalar of R(x) R(1/x), which must be a multiple of 1, from r = R(x) and
    rinv = R(1/x): two dense 4x4 matrices or two ``WeightRows`` of one shape.

    The scalars come in the shape of the stack, a dense pair's as a 0-d array; a product not
    proportional to 1 at any item is a NotProportionalError. Both must be eight-vertex
    (``linalg.weights``); their product is ``linalg.block_product`` on both blocks at once,
    as the (4, 2, n) entry rows of ``_both_blocks``, and a dense pair runs as a stack of one.
    """
    wr, wi = weights("inverse_unitarity", ("R(x)", "R(1/x)"), r, rinv)
    shape = np.shape(wr)[1:]  # () for a dense pair's eight numbers
    m = block_product(_both_blocks(np.asarray(wr)), _both_blocks(np.asarray(wi)))
    trace = m[0] + m[3]
    scalar = (trace[0] + trace[1]) / 4.0
    squares = defect(m, scalar)
    gap = np.sqrt(squares[0] + squares[1])
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
    if fam in SIX_VERTEX_FAMILIES:
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
    array of x gives a pair of arrays, measured from one stack each of R(x) and R(1/x). An
    x = 0 at any entry is a DomainError."""
    xs = np.asarray(x)
    if np.any(xs == 0):
        raise DomainError("inverse unitarity needs x != 0")
    form = "g" if spec.family is Family.EIGHT_IV else "canonical"
    measured = inverse_unitarity(_bounded_rows(spec, "x", xs, form=form),
                                 _bounded_rows(spec, "x", 1 / xs, form=form))
    return measured, inverse_unitarity_expected(spec, xs if xs.ndim else x)


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
    its sign, then phi. All three come in that size, so the default t = 2 and sign +1 of
    the families that draw none are arrays too; size None gives scalars (0-d arrays for
    those defaults), with the stream of size 1."""
    sign = 1 - 2 * rng.integers(2, size=size)
    if family in SIX_VERTEX_FAMILIES:  # the sign drawn keeps the stream
        gamma = rng.uniform(0.2, 1.5, size=size) * (1 - 2 * rng.integers(2, size=size))
        return np.exp(gamma), np.full(np.shape(sign), 2.0), np.ones_like(sign)
    if family in (Family.EIGHT_I, Family.BELL_PHI):
        q = np.exp(-1j * rng.uniform(0.0, 2 * np.pi, size=size))
        return q, np.full(np.shape(sign), 2.0), sign
    # eight2/3/4: real t clear of the eigenvalue-collapse points {0, +-1}
    t = rng.uniform(1.2, 2.8, size=size) * (1 - 2 * rng.integers(2, size=size))
    return np.exp(-1j * rng.uniform(0.0, 2 * np.pi, size=size)), t, sign


def sample_specs(family: Family, rng: np.random.Generator, n: int,
                 imaginary_t: bool = False) -> FamilySpecs:
    """n random parameter points inside the family's unitary domain: the arrays of
    ``_draw_spec``, each drawn in one RNG call and already in the shape of the points,
    checked once by ``FamilySpecs``.

    ``imaginary_t`` turns eight4's t = +-(1.2 .. 2.8) into i t; for any other family it is
    a ValueError, before any draw. A count below one gives no points.
    """
    if imaginary_t and family is not Family.EIGHT_IV:
        raise ValueError(f"imaginary t is an eight4 draw; {family.value} takes no imaginary t")
    q, t, sign = _draw_spec(family, rng, max(n, 0))
    return FamilySpecs(family, q, 1j * t if imaginary_t else t, sign)


def sample_x(spec: FamilySpec | FamilySpecs, rng: np.random.Generator, size=None):
    """Random x inside the unitary domain of the spec's family, in numpy's ``size`` (None:
    one scalar). eight4 with imaginary t (every t of FamilySpecs) takes its real-x branch."""
    family = spec.family
    if family in SIX_VERTEX_FAMILIES:
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


def braid_job(family: Family, samples: int, seed: int) -> tuple:
    """(rows, case) of ``scan_braid``: the braid matrices at seeded parameter points as weight
    rows, and the report's worst case at sample k."""
    specs = sample_specs(family, np.random.default_rng(seed), samples)

    def case(k):
        spec = specs[k]
        return {"q": _cpair(spec.q), "t": _cpair(spec.t), "sign": spec.sign.value}
    return braid_rows(family, specs.q, specs.t, specs.s), case


def qybe_job(spec: FamilySpec, kind: str = "x", samples: int = 50, seed: int = 42,
             ordering: EigOrdering | None = None) -> tuple:
    """(rows, case) of ``scan_qybe``: R(a), R(a o b) and R(b) at seeded spectral pairs as one
    (3, n) stack of rows, under the entry bound, and the report's worst case at pair k. A
    (family, kind) pair outside ``QYBE_PARAMETRIZATIONS`` is a ValueError."""
    kinds = QYBE_PARAMETRIZATIONS.get(spec.family, ())
    if kind not in kinds:
        raise ValueError(f"{spec.family.value} has no QYBE composition law in the {kind!r} "
                         f"parametrization; it has {', '.join(kinds) or 'none'}")
    draw, compose = _QYBE_LAWS[kind]
    pairs = np.asarray(draw(spec, np.random.default_rng(seed), samples), dtype=complex)
    a, b = pairs[:, 0], pairs[:, 1]

    def case(k):
        return {"first": _cpair(a[k]), "second": _cpair(b[k]), "kind": kind}
    return _bounded_rows(spec, kind, np.stack([a, compose(a, b), b]), ordering), case


def unitarity_job(family: Family, samples: int = 100, seed: int = 42,
                  imaginary_t: bool = False) -> tuple:
    """(rows, rho_ref, case) of ``scan_unitarity``: R(x) at seeded domain points as rows, the
    closed-form rho of each (through the gauge table), and the report's worst case at sample
    k, given the estimated rhos."""
    rng = np.random.default_rng(seed)
    specs = sample_specs(family, rng, samples, imaginary_t)
    x = sample_x(specs, rng, len(specs))
    rho_ref = _normalization(specs, "x", x)  # first: its domain check names an off-domain x

    def case(k, rho_est):
        spec = specs[k]
        return {"q": _cpair(spec.q), "t": _cpair(spec.t), "x": _cpair(x[k]),
                "sign": spec.sign.value, "rho": float(rho_est[k])}
    return R_rows(specs, "x", x), rho_ref, case


def _report(gaps, tol: float, case, *outputs) -> ResidualReport:
    """A scan's report: the largest of its ``gaps``, and its worst case from ``case``."""
    residual, k = worst(gaps, range(len(gaps)))
    return ResidualReport(residual=residual, tolerance=tol, worst_case=case(k, *outputs))


def scan_braid(family: Family, samples: int, seed: int,
               tol: float = TOLERANCES["braid"]) -> ResidualReport:
    """Max braid residual of the braid matrix over seeded parameter points."""
    rows, case = braid_job(family, samples, seed)
    return _report(braid_residual(rows), tol, case)


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
    rows, case = qybe_job(spec, kind, samples, seed, ordering)
    return _report(strand_gap(*rows), tol, case)


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
    rows, rho_ref, case = unitarity_job(family, samples, seed, imaginary_t)
    gaps, rho_est = _unitarity_gaps(rows, rho_ref)
    return _report(gaps, tol, case, rho_est)


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
