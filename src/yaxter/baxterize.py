"""Yang-Baxterization: from braid matrices b to spectral-parameter families R(x).

Two-eigenvalue formula (proved to satisfy the QYBE):

    R(x) = b + lambda1 lambda2 x b^{-1}

Three-eigenvalue formula (must be re-checked against the QYBE per output):

    R(x) = lambda1 lambda3 x(x-1) b^{-1}
           + (lambda1 + lambda2 + lambda3 + lambda1 lambda3 / lambda2) x I
           - (x-1) b

As a matrix polynomial every R(x) is R(x) = A + B x + C x^2, with one table of exact
coefficients, written as weight rows (``_coefficient_rows``, kept in a FamilySpec's record):
A is b (times 1 + t for eight4), the two-eigenvalue B is lambda1 lambda2 b^{-1} =
(lambda1 + lambda2) 1 - b, and C vanishes for every family but eight4. ``R_rows``, the one
evaluator of R(x), evaluates the polynomial on those rows at a stack of points, for one
parameter point or for ``FamilySpecs``; ``R_weights`` takes its rows at one point under a
finiteness check, and ``build_R`` scatters them, the dense edge at one point. The paper's
displayed closed form of each family, its x-form (``x_form``), is ``formula_R`` times 1
(two eigenvalues), 1/(1 - x) (eight3) or 1 + t (eight4); no evaluation reads it, and
criterion 3 of the suite checks it against the table.

Spectral-parameter views: x (multiplicative), theta (x = e^{2 i theta} for the
six-vertex families, x = e^{i theta} for eight2/3/4, x = tan theta for eight1),
and the rational u = (1 - x)/(1 + x) with composition law u(xy) = (u + v)/(1 + u v).
Every view is the x-form at the point's x (``family_x``) times a scalar gauge
(``gauge``); ``reference_gauge`` is the scalar the x-form carries over the gauge in which
the closed-form normalizations are stated. These closed forms take (spec, kind, value): a
FamilySpec or FamilySpecs, the view, and a number or an array. eight4's g form (the
canonical matrix over g1) is an argument of the R builders only.
"""

from __future__ import annotations

import cmath
import enum
from dataclasses import dataclass

import numpy as np

from .catalog import (EIGHT_VERTEX_FAMILIES, SIX_VERTEX_FAMILIES, THREE_EIGENVALUE_FAMILIES,
                      DomainError, Family, FamilySpec, FamilySpecs, _braid_table, _eigenvalues,
                      _first_failure, build_b, eigenvalues_of, kept, z_of)
from .linalg import WeightRows, cmat, inverse, pattern_rows, require_two_eigenvalues, scatter


class ThetaConvention(str, enum.Enum):
    HALF = "half"  # x = e^{2 i theta}
    FULL = "full"  # x = e^{i theta}


class EigOrdering(str, enum.Enum):
    FIRST = "first"
    SECOND = "second"
    THIRD = "third"


#: theta convention used by each R-matrix family (eight1 uses x = tan theta instead).
FAMILY_THETA_CONVENTION = {
    Family.SIX_NONSTD: ThetaConvention.HALF,
    Family.SIX_STD: ThetaConvention.HALF,
    Family.EIGHT_II: ThetaConvention.FULL,
    Family.EIGHT_III: ThetaConvention.FULL,
    Family.EIGHT_IV: ThetaConvention.FULL,
}

#: families whose displayed R(x) satisfies R(0) = b exactly (the others R(0) proportional to b).
RZERO_EQUALS_B = (Family.SIX_NONSTD, Family.SIX_STD, Family.EIGHT_I)
_X_POLE = "u = (1-x)/(1+x) is undefined at x = -1"  # the u view's pole


@dataclass(frozen=True)
class SpectralPoint:
    """One spectral coordinate in the x, theta or u view; ``family_x`` gives its x in a
    family's convention."""

    kind: str  # "x" | "theta" | "u"
    value: complex

    def __post_init__(self):
        if self.kind not in ("x", "theta", "u"):
            raise ValueError(f"unknown spectral kind {self.kind!r}")
        if not cmath.isfinite(self.value):
            raise ValueError(f"spectral {self.kind} must be finite, got {self.value}")

    @classmethod
    def from_x(cls, x: complex) -> "SpectralPoint":
        return cls("x", complex(x))

    @classmethod
    def from_theta(cls, theta: float) -> "SpectralPoint":
        return cls("theta", complex(theta))

    @classmethod
    def from_u(cls, u: complex) -> "SpectralPoint":
        return cls("u", complex(u))


def x_to_u(x: complex) -> complex:
    if x == -1:
        raise DomainError(_X_POLE)
    return (1 - x) / (1 + x)


def u_to_x(u: complex) -> complex:
    if (u == -1).any() if isinstance(u, np.ndarray) else u == -1:
        raise DomainError("x = (1-u)/(1+u) is undefined at u = -1")
    return (1 - u) / (1 + u)


def compose_u(u: complex, v: complex) -> complex:
    """u(x y) = (u + v)/(1 + u v) for u = u(x), v = u(y)."""
    return (u + v) / (1 + u * v)


def yb_two(b: np.ndarray, lam1: complex, lam2: complex, x: complex) -> np.ndarray:
    """R(x) = b + lambda1 lambda2 x b^{-1} for a two-eigenvalue braid matrix."""
    require_two_eigenvalues(b, lam1, lam2)
    return np.asarray(b, dtype=complex) + lam1 * lam2 * x * inverse(b)


def yb_three(
    b: np.ndarray,
    lams: tuple[complex, complex, complex],
    x: complex,
) -> np.ndarray:
    """Three-eigenvalue candidate R(x); callers must still check the QYBE."""
    lam1, lam2, lam3 = (complex(l) for l in lams)
    if lam2 == 0:
        raise ValueError("middle eigenvalue lambda2 must be nonzero")
    if len({lam1, lam2, lam3}) != 3:
        raise ValueError(f"eigenvalues must be distinct, got {lams}")
    eye = np.eye(4, dtype=complex)
    coeff = lam1 + lam2 + lam3 + lam1 * lam3 / lam2
    return lam1 * lam3 * x * (x - 1) * inverse(b) + coeff * x * eye - (x - 1) * np.asarray(b)


def ordered_eigenvalues(spec: FamilySpec, ordering: EigOrdering) -> tuple[complex, complex, complex]:
    """The three eight3/4 eigenvalues 1+t, 1-t, t-1 of ``eigenvalues_of`` in the requested
    ordering."""
    a, bb, c = eigenvalues_of(spec)
    return {EigOrdering.FIRST: (a, bb, c), EigOrdering.SECOND: (a, c, bb)}.get(ordering, (bb, a, c))


def family_x(spec: FamilySpec | FamilySpecs, kind: str, value):
    """The multiplicative x of a ``kind`` view value (a number or an array) in the family's
    convention: x = tan(theta) for eight1, e^{2 i theta} (six-vertex) or e^{i theta}
    (eight2/3/4) for theta, and (1 - u)/(1 + u) for u."""
    fam = spec.family
    if kind == "theta" and fam is Family.EIGHT_I:
        x = np.tan(np.real(value))
    elif kind == "theta":
        k = 2.0 if FAMILY_THETA_CONVENTION.get(fam) is ThetaConvention.HALF else 1.0
        x = np.exp(1j * k * value)
    else:
        x = u_to_x(value) if kind == "u" else value
    return x if isinstance(x, np.ndarray) else complex(x)


def degeneracy_note(spec: FamilySpec, p: SpectralPoint) -> str | None:
    """Flag spectral points where R(x) is proportional to the identity."""
    try:
        x = family_x(spec, p.kind, p.value)
    except DomainError as err:
        return str(err)
    if abs(x - 1) < 1e-12:
        return "R(1) is proportional to the identity; unitarity normalization degenerates"
    return None


def g_factors(spec: FamilySpec | FamilySpecs, x):
    """eight4's g1 = 1 + t + x(1 - t) and g2 = 1 + t - x(1 - t) at the spec's t and x,
    which broadcast."""
    t = spec.parameters()[1]
    return 1 + t + x * (1 - t), 1 + t - x * (1 - t)


def gauge(spec: FamilySpec | FamilySpecs, kind: str, value, form: str = "canonical"):
    """The scalar that ``build_R`` puts on the x-form at a ``kind`` view value.

    The gauge table:

    - 1 for every x view, the six-vertex theta and u views (the six-vertex
      families carry no separate rational form) and the eight2/3/4 theta views;
    - cos(theta)/sqrt(2) for the eight1 theta view, which makes it the unitary
      combination cos(theta) b(phi) + sin(theta) b(phi)^{-1};
    - 1/(1+x) for the eight1/2/3 u views (both eight3 orderings);
    - 1/(1+x)^2 for the eight4 u view, or 1/(1+x) with ``form="g"``.

    The g-form itself is the canonical eight4 x-form times 1/g1, which ``R_rows`` applies.
    """
    fam = spec.family
    if kind == "theta" and fam is Family.EIGHT_I:
        return np.cos(np.real(value)) / np.sqrt(2)
    if kind == "u" and fam in EIGHT_VERTEX_FAMILIES:
        return _u_gauge(spec, u_to_x(value), form)
    return 1.0


def _u_gauge(spec: FamilySpec | FamilySpecs, x, form: str = "canonical"):
    """``gauge`` of an eight-vertex family's u view at the multiplicative x, a number or an
    array: ``x_to_u``'s DomainError at x = -1, and a DomainError where a number's power
    leaves the float range (an array's overflows to inf, so its gauge there is 0)."""
    if (x == -1).any() if isinstance(x, np.ndarray) else x == -1:
        raise DomainError(_X_POLE)
    power = 2 if spec.family is Family.EIGHT_IV and form != "g" else 1
    try:
        return 1 / (1 + x) ** power
    except OverflowError:  # a Python complex power
        raise DomainError(f"the u view's gauge 1/(1+x)^{power} is out of float range "
                          f"at x = {x}") from None


def reference_gauge(spec: FamilySpec | FamilySpecs, kind: str, value, x=None):
    """The scalar the x-form carries over the gauge of the closed-form rho.

    2 e^{i theta} for the six-vertex families (over their trigonometric form,
    x = e^{2 i theta}), g1 for eight4 (over its g view), 1 otherwise. ``x`` is
    ``family_x`` of the value when the caller has it already; else it is derived here.
    """
    fam = spec.family
    if fam in SIX_VERTEX_FAMILIES:
        if kind == "theta":
            theta = value
        else:
            x = family_x(spec, kind, value) if x is None else x
            theta = (np.log(x) if isinstance(x, np.ndarray) else cmath.log(x)) / (1j * 2.0)
        return 2 * np.exp(1j * theta)
    if fam is Family.EIGHT_IV:
        return g_factors(spec, family_x(spec, kind, value) if x is None else x)[0]
    return 1.0


def _check_ordering(fam: Family, ordering: EigOrdering | None) -> None:
    """A ValueError unless ``ordering`` is None or one the family takes: eight3 takes first
    or second, eight4 third."""
    if ordering is None:
        return
    if fam is Family.EIGHT_III and ordering is EigOrdering.THIRD:
        raise ValueError("the third ordering of this braid matrix is the eight4 family")
    if fam is Family.EIGHT_IV and ordering is not EigOrdering.THIRD:
        raise ValueError("eight4 is the third-ordering family; use eight3 for the others")
    if fam not in (Family.EIGHT_III, Family.EIGHT_IV):
        raise ValueError(f"{fam.value} has two eigenvalues; ordering does not apply")


def build_R(spec: FamilySpec, p: SpectralPoint, ordering: EigOrdering | None = None,
            form: str = "canonical") -> np.ndarray:
    """The family's R-matrix at spectral point p: ``R_weights`` as a dense 4x4 matrix
    (``linalg.scatter``). ``ordering``: eight3 takes first (default) or second, eight4
    third (default). ``form="g"`` selects the eight4 view with the middle block scaled by
    g = g2/g1."""
    return scatter(R_weights(spec, p, ordering, form))


def R_weights(spec: FamilySpec, p: SpectralPoint, ordering: EigOrdering | None = None,
              form: str = "canonical") -> np.ndarray:
    """The (8,) weight rows of ``build_R``: ``_point_weights`` at p's view and value."""
    return _point_weights(spec, p.kind, p.value, ordering, form)


def _point_weights(spec: FamilySpec, kind: str, value: complex,
                   ordering: EigOrdering | None = None, form: str = "canonical") -> np.ndarray:
    """The one read of R at one point, of ``R_weights`` and of ``entangle.classify`` at a
    point's x: ``R_rows`` at the finite ``kind`` value, under one finiteness check of its
    eight weights, decided on Python numbers (``cmath.isfinite``), which for eight numbers
    costs a third of one numpy pass. The value is taken as finite, as every SpectralPoint's
    is, so ``R_rows``' check of it is not repeated; it enters as R_rows takes it, a 0-d
    array. An infinite x, which classify's can be at a u next to the pole u = -1, gives
    weights that are not finite, and the check refuses them."""
    w = _overflowing_rows(spec, kind, np.asarray(value), ordering, form)
    if not all(map(cmath.isfinite, w.tolist())):
        raise ValueError("matrix entries must be finite")
    return w


def _coefficient_rows(spec: FamilySpec | FamilySpecs, ordering: EigOrdering | None = None):
    """The weight rows of (A, B, C), (3, 8) for a FamilySpec and (3, 8, n) for FamilySpecs,
    or of (A, B), (2, 8, ...), where C is 0: the one place that writes the table, with the
    two-eigenvalue B generated from b's rows (``_table_rows``). Python's arithmetic for a
    FamilySpec's entries, numpy's for FamilySpecs, as the braid matrix's, with eight4's
    1 + t, 2 t and 1 - t on the rows; one assembly and finiteness check. A (3, 8, n) block is
    115 KB at 300 samples, under glibc's 128 KiB mmap threshold.

    A FamilySpec's rows are built once per ordering and kept, read-only, in the spec
    object's record (``catalog.kept``), beside its other parameter-only values."""
    if ordering is not None:
        ordering = EigOrdering(ordering)
    if not isinstance(spec, FamilySpec):
        return _table_rows(spec, ordering)
    record = kept(spec)
    rows = record.get(("rows", ordering))
    if rows is None:
        rows = _table_rows(spec, ordering)
        rows.flags.writeable = False
        record["rows", ordering] = rows
    return rows


def _table_rows(spec: FamilySpec | FamilySpecs, ordering: EigOrdering | None):
    """The rows of ``_coefficient_rows``, built: b's entries (eight2's z computed once, for b
    and for its eigenvalues 1 +- z); for two eigenvalues, ``linalg.pattern_rows`` writes
    A = b and forms B = (lambda1 + lambda2) 1 - b from A's rows in one array operation
    (0 - w off the diagonal), so B costs one pass, not eight entry writes; for three, the
    tables are written entry by entry, and eight4's factors 1 + t, 2 t and 1 - t multiply
    the block in one operation. Each pattern_rows block takes one finiteness check."""
    fam = spec.family
    _check_ordering(fam, ordering)
    if fam is Family.BELL_PHI:
        raise ValueError("bell-phi is a braid-matrix family; use eight1 for its R(theta)")
    q, t, s = spec.parameters()
    z = z_of(t) if fam is Family.EIGHT_II else None  # one z for b and its eigenvalues 1 +- z
    b = _braid_table(fam, q, t, s, z)
    if fam not in THREE_EIGENVALUE_FAMILIES:
        # B = lambda1 lambda2 b^{-1} = (lambda1 + lambda2) 1 - b, from A's rows
        lam1, lam2 = _eigenvalues(fam, q, t, z)
        return pattern_rows([b], shift=lam1 + lam2)
    # the second table is B, the coefficient of x, except for eight4, whose C is (1 - t) B
    if fam is Family.EIGHT_III and ordering is not EigOrdering.SECOND:
        tables = [b, [[-t, 0, 0, q], [0, 1, -s * t, 0], [0, -s * t, 1, 0], [1 / q, 0, 0, -t]]]
    else:  # eight3's second ordering, and eight4
        tables = [b, [[t, 0, 0, -q], [0, -1, s * t, 0], [0, s * t, -1, 0], [-1 / q, 0, 0, t]]]
    if fam is Family.EIGHT_IV:  # with B / (2 t) between
        tables.insert(1, [[1, 0, 0, -q], [0, 1, -s, 0], [0, -s, 1, 0], [-1 / q, 0, 0, 1]])
    rows = pattern_rows(tables)
    if fam is Family.EIGHT_IV:
        np.multiply(np.array((1 + t, 2 * t, 1 - t))[:, None], rows, out=rows)
    return rows


def _polynomial(rows, x, scale):
    """scale * (a + x * (b + x * c)), or scale * (a + x * b), on the (k, 8, ...) weight rows
    of (a, b, c) or (a, b), against x and scale as they are: in one buffer, each operation
    with its operands in this order, for swapping them (r += b, r *= x) changes results in
    the last bit."""
    r = x * rows[-1]
    if len(rows) == 3:
        np.add(rows[1], r, out=r)
        np.multiply(x, r, out=r)
    np.add(rows[0], r, out=r)
    return np.multiply(scale, r, out=r)


def R_rows(spec: FamilySpec | FamilySpecs, kind: str, values,
           ordering: EigOrdering | None = None, form: str = "canonical") -> WeightRows:
    """R(x) at each of ``values`` in the ``kind`` view as weight rows, the form the stacked
    kernels take: the gauge (over g1 for the eight4 g form) times A + x (B + x C) on the rows
    of ``_coefficient_rows`` at ``family_x``, in one broadcast pass. A FamilySpec gives
    (8, ...) rows in the shape of ``values``; FamilySpecs take one value per sample.

    A non-finite value lies in no unitary domain: a DomainError names it before any
    arithmetic."""
    values = np.asarray(values)
    failure = _first_failure(np.isfinite(values), f"{kind} must be finite, got {{}}", values)
    if failure:
        raise DomainError(failure)
    return WeightRows(_finite_rows(spec, kind, values, ordering, form))


def _finite_rows(spec: FamilySpec | FamilySpecs, kind: str, values: np.ndarray,
                 ordering: EigOrdering | None = None, form: str = "canonical") -> np.ndarray:
    """The weight rows of ``R_rows`` at an array of values known to be finite."""
    x = family_x(spec, kind, values)
    scale = gauge(spec, kind, values, form)
    if form == "g" and spec.family is Family.EIGHT_IV:  # the g form is the canonical one over g1
        scale = scale / g_factors(spec, x)[0]
    return _rows_at(spec, x, scale, ordering)


#: ``_finite_rows`` with overflow and invalid values unreported: they fail the finiteness
#: check of ``_point_weights``
_overflowing_rows = np.errstate(over="ignore", invalid="ignore")(_finite_rows)


def _rows_at(spec: FamilySpec | FamilySpecs, x, scale, ordering: EigOrdering | None = None):
    """The (8, ...) weight rows of scale times the x-form at x: ``_polynomial`` on the rows
    of ``_coefficient_rows``."""
    rows = _coefficient_rows(spec, ordering)
    if isinstance(spec, FamilySpec) and getattr(x, "ndim", 0):  # its rows against every value
        rows = rows.reshape(*rows.shape, *(1,) * x.ndim)
    return _polynomial(rows, x, scale)


def x_form(spec: FamilySpec, x: complex) -> np.ndarray:
    """The paper's displayed closed form R(x) at the spec's q, t and sign factor and at x:
    eight3 in its first ordering, canonical eight4. Only the display: criterion 3 of the
    suite checks it against the table that every evaluation of R reads (``build_R``)."""
    q, t, s = spec.parameters()
    fam = spec.family
    if fam is Family.SIX_NONSTD:
        rows = [
            [q - x / q, 0, 0, 0],
            [0, (q - 1 / q) * x, 1 - x, 0],
            [0, 1 - x, q - 1 / q, 0],
            [0, 0, 0, q * x - 1 / q],
        ]
    elif fam is Family.SIX_STD:
        rows = [
            [q - x / q, 0, 0, 0],
            [0, (q - 1 / q) * x, 1 - x, 0],
            [0, 1 - x, q - 1 / q, 0],
            [0, 0, 0, q - x / q],
        ]
    elif fam is Family.EIGHT_I:
        rows = [
            [1 + x, 0, 0, q * (1 - x)],
            [0, 1 + x, s * (1 - x), 0],
            [0, -s * (1 - x), 1 + x, 0],
            [-(1 - x) / q, 0, 0, 1 + x],
        ]
    elif fam is Family.EIGHT_II:
        z = z_of(t)
        rows = [
            [2 - t * (1 - x), 0, 0, q * (1 - x)],
            [0, 1 + x, s * z * (1 - x), 0],
            [0, s * z * (1 - x), 1 + x, 0],
            [(1 - x) / q, 0, 0, 2 * x + t * (1 - x)],
        ]
    elif fam is Family.EIGHT_III:
        rows = [
            [t * (1 - x), 0, 0, q * (1 + x)],
            [0, 1 + x, s * t * (1 - x), 0],
            [0, s * t * (1 - x), 1 + x, 0],
            [(1 + x) / q, 0, 0, t * (1 - x)],
        ]
    elif fam is Family.EIGHT_IV:
        g1, g2 = g_factors(spec, x)
        rows = [
            [t * (1 + x) * g1, 0, 0, q * (1 - x) * g1],
            [0, (1 + x) * g2, s * t * (1 - x) * g2, 0],
            [0, s * t * (1 - x) * g2, (1 + x) * g2, 0],
            [(1 - x) * g1 / q, 0, 0, t * (1 + x) * g1],
        ]
    else:
        raise ValueError("bell-phi is a braid-matrix family; use eight1 for its R(theta)")
    return cmat(rows)


def formula_R(spec: FamilySpec, x, ordering: EigOrdering | None = None) -> np.ndarray:
    """R(x) straight from the eigenvalue formulas rather than the closed forms: a 4x4
    matrix, or an (..., 4, 4) stack for an array x from one b and one inverse.

    Two-eigenvalue families run through the proved formula; eight3/4 run through the
    three-eigenvalue candidate in the ordering, validated as ``build_R`` does. ``build_R``
    is this times 1 (two eigenvalues), 1/(1 - x) (eight3) or 1 + t (eight4). At the
    eigenvalue-collapse points t in {0, +-1} the braid matrix degenerates and no formula
    applies; the closed forms remain available there.
    """
    fam = spec.family
    _check_ordering(fam, ordering)
    b = build_b(spec)
    if isinstance(x, np.ndarray):
        x = x[..., None, None]
    if fam not in THREE_EIGENVALUE_FAMILIES:
        return yb_two(b, *eigenvalues_of(spec), x)
    t = complex(spec.t)
    if min(abs(t), abs(t - 1), abs(t + 1)) < 1e-9:
        raise DomainError(f"eigenvalues 1+t, 1-t, t-1 collapse at t = {t}; the braid matrix "
                          "is singular there and neither eigenvalue formula applies")
    if ordering is None:
        ordering = EigOrdering.THIRD if fam is Family.EIGHT_IV else EigOrdering.FIRST
    return yb_three(b, ordered_eigenvalues(spec, ordering), x)
