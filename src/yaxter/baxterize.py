"""Yang-Baxterization: from braid matrices b to spectral-parameter families R(x).

Two-eigenvalue formula (proved to satisfy the QYBE):

    R(x) = b + lambda1 lambda2 x b^{-1}

Three-eigenvalue formula (must be re-checked against the QYBE per output):

    R(x) = lambda1 lambda3 x(x-1) b^{-1}
           + (lambda1 + lambda2 + lambda3 + lambda1 lambda3 / lambda2) x I
           - (x-1) b

Each family has one displayed closed form, its x-form, which agrees with the
formulas above up to one overall scalar that is constant in x.

Spectral-parameter views: x (multiplicative), theta (x = e^{2 i theta} for the
six-vertex families, x = e^{i theta} for eight2/3/4, x = tan theta for eight1),
and the rational u = (1 - x)/(1 + x) with composition law
u(xy) = (u + v)/(1 + u v). Every view is the x-form at the point's x times a
scalar gauge (``gauge``); ``reference_gauge`` is the scalar the x-form carries
over the gauge in which the closed-form normalizations are stated.
"""

from __future__ import annotations

import cmath
import enum
from dataclasses import dataclass

import numpy as np

from .catalog import EIGHT_VERTEX_FAMILIES, DomainError, Family, FamilySpec, build_b, eigenvalues_of
from .linalg import cmat, inverse


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

#: families whose displayed R(x) satisfies R(0) = b exactly.
RZERO_EQUALS_B = (Family.SIX_NONSTD, Family.SIX_STD, Family.EIGHT_I)


@dataclass(frozen=True)
class SpectralPoint:
    """One authoritative spectral coordinate; the other views are derived."""

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

    def x(self, convention: ThetaConvention = ThetaConvention.FULL) -> complex:
        if self.kind == "x":
            return self.value
        if self.kind == "theta":
            k = 2.0 if convention is ThetaConvention.HALF else 1.0
            return cmath.exp(1j * k * self.value)
        return u_to_x(self.value)

    def theta(self, convention: ThetaConvention = ThetaConvention.FULL) -> complex:
        if self.kind == "theta":
            return self.value
        x = self.x(convention)
        k = 2.0 if convention is ThetaConvention.HALF else 1.0
        return cmath.log(x) / (1j * k)

    def u(self, convention: ThetaConvention = ThetaConvention.FULL) -> complex:
        return x_to_u(self.x(convention))


def x_to_u(x: complex) -> complex:
    if x == -1:
        raise DomainError("u = (1-x)/(1+x) is undefined at x = -1")
    return (1 - x) / (1 + x)


def u_to_x(u: complex) -> complex:
    if u == -1:
        raise DomainError("x = (1-u)/(1+u) is undefined at u = -1")
    return (1 - u) / (1 + u)


def compose_u(u: complex, v: complex) -> complex:
    """u(x y) = (u + v)/(1 + u v) for u = u(x), v = u(y)."""
    return (u + v) / (1 + u * v)


def reparam(
    p: SpectralPoint,
    target: str,
    convention: ThetaConvention = ThetaConvention.FULL,
) -> SpectralPoint:
    """Re-express a spectral point in the x, theta or u view."""
    if target == "x":
        return SpectralPoint.from_x(p.x(convention))
    if target == "theta":
        return SpectralPoint("theta", p.theta(convention))
    if target == "u":
        return SpectralPoint.from_u(p.u(convention))
    raise ValueError(f"unknown reparam target {target!r}")


def yb_two(b: np.ndarray, lam1: complex, lam2: complex, x: complex) -> np.ndarray:
    """R(x) = b + lambda1 lambda2 x b^{-1} for a two-eigenvalue braid matrix."""
    from .linalg import spectral_projectors

    spectral_projectors(b, lam1, lam2)  # validates distinctness and annihilation
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
    """The three eight3/4 eigenvalues 1+t, 1-t, t-1 in the requested ordering."""
    t = complex(spec.t)
    a, bb, c = 1 + t, 1 - t, -1 + t
    if ordering is EigOrdering.FIRST:
        return a, bb, c
    if ordering is EigOrdering.SECOND:
        return a, c, bb
    return bb, a, c


def family_x(spec: FamilySpec, p: SpectralPoint) -> complex:
    """Convert a spectral point to the multiplicative x using the family's convention."""
    if p.kind == "theta" and spec.family is Family.EIGHT_I:
        return complex(np.tan(np.real(p.value)))
    conv = FAMILY_THETA_CONVENTION.get(spec.family, ThetaConvention.FULL)
    return p.x(conv)


def degeneracy_note(spec: FamilySpec, p: SpectralPoint) -> str | None:
    """Flag spectral points where R(x) is proportional to the identity."""
    try:
        x = family_x(spec, p)
    except DomainError as err:
        return str(err)
    if abs(x - 1) < 1e-12:
        return "R(1) is proportional to the identity; unitarity normalization degenerates"
    return None


def eight4_g_factors(spec: FamilySpec, x: complex) -> tuple[complex, complex]:
    """g1 = 1 + t + x(1 - t), g2 = 1 + t - x(1 - t)."""
    t = complex(spec.t)
    return 1 + t + x * (1 - t), 1 + t - x * (1 - t)


def gauge(spec: FamilySpec, p: SpectralPoint, form: str = "canonical") -> complex:
    """The scalar that ``build_R`` puts on the displayed x-form at ``family_x(spec, p)``.

    The gauge table:

    - 1 for every x view, the six-vertex theta and u views (the six-vertex
      families carry no separate rational form) and the eight2/3/4 theta views;
    - cos(theta)/sqrt(2) for the eight1 theta view, which makes it the unitary
      combination cos(theta) b(phi) + sin(theta) b(phi)^{-1};
    - 1/(1+x) for the eight1/2/3 u views (both eight3 orderings);
    - 1/(1+x)^2 for the eight4 u view, or 1/(1+x) with ``form="g"``.

    The g-form itself is the canonical eight4 x-form times 1/g1.
    """
    fam = spec.family
    if p.kind == "theta" and fam is Family.EIGHT_I:
        return np.cos(np.real(p.value)) / np.sqrt(2)
    if p.kind == "u" and fam in EIGHT_VERTEX_FAMILIES:
        power = 2 if fam is Family.EIGHT_IV and form != "g" else 1
        return 1 / (1 + u_to_x(p.value)) ** power
    return 1.0


def reference_gauge(spec: FamilySpec, p: SpectralPoint, form: str = "canonical") -> complex:
    """The scalar the displayed x-form carries over the gauge of the closed-form rho.

    2 e^{i theta} for the six-vertex families (over their trigonometric form,
    x = e^{2 i theta}), g1 for canonical eight4 (over its g view), 1 otherwise.
    """
    fam = spec.family
    if fam in (Family.SIX_NONSTD, Family.SIX_STD):
        return 2 * np.exp(1j * p.theta(ThetaConvention.HALF))
    if fam is Family.EIGHT_IV and form != "g":
        return eight4_g_factors(spec, family_x(spec, p))[0]
    return 1.0


def build_R(
    spec: FamilySpec,
    p: SpectralPoint,
    ordering: EigOrdering | None = None,
    form: str = "canonical",
) -> np.ndarray:
    """The family's R-matrix at spectral point p: ``gauge(spec, p, form)`` times
    the displayed x-form at ``family_x(spec, p)``.

    An x point returns the x-form itself. ``ordering`` is honoured for the
    three-eigenvalue families: eight3 takes first (default) or second, eight4
    takes third (default). ``form="g"`` selects the eight4 view with the
    middle block scaled by g = g2/g1.
    """
    fam = spec.family
    if fam is Family.BELL_PHI:
        raise ValueError("bell-phi is a braid-matrix family; use eight1 for its R(theta)")
    if ordering is not None:
        if fam is Family.EIGHT_III and ordering is EigOrdering.THIRD:
            raise ValueError("the third ordering of this braid matrix is the eight4 family")
        if fam is Family.EIGHT_IV and ordering is not EigOrdering.THIRD:
            raise ValueError("eight4 is the third-ordering family; use eight3 for the others")
        if fam not in (Family.EIGHT_III, Family.EIGHT_IV):
            raise ValueError(f"{fam.value} has two eigenvalues; ordering does not apply")
    r = _x_form(spec, family_x(spec, p), ordering, form)
    return r if p.kind == "x" else gauge(spec, p, form) * r


def _x_form(spec: FamilySpec, x: complex, ordering: EigOrdering | None, form: str) -> np.ndarray:
    """The paper's displayed closed form R(x) of the family."""
    fam = spec.family
    q = complex(spec.q)
    s = spec.sign.factor
    if fam is Family.SIX_NONSTD:
        return cmat(
            [
                [q - x / q, 0, 0, 0],
                [0, (q - 1 / q) * x, 1 - x, 0],
                [0, 1 - x, q - 1 / q, 0],
                [0, 0, 0, q * x - 1 / q],
            ]
        )
    if fam is Family.SIX_STD:
        return cmat(
            [
                [q - x / q, 0, 0, 0],
                [0, (q - 1 / q) * x, 1 - x, 0],
                [0, 1 - x, q - 1 / q, 0],
                [0, 0, 0, q - x / q],
            ]
        )
    if fam is Family.EIGHT_I:
        return cmat(
            [
                [1 + x, 0, 0, q * (1 - x)],
                [0, 1 + x, s * (1 - x), 0],
                [0, -s * (1 - x), 1 + x, 0],
                [-(1 - x) / q, 0, 0, 1 + x],
            ]
        )
    if fam is Family.EIGHT_II:
        t = complex(spec.t)
        z = spec.z_value()
        return cmat(
            [
                [2 - t * (1 - x), 0, 0, q * (1 - x)],
                [0, 1 + x, s * z * (1 - x), 0],
                [0, s * z * (1 - x), 1 + x, 0],
                [(1 - x) / q, 0, 0, 2 * x + t * (1 - x)],
            ]
        )
    if fam is Family.EIGHT_III:
        t = complex(spec.t)
        if ordering is EigOrdering.SECOND:
            b = build_b(spec)
            return np.asarray(b) - x * (1 - t * t) * inverse(b, context=f"t = {t}")
        return cmat(
            [
                [t * (1 - x), 0, 0, q * (1 + x)],
                [0, 1 + x, s * t * (1 - x), 0],
                [0, s * t * (1 - x), 1 + x, 0],
                [(1 + x) / q, 0, 0, t * (1 - x)],
            ]
        )
    if fam is Family.EIGHT_IV:
        t = complex(spec.t)
        g1, g2 = eight4_g_factors(spec, x)
        if form == "g":
            g = g2 / g1
            return cmat(
                [
                    [t * (1 + x), 0, 0, q * (1 - x)],
                    [0, (1 + x) * g, s * t * (1 - x) * g, 0],
                    [0, s * t * (1 - x) * g, (1 + x) * g, 0],
                    [(1 - x) / q, 0, 0, t * (1 + x)],
                ]
            )
        return cmat(
            [
                [t * (1 + x) * g1, 0, 0, q * (1 - x) * g1],
                [0, (1 + x) * g2, s * t * (1 - x) * g2, 0],
                [0, s * t * (1 - x) * g2, (1 + x) * g2, 0],
                [(1 - x) * g1 / q, 0, 0, t * (1 + x) * g1],
            ]
        )
    raise ValueError(f"unknown family {fam}")


def formula_R(
    spec: FamilySpec,
    x: complex,
    ordering: EigOrdering | None = None,
) -> np.ndarray:
    """R(x) straight from the eigenvalue formulas rather than the closed forms.

    Two-eigenvalue families run through the proved formula; eight3/4 run
    through the three-eigenvalue candidate in the requested ordering. Output
    may differ from ``build_R`` by one overall scalar constant in x. At the
    eigenvalue-collapse points t in {0, +-1} the braid matrix degenerates and
    no formula applies; the closed forms remain available there.
    """
    fam = spec.family
    b = build_b(spec)
    lams = eigenvalues_of(spec)
    if fam in (Family.EIGHT_III, Family.EIGHT_IV):
        t = complex(spec.t)
        if min(abs(t), abs(t - 1), abs(t + 1)) < 1e-9:
            raise DomainError(
                f"eigenvalues 1+t, 1-t, t-1 collapse at t = {t}; the braid matrix "
                "is singular there and neither eigenvalue formula applies"
            )
        if ordering is None:
            ordering = EigOrdering.THIRD if fam is Family.EIGHT_IV else EigOrdering.FIRST
        return yb_three(b, ordered_eigenvalues(spec, ordering), x)
    if ordering is not None:
        raise ValueError(f"{fam.value} has two eigenvalues; ordering does not apply")
    return yb_two(b, lams[0], lams[1], x)
