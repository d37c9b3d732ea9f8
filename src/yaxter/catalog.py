"""Braid-group representation catalog for the six- and eight-vertex models.

Seven families of 4x4 braid matrices b, each satisfying
(b x I)(I x b)(b x I) = (I x b)(b x I)(I x b):

    six-nonstd   [[q,0,0,0],[0,0,1,0],[0,1,q-1/q,0],[0,0,0,-1/q]]   eigenvalues q, -1/q
    six-std      same but with q in the lower corner                 eigenvalues q, -1/q
    eight1       [[1,0,0,q],[0,1,+-1,0],[0,-+1,1,0],[-1/q,0,0,1]]    eigenvalues 1 -+ i
    eight2       corners 2-t, t; middle +-z, z = sqrt(t^2-2t+2)      eigenvalues 1 +- z
    eight3/4     corners t; middle +-t (shared b, two baxterizations) eigenvalues 1+t, 1-t, t-1
    bell-phi     eight1 with q = e^{-i phi}, rescaled by 1/sqrt(2)   eigenvalues e^{+-i pi/4}

Unitary-domain conventions per family are exposed by
``FamilySpec.domain_violation``; construction outside the domain is allowed
(the braid relation is an algebraic identity) but flagged.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

import numpy as np

from .linalg import cmat, frobenius, identity


class Family(str, enum.Enum):
    SIX_NONSTD = "six-nonstd"
    SIX_STD = "six-std"
    EIGHT_I = "eight1"
    EIGHT_II = "eight2"
    EIGHT_III = "eight3"
    EIGHT_IV = "eight4"
    BELL_PHI = "bell-phi"


class Sign(str, enum.Enum):
    PLUS = "plus"
    MINUS = "minus"

    @property
    def factor(self) -> int:
        return 1 if self is Sign.PLUS else -1


EIGHT_VERTEX_FAMILIES = (Family.EIGHT_I, Family.EIGHT_II, Family.EIGHT_III, Family.EIGHT_IV)
THREE_EIGENVALUE_FAMILIES = (Family.EIGHT_III, Family.EIGHT_IV)


class DomainError(ValueError):
    """A parameter point violates a family's unitary-domain constraint."""


#: tolerance of the unitary-domain predicates below; a NaN is in no domain.
DOMAIN_TOL = 1e-12


def is_real(z) -> bool:
    z = complex(z)
    return cmath.isfinite(z) and abs(z.imag) < DOMAIN_TOL * max(1.0, abs(z))


def is_imag(z) -> bool:
    z = complex(z)
    return cmath.isfinite(z) and abs(z.real) < DOMAIN_TOL * max(1.0, abs(z))


def on_unit_circle(z) -> bool:
    return abs(abs(complex(z)) - 1.0) < DOMAIN_TOL


def finite_rho(rho: float, where: str = "") -> float:
    """A closed-form rho; one that overflowed to inf or NaN is a DomainError."""
    if not math.isfinite(rho):
        raise DomainError(f"closed-form rho = {rho} is not finite{where}")
    return rho


@dataclass(frozen=True)
class FamilySpec:
    """A braid family together with its parameter point.

    q is the deformation parameter (nonzero). For the six-vertex families the
    unitary domain takes q = e^gamma real; for the eight-vertex families q
    lives on the unit circle, q = e^{-i phi}; q is the only stored value and
    ``phi`` is derived from it. t parametrizes eight2/3/4, sign selects the +-
    branch.
    """

    family: Family
    q: complex = 1.0
    t: complex = 2.0
    sign: Sign = Sign.PLUS

    def __post_init__(self):
        for name in ("q", "t"):
            z = complex(getattr(self, name))
            if not (math.isfinite(z.real) and math.isfinite(z.imag)):
                raise ValueError(f"{name} must be finite, got {z}")
        if self.q == 0:
            raise ValueError("deformation parameter q must be nonzero")

    @classmethod
    def six_nonstd(cls, q: complex = None, gamma: float = None) -> "FamilySpec":
        return cls(Family.SIX_NONSTD, q=_q_from(q, gamma))

    @classmethod
    def six_std(cls, q: complex = None, gamma: float = None) -> "FamilySpec":
        return cls(Family.SIX_STD, q=_q_from(q, gamma))

    @classmethod
    def eight1(cls, q: complex = None, phi: float = None, sign: Sign = Sign.PLUS) -> "FamilySpec":
        if phi is not None:
            if q is not None:
                raise ValueError("give q or phi, not both")
            q = np.exp(-1j * phi)
        if q is None:
            raise ValueError("give q or phi")
        return cls(Family.EIGHT_I, q=complex(q), sign=sign)

    @classmethod
    def eight2(cls, t: complex, q: complex = 1.0, sign: Sign = Sign.PLUS) -> "FamilySpec":
        return cls(Family.EIGHT_II, q=complex(q), t=complex(t), sign=sign)

    @classmethod
    def eight3(cls, t: complex, q: complex = 1.0, sign: Sign = Sign.PLUS) -> "FamilySpec":
        return cls(Family.EIGHT_III, q=complex(q), t=complex(t), sign=sign)

    @classmethod
    def eight4(cls, t: complex, q: complex = 1.0, sign: Sign = Sign.PLUS) -> "FamilySpec":
        return cls(Family.EIGHT_IV, q=complex(q), t=complex(t), sign=sign)

    @classmethod
    def bell(cls, phi: float = 0.0, sign: Sign = Sign.PLUS) -> "FamilySpec":
        return cls(Family.BELL_PHI, q=np.exp(-1j * phi), sign=sign)

    @property
    def phi(self) -> float:
        """phi with q = e^{-i phi}; defined on the eight-vertex unit-circle domain."""
        return -float(np.angle(complex(self.q)))

    @property
    def gamma(self) -> float:
        """gamma with q = e^gamma; defined for the six-vertex real-q domain."""
        q = complex(self.q)
        if abs(q.imag) > 1e-14 * max(1.0, abs(q.real)) or q.real <= 0:
            raise DomainError(f"gamma = log q needs real positive q, got q = {q}")
        return math.log(q.real)

    def z_value(self) -> complex:
        """Middle-block weight z = sqrt(t^2 - 2t + 2) (eight2 only), principal branch."""
        t = complex(self.t)
        return complex(np.sqrt(t * t - 2 * t + 2))

    def domain_violation(self, x: complex = None) -> str | None:
        """Return the violated unitary-domain constraint, or None if inside.

        The spectral parameter x is checked when given; family parameters are
        always checked. Conventions: six-vertex needs real q and |x| = 1;
        eight1 needs |q| = 1 and real x; eight2/3 need real t, |q| = 1, |x| = 1;
        eight4 needs |q| = 1 and either (real t, |x| = 1) or (imaginary t, real x).
        """
        q, t = complex(self.q), complex(self.t)
        fam = self.family
        if fam in (Family.SIX_NONSTD, Family.SIX_STD):
            if not is_real(q):
                return f"six-vertex unitarity needs real q, got q = {q}"
            if x is not None and not on_unit_circle(x):
                return f"six-vertex unitarity needs |x| = 1, got |x| = {abs(x):.6g}"
        elif fam in (Family.EIGHT_I, Family.BELL_PHI):
            if not on_unit_circle(q):
                return f"{fam.value} unitarity needs |q| = 1, got |q| = {abs(q):.6g}"
            if fam is Family.EIGHT_I and x is not None and not is_real(x):
                return f"eight1 unitarity needs real x, got x = {x}"
        elif fam in (Family.EIGHT_II, Family.EIGHT_III):
            if not on_unit_circle(q):
                return f"{fam.value} unitarity needs |q| = 1, got |q| = {abs(q):.6g}"
            if not is_real(t):
                return f"{fam.value} unitarity needs real t, got t = {t}"
            if x is not None and not on_unit_circle(x):
                return f"{fam.value} unitarity needs |x| = 1, got |x| = {abs(x):.6g}"
        elif fam is Family.EIGHT_IV:
            if not on_unit_circle(q):
                return f"eight4 unitarity needs |q| = 1, got |q| = {abs(q):.6g}"
            if is_real(t):
                if x is not None and not on_unit_circle(x):
                    return f"eight4 with real t needs |x| = 1, got |x| = {abs(x):.6g}"
            elif is_imag(t):
                if x is not None and not is_real(x):
                    return f"eight4 with imaginary t needs real x, got x = {x}"
            else:
                return f"eight4 unitarity needs t real or pure imaginary, got t = {t}"
        return None


def _q_from(q, gamma):
    if gamma is not None:
        if q is not None:
            raise ValueError("give q or gamma, not both")
        return math.exp(gamma)
    if q is None:
        raise ValueError("give q or gamma")
    return complex(q)


def build_b(spec: FamilySpec) -> np.ndarray:
    """The family's braid matrix at the spec's parameter point."""
    q = complex(spec.q)
    s = spec.sign.factor
    fam = spec.family
    if fam is Family.SIX_NONSTD:
        return cmat([[q, 0, 0, 0], [0, 0, 1, 0], [0, 1, q - 1 / q, 0], [0, 0, 0, -1 / q]])
    if fam is Family.SIX_STD:
        return cmat([[q, 0, 0, 0], [0, 0, 1, 0], [0, 1, q - 1 / q, 0], [0, 0, 0, q]])
    if fam in (Family.EIGHT_I, Family.BELL_PHI):
        b = cmat([[1, 0, 0, q], [0, 1, s, 0], [0, -s, 1, 0], [-1 / q, 0, 0, 1]])
        return b if fam is Family.EIGHT_I else b / np.sqrt(2)
    if fam is Family.EIGHT_II:
        z = spec.z_value()
        t = complex(spec.t)
        return cmat([[2 - t, 0, 0, q], [0, 1, s * z, 0], [0, s * z, 1, 0], [1 / q, 0, 0, t]])
    if fam in (Family.EIGHT_III, Family.EIGHT_IV):
        t = complex(spec.t)
        return cmat([[t, 0, 0, q], [0, 1, s * t, 0], [0, s * t, 1, 0], [1 / q, 0, 0, t]])
    raise ValueError(f"unknown family {fam}")


def eigenvalues_of(spec: FamilySpec) -> list[complex]:
    """Eigenvalue list annihilating b: prod_i (b - lambda_i) = 0.

    For eight3/4 the three values 1+t, 1-t, t-1 are returned even at the
    collapse points t in {0, +-1}, where repeats appear; the annihilation
    property still holds there.
    """
    fam = spec.family
    q = complex(spec.q)
    if fam in (Family.SIX_NONSTD, Family.SIX_STD):
        return [q, -1 / q]
    if fam is Family.EIGHT_I:
        return [1 - 1j, 1 + 1j]
    if fam is Family.EIGHT_II:
        z = spec.z_value()
        return [1 + z, 1 - z]
    if fam in (Family.EIGHT_III, Family.EIGHT_IV):
        t = complex(spec.t)
        return [1 + t, 1 - t, -1 + t]
    if fam is Family.BELL_PHI:
        return [complex(np.exp(-1j * np.pi / 4)), complex(np.exp(1j * np.pi / 4))]
    raise ValueError(f"unknown family {fam}")


def braid_residual(b: np.ndarray) -> float:
    """Frobenius norm of (b x I)(I x b)(b x I) - (I x b)(b x I)(I x b) on C^8."""
    b = np.asarray(b, dtype=complex)
    eye = identity(2)
    b1 = np.kron(b, eye)
    b2 = np.kron(eye, b)
    return frobenius(b1 @ b2 @ b1 - b2 @ b1 @ b2)


@dataclass(frozen=True)
class BoltzmannWeights:
    """The eight nonzero entries of the general eight-vertex matrix ansatz.

    Matrix layout: [[w1,0,0,w7],[0,w5,w3,0],[0,w4,w6,0],[w8,0,0,w2]].
    """

    w1: complex
    w2: complex
    w3: complex
    w4: complex
    w5: complex
    w6: complex
    w7: complex
    w8: complex

    def __post_init__(self):
        for i in range(1, 9):
            if getattr(self, f"w{i}") == 0:
                raise ValueError(f"w{i} vanishes; all eight weights must be nonzero")

    def as_matrix(self) -> np.ndarray:
        return cmat(
            [
                [self.w1, 0, 0, self.w7],
                [0, self.w5, self.w3, 0],
                [0, self.w4, self.w6, 0],
                [self.w8, 0, 0, self.w2],
            ]
        )

    @classmethod
    def from_matrix(cls, b: np.ndarray) -> "BoltzmannWeights":
        b = np.asarray(b, dtype=complex)
        return cls(
            w1=b[0, 0], w2=b[3, 3], w3=b[1, 2], w4=b[2, 1],
            w5=b[1, 1], w6=b[2, 2], w7=b[0, 3], w8=b[3, 0],
        )


def eight_vertex_residuals(w: BoltzmannWeights, branch_tol: float = 1e-9) -> np.ndarray:
    """Residual vector of the eight-vertex braid constraint system.

    Always includes the three branch-selection products

        (w5 - w6) w7 w8,  (w3 - w4)(w1 - w5) w8,  (w3 - w4)(w2 - w5) w7,

    then the constraints of the branch selected by w3 vs w4:

        w3 != w4:  w5 = w1 = w2 = w6,  w1^2 = w3^2 = w4^2,  w3^2 + w7 w8 = 0
        w3 == w4:  w5 = w6,  w5^2 = w7 w8,
                   w1^2 - w3^2 - w1 w5 + w2 w5 = 0,
                   w2^2 - w3^2 + w1 w5 - w2 w5 = 0

    The last entry is the braid residual of the assembled matrix, so an
    all-zero vector certifies an actual braid-relation solution.
    """
    w1, w2, w3, w4 = w.w1, w.w2, w.w3, w.w4
    w5, w6, w7, w8 = w.w5, w.w6, w.w7, w.w8
    out = [
        (w5 - w6) * w7 * w8,
        (w3 - w4) * (w1 - w5) * w8,
        (w3 - w4) * (w2 - w5) * w7,
    ]
    scale = max(abs(v) for v in (w1, w2, w3, w4, w5, w6, w7, w8))
    if abs(w3 - w4) > branch_tol * scale:
        out += [
            w1 - w5, w2 - w5, w6 - w5,
            w1 * w1 - w3 * w3,
            w1 * w1 - w4 * w4,
            w3 * w3 + w7 * w8,
        ]
    else:
        out += [
            w5 - w6,
            w5 * w5 - w7 * w8,
            w1 * w1 - w3 * w3 - w1 * w5 + w2 * w5,
            w2 * w2 - w3 * w3 + w1 * w5 - w2 * w5,
        ]
    out.append(complex(braid_residual(w.as_matrix())))
    return np.asarray(out, dtype=complex)
