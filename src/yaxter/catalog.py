"""Braid-group representation catalog for the six- and eight-vertex models.

Seven families of 4x4 braid matrices b, each satisfying
(b x I)(I x b)(b x I) = (I x b)(b x I)(I x b):

    six-nonstd   [[q,0,0,0],[0,0,1,0],[0,1,q-1/q,0],[0,0,0,-1/q]]   eigenvalues q, -1/q
    six-std      same but with q in the lower corner                 eigenvalues q, -1/q
    eight1       [[1,0,0,q],[0,1,+-1,0],[0,-+1,1,0],[-1/q,0,0,1]]    eigenvalues 1 -+ i
    eight2       corners 2-t, t; middle +-z, z = sqrt(t^2-2t+2)      eigenvalues 1 +- z
    eight3/4     corners t; middle +-t (shared b, two baxterizations) eigenvalues 1+t, 1-t, t-1
    bell-phi     eight1 with q = e^{-i phi}, rescaled by 1/sqrt(2)   eigenvalues e^{+-i pi/4}

Unitary-domain conventions per family are exposed by ``domain_violation`` (and the
``domain_violation`` of FamilySpec and FamilySpecs); construction outside the domain is
allowed (the braid relation is an algebraic identity) but flagged; realness is ``is_real``'s,
``gamma_of``'s too, and ``finite_rho`` guards every closed-form rho. The
kernels (``braid_matrix``, the predicates, ``domain_violation``) take their
parameters as scalars or as arrays that broadcast, one entry per sample;
``FamilySpecs`` holds n samples of one family as arrays, and ``braid_rows``
builds their braid matrices as the weight rows the stacked kernels take. ``q_from`` turns
q, gamma or phi into the deformation parameter q, for the ``FamilySpec`` constructors and the CLI.

``kept`` holds one record per FamilySpec object, for the ``KEPT_SPECS`` objects that took
one last, of what its evaluations derive from its parameters alone: the (q, t) part of its
domain verdict here, its coefficient rows (``baxterize``) and its closed-form constants
(``dynamics``).
"""

from __future__ import annotations

import cmath
import enum
import math
import threading
from dataclasses import astuple, dataclass

import numpy as np

from .linalg import MAX_ENTRY, WeightRows, cmat, pattern_rows, strand_gap, weights


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


SIX_VERTEX_FAMILIES = Family.SIX_NONSTD, Family.SIX_STD
EIGHT_VERTEX_FAMILIES = (Family.EIGHT_I, Family.EIGHT_II, Family.EIGHT_III, Family.EIGHT_IV)
THREE_EIGENVALUE_FAMILIES = (Family.EIGHT_III, Family.EIGHT_IV)


class DomainError(ValueError):
    """A parameter point violates a family's unitary-domain constraint."""


#: tolerance of the unitary-domain predicates below; a NaN is in no domain.
DOMAIN_TOL = 1e-12

# The predicates and kernels below take scalars or arrays that broadcast: a scalar
# gives one verdict or value, an array one per entry (one per sample of a scan).


def _finite(z):
    return np.isfinite(z) if isinstance(z, np.ndarray) else cmath.isfinite(z)


def is_real(z):
    im = abs(z.imag)
    return _finite(z) & ((im < DOMAIN_TOL) | (im < DOMAIN_TOL * abs(z)))


def is_imag(z):
    re = abs(z.real)
    return _finite(z) & ((re < DOMAIN_TOL) | (re < DOMAIN_TOL * abs(z)))


def on_unit_circle(z):
    return abs(abs(z) - 1.0) < DOMAIN_TOL


def _first_failure(holds, message: str, value, **names) -> str | None:
    """None where ``holds`` is true everywhere, else ``message`` formatted with ``value``
    at the first entry where it is false (and with ``names``)."""
    if not isinstance(holds, np.ndarray):
        return None if holds else message.format(value, **names)
    if np.count_nonzero(holds) == holds.size:  # one pass; the search only on failure
        return None
    k = np.argmin(holds)  # the first False
    return message.format(np.broadcast_to(value, holds.shape).flat[k].item(), **names)


def reject_non_finite(**params) -> None:
    """A ValueError naming the first entry that is not finite of the first such parameter
    (a number or an array) in the order given: a number decided by ``cmath``, an array by
    one numpy pass."""
    for name, value in params.items():
        failure = _first_failure(_finite(value), "{name} must be finite, got {}", value,
                                 name=name)
        if failure:
            raise ValueError(failure)


#: rho at or below which R vanishes and U = rho^{-1/2} R is not formed
RHO_FLOOR = 1e-14


def finite_rho(rho, vanishing: str = "", where: str = ""):
    """A closed-form rho, a number or an array, never below 0: one that overflowed to inf or
    NaN, or with a ``vanishing`` message one below ``RHO_FLOOR``, is a DomainError, which
    names an array's first such entry by its index and ends in ``where`` for a number."""
    finite = rho < math.inf  # False at inf and NaN
    ok = finite & (rho >= RHO_FLOOR) if vanishing else finite
    if ok.all() if isinstance(ok, np.ndarray) else ok:
        return rho
    k = int(np.argmin(ok))  # the first False
    where = f" at index {k} of the stack" if np.ndim(rho) else where
    rho, finite = np.ravel(rho)[k], np.ravel(finite)[k]
    raise DomainError((vanishing if finite else f"closed-form rho = {rho} is not finite") + where)


def gamma_of(q):
    """gamma = log q for real positive q (``is_real``), the six-vertex domain; else a
    DomainError."""
    failure = _first_failure(is_real(q) & (q.real > 0),
                             "gamma = log q needs real positive q, got q = {}", q)
    if failure:
        raise DomainError(failure)
    return np.log(q.real) if isinstance(q, np.ndarray) else math.log(q.real)


def z_of(t):
    """Middle-block weight z = sqrt(t^2 - 2t + 2) of eight2, principal branch."""
    z = np.sqrt(t * t - 2 * t + 2)
    return z if z.ndim else complex(z)


def domain_violation(family: Family, q, t, x=None) -> str | None:
    """The first unitary-domain constraint that (q, t) and, when given, x violate, or None.

    Conventions: six-vertex needs real q and |x| = 1; eight1 needs |q| = 1 and
    real x; eight2/3 need real t, |q| = 1, |x| = 1; eight4 needs |q| = 1 and
    either (real t, |x| = 1) or (imaginary t, real x). For arrays the message
    names the first sample that violates the first failing constraint.
    """
    return _first_violation(family, _domain_constraints(family, q, t, x))


def _first_violation(fam: Family, constraints) -> str | None:
    """The message of the first constraint of ``constraints`` that fails, or None."""
    for holds, message, value in constraints:
        if not (holds.all() if isinstance(holds, np.ndarray) else holds):
            return _first_failure(holds, message, value(), family=fam.value)
    return None


def _domain_constraints(fam: Family, q, t, x):
    """(holds, message, value) per constraint of ``domain_violation``, in the order checked,
    with the message's value as a function, called only when the constraint fails; lazy, so
    a scalar check stops at its first failure. The (q, t) constraints come first and those on
    x (``_x_constraints``) after, which lets ``FamilySpec.domain_violation`` keep the verdict
    of the first."""
    real_t = _eight4_t_is_real(fam, t)
    if fam in SIX_VERTEX_FAMILIES:
        yield is_real(q), "six-vertex unitarity needs real q, got q = {}", lambda: q
    else:
        yield (on_unit_circle(q), "{family} unitarity needs |q| = 1, got |q| = {:.6g}",
               lambda: abs(q))
        if fam is Family.EIGHT_IV:
            yield (real_t | is_imag(t), "eight4 unitarity needs t real or pure imaginary, "
                   "got t = {}", lambda: t)
        elif fam not in (Family.EIGHT_I, Family.BELL_PHI):  # eight2, eight3
            yield is_real(t), "{family} unitarity needs real t, got t = {}", lambda: t
    if x is not None:
        yield from _x_constraints(fam, x, real_t)


def _eight4_t_is_real(fam: Family, t):
    """is_real(t) for eight4, whose (q, t) and x constraints both read it; None otherwise."""
    return is_real(t) if fam is Family.EIGHT_IV else None


def _x_constraints(fam: Family, x, real_t):
    """The constraints of ``_domain_constraints`` on x, which for eight4 depend on whether t
    is real (``real_t``); they are tested once (q, t) holds."""
    if fam in SIX_VERTEX_FAMILIES:
        yield (on_unit_circle(x), "six-vertex unitarity needs |x| = 1, got |x| = {:.6g}",
               lambda: abs(x))
    elif fam is Family.EIGHT_I:
        yield is_real(x), "eight1 unitarity needs real x, got x = {}", lambda: x
    elif fam is Family.EIGHT_IV:  # every t here is real or imaginary; b ^ True is "not b"
        yield (on_unit_circle(x) | (real_t ^ True),
               "eight4 with real t needs |x| = 1, got |x| = {:.6g}", lambda: abs(x))
        yield (is_real(x) | real_t, "eight4 with imaginary t needs real x, got x = {}",
               lambda: x)
    elif fam is not Family.BELL_PHI:  # eight2, eight3
        yield (on_unit_circle(x), "{family} unitarity needs |x| = 1, got |x| = {:.6g}",
               lambda: abs(x))


@dataclass(frozen=True)
class FamilySpec:
    """A braid family together with its parameter point.

    q is the deformation parameter (nonzero). For the six-vertex families the
    unitary domain takes q = e^gamma real; for the eight-vertex families q
    lives on the unit circle, q = e^{-i phi}; q is the only stored value (``q_from``
    resolves gamma or phi) and ``phi`` is derived from it. t parametrizes eight2/3/4, sign
    selects the +- branch.
    """

    family: Family
    q: complex = 1.0
    t: complex = 2.0
    sign: Sign = Sign.PLUS

    def __post_init__(self):
        reject_non_finite(q=complex(self.q), t=complex(self.t))
        if self.q == 0:
            raise ValueError("deformation parameter q must be nonzero")

    @classmethod
    def six_nonstd(cls, q: complex = None, gamma: float = None) -> "FamilySpec":
        return cls(Family.SIX_NONSTD, q=q_from(q=q, gamma=gamma))

    @classmethod
    def six_std(cls, q: complex = None, gamma: float = None) -> "FamilySpec":
        return cls(Family.SIX_STD, q=q_from(q=q, gamma=gamma))

    @classmethod
    def eight1(cls, q: complex = None, phi: float = None, sign: Sign = Sign.PLUS) -> "FamilySpec":
        return cls(Family.EIGHT_I, q=q_from(q=q, phi=phi), sign=sign)

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
        return cls(Family.BELL_PHI, q=q_from(phi=phi), sign=sign)

    @property
    def phi(self) -> float:
        """phi with q = e^{-i phi}; defined on the eight-vertex unit-circle domain."""
        return -float(np.angle(complex(self.q)))

    @property
    def gamma(self) -> float:
        """gamma with q = e^gamma; defined for the six-vertex real-q domain."""
        return gamma_of(complex(self.q))

    def domain_violation(self, x: complex = None) -> str | None:
        """The violated unitary-domain constraint (see ``domain_violation``), or None if
        inside; x is checked when given, family parameters always. The (q, t) verdict is
        taken once per spec object and kept (``kept``): a violation there is the answer,
        whatever x; else only the x constraints are tested, in the order of
        ``domain_violation``, so the first violation found and its message are the same."""
        record = kept(self)
        verdict = record.verdict
        if verdict is _UNSET:
            verdict = record.verdict = domain_violation(self.family, complex(self.q),
                                                        complex(self.t))
        if verdict is not None or x is None:
            return verdict
        real_t = _eight4_t_is_real(self.family, complex(self.t))
        return _first_violation(self.family, _x_constraints(self.family, x, real_t))

    def parameters(self) -> tuple[complex, complex, int]:
        """(q, t, sign factor), the arguments of the closed-form kernels."""
        return complex(self.q), complex(self.t), self.sign.factor


#: how many FamilySpec objects keep their records (``kept``)
KEPT_SPECS = 64
_UNSET = object()  # a record's verdict before it is taken; None is the verdict "inside"
_KEPT: dict = {}  # id(spec) -> its Kept, in the order taken
_KEPT_LOCK = threading.Lock()


class Kept:
    """What the evaluations of one FamilySpec object derive from its parameters alone, each
    field filled on first use by the code that reads it: the (q, t) ``verdict`` of
    ``FamilySpec.domain_violation``; the coefficient ``rows`` of each eigenvalue ordering
    (``baxterize._coefficient_rows``); eight1's ``generator`` H_pm and the ``closed``
    constants of the six-vertex, eight2 and eight3 closed-form Hamiltonians (``dynamics``).
    The arrays are read-only: every caller gets the same one."""

    __slots__ = ("spec", "verdict", "rows", "generator", "closed", "__weakref__")

    def __init__(self, spec: FamilySpec):
        self.spec = spec  # held, so that no other object takes its id while it is kept
        self.verdict = _UNSET
        self.rows = {}
        self.generator = None
        self.closed = None


def kept(spec: FamilySpec) -> Kept:
    """The record of the spec object, found by its id, not by ==, for equal specs can differ
    in bits (t = 0.0 and -0.0). The records of the ``KEPT_SPECS`` objects that took one last
    are kept, and the oldest is dropped first; a lookup hashes no field."""
    record = _KEPT.get(id(spec))
    if record is None:
        with _KEPT_LOCK:
            record = _KEPT.get(id(spec))
            if record is None:
                if len(_KEPT) >= KEPT_SPECS:
                    del _KEPT[next(iter(_KEPT))]
                record = _KEPT[id(spec)] = Kept(spec)
    return record


@dataclass(frozen=True)
class FamilySpecs:
    """n parameter points of one family: q, t and the sign factor s (+1 or -1) as (n,)
    arrays, which the kernels (``braid_matrix`` and the R-matrix and rho closed forms)
    take as they are; ``specs[k]`` is the k-th point as a FamilySpec. A non-finite q or
    t, or q = 0, is a ValueError that names the first such sample: one verdict from three
    counts (finite q, finite t, nonzero q), and the ordered search for the sample, q's
    finiteness, then t's, then q != 0, only when it fails."""

    family: Family
    q: np.ndarray
    t: np.ndarray
    s: np.ndarray

    def __post_init__(self):
        q, t = self.q, self.t
        counts = np.count_nonzero(np.isfinite(q)) + np.count_nonzero(np.isfinite(t))
        if counts + np.count_nonzero(q) == 2 * q.size + t.size:  # one verdict on all three
            return
        reject_non_finite(q=q, t=t)  # the first failing sample, in the order of the checks
        raise ValueError(_first_failure(q != 0, "deformation parameter q must be nonzero", q))

    @classmethod
    def from_specs(cls, specs) -> "FamilySpecs":
        """The points of a non-empty sequence of FamilySpecs of one family, in order."""
        families = {spec.family for spec in specs}
        if len(families) != 1:
            raise ValueError(f"expected points of one family, got {len(families)} families")
        q, t, s = np.array([spec.parameters() for spec in specs]).T
        return cls(families.pop(), q, t, s.real.astype(int))

    def __len__(self) -> int:
        return len(self.q)

    def parameters(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(q, t, s), the arguments of the closed-form kernels, as ``FamilySpec.parameters``."""
        return self.q, self.t, self.s

    def domain_violation(self, x) -> str | None:
        """``domain_violation`` of every sample, as ``FamilySpec.domain_violation`` of one:
        the message names the first sample that violates the first failing constraint."""
        return domain_violation(self.family, self.q, self.t, x)

    def __getitem__(self, k: int) -> FamilySpec:
        return FamilySpec(self.family, q=self.q[k].item(), t=self.t[k].item(),
                          sign=Sign.PLUS if self.s[k] > 0 else Sign.MINUS)


def q_from(prefix: str = "", **given) -> complex:
    """The deformation parameter from exactly one given value that is not None: q, gamma
    (q = e^gamma) or phi (q = e^{-i phi}). More than one, or none, is a ValueError that names
    them, and so is a gamma or phi that puts q off the finite nonzero numbers, before any
    exponential of it. The errors put ``prefix`` before each name ("--" in the CLI)."""
    named = [prefix + name for name, value in given.items() if value is not None]
    if len(named) != 1:
        tail = {0: "", 2: ", not both"}.get(len(named), ", not all three")
        raise ValueError(f"give {' or '.join(named or (prefix + name for name in given))}{tail}")
    gamma, phi = given.get("gamma"), given.get("phi")
    if gamma is not None:
        try:
            q = math.exp(gamma)
        except OverflowError:  # above gamma ~ 709.8; below ~ -745.1, q underflows to 0
            q = math.inf
        if not 0.0 < q < math.inf:
            raise ValueError(f"{prefix}gamma = {gamma} puts q = e^gamma at {q}, "
                             "not finite and nonzero")
        return q
    if phi is None:
        return complex(given["q"])
    if not cmath.isfinite(phi):  # numpy warns on exp(-1j * inf)
        raise ValueError(f"{prefix}phi must be finite, got {phi}")
    return complex(np.exp(-1j * phi))


def build_b(spec: FamilySpec) -> np.ndarray:
    """The family's braid matrix at the spec's parameter point."""
    return braid_matrix(spec.family, *spec.parameters())


def braid_matrix(family: Family, q, t, s) -> np.ndarray:
    """The braid matrix b at q, t and sign factor s; an array q (the parameters broadcast)
    gives the (n, 4, 4) stack of ``braid_rows``."""
    if isinstance(q, np.ndarray):
        return braid_rows(family, q, t, s).dense()
    b = cmat(_braid_table(family, q, t, s))
    return b / np.sqrt(2) if family is Family.BELL_PHI else b


def braid_rows(family: Family, q, t, s) -> WeightRows:
    """The braid matrices at arrays q, t and s (which broadcast) as weight rows, the form
    the stacked kernels take; a non-finite q or t is a ValueError that names its first
    sample, and a non-finite entry that of ``linalg.pattern_rows``."""
    reject_non_finite(q=q, t=t)  # numpy warns on 1 / nan
    w = pattern_rows([_braid_table(family, q, t, s)])[0]
    return WeightRows(w / np.sqrt(2) if family is Family.BELL_PHI else w)


def _braid_table(fam: Family, q, t, s, z=None) -> list:
    """The rows of ``braid_matrix`` before its checks (and bell-phi's 1/sqrt(2)): Python
    numbers for scalar parameters, arrays where they are arrays. ``z`` is eight2's
    ``z_of(t)`` when the caller has it already."""
    if fam is Family.SIX_NONSTD:
        return [[q, 0, 0, 0], [0, 0, 1, 0], [0, 1, q - 1 / q, 0], [0, 0, 0, -1 / q]]
    if fam is Family.SIX_STD:
        return [[q, 0, 0, 0], [0, 0, 1, 0], [0, 1, q - 1 / q, 0], [0, 0, 0, q]]
    if fam in (Family.EIGHT_I, Family.BELL_PHI):
        return [[1, 0, 0, q], [0, 1, s, 0], [0, -s, 1, 0], [-1 / q, 0, 0, 1]]
    if fam is Family.EIGHT_II:
        z = z_of(t) if z is None else z
        return [[2 - t, 0, 0, q], [0, 1, s * z, 0], [0, s * z, 1, 0], [1 / q, 0, 0, t]]
    if fam in (Family.EIGHT_III, Family.EIGHT_IV):
        return [[t, 0, 0, q], [0, 1, s * t, 0], [0, s * t, 1, 0], [1 / q, 0, 0, t]]
    raise ValueError(f"unknown family {fam.value}")


def eigenvalues_of(spec: FamilySpec | FamilySpecs) -> list:
    """Eigenvalue list annihilating b, prod_i (b - lambda_i) = 0, of a FamilySpec or FamilySpecs.

    For eight3/4 the three values 1+t, 1-t, t-1 are returned even at the
    collapse points t in {0, +-1}, where repeats appear; the annihilation
    property still holds there.
    """
    q, t, _ = spec.parameters()
    return _eigenvalues(spec.family, q, t)


def _eigenvalues(fam: Family, q, t, z=None) -> list:
    """``eigenvalues_of`` at q and t; ``z`` is eight2's ``z_of(t)`` when the caller has it
    already."""
    if fam in SIX_VERTEX_FAMILIES:
        return [q, -1 / q]
    if fam is Family.EIGHT_I:
        return [1 - 1j, 1 + 1j]
    if fam is Family.EIGHT_II:
        z = z_of(t) if z is None else z
        return [1 + z, 1 - z]
    if fam in THREE_EIGENVALUE_FAMILIES:
        return [1 + t, 1 - t, -1 + t]
    if fam is Family.BELL_PHI:
        return [complex(np.exp(-1j * np.pi / 4)), complex(np.exp(1j * np.pi / 4))]
    raise ValueError(f"unknown family {fam.value}")


def braid_residual(b: np.ndarray):
    """Frobenius norm of (b x I)(I x b)(b x I) - (I x b)(b x I)(I x b) on C^8: a float for
    one dense 4x4 matrix, one per matrix for ``WeightRows`` (``linalg.strand_gap``)."""
    return strand_gap(b, b, b)


#: the eight-vertex ansatz: entry (r, c) is w_k for k = _ANSATZ[r, c] >= 1, and 0 where k = 0
_ANSATZ = np.array([[1, 0, 0, 7], [0, 5, 3, 0], [0, 4, 6, 0], [8, 0, 0, 2]])
#: the names of the weights in the order that ``linalg.weights`` reads them
_ANSATZ_KEYS = [f"w{k.real:g}" for k in weights("BoltzmannWeights", ("ansatz",), _ANSATZ)[0]]


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
        return cmat(np.array((0, *astuple(self)), dtype=complex)[_ANSATZ])

    @classmethod
    def from_matrix(cls, b: np.ndarray) -> "BoltzmannWeights":
        """The weights of b, read by ``linalg.weights``: b must be one 4x4 matrix, and an
        entry of b off the ansatz is a ValueError that names it, so no weight is dropped."""
        return cls(**dict(zip(_ANSATZ_KEYS, *weights("BoltzmannWeights.from_matrix", "b", b))))


def eight_vertex_residuals(w: BoltzmannWeights) -> np.ndarray:
    """Residual vector of the eight-vertex braid constraint system.

    Always includes the three branch-selection products

        (w5 - w6) w7 w8,  (w3 - w4)(w1 - w5) w8,  (w3 - w4)(w2 - w5) w7,

    then the constraints of the branch that w3 vs w4 (to 1e-9 of the largest weight) selects:

        w3 != w4:  w5 = w1 = w2 = w6,  w1^2 = w3^2 = w4^2,  w3^2 + w7 w8 = 0
        w3 == w4:  w5 = w6,  w5^2 = w7 w8,
                   w1^2 - w3^2 - w1 w5 + w2 w5 = 0,
                   w2^2 - w3^2 + w1 w5 - w2 w5 = 0

    The last entry is the braid residual of the assembled matrix, so an
    all-zero vector certifies an actual braid-relation solution. A weight above
    ``linalg.MAX_ENTRY``, where the products would overflow, is a DomainError.
    """
    w1, w2, w3, w4 = w.w1, w.w2, w.w3, w.w4
    w5, w6, w7, w8 = w.w5, w.w6, w.w7, w.w8
    scale = max(abs(v) for v in (w1, w2, w3, w4, w5, w6, w7, w8))
    if not scale <= MAX_ENTRY:
        raise DomainError(f"an eight-vertex weight reaches {scale:.3g}, above the "
                          f"{MAX_ENTRY:.3g} up to which the constraint products stay finite")
    out = [
        (w5 - w6) * w7 * w8,
        (w3 - w4) * (w1 - w5) * w8,
        (w3 - w4) * (w2 - w5) * w7,
    ]
    if abs(w3 - w4) > 1e-9 * scale:
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
