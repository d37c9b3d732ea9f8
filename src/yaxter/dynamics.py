"""Hamiltonian extraction from unitary R-matrix families, Pauli decomposition,
and time evolution.

The generator along the family's unitary domain curve is

    H(s) = i (dU/ds) U(s)^dag,     U(s) = rho(s)^{-1/2} R(s),

differentiated in theta for the circle families (six-vertex, eight2/3/4) and
in x for the real-x families (eight1, eight4 with imaginary t). Closed forms
are validated against finite differences rather than trusted:
``hamiltonian_closed`` returns the variant the oracle confirms. The
six-vertex closed form also circulates in a coth-gamma variant that the
derivative contradicts (the corner entries come out as sinh cosh / rho);
both variants are kept so the discrepancy can be measured and reported
(see ``six_vertex_erratum_report``).

For eight1 the evolution is generated by the time-independent

    H_pm = -(i/2) b_pm(phi)^2,

reached by the x-derivative at x = 1; along the theta-curve
cos(theta) b + sin(theta) b^{-1} the generator is the constant 2 H_pm
(chain rule dx/dtheta = 1 + x^2 evaluated at x = tan theta).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from itertools import product

import numpy as np

from .baxterize import SpectralPoint, build_R, eight4_g_factors, reference_gauge
from .catalog import DomainError, Family, FamilySpec, build_b, finite_rho, is_imag, is_real
from .gates import PAULI, tensor
from .linalg import dagger, expm_hermitian, frobenius, hermiticity_defect, identity

I4 = identity(4)
MIN_FD_STEP = 1e-8
DEFAULT_FD_STEP = 1e-5


class HamiltonianSource(str, enum.Enum):
    FINITE_DIFFERENCE = "fd"
    CLOSED_FORM = "closed"


@dataclass(frozen=True)
class Hamiltonian:
    matrix: np.ndarray
    source: HamiltonianSource
    spec: FamilySpec
    point: SpectralPoint
    herm_tol: float = 1e-9  # finite differences widen this to 10 h^2 + 1e-10

    def __post_init__(self):
        defect = hermiticity_defect(self.matrix)
        if not defect <= self.herm_tol * max(1.0, frobenius(self.matrix)):
            raise ValueError(f"Hamiltonian is not Hermitian: defect {defect:.3e}")


def _dynamics_gauge(spec: FamilySpec, p: SpectralPoint) -> complex:
    """Scalar the emitted matrix carries over the dynamics gauge: the six-vertex
    families run in their trigonometric reference gauge, the others as emitted."""
    if spec.family not in (Family.SIX_NONSTD, Family.SIX_STD):
        return 1.0
    if p.kind != "theta":
        raise ValueError("six-vertex dynamics runs along the theta curve")
    return reference_gauge(spec, p)


def gauge_rho(spec: FamilySpec, p: SpectralPoint) -> float:
    """Normalization factor of the dynamics gauge matrix at p (must be > 0)."""
    from .verify import matrix_norm_factor

    rho = matrix_norm_factor(spec, p) / abs(_dynamics_gauge(spec, p)) ** 2
    if rho <= 1e-14:
        raise DomainError(f"normalization factor degenerates (rho = {rho:.3e}) at {p}")
    return float(rho)


def gauge_unitary(spec: FamilySpec, p: SpectralPoint) -> np.ndarray:
    """U = rho^{-1/2} R in the dynamics gauge: exactly unitary on the domain curve."""
    return build_R(spec, p) / _dynamics_gauge(spec, p) / np.sqrt(gauge_rho(spec, p))


def _fd_curve(spec: FamilySpec, p: SpectralPoint):
    """The 1-d unitary curve s -> U(s) through p along the family's domain."""
    fam = spec.family
    if p.kind == "theta":
        if fam is Family.BELL_PHI:
            raise ValueError("bell-phi has no spectral parameter; use eight1")
        return float(np.real(p.value)), lambda s: gauge_unitary(spec, SpectralPoint.from_theta(s))
    if p.kind == "x":
        x0 = complex(p.value)
        if not is_real(x0):
            raise DomainError(f"real-x dynamics needs real x, got {x0}")
        if fam is Family.EIGHT_I or (fam is Family.EIGHT_IV and is_imag(spec.t)):
            return float(x0.real), lambda s: gauge_unitary(spec, SpectralPoint.from_x(s))
        raise ValueError(f"{fam.value} is not parametrized by real x on its unitary domain")
    raise ValueError(f"dynamics expects an x or theta point, got kind {p.kind!r}")


def hamiltonian_fd(
    spec: FamilySpec,
    p: SpectralPoint,
    h: float = DEFAULT_FD_STEP,
    richardson: bool = True,
) -> Hamiltonian:
    """H = i (dU/ds) U(s)^dag by central differences along the domain curve."""
    if h < MIN_FD_STEP:
        raise ValueError(f"step {h} rejected: catastrophic cancellation below {MIN_FD_STEP}")
    s0, curve = _fd_curve(spec, p)

    def diff(step):
        return (curve(s0 + step) - curve(s0 - step)) / (2.0 * step)

    du = (4.0 * diff(h / 2) - diff(h)) / 3.0 if richardson else diff(h)
    hmat = 1j * du @ dagger(curve(s0))
    return Hamiltonian(hmat, HamiltonianSource.FINITE_DIFFERENCE, spec, p,
                       herm_tol=10.0 * h * h + 1e-10)


def _real_t(spec: FamilySpec) -> float:
    t = complex(spec.t)
    if not is_real(t):
        raise DomainError(f"{spec.family.value} closed-form Hamiltonian needs real t, got {t}")
    return float(t.real)


def _six_vertex_closed(gamma: float, theta: float, standard: bool, corner) -> np.ndarray:
    sh, sn = float(np.sinh(gamma)), float(np.sin(theta))
    rho = finite_rho(sh * sh + sn * sn)
    if rho < 1e-14:
        raise DomainError("rho = sinh^2 gamma + sin^2 theta vanishes at gamma = theta = 0")
    lower = corner if standard else -corner
    return (sh / rho) * np.array(
        [[corner, 0, 0, 0], [0, -sh, 1, 0], [0, 1, sh, 0], [0, 0, 0, lower]], dtype=complex
    )


def six_vertex_hamiltonian_coth_variant(spec: FamilySpec, theta: float) -> np.ndarray:
    """The coth-gamma variant of the six-vertex closed form (kept for comparison;
    the finite-difference oracle selects the cosh variant)."""
    g = spec.gamma
    return _six_vertex_closed(g, theta, spec.family is Family.SIX_STD, 1.0 / np.tanh(g))


def hamiltonian_closed(spec: FamilySpec, theta: float) -> Hamiltonian:
    """Closed-form H(theta), in the variant confirmed by finite differences; each
    rho is a product of Python floats, so an overflow is a DomainError."""
    fam = spec.family
    q = complex(spec.q)
    s = spec.sign.factor
    point = SpectralPoint.from_theta(theta)
    if fam in (Family.SIX_NONSTD, Family.SIX_STD):
        g = spec.gamma
        hmat = _six_vertex_closed(g, theta, fam is Family.SIX_STD, np.cosh(g))
        return Hamiltonian(hmat, HamiltonianSource.CLOSED_FORM, spec, point)
    if fam is Family.EIGHT_I:
        b = build_b(replace(spec, family=Family.BELL_PHI))
        hmat = -0.5j * (b @ b)
        return Hamiltonian(hmat, HamiltonianSource.CLOSED_FORM, spec, point)
    if fam is Family.EIGHT_II:
        t = _real_t(spec)
        sn = float(np.sin(theta / 2.0))
        rho = finite_rho(4.0 + 4.0 * ((t - 1.0) * (t - 1.0)) * (sn * sn))
        z = complex(spec.z_value())
        core = np.array(
            [[1 - t, 0, 0, q], [0, 0, s * z, 0], [0, s * z, 0, 0], [1 / q, 0, 0, t - 1]],
            dtype=complex,
        )
        return Hamiltonian(-0.5 * I4 + (2.0 / rho) * core,
                           HamiltonianSource.CLOSED_FORM, spec, point)
    if fam is Family.EIGHT_III:
        t = _real_t(spec)
        sn = float(np.sin(theta / 2.0))
        rho = finite_rho(4.0 + 4.0 * (t * t - 1.0) * (sn * sn))
        core = np.array(
            [[0, 0, 0, q], [0, 0, s, 0], [0, s, 0, 0], [1 / q, 0, 0, 0]], dtype=complex
        )
        return Hamiltonian(-0.5 * I4 + (2.0 * t / rho) * core,
                           HamiltonianSource.CLOSED_FORM, spec, point)
    if fam is Family.EIGHT_IV:
        t = _real_t(spec)
        if abs(t) < 1e-12:
            raise DomainError("eight4 closed form needs real nonzero t")
        g1, g2 = eight4_g_factors(spec, complex(np.exp(1j * theta)))
        a1, a2 = abs(g1) * abs(g1), abs(g2) * abs(g2)
        rho = finite_rho(a1 * a2)
        core = np.array(
            [
                [a2, 0, 0, q * a1],
                [0, a1, s * a2, 0],
                [0, s * a2, a1, 0],
                [a1 / q, 0, 0, a2],
            ],
            dtype=complex,
        )
        return Hamiltonian(-I4 + (2.0 * t / rho) * core,
                           HamiltonianSource.CLOSED_FORM, spec, point)
    raise ValueError(f"no closed-form Hamiltonian for {fam}")


def eight1_x_hamiltonian(spec: FamilySpec, x: float) -> np.ndarray:
    """H(x) = -i b(phi)^2 / (1 + x^2): the eight1 generator along the real-x curve."""
    b = build_b(replace(spec, family=Family.BELL_PHI))
    return -1j / (1.0 + x * x) * (b @ b)


def six_vertex_erratum_report(
    spec: FamilySpec, theta: float, h: float = DEFAULT_FD_STEP
) -> dict:
    """Compare both six-vertex closed-form variants against finite differences.

    The finite-difference result is authoritative; the report records which
    variant it confirms.
    """
    fd = hamiltonian_fd(spec, SpectralPoint.from_theta(theta), h=h).matrix
    cosh_variant = hamiltonian_closed(spec, theta).matrix
    coth_variant = six_vertex_hamiltonian_coth_variant(spec, theta)
    fd_error = 10.0 * h * h + 1e-10
    dev_cosh = frobenius(fd - cosh_variant)
    dev_coth = frobenius(fd - coth_variant)
    return {
        "family": spec.family.value,
        "gamma": spec.gamma,
        "theta": theta,
        "deviation_cosh_variant": dev_cosh,
        "deviation_coth_variant": dev_coth,
        "fd_error_budget": fd_error,
        "cosh_variant_confirmed": bool(dev_cosh < fd_error),
        "coth_variant_discrepant": bool(dev_coth > 1e-3),
    }


PAULI_LABELS = "ixyz"


@dataclass(frozen=True)
class PauliDecomp:
    """Coefficients c[mu][nu] of H = sum c_{mu nu} sigma_mu x sigma_nu."""

    coeffs: np.ndarray  # 4x4 complex, indexed by (mu, nu) over (i, x, y, z)

    def coeff(self, key: str) -> complex:
        mu, nu = (PAULI_LABELS.index(k) for k in key)
        return complex(self.coeffs[mu, nu])

    def reconstruct(self) -> np.ndarray:
        out = np.zeros((4, 4), dtype=complex)
        for (mu, a), (nu, b) in product(enumerate(PAULI_LABELS), repeat=2):
            out += self.coeffs[mu, nu] * tensor(PAULI[a], PAULI[b])
        return out

    def nonzero_keys(self, tol: float = 1e-12) -> list[str]:
        keys = []
        for (mu, a), (nu, b) in product(enumerate(PAULI_LABELS), repeat=2):
            if abs(self.coeffs[mu, nu]) > tol:
                keys.append(a + b)
        return keys

    def to_json(self) -> dict:
        coeffs = {}
        for (mu, a), (nu, b) in product(enumerate(PAULI_LABELS), repeat=2):
            z = complex(self.coeffs[mu, nu])
            coeffs[a + b] = [float(z.real), float(z.imag)]
        return {"coeffs": coeffs}


def pauli_decompose(h: np.ndarray) -> PauliDecomp:
    """c_{mu nu} = Tr(H (sigma_mu x sigma_nu)) / 4; real for Hermitian H."""
    h = np.asarray(h, dtype=complex)
    c = np.zeros((4, 4), dtype=complex)
    for (mu, a), (nu, b) in product(enumerate(PAULI_LABELS), repeat=2):
        c[mu, nu] = np.trace(h @ tensor(PAULI[a], PAULI[b])) / 4.0
    return PauliDecomp(c)


def evolve(h: Hamiltonian | np.ndarray, theta: float) -> np.ndarray:
    """U(theta) = exp(-i H theta)."""
    hmat = h.matrix if isinstance(h, Hamiltonian) else np.asarray(h, dtype=complex)
    return expm_hermitian(hmat, theta)


def braiding_evolution_residual(spec: FamilySpec, theta: float) -> float:
    """|| R_pm(theta) - exp(i (pi/2 - 2 theta) H_pm) || for the eight1 family."""
    if spec.family is not Family.EIGHT_I:
        raise ValueError("the braiding evolution identity is specific to eight1")
    r_theta = gauge_unitary(spec, SpectralPoint.from_theta(theta))
    h = hamiltonian_closed(spec, theta).matrix
    return frobenius(r_theta - evolve(h, -(np.pi / 2.0 - 2.0 * theta)))


def schroedinger_residual(
    spec: FamilySpec,
    p: SpectralPoint,
    psi0: np.ndarray,
    h: float = DEFAULT_FD_STEP,
) -> float:
    """|| i d psi/ds - H(s) psi(s) || for psi(s) = U(s) psi0 along the domain curve."""
    s0, curve = _fd_curve(spec, p)
    dpsi = (curve(s0 + h) @ psi0 - curve(s0 - h) @ psi0) / (2.0 * h)
    hmat = hamiltonian_fd(spec, p, h=h).matrix
    return float(np.linalg.norm(1j * dpsi - hmat @ (curve(s0) @ psi0)))
