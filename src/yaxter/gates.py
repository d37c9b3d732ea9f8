"""Fixed gate library and the two CNOT synthesis routes.

Conventions, fixed repo-wide: basis order |00>, |01>, |10>, |11>, first tensor
factor = control qubit. CNOT = P_up x 1 + P_down x sigma_x. Rotations are
D_n(theta) = exp(-i (sigma . n) theta / 2), so D_n(2 pi) = -1 (spinor double
cover).

Both CNOT routes land on the same matrix:

  theorem-1:  CNOT = (alpha x beta) . Rhat . (-(gamma_local x delta)) with
              Rhat the phi = 0 minus-branch Bell-basis braid matrix;
  evolution:  conjugate U_+(pi/2) = exp(-i H_+ pi/2) by the listed local
              rotations into exp(-i pi/4 sigma_z x sigma_x), then apply
              (P_up - i P_down) x exp(i pi/4 sigma_x).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .catalog import FamilySpec, Sign, build_b
from .linalg import dagger, expm_hermitian, frobenius, tensor

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
SIGMA_PLUS = np.array([[0, 1], [0, 0]], dtype=complex)   # (sx + i sy)/2
SIGMA_MINUS = np.array([[0, 0], [1, 0]], dtype=complex)  # (sx - i sy)/2
P_UP = np.array([[1, 0], [0, 0]], dtype=complex)
P_DOWN = np.array([[0, 0], [0, 1]], dtype=complex)
I2 = np.eye(2, dtype=complex)

CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)

#: pass threshold of each CNOT synthesis route on its residual from CNOT.
CNOT_TOL = {"theorem1": 1e-12, "evolution": 1e-11}

PAULI = {"i": I2, "x": SX, "y": SY, "z": SZ}


def sigma_xy(angle: float) -> np.ndarray:
    """sigma . n for the unit vector n = (cos angle, sin angle) in the xy-plane."""
    return np.cos(angle) * SX + np.sin(angle) * SY


def sigma_n1(phi: float) -> np.ndarray:
    return sigma_xy((np.pi + phi) / 2.0)


def sigma_n2(phi: float) -> np.ndarray:
    return sigma_xy(phi / 2.0)


@dataclass(frozen=True)
class OneQubitGate:
    matrix: np.ndarray
    label: str

    def __post_init__(self):
        u = np.asarray(self.matrix, dtype=complex)
        if not frobenius(u @ dagger(u) - I2) <= 1e-12:
            raise ValueError(f"gate {self.label!r} is not unitary")


def rotation(axis, theta: float) -> OneQubitGate:
    """D_n(theta) = exp(-i (sigma . n) theta / 2) about a unit axis n."""
    n = np.asarray(axis, dtype=float)
    if not abs(np.linalg.norm(n) - 1.0) <= 1e-12:
        raise ValueError(f"rotation axis must be a unit vector, got |n| = {np.linalg.norm(n)}")
    sn = n[0] * SX + n[1] * SY + n[2] * SZ
    u = np.cos(theta / 2.0) * I2 - 1j * np.sin(theta / 2.0) * sn
    return OneQubitGate(u, f"D({n[0]:g},{n[1]:g},{n[2]:g})({theta:g})")


def d_x(theta: float) -> OneQubitGate:
    return rotation((1.0, 0.0, 0.0), theta)


def d_y(theta: float) -> OneQubitGate:
    return rotation((0.0, 1.0, 0.0), theta)


def d_z(theta: float) -> OneQubitGate:
    return rotation((0.0, 0.0, 1.0), theta)


# Local factors of the theorem-1 product: alpha is the Hadamard gate, delta a
# phase gate; gamma_local is named to avoid the clash with the six-vertex
# deformation parameter gamma.
ALPHA = OneQubitGate(np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2), "alpha")
BETA = OneQubitGate(np.array([[-1, 1], [1j, 1j]], dtype=complex) / np.sqrt(2), "beta")
GAMMA_LOCAL = OneQubitGate(np.array([[1, 1j], [1, -1j]], dtype=complex) / np.sqrt(2), "gamma_local")
DELTA = OneQubitGate(np.array([[1, 0], [0, 1j]], dtype=complex), "delta")
#: phase gate P_up - i P_down used by the evolution route.
DELTA_PHASE = OneQubitGate(P_UP - 1j * P_DOWN, "delta_phase")


@dataclass
class GateDecomposition:
    """An ordered factorization target = factors[0] @ factors[1] @ ... ."""

    target: np.ndarray
    factors: list[tuple[str, np.ndarray]]
    residual: float = 0.0
    residual_phase_aligned: float = 0.0

    def product(self) -> np.ndarray:
        out = np.eye(self.target.shape[0], dtype=complex)
        for _, f in self.factors:
            out = out @ f
        return out

    def recompute_residuals(self) -> "GateDecomposition":
        prod = self.product()
        self.residual = frobenius(prod - self.target)
        overlap = complex(np.trace(dagger(prod) @ self.target))
        if abs(overlap) > 0:
            self.residual_phase_aligned = frobenius((overlap / abs(overlap)) * prod - self.target)
        else:
            self.residual_phase_aligned = self.residual
        return self


def theorem1_braid_matrix() -> np.ndarray:
    """The unitary braid matrix (|00>, |11|-corner Bell form) of the theorem-1 product."""
    return build_b(FamilySpec.bell(phi=0.0, sign=Sign.MINUS))


def theorem1_decomposition() -> GateDecomposition:
    """CNOT = M . Rhat . N with M = alpha x beta and N = -(gamma_local x delta)."""
    m = tensor(ALPHA.matrix, BETA.matrix)
    n = -tensor(GAMMA_LOCAL.matrix, DELTA.matrix)
    rhat = theorem1_braid_matrix()
    dec = GateDecomposition(
        target=CNOT,
        factors=[("M = alpha x beta", m), ("Rhat", rhat), ("N = -(gamma_local x delta)", n)],
    )
    return dec.recompute_residuals()


def bell_basis(phi: float = 0.0, sign: Sign = Sign.MINUS) -> list[np.ndarray]:
    """Images of |00>, |01>, |10>, |11> under the Bell-basis braid matrix b(phi).

    At phi = 0 these are the four maximally entangled Bell states
    (|00> -+ |11>)/sqrt2 and (|01> -+ |10>)/sqrt2, each with |Det| = 1/2.
    """
    b = build_b(FamilySpec.bell(phi=phi, sign=sign))
    return [b[:, k].copy() for k in range(4)]


def evolution_hamiltonian(phi: float, sign: Sign = Sign.PLUS) -> np.ndarray:
    """H_+ = (sigma_n1 x sigma_n2)/2, H_- = (sigma_n2 x sigma_n1)/2."""
    if sign is Sign.PLUS:
        return tensor(sigma_n1(phi), sigma_n2(phi)) / 2.0
    return tensor(sigma_n2(phi), sigma_n1(phi)) / 2.0


def projector_identity_residual(theta: float) -> float:
    """|| exp(-i(sz x sx) theta/2) - (P_up x exp(-i sx theta/2) + P_down x exp(i sx theta/2)) ||."""
    lhs = expm_hermitian(tensor(SZ, SX), theta / 2.0)
    rhs = tensor(P_UP, expm_hermitian(SX, theta / 2.0)) + tensor(P_DOWN, expm_hermitian(SX, -theta / 2.0))
    return frobenius(lhs - rhs)


def conjugation_identity_residuals(phi: float) -> tuple[float, float]:
    """Residuals of the two local-rotation identities feeding the evolution route:

    D_x(pi/2) D_z(-phi/2) sigma_n1 D_z(phi/2) D_x(-pi/2) = sigma_z,
    D_z(-phi/2) sigma_n2 D_z(phi/2) = sigma_x.
    """
    dx, dz = d_x(np.pi / 2).matrix, d_z(-phi / 2).matrix
    first = dx @ dz @ sigma_n1(phi) @ dagger(dz) @ dagger(dx) - SZ
    second = dz @ sigma_n2(phi) @ dagger(dz) - SX
    return frobenius(first), frobenius(second)


def cnot_via_evolution(phi: float = 0.0) -> GateDecomposition:
    """CNOT from the braiding evolution operator U_+(pi/2) and local rotations.

    (D_x(pi/2) D_z(-phi/2) x D_z(-phi/2)) U_+(pi/2) (D_z(phi/2) D_x(-pi/2) x D_z(phi/2))
    equals exp(-i pi/4 sigma_z x sigma_x); then
    (delta_phase x exp(i pi/4 sigma_x)) finishes the job.
    """
    u_plus = expm_hermitian(evolution_hamiltonian(phi, Sign.PLUS), np.pi / 2.0)
    dx, dzm = d_x(np.pi / 2).matrix, d_z(-phi / 2).matrix
    left = tensor(dx @ dzm, dzm)
    right = tensor(dagger(dzm) @ dagger(dx), dagger(dzm))
    finisher = tensor(DELTA_PHASE.matrix, expm_hermitian(SX, -np.pi / 4.0))
    dec = GateDecomposition(
        target=CNOT,
        factors=[
            ("delta_phase x exp(i pi/4 sx)", finisher),
            ("Dx(pi/2)Dz(-phi/2) x Dz(-phi/2)", left),
            ("U+(pi/2)", u_plus),
            ("Dz(phi/2)Dx(-pi/2) x Dz(phi/2)", right),
        ],
    )
    return dec.recompute_residuals()


def alternate_conjugation_residual() -> float:
    """Residual of (D_y(-pi/2) x D_z(-pi/2)) e^{i pi/4 sx x sy} (D_y(pi/2) x D_z(pi/2))
    = e^{i pi/4 sz x sx}, the second route to the theorem-1 statement."""
    rot = tensor(d_y(-np.pi / 2).matrix, d_z(-np.pi / 2).matrix)
    lhs = rot @ expm_hermitian(tensor(SX, SY), -np.pi / 4.0) @ dagger(rot)
    return frobenius(lhs - expm_hermitian(tensor(SZ, SX), -np.pi / 4.0))
