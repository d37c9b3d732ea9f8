"""Hamiltonian extraction from unitary R-matrix families, Pauli decomposition,
and time evolution.

The generator along the family's unitary domain curve is

    H(s) = i (dU/ds) U(s)^dag,     U(s) = rho(s)^{-1/2} R(s),

differentiated in theta for the circle families (six-vertex, eight2/3/4) and
in x for the real-x families (eight1, eight4 with imaginary t).
``exact_generators`` takes it exactly, at one point or a stack of them, from
R = A + x (B + x C) times the gauge and R' = B + 2 C x, both on the weight
rows of ``baxterize._coefficient_rows``, read once: with K = i R' R^dag / rho
(``linalg.weight_product`` on the rows), unitarity along the curve makes
K = H + i rho'/(2 rho) 1, so H is K, scattered to a dense matrix once, less
i Im(tr K)/4 1. A real gauge only moves rho; the six-vertex
dynamics gauge 1/(2 e^{i theta}) turns the phase by -theta and adds 1 to H.
``generator_pass`` takes several (spec, kind, s) jobs at once: each job checks its
values and builds its rows of R and R', and one pass over all the rows takes the rho
floor, K, the scatter, the trace part and one Hermiticity check; ``exact_generators``
is the pass over one job.
Closed forms are validated against it rather than trusted:
``hamiltonian_closed`` returns the variant it confirms, the single-point record of
``closed_generators``, which broadcasts the closed form over an array of theta. The
six-vertex closed form also circulates in a coth-gamma variant that the derivative
contradicts (the corner entries come out as sinh cosh / rho); both variants are kept so
the discrepancy can be measured and reported (see ``six_vertex_erratum_report``).
``hamiltonian_fd`` takes central differences instead, as a cross-check: its five-point
stencil of gauge unitaries stays weight rows, and i dU U^dag is ``weight_product`` on them,
scattered once.

For eight1 the evolution is generated by the time-independent

    H_pm = -(i/2) b_pm(phi)^2,

reached by the x-derivative at x = 1; along the theta-curve
cos(theta) b + sin(theta) b^{-1} the generator is the constant 2 H_pm
(chain rule dx/dtheta = 1 + x^2 evaluated at x = tan theta).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from itertools import product
from typing import Callable, NamedTuple

import numpy as np

from .baxterize import (FAMILY_THETA_CONVENTION, SpectralPoint, ThetaConvention, _coefficient_rows,
                        _polynomial, _rows_at, family_x, g_factors, gauge)
from .catalog import (DomainError, Family, FamilySpec, FamilySpecs, braid_matrix, is_real,
                      z_of)
from .gates import PAULI, tensor
from .linalg import (MAX_ENTRY, WeightRows, dagger, expm_hermitian, frobenius, identity,
                     pattern_stack, require_hermitian, weight_product)
from .verify import _normalization, worst

I4 = identity(4)
#: the constant terms of the eight2/3 and eight4 closed forms
HALF_SHIFT, FULL_SHIFT = -0.5 * I4, -I4
SIX_VERTEX = (Family.SIX_NONSTD, Family.SIX_STD)
HERM_TOL = 1e-9  # relative Hermiticity defect allowed: above the FD's rounding (~3e-10)
RHO_FLOOR = 1e-14  # rho at or below which R vanishes and U = rho^{-1/2} R is not formed


class HamiltonianSource(str, enum.Enum):
    EXACT = "exact"
    FINITE_DIFFERENCE = "fd"
    CLOSED_FORM = "closed"


@dataclass(frozen=True)
class Hamiltonian:
    matrix: np.ndarray
    source: HamiltonianSource
    spec: FamilySpec
    point: SpectralPoint

    def __post_init__(self):
        require_hermitian(self.matrix, HERM_TOL, "Hamiltonian")


def gauge_unitary(spec: FamilySpec, p: SpectralPoint) -> np.ndarray:
    """U = rho^{-1/2} R in the dynamics gauge, exactly unitary on the domain curve: the
    six-vertex families run over their trigonometric reference gauge, the others as built."""
    return _gauge_unitaries(spec, p.kind, p.value).dense()


def _gauge_unitaries(spec: FamilySpec | FamilySpecs, kind: str, values) -> WeightRows:
    """``gauge_unitary`` at a ``kind`` view value, or the stack at an (n,) array of values
    (one per sample for FamilySpecs), as weight rows, with the domain check and the rho floor
    applied to each: the ``R_rows`` matrices over their gauge and sqrt(rho), with x, the
    gauges and rho evaluated once and the quotient folded into the polynomial's scale."""
    with np.errstate(over="ignore", invalid="ignore"):  # a rho that overflows fails below
        x, view, ref, rho = _normalization(spec, kind, values)
    gauge = ref if spec.family in SIX_VERTEX else 1.0
    rho = rho / np.abs(gauge) ** 2
    ok = np.isfinite(rho) & (rho > RHO_FLOOR)
    if not ok.all():  # the search for the entry only on failure
        k = np.argmin(ok)  # the first False
        raise DomainError(f"normalization factor rho = {np.ravel(rho)[k]:.3e} at {kind} = "
                          f"{np.broadcast_to(values, np.shape(rho)).flat[k]:.6g} "
                          "is degenerate or not finite")
    return WeightRows(_rows_at(spec, x, view / (gauge * np.sqrt(rho))))


def _curve_failure(kind: str, value) -> str | None:
    """Why the dynamics cannot run along the ``kind`` curve at value, or None."""
    if kind not in ("theta", "x") or not is_real(value):
        return f"dynamics runs along real theta or real x, got {kind} = {value}"
    return None


def _curve(spec: FamilySpec, p: SpectralPoint) -> tuple[str, float]:
    """(kind, s0): p sits at s = s0 on the curve s -> SpectralPoint(kind, s). Whether that
    curve lies in the family's unitary domain is left to the domain check of the callers."""
    failure = _curve_failure(p.kind, p.value)
    if failure:
        raise DomainError(failure)
    return p.kind, float(p.value.real)


def exact_generators(spec: FamilySpec, kind: str, s) -> np.ndarray:
    """H = i (dU/ds) U(s)^dag along the ``kind`` curve (theta, or real x for eight1 and
    imaginary-t eight4) at s, a number or an (n,) array, exactly (module docstring): the
    (..., 4, 4) generators from one read of the coefficient rows, R by ``R_rows``' polynomial
    and R'. The pass of ``generator_pass`` over one job.

    Every check applies to each item, and an error names the first failing item of a stack
    by its index. Off the unitary domain, above ``linalg.MAX_ENTRY`` or where R vanishes it
    raises a DomainError; where U is not unitary along the curve, K less its trace part
    i rho'/(2 rho) 1 is not Hermitian and ``require_hermitian`` raises a ValueError. An
    empty stack is ``verify.worst``'s usage error.
    """
    h = _generators(spec, kind, s)
    require_hermitian(h, HERM_TOL, "Hamiltonian")
    return h


def generator_pass(jobs) -> np.ndarray:
    """The exact generators of several jobs, each a (spec, kind, s) triple of
    ``exact_generators``' arguments, as one (N, 4, 4) stack in job order, a number s giving
    one matrix: every job's R and R' rows (``_generator_job``) through one pass of the rho
    floor, K, the scatter and the trace part, and one Hermiticity check. A generator does
    not depend on the jobs beside it: each job's matrices are its ``exact_generators``.

    A pass that fails raises the first failing job's own error, which
    ``exact_generators`` of that job alone raises, naming the job by its number and family.
    """
    jobs = list(jobs)
    try:
        h = _pass([_generator_job(*job) for job in jobs], lambda i: f"item {i} of the pass")
        require_hermitian(h, HERM_TOL, "Hamiltonian")
    except ValueError:
        for j, (spec, kind, s) in enumerate(jobs):  # the failing job, searched only on failure
            try:
                exact_generators(spec, kind, s)
            except ValueError as err:
                raise type(err)(f"{err}, in job {j} ({spec.family.value}) of the "
                                "generator pass") from None
        raise
    return h


def _generators(spec: FamilySpec, kind: str, s) -> np.ndarray:
    """``exact_generators`` before its Hermiticity check, which ``hamiltonian`` leaves to the
    ``Hamiltonian`` record."""
    job = _generator_job(spec, kind, s)
    return _pass([job], job.name).reshape(*np.shape(s), 4, 4)


class _GeneratorJob(NamedTuple):
    """A job of the generator pass: R and dR/ds at the job's n curve values as (8, n) weight
    rows, the shift omega of H in the dynamics gauge, and the name of item i in an error:
    its spectral point and, for a stack, its index."""

    r: np.ndarray
    dr: np.ndarray
    omega: float
    name: Callable[[int], str]


def _generator_job(spec: FamilySpec, kind: str, s) -> _GeneratorJob:
    """R and dR/ds at s, a number or an array, on the weight rows of ``_coefficient_rows``,
    read once, with every check but the rho floor run once on the whole array: the curve and
    realness check, the domain check and the ``MAX_ENTRY`` bound."""
    fam = spec.family
    stack = np.ndim(s) > 0
    values = np.ravel(s)
    if stack and not values.size:
        worst(values)  # raises: a check needs at least one sample

    def point(i: int) -> SpectralPoint:
        return SpectralPoint(kind, complex(values[i]))

    def where(i: int) -> str:
        return f" at index {i} of the stack" if stack else ""

    on_curve = kind in ("theta", "x") and is_real(values).all()
    if on_curve:
        s = values.real
        x = family_x(spec, kind, s)
    if not on_curve or spec.domain_violation(x) is not None:
        for i, value in enumerate(values.tolist()):  # the first failing value, only on failure
            violation = _curve_failure(kind, value) or spec.domain_violation(
                family_x(spec, kind, float(value.real)))
            if violation is not None:
                raise DomainError(violation + where(i))
    rows = _coefficient_rows(spec).reshape(-1, 8, 1)  # against every s
    a, b, *c = rows
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails the bound below
        r = _polynomial(rows, x, gauge(spec, kind, s))
        if kind == "theta" and fam is Family.EIGHT_I:  # R = cos(s) (A + B tan(s)) / sqrt(2)
            dr = (b * np.cos(s) - a * np.sin(s)) / np.sqrt(2)
        else:
            half = FAMILY_THETA_CONVENTION.get(fam) is ThetaConvention.HALF
            dxds = 1.0 if kind == "x" else (2j if half else 1j) * x
            dr = (b + 2.0 * c[0] * x if c else b) * dxds
    peak = np.maximum(abs(r).max(axis=0), abs(dr).max(axis=0))  # dR may be one row against all s
    ok = peak <= MAX_ENTRY
    if not ok.all():
        i = int(np.flatnonzero(~ok)[0])
        raise DomainError(f"{fam.value} at {point(i)}: an entry of R or dR/ds reaches "
                          f"{peak[i]:.3g}, above the {MAX_ENTRY:.3g} up to which the products "
                          f"stay finite{where(i)}")
    omega = 1.0 if fam in SIX_VERTEX else 0.0
    return _GeneratorJob(r, np.broadcast_to(dr, r.shape), omega,
                         lambda i: f"{point(i)}{where(i)}")


def _pass(jobs: list, name: Callable[[int], str]) -> np.ndarray:
    """The (N, 4, 4) generators of built jobs, before the Hermiticity check: with
    rho = tr(R R^dag) / 4 under its floor, K = i R' R^dag / rho on the weight rows
    (``weight_product``), scattered once, less i Im(tr K)/4 1, plus omega 1. An item under
    the floor is named in the error by ``name``."""
    r = np.concatenate([job.r for job in jobs], axis=1)
    dr = np.concatenate([job.dr for job in jobs], axis=1)
    omega = np.repeat([job.omega for job in jobs], [job.r.shape[1] for job in jobs])
    rho = _pairwise((r * r.conj()).real) / 4.0  # tr(R R^dag) / 4 = ||R||_F^2 / 4
    ok = rho > RHO_FLOOR
    if not ok.all():
        i = int(np.flatnonzero(~ok)[0])
        raise DomainError(f"normalization factor degenerates (rho = {rho[i]:.3e}) at {name(i)}")
    k = weight_product(1j * dr, dagger(WeightRows(r)).w) / rho  # K = i R' R^dag / rho
    h = WeightRows(k).dense()  # the one scatter
    trace = _pairwise(h.diagonal(axis1=-2, axis2=-1).T.imag)  # Im tr K
    h += (omega - 0.25j * trace)[:, None, None] * I4
    return h


def _pairwise(rows: np.ndarray) -> np.ndarray:
    """The sum over the first axis of 4 or 8 rows, pairwise, ((0 + 1) + (2 + 3)) +
    ((4 + 5) + (6 + 7)), at every width: the order numpy's ``sum`` takes within one matrix's
    8 real or 4 complex entries. Along the axis of a stack numpy sums in sequence, so a
    generator would depend on the stack around it."""
    while len(rows) > 1:
        rows = rows[0::2] + rows[1::2]
    return rows[0]


def hamiltonian(spec: FamilySpec, p: SpectralPoint) -> Hamiltonian:
    """H = i (dU/ds) U(s)^dag at a theta point of an R family or a real-x point of eight1 or
    imaginary-t eight4, exactly: ``exact_generators`` at p, with its checks; the record's own
    is its Hermiticity check."""
    return Hamiltonian(_generators(spec, p.kind, p.value), HamiltonianSource.EXACT, spec, p)


def hamiltonian_fd(spec: FamilySpec, p: SpectralPoint) -> Hamiltonian:
    """H = i (dU/ds) U(s)^dag at the points ``hamiltonian`` takes, by Richardson-extrapolated
    central differences at step h = 1e-5, on weight rows: truncation O(h^4), rounding
    about 1e-10."""
    kind, s0 = _curve(spec, p)
    h = 1e-5
    u = _gauge_unitaries(spec, kind, s0 + np.array([0.0, h, -h, h / 2, -h / 2]))
    u0, up, um, uph, umh = u.w.T
    du = (4.0 * (uph - umh) / h - (up - um) / (2.0 * h)) / 3.0
    k = weight_product(1j * du, dagger(WeightRows(u0)).w)
    return Hamiltonian(WeightRows(k).dense(), HamiltonianSource.FINITE_DIFFERENCE, spec, p)


def _real_t(spec: FamilySpec) -> float:
    t = complex(spec.t)
    if not is_real(t):
        raise DomainError(f"{spec.family.value} closed-form Hamiltonian needs real t, got {t}")
    return float(t.real)


def _closed_rho(rho, vanishing: str = ""):
    """The rho of a closed form, a number or an array in the shape of theta, never below 0:
    one that overflowed, or with a ``vanishing`` message one below the floor, is a
    DomainError, which for an array names the first such entry by its index."""
    finite = rho < math.inf  # False at inf and NaN
    ok = finite & (rho >= RHO_FLOOR) if vanishing else finite
    if ok.all() if isinstance(ok, np.ndarray) else ok:
        return rho
    k = int(np.argmin(ok))  # the first False
    where = f" at index {k} of the stack" if np.ndim(rho) else ""
    rho, finite = np.ravel(rho)[k], np.ravel(finite)[k]
    raise DomainError((vanishing if finite else f"closed-form rho = {rho} is not finite") + where)


def _six_vertex_closed(gamma: float, theta, standard: bool, corner) -> np.ndarray:
    sh, sn = float(np.sinh(gamma)), np.sin(theta)
    rho = _closed_rho(sh * sh + sn * sn,
                      "rho = sinh^2 gamma + sin^2 theta vanishes at gamma = theta = 0")
    lower = corner if standard else -corner
    return pattern_stack(sh / rho, [[corner, 0, 0, 0], [0, -sh, 1, 0], [0, 1, sh, 0],
                                    [0, 0, 0, lower]])


def six_vertex_hamiltonian_coth_variant(spec: FamilySpec, theta) -> np.ndarray:
    """The coth-gamma variant of the six-vertex closed form (kept for comparison;
    the exact derivative selects the cosh variant), at a number or an array of theta."""
    g = spec.gamma
    return _six_vertex_closed(g, theta, spec.family is Family.SIX_STD, 1.0 / np.tanh(g))


def hamiltonian_closed(spec: FamilySpec, theta: float) -> Hamiltonian:
    """Closed-form H(theta), in the variant confirmed by the exact derivative: the
    ``closed_generators`` matrix at theta, whose check is the record's. A rho that
    overflows is a DomainError.

    For eight1 this is -(i/2) b(phi)^2 at every theta: the generator of the x
    curve at x = 1. ``hamiltonian`` at a theta point differentiates the theta
    curve x = tan(theta) instead and returns twice it, because that generator
    does not depend on theta and dx/dtheta = 1 + x^2 is 2 at x = 1
    (theta = pi/4).
    """
    point = SpectralPoint.from_theta(theta)
    return Hamiltonian(_closed_generators(spec, theta), HamiltonianSource.CLOSED_FORM, spec, point)


def closed_generators(spec: FamilySpec, theta) -> np.ndarray:
    """``hamiltonian_closed``'s matrices at theta, a number or an array: the (..., 4, 4)
    stack in the shape of theta, from one evaluation of the closed form broadcast over
    theta, under one Hermiticity check. An error names the first failing theta of a stack
    by its index."""
    h = _closed_generators(spec, theta)
    require_hermitian(h, HERM_TOL, "Hamiltonian")
    return h


def _closed_generators(spec: FamilySpec, theta) -> np.ndarray:
    """``closed_generators`` before its Hermiticity check, which ``hamiltonian_closed`` leaves
    to the ``Hamiltonian`` record."""
    fam = spec.family
    if fam in SIX_VERTEX:
        g = spec.gamma
        return _six_vertex_closed(g, theta, fam is Family.SIX_STD, np.cosh(g))
    if fam is Family.EIGHT_I:
        h = np.empty((*np.shape(theta), 4, 4), dtype=complex)
        h[...] = _eight1_generator(spec)
        return h
    q, s = complex(spec.q), spec.sign.factor
    # a rho that overflows, or takes inf * 0 at a huge t, is not finite and fails its check
    with np.errstate(over="ignore", invalid="ignore"):
        if fam is Family.EIGHT_II:
            t = _real_t(spec)
            sn = np.sin(theta / 2.0)
            rho = _closed_rho(4.0 + 4.0 * ((t - 1.0) * (t - 1.0)) * (sn * sn))
            sz = s * z_of(complex(spec.t))
            return pattern_stack(2.0 / rho, [[1 - t, 0, 0, q], [0, 0, sz, 0], [0, sz, 0, 0],
                                             [1 / q, 0, 0, t - 1]], HALF_SHIFT)
        if fam is Family.EIGHT_III:
            t = _real_t(spec)
            sn = np.sin(theta / 2.0)
            rho = _closed_rho(4.0 + 4.0 * (t * t - 1.0) * (sn * sn))
            return pattern_stack(2.0 * t / rho, [[0, 0, 0, q], [0, 0, s, 0], [0, s, 0, 0],
                                                 [1 / q, 0, 0, 0]], HALF_SHIFT)
        if fam is Family.EIGHT_IV:
            t = _real_t(spec)
            if abs(t) < 1e-12:
                raise DomainError("eight4 closed form needs real nonzero t")
            g1, g2 = g_factors(spec, np.exp(1j * theta))
            # |g|^2 from hypot, as Python's abs rounds it; numpy's complex abs rounds apart
            h1, h2 = np.hypot(g1.real, g1.imag), np.hypot(g2.real, g2.imag)
            a1, a2 = h1 * h1, h2 * h2
            rho = _closed_rho(a1 * a2)
            q = np.complex128(q)  # a numpy scalar divides by a Python complex on a slow path
            return pattern_stack(2.0 * t / rho, [[a2, 0, 0, q * a1], [0, a1, s * a2, 0],
                                                 [0, s * a2, a1, 0], [a1 / q, 0, 0, a2]],
                                 FULL_SHIFT)
    raise ValueError(f"no closed-form Hamiltonian for {fam.value}")


def eight1_x_hamiltonian(spec: FamilySpec, x: float) -> np.ndarray:
    """H(x) = -i b(phi)^2 / (1 + x^2): the eight1 generator along the real-x curve."""
    return 2.0 / (1.0 + x * x) * _eight1_generator(spec)


def _eight1_generator(spec: FamilySpec | FamilySpecs) -> np.ndarray:
    """H_pm = -(i/2) b_pm(phi)^2, the eight1 generator of the x curve at x = 1; FamilySpecs
    give the (n, 4, 4) stack."""
    b = braid_matrix(Family.BELL_PHI, *spec.parameters())
    return -0.5j * (b @ b)


def six_vertex_erratum_report(spec: FamilySpec, theta: float, exact: np.ndarray) -> dict:
    """Compare both six-vertex closed-form variants against ``exact``, the exact Hamiltonian
    at theta (``hamiltonian`` or one matrix of ``exact_generators``).

    The exact result is authoritative: a variant within 1e-12 of it (relative to
    max(1, ||H||)) is confirmed, one more than 1e-3 away discrepant.
    """
    cosh_variant = hamiltonian_closed(spec, theta).matrix
    coth_variant = six_vertex_hamiltonian_coth_variant(spec, theta)
    tol = 1e-12 * max(1.0, frobenius(exact))
    dev_cosh = frobenius(exact - cosh_variant)
    dev_coth = frobenius(exact - coth_variant)
    return {
        "family": spec.family.value,
        "gamma": spec.gamma,
        "theta": theta,
        "deviation_cosh_variant": dev_cosh,
        "deviation_coth_variant": dev_coth,
        "tolerance": tol,
        "cosh_variant_confirmed": bool(dev_cosh < tol),
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


def braiding_evolution_residual(spec: FamilySpec | FamilySpecs, theta):
    """|| R_pm(theta) - exp(i (pi/2 - 2 theta) H_pm) || for the eight1 family, with
    H_pm = -(i/2) b_pm(phi)^2 the closed form of ``hamiltonian_closed``.

    FamilySpecs with an (n,) array of theta give one residual per sample, from one
    stack each of R(theta), b(phi) and the exponentials (one batched eigh); the
    domain, rho-floor and Hermiticity checks apply to every sample. The Hermiticity
    check of H_pm is ``expm_hermitian``'s, the one check of each call.
    """
    if spec.family is not Family.EIGHT_I:
        raise ValueError("the braiding evolution identity is specific to eight1")
    r_theta = _gauge_unitaries(spec, "theta", theta).dense()
    h = _eight1_generator(spec)
    return frobenius(r_theta - expm_hermitian(h, -(np.pi / 2.0 - 2.0 * np.asarray(theta))))

