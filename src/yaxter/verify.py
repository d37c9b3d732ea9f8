"""Residual checkers: QYBE in three parametrizations, unitarity, normalization factors.

The QYBE residual is the Frobenius norm of

    R_1(x) R_2(xy) R_1(y) - R_2(y) R_1(xy) R_2(x),      R_1 = R x I, R_2 = I x R,

on the 8-dimensional space. Unitarity is checked as R(x) R(x)^dag = rho * 1
with rho > 0 the family's normalization factor; rho^{-1/2} R(x) is the
physical gate. The closed-form rho per family (stated for each family's
reference gauge, ``baxterize.reference_gauge``) is:

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .baxterize import (
    EigOrdering,
    SpectralPoint,
    build_R,
    compose_u,
    eight4_g_factors,
    family_x,
    gauge,
    reference_gauge,
)
from .catalog import DomainError, Family, FamilySpec, Sign, build_b, braid_residual
from .linalg import dagger, frobenius, identity

I2 = identity(2)
I4 = identity(4)


class DegenerateNormalizationError(ValueError):
    """The estimated normalization factor is not positive."""


class NotProportionalError(ValueError):
    """A product expected to be a multiple of the identity is not."""


def _triple_gap(ra, rab, rb, rb2, rab2, ra2) -> float:
    lhs = np.kron(ra, I2) @ np.kron(I2, rab) @ np.kron(rb, I2)
    rhs = np.kron(I2, rb2) @ np.kron(rab2, I2) @ np.kron(I2, ra2)
    return frobenius(lhs - rhs)


def qybe_residual(builder: Callable[[complex], np.ndarray], x: complex, y: complex) -> float:
    """Multiplicative QYBE: R1(x) R2(xy) R1(y) = R2(y) R1(xy) R2(x)."""
    return _triple_gap(builder(x), builder(x * y), builder(y),
                       builder(y), builder(x * y), builder(x))


def qybe_residual_additive(builder: Callable[[float], np.ndarray], t1: float, t2: float) -> float:
    """Additive QYBE: R1(t1) R2(t1+t2) R1(t2) = R2(t2) R1(t1+t2) R2(t1).

    This is the multiplicative equation at x = e^{i k t}; the right-hand side
    must carry the swapped arguments (the variant with t1 and t2 in display
    order fails by O(1) for every family here).
    """
    return _triple_gap(builder(t1), builder(t1 + t2), builder(t2),
                       builder(t2), builder(t1 + t2), builder(t1))


def qybe_residual_rational(builder: Callable[[complex], np.ndarray], u: complex, v: complex) -> float:
    """Rational QYBE: R1(u) R2((u+v)/(1+uv)) R1(v) = R2(v) R1((u+v)/(1+uv)) R2(u)."""
    w = compose_u(u, v)
    return _triple_gap(builder(u), builder(w), builder(v),
                       builder(v), builder(w), builder(u))


def family_builder(
    spec: FamilySpec,
    kind: str = "x",
    ordering: EigOrdering | None = None,
    form: str = "canonical",
) -> Callable[[complex], np.ndarray]:
    """R-matrix builder for one family, parametrized by x, theta or u."""
    def build(value):
        return build_R(spec, SpectralPoint(kind, complex(value)), ordering=ordering, form=form)
    return build


def unitarity_residual(r: np.ndarray, rconj: np.ndarray) -> tuple[float, float]:
    """(rho_est, residual) for R(x) R^dag(xbar) = rho * 1 with rconj = R^dag(xbar)."""
    rho = float(np.real(np.trace(r @ rconj)) / 4.0)
    if rho <= 0:
        raise DegenerateNormalizationError(f"estimated rho = {rho:.3e} is not positive")
    res = frobenius(r @ rconj - rho * I4) + frobenius(rconj @ r - rho * I4)
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
    defect of R / sqrt(rho_est). Off the domain a DomainError names the
    violated constraint; a non-finite residual gives a non-finite gap.
    """
    rho_ref = matrix_norm_factor(spec, p)
    r = build_R(spec, p)
    rho_est, res = unitarity_residual(r, dagger(r))
    gap = res / rho_est + abs(rho_est - rho_ref) / rho_ref
    u = r / np.sqrt(rho_est)
    return float(np.maximum(gap, frobenius(u @ dagger(u) - I4))), rho_est


@dataclass(frozen=True)
class NormFactor:
    rho: float
    spec: FamilySpec
    domain_note: str


def rho_formula(spec: FamilySpec, p: SpectralPoint) -> NormFactor:
    """Closed-form normalization factor on the family's unitary domain."""
    x = family_x(spec, p)
    violation = spec.domain_violation(x)
    if violation is not None:
        raise DomainError(violation)
    fam = spec.family
    rex = float(np.real(x))
    if fam in (Family.SIX_NONSTD, Family.SIX_STD):
        g = spec.gamma
        sin2 = (2.0 - 2.0 * rex) / 4.0  # sin^2 theta for x = e^{2 i theta}
        rho = np.sinh(g) ** 2 + sin2
        note = "six-vertex; emitted matrix carries overall 2 e^{i theta}, gauge factor 4"
    elif fam is Family.EIGHT_I:
        rho = 2.0 * (1.0 + rex * rex)
        note = "eight1 on real x; gauge factor 1 for the x-form, rho = 1 for the theta-form"
    elif fam is Family.EIGHT_II:
        t = float(np.real(spec.t))
        rho = 4.0 + (t - 1.0) ** 2 * (2.0 - 2.0 * rex)
        note = "eight2 on the unit circle, real t; gauge factor 1"
    elif fam is Family.EIGHT_III:
        t = float(np.real(spec.t))
        rho = t * t * (2.0 - 2.0 * rex) + 2.0 + 2.0 * rex
        note = "eight3 on the unit circle, real t; gauge factor 1"
    elif fam is Family.EIGHT_IV:
        t = complex(spec.t)
        g1, g2 = eight4_g_factors(spec, x)
        rho = abs(g2) ** 2
        if abs(t.imag) < 1e-12 * max(1.0, abs(t)):
            note = "eight4, real t on the unit circle: rho = |g2|^2; canonical gauge factor |g1|^2"
        else:
            note = "eight4, imaginary t on real x: rho = |g2|^2; canonical gauge factor |g1|^2"
    elif fam is Family.BELL_PHI:
        rho = 1.0
        note = "bell-phi braid matrices are exactly unitary"
    else:
        raise ValueError(f"unknown family {fam}")
    return NormFactor(rho=float(rho), spec=spec, domain_note=note)


def matrix_norm_factor(spec: FamilySpec, p: SpectralPoint, form: str = "canonical") -> float:
    """rho of the matrix ``build_R(spec, p, form=form)`` emits: the closed-form
    rho times |gauge * reference_gauge|^2 from the gauge table."""
    base = rho_formula(spec, p).rho
    return float(abs(gauge(spec, p, form) * reference_gauge(spec, p, form)) ** 2) * base


def inverse_unitarity(builder: Callable[[complex], np.ndarray], x: complex,
                      tol: float = 1e-9) -> complex:
    """Proportionality scalar of R(x) R(1/x), which must be a multiple of 1."""
    if x == 0:
        raise DomainError("inverse unitarity needs x != 0")
    prod = builder(x) @ builder(1 / x)
    scalar = complex(np.trace(prod) / 4.0)
    gap = frobenius(prod - scalar * I4)
    if gap > tol * max(1.0, abs(scalar)):
        raise NotProportionalError(f"R(x) R(1/x) is not proportional to 1: gap {gap:.3e}")
    return scalar


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
    raise ValueError(f"no inverse-unitarity closed form for {fam}")


def family_inverse_unitarity(spec: FamilySpec, x: complex) -> tuple[complex, complex]:
    """(measured, expected) inverse-unitarity scalar in the family's reference view."""
    form = "g" if spec.family is Family.EIGHT_IV else "canonical"
    measured = inverse_unitarity(family_builder(spec, "x", form=form), x)
    return measured, inverse_unitarity_expected(spec, x)


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

def sample_spec(family: Family, rng: np.random.Generator) -> FamilySpec:
    """A random parameter point inside the family's unitary domain."""
    sign = Sign.PLUS if rng.integers(2) == 0 else Sign.MINUS
    if family in (Family.SIX_NONSTD, Family.SIX_STD):
        gamma = float(rng.uniform(0.2, 1.5)) * (1 if rng.integers(2) == 0 else -1)
        return FamilySpec(family, q=float(np.exp(gamma)))
    if family in (Family.EIGHT_I, Family.BELL_PHI):
        phi = float(rng.uniform(0.0, 2 * np.pi))
        return FamilySpec(family, q=complex(np.exp(-1j * phi)), sign=sign)
    # eight2/3/4: real t clear of the eigenvalue-collapse points {0, +-1}
    t = float(rng.uniform(1.2, 2.8)) * (1 if rng.integers(2) == 0 else -1)
    phi = float(rng.uniform(0.0, 2 * np.pi))
    return FamilySpec(family, q=complex(np.exp(-1j * phi)), t=t, sign=sign)


def sample_domain_point(spec: FamilySpec, rng: np.random.Generator) -> SpectralPoint:
    """A random spectral point inside the family's unitary domain."""
    fam = spec.family
    if fam in (Family.SIX_NONSTD, Family.SIX_STD):
        theta = float(rng.uniform(0.1, np.pi - 0.1))
        return SpectralPoint.from_x(complex(np.exp(2j * theta)))
    if fam is Family.EIGHT_I:
        return SpectralPoint.from_x(float(rng.uniform(-2.5, 2.5)))
    if fam is Family.EIGHT_IV and abs(complex(spec.t).real) < 1e-12:
        return SpectralPoint.from_x(float(rng.uniform(-2.5, 2.5)))
    theta = float(rng.uniform(0.05, 2 * np.pi - 0.05))
    return SpectralPoint.from_x(complex(np.exp(1j * theta)))


def _check_samples(samples: int) -> None:
    if samples < 1:
        raise ValueError(f"a scan needs at least one sample, got {samples}")


def _worse(res: float, worst: float) -> bool:
    """True when res replaces worst as the scan's max; a NaN always does."""
    return res > worst or math.isnan(res)


def scan_braid(family: Family, samples: int, seed: int, tol: float = 1e-11) -> ResidualReport:
    """Max braid residual of build_b over seeded parameter points."""
    _check_samples(samples)
    rng = np.random.default_rng(seed)
    worst, worst_case = -1.0, None
    for _ in range(samples):
        spec = sample_spec(family, rng)
        res = braid_residual(build_b(spec))
        if _worse(res, worst):
            worst, worst_case = res, {"q": _cpair(spec.q), "t": _cpair(spec.t),
                                      "sign": spec.sign.value}
    return ResidualReport(residual=worst, tolerance=tol, worst_case=worst_case)


def scan_qybe(
    spec: FamilySpec,
    kind: str = "x",
    samples: int = 50,
    seed: int = 42,
    tol: float = 1e-9,
    ordering: EigOrdering | None = None,
) -> ResidualReport:
    """Max QYBE residual over seeded spectral-parameter pairs.

    kind = "x" uses multiplicative composition on the family's domain,
    kind = "theta" the additive law, kind = "u" the rational law.
    """
    _check_samples(samples)
    rng = np.random.default_rng(seed)
    builder = family_builder(spec, kind, ordering=ordering)
    worst, worst_case = -1.0, None
    for _ in range(samples):
        if kind == "x":
            a = family_x(spec, sample_domain_point(spec, rng))
            b = family_x(spec, sample_domain_point(spec, rng))
            res = qybe_residual(builder, a, b)
        elif kind == "theta":
            a, b = rng.uniform(-1.2, 1.2, size=2)
            res = qybe_residual_additive(builder, float(a), float(b))
        elif kind == "u":
            while True:
                a = complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8))
                b = complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8))
                if abs(1 + a * b) > 0.3:  # keep clear of the composition pole
                    break
            res = qybe_residual_rational(builder, a, b)
        else:
            raise ValueError(f"unknown parametrization kind {kind!r}")
        if _worse(res, worst):
            worst, worst_case = res, {"first": _cpair(a), "second": _cpair(b), "kind": kind}
    return ResidualReport(residual=worst, tolerance=tol, worst_case=worst_case)


def scan_unitarity(
    family: Family,
    samples: int = 100,
    seed: int = 42,
    tol: float = 1e-10,
    imaginary_t: bool = False,
) -> ResidualReport:
    """Max deviation of rho^{-1/2} R(x) from unitarity over seeded domain points.

    Also cross-checks the estimated rho against the closed formula (through
    the gauge table); the worst residual covers both gaps.
    """
    _check_samples(samples)
    rng = np.random.default_rng(seed)
    worst, worst_case = -1.0, None
    for _ in range(samples):
        spec = sample_spec(family, rng)
        if imaginary_t and family is Family.EIGHT_IV:
            spec = FamilySpec(family, q=spec.q, t=complex(0, float(np.real(spec.t))),
                              sign=spec.sign)
        p = sample_domain_point(spec, rng)
        gap, rho_est = unitarity_gap(spec, p)
        if _worse(gap, worst):
            worst, worst_case = gap, {"q": _cpair(spec.q), "t": _cpair(spec.t),
                                      "x": _cpair(family_x(spec, p)),
                                      "sign": spec.sign.value, "rho": float(rho_est)}
    return ResidualReport(residual=worst, tolerance=tol, worst_case=worst_case)


def _cpair(z) -> list[float]:
    z = complex(z)
    return [float(z.real), float(z.imag)]
