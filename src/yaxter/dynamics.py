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
floor, K, the scatter and the trace part; ``exact_generators`` is the pass over one job.
Every route passes one gate (``_gate``) before any arithmetic: its values real and finite
along the theta or x curve, the spec's kept (q, t) verdict and, for the exact and
finite-difference routes, the x constraints, tested on the whole array at once.
Closed forms are validated against it rather than trusted: ``hamiltonian_closed`` returns
the variant it confirms, at a number or an array of theta, behind that gate. The six-vertex
form also circulates in a coth-gamma variant that the derivative contradicts (its corners
come out as sinh cosh / rho); both are kept so the discrepancy can be measured and
reported (``six_vertex_erratum_report``).
The closed forms' constants that depend on the spec alone are built once per FamilySpec
object and kept, read-only, in its record (``catalog.kept``) beside its coefficient rows:
eight1's H_pm, and the 4x4 tables of the six-vertex, eight2 and eight3 forms with their
sinh and cosh of gamma, z_of(t) and real t (``_closed_constants``).
A point then pays for its theta alone: rho under ``catalog.finite_rho``, the scale, and
``pattern_stack`` on the table. A ``Hamiltonian`` record, one matrix or a stack, holds the
matrix alone; its check at ``linalg.HERM_TOL`` is every route's one Hermiticity check.
``hamiltonian_fd`` takes central differences instead, as a cross-check, and decides its
point as ``hamiltonian`` does: the gate at the point alone, and the curve's unitarity left
to the Hermiticity check. Its five-point stencil of gauge unitaries, R in the dynamics
gauge over sqrt(rho) with rho = tr(R R^dag)/4 measured as the pass measures it, is built
as weight rows; the Richardson difference and i dU U^dag then run on its eight weights as
Python numbers, block by block, and ``linalg.scatter`` writes H once.
Where an overflow must reach the check that refuses it, ``np.errstate`` decorates the
function whose body it covers (``_measured_rows``, ``_curve_rows``, ``_eight_vertex_closed``).
``evolve`` takes a ``Hamiltonian`` record straight to the eigendecomposition
(``linalg.expm_checked``), for the record passed its check when it was made; a raw matrix
is checked there.

For eight1 the evolution is generated by the time-independent

    H_pm = -(i/2) b_pm(phi)^2,

reached by the x-derivative at x = 1; along the theta-curve
cos(theta) b + sin(theta) b^{-1} the generator is the constant 2 H_pm
(chain rule dx/dtheta = 1 + x^2 evaluated at x = tan theta).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable, NamedTuple

import numpy as np

from .baxterize import (FAMILY_THETA_CONVENTION, SpectralPoint, ThetaConvention, _coefficient_rows,
                        _polynomial, _rows_at, family_x, g_factors, gauge, reference_gauge)
from .catalog import (RHO_FLOOR, SIX_VERTEX_FAMILIES, DomainError, Family, FamilySpec,
                      FamilySpecs, braid_matrix, finite_rho, is_real, kept, z_of)
from .gates import PAULI, tensor
from .linalg import (HERM_TOL, MAX_ENTRY, WeightRows, block_product, dagger, expm_checked,
                     expm_hermitian, frobenius, identity, pattern_stack, require_hermitian,
                     scatter, weight_product)
from .verify import worst

I4 = identity(4)
#: the constant terms of the eight2/3 and eight4 closed forms
HALF_SHIFT, FULL_SHIFT = -0.5 * I4, -I4
#: ``hamiltonian_fd``'s step and its five-point stencil s0 + (0, h, -h, h/2, -h/2)
FD_STEP = 1e-5
FD_STENCIL = np.array([0.0, FD_STEP, -FD_STEP, FD_STEP / 2, -FD_STEP / 2])
FD_STENCIL.flags.writeable = False
#: i dU/ds = (4 D(h/2) - D(h)) / 3 for D(h) = (U(s0 + h) - U(s0 - h)) / 2h, times i: the
#: factors of the differences over the inner and the outer pair of the stencil
_RICHARDSON = 4j / (3.0 * FD_STEP), 1j / (6.0 * FD_STEP)


@dataclass(frozen=True)
class Hamiltonian:
    """H, one 4x4 matrix or an (..., 4, 4) stack: every route's one Hermiticity check."""

    matrix: np.ndarray

    def __post_init__(self):
        require_hermitian(self.matrix, HERM_TOL, "Hamiltonian")


def gauge_unitary(spec: FamilySpec, p: SpectralPoint) -> np.ndarray:
    """U = rho^{-1/2} R in the dynamics gauge, unitary to rounding on the domain curve, rho
    measured: the six-vertex families run over their trigonometric reference gauge, the others
    as built."""
    return _gauge_unitaries(spec, p.kind, p.value).dense()


def _gauge_unitaries(spec: FamilySpec | FamilySpecs, kind: str, values) -> WeightRows:
    """``gauge_unitary`` at a ``kind`` view value, or the stack at an (n,) array of values
    (one per sample for FamilySpecs), as weight rows: the domain check of each value, which
    names the first violating one, then ``_unitaries``."""
    x = family_x(spec, kind, values)
    violation = spec.domain_violation(x)
    if violation is not None:
        raise DomainError(violation)
    return _unitaries(spec, kind, values, x)


def _unitaries(spec: FamilySpec | FamilySpecs, kind: str, values, x) -> WeightRows:
    """U = rho^{-1/2} R at ``kind`` view values of multiplicative x, as weight rows, with no
    domain check: the ``_rows_at`` rows in the dynamics gauge, divided by sqrt(rho) for
    rho measured on them, and refused, as ``_pass`` does it (``_rho``)."""
    scale = gauge(spec, kind, values)
    if spec.family in SIX_VERTEX_FAMILIES:
        scale = scale / reference_gauge(spec, kind, values, x)
    r, rho = _measured_rows(spec, kind, values, x, scale)
    return WeightRows(r / np.sqrt(rho))


@np.errstate(over="ignore", invalid="ignore")  # a rho that overflows fails in _rho
def _measured_rows(spec: FamilySpec | FamilySpecs, kind: str, values, x, scale):
    """The rows of ``_unitaries`` before the division, and their rho (``_rho``)."""
    r = _rows_at(spec, x, scale)
    return r, _rho(r, lambda k: f"{kind} = {np.broadcast_to(values, r.shape[1:]).flat[k]:.6g}")


def _rho(r: np.ndarray, name: Callable[[int], str]):
    """rho = tr(R R^dag) / 4 = ||R||_F^2 / 4 of (8, ...) weight rows, summed pairwise; one not
    finite or at or below ``RHO_FLOOR`` is a DomainError naming its item by ``name`` of k."""
    rho = _pairwise((r * r.conj()).real) / 4.0
    ok = (rho > RHO_FLOOR) & (rho < np.inf)  # False at NaN too
    if not ok.all():  # the search for the item only on failure
        k = int(np.argmin(ok))  # the first False
        raise DomainError(f"normalization factor rho = {np.ravel(rho)[k]:.3e} at {name(k)} "
                          "is degenerate or not finite")
    return rho


def _gate(spec: FamilySpec, kind: str, s, at_x: bool):
    """The one gate of every route, before any arithmetic: s, a number or an array, is real
    and finite along the theta or x curve, the spec passes its kept (q, t) verdict and, with
    ``at_x``, the x constraints at the x of s, which it returns (None without ``at_x``). The
    whole of s is checked at once; only when that fails does the search value by value raise
    the DomainError of the first failing value, naming a stack's by its index."""
    real = kind in ("theta", "x") and is_real(s)
    x = None
    if real.all() if isinstance(real, np.ndarray) else real:
        x = family_x(spec, kind, s.real) if at_x else None
        if spec.domain_violation(x) is None:
            return x
    stack = np.ndim(s) > 0
    for i, value in enumerate(np.ravel(s).tolist()):
        if kind not in ("theta", "x") or not is_real(value):
            violation = f"dynamics runs along real theta or real x, got {kind} = {value}"
        else:
            violation = spec.domain_violation(
                family_x(spec, kind, float(value.real)) if at_x else None)
        if violation is not None:
            raise DomainError(violation + (f" at index {i} of the stack" if stack else ""))
    return x


def exact_generators(spec: FamilySpec, kind: str, s) -> np.ndarray:
    """H = i (dU/ds) U(s)^dag along the ``kind`` curve (theta, or real x for eight1 and
    imaginary-t eight4) at s, a number or an (n,) array, exactly (module docstring): the
    (..., 4, 4) generators from one read of the coefficient rows, R by ``R_rows``' polynomial
    and R'. The pass of ``generator_pass`` over one job.

    Every check applies to each item, and an error names the first failing item of a stack
    by its index. Off the unitary domain, above ``linalg.MAX_ENTRY`` or where R vanishes it
    raises a DomainError; where U is not unitary along the curve, K less its trace part
    i rho'/(2 rho) 1 is not Hermitian and the ``Hamiltonian`` record raises a ValueError. An
    empty stack is ``verify.worst``'s usage error.
    """
    return _exact(spec, kind, s).matrix


def generator_pass(jobs) -> np.ndarray:
    """The exact generators of several jobs, each a (spec, kind, s) triple of
    ``exact_generators``' arguments, as one (N, 4, 4) stack in job order, a number s giving
    one matrix: every job's R and R' rows (``_generator_job``) through one pass of the rho
    floor, K, the scatter and the trace part, and one ``Hamiltonian`` record. A generator does
    not depend on the jobs beside it: each job's matrices are its ``exact_generators``.

    A pass that fails raises the first failing job's own error, which
    ``exact_generators`` of that job alone raises, naming the job by its number and family.
    """
    jobs = list(jobs)
    try:
        return Hamiltonian(_pass([_generator_job(*job) for job in jobs],
                                 lambda i: f"item {i} of the pass")).matrix
    except ValueError:
        for j, (spec, kind, s) in enumerate(jobs):  # the failing job, searched only on failure
            try:
                exact_generators(spec, kind, s)
            except ValueError as err:
                raise type(err)(f"{err}, in job {j} ({spec.family.value}) of the "
                                "generator pass") from None
        raise


def _exact(spec: FamilySpec, kind: str, s) -> Hamiltonian:
    """The record of ``exact_generators`` and ``hamiltonian``: the pass over the job of s."""
    job = _generator_job(spec, kind, s)
    return Hamiltonian(_pass([job], job.name).reshape(*np.shape(s), 4, 4))


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
    read once, with every check but the rho floor run once on the whole array: the gate
    (``_gate``) and the ``MAX_ENTRY`` bound."""
    fam = spec.family
    stack = np.ndim(s) > 0
    values = np.ravel(s)
    if stack and not values.size:
        worst(values)  # raises: a check needs at least one sample

    def point(i: int) -> SpectralPoint:
        return SpectralPoint(kind, complex(values[i]))

    def where(i: int) -> str:
        return f" at index {i} of the stack" if stack else ""

    x = np.ravel(_gate(spec, kind, values if stack else s, at_x=True))  # a stack raveled
    rows = _coefficient_rows(spec).reshape(-1, 8, 1)  # against every s
    r, dr = _curve_rows(spec, kind, values.real, x, rows)
    peak = np.maximum(abs(r).max(axis=0), abs(dr).max(axis=0))  # dR may be one row against all s
    ok = peak <= MAX_ENTRY
    if not ok.all():
        i = int(np.flatnonzero(~ok)[0])
        raise DomainError(f"{fam.value} at {point(i)}: an entry of R or dR/ds reaches "
                          f"{peak[i]:.3g}, above the {MAX_ENTRY:.3g} up to which the products "
                          f"stay finite{where(i)}")
    omega = 1.0 if fam in SIX_VERTEX_FAMILIES else 0.0
    return _GeneratorJob(r, np.broadcast_to(dr, r.shape), omega,
                         lambda i: f"{point(i)}{where(i)}")


@np.errstate(over="ignore", invalid="ignore")  # an overflow fails _generator_job's bound
def _curve_rows(spec: FamilySpec, kind: str, s: np.ndarray, x: np.ndarray, rows: np.ndarray):
    """R and dR/ds at the (n,) real curve values s, with x at each, as (8, n) weight rows
    (dR/ds may be one row against every s), from the (k, 8, 1) coefficient rows."""
    fam = spec.family
    a, b, *c = rows
    r = _polynomial(rows, x, gauge(spec, kind, s))
    if kind == "theta" and fam is Family.EIGHT_I:  # R = cos(s) (A + B tan(s)) / sqrt(2)
        dr = (b * np.cos(s) - a * np.sin(s)) / np.sqrt(2)
    else:
        half = FAMILY_THETA_CONVENTION.get(fam) is ThetaConvention.HALF
        dxds = 1.0 if kind == "x" else (2j if half else 1j) * x
        dr = (b + 2.0 * c[0] * x if c else b) * dxds
    return r, dr


def _pass(jobs: list, name: Callable[[int], str]) -> np.ndarray:
    """The (N, 4, 4) generators of built jobs, before the Hermiticity check: with ``_rho``'s
    rho, its items named by ``name``, K = i R' R^dag / rho on the weight rows
    (``weight_product``), scattered once, less i Im(tr K)/4 1, plus omega 1."""
    r = np.concatenate([job.r for job in jobs], axis=1)
    dr = np.concatenate([job.dr for job in jobs], axis=1)
    omega = np.repeat([job.omega for job in jobs], [job.r.shape[1] for job in jobs])
    rho = _rho(r, name)
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
    imaginary-t eight4, exactly: ``exact_generators`` at p, with its checks."""
    return _exact(spec, p.kind, p.value)


def hamiltonian_fd(spec: FamilySpec, p: SpectralPoint) -> Hamiltonian:
    """H = i (dU/ds) U(s)^dag at the points ``hamiltonian`` takes, by Richardson-extrapolated
    central differences at step h = 1e-5: truncation O(h^4), rounding about 1e-10. The point
    is decided as ``hamiltonian`` decides it: the gate at p alone, the five-point stencil
    through ``_unitaries``, and the curve's unitarity left to the record's Hermiticity check.
    The difference and i dU U^dag run on the stencil's eight weights as Python numbers,
    block by block (``linalg.block_product``), and ``linalg.scatter`` writes H once."""
    kind = p.kind
    _gate(spec, kind, p.value, at_x=True)
    stencil = p.value.real + FD_STENCIL  # about p's s0 on the curve s -> (kind, s)
    rows = _unitaries(spec, kind, stencil, family_x(spec, kind, stencil)).w.tolist()
    inner, outer = _RICHARDSON
    idu = [(uph - umh) * inner - (up - um) * outer for _, up, um, uph, umh in rows]
    u0 = [row[0].conjugate() for row in rows]
    k = [0j] * 8
    for block in (0, 1):  # the outer block at the even places, the inner at the odd
        e, f, g, h = u0[block::2]
        k[block::2] = block_product(idu[block::2], (e, g, f, h))  # i dU U0^dag
    return Hamiltonian(scatter(k))


def _six_vertex_table(gamma: float, standard: bool, corner):
    """(sinh gamma, the read-only table) of a six-vertex closed form with ``corner`` in the
    corners: cosh gamma, or 1/tanh gamma for the coth variant."""
    sh = float(np.sinh(gamma))
    lower = corner if standard else -corner
    return sh, _read_only([[corner, 0, 0, 0], [0, -sh, 1, 0], [0, 1, sh, 0], [0, 0, 0, lower]])


def _six_vertex_closed(sh: float, table: np.ndarray, theta) -> np.ndarray:
    sn = np.sin(theta)
    rho = finite_rho(sh * sh + sn * sn,
                     "rho = sinh^2 gamma + sin^2 theta vanishes at gamma = theta = 0")
    return pattern_stack(sh / rho, table)


def six_vertex_hamiltonian_coth_variant(spec: FamilySpec, theta) -> np.ndarray:
    """The coth-gamma variant of the six-vertex closed form (kept for comparison;
    the exact derivative selects the cosh variant), at a number or an array of theta."""
    g = spec.gamma
    return _six_vertex_closed(*_six_vertex_table(g, spec.family is Family.SIX_STD,
                                                 1.0 / np.tanh(g)), theta)


def hamiltonian_closed(spec: FamilySpec, theta) -> Hamiltonian:
    """Closed-form H(theta), in the variant confirmed by the exact derivative, at a number or
    an array of theta (a stack in its shape, one evaluation broadcast over it; a list or a
    tuple is the array it holds), after the gate of every route (``_gate``). A rho that
    overflows is a DomainError; a stack's error names its first failing theta by its index.

    For eight1 this is -(i/2) b(phi)^2 at every theta: the generator of the x
    curve at x = 1. ``hamiltonian`` at a theta point differentiates the theta
    curve x = tan(theta) instead and returns twice it, because that generator
    does not depend on theta and dx/dtheta = 1 + x^2 is 2 at x = 1
    (theta = pi/4).
    """
    theta = _values(theta)
    _gate(spec, "theta", theta, at_x=False)
    return Hamiltonian(_closed_form(spec, theta))


def _values(s):
    """s as the closed forms take it: a list or a tuple as the array it holds, a number or an
    array as it is."""
    return np.asarray(s) if isinstance(s, (list, tuple)) else s


def _closed_form(spec: FamilySpec, theta) -> np.ndarray:
    """``hamiltonian_closed``'s matrices after its gate: the point's part of the closed form
    on the spec's kept constants (``_closed_constants``), and all of eight4's."""
    fam = spec.family
    if fam in SIX_VERTEX_FAMILIES:
        return _six_vertex_closed(*_closed_constants(spec), theta)
    if fam is Family.EIGHT_I:
        h = np.empty((*np.shape(theta), 4, 4), dtype=complex)
        h[...] = _closed_constants(spec)
        return h
    if fam in (Family.EIGHT_II, Family.EIGHT_III, Family.EIGHT_IV):
        return _eight_vertex_closed(spec, theta)
    raise ValueError(f"no closed-form Hamiltonian for {fam.value}")


@np.errstate(over="ignore", invalid="ignore")  # a rho at inf, or inf * 0, fails finite_rho
def _eight_vertex_closed(spec: FamilySpec, theta) -> np.ndarray:
    """``_closed_form`` of eight2, eight3 and eight4."""
    fam = spec.family
    if fam is Family.EIGHT_II:
        t, table = _closed_constants(spec)
        sn = np.sin(theta / 2.0)
        rho = finite_rho(4.0 + 4.0 * ((t - 1.0) * (t - 1.0)) * (sn * sn))
        return pattern_stack(2.0 / rho, table, HALF_SHIFT)
    if fam is Family.EIGHT_III:
        t, table = _closed_constants(spec)
        sn = np.sin(theta / 2.0)
        rho = finite_rho(4.0 + 4.0 * (t * t - 1.0) * (sn * sn))
        return pattern_stack(2.0 * t / rho, table, HALF_SHIFT)
    t = complex(spec.t)  # eight4: the domain allows imaginary t, the closed form does not
    if not is_real(t) or abs(t.real) < 1e-12:
        raise DomainError("eight4 closed form needs real nonzero t")
    t = t.real
    q, s = complex(spec.q), spec.sign.factor
    g1, g2 = g_factors(spec, np.exp(1j * theta))
    # |g|^2 from hypot, as Python's abs rounds it; numpy's complex abs rounds apart
    h1, h2 = np.hypot(g1.real, g1.imag), np.hypot(g2.real, g2.imag)
    a1, a2 = h1 * h1, h2 * h2
    rho = finite_rho(a1 * a2)
    q = np.complex128(q)  # a numpy scalar divides by a Python complex on a slow path
    return pattern_stack(2.0 * t / rho, [[a2, 0, 0, q * a1], [0, a1, s * a2, 0],
                                         [0, s * a2, a1, 0], [a1 / q, 0, 0, a2]], FULL_SHIFT)


def _closed_constants(spec: FamilySpec):
    """The part of an eight1, six-vertex, eight2 or eight3 closed-form Hamiltonian that
    depends on the spec alone, built on first use and kept, read-only, in the spec object's
    record (``catalog.kept``) under ``"closed"``: eight1's H_pm (``_bell_square``),
    (sinh gamma, the table over cosh gamma) for the six-vertex families, and (t, the table)
    for eight2, with s z_of(t) in its middle block, and eight3, for a spec past ``_gate``.
    A six-vertex q at or below 0 raises each time (``gamma_of``)."""
    record = kept(spec)
    closed = record.get("closed")
    if closed is None:
        fam = spec.family
        if fam is Family.EIGHT_I:
            closed = _read_only(_bell_square(spec))
        elif fam in SIX_VERTEX_FAMILIES:
            g = spec.gamma
            closed = _six_vertex_table(g, fam is Family.SIX_STD, np.cosh(g))
        else:
            t, q, s = complex(spec.t).real, complex(spec.q), spec.sign.factor
            if fam is Family.EIGHT_II:
                sz = s * z_of(complex(spec.t))
                table = [[1 - t, 0, 0, q], [0, 0, sz, 0], [0, sz, 0, 0], [1 / q, 0, 0, t - 1]]
            else:  # eight3
                table = [[0, 0, 0, q], [0, 0, s, 0], [0, s, 0, 0], [1 / q, 0, 0, 0]]
            closed = t, _read_only(table)
        record["closed"] = closed
    return closed


def _read_only(table) -> np.ndarray:
    """A complex array of ``table``, not writeable, for a spec's record."""
    a = np.array(table, dtype=complex)
    a.flags.writeable = False
    return a


def eight1_x_hamiltonian(spec: FamilySpec, x) -> np.ndarray:
    """H(x) = -i b(phi)^2 / (1 + x^2): the eight1 generator along the real-x curve at a number
    or an array of x (a stack in its shape), after the checks of ``hamiltonian_closed``'s gate
    at x; another family's spec is a ValueError."""
    if spec.family is not Family.EIGHT_I:
        raise ValueError(f"the real-x Hamiltonian is specific to eight1, got {spec.family.value}")
    x = _values(x)
    _gate(spec, "x", x, at_x=False)
    scale = 2.0 / (1.0 + x * x)
    if isinstance(scale, np.ndarray):  # one scale per x, against the 4x4 constant
        scale = scale[..., None, None]
    return scale * _closed_constants(spec)


def _bell_square(spec: FamilySpec | FamilySpecs) -> np.ndarray:
    """-(i/2) b^2 for the bell-phi braid matrix b at the spec's q and sign."""
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
#: the keys of the 16 Pauli products sigma_mu x sigma_nu in (mu, nu) order, and the products
_PAULI_KEYS = [a + b for a, b in product(PAULI_LABELS, repeat=2)]
_PAULI_BASIS = np.array([tensor(PAULI[a], PAULI[b]) for a, b in _PAULI_KEYS])
_PAULI_BASIS.flags.writeable = False


@dataclass(frozen=True)
class PauliDecomp:
    """Coefficients c[mu][nu] of H = sum c_{mu nu} sigma_mu x sigma_nu."""

    coeffs: np.ndarray  # 4x4 complex, indexed by (mu, nu) over (i, x, y, z)

    def coeff(self, key: str) -> complex:
        mu, nu = (PAULI_LABELS.index(k) for k in key)
        return complex(self.coeffs[mu, nu])

    def reconstruct(self) -> np.ndarray:
        out = np.zeros((4, 4), dtype=complex)
        for c, p in zip(self.coeffs.ravel(), _PAULI_BASIS):
            out += c * p
        return out

    def nonzero_keys(self, tol: float = 1e-12) -> list[str]:
        return [key for key, c in zip(_PAULI_KEYS, self.coeffs.ravel()) if abs(c) > tol]

    def to_json(self) -> dict:
        return {"coeffs": {key: [float(z.real), float(z.imag)]
                           for key, z in zip(_PAULI_KEYS, self.coeffs.ravel().tolist())}}


def pauli_decompose(h: np.ndarray) -> PauliDecomp:
    """c_{mu nu} = Tr(H (sigma_mu x sigma_nu)) / 4; real for Hermitian H."""
    h = np.asarray(h, dtype=complex)
    return PauliDecomp(np.array([np.trace(h @ p) / 4.0 for p in _PAULI_BASIS]).reshape(4, 4))


def evolve(h: Hamiltonian | np.ndarray, theta: float) -> np.ndarray:
    """U(theta) = exp(-i H theta). A ``Hamiltonian`` record passed its Hermiticity check when
    it was made, so it goes straight to ``expm_checked``; a raw matrix is checked by
    ``expm_hermitian``."""
    if isinstance(h, Hamiltonian):
        return expm_checked(h.matrix, theta)
    return expm_hermitian(h, theta)


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
    h = _bell_square(spec)
    return frobenius(r_theta - expm_hermitian(h, -(np.pi / 2.0 - 2.0 * np.asarray(theta))))

