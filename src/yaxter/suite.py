"""The full verification battery behind ``yaxter suite``.

Each criterion is evaluated at a fixed tolerance with seeded sampling and
reported as one entry; the CLI serializes the result deterministically, so
identical seeds give byte-identical output. A criterion that samples evaluates
its samples as stacks. Criteria 1 and 4 build one seeded scan job per family
(``verify.braid_job``, ``unitarity_job``: the draw and the row build of
``scan_braid`` and ``scan_unitarity``), join the rows of all their jobs into one stack
and make one kernel call, ``catalog.braid_residual`` or the unitarity gaps, reduced by
one ``worst`` with the job as the case.
Criterion 2 samples only the family parameters: it certifies the QYBE of the
coefficient tables of 8 seeded parameter points per (family, ordering) pair with
``verify.qybe_bound``, a bound over the whole polydisc |x|, |y| <= 1, one call per
coefficient count. Criterion 7 runs ten exact-generator jobs (three theta points
per family and its special point, the t = 1 specs, eight1's x = 1 point and theta
probes) through one ``dynamics.generator_pass`` and takes one closed-form stack per
spec. The others make one call per family: the inverse-unitarity scalars of
criterion 5, the closed-form determinants of criterion 6 (20 states per family from
one draw) and the braiding evolution residuals of criterion 8 (50 eight1 points as
one FamilySpecs, drawn parameter by parameter in three calls, as ``verify._draw_spec``
draws). Criterion 10 checks each of its four Bell bases with one stacked norm and one
Gram product. A criterion that raises a check error is a failing entry, and the
others still run.
"""

from __future__ import annotations

import numpy as np

from . import baxterize, dynamics, entangle, gates
from .baxterize import (RZERO_EQUALS_B, EigOrdering, R_rows, R_weights, SpectralPoint,
                        _coefficient_rows, formula_R)
from .catalog import Family, FamilySpec, FamilySpecs, Sign, braid_residual, build_b
from .dynamics import (
    braiding_evolution_residual,
    generator_pass,
    hamiltonian_closed,
    six_vertex_erratum_report,
)
from .entangle import Classification, classify, concurrence_det, det_b_closed
from .gates import SIGMA_MINUS, SIGMA_PLUS, SX, SY, tensor
from .linalg import WeightRows, dagger, expm_hermitian, frobenius, hermiticity_defect, identity
from .verify import (
    QYBE_PARAMETRIZATIONS,
    TOLERANCES,
    _unitarity_gaps,
    braid_job,
    family_inverse_unitarity,
    qybe_bound,
    rho_formula,
    sample_specs,
    sample_x,
    unitarity_job,
    unitarity_residual,
    worst,
)

I4 = identity(4)

R_FAMILIES = (
    Family.SIX_NONSTD,
    Family.SIX_STD,
    Family.EIGHT_I,
    Family.EIGHT_II,
    Family.EIGHT_III,
    Family.EIGHT_IV,
)


#: each family's fixed generic parameter point, built and validated once
_REPRESENTATIVE = {
    Family.SIX_NONSTD: FamilySpec.six_nonstd(gamma=0.3),
    Family.SIX_STD: FamilySpec.six_std(gamma=0.45),
    Family.EIGHT_I: FamilySpec.eight1(phi=0.9),
    Family.EIGHT_II: FamilySpec.eight2(t=1.7, q=np.exp(-0.4j), sign=Sign.MINUS),
    Family.EIGHT_III: FamilySpec.eight3(t=2.1, q=np.exp(0.33j)),
    Family.EIGHT_IV: FamilySpec.eight4(t=1.6, q=np.exp(0.25j)),
    Family.BELL_PHI: FamilySpec.bell(phi=0.9, sign=Sign.MINUS),
}


def representative_spec(family: Family) -> FamilySpec:
    """A fixed generic parameter point per family, inside the unitary domain: the frozen
    spec of ``_REPRESENTATIVE``, the same instance at every call."""
    return _REPRESENTATIVE[family]


#: the name of each criterion, by id
NAMES = (
    "braid relation over 7 families x 100 points",
    "QYBE certified from the coefficient polynomial on |x|, |y| <= 1",
    "asymptotics R(0) = b and R(1) prop. identity",
    "unitarity of rho^{-1/2} R(x) on stated domains",
    "inverse-unitarity scalar vs rho (compatibility)",
    "Brylinski universality classification and closed-form dets",
    "Hamiltonian extraction (exact derivative, closed forms, erratum report)",
    "braiding evolution identity R(theta) = exp(i(pi/2-2theta)H)",
    "CNOT synthesis via both routes",
    "Bell basis from b(phi) with |Det| = 1/2 at phi = 0",
)


def _entry(cid: int, passed: bool, **detail) -> dict:
    out = {"id": cid, "name": NAMES[cid - 1], "pass": bool(passed)}
    out.update(detail)
    return out


def _joined(rows) -> WeightRows:
    """One stack of the jobs' weight rows, in job order."""
    return WeightRows(np.concatenate([r.w for r in rows], axis=-1))


def _worst_job(gaps, names: list, samples: int) -> tuple:
    """(largest gap, the name of its job) over the joined ``gaps`` of jobs of ``samples``
    each: one ``worst`` with the job as the case, so a NaN wins and the first job wins
    ties."""
    residual, k = worst(gaps, np.arange(gaps.size) // samples)
    return residual, names[k]


def criterion_braid(seed: int) -> dict:
    tol = TOLERANCES["braid"]
    rows = _joined(braid_job(family, samples=100, seed=seed + k)[0]
                   for k, family in enumerate(Family))
    residual, worst_family = _worst_job(braid_residual(rows),
                                        [family.value for family in Family], 100)
    return _entry(1, residual < tol, max_residual=residual, tolerance=tol,
                  worst_family=worst_family)


#: criterion 2's (family, ordering) pairs: every family with a QYBE law, then eight3's second
#: ordering, each certified at 8 seeded parameter points
QYBE_PAIRS = [(family, None) for family in QYBE_PARAMETRIZATIONS] + [
    (Family.EIGHT_III, EigOrdering.SECOND)]


def criterion_qybe(seed: int) -> dict:
    tol = TOLERANCES["qybe"]
    rows = [_coefficient_rows(sample_specs(family, np.random.default_rng(seed + 100 + k), 8),
                              ordering) for k, (family, ordering) in enumerate(QYBE_PAIRS)]
    bounds = np.empty((len(rows), 8))
    for m in sorted({len(r) for r in rows}):  # one certificate per coefficient count
        group = [k for k, r in enumerate(rows) if len(r) == m]
        bounds[group] = qybe_bound(np.concatenate([rows[k] for k in group], axis=-1)).reshape(
            len(group), -1)
    bound, k = worst(bounds.ravel(), np.arange(bounds.size) // bounds.shape[1])
    family, ordering = QYBE_PAIRS[k]
    return _entry(2, bound < tol, max_bound=bound, tolerance=tol, worst_case={
        "family": family.value, "ordering": ordering.value if ordering else None})


def criterion_asymptotics(seed: int) -> dict:
    tol = 1e-12
    display = baxterize.x_form  # the paper's displayed forms, which no evaluation of R reads
    specs = {family: representative_spec(family) for family in R_FAMILIES}
    gaps = []
    for family, spec in specs.items():  # R(0) = b, or proportional to b
        r0, b = display(spec, 0.0), build_b(spec)
        idx = np.unravel_index(np.abs(r0).argmax(), r0.shape)
        gaps.append(frobenius(r0 - (1.0 if family in RZERO_EQUALS_B else r0[idx] / b[idx]) * b))
    # third-ordering family at x = 1: proportional to the identity
    r1 = display(specs[Family.EIGHT_IV], 1.0)
    gaps.append(frobenius(r1 - (np.trace(r1) / 4.0) * I4))
    residual = worst(gaps)
    # the displayed forms against the table that every R reads, and the table against the
    # eigenvalue formulas, to one least-squares scalar per point
    rng = np.random.default_rng(seed + 150)
    table, formula, display_gaps = [], [], []
    pairs = [(f, None) for f in R_FAMILIES] + [(Family.EIGHT_III, EigOrdering.SECOND)]
    for family, ordering in pairs:
        spec = specs[family]
        x = sample_x(spec, rng, 3)
        r = R_rows(spec, "x", x, ordering).dense()
        table.append(r)
        formula.append(formula_R(spec, x, ordering))
        if ordering is None:  # the display is eight3's first ordering
            shown = np.array([display(spec, v) for v in x])
            display_gaps.append(frobenius(shown - r) / frobenius(r))
    display_gap = worst(np.concatenate(display_gaps))
    t, f = (np.concatenate(m).reshape(-1, 16) for m in (table, formula))
    c = (f.conj() * t).sum(axis=1) / (f.conj() * f).sum(axis=1)
    formula_gap = worst(np.linalg.norm(t - c[:, None] * f, axis=1) / np.linalg.norm(t, axis=1))
    return _entry(3, residual < tol and display_gap < tol and formula_gap < tol,
                  max_residual=residual, max_display_gap=display_gap,
                  max_formula_gap=formula_gap, tolerance=tol)


#: one deliberately off-domain point per family, which must fail hard: fixed spec objects, as
#: criterion 6's points below, so that their coefficient tables are built once
_OFF_DOMAIN = [
    (FamilySpec.six_nonstd(gamma=0.3), SpectralPoint.from_x(1.5)),
    (FamilySpec.six_std(q=1.1 + 0.4j), SpectralPoint.from_x(np.exp(0.9j))),
    (FamilySpec.eight1(phi=0.8), SpectralPoint.from_x(np.exp(0.5j))),
    (FamilySpec.eight2(t=1.9, q=np.exp(0.33j)), SpectralPoint.from_x(0.5)),
    (FamilySpec.eight3(t=1.9, q=np.exp(0.33j)), SpectralPoint.from_x(0.5)),
    (FamilySpec.eight4(t=1.9, q=np.exp(0.33j)), SpectralPoint.from_x(0.5)),
]


def criterion_unitarity(seed: int) -> dict:
    tol = TOLERANCES["unitarity"]
    jobs = [(family, seed + 200 + k, False) for k, family in enumerate(R_FAMILIES)]
    jobs.append((Family.EIGHT_IV, seed + 250, True))
    rows, rho_ref, _ = zip(*(unitarity_job(family, samples=100, seed=job_seed,
                                           imaginary_t=imaginary_t)
                             for family, job_seed, imaginary_t in jobs))
    gaps, _ = _unitarity_gaps(_joined(rows), np.concatenate(rho_ref))
    residual, worst_family = _worst_job(
        gaps, [f.value for f in R_FAMILIES] + ["eight4 (imaginary t)"], 100)
    # np.min propagates a NaN, as worst does
    r = WeightRows(np.stack([R_weights(spec, p) for spec, p in _OFF_DOMAIN], axis=1))
    min_off = float(np.min(unitarity_residual(r, dagger(r))[1]))
    passed = residual < tol and min_off > 1e-3
    return _entry(4, passed, max_residual=residual, tolerance=tol, worst_family=worst_family,
                  min_off_domain_residual=min_off)


def criterion_inverse_unitarity(seed: int) -> dict:
    tol = TOLERANCES["inverse-unitarity"]
    rng = np.random.default_rng(seed + 300)
    gaps = []
    for family in (Family.EIGHT_II, Family.EIGHT_III, Family.EIGHT_IV):
        spec = representative_spec(family)
        x = sample_x(spec, rng, 10)
        measured, _ = family_inverse_unitarity(spec, x)
        gaps.append(abs(measured - rho_formula(spec, "x", x)))
    compatible = worst(np.concatenate(gaps))
    spec1 = representative_spec(Family.EIGHT_I)
    measured, expected = family_inverse_unitarity(spec1, 2.0)
    gap_eight1 = abs(measured - rho_formula(spec1, "x", 2.0))
    passed = compatible < tol and abs(measured - expected) < tol and gap_eight1 > 1e-3
    return _entry(5, passed, max_gap_compatible=compatible,
                  eight1_gap_at_x2=float(gap_eight1), tolerance=tol)


#: criterion 6's entangling points, then its excluded ones, which are not entangling
_UNIVERSALITY_POINTS = [
    (representative_spec(Family.SIX_NONSTD), SpectralPoint.from_theta(0.6)),
    (FamilySpec.six_nonstd(q=1.0), SpectralPoint.from_theta(0.6)),
    (representative_spec(Family.SIX_STD), SpectralPoint.from_theta(0.6)),
    (representative_spec(Family.EIGHT_I), SpectralPoint.from_x(0.5)),
    (representative_spec(Family.EIGHT_II), SpectralPoint.from_theta(0.8)),
    (representative_spec(Family.EIGHT_III), SpectralPoint.from_theta(0.8)),
    (representative_spec(Family.EIGHT_IV), SpectralPoint.from_theta(0.8)),
]
_EXCLUDED_POINTS = [
    (representative_spec(Family.SIX_NONSTD), SpectralPoint.from_theta(0.0)),
    (representative_spec(Family.SIX_STD), SpectralPoint.from_theta(0.0)),
    (FamilySpec.six_std(q=1.0), SpectralPoint.from_theta(0.6)),
    (representative_spec(Family.EIGHT_I), SpectralPoint.from_x(1.0)),
    (representative_spec(Family.EIGHT_II), SpectralPoint.from_theta(0.0)),
    (FamilySpec.eight3(t=0.0, q=np.exp(0.33j)), SpectralPoint.from_theta(0.8)),
    (representative_spec(Family.EIGHT_III), SpectralPoint.from_theta(0.0)),
    (representative_spec(Family.EIGHT_IV), SpectralPoint.from_theta(0.0)),
]


def criterion_universality(seed: int) -> dict:
    det_tol = 1e-12
    ok = True
    for spec, p in _UNIVERSALITY_POINTS:
        result = classify(spec, p)
        ok = ok and result.classification is Classification.ENTANGLING
    for spec, p in _EXCLUDED_POINTS:
        result = classify(spec, p)
        ok = ok and result.classification is Classification.NOT_ENTANGLING
    rng = np.random.default_rng(seed + 402)
    gaps = []
    for family in R_FAMILIES:
        spec = representative_spec(family)
        p = SpectralPoint.from_theta(0.7) if family is not Family.EIGHT_I \
            else SpectralPoint.from_x(0.6)
        r = entangle.classification_gauge_R(spec, p)
        # 20 states of 4 complex amplitudes; the even ones are products
        g = rng.standard_normal((20, 8))
        amps = (g[:, 0::2] + 1j * g[:, 1::2]).T
        psi = entangle.state(*amps)
        psi[0::2] = entangle.product_state(*amps[:, 0::2])
        gaps.append(abs(concurrence_det(psi @ r.T) - det_b_closed(spec, p, psi)))
    det_gap = worst(np.concatenate(gaps))
    passed = ok and det_gap < det_tol
    return _entry(6, passed, classification_ok=ok, max_det_gap=det_gap, tolerance=det_tol)


#: each family's special point in criterion 7, evaluated in its exact-generator job: theta = 0
#: of eight2/3/4 against the closed form, and the erratum point of the six-vertex families
_SPECIAL_THETA = {Family.SIX_NONSTD: 0.3, Family.SIX_STD: 0.7, Family.EIGHT_II: 0.0,
                  Family.EIGHT_III: 0.0, Family.EIGHT_IV: 0.0}

#: criterion 7's t = 1 specs of eight2/3/4, checked at theta = 0.9 against the shared form
#: (1/2) (-1 + q s+s+ + s-s-/q + s+s- + s-s+) that their closed forms collapse to
_T1_Q = np.exp(-0.4j)
_T1_SPECS = [FamilySpec(family, q=_T1_Q, t=1.0, sign=Sign.PLUS)
             for family in (Family.EIGHT_II, Family.EIGHT_III, Family.EIGHT_IV)]
_T1_FORM = 0.5 * (-I4 + _T1_Q * tensor(SIGMA_PLUS, SIGMA_PLUS)
                  + tensor(SIGMA_MINUS, SIGMA_MINUS) / _T1_Q
                  + tensor(SIGMA_PLUS, SIGMA_MINUS) + tensor(SIGMA_MINUS, SIGMA_PLUS))


def criterion_hamiltonians(seed: int) -> dict:
    tol = 1e-12
    thetas = np.array([0.25, 0.8, 1.3])
    spec1 = representative_spec(Family.EIGHT_I)
    # one exact pass over ten jobs: each family's three theta and its special point, the t = 1
    # specs at theta = 0.9, and eight1's x = 1 point and theta probes
    jobs = [(representative_spec(family), "theta", np.append(thetas, special))
            for family, special in _SPECIAL_THETA.items()]
    jobs += [(spec, "theta", 0.9) for spec in _T1_SPECS]
    jobs += [(spec1, "x", 1.0), (spec1, "theta", np.array([0.2, 0.7, 1.1]))]
    exact = generator_pass(jobs)
    per_family, x1, probes = exact[:20].reshape(5, 4, 4, 4), exact[23], exact[24:]
    # the closed forms aligned with it, one stack per spec. eight1's closed form
    # -(i/2) b(phi)^2 is the x-curve generator at x = 1; the theta curve x = tan(theta)
    # runs at twice it, theta-independently
    closed = [hamiltonian_closed(spec, s).matrix for spec, _, s in jobs[:8]]
    target = hamiltonian_closed(spec1, 0.3).matrix
    closed = np.concatenate([*closed[:5], np.stack(closed[5:]), target[None],
                             np.broadcast_to(2.0 * target, probes.shape)])
    gaps = frobenius(exact - closed)
    family_gaps = gaps[:20].reshape(5, 4)
    herm = hermiticity_defect(np.concatenate([per_family[:, :3].reshape(-1, 4, 4), x1[None]]))
    worst_herm, worst_close = worst(herm), worst(family_gaps[:, :3].ravel())
    eight1_x_gap = float(gaps[23])
    theta_indep = worst(frobenius(probes - probes[0]))
    theta_scale = worst(gaps[24:])
    # the t = 1 forms, and theta = 0 of eight2/3/4
    special = []
    for closed_t1, t1_gap, zero_gap in zip(closed[20:23], gaps[20:23], family_gaps[2:, 3]):
        special += [frobenius(closed_t1 - _T1_FORM), t1_gap, zero_gap]
    # six-vertex closed forms: confirmed-or-reported per the erratum protocol
    reports = [six_vertex_erratum_report(spec, _SPECIAL_THETA[spec.family], h[3])
               for (spec, _, _), h in zip(jobs[:2], per_family)]
    six_ok = all(r["cosh_variant_confirmed"] and r["coth_variant_discrepant"]
                 for r in reports)
    worst_special = worst(special)
    passed = (worst_herm < tol and eight1_x_gap < tol
              and theta_indep < tol and theta_scale < tol and worst_special < tol
              and worst_close < tol and six_ok)
    return _entry(7, passed, max_hermiticity_defect=worst_herm,
                  max_closed_vs_exact=worst_close, eight1_exact_gap=eight1_x_gap,
                  eight1_theta_independence=theta_indep,
                  max_special_form_gap=worst_special,
                  six_vertex_coth_printed_deviation=reports[0]["deviation_coth_variant"],
                  six_vertex_cosh_confirmed=six_ok)


def criterion_evolution(seed: int) -> dict:
    tol = 1e-10
    rng = np.random.default_rng(seed + 500)
    # all 50 phi, then all 50 theta, then all 50 sign bits, one call each, as the scans draw
    phi, theta, bit = (rng.uniform(0, 2 * np.pi, 50), rng.uniform(-1.2, 1.2, 50),
                       rng.integers(2, size=50))
    # q = e^{-i phi}, the default t and the sign factor, as FamilySpec.eight1 sets them
    specs = FamilySpecs(Family.EIGHT_I, np.exp(-1j * phi), np.full(50, 2.0 + 0j),
                        1 - 2 * bit)
    residual = worst(braiding_evolution_residual(specs, theta))
    spec0 = FamilySpec.eight1(phi=0.0, sign=Sign.MINUS)
    r0 = dynamics.gauge_unitary(spec0, SpectralPoint.from_theta(0.0))
    gap0 = frobenius(r0 - expm_hermitian(tensor(SX, SY), -np.pi / 4.0))
    passed = residual < tol and gap0 < 1e-12
    return _entry(8, passed, max_residual=residual, tolerance=tol, theta_zero_gap=gap0)


def criterion_cnot(seed: int) -> dict:
    dec1 = gates.theorem1_decomposition()
    dec2 = gates.cnot_via_evolution(0.0)
    agree = frobenius(dec1.product() - dec2.product())
    tol = gates.CNOT_TOL
    passed = (dec1.residual < tol["theorem1"] and dec2.residual < tol["evolution"]
              and agree < tol["evolution"])
    return _entry(9, passed, theorem1_residual=dec1.residual,
                  evolution_residual=dec2.residual, route_agreement=agree)


def criterion_bell(seed: int) -> dict:
    tol = 1e-12
    gaps = []
    for sign in (Sign.PLUS, Sign.MINUS):
        s = sign.factor
        for phi in (0.0, 0.9):
            states = gates.bell_basis(phi, sign)
            e_m, e_p = np.exp(-1j * phi), np.exp(1j * phi)
            expected = [
                np.array([1, 0, 0, -e_p], dtype=complex) / np.sqrt(2),
                np.array([0, 1, -s, 0], dtype=complex) / np.sqrt(2),
                np.array([0, s, 1, 0], dtype=complex) / np.sqrt(2),
                np.array([e_m, 0, 0, 1], dtype=complex) / np.sqrt(2),
            ]
            states = np.array(states)
            gaps += list(np.linalg.norm(states - expected, axis=1))
            gaps.append(frobenius(states.conj() @ states.T - I4))  # the Gram matrix
            if phi == 0.0:
                gaps += [abs(abs(concurrence_det(psi)) - 0.5) for psi in states]
    residual = worst(gaps)
    return _entry(10, residual < tol, max_residual=residual, tolerance=tol)


CRITERIA = [
    criterion_braid,
    criterion_qybe,
    criterion_asymptotics,
    criterion_unitarity,
    criterion_inverse_unitarity,
    criterion_universality,
    criterion_hamiltonians,
    criterion_evolution,
    criterion_cnot,
    criterion_bell,
]


def run_suite(seed: int = 42) -> dict:
    """Evaluate criteria 1-10; determinism (11) is checked by re-running the CLI.

    Every check error of the library is a ValueError, and inside the suite's domains none is
    raised by a correct identity: a criterion that raises one is a failing entry that carries
    the message as ``error`` and no numbers. Any other exception propagates.
    """
    criteria = []
    for cid, criterion in enumerate(CRITERIA, start=1):
        try:
            criteria.append(criterion(seed))
        except ValueError as err:
            criteria.append(_entry(cid, False, error=str(err)))
    return {
        "seed": int(seed),
        "criteria": criteria,
        "all_pass": all(c["pass"] for c in criteria),
    }
