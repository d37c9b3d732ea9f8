"""The full verification battery behind ``yaxter suite``.

Each criterion is evaluated at a fixed tolerance with seeded sampling and
reported as one entry; the CLI serializes the result deterministically, so
identical seeds give byte-identical output. A criterion that samples evaluates
its samples as stacks, with one build and one kernel call per family: the
scans of criteria 1, 2 and 4, the inverse-unitarity scalars of criterion 5,
the closed-form determinants of criterion 6 (20 states per family from one
draw), the exact generators of criterion 7 (three theta points per family) and the
braiding evolution residuals of criterion 8 (50 eight1 points as one FamilySpecs). A
criterion that raises a check error is a failing entry, and the others still run.
"""

from __future__ import annotations

import numpy as np

from . import dynamics, entangle, gates
from .baxterize import RZERO_EQUALS_B, EigOrdering, SpectralPoint, build_R, build_R_stack, formula_R
from .catalog import Family, FamilySpec, FamilySpecs, Sign, build_b
from .dynamics import (
    braiding_evolution_residual,
    exact_generators,
    hamiltonian,
    hamiltonian_closed,
    six_vertex_erratum_report,
)
from .entangle import Classification, classify, concurrence_det, det_b_closed
from .gates import SIGMA_MINUS, SIGMA_PLUS, SX, SY, tensor
from .linalg import dagger, expm_hermitian, frobenius, hermiticity_defect, identity
from .verify import (
    QYBE_PARAMETRIZATIONS,
    TOLERANCES,
    family_inverse_unitarity,
    rho_formula,
    sample_x,
    scan_braid,
    scan_qybe,
    scan_unitarity,
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


_REPRESENTATIVE = {
    Family.SIX_NONSTD: lambda: FamilySpec.six_nonstd(gamma=0.3),
    Family.SIX_STD: lambda: FamilySpec.six_std(gamma=0.45),
    Family.EIGHT_I: lambda: FamilySpec.eight1(phi=0.9),
    Family.EIGHT_II: lambda: FamilySpec.eight2(t=1.7, q=np.exp(-0.4j), sign=Sign.MINUS),
    Family.EIGHT_III: lambda: FamilySpec.eight3(t=2.1, q=np.exp(0.33j)),
    Family.EIGHT_IV: lambda: FamilySpec.eight4(t=1.6, q=np.exp(0.25j)),
    Family.BELL_PHI: lambda: FamilySpec.bell(phi=0.9, sign=Sign.MINUS),
}


def representative_spec(family: Family) -> FamilySpec:
    """A fixed generic parameter point per family, inside the unitary domain; only the
    requested family's spec is built."""
    return _REPRESENTATIVE[family]()


#: the name of each criterion, by id
NAMES = (
    "braid relation over 7 families x 100 points",
    "QYBE in every applicable parametrization",
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


def criterion_braid(seed: int) -> dict:
    tol = TOLERANCES["braid"]
    residual, worst_family = worst(
        [scan_braid(family, samples=100, seed=seed + k, tol=tol).residual
         for k, family in enumerate(Family)],
        [family.value for family in Family])
    return _entry(1, residual < tol, max_residual=residual, tolerance=tol,
                  worst_family=worst_family)


def criterion_qybe(seed: int) -> dict:
    tol = TOLERANCES["qybe"]
    jobs = []
    for family in R_FAMILIES:
        spec = representative_spec(family)
        for kind in QYBE_PARAMETRIZATIONS[family]:
            jobs.append((spec, kind, None))
    jobs.append((representative_spec(Family.EIGHT_III), "x", EigOrdering.SECOND))
    residual, worst_case = worst(
        [scan_qybe(spec, kind=kind, samples=50, seed=seed + 100 + k, tol=tol,
                   ordering=ordering).residual
         for k, (spec, kind, ordering) in enumerate(jobs)],
        [{"family": spec.family.value, "kind": kind} for spec, kind, _ in jobs])
    return _entry(2, residual < tol, max_residual=residual, tolerance=tol,
                  worst_case=worst_case)


def criterion_asymptotics(seed: int) -> dict:
    tol = 1e-12
    zero = SpectralPoint.from_x(0.0)
    specs = {family: representative_spec(family) for family in R_FAMILIES}
    gaps = []
    for family in RZERO_EQUALS_B:
        spec = specs[family]
        gaps.append(frobenius(build_R(spec, zero) - build_b(spec)))
    for family in (Family.EIGHT_II, Family.EIGHT_III, Family.EIGHT_IV):
        spec = specs[family]
        r0, b = build_R(spec, zero), build_b(spec)
        idx = np.unravel_index(np.abs(r0).argmax(), r0.shape)
        gaps.append(frobenius(r0 - (r0[idx] / b[idx]) * b))
    # third-ordering family at x = 1: proportional to the identity
    r1 = build_R(specs[Family.EIGHT_IV], SpectralPoint.from_x(1.0))
    gaps.append(frobenius(r1 - (np.trace(r1) / 4.0) * I4))
    residual = worst(gaps)
    # the table against the eigenvalue formulas, to one least-squares scalar per point
    rng = np.random.default_rng(seed + 150)
    table, formula = [], []
    pairs = [(f, None) for f in R_FAMILIES] + [(Family.EIGHT_III, EigOrdering.SECOND)]
    for family, ordering in pairs:
        spec = specs[family]
        x = sample_x(spec, rng, 3)
        table.append(build_R_stack(spec, "x", x, ordering))
        formula.append(formula_R(spec, x, ordering))
    t, f = (np.concatenate(m).reshape(-1, 16) for m in (table, formula))
    c = (f.conj() * t).sum(axis=1) / (f.conj() * f).sum(axis=1)
    formula_gap = worst(np.linalg.norm(t - c[:, None] * f, axis=1) / np.linalg.norm(t, axis=1))
    return _entry(3, residual < tol and formula_gap < tol, max_residual=residual,
                  max_formula_gap=formula_gap, tolerance=tol)


def criterion_unitarity(seed: int) -> dict:
    tol = TOLERANCES["unitarity"]
    reports = [scan_unitarity(family, samples=100, seed=seed + 200 + k, tol=tol)
               for k, family in enumerate(R_FAMILIES)]
    reports.append(scan_unitarity(Family.EIGHT_IV, samples=100, seed=seed + 250,
                                  tol=tol, imaginary_t=True))
    residual, worst_family = worst([r.residual for r in reports],
                                   [f.value for f in R_FAMILIES] + ["eight4 (imaginary t)"])
    # one deliberately off-domain point per family must fail hard
    off = [
        (FamilySpec.six_nonstd(gamma=0.3), SpectralPoint.from_x(1.5)),
        (FamilySpec.six_std(q=1.1 + 0.4j), SpectralPoint.from_x(np.exp(0.9j))),
        (FamilySpec.eight1(phi=0.8), SpectralPoint.from_x(np.exp(0.5j))),
        (FamilySpec.eight2(t=1.9, q=np.exp(0.33j)), SpectralPoint.from_x(0.5)),
        (FamilySpec.eight3(t=1.9, q=np.exp(0.33j)), SpectralPoint.from_x(0.5)),
        (FamilySpec.eight4(t=1.9, q=np.exp(0.33j)), SpectralPoint.from_x(0.5)),
    ]
    # np.min propagates a NaN, as worst does
    r = np.array([build_R(spec, p) for spec, p in off])
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


def _universality_points():
    th = SpectralPoint.from_theta
    return [
        (representative_spec(Family.SIX_NONSTD), th(0.6)),
        (FamilySpec.six_nonstd(q=1.0), th(0.6)),
        (representative_spec(Family.SIX_STD), th(0.6)),
        (representative_spec(Family.EIGHT_I), SpectralPoint.from_x(0.5)),
        (representative_spec(Family.EIGHT_II), th(0.8)),
        (representative_spec(Family.EIGHT_III), th(0.8)),
        (representative_spec(Family.EIGHT_IV), th(0.8)),
    ]


def _excluded_points():
    th = SpectralPoint.from_theta
    return [
        (representative_spec(Family.SIX_NONSTD), th(0.0)),
        (representative_spec(Family.SIX_STD), th(0.0)),
        (FamilySpec.six_std(q=1.0), th(0.6)),
        (representative_spec(Family.EIGHT_I), SpectralPoint.from_x(1.0)),
        (representative_spec(Family.EIGHT_II), th(0.0)),
        (FamilySpec.eight3(t=0.0, q=np.exp(0.33j)), th(0.8)),
        (representative_spec(Family.EIGHT_III), th(0.0)),
        (representative_spec(Family.EIGHT_IV), th(0.0)),
    ]


def criterion_universality(seed: int) -> dict:
    det_tol = 1e-12
    ok = True
    for spec, p in _universality_points():
        result = classify(spec, p)
        ok = ok and result.classification is Classification.ENTANGLING
    for spec, p in _excluded_points():
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


def criterion_hamiltonians(seed: int) -> dict:
    tol = 1e-12
    thetas = np.array([0.25, 0.8, 1.3])
    herm, close = [], []
    th = SpectralPoint.from_theta
    for family in (Family.SIX_NONSTD, Family.SIX_STD, Family.EIGHT_II,
                   Family.EIGHT_III, Family.EIGHT_IV):
        spec = representative_spec(family)
        exact = exact_generators(spec, "theta", thetas)
        herm.append(hermiticity_defect(exact))
        closed = np.stack([hamiltonian_closed(spec, theta).matrix for theta in thetas])
        close.append(frobenius(exact - closed))
    # eight1: the closed form -(i/2) b(phi)^2 is the x-curve generator at x = 1;
    # the theta curve x = tan(theta) runs at twice it, theta-independently
    spec1 = representative_spec(Family.EIGHT_I)
    target = hamiltonian_closed(spec1, 0.3).matrix
    exact_x1 = hamiltonian(spec1, SpectralPoint.from_x(1.0))
    herm.append(hermiticity_defect(exact_x1.matrix))
    eight1_x_gap = frobenius(exact_x1.matrix - target)
    theta_probes = exact_generators(spec1, "theta", np.array([0.2, 0.7, 1.1]))
    theta_indep = worst(frobenius(theta_probes - theta_probes[0]))
    theta_scale = worst(frobenius(theta_probes - 2.0 * target))
    # theta = 0 and t = 1 special forms for eight2/3/4
    q = np.exp(-0.4j)
    v2h1 = 0.5 * (-I4 + q * tensor(SIGMA_PLUS, SIGMA_PLUS)
                  + tensor(SIGMA_MINUS, SIGMA_MINUS) / q
                  + tensor(SIGMA_PLUS, SIGMA_MINUS) + tensor(SIGMA_MINUS, SIGMA_PLUS))
    special = []
    for family in (Family.EIGHT_II, Family.EIGHT_III, Family.EIGHT_IV):
        spec_t1 = FamilySpec(family, q=q, t=1.0, sign=Sign.PLUS)
        closed_t1 = hamiltonian_closed(spec_t1, 0.9).matrix
        spec0 = representative_spec(family)
        special += [
            frobenius(closed_t1 - v2h1),
            frobenius(hamiltonian(spec_t1, th(0.9)).matrix - closed_t1),
            frobenius(hamiltonian(spec0, th(0.0)).matrix
                      - hamiltonian_closed(spec0, 0.0).matrix),
        ]
    # six-vertex closed forms: confirmed-or-reported per the erratum protocol
    reports = [
        six_vertex_erratum_report(representative_spec(Family.SIX_NONSTD), 0.3),
        six_vertex_erratum_report(representative_spec(Family.SIX_STD), 0.7),
    ]
    six_ok = all(r["cosh_variant_confirmed"] and r["coth_variant_discrepant"]
                 for r in reports)
    worst_herm, worst_close = worst(np.hstack(herm)), worst(np.hstack(close))
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
    # (phi, theta, sign bit) per sample, drawn in that order
    phi, theta, bit = np.array([(rng.uniform(0, 2 * np.pi), rng.uniform(-1.2, 1.2),
                                 rng.integers(2)) for _ in range(50)]).T
    # q = e^{-i phi}, the default t and the sign factor, as FamilySpec.eight1 sets them
    specs = FamilySpecs(Family.EIGHT_I, np.exp(-1j * phi), np.full(50, 2.0 + 0j),
                        1 - 2 * bit.astype(int))
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
            gaps += [float(np.linalg.norm(got - want)) for got, want in zip(states, expected)]
            gram = np.array([[np.vdot(u, v) for v in states] for u in states])
            gaps.append(frobenius(gram - I4))
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
