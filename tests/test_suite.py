"""Criteria 5, 6 and 8 evaluate their samples as stacks. The per-point loops they
replaced are kept here as references: at the CI seeds each criterion passes and
its figure agrees with its loop to rounding. Criteria 1 and 4 join their families'
scan jobs into one kernel call, criterion 2 certifies the coefficient tables of
all its (family, ordering) pairs in one certificate call per coefficient count, and
criterion 7 runs ten exact-generator jobs through one pass and takes one closed-form
stack per spec; the per-family or per-pair formulation they replaced is kept here too,
and their entries equal it. A criterion that raises a check error fails in the report,
which still holds every criterion."""

import json

import numpy as np
import pytest

from yaxter import baxterize, cli, dynamics, suite
from yaxter.baxterize import SpectralPoint
from yaxter.catalog import Family, FamilySpec, Sign, braid_residual
from yaxter.dynamics import (evolve, exact_generators, gauge_unitary, hamiltonian,
                             hamiltonian_closed, six_vertex_erratum_report)
from yaxter.entangle import (classification_gauge_R, concurrence_det, det_b_closed,
                             product_state, state)
from yaxter.gates import SIGMA_MINUS, SIGMA_PLUS, tensor
from yaxter.linalg import WeightRows, dagger, frobenius, hermiticity_defect, identity
from yaxter.verify import (TOLERANCES, _unitarity_gaps, braid_job, certify_qybe,
                           family_inverse_unitarity, rho_formula, sample_specs, sample_x,
                           scan_braid, scan_unitarity, unitarity_job, unitarity_residual, worst)

SEEDS = [42, 1, 7, 123]


def inverse_unitarity_loop(seed: int) -> tuple[float, float]:
    """(max gap, largest rho) of criterion 5, one point per call."""
    rng = np.random.default_rng(seed + 300)
    gaps, rhos = [], []
    for family in (Family.EIGHT_II, Family.EIGHT_III, Family.EIGHT_IV):
        spec = suite.representative_spec(family)
        for _ in range(10):
            x = sample_x(spec, rng)
            measured, _ = family_inverse_unitarity(spec, x)
            rhos.append(rho_formula(spec, "x", x))
            gaps.append(abs(measured - rhos[-1]))
    return worst(gaps), max(rhos)


def det_gap_loop(seed: int) -> tuple[float, float]:
    """(max gap, largest |Det|) of the closed-form determinants of criterion 6, one
    state per call."""
    rng = np.random.default_rng(seed + 402)
    gaps, dets = [], []
    for family in suite.R_FAMILIES:
        spec = suite.representative_spec(family)
        p = SpectralPoint.from_theta(0.7) if family is not Family.EIGHT_I \
            else SpectralPoint.from_x(0.6)
        r = classification_gauge_R(spec, p)
        for k in range(20):
            f = rng.standard_normal(8)
            make = product_state if k % 2 == 0 else state
            psi = make(f[0] + 1j * f[1], f[2] + 1j * f[3], f[4] + 1j * f[5], f[6] + 1j * f[7])
            dets.append(abs(concurrence_det(r @ psi)))
            gaps.append(abs(concurrence_det(r @ psi) - det_b_closed(spec, p, psi)))
    return worst(gaps), max(dets)


def evolution_loop(seed: int) -> tuple:
    """(residuals, samples) of criterion 8, one sample per call, from the single-matrix
    gauge unitary, closed-form Hamiltonian and exponential, at the criterion's samples:
    its three draws, of 50 phi, 50 theta and 50 sign bits."""
    rng = np.random.default_rng(seed + 500)
    samples = (rng.uniform(0, 2 * np.pi, 50), rng.uniform(-1.2, 1.2, 50),
               rng.integers(2, size=50))
    residuals = []
    for phi, theta, bit in zip(*(a.tolist() for a in samples)):
        spec = FamilySpec.eight1(phi=phi, sign=Sign.PLUS if bit == 0 else Sign.MINUS)
        r = gauge_unitary(spec, SpectralPoint.from_theta(theta))
        u = evolve(hamiltonian_closed(spec, theta), -(np.pi / 2.0 - 2.0 * theta))
        residuals.append(frobenius(r - u))
    return np.array(residuals), samples


@pytest.mark.parametrize("seed", SEEDS)
def test_criterion_5_agrees_with_its_loop(seed):
    entry = suite.criterion_inverse_unitarity(seed)
    gap, rho = inverse_unitarity_loop(seed)
    assert entry["pass"] and gap < TOLERANCES["inverse-unitarity"]
    assert abs(entry["max_gap_compatible"] - gap) <= 1e-14 * max(1.0, rho)


@pytest.mark.parametrize("seed", SEEDS)
def test_criterion_6_agrees_with_its_loop(seed):
    entry = suite.criterion_universality(seed)
    gap, det = det_gap_loop(seed)
    assert entry["pass"] and gap < entry["tolerance"]
    assert abs(entry["max_det_gap"] - gap) <= 1e-14 * max(1.0, det)


@pytest.mark.parametrize("seed", SEEDS)
def test_criterion_8_agrees_with_its_loop(seed, monkeypatch):
    calls = []

    def recorded(specs, theta):  # the criterion's samples and its residual per sample
        calls.append((specs, theta, dynamics.braiding_evolution_residual(specs, theta)))
        return calls[-1][-1]

    monkeypatch.setattr(suite, "braiding_evolution_residual", recorded)
    entry = suite.criterion_evolution(seed)
    (specs, theta, stacked), = calls
    residuals, (phi, loop_theta, bit) = evolution_loop(seed)
    # the loop runs the criterion's samples, not just as many of its own
    assert np.array_equal(theta, loop_theta) and np.array_equal(specs.s, 1 - 2 * bit)
    assert np.array_equal(specs.q, np.exp(-1j * phi))
    assert entry["pass"] and worst(residuals) < entry["tolerance"]
    assert entry["max_residual"] == worst(stacked)
    # R and the exponential are unitary, ||.||_F = 2: agreement relative to that norm, per
    # sample. Every residual is rounding noise, so the two worst samples can differ.
    assert np.abs(residuals - stacked).max() <= 2e-14
    assert abs(entry["max_residual"] - worst(residuals)) <= 2e-14


def test_each_family_has_its_representative_spec():
    for family in Family:
        spec = suite.representative_spec(family)
        # one frozen instance per family, built when the module loads
        assert spec.family is family and spec is suite.representative_spec(family)


def test_a_wrong_table_fails_its_criteria_and_the_report_keeps_all_ten(capsys, monkeypatch):
    # the flip of test_a_sign_flipped_in_eight2s_linear_coefficient_fails_the_qybe_scan, in
    # eight2's rows only, seen by the builders, the exact generators and the QYBE certificate
    exact = baxterize._coefficient_rows

    def flipped(spec, ordering=None):
        rows = exact(spec, ordering)
        if spec.family is Family.EIGHT_II:
            rows = rows.copy()
            rows[1, 2] *= -1  # the -q of B at (0, 3), row 2 in the block order of _WEIGHTS
        return rows

    for module in (baxterize, dynamics, suite):
        monkeypatch.setattr(module, "_coefficient_rows", flipped)
    report = suite.run_suite(42)
    criteria = report["criteria"]
    assert [c["id"] for c in criteria] == list(range(1, 11))
    assert [c["name"] for c in criteria] == list(suite.NAMES)
    assert report["all_pass"] is False
    assert criteria[1]["pass"] is False and criteria[1]["worst_case"]["family"] == "eight2"
    errors = {c["id"]: c for c in criteria if "error" in c}
    assert sorted(errors) == [5, 7]
    for entry in errors.values():  # no numbers beside the message
        assert entry["pass"] is False and list(entry) == ["id", "name", "pass", "error"]
    assert errors[5]["error"].startswith("R(x) R(1/x) is not proportional to 1")
    assert errors[7]["error"].startswith("Hamiltonian is not Hermitian")
    assert cli.main(["suite"]) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out) == json.loads(json.dumps(report)) and captured.err == ""


def test_an_error_that_is_no_check_error_propagates(monkeypatch):
    def broken(seed):
        raise RuntimeError("not a check error")

    monkeypatch.setattr(suite, "CRITERIA", [*suite.CRITERIA[:3], broken, *suite.CRITERIA[4:]])
    with pytest.raises(RuntimeError, match="not a check error"):
        suite.run_suite(42)


# ---------------------------------------------------------------------------
# Criteria 1, 2, 4 and 7 against their per-family formulation: one scan, one certificate
# or one single-point Hamiltonian per call.

def braid_entry_loop(seed: int) -> dict:
    tol = TOLERANCES["braid"]
    residual, worst_family = worst(
        [scan_braid(family, samples=100, seed=seed + k, tol=tol).residual
         for k, family in enumerate(Family)],
        [family.value for family in Family])
    return suite._entry(1, residual < tol, max_residual=residual, tolerance=tol,
                        worst_family=worst_family)


QYBE_NAMES = [{"family": family.value, "ordering": ordering.value if ordering else None}
              for family, ordering in suite.QYBE_PAIRS]


def qybe_entry_loop(seed: int) -> dict:
    """Criterion 2 with one ``certify_qybe`` call per (family, ordering) pair."""
    tol = TOLERANCES["qybe"]
    bounds = [certify_qybe(sample_specs(family, np.random.default_rng(seed + 100 + k), 8),
                           ordering) for k, (family, ordering) in enumerate(suite.QYBE_PAIRS)]
    bound, worst_case = worst(np.concatenate(bounds), np.repeat(QYBE_NAMES, 8))
    return suite._entry(2, bound < tol, max_bound=bound, tolerance=tol, worst_case=worst_case)


UNITARITY_NAMES = [f.value for f in suite.R_FAMILIES] + ["eight4 (imaginary t)"]


def unitarity_entry_loop(seed: int) -> dict:
    tol = TOLERANCES["unitarity"]
    reports = [scan_unitarity(family, samples=100, seed=seed + 200 + k, tol=tol)
               for k, family in enumerate(suite.R_FAMILIES)]
    reports.append(scan_unitarity(Family.EIGHT_IV, samples=100, seed=seed + 250,
                                  tol=tol, imaginary_t=True))
    residual, worst_family = worst([r.residual for r in reports], UNITARITY_NAMES)
    off = [
        (FamilySpec.six_nonstd(gamma=0.3), SpectralPoint.from_x(1.5)),
        (FamilySpec.six_std(q=1.1 + 0.4j), SpectralPoint.from_x(np.exp(0.9j))),
        (FamilySpec.eight1(phi=0.8), SpectralPoint.from_x(np.exp(0.5j))),
        (FamilySpec.eight2(t=1.9, q=np.exp(0.33j)), SpectralPoint.from_x(0.5)),
        (FamilySpec.eight3(t=1.9, q=np.exp(0.33j)), SpectralPoint.from_x(0.5)),
        (FamilySpec.eight4(t=1.9, q=np.exp(0.33j)), SpectralPoint.from_x(0.5)),
    ]
    r = WeightRows.of([baxterize.build_R(spec, p) for spec, p in off])
    min_off = float(np.min(unitarity_residual(r, dagger(r))[1]))
    return suite._entry(4, residual < tol and min_off > 1e-3, max_residual=residual,
                        tolerance=tol, worst_family=worst_family,
                        min_off_domain_residual=min_off)


def hamiltonians_entry_loop(seed: int) -> dict:
    """Criterion 7 with the special points as single-point ``hamiltonian`` calls, which the
    erratum reports also take their exact H from: 15 exact evaluations."""
    tol, i4 = 1e-12, identity(4)
    thetas = np.array([0.25, 0.8, 1.3])
    herm, close = [], []
    th = SpectralPoint.from_theta
    for family in (Family.SIX_NONSTD, Family.SIX_STD, Family.EIGHT_II,
                   Family.EIGHT_III, Family.EIGHT_IV):
        spec = suite.representative_spec(family)
        exact = exact_generators(spec, "theta", thetas)
        herm.append(hermiticity_defect(exact))
        closed = np.stack([hamiltonian_closed(spec, theta).matrix for theta in thetas])
        close.append(frobenius(exact - closed))
    spec1 = suite.representative_spec(Family.EIGHT_I)
    target = hamiltonian_closed(spec1, 0.3).matrix
    exact_x1 = hamiltonian(spec1, SpectralPoint.from_x(1.0))
    herm.append(hermiticity_defect(exact_x1.matrix))
    eight1_x_gap = frobenius(exact_x1.matrix - target)
    theta_probes = exact_generators(spec1, "theta", np.array([0.2, 0.7, 1.1]))
    theta_indep = worst(frobenius(theta_probes - theta_probes[0]))
    theta_scale = worst(frobenius(theta_probes - 2.0 * target))
    q = np.exp(-0.4j)
    v2h1 = 0.5 * (-i4 + q * tensor(SIGMA_PLUS, SIGMA_PLUS)
                  + tensor(SIGMA_MINUS, SIGMA_MINUS) / q
                  + tensor(SIGMA_PLUS, SIGMA_MINUS) + tensor(SIGMA_MINUS, SIGMA_PLUS))
    special = []
    for family in (Family.EIGHT_II, Family.EIGHT_III, Family.EIGHT_IV):
        spec_t1 = FamilySpec(family, q=q, t=1.0, sign=Sign.PLUS)
        closed_t1 = hamiltonian_closed(spec_t1, 0.9).matrix
        spec0 = suite.representative_spec(family)
        special += [
            frobenius(closed_t1 - v2h1),
            frobenius(hamiltonian(spec_t1, th(0.9)).matrix - closed_t1),
            frobenius(hamiltonian(spec0, th(0.0)).matrix
                      - hamiltonian_closed(spec0, 0.0).matrix),
        ]
    reports = []
    for family, theta in ((Family.SIX_NONSTD, 0.3), (Family.SIX_STD, 0.7)):
        spec = suite.representative_spec(family)
        reports.append(six_vertex_erratum_report(spec, theta,
                                                 hamiltonian(spec, th(theta)).matrix))
    six_ok = all(r["cosh_variant_confirmed"] and r["coth_variant_discrepant"] for r in reports)
    worst_herm, worst_close = worst(np.hstack(herm)), worst(np.hstack(close))
    worst_special = worst(special)
    passed = (worst_herm < tol and eight1_x_gap < tol and theta_indep < tol
              and theta_scale < tol and worst_special < tol and worst_close < tol and six_ok)
    return suite._entry(7, passed, max_hermiticity_defect=worst_herm,
                        max_closed_vs_exact=worst_close, eight1_exact_gap=eight1_x_gap,
                        eight1_theta_independence=theta_indep,
                        max_special_form_gap=worst_special,
                        six_vertex_coth_printed_deviation=reports[0]["deviation_coth_variant"],
                        six_vertex_cosh_confirmed=six_ok)


ENTRY_LOOPS = [
    (suite.criterion_braid, braid_entry_loop),
    (suite.criterion_qybe, qybe_entry_loop),
    (suite.criterion_unitarity, unitarity_entry_loop),
    (suite.criterion_hamiltonians, hamiltonians_entry_loop),
]


@pytest.mark.parametrize("seed", SEEDS + [5])
@pytest.mark.parametrize("criterion,loop", ENTRY_LOOPS, ids=[c.__name__ for c, _ in ENTRY_LOOPS])
def test_the_stacked_criterion_equals_its_per_family_formulation(criterion, loop, seed):
    entry = criterion(seed)
    assert entry["pass"]
    assert json.dumps(entry) == json.dumps(loop(seed))  # every figure bitwise, keys in order


def test_criterion_7_makes_one_exact_pass_of_ten_jobs_and_one_closed_stack_per_spec(
        monkeypatch):
    passes, jobs, closed, records = [], [], [], []
    real_pass, real_job = dynamics._pass, dynamics._generator_job
    real_closed, real_record = suite.hamiltonian_closed, dynamics.hamiltonian_closed

    def counted_pass(built, name):
        passes.append(sum(job.r.shape[1] for job in built))
        return real_pass(built, name)

    def counted_job(spec, kind, s):
        jobs.append(np.size(s))
        return real_job(spec, kind, s)

    def counted_closed(spec, theta):
        closed.append(np.size(theta))
        return real_closed(spec, theta)

    def counted_record(spec, theta):
        records.append(spec.family)
        return real_record(spec, theta)

    monkeypatch.setattr(dynamics, "_pass", counted_pass)
    monkeypatch.setattr(dynamics, "_generator_job", counted_job)
    monkeypatch.setattr(suite, "hamiltonian_closed", counted_closed)
    monkeypatch.setattr(dynamics, "hamiltonian_closed", counted_record)
    assert suite.criterion_hamiltonians(42)["pass"]
    # one pass of 27 generators: five family stacks of three theta and the special point, the
    # three t = 1 points, and eight1's x = 1 point and theta probes
    assert passes == [27]
    assert sorted(jobs) == [1, 1, 1, 1, 3, 4, 4, 4, 4, 4]
    # one closed-form stack per spec: the five families, the t = 1 specs and eight1; the
    # erratum reports' closed forms are single-point records
    assert sorted(closed) == [1, 1, 1, 1, 4, 4, 4, 4, 4]
    assert records == [Family.SIX_NONSTD, Family.SIX_STD]


# ---------------------------------------------------------------------------
# A NaN in one sample of a job: the criterion fails and names that job. Criterion 2's jobs
# are its pairs' coefficient rows, 8 parameter points each.

JOB_CRITERIA = {
    "braid": (suite.criterion_braid, "braid_job", "max_residual", "worst_family",
              [family.value for family in Family]),
    "qybe": (suite.criterion_qybe, "_coefficient_rows", "max_bound", "worst_case", QYBE_NAMES),
    "unitarity": (suite.criterion_unitarity, "unitarity_job", "max_residual", "worst_family",
                  UNITARITY_NAMES),
}


def _poison_jobs(monkeypatch, name: str, nans: dict) -> None:
    """Make ``suite.<name>`` put a NaN into sample ``nans[k]`` of the rows of its job k, a
    tuple with the weight rows first or the rows themselves; the index wraps around the
    job's samples."""
    real, made = getattr(suite, name), [0]

    def poisoned(*args, **kwargs):
        job = real(*args, **kwargs)
        k, made[0] = made[0], made[0] + 1
        if k not in nans:
            return job
        rows = (job if isinstance(job, np.ndarray) else job[0].w).copy()
        rows[..., nans[k] % rows.shape[-1]] = np.nan
        if isinstance(job, np.ndarray):
            return rows
        return (WeightRows(rows), *job[1:])

    monkeypatch.setattr(suite, name, poisoned)


@pytest.mark.parametrize("what", JOB_CRITERIA)
@pytest.mark.parametrize("nans", [{0: 0}, {3: 49}, {6: 25}, {4: 10, 2: 40}, {2: 30, 6: 0}],
                         ids=lambda n: "-".join(f"job{k}@{i}" for k, i in n.items()))
def test_a_nan_in_one_job_fails_the_criterion_and_names_the_first_such_job(monkeypatch, what,
                                                                          nans):
    criterion, name, figure, field, names = JOB_CRITERIA[what]
    _poison_jobs(monkeypatch, name, nans)
    entry = criterion(42)
    assert entry["pass"] is False and np.isnan(entry[figure])
    assert entry[field] == names[min(nans)]


# ---------------------------------------------------------------------------
# Criteria 1 and 4 join their jobs' rows into one kernel call: job sets around the strand
# kernel's block of 128 triples give each job's own scan gaps.

SIZES = [(100,) * 7, (37, 128, 300), (300, 37, 128), (128, 37, 300, 1)]


def _joined_braid(sizes) -> tuple:
    """(outputs of the joined call, outputs of each job's own call) for braid jobs."""
    rows = [braid_job(list(Family)[k % 7], n, 60 + k)[0] for k, n in enumerate(sizes)]
    return (braid_residual(suite._joined(rows)),), [(braid_residual(r),) for r in rows]


def _joined_unitarity(sizes) -> tuple:
    """(outputs of the joined call, outputs of each job's own call) for unitarity jobs; the
    third job is imaginary-t eight4."""
    jobs = [unitarity_job(Family.EIGHT_IV if k == 2 else suite.R_FAMILIES[k % 6], n, 80 + k,
                          imaginary_t=k == 2)[:2] for k, n in enumerate(sizes)]
    rows, rho_ref = zip(*jobs)
    return (_unitarity_gaps(suite._joined(rows), np.concatenate(rho_ref)),
            [_unitarity_gaps(*job) for job in jobs])


@pytest.mark.parametrize("join", [_joined_braid, _joined_unitarity], ids=["braid", "unitarity"])
@pytest.mark.parametrize("sizes", SIZES, ids=lambda s: "-".join(map(str, s)))
def test_a_joined_stack_is_bitwise_each_jobs_own_scan(join, sizes):
    joined, alone = join(sizes)
    ends = np.cumsum((0,) + sizes)
    for k, outputs in enumerate(alone):
        for got, want in zip(joined, outputs):
            assert np.array_equal(got[ends[k]:ends[k + 1]], want)
    assert len(joined[0]) == ends[-1]


def test_empty_jobs_give_empty_gaps_that_no_check_takes():
    rows, _ = braid_job(Family.EIGHT_II, 0, 1)
    gaps = braid_residual(suite._joined([rows, rows]))
    assert gaps.shape == (0,)
    with pytest.raises(ValueError, match="at least one sample"):
        suite._worst_job(gaps, ["eight2"] * 2, 1)
