"""The three benchmark workloads: seeded inputs, one op, and its output check.

Every workload is a closed loop run by one client in one process: the next op
starts when the previous one and its check have finished. Inputs come only
from the workload seed. The checks recompute what they can from raw outputs
and never accept the program's own pass/fail verdicts.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
from typing import Iterator, NamedTuple

import numpy as np

from yaxter import baxterize, cli, dynamics, entangle, verify
from yaxter.baxterize import EigOrdering, SpectralPoint
from yaxter.catalog import Family

R_FAMILIES = tuple(Family(v) for v in ("six-nonstd", "six-std", "eight1", "eight2",
                                        "eight3", "eight4"))


class Workload:
    """A named workload; ``rate`` is how many inputs set-up draws per second of run."""

    name: str
    round: int = 1      # ops that make up one full mix; the loop stops only between rounds
    rate: float = 1.0
    reruns: int = 0     # ops rerun after the timed window, whose output must repeat exactly

    def stream(self, seed: int) -> Iterator:
        """The workload's inputs, in op order; the same seed gives the same stream."""
        rng = np.random.default_rng(seed)
        for index in itertools.count():
            yield self.draw(index, rng)

    def input_count(self, seconds: float) -> int:
        return max(math.ceil(seconds * self.rate), 2 * self.round)

    def draw(self, index: int, rng: np.random.Generator):
        raise NotImplementedError

    def run(self, inp):
        raise NotImplementedError

    def check(self, inp, out) -> str | None:
        """None if ``out`` is correct for ``inp``, else what is wrong."""
        raise NotImplementedError

    def expected_counts(self, inp) -> list[tuple[str, tuple[str, int] | None, int]]:
        """Exact span counts implied by the input: (span, (ancestor, k) or None, calls)."""
        return []


# --------------------------------------------------------------------------
# suite: the command the README quotes, one derived seed per op.

SUITE_CRITERIA = 10


class Suite(Workload):
    name = "suite"
    rate = 2.0
    reruns = 2

    def draw(self, index, rng):
        return int(rng.integers(0, 2**31 - 1))

    def run(self, seed):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["suite", "--seed", str(seed)])
        return code, buf.getvalue()

    def check(self, seed, out):
        code, stdout = out
        if code != 0:
            return f"exit code {code}"
        try:
            doc = json.loads(stdout)
        except ValueError as err:
            return f"stdout is not JSON: {err}"
        if doc.get("seed") != seed:
            return f"seed {doc.get('seed')!r} != {seed}"
        criteria = doc.get("criteria", [])
        ids = [c.get("id") for c in criteria]
        if ids != list(range(1, SUITE_CRITERIA + 1)):
            return f"criteria ids {ids}"
        failed = [c["id"] for c in criteria if c.get("pass") is not True]
        if failed:
            return f"criteria {failed} fail"
        if doc.get("all_pass") is not True:
            return "all_pass is not true"
        return None


# --------------------------------------------------------------------------
# scan: the suite's 16 QYBE jobs at seeded specs, each followed by the
# unitarity and braid scans of its family, all at SCAN_SAMPLES samples.

SCAN_SAMPLES = 300
SCAN_JOBS = (
    ("six-nonstd", "x", None), ("six-nonstd", "theta", None),
    ("six-std", "x", None), ("six-std", "theta", None),
    ("eight1", "x", None), ("eight1", "u", None),
    ("eight2", "x", None), ("eight2", "theta", None), ("eight2", "u", None),
    ("eight3", "x", None), ("eight3", "theta", None), ("eight3", "u", None),
    ("eight4", "x", None), ("eight4", "theta", None), ("eight4", "u", None),
    ("eight3", "x", "second"),
)
# the suite's tolerances for the three checks
QYBE_TOL, UNITARITY_TOL, BRAID_TOL = 1e-9, 1e-10, 1e-11


class ScanInput(NamedTuple):
    job: int
    spec: object
    seed: int


class Scan(Workload):
    name = "scan"
    round = len(SCAN_JOBS)
    rate = 9.0

    def draw(self, index, rng):
        job = index % len(SCAN_JOBS)
        family = Family(SCAN_JOBS[job][0])
        return ScanInput(job, verify.sample_spec(family, rng), int(rng.integers(0, 2**31 - 1)))

    def run(self, inp):
        _, kind, ordering = SCAN_JOBS[inp.job]
        family = inp.spec.family
        return (
            verify.scan_qybe(inp.spec, kind=kind, samples=SCAN_SAMPLES, seed=inp.seed,
                             tol=QYBE_TOL,
                             ordering=EigOrdering(ordering) if ordering else None),
            verify.scan_unitarity(family, samples=SCAN_SAMPLES, seed=inp.seed,
                                  tol=UNITARITY_TOL),
            verify.scan_braid(family, samples=SCAN_SAMPLES, seed=inp.seed, tol=BRAID_TOL),
        )

    def check(self, inp, out):
        for what, report, tol in zip(("qybe", "unitarity", "braid"), out,
                                     (QYBE_TOL, UNITARITY_TOL, BRAID_TOL)):
            problem = check_residual(report, tol)
            if problem:
                return f"{what}: {problem}"
        return None

    def expected_counts(self, inp):
        # 6 R matrices per QYBE sample (x, xy, y on each side) and 2 per
        # unitarity sample (R and its conjugate partner); the braid scan builds b only.
        return [("baxterize.build_R", None, 8 * SCAN_SAMPLES)]


def check_residual(report, tol: float) -> str | None:
    """A scan report is correct when some sample was evaluated and its worst
    residual is finite and below ``tol``."""
    residual = float(report.residual)
    if not math.isfinite(residual):
        return f"residual {residual} is not finite"
    if residual < 0 or report.worst_case is None:
        return "no sample was evaluated"
    if residual >= tol:
        return f"residual {residual:.3e} is not below {tol:.0e}"
    return None


# --------------------------------------------------------------------------
# sweep: the unitary domain curve of one seeded spec per op, cycling over the
# six R families, at SWEEP_POINTS grid points of which exactly one lies on
# the non-entangling locus (theta = 0, or x = 1 for eight1).

SWEEP_POINTS = 16
SWEEP_PROBES = 1000          # random-probe budget passed to classify
DETERMINISTIC_PROBES = 25    # the fixed product-state probes tried first
HAMILTONIAN_TOL, SWEEP_UNITARITY_TOL = 1e-7, 1e-10
ENTANGLING, NOT_ENTANGLING = "entangling", "not-entangling"


class SweepInput(NamedTuple):
    spec: object
    values: tuple       # theta per grid point, or real x for eight1
    locus: int          # index of the grid point on the non-entangling locus
    seed: int


class SweepPoint(NamedTuple):
    label: str
    r: np.ndarray
    rho_est: float
    rho_ref: float
    h_fd: np.ndarray
    h_closed: np.ndarray


class Sweep(Workload):
    name = "sweep"
    round = len(R_FAMILIES)
    rate = 40.0

    def draw(self, index, rng):
        family = R_FAMILIES[index % len(R_FAMILIES)]
        spec = verify.sample_spec(family, rng)
        # off-locus points keep 0.1 <= |offset| <= 1.4: clear of the locus and of x = -1
        offsets = rng.uniform(0.1, 1.4, SWEEP_POINTS - 1) * rng.choice((-1.0, 1.0), SWEEP_POINTS - 1)
        locus = int(rng.integers(SWEEP_POINTS))
        on_locus = 1.0 if family is Family.EIGHT_I else 0.0
        values = [on_locus + float(d) for d in offsets]
        values.insert(locus, on_locus)
        return SweepInput(spec, tuple(values), locus, int(rng.integers(0, 2**31 - 1)))

    def run(self, inp):
        spec = inp.spec
        eight1 = spec.family is Family.EIGHT_I
        points = []
        for value in inp.values:
            p = SpectralPoint.from_x(value) if eight1 else SpectralPoint.from_theta(value)
            label = entangle.classify(spec, p, probes=SWEEP_PROBES, seed=inp.seed).classification
            r = baxterize.build_R(spec, p)
            rho_est, _ = verify.unitarity_residual(r, verify.conjugate_partner(spec, p))
            rho_ref = verify.matrix_norm_factor(spec, p)
            h_fd = dynamics.hamiltonian_fd(spec, p).matrix
            h_closed = (dynamics.eight1_x_hamiltonian(spec, value) if eight1
                        else dynamics.hamiltonian_closed(spec, value).matrix)
            points.append(SweepPoint(label.value, r, rho_est, rho_ref, h_fd, h_closed))
        return points

    def check(self, inp, out):
        if len(out) != len(inp.values):
            return f"{len(out)} points for a grid of {len(inp.values)}"
        for k, point in enumerate(out):
            problem = check_sweep_point(point, k == inp.locus)
            if problem:
                return f"point {k} ({inp.spec.family.value} at {inp.values[k]:.6g}): {problem}"
        return None

    def expected_counts(self, inp):
        # on the locus no witness exists, so classify spends its whole budget
        return [("entangle.apply", ("entangle.classify", inp.locus),
                 DETERMINISTIC_PROBES + SWEEP_PROBES)]


def check_sweep_point(point: SweepPoint, on_locus: bool) -> str | None:
    """Label from the grid construction; unitarity and the Hamiltonian recomputed here."""
    want = NOT_ENTANGLING if on_locus else ENTANGLING
    if point.label != want:
        return f"classified {point.label}, expected {want}"
    r = np.asarray(point.r, dtype=complex)
    gram = r @ r.conj().T
    rho = float(np.trace(gram).real) / 4.0
    if not rho > 0:
        return f"R R^dag has trace {4 * rho:.3e}"
    gap = (np.linalg.norm(gram - rho * np.eye(4)) / rho + abs(point.rho_est - rho) / rho
           + abs(point.rho_ref - rho) / rho)
    if not gap < SWEEP_UNITARITY_TOL:
        return f"unitarity gap {gap:.3e} is not below {SWEEP_UNITARITY_TOL:.0e}"
    h_gap = np.linalg.norm(np.asarray(point.h_fd) - np.asarray(point.h_closed))
    if not h_gap < HAMILTONIAN_TOL:
        return f"FD vs closed-form Hamiltonian gap {h_gap:.3e} is not below {HAMILTONIAN_TOL:.0e}"
    return None


WORKLOADS = {w.name: w for w in (Suite(), Scan(), Sweep())}
