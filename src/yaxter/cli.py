"""Command-line front end.

Commands: catalog, build, check {braid, qybe, unitarity, inverse-unitarity},
classify, hamiltonian, evolve, cnot, suite. JSON goes to stdout (floats with
17 significant digits, non-finite ones as "nan", "inf" or "-inf"; identical
argv + seed give byte-identical output), diagnostics to stderr. Exit codes:
0 all checks pass, 1 a residual check failed, 2 usage or domain error.

Each check passes below its own threshold, from ``verify.TOLERANCES`` (and
``entangle.ENTANGLING_TOL`` for classify, where it bounds max |Det| / ||R||_F^2 over the
product grid of ``entangle.brylinski_witness``, which takes each Det from the exact quartic
in R's eight weights). ``check`` and ``classify`` take --tol, else the YAXTER_TOL
environment variable, in place of that threshold; a tolerance must be finite and > 0.
``classify --locus`` tests at ENTANGLING_TOL and reads neither. Each command, and each
check of ``check``, accepts only the options it reads; a given option that it does not
read is a usage error (``_unread``): ``check braid``, and ``check unitarity`` without a
spectral point, scan seeded points of --family and read no other family option;
``check unitarity`` at a point reads no --samples or --seed; the six-vertex families read
no --t or --sign, eight1 and bell-phi no --t; only eight4 --via closed reads
``build --form``. ``catalog --weights`` rejects a weight above ``linalg.MAX_ENTRY``.
``catalog.q_from`` turns one of --q (--q-re/--q-im), --gamma and --phi into q, else q = 1;
its errors name those options.

The parser is built per command: ``main`` reads the command from argv and
``build_parser`` adds only its subparser, from the one table ``COMMANDS``; with no
command, -h first or an unknown name it adds them all. Help and usage errors are
the same either way. Each parser is built on its first use and kept, one per command
per process: it depends on ``COMMANDS`` alone, and a parse leaves it unchanged.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from json.encoder import encode_basestring_ascii as _quote

import numpy as np

from .baxterize import EigOrdering, SpectralPoint, build_R, degeneracy_note, family_x, formula_R
from .catalog import (
    EIGHT_VERTEX_FAMILIES,
    BoltzmannWeights,
    DomainError,
    Family,
    FamilySpec,
    Sign,
    build_b,
    eight_vertex_residuals,
    q_from,
)
from .dynamics import (
    evolve,
    hamiltonian,
    hamiltonian_closed,
    pauli_decompose,
)
from .entangle import ENTANGLING_TOL, classify, nonentangling_locus_check
from .gates import CNOT_TOL, cnot_via_evolution, theorem1_decomposition
from .linalg import hermiticity_defect, mat_to_json
from .suite import run_suite
from .verify import (
    TOLERANCES,
    family_inverse_unitarity,
    matrix_norm_factor,
    scan_braid,
    scan_qybe,
    scan_unitarity,
    unitarity_gap,
)


def dumps_17g(obj) -> str:
    """Deterministic compact JSON with floats at 17 significant digits."""
    pieces: list[str] = []
    _write_json(obj, pieces)
    return "".join(pieces)


def _write_json(obj, out: list[str]) -> None:
    """Append the pieces of ``obj`` to ``out``: strings quoted by ``json.dumps``'s own
    ASCII quoting function, non-finite floats as strings."""
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(f"{obj:.17g}" if math.isfinite(obj) else _quote(str(obj)))
    elif isinstance(obj, str):
        out.append(_quote(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.append(",")
            out.append(_quote(str(k)) + ":")
            _write_json(v, out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(",")
            _write_json(v, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj)}")


def _emit(args, payload: dict) -> None:
    if args.output == "pretty":
        print(_pretty(payload))
    else:
        print(dumps_17g(payload))


def _pretty(payload, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(payload, dict):
        lines = []
        for k, v in payload.items():
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}{k}:")
                lines.append(_pretty(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {v}")
        return "\n".join(lines)
    if isinstance(payload, list):
        return "\n".join(_pretty(v, indent) for v in payload)
    return f"{pad}{payload}"


def _add_family_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", required=True, choices=[f.value for f in Family])
    p.add_argument("--q", type=float, default=None, help="real deformation parameter")
    p.add_argument("--q-re", type=float, default=None)
    p.add_argument("--q-im", type=float, default=None)
    p.add_argument("--gamma", type=float, default=None, help="q = exp(gamma)")
    p.add_argument("--t", type=float, default=None)
    p.add_argument("--t-re", type=float, default=None)
    p.add_argument("--t-im", type=float, default=None)
    p.add_argument("--phi", type=float, default=None, help="q = exp(-i phi)")
    p.add_argument("--sign", choices=["plus", "minus"], default=None, help="default plus")


#: the options of ``_add_family_args`` after --family, as argparse dests.
_FAMILY_OPTIONS = ("q", "q_re", "q_im", "gamma", "t", "t_re", "t_im", "phi", "sign")

#: the family options that no matrix, closed form or domain check of the family reads
_UNREAD_FAMILY_OPTIONS = {Family.SIX_NONSTD: ("t", "t_re", "t_im", "sign"),
                          Family.SIX_STD: ("t", "t_re", "t_im", "sign"),
                          Family.EIGHT_I: ("t", "t_re", "t_im"),
                          Family.BELL_PHI: ("t", "t_re", "t_im")}


def _add_point_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--x", type=float, default=None, help="real spectral parameter")
    p.add_argument("--x-re", type=float, default=None)
    p.add_argument("--x-im", type=float, default=None)
    p.add_argument("--theta", type=float, default=None)
    p.add_argument("--u", type=float, default=None)
    p.add_argument("--u-re", type=float, default=None)
    p.add_argument("--u-im", type=float, default=None)


def _count_at_least(low: int):
    """argparse type: an integer >= low (anything else is a usage error, exit 2)."""
    def parse(text: str) -> int:
        n = int(text)
        if n < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {n}")
        return n
    parse.__name__ = "int"  # argparse reports a non-integer as an "invalid int value"
    return parse


def _tolerance(text: str) -> float:
    """argparse type: a finite tolerance > 0 (anything else is a usage error, exit 2)."""
    tol = float(text)
    if not 0 < tol < float("inf"):
        raise argparse.ArgumentTypeError(f"tolerance must be finite and > 0, got {text!r}")
    return tol


def _add_run_args(p: argparse.ArgumentParser, *reads: str) -> None:
    """--output, plus those of --tol, --samples and --seed that the command reads."""
    if "tol" in reads:
        p.add_argument("--tol", type=_tolerance, default=None)
    if "samples" in reads:
        p.add_argument("--samples", type=_count_at_least(1), default=None, help="default 50")
    if "seed" in reads:  # both None when not given, so that a check can refuse one it ignores
        p.add_argument("--seed", type=_count_at_least(0), default=None, help="default 42")
    p.add_argument("--output", choices=["json", "pretty"], default="json")


def _complex_arg(args, name: str):
    whole = getattr(args, name)
    re = getattr(args, f"{name}_re")
    im = getattr(args, f"{name}_im")
    if whole is not None:
        if re is not None or im is not None:
            raise DomainError(f"give --{name} or --{name}-re/--{name}-im, not both")
        return complex(whole)
    if re is None and im is None:
        return None
    return complex(re or 0.0, im or 0.0)


def _unread(args, names, reader: str, hint: str = "") -> None:
    """A usage error that names each given option of ``names`` (dests) as unread by ``reader``."""
    given = [f"--{n.replace('_', '-')}" for n in names if getattr(args, n, None) is not None]
    if given:
        raise DomainError(f"{reader} reads no {', '.join(given)}{hint}")


def _spec_from_args(args) -> FamilySpec:
    family = Family(args.family)
    _unread(args, _UNREAD_FAMILY_OPTIONS.get(family, ()), f"--family {family.value}")
    q = {"q": _complex_arg(args, "q"), "gamma": args.gamma, "phi": args.phi}
    given = {"t": _complex_arg(args, "t"), "sign": args.sign and Sign(args.sign),
             "q": q_from("--", **q) if any(v is not None for v in q.values()) else None}
    return FamilySpec(family, **{name: v for name, v in given.items() if v is not None})


def _point_from_args(args, required: bool = True) -> SpectralPoint | None:
    x = _complex_arg(args, "x")
    u = _complex_arg(args, "u")
    theta = args.theta
    given = [p for p in (("x", x), ("theta", theta), ("u", u)) if p[1] is not None]
    if len(given) > 1:
        raise DomainError("give exactly one of --x, --theta, --u")
    if not given:
        if required:
            raise DomainError("a spectral point is required: give --x, --theta or --u")
        return None
    kind, value = given[0]
    return SpectralPoint(kind, complex(value))


def _tol(args, name: str) -> float:
    """--tol, else YAXTER_TOL, else the threshold of check ``name`` (or "classify")."""
    if args.tol is not None:
        return args.tol
    env = os.environ.get("YAXTER_TOL")
    if env:
        try:
            return _tolerance(env)
        except (argparse.ArgumentTypeError, ValueError) as err:
            raise DomainError(f"YAXTER_TOL: {err}") from None
    return ENTANGLING_TOL if name == "classify" else TOLERANCES[name]


def _verdict(args, residual: float, tol: float, rho=None, worst_case=None, **extra) -> int:
    """Emit one check's report; it passes when residual < tol, so a NaN fails."""
    payload = {"check": args.what, "family": args.family, "residual": float(residual),
               "rho": rho, **extra, "tolerance": float(tol), "pass": bool(residual < tol),
               "worst_case": worst_case}
    _emit(args, payload)
    return 0 if payload["pass"] else 1


def _cmd_catalog(args) -> int:
    spec = _spec_from_args(args)
    b = build_b(spec)
    if args.weights:
        if spec.family not in EIGHT_VERTEX_FAMILIES:
            raise DomainError("--weights reads the eight-vertex ansatz entries")
        w = BoltzmannWeights.from_matrix(b)
        res = eight_vertex_residuals(w)
        payload = {
            "matrix": mat_to_json(b),
            "weights": {f"w{i}": [getattr(w, f"w{i}").real, getattr(w, f"w{i}").imag]
                        for i in range(1, 9)},
            "residuals": [[z.real, z.imag] for z in res],
            "max_residual": float(np.abs(res).max()),
        }
        _emit(args, payload)
        return 0
    _emit(args, mat_to_json(b))
    return 0


def _cmd_build(args) -> int:
    spec = _spec_from_args(args)
    point = _point_from_args(args)
    ordering = EigOrdering(args.ordering) if args.ordering else None
    if args.via == "formula" or spec.family is not Family.EIGHT_IV:
        _unread(args, ("form",), f"build --family {spec.family.value} --via {args.via}")
    if args.via == "formula":
        r = formula_R(spec, family_x(spec, point.kind, point.value), ordering=ordering)
    else:
        r = build_R(spec, point, ordering=ordering, form=args.form or "canonical")
    payload = mat_to_json(r)
    note = degeneracy_note(spec, point)
    if note:
        payload["degenerate"] = note
    _emit(args, payload)
    return 0


def _draws(args) -> tuple[int, int]:
    """(samples, seed) of a scan: --samples and --seed, else 50 and 42."""
    return 50 if args.samples is None else args.samples, 42 if args.seed is None else args.seed


def _cmd_check(args) -> int:
    kind = args.what
    tol = _tol(args, kind)
    point = None if kind in ("braid", "qybe") else _point_from_args(args, required=False)
    if kind == "braid" or (kind == "unitarity" and point is None):
        _unread(args, _FAMILY_OPTIONS, f"check {kind} without a spectral point scans seeded "
                "parameter points of --family and", "; give --x, --theta or --u to check one point")
        scan = scan_braid if kind == "braid" else scan_unitarity
        report = scan(Family(args.family), *_draws(args), tol=tol)
        return _verdict(args, report.residual, tol, rho=report.worst_case.get("rho"),
                        worst_case=report.worst_case)
    spec = _spec_from_args(args)
    if kind == "qybe":
        ordering = EigOrdering(args.ordering) if args.ordering else None
        report = scan_qybe(spec, args.parametrization, *_draws(args), tol=tol, ordering=ordering)
        return _verdict(args, report.residual, tol, worst_case=report.worst_case)
    if kind == "unitarity":
        _unread(args, ("samples", "seed"), "check unitarity at a spectral point")
        gap, rho_est = unitarity_gap(spec, point)
        return _verdict(args, gap, tol, rho=float(rho_est),
                        rho_formula=matrix_norm_factor(spec, point))
    if point is None:
        raise DomainError("inverse-unitarity needs a spectral point (--x)")
    measured, expected = family_inverse_unitarity(spec, family_x(spec, point.kind, point.value))
    return _verdict(args, abs(measured - expected), tol, rho=float(measured.real))


def _cmd_classify(args) -> int:
    spec = _spec_from_args(args)
    point = _point_from_args(args)
    if args.locus is not None:
        _unread(args, ("tol",), "classify --locus tests at entangle.ENTANGLING_TOL and")
        vals = [float(v) for v in args.locus.split(",")]
        if len(vals) != 8:
            raise DomainError("--locus takes 8 comma-separated floats: re,im per factor")
        factors = tuple(complex(vals[2 * k], vals[2 * k + 1]) for k in range(4))
        on_locus = nonentangling_locus_check(spec, point, factors)
        payload = {"family": spec.family.value, "on_nonentangling_locus": bool(on_locus)}
    else:
        result = classify(spec, point, tol=_tol(args, "classify"))
        w = result.witness
        payload = {
            "classification": result.classification.value,
            "witness": None if w is None else [[float(z.real), float(z.imag)] for z in w],
            "det": [float(result.det.real), float(result.det.imag)],
        }
    _emit(args, payload)
    return 0


def _cmd_hamiltonian(args) -> int:
    spec = _spec_from_args(args)
    point = _point_from_args(args)
    if args.method == "closed":
        if point.kind != "theta":
            raise DomainError("closed-form Hamiltonians are parametrized by --theta")
        ham = hamiltonian_closed(spec, args.theta)
    else:
        ham = hamiltonian(spec, point)
    decomp = pauli_decompose(ham.matrix)
    payload = {
        "family": spec.family.value,
        "source": args.method,
        "matrix": mat_to_json(ham.matrix),
        "pauli": decomp.to_json(),
        "hermiticity_defect": float(hermiticity_defect(ham.matrix)),
    }
    _emit(args, payload)
    return 0


def _cmd_evolve(args) -> int:
    spec = _spec_from_args(args)
    ham = hamiltonian_closed(spec, args.theta)
    u = evolve(ham, args.time)
    _emit(args, mat_to_json(u))
    return 0


def _cmd_cnot(args) -> int:
    if args.route == "theorem1":
        _unread(args, ("phi",), "cnot --route theorem1")
        dec = theorem1_decomposition()
    else:
        phi = 0.0 if args.phi is None else args.phi
        if not math.isfinite(phi):  # cnot_via_evolution's own error, spelt as the option
            raise ValueError(f"--phi must be finite, got {phi}")
        dec = cnot_via_evolution(phi)
    payload = {
        "route": args.route,
        "residual": float(dec.residual),
        "residual_phase_aligned": float(dec.residual_phase_aligned),
        "pass": bool(dec.residual < CNOT_TOL[args.route]),
        "factors": [{"label": label, "matrix": mat_to_json(m)} for label, m in dec.factors],
    }
    _emit(args, payload)
    return 0 if payload["pass"] else 1


def _cmd_suite(args) -> int:
    result = run_suite(seed=42 if args.seed is None else args.seed)
    _emit(args, result)
    return 0 if result["all_pass"] else 1


def _catalog_args(p: argparse.ArgumentParser) -> None:
    _add_family_args(p)
    _add_run_args(p)
    p.add_argument("--weights", action="store_true",
                   help="also report the eight-vertex weights and their constraint residuals")


def _build_args(p: argparse.ArgumentParser) -> None:
    _add_family_args(p)
    _add_point_args(p)
    p.add_argument("--ordering", choices=[o.value for o in EigOrdering], default=None)
    p.add_argument("--form", choices=["canonical", "g"], help="eight4 --via closed only")
    _add_run_args(p)
    p.add_argument("--via", choices=["closed", "formula"], default="closed",
                   help="conventional closed form or the raw eigenvalue formula")


def _check_args(p: argparse.ArgumentParser) -> None:
    checks = p.add_subparsers(dest="what", required=True)
    # no abbreviations: check braid would read --t as --tol
    c = checks.add_parser("braid", help="braid relation of b over seeded parameter points",
                          allow_abbrev=False)
    c.add_argument("--family", required=True, choices=[f.value for f in Family])
    _add_run_args(c, "tol", "samples", "seed")
    c = checks.add_parser("qybe", help="QYBE over seeded spectral-parameter pairs",
                          allow_abbrev=False)
    _add_family_args(c)
    c.add_argument("--ordering", choices=[o.value for o in EigOrdering], default=None)
    c.add_argument("--parametrization", choices=["x", "theta", "u"], default="x")
    _add_run_args(c, "tol", "samples", "seed")
    c = checks.add_parser("unitarity", help="unitarity at a point, else over seeded points",
                          allow_abbrev=False)
    _add_family_args(c)
    _add_point_args(c)
    _add_run_args(c, "tol", "samples", "seed")
    c = checks.add_parser("inverse-unitarity", help="R(x) R(1/x) scalar at a point",
                          allow_abbrev=False)
    _add_family_args(c)
    _add_point_args(c)
    _add_run_args(c, "tol")


def _classify_args(p: argparse.ArgumentParser) -> None:
    _add_family_args(p)
    _add_point_args(p)
    _add_run_args(p, "tol")
    p.add_argument("--locus", default=None,
                   help="8 comma-separated floats (re,im per one-qubit factor): "
                        "test the non-entangling locus instead of classifying")


def _hamiltonian_args(p: argparse.ArgumentParser) -> None:
    _add_family_args(p)
    _add_point_args(p)
    _add_run_args(p)
    p.add_argument("--method", choices=["exact", "closed"], default="closed",
                   help="exact derivative at --x or --theta, or the closed form at --theta")


def _evolve_args(p: argparse.ArgumentParser) -> None:
    _add_family_args(p)
    p.add_argument("--theta", type=float, default=0.0)
    _add_run_args(p)
    p.add_argument("--time", type=float, required=True)


def _cnot_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--route", choices=["theorem1", "evolution"], default="theorem1")
    p.add_argument("--phi", type=float, default=None)  # the evolution route's; default 0
    _add_run_args(p)


#: every command: (help, the function that adds its arguments, the function that runs it)
COMMANDS = {
    "catalog": ("emit a braid matrix", _catalog_args, _cmd_catalog),
    "build": ("emit an R-matrix at a spectral point", _build_args, _cmd_build),
    "check": ("run a residual check", _check_args, _cmd_check),
    "classify": ("Brylinski classification of the gate at a point", _classify_args,
                 _cmd_classify),
    "hamiltonian": ("extract the evolution generator", _hamiltonian_args, _cmd_hamiltonian),
    "evolve": ("time-evolution operator exp(-i H time)", _evolve_args, _cmd_evolve),
    "cnot": ("CNOT synthesis routes", _cnot_args, _cmd_cnot),
    "suite": ("run the full verification battery", lambda p: _add_run_args(p, "seed"),
              _cmd_suite),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser with only ``command``'s subparser when it names one, else with all of
    them. Help and usage errors read the same either way: a lone subparser's usage line
    lists every command through the metavar, which the full parser leaves unset so that
    its errors name the argument ``command``. Built on first use and then shared: every
    name outside ``COMMANDS`` gets the one full parser."""
    return _parser(command if command in COMMANDS else None)


@functools.lru_cache(maxsize=None)
def _parser(command: str | None) -> argparse.ArgumentParser:
    """``build_parser`` of a name in ``COMMANDS`` or None, built once."""
    parser = argparse.ArgumentParser(
        prog="yaxter",
        description="Braid matrices, Yang-Baxterized R(x) families, and their gate theory.",
    )
    if command is not None:
        names = [command]
        metavar = "{" + ",".join(COMMANDS) + "}"
    else:
        names, metavar = list(COMMANDS), None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        help_text, add_args, run = COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        add_args(p)
        p.set_defaults(func=run)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
