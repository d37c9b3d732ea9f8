import json

import numpy as np
import pytest

from yaxter.cli import dumps_17g, main
from yaxter.linalg import mat_from_json
from yaxter.verify import TOLERANCES


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dumps_17g_is_round_trip_exact():
    assert dumps_17g(0.1) == "0.10000000000000001"
    assert dumps_17g({"a": [1, 2.5, None, True]}) == '{"a":[1,2.5,null,true]}'
    x = 1.0 / 3.0
    assert float(json.loads(dumps_17g(x))) == x


def test_dumps_17g_writes_non_finite_floats_as_strings():
    got = dumps_17g([float("nan"), float("inf"), -float("inf"), np.float64("nan")])
    assert got == '["nan","inf","-inf","nan"]'


def test_suite_with_a_nan_criterion_prints_the_failing_report(capsys, monkeypatch):
    from yaxter import suite
    from yaxter.verify import ResidualReport

    def nan_scan(*args, **kwargs):
        return ResidualReport(residual=float("nan"), tolerance=kwargs["tol"], worst_case={})

    monkeypatch.setattr(suite, "scan_braid", nan_scan)
    code, out, err = run_cli(capsys, "suite")
    assert code == 1 and err == ""
    report = json.loads(out)
    assert report["all_pass"] is False
    braid = report["criteria"][0]
    assert braid["max_residual"] == "nan" and braid["pass"] is False
    assert all(entry["pass"] for entry in report["criteria"][1:])


def test_build_emits_b_at_x_zero(capsys):
    code, out, _ = run_cli(capsys, "build", "--family", "six-nonstd", "--q", "1", "--x", "0")
    assert code == 0
    m = mat_from_json(json.loads(out))
    want = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, -1]], dtype=complex)
    assert np.array_equal(m, want)


def test_catalog_emits_matrix(capsys):
    code, out, _ = run_cli(
        capsys, "catalog", "--family", "eight1",
        "--q-re", "0.6", "--q-im", "0.8", "--sign", "plus",
    )
    assert code == 0
    blob = json.loads(out)
    assert blob["dim"] == 4
    m = mat_from_json(blob)
    assert m[0, 3] == 0.6 + 0.8j


def test_build_requires_a_point(capsys):
    code, _, err = run_cli(capsys, "build", "--family", "six-nonstd", "--q", "1")
    assert code == 2
    assert "spectral point" in err


def test_build_marks_degenerate_point(capsys):
    code, out, _ = run_cli(capsys, "build", "--family", "eight1", "--phi", "0.3", "--x", "1")
    assert code == 0
    assert "degenerate" in json.loads(out)


def test_check_unitarity_off_domain_exits_2(capsys):
    code, _, err = run_cli(
        capsys, "check", "unitarity", "--family", "six-nonstd",
        "--gamma", "0.3", "--x-re", "2", "--x-im", "0",
    )
    assert code == 2
    assert "|x| = 1" in err


def test_check_unitarity_single_point(capsys):
    code, out, _ = run_cli(
        capsys, "check", "unitarity", "--family", "six-nonstd",
        "--gamma", "0.3", "--theta", "0.6",
    )
    assert code == 0
    report = json.loads(out)
    assert report["pass"] and report["residual"] < 1e-10
    assert report["rho"] == pytest.approx(4 * (np.sinh(0.3) ** 2 + np.sin(0.6) ** 2))


def test_check_braid_scan(capsys):
    code, out, _ = run_cli(capsys, "check", "braid", "--family", "bell-phi", "--samples", "20")
    assert code == 0
    report = json.loads(out)
    assert report["check"] == "braid" and report["pass"]
    assert report["worst_case"] is not None


def test_check_qybe_rational(capsys):
    code, out, _ = run_cli(
        capsys, "check", "qybe", "--family", "eight1", "--phi", "0.7",
        "--parametrization", "u", "--samples", "20",
    )
    assert code == 0
    assert json.loads(out)["pass"]


def test_check_inverse_unitarity_point(capsys):
    code, out, _ = run_cli(
        capsys, "check", "inverse-unitarity", "--family", "eight3",
        "--t", "1", "--q", "1", "--x", "0.7",
    )
    assert code == 0
    report = json.loads(out)
    assert report["rho"] == pytest.approx(4.0)


def test_classify_entangling_and_excluded(capsys):
    code, out, _ = run_cli(
        capsys, "classify", "--family", "six-nonstd", "--gamma", "0.5", "--theta", "0.6",
    )
    assert code == 0
    blob = json.loads(out)
    assert blob["classification"] == "entangling"
    assert blob["witness"] is not None
    code, out, _ = run_cli(
        capsys, "classify", "--family", "six-std", "--q", "1", "--theta", "0.6",
    )
    assert code == 0
    assert json.loads(out)["classification"] == "not-entangling"


def test_hamiltonian_closed_and_fd(capsys):
    code, out, _ = run_cli(
        capsys, "hamiltonian", "--family", "eight2", "--t", "1", "--q", "1",
        "--theta", "0.3", "--method", "closed",
    )
    assert code == 0
    blob = json.loads(out)
    assert blob["source"] == "closed"
    assert blob["pauli"]["coeffs"]["ii"][0] == pytest.approx(-0.5)
    code, out2, _ = run_cli(
        capsys, "hamiltonian", "--family", "eight2", "--t", "1", "--q", "1",
        "--theta", "0.3", "--method", "fd",
    )
    assert code == 0
    m1 = mat_from_json(blob["matrix"])
    m2 = mat_from_json(json.loads(out2)["matrix"])
    assert np.abs(m1 - m2).max() < 1e-7


def test_evolve_emits_unitary(capsys):
    code, out, _ = run_cli(
        capsys, "evolve", "--family", "eight1", "--phi", "0", "--sign", "minus",
        "--theta", "0", "--time", "0.5",
    )
    assert code == 0
    u = mat_from_json(json.loads(out))
    assert np.abs(u @ u.conj().T - np.eye(4)).max() < 1e-12


def test_cnot_routes(capsys):
    code, out, _ = run_cli(capsys, "cnot", "--route", "theorem1")
    assert code == 0
    assert json.loads(out)["residual"] < 1e-12
    code, out, _ = run_cli(capsys, "cnot", "--route", "evolution", "--phi", "0.4")
    assert code == 0
    assert json.loads(out)["residual"] < 1e-11


def test_env_tolerance_override(capsys, monkeypatch):
    monkeypatch.setenv("YAXTER_TOL", "1e-30")
    code, out, _ = run_cli(
        capsys, "check", "unitarity", "--family", "six-nonstd",
        "--gamma", "0.3", "--theta", "0.6",
    )
    assert code == 1  # nothing passes a 1e-30 bar
    assert json.loads(out)["tolerance"] == 1e-30


def test_seeded_outputs_are_byte_identical(capsys):
    args = ("check", "qybe", "--family", "six-nonstd", "--gamma", "0.3",
            "--samples", "15", "--seed", "9")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_unknown_family_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["catalog", "--family", "seven"])
    assert exc.value.code == 2


def test_build_via_formula(capsys):
    code, out, _ = run_cli(
        capsys, "build", "--family", "eight1", "--phi", "0.4", "--x", "0.5",
        "--via", "formula",
    )
    assert code == 0
    m = mat_from_json(json.loads(out))
    code, out2, _ = run_cli(
        capsys, "build", "--family", "eight1", "--phi", "0.4", "--x", "0.5",
    )
    assert np.abs(m - mat_from_json(json.loads(out2))).max() < 1e-12


def test_build_via_formula_collapse_is_domain_error(capsys):
    code, _, err = run_cli(
        capsys, "build", "--family", "eight3", "--t", "1", "--q", "1",
        "--x", "0.5", "--via", "formula",
    )
    assert code == 2
    assert "collapse" in err


def test_catalog_weights_report(capsys):
    code, out, _ = run_cli(
        capsys, "catalog", "--family", "eight2", "--t", "1.5", "--q", "1", "--weights",
    )
    assert code == 0
    blob = json.loads(out)
    assert blob["max_residual"] < 1e-12
    assert blob["weights"]["w1"] == [0.5, 0.0]


def test_classify_locus_flag(capsys):
    code, out, _ = run_cli(
        capsys, "classify", "--family", "eight1", "--q", "1", "--x", "0.5",
        "--locus", "0.7,0,0.2,0,0.5,0,0.5,0",
    )
    assert code == 0
    assert json.loads(out)["on_nonentangling_locus"] is True


def test_pretty_output(capsys):
    code, out, _ = run_cli(
        capsys, "check", "braid", "--family", "eight1", "--samples", "5",
        "--output", "pretty",
    )
    assert code == 0
    assert "residual:" in out


# `yaxter build --x ...` output, pinned byte for byte: every R family, both
# eight3 orderings and both eight4 forms.
BUILD_GOLDEN = {
    '--family six-nonstd --gamma 0.3 --x-re 0.3 --x-im 0.4':
        '{"dim":4,"entries":[[[1.1276133413714877,-0.29632728827268717],[0,0],[0,0],[0,0]],[[0,0],[0.18271217606828558,0.24361623475771413],[0.69999999999999996,-0.40000000000000002],[0,0]],[[0,0],[0.69999999999999996,-0.40000000000000002],[0.60904058689428531,0],[0,0]],[[0,0],[0,0],[0,0],[-0.33586057840891692,0.53994352303040127]]]}\n',
    '--family six-std --q 1.4 --x-re 0.6 --x-im -0.8':
        '{"dim":4,"entries":[[[0.97142857142857131,0.57142857142857151],[0,0],[0,0],[0,0]],[[0,0],[0.41142857142857137,-0.54857142857142849],[0.40000000000000002,0.80000000000000004],[0,0]],[[0,0],[0.40000000000000002,0.80000000000000004],[0.68571428571428561,0],[0,0]],[[0,0],[0,0],[0,0],[0.97142857142857131,0.57142857142857151]]]}\n',
    '--family eight1 --phi 0.9 --sign minus --x 0.5':
        '{"dim":4,"entries":[[[1.5,0],[0,0],[0,0],[0.3108049841353322,-0.39166345481374171]],[[0,0],[1.5,0],[-0.5,0],[0,0]],[[0,0],[0.5,0],[1.5,0],[0,0]],[[-0.31080498413533225,-0.39166345481374176],[0,0],[0,0],[1.5,0]]]}\n',
    '--family eight1 --q-re 0.6 --q-im 0.8 --x 1':
        '{"dim":4,"entries":[[[2,0],[0,0],[0,0],[0,0]],[[0,0],[2,0],[0,0],[0,0]],[[0,0],[-0,0],[2,0],[0,0]],[[-0,0],[0,0],[0,0],[2,0]]],"degenerate":"R(1) is proportional to the identity; unitarity normalization degenerates"}\n',
    '--family eight2 --t 1.7 --q-re 0.8 --q-im -0.6 --sign minus --x-re 0.28 --x-im 0.96':
        '{"dim":4,"entries":[[[0.77600000000000002,1.6319999999999999],[0,0],[0,0],[0,-1.2]],[[0,0],[1.28,0.95999999999999996],[-0.87887200433282653,1.1718293391104355],[0,0]],[[0,0],[-0.87887200433282653,1.1718293391104355],[1.28,0.95999999999999996],[0,0]],[[1.1519999999999999,-0.33600000000000002],[0,0],[0,0],[1.784,0.28800000000000003]]]}\n',
    '--family eight3 --t 2.1 --q-re 0.6 --q-im 0.8 --x-re -0.6 --x-im 0.8':
        '{"dim":4,"entries":[[[3.3600000000000003,-1.6800000000000002],[0,0],[0,0],[-0.40000000000000013,0.80000000000000004]],[[0,0],[0.40000000000000002,0.80000000000000004],[3.3600000000000003,-1.6800000000000002],[0,0]],[[0,0],[3.3600000000000003,-1.6800000000000002],[0.40000000000000002,0.80000000000000004],[0,0]],[[0.88000000000000012,0.15999999999999998],[0,0],[0,0],[3.3600000000000003,-1.6800000000000002]]]}\n',
    '--family eight3 --t 2.1 --q-re 0.6 --q-im 0.8 --x-re -0.6 --x-im 0.8 --ordering second':
        '{"dim":4,"entries":[[[0.84000000000000052,1.6799999999999999],[0,0],[0,0],[1.6000000000000001,0.80000000000000004]],[[0,0],[1.5999999999999999,-0.79999999999999993],[0.8400000000000003,1.6799999999999999],[0,0]],[[0,0],[0.84000000000000008,1.6800000000000002],[1.5999999999999999,-0.79999999999999993],[0,0]],[[0.31999999999999973,-1.7599999999999998],[0,0],[0,0],[0.8400000000000003,1.6800000000000002]]]}\n',
    '--family eight4 --t 1.6 --q-re 0.8 --q-im 0.6 --x-re 0.28 --x-im -0.96':
        '{"dim":4,"entries":[[[5.8654720000000005,-2.555904],[0,0],[0,0],[-0.69120000000000004,2.9183999999999997]],[[0,0],[2.9900800000000003,-3.3945600000000002],[4.0734719999999998,3.5880960000000002],[0,0]],[[0,0],[4.0734719999999998,3.5880960000000002],[2.9900800000000003,-3.3945600000000002],[0,0]],[[2.6081279999999998,1.480704],[0,0],[0,0],[5.8654720000000005,-2.555904]]]}\n',
    '--family eight4 --t 1.6 --q-re 0.8 --q-im 0.6 --x-re 0.28 --x-im -0.96 --form g':
        '{"dim":4,"entries":[[[2.048,-1.536],[0,0],[0,0],[0,1.2]],[[0,0],[0.85114754098360668,-1.5973770491803281],[1.9168524590163936,1.021377049180328],[0,0]],[[0,0],[1.9168524590163936,1.021377049180328],[0.85114754098360668,-1.5973770491803281],[0,0]],[[1.1519999999999999,0.33600000000000002],[0,0],[0,0],[2.048,-1.536]]]}\n',
    '--family eight4 --t-im 0.7 --q 1 --sign minus --x 1.3':
        '{"dim":4,"entries":[[[0.3380999999999999,3.7029999999999994],[0,0],[0,0],[-0.69000000000000006,0.063]],[[0,0],[-0.69000000000000006,3.7029999999999994],[-0.33810000000000001,-0.063000000000000014],[0,0]],[[0,0],[-0.33810000000000001,-0.063000000000000014],[-0.69000000000000006,3.7029999999999994],[0,0]],[[-0.69000000000000006,0.063],[0,0],[0,0],[0.3380999999999999,3.7029999999999994]]]}\n',
}


@pytest.mark.parametrize("argv", BUILD_GOLDEN)
def test_build_x_output_is_pinned(capsys, argv):
    code, out, _ = run_cli(capsys, "build", *argv.split())
    assert code == 0
    assert out == BUILD_GOLDEN[argv]


@pytest.mark.parametrize("what", ["qybe", "unitarity", "braid"])
@pytest.mark.parametrize("samples", ["0", "-2"])
def test_check_without_samples_is_usage_error(capsys, what, samples):
    with pytest.raises(SystemExit) as exc:
        main(["check", what, "--family", "eight2", "--samples", samples])
    assert exc.value.code == 2
    assert "--samples" in capsys.readouterr().err


def test_negative_probe_count_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--family", "six-nonstd", "--gamma", "0.5", "--theta", "0.6",
              "--probes", "-3"])
    assert exc.value.code == 2
    assert "--probes" in capsys.readouterr().err


def test_inverse_unitarity_theta_uses_the_family_x(capsys):
    family = ("--family", "six-nonstd", "--gamma", "0.3")
    _, by_theta, _ = run_cli(capsys, "check", "inverse-unitarity", *family, "--theta", "0.5")
    _, by_x, _ = run_cli(capsys, "check", "inverse-unitarity", *family,
                         "--x-re", str(float(np.cos(1.0))), "--x-im", str(float(np.sin(1.0))))
    rho_theta, rho_x = json.loads(by_theta)["rho"], json.loads(by_x)["rho"]
    assert rho_theta == pytest.approx(1.2903, abs=1e-4)
    assert rho_theta == pytest.approx(rho_x, rel=1e-14)


# --- tolerances and accepted options -------------------------------------------

CHECK_ARGV = {
    "braid": ("check", "braid", "--family", "eight1", "--samples", "2"),
    "qybe": ("check", "qybe", "--family", "eight1", "--phi", "0.3", "--samples", "2"),
    "unitarity": ("check", "unitarity", "--family", "eight1", "--samples", "2"),
    "inverse-unitarity": ("check", "inverse-unitarity", "--family", "eight3",
                          "--t", "1", "--q", "1", "--x", "0.7"),
}
CLASSIFY_ARGV = ("classify", "--family", "eight1", "--q", "1", "--x", "0.5", "--probes", "0")


@pytest.mark.parametrize("what", TOLERANCES)
def test_check_defaults_to_its_own_threshold(capsys, what):
    code, out, _ = run_cli(capsys, *CHECK_ARGV[what])
    assert code == 0
    assert json.loads(out)["tolerance"] == TOLERANCES[what]


@pytest.mark.parametrize("value", ["nan", "inf", "-1", "0"])
@pytest.mark.parametrize("argv", [CHECK_ARGV["braid"], CLASSIFY_ARGV], ids=["check", "classify"])
def test_bad_tolerance_is_usage_error(capsys, argv, value):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--tol", value])
    assert exc.value.code == 2
    assert "--tol" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "-1", "abc"])
def test_bad_env_tolerance_is_usage_error(capsys, monkeypatch, value):
    monkeypatch.setenv("YAXTER_TOL", value)
    code, out, err = run_cli(capsys, *CLASSIFY_ARGV)
    assert code == 2 and out == ""
    assert err.startswith("error: YAXTER_TOL")


def test_classify_reads_the_env_tolerance(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, *CLASSIFY_ARGV)
    assert code == 0 and json.loads(out)["classification"] == "entangling"
    _, by_flag, _ = run_cli(capsys, *CLASSIFY_ARGV, "--tol", "10")
    monkeypatch.setenv("YAXTER_TOL", "10")
    code, by_env, _ = run_cli(capsys, *CLASSIFY_ARGV)
    assert code == 0 and json.loads(by_env)["classification"] == "not-entangling"
    assert by_env == by_flag


def test_classify_singular_gate_is_an_error(capsys):
    code, out, err = run_cli(capsys, "classify", "--family", "six-nonstd", "--gamma", "0.5",
                             "--x", repr(float(np.e)))
    assert code == 2 and out == ""
    assert err.startswith("error: matrix is singular")


@pytest.mark.parametrize("argv", [
    ("--family", "eight1", "--phi", "0.3", "--x", "1e200"),
    ("--family", "eight2", "--t", "1e200", "--q", "1", "--theta", "0.3"),
    ("--family", "eight4", "--t", "1e200", "--q", "1", "--theta", "0.3"),
    ("--family", "six-std", "--gamma", "700", "--theta", "0.3"),
])
def test_overflowing_rho_is_one_error_line(capsys, argv):
    code, out, err = run_cli(capsys, "check", "unitarity", *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "not finite" in err


@pytest.mark.parametrize("argv", [
    ("--family", "eight2", "--t", "1e200", "--q", "1", "--theta", "0.3"),
    ("--family", "eight3", "--t", "1e200", "--q", "1", "--theta", "0.3"),
    ("--family", "eight4", "--t", "1e200", "--q", "1", "--theta", "0.3"),
    ("--family", "six-std", "--gamma", "700", "--theta", "0.3"),
])
def test_closed_hamiltonian_with_overflowing_rho_is_one_error_line(capsys, argv):
    code, out, err = run_cli(capsys, "hamiltonian", *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "not finite" in err


def test_build_with_huge_entries_is_not_called_singular(capsys):
    # b has entries of order t = 1e100; the singularity guard of b^{-1} divides
    # by max|b_ij| instead of raising it to the 4th power, which overflows
    code, out, _ = run_cli(capsys, "build", "--family", "eight3", "--t", "1e100", "--q", "1",
                           "--x", "0.5", "--ordering", "second")
    assert code == 0
    m = mat_from_json(json.loads(out))
    assert m[0, 0] == pytest.approx(1.5e100, rel=1e-15) and m[0, 3] == pytest.approx(0.5)


# Options that these commands accepted and never read.
MINIMAL_ARGV = {
    "catalog": ("catalog", "--family", "eight1", "--phi", "0.3"),
    "build": ("build", "--family", "eight1", "--phi", "0.3", "--x", "0.5"),
    "check": ("check", "unitarity", "--family", "six-nonstd", "--gamma", "0.3", "--theta", "0.6"),
    "classify": CLASSIFY_ARGV,
    "hamiltonian": ("hamiltonian", "--family", "eight2", "--t", "1", "--q", "1", "--theta", "0.3"),
    "evolve": ("evolve", "--family", "eight1", "--phi", "0", "--time", "1"),
    "cnot": ("cnot",),
    "suite": ("suite",),
}
IGNORED = [
    ("evolve", "--x", "0.5"), ("cnot", "--tol", "1e-30"),
    ("suite", "--tol", "1e-3"), ("suite", "--samples", "5"),
    *((command, option, value) for command in ("catalog", "build", "hamiltonian")
      for option, value in (("--tol", "1e-3"), ("--samples", "5"), ("--seed", "3"))),
    ("hamiltonian", "--ordering", "third"), ("hamiltonian", "--form", "g"),
    ("classify", "--samples", "5"), ("check", "--form", "g"),
]


@pytest.mark.parametrize("command,option,value", IGNORED)
def test_option_the_command_does_not_read_is_usage_error(capsys, command, option, value):
    with pytest.raises(SystemExit) as exc:
        main([*MINIMAL_ARGV[command], option, value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {option}" in capsys.readouterr().err
