import json
import warnings

import numpy as np
import pytest

from yaxter.catalog import Family, FamilySpec
from yaxter.cli import COMMANDS, build_parser, dumps_17g, main
from yaxter.dynamics import hamiltonian_closed
from yaxter.linalg import WeightRows, mat_from_json
from yaxter.verify import TOLERANCES, scan_braid


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

    real = suite.braid_job

    def nan_job(*args, **kwargs):  # every braid matrix of criterion 1 NaN
        rows, case = real(*args, **kwargs)
        return WeightRows(np.full_like(rows.w, np.nan)), case

    monkeypatch.setattr(suite, "braid_job", nan_job)
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


#: each R family's parameters, and a point of each of its views inside its unitary domain
UNITARITY_VIEWS = [
    (("six-nonstd", "--gamma", "0.3"), ("--x-re", "0.6", "--x-im", "0.8"), ("--theta", "0.6"),
     ("--u-im", "0.3")),
    (("six-std", "--gamma", "0.45"), ("--x-re", "0.6", "--x-im", "0.8"), ("--theta", "0.6"),
     ("--u-im", "0.3")),
    (("eight1", "--phi", "0.2"), ("--x", "0.5"), ("--theta", "0.785"), ("--u", "0.3")),
    (("eight2", "--t", "1.7", "--phi", "0.4"), ("--x-re", "0.6", "--x-im", "0.8"),
     ("--theta", "0.8"), ("--u-im", "0.3")),
    (("eight3", "--t", "2.1", "--phi", "0.33"), ("--x-re", "0.6", "--x-im", "-0.8"),
     ("--theta", "0.8"), ("--u-im", "0.3")),
    (("eight4", "--t", "1.6", "--q", "1"), ("--x-re", "0.28", "--x-im", "-0.96"),
     ("--theta", "0.4"), ("--u-im", "0.3")),
    (("eight4", "--t-im", "1.5", "--q", "1"), ("--x", "0.3"), ("--u", "0.3")),
]


@pytest.mark.parametrize("family,view", [(family, view) for family, *views in UNITARITY_VIEWS
                                         for view in views],
                         ids=lambda v: "-".join(v).replace("--", ""))
def test_check_unitarity_prints_the_rho_its_gap_compares_against(capsys, family, view):
    # rho_formula is the closed form in the gauge of the checked matrix, the one rho_est meets
    code, out, _ = run_cli(capsys, "check", "unitarity", "--family", *family, *view)
    assert code == 0
    report = json.loads(out)
    assert report["pass"]
    assert report["rho_formula"] == pytest.approx(report["rho"], rel=1e-12, abs=0)


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
        "--theta", "0.3", "--method", "exact",
    )
    assert code == 0
    blob2 = json.loads(out2)
    assert blob2["source"] == "exact" and blob2["hermiticity_defect"] < 1e-15
    m1 = mat_from_json(blob["matrix"])
    m2 = mat_from_json(blob2["matrix"])
    assert np.abs(m1 - m2).max() < 1e-12
    # the finite-difference method and its step are gone
    for extra in (("--method", "fd"), ("--method", "exact", "--step", "1e-5")):
        with pytest.raises(SystemExit) as exc:
            main(["hamiltonian", "--family", "eight2", "--t", "1", "--q", "1",
                  "--theta", "0.3", *extra])
        assert exc.value.code == 2


@pytest.mark.parametrize("point", [("--theta", "0.3", "--x", "0.5"), ("--x", "0.5"),
                                   ("--u", "0.2"), ()])
def test_closed_hamiltonian_takes_theta_and_no_other_point(capsys, point):
    code, out, err = run_cli(capsys, "hamiltonian", "--family", "eight2", "--t", "1", "--q", "1",
                             *point, "--method", "closed")
    assert code == 2 and out == ""
    assert err.startswith("error: ")


def test_exact_hamiltonian_along_real_x(capsys):
    code, out, _ = run_cli(capsys, "hamiltonian", "--family", "eight1", "--phi", "0.9",
                           "--x", "1", "--method", "exact")
    assert code == 0
    closed = hamiltonian_closed(FamilySpec.eight1(phi=0.9), 0.0).matrix
    assert np.abs(mat_from_json(json.loads(out)["matrix"]) - closed).max() < 1e-15


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


@pytest.mark.parametrize("via", ["formula", "closed"])
@pytest.mark.parametrize("family,ordering,message", [
    ("eight3", "third", "the third ordering of this braid matrix is the eight4 family"),
    ("eight4", "first", "eight4 is the third-ordering family; use eight3 for the others"),
])
def test_build_takes_the_same_orderings_by_either_route(capsys, via, family, ordering, message):
    code, out, err = run_cli(
        capsys, "build", "--family", family, "--t", "1.7", "--x", "0.5", "--via", via,
        "--ordering", ordering,
    )
    assert (code, out, err) == (2, "", f"error: {message}\n")


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
# eight3 orderings and both eight4 forms, each evaluated on the coefficient table.
BUILD_GOLDEN = {
    '--family six-nonstd --gamma 0.3 --x-re 0.3 --x-im 0.4':
        '{"dim":4,"entries":[[[1.1276133413714877,-0.29632728827268717],[0,0],[0,0],[0,0]],[[0,0],[0.18271217606828558,0.24361623475771413],[0.69999999999999996,-0.40000000000000002],[0,0]],[[0,0],[0.69999999999999996,-0.40000000000000002],[0.60904058689428531,0],[0,0]],[[0,0],[0,0],[0,0],[-0.33586057840891692,0.53994352303040127]]]}\n',
    '--family six-std --q 1.4 --x-re 0.6 --x-im -0.8':
        '{"dim":4,"entries":[[[0.97142857142857131,0.57142857142857151],[0,0],[0,0],[0,0]],[[0,0],[0.41142857142857137,-0.54857142857142849],[0.40000000000000002,0.80000000000000004],[0,0]],[[0,0],[0.40000000000000002,0.80000000000000004],[0.68571428571428561,0],[0,0]],[[0,0],[0,0],[0,0],[0.97142857142857131,0.57142857142857151]]]}\n',
    '--family eight1 --phi 0.9 --sign minus --x 0.5':
        '{"dim":4,"entries":[[[1.5,0],[0,0],[0,0],[0.3108049841353322,-0.39166345481374171]],[[0,0],[1.5,0],[-0.5,0],[0,0]],[[0,0],[0.5,0],[1.5,0],[0,0]],[[-0.31080498413533225,-0.39166345481374176],[0,0],[0,0],[1.5,0]]]}\n',
    '--family eight1 --q-re 0.6 --q-im 0.8 --x 1':
        '{"dim":4,"entries":[[[2,0],[0,0],[0,0],[0,0]],[[0,0],[2,0],[0,0],[0,0]],[[0,0],[0,0],[2,0],[0,0]],[[0,0],[0,0],[0,0],[2,0]]],"degenerate":"R(1) is proportional to the identity; unitarity normalization degenerates"}\n',
    '--family eight2 --t 1.7 --q-re 0.8 --q-im -0.6 --sign minus --x-re 0.28 --x-im 0.96':
        '{"dim":4,"entries":[[[0.77600000000000002,1.6319999999999999],[0,0],[0,0],[0,-1.2]],[[0,0],[1.28,0.95999999999999996],[-0.87887200433282664,1.1718293391104355],[0,0]],[[0,0],[-0.87887200433282664,1.1718293391104355],[1.28,0.95999999999999996],[0,0]],[[1.1519999999999999,-0.33600000000000008],[0,0],[0,0],[1.784,0.28800000000000003]]]}\n',
    '--family eight3 --t 2.1 --q-re 0.6 --q-im 0.8 --x-re -0.6 --x-im 0.8':
        '{"dim":4,"entries":[[[3.3600000000000003,-1.6800000000000002],[0,0],[0,0],[-0.40000000000000002,0.80000000000000004]],[[0,0],[0.40000000000000002,0.80000000000000004],[3.3600000000000003,-1.6800000000000002],[0,0]],[[0,0],[3.3600000000000003,-1.6800000000000002],[0.40000000000000002,0.80000000000000004],[0,0]],[[0.88000000000000012,0.15999999999999992],[0,0],[0,0],[3.3600000000000003,-1.6800000000000002]]]}\n',
    '--family eight3 --t 2.1 --q-re 0.6 --q-im 0.8 --x-re -0.6 --x-im 0.8 --ordering second':
        '{"dim":4,"entries":[[[0.84000000000000008,1.6800000000000002],[0,0],[0,0],[1.6000000000000001,0.80000000000000004]],[[0,0],[1.6000000000000001,-0.80000000000000004],[0.84000000000000008,1.6800000000000002],[0,0]],[[0,0],[0.84000000000000008,1.6800000000000002],[1.6000000000000001,-0.80000000000000004],[0,0]],[[0.31999999999999967,-1.76],[0,0],[0,0],[0.84000000000000008,1.6800000000000002]]]}\n',
    '--family eight4 --t 1.6 --q-re 0.8 --q-im 0.6 --x-re 0.28 --x-im -0.96':
        '{"dim":4,"entries":[[[5.8654720000000005,-2.555904],[0,0],[0,0],[-0.69120000000000026,2.9184000000000001]],[[0,0],[2.9900800000000003,-3.3945600000000002],[4.0734719999999998,3.5880960000000002],[0,0]],[[0,0],[4.0734719999999998,3.5880960000000002],[2.9900800000000003,-3.3945600000000002],[0,0]],[[2.6081279999999998,1.4807040000000002],[0,0],[0,0],[5.8654720000000005,-2.555904]]]}\n',
    '--family eight4 --t 1.6 --q-re 0.8 --q-im 0.6 --x-re 0.28 --x-im -0.96 --form g':
        '{"dim":4,"entries":[[[2.048,-1.536],[0,0],[0,0],[-2.8223689323716763e-17,1.2]],[[0,0],[0.85114754098360657,-1.5973770491803281],[1.9168524590163933,1.0213770491803278],[0,0]],[[0,0],[1.9168524590163933,1.0213770491803278],[0.85114754098360657,-1.5973770491803281],[0,0]],[[1.1519999999999999,0.33600000000000008],[0,0],[0,0],[2.048,-1.536]]]}\n',
    '--family eight4 --t-im 0.7 --q 1 --sign minus --x 1.3':
        '{"dim":4,"entries":[[[0.33810000000000001,3.7029999999999994],[0,0],[0,0],[-0.69000000000000017,0.062999999999999945]],[[0,0],[-0.69000000000000017,3.7029999999999994],[-0.33810000000000001,-0.062999999999999945],[0,0]],[[0,0],[-0.33810000000000001,-0.062999999999999945],[-0.69000000000000017,3.7029999999999994],[0,0]],[[-0.69000000000000017,0.062999999999999945],[0,0],[0,0],[0.33810000000000001,3.7029999999999994]]]}\n',
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


def test_probes_and_seed_are_usage_errors(capsys):
    # the grid test is exact and seed-free: there is no search to bound or seed
    for option, value in (("--probes", "1000"), ("--seed", "3")):
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--family", "six-nonstd", "--gamma", "0.5", "--theta", "0.6",
                  option, value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {option}" in capsys.readouterr().err


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
CLASSIFY_ARGV = ("classify", "--family", "eight1", "--q", "1", "--x", "0.5")


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


def test_a_family_without_a_closed_form_is_named_as_on_the_command_line(capsys):
    code, out, err = run_cli(capsys, "hamiltonian", "--family", "bell-phi", "--phi", "0.3",
                             "--theta", "0.3")
    assert code == 2 and out == ""
    assert err == "error: no closed-form Hamiltonian for bell-phi\n"


@pytest.mark.parametrize("argv", [
    ("--family", "eight2", "--t", "1e200", "--q", "1", "--theta", "0.3"),
    ("--family", "eight3", "--t", "1e200", "--q", "1", "--theta", "0.3"),
    ("--family", "six-std", "--gamma", "700", "--theta", "0.3"),
    ("--family", "eight1", "--phi", "0.3", "--x", "1e200"),
])
def test_exact_hamiltonian_with_huge_entries_is_one_error_line(capsys, argv):
    code, out, err = run_cli(capsys, "hamiltonian", "--method", "exact", *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("gamma", ["712", "-800", "nan"])
def test_gamma_outside_the_exp_range_is_one_error_line(capsys, gamma):
    # exp(712) overflows and exp(-800) underflows to q = 0; both name the option
    code, out, err = run_cli(capsys, "hamiltonian", "--family", "six-std", "--gamma", gamma,
                             "--theta", "0.3")
    assert code == 2 and out == ""
    assert err.startswith("error: gamma ") and err.count("\n") == 1


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


# --- each check its own subcommand; overflow rejected before any product ----------

@pytest.mark.parametrize("argv", [
    ("check", "qybe", "--family", "eight3", "--t", "1e200", "--q", "1", "--samples", "3"),
    ("check", "inverse-unitarity", "--family", "eight3", "--t", "1e200", "--q", "1",
     "--x", "0.7"),
    ("check", "qybe", "--family", "six-std", "--q", "1e-200", "--samples", "3"),
])
def test_overflowing_check_is_one_error_line_naming_the_parameter(capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"{argv[4][2:]} = {float(argv[5]):g}" in err


def test_eight1_theta_qybe_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "check", "qybe", "--family", "eight1", "--phi", "0.9",
                             "--parametrization", "theta")
    assert code == 2 and out == ""
    assert err.startswith("error: eight1 has no QYBE composition law in the 'theta'")


@pytest.mark.parametrize("what,option,value", [
    ("braid", "--phi", "0.9"), ("braid", "--x", "0.3"), ("braid", "--t", "1e200"),
    ("braid", "--ordering", "second"), ("braid", "--parametrization", "u"),
    ("qybe", "--x", "0.3"), ("qybe", "--theta", "0.3"), ("qybe", "--u", "0.3"),
    ("inverse-unitarity", "--samples", "5"), ("inverse-unitarity", "--seed", "3"),
    ("inverse-unitarity", "--parametrization", "u"), ("unitarity", "--ordering", "second"),
])
def test_check_rejects_an_option_it_does_not_read(capsys, what, option, value):
    with pytest.raises(SystemExit) as exc:
        main([*CHECK_ARGV[what], option, value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {option}" in capsys.readouterr().err


# --- scan-mode family options and overflowing weights ------------------------------

@pytest.mark.parametrize("options,named", [(("--t", "1e200", "--q", "1"), "--q, --t"),
                                          (("--sign", "minus"), "--sign"),
                                          (("--phi", "0.3"), "--phi")])
def test_unitarity_scan_rejects_the_family_options_it_would_not_read(capsys, options, named):
    code, out, err = run_cli(capsys, "check", "unitarity", "--family", "eight3", *options,
                             "--samples", "3")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"reads no {named};" in err


def test_unitarity_at_a_point_still_reads_the_family_options(capsys):
    code, out, _ = run_cli(capsys, "check", "unitarity", "--family", "eight3", "--t", "1.5",
                           "--q", "1", "--sign", "minus", "--theta", "0.3")
    assert code == 0 and json.loads(out)["pass"] is True


# Given options that the command parses and does not read: each a usage error.
UNREAD = [
    (("classify", "--family", "eight1", "--phi", "0.9", "--x", "0.5",
      "--locus", "1,0,0,0,1,0,0,0", "--tol", "10"), "--tol"),
    (("build", "--family", "eight1", "--phi", "0.3", "--x", "0.5", "--form", "g"), "--form"),
    (("build", "--family", "eight3", "--t", "2.1", "--q", "1", "--x", "0.5", "--form", "g"),
     "--form"),
    (("build", "--family", "eight4", "--t", "1.6", "--q", "1", "--x", "0.5", "--via", "formula",
      "--form", "g"), "--form"),
    (("build", "--family", "six-std", "--gamma", "0.45", "--theta", "0.7",
      "--form", "canonical"), "--form"),
    (("check", "unitarity", "--family", "six-nonstd", "--gamma", "0.3", "--theta", "0.6",
      "--samples", "5"), "--samples"),
    (("check", "unitarity", "--family", "eight1", "--phi", "0.2", "--theta", "0.785",
      "--seed", "0"), "--seed"),
    (("check", "unitarity", "--family", "eight4", "--t-im", "1.5", "--q", "1", "--u", "0.3",
      "--samples", "5", "--seed", "7"), "--samples, --seed"),
    (("catalog", "--family", "six-nonstd", "--gamma", "0.3", "--t", "1.7"), "--t"),
    (("build", "--family", "six-std", "--gamma", "0.45", "--theta", "0.7", "--sign", "minus"),
     "--sign"),
    (("check", "qybe", "--family", "eight1", "--phi", "0.9", "--t-re", "1.3", "--samples", "3"),
     "--t-re"),
    (("check", "inverse-unitarity", "--family", "six-std", "--gamma", "0.3", "--theta", "0.4",
      "--t-im", "0.2"), "--t-im"),
    (("catalog", "--family", "bell-phi", "--phi", "0.4", "--t", "1.7"), "--t"),
    (("hamiltonian", "--family", "six-nonstd", "--gamma", "0.3", "--theta", "0.6",
      "--t", "2", "--sign", "plus"), "--t, --sign"),
    (("evolve", "--family", "eight1", "--phi", "0", "--t", "1", "--time", "1"), "--t"),
]


@pytest.mark.parametrize("argv,named", UNREAD, ids=lambda v: v if isinstance(v, str) else None)
def test_a_given_option_the_command_does_not_read_is_a_usage_error(capsys, argv, named):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"reads no {named}" in err


@pytest.mark.parametrize("options,samples,seed", [((), 50, 42), (("--seed", "0"), 50, 0),
                                                   (("--samples", "3", "--seed", "0"), 3, 0)])
def test_a_scan_draws_50_samples_at_seed_42_unless_given(capsys, options, samples, seed):
    code, out, _ = run_cli(capsys, "check", "braid", "--family", "eight2", *options)
    want = scan_braid(Family.EIGHT_II, samples, seed)
    assert code == 0 and json.loads(out)["residual"] == want.residual
    assert json.loads(out)["worst_case"] == json.loads(dumps_17g(want.worst_case))


def test_overflowing_weights_are_one_error_line(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "catalog", "--family", "eight3", "--t", "1e200",
                                 "--q", "1", "--weights")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "weight reaches 1e+200" in err


# --- one subparser per run: the same help and usage errors as the full parser -----

PARSER_PATHS = [(command,) for command in COMMANDS] + [("check", what) for what in CHECK_ARGV]
VALID_ARGV = {**MINIMAL_ARGV, **{("check", what): argv for what, argv in CHECK_ARGV.items()}}


def _parse(capsys, parser, argv):
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(list(argv))
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


@pytest.mark.parametrize("path", PARSER_PATHS, ids=" ".join)
def test_the_parser_of_one_command_reads_as_the_full_parser(capsys, monkeypatch, path):
    monkeypatch.setenv("COLUMNS", "80")
    valid = VALID_ARGV[path if len(path) > 1 else path[0]]
    for argv in ([*path, "--help"], [*valid, "--bogus"], [*valid, "extra"], [*path, "--bogus"]):
        one = _parse(capsys, build_parser(path[0]), argv)
        every = _parse(capsys, build_parser(), argv)
        assert one == every
        assert one[0] == (0 if "--help" in argv else 2)
    assert list(build_parser(path[0])._subparsers._group_actions[0].choices) == [path[0]]
    assert list(build_parser()._subparsers._group_actions[0].choices) == list(COMMANDS)


USAGE = ("usage: yaxter [-h]\n"
         "              {catalog,build,check,classify,hamiltonian,evolve,cnot,suite} ...\n")
TOP_LEVEL = {
    (): (2, "", USAGE + "yaxter: error: the following arguments are required: command\n"),
    ("--help",): (0, USAGE + """
Braid matrices, Yang-Baxterized R(x) families, and their gate theory.

positional arguments:
  {catalog,build,check,classify,hamiltonian,evolve,cnot,suite}
    catalog             emit a braid matrix
    build               emit an R-matrix at a spectral point
    check               run a residual check
    classify            Brylinski classification of the gate at a point
    hamiltonian         extract the evolution generator
    evolve              time-evolution operator exp(-i H time)
    cnot                CNOT synthesis routes
    suite               run the full verification battery

options:
  -h, --help            show this help message and exit
""", ""),
    ("bogus",): (2, "", USAGE + "yaxter: error: argument command: invalid choice: 'bogus' "
                 "(choose from 'catalog', 'build', 'check', 'classify', 'hamiltonian', "
                 "'evolve', 'cnot', 'suite')\n"),
    ("suite", "--bogus"): (2, "", USAGE + "yaxter: error: unrecognized arguments: --bogus\n"),
}


@pytest.mark.parametrize("argv", TOP_LEVEL, ids=lambda argv: " ".join(argv) or "no-args")
def test_top_level_output_is_pinned(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out, captured.err) == TOP_LEVEL[argv]


# --- non-finite evolution inputs, option misuse and named usage errors ------------

EVOLVE_ARGV = ("evolve", "--family", "eight2", "--t", "1.5", "--q-re", "0.6", "--q-im", "0.8",
               "--theta", "0.3")


@pytest.mark.parametrize("argv", [
    (*EVOLVE_ARGV, "--time", "nan"), (*EVOLVE_ARGV, "--time", "inf"),
    ("cnot", "--route", "evolution", "--phi", "inf"),
    ("cnot", "--route", "evolution", "--phi", "nan"),
], ids=["time-nan", "time-inf", "phi-inf", "phi-nan"])
def test_non_finite_evolution_input_is_one_error_line(capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "finite" in err and err.rstrip().endswith(f"got {argv[-1]}")


def test_theorem1_route_reads_no_phi(capsys):
    code, out, err = run_cli(capsys, "cnot", "--route", "theorem1", "--phi", "0.4")
    assert code == 2 and out == ""
    assert err == "error: cnot --route theorem1 reads no --phi\n"


@pytest.mark.parametrize("argv", [
    ("catalog", "--family", "eight1", "--phi", "inf"),
    ("catalog", "--family", "eight1", "--phi=-inf"),
    ("catalog", "--family", "bell-phi", "--phi", "nan"),
    ("catalog", "--family", "eight1", "--gamma", "0.3", "--phi", "0.2"),
    ("check", "unitarity", "--family", "eight2", "--t", "1.7", "--u", "1e20"),
    ("check", "unitarity", "--family", "eight1", "--phi", "0.3", "--u", "1e20"),
    ("check", "unitarity", "--family", "eight4", "--t", "1.6", "--u", "1e20"),
    ("build", "--family", "eight2", "--t", "1.7", "--u", "1e20"),
    ("classify", "--family", "eight2", "--t", "1.7", "--u", "1e20"),
    ("classify", "--family", "eight4", "--t", "1.6", "--x", "1e308"),
    ("classify", "--family", "eight4", "--t", "0.999", "--x", "1.4e154"),
    ("cnot", "--route", "theorem1", "--phi", "0.4"),
], ids=lambda argv: "-".join(argv))
def test_bad_parameter_or_point_is_one_error_line_without_warnings(capsys, argv):
    # refused before any arithmetic that would raise or warn, naming only what was given
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "Warning" not in err
    if argv[0] == "catalog" and any(a.startswith("--phi") for a in argv):
        assert "phi" in err and "--q" not in err and " q " not in err
    if "--u" in argv:
        assert err == "error: u = (1-x)/(1+x) is undefined at x = -1\n"
    if "--x" in argv:  # R(x) is finite at t = 0.999; only its u-view gauge is not
        assert "gauge 1/(1+x)^2 is out of float range" in err


@pytest.mark.parametrize("argv", [("suite", "--seed", "-1"),
                                  (*CHECK_ARGV["braid"], "--seed", "-5")])
def test_negative_seed_is_a_usage_error_naming_the_option(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith(f"error: argument --seed: must be at least 0, got {argv[-1]}\n")


def test_locus_of_an_uncatalogued_family_names_it_by_value(capsys):
    code, out, err = run_cli(capsys, "classify", "--family", "eight2", "--t", "1.5", "--q", "1",
                             "--theta", "0.3", "--locus", "1,0,0,0,0,0,1,0")
    assert code == 2 and out == ""
    assert err == "error: non-entangling locus is catalogued only for eight1/eight3, not eight2\n"
