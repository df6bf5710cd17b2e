import json

import pytest

from poishom import catalog
from poishom.cli import run


def test_analyze_catalog_entry(capsys):
    assert run(["analyze", "subgroup-sphere"]) == 0
    out = capsys.readouterr().out
    assert "poisson_lie_subgroup" in out
    assert "fails_condition_ii" in out


def test_analyze_json_schema(capsys):
    assert run(["analyze", "mu-plane", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    for key in (
        "name",
        "coisotropic",
        "subgroup_type",
        "chi_h0_zero",
        "invariant_volume",
        "semi_invariant",
        "mu_status",
        "witness_theta0",
        "anchors",
    ):
        assert key in data
    assert data["mu_status"] == "multiplicative_unimodular"
    assert data["witness_theta0"] == "1 X^3"


def test_analyze_unknown_entry(capsys):
    assert run(["analyze", "nonexistent-entry"]) == 2


def test_analyze_spec_file(tmp_path, capsys):
    path = tmp_path / "in.spec"
    path.write_text(
        "[algebra]\nbasis: J1 J2 J3\nJ1,J2 -> 1 J3\nJ2,J3 -> 1 J1\nJ3,J1 -> 1 J2\n"
        "[rmatrix]\n1 eta J1^J2\n[subalgebra]\nJ3\n",
        encoding="utf-8",
    )
    assert run(["analyze", str(path), "--file", "--eta", "1/3"]) == 0
    assert "fails_condition_ii" in capsys.readouterr().out


def test_analyze_bad_file(tmp_path, capsys):
    path = tmp_path / "bad.spec"
    path.write_text("[algebra]\nbasis: a a\n", encoding="utf-8")
    assert run(["analyze", str(path), "--file"]) == 2
    assert "input error" in capsys.readouterr().err


def test_tables_match_golden(capsys):
    assert run(["tables"]) == 0
    out = capsys.readouterr().out
    assert "11 rows match" in out


def test_tables_eta_generic(capsys):
    assert run(["tables", "--eta", "2"]) == 0
    assert run(["tables", "--eta", "1/3"]) == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "coisotropic-sphere", "--json"],
        ["tables", "--json"],
        ["dynamics", "sphere-morse", "--T", "0.01", "--json"],
        ["verify-all", "--json"],
    ],
)
def test_negative_rational_eta_as_separate_argument(argv, capsys):
    assert run(argv + ["--eta=-5/2"]) == 0
    joined = capsys.readouterr()
    assert run(argv + ["--eta", "-5/2"]) == 0
    assert capsys.readouterr() == joined


def test_tables_eta_zero_rejected(capsys):
    assert run(["tables", "--eta", "0"]) == 2


@pytest.mark.parametrize(
    "argv", [["analyze", "mu-plane"], ["dynamics", "compartmental"], ["verify-all"]]
)
def test_eta_with_zero_denominator_rejected(argv, capsys):
    assert run(argv + ["--eta", "1/0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "flags",
    [
        ["--dt", "0"],
        ["--dt", "-0.1"],
        ["--T", "0"],
        ["--T", "-1"],
        ["--T", "nan"],
        ["--dt", "inf"],
        ["--T", "1e300", "--dt", "1e-10"],
        ["--T", "0.0004"],
        ["--T", "1e9", "--dt", "1e-9"],  # 1e18 steps, over the step budget
    ],
)
def test_dynamics_rejects_bad_steps(flags, capsys):
    assert run(["dynamics", "compartmental"] + flags) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error:") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["canonical2d", "--T", "10000", "--dt", "10"],  # nan from step 116 on
        ["compartmental", "--T", "10000", "--dt", "10"],  # +-inf from step 85 on
        ["sphere-morse", "--T", "1000", "--dt", "100"],  # float overflow in step 0
    ],
)
def test_dynamics_aborts_a_flow_that_leaves_the_floats(argv, capsys):
    assert run(["dynamics"] + argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("integrator abort:") and captured.err.count("\n") == 1
    # the run stops at the first non-finite state, not after its last step
    first_nonfinite = {"canonical2d": "step 116 (t = 1160,", "compartmental": "step 85 (t = 850,"}
    assert first_nonfinite.get(argv[0], "") in captured.err


def test_tables_corrupted_golden(tmp_path, capsys):
    from poishom.verify import load_golden

    golden = load_golden()
    golden["table1"]["subgroup-sphere"]["mu_status"] = "multiplicative_unimodular"
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(golden), encoding="utf-8")
    assert run(["tables", "--golden", str(path)]) == 1
    assert "GOLDEN MISMATCH" in capsys.readouterr().err


def test_tables_unreadable_golden(tmp_path):
    assert run(["tables", "--golden", str(tmp_path / "missing.json")]) == 2


def test_dynamics_compartmental(tmp_path, capsys):
    out_csv = tmp_path / "trace.csv"
    assert run(
        ["dynamics", "compartmental", "--T", "1", "--dt", "0.001", "--out", str(out_csv)]
    ) == 0
    out = capsys.readouterr().out
    assert "volume preserved" in out
    header = out_csv.read_text().splitlines()[0]
    assert header == "t,x1,x2,x3,divint,constraint_drift"


def test_dynamics_toda_certificate(capsys):
    assert run(["dynamics", "toda-n3", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["verdict"] == "no preserved volume (certificate)"
    assert data["certificate"]["value"] == "-15"


def test_dynamics_sphere_morse(capsys):
    assert run(["dynamics", "sphere-morse", "--T", "1", "--dt", "0.001", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["verdict"] == "volume preserved"
    assert data["hessian"] == [["1/2", "0"], ["0", "1/2"]]
    assert abs(data["div_integral"]) < 1e-8


def test_dynamics_verdict_follows_the_exact_divergence(capsys):
    verdicts = {}
    for case in catalog.DYNAMICS_CASES:
        assert run(["dynamics", case, "--T", "0.01", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        if "certificate" in data:
            continue
        preserved = data["verdict"] == "volume preserved"
        assert preserved == data["divergence_zero"], case
        verdicts[case] = preserved
    assert verdicts == {"compartmental": True, "sphere-morse": True, "canonical2d": True}


def test_dynamics_unknown_case():
    with pytest.raises(SystemExit):
        run(["dynamics", "not-a-case"])


def test_catalog_list(capsys):
    assert run(["catalog", "list"]) == 0
    out = capsys.readouterr().out
    for name in ("subgroup-sphere", "toda-n3", "sphere-morse", "su2"):
        assert name in out


def test_verify_all_passes_and_counts(capsys):
    assert run(["verify-all"]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l.startswith("ok")]
    assert len(lines) >= 40
    assert "checks passed" in out


def test_verify_all_json(capsys):
    assert run(["verify-all", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data) >= 40
    assert all(item["ok"] for item in data)
    assert all("anchor" in item for item in data)
