import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import poishom
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
    assert capsys.readouterr().err == "input error: unknown catalog entry 'nonexistent-entry'\n"


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


SPEC_ALGEBRA = "[algebra]\nbasis: J1 J2 J3\n{b12}\nJ2,J3 -> 1 J1\nJ3,J1 -> 1 J2\n"
SPEC_REST = "[rmatrix]\n1 eta J1^J2\n[subalgebra]\n{sub}\n"
ZERO = "zero denominator"


@pytest.mark.parametrize(
    "text, line, message",
    [
        # a [subalgebra] coefficient
        (SPEC_ALGEBRA.format(b12="J1,J2 -> 1 J3") + SPEC_REST.format(sub="1/0 J3"), 9, ZERO),
        # an [algebra] bracket coefficient
        (SPEC_ALGEBRA.format(b12="J1,J2 -> 3/0 J3") + SPEC_REST.format(sub="J3"), 3, ZERO),
        # a [coordinate_model] base point: no such section exists, so its header is refused
        ("[coordinate_model]\nvariables: x y\nbase: 1/0 0\n", 1, "unknown section"),
    ],
    ids=["subalgebra", "algebra-bracket", "model-base"],
)
def test_spec_zero_denominator_is_an_input_error(tmp_path, capsys, text, line, message):
    path = tmp_path / "zero.spec"
    path.write_text(text, encoding="utf-8")
    assert run(["analyze", str(path), "--file"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"input error: line {line}:") and captured.err.count("\n") == 1
    assert message in captured.err


NON_LIE = (
    "[algebra]\nbasis: X1 X2 X3\nX1,X2 -> 1 X3\nX1,X3 -> 1 X1\n[delta]\n{delta}[subalgebra]\nX2\n"
)


@pytest.mark.parametrize(
    "text, message",
    [
        # so(3) with delta(J3) = J1^J2: the dual is Heisenberg, but delta is no cocycle
        (
            SPEC_ALGEBRA.format(b12="J1,J2 -> 1 J3")
            + "[delta]\nJ3 -> 1 J1^J2\n[subalgebra]\nJ3\n",
            "cocommutator fails the 1-cocycle condition at (J1, J2) = (0, 1)",
        ),
        # abelian g whose transposed dual bracket fails the Jacobi identity
        (
            "[algebra]\nbasis: X1 X2 X3\n"
            "[delta]\nX1 -> 1 X1^X2\nX2 -> 1 X2^X3\nX3 -> 1 X1^X3\n[subalgebra]\nX1\n",
            "dual constants fail the Jacobi identity at (X^1, X^2, X^3) = (0, 1, 2)",
        ),
        # g is no Lie algebra: the Jacobiator of (X1, X2, X3) is [X2, [X3, X1]] = X3
        (NON_LIE.format(delta=""), "algebra fails the Jacobi identity at (X1, X2, X3) = (0, 1, 2)"),
        # the same g with a delta that is no cocycle: g is reported first
        (
            NON_LIE.format(delta="X3 -> 1 X1^X2\n"),
            "algebra fails the Jacobi identity at (X1, X2, X3) = (0, 1, 2)",
        ),
    ],
    ids=["cocycle", "dual-jacobi", "g-jacobi", "g-jacobi-before-cocycle"],
)
def test_invalid_bialgebra_names_the_basis_elements(tmp_path, capsys, text, message):
    path = tmp_path / "delta.spec"
    path.write_text(text, encoding="utf-8")
    assert run(["analyze", str(path), "--file"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"input error: {message}\n"


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


@pytest.mark.parametrize(
    "content, message",
    [
        (b'{"table1": ', "Expecting value"),
        (b"", "Expecting value"),
        (b"\xff\xfe", "'utf-8' codec can't decode"),
    ],
    ids=["truncated", "empty", "not-utf8"],
)
def test_tables_golden_that_is_not_json_is_an_input_error(tmp_path, capsys, content, message):
    path = tmp_path / "golden.json"
    path.write_bytes(content)
    assert run(["tables", "--golden", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith(f"input error: {path}: {message}")


@pytest.mark.parametrize(
    "golden",
    [[], {"table1": {"subgroup-sphere": 3}}, {"table2": []}, {"table1": {}, "table2": "rows"}],
    ids=["list", "row-not-object", "table-not-object", "table-is-text"],
)
def test_tables_badly_shaped_golden_is_an_input_error(tmp_path, capsys, golden):
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(golden), encoding="utf-8")
    assert run(["tables", "--golden", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"input error: {path}: table1 and table2 must be objects of row objects\n"
    )


def test_dynamics_compartmental(tmp_path, capsys):
    out_csv = tmp_path / "trace.csv"
    assert run(
        ["dynamics", "compartmental", "--T", "1", "--dt", "0.001", "--out", str(out_csv)]
    ) == 0
    out = capsys.readouterr().out
    assert "volume preserved" in out
    header = out_csv.read_text().splitlines()[0]
    assert header == "t,x1,x2,x3,divint,constraint_drift"


def test_dynamics_out_streams_the_trace_csv(tmp_path):
    # the streamed file is the trace's csv() byte for byte
    from poishom import catalog, coord

    out_csv = tmp_path / "trace.csv"
    assert run(["dynamics", "sphere-morse", "--T", "0.5", "--out", str(out_csv)]) == 0
    b = catalog.build_model("su2")
    trace = coord.rk4_flow(b.model, b.hamiltonian, b.flow_start, T=0.5, dt=1e-3)
    assert out_csv.read_bytes() == trace.csv().encode()


def test_dynamics_unwritable_out_exits_before_integrating(tmp_path, capsys, monkeypatch):
    from poishom import cli

    steps, flow = [], cli.rk4_flow
    monkeypatch.setattr(cli, "rk4_flow", lambda *a, **k: steps.append(a) or flow(*a, **k))
    bad = tmp_path / "missing" / "x.csv"
    assert run(["dynamics", "canonical2d", "--out", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not steps
    (line,) = captured.err.splitlines()
    assert line.startswith("input error:") and str(bad) in line


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a /dev/full device")
@pytest.mark.parametrize("T", ["0.01", "2"], ids=["fails-on-close", "fails-on-write"])
def test_dynamics_out_write_failure_is_an_input_error(capsys, T):
    # a short trace fits the file buffer and fails when it is flushed on close
    assert run(["dynamics", "canonical2d", "--T", T, "--out", "/dev/full"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "input error: cannot write /dev/full: [Errno 28] No space left on device\n"
    )


def test_dynamics_out_without_a_flow_says_so(tmp_path, capsys):
    out_csv = tmp_path / "trace.csv"
    assert run(["dynamics", "toda-n3", "--out", str(out_csv)]) == 0
    captured = capsys.readouterr()
    assert "no preserved volume (certificate)" in captured.out
    assert captured.err == "note: toda-n3 integrates no flow; no trace written\n"
    assert not out_csv.exists()


@pytest.mark.parametrize("eta", ["7", "-5/2"])
def test_dynamics_says_when_eta_is_not_used(capsys, eta):
    # toda-n3 is fixed at eta 1 and the quotient models carry no eta: each
    # prints the stdout of the eta 1 run and one note; su2 is built at eta
    notes = {
        "toda-n3": f"note: toda-n3 is fixed at eta 1; --eta {eta} is not used\n",
        "compartmental": f"note: compartmental carries no eta; --eta {eta} is not used\n",
        "canonical2d": f"note: canonical2d carries no eta; --eta {eta} is not used\n",
        "sphere-morse": "",
    }
    assert set(notes) == set(catalog.DYNAMICS_CASES)
    for case, note in notes.items():
        assert run(["dynamics", case, "--T", "0.01"]) == 0
        default = capsys.readouterr()
        assert default.err == ""
        assert run(["dynamics", case, "--T", "0.01", "--eta", eta]) == 0
        captured = capsys.readouterr()
        assert captured.err == note
        if note:
            assert captured.out == default.out


def test_dynamics_toda_certificate(capsys):
    assert run(["dynamics", "toda-n3", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["verdict"] == "no preserved volume (certificate)"
    assert data["certificate"]["value"] == "-15"


def test_dynamics_toda_zero_certificate_is_a_verification_failure(monkeypatch, capsys):
    """At a = 1 the horizontal pairing is exactly 0: no certificate, exit 1."""
    singular_point = catalog.toda_singular_point
    monkeypatch.setattr(catalog, "toda_singular_point", lambda a: singular_point(1))
    assert run(["dynamics", "toda-n3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "toda-n3: horizontal pairing 0 at a = 2, no certificate\n"


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


@pytest.mark.parametrize(
    "argv",
    [
        ["catalog", "list", "--eta", "0"],
        ["catalog", "list", "--eta", "abc"],
        ["catalog", "list", "--seed", "3"],
        ["analyze", "toda-n3", "--seed", "3"],
        ["tables", "--seed", "3"],
        ["dynamics", "canonical2d", "--seed", "3"],
    ],
)
def test_a_flag_the_verb_does_not_read_is_refused(argv, capsys):
    with pytest.raises(SystemExit) as done:
        run(argv)
    assert done.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_catalog_list_json(capsys):
    assert run(["catalog", "list", "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "entries": list(catalog.HOMSPACE_NAMES),
        "models": list(catalog.MODEL_NAMES),
        "dynamics_cases": sorted(catalog.DYNAMICS_CASES),
    }


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "toda-n3"],
        ["tables"],
        ["dynamics", "compartmental", "--T", "0.01"],
        ["dynamics", "toda-n3"],
        ["verify-all"],
        ["catalog", "list"],
    ],
)
def test_every_verb_prints_one_json_document(argv, capsys):
    assert run([*argv, "--json"]) == 0
    json.loads(capsys.readouterr().out)


def test_python_dash_m_poishom(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["poishom", "catalog", "list"])
    with pytest.raises(SystemExit) as done:
        runpy.run_module("poishom", run_name="__main__", alter_sys=True)
    assert done.value.code == 0
    assert "sphere-morse" in capsys.readouterr().out


def test_stdout_closed_after_one_line_exits_141_quietly():
    """A reader that stops after one line, as ``| head -1`` does, ends the run
    with exit 141 and nothing on stderr.  The trace (about 600 kB) outgrows
    the pipe, so the command is still writing when the pipe closes."""
    env = dict(os.environ, PYTHONPATH=str(Path(poishom.__file__).resolve().parents[1]))
    argv = [sys.executable, "-m", "poishom", "dynamics", "compartmental", "--out", "/dev/stdout"]
    with subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
    ) as proc:
        assert proc.stdout.readline().startswith(b"t,")
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=120) == 141
    assert err == ""


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
