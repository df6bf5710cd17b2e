"""The re-verification manifest: how ``verify-all`` reports a failing or a
raising check, how often one run builds each catalog structure, and how
``tables`` reports a golden row that is missing."""

from __future__ import annotations

import json
from collections import Counter

import pytest

from poishom import bialgebra, catalog, verify
from poishom.cli import run


def _raise(*args, **kwargs):
    raise RuntimeError("injected")


@pytest.mark.parametrize(
    "target, replacement, line",
    [
        # a Hessian that is not the expected one: the check returns False
        ("hessian_at", lambda *a, **k: [[0]], f"FAIL {'morse-hessian:sphere':42s} [model:su2]"),
        # a raising check fails and names the exception
        (
            "schouten_square",
            _raise,
            f"FAIL {'schouten:quadratic-scaling':42s} [catalog:so3-structure]"
            "  (RuntimeError: injected)",
        ),
    ],
)
def test_verify_all_reports_one_failing_check(target, replacement, line, monkeypatch, capsys):
    monkeypatch.setattr(verify, target, replacement)
    assert run(["verify-all"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert [l for l in out if l.startswith("FAIL")] == [line]
    assert out[-1] == "132/133 checks passed."


def test_run_all_builds_each_structure_once(monkeypatch):
    doubles, models = [], Counter()
    double_algebra, build_model = bialgebra.double_algebra, catalog.build_model
    model_on = catalog.model_on
    monkeypatch.setattr(
        bialgebra, "double_algebra", lambda B: doubles.append(B) or double_algebra(B)
    )
    monkeypatch.setattr(
        catalog, "build_model", lambda name, eta=1: models.update([name]) or build_model(name, eta)
    )
    # a group model goes on the catalog bialgebra through model_on
    monkeypatch.setattr(
        catalog, "model_on", lambda name, B: models.update([name]) or model_on(name, B)
    )
    results = verify.run_all()
    assert len(results) == 133 and all(r.ok for r in results)
    # one double per catalog bialgebra, shared by its double-Jacobi and Lu checks
    assert len(doubles) == len(catalog.BIALGEBRAS) == 10
    assert set(models) == set(verify.CHECKED_MODELS) and max(models.values()) == 1


def test_tables_missing_golden_row(tmp_path, capsys):
    golden = verify.load_golden()
    del golden["table2"]["h2-elliptic"]
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(golden), encoding="utf-8")
    assert run(["tables", "--golden", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == "GOLDEN MISMATCH h2-elliptic: missing from golden data\n"
