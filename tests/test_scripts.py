"""Smoke runs of the experiment scripts on small instances."""

import csv
import importlib.util
import pathlib
import sys

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, argv, monkeypatch, code=0):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", [f"{name}.py", *argv])
    assert module.main() == code


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(line for line in fh if not line.startswith("#")))


def test_run_experiments(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run_script("run_experiments",
               ["--instance", "n2d1-tight", "--trials", "1", "--out-dir", "tmp"],
               monkeypatch)
    rows = read_csv(tmp_path / "tmp" / "n2d1-tight-p1.5.csv")
    assert rows[0] == ["seed", "trial", "N", "depth", "epsilon", "p",
                       "backend", "rho_plane", "rho_tree", "quad_error",
                       "quad_rel"]
    assert len(rows) == 2
    assert rows[1][:2] == ["2026", "0"]


def test_sweep_epsilon(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run_script("sweep_epsilon", ["--N", "2", "--p", "1.5", "--trials", "1",
                                 "--out", "tmp"], monkeypatch)
    rows = read_csv(tmp_path / "tmp")
    assert rows[0] == ["instance", "N", "epsilon", "p", "trials", "seed",
                       "rho_plane_median", "rho_plane_max", "rho_tree_max"]
    # one row per depth-1 epsilon at N = 2
    assert [r[0] for r in rows[1:]] == ["n2d1-tight", "n2d1-mid", "n2d1-loose"]
    assert all(float(r[6]) > 0.0 for r in rows[1:])


def test_sweep_epsilon_refuses_unknown_n(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    run_script("sweep_epsilon", ["--N", "5", "--p", "1.5", "--trials", "1",
                                 "--out", "tmp"], monkeypatch, code=2)
    assert "available N: [2, 3]" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
