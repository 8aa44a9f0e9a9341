"""End-to-end checks of the command line front end.

Everything runs main() in process; exit codes and written files are the
interface under test.
"""

import json

import pytest

from treeplane.cli import main

LOOSE = ["--epsilon", "0.025", "--seed", "101"]


def gen(tmp_path, name="t.json", extra=LOOSE):
    path = tmp_path / name
    rc = main(["gen-tree", "--N", "2", "--depth", "1", *extra,
               "--out", str(path)])
    assert rc == 0
    return path


def test_gen_tree_deterministic_bytes(tmp_path):
    a = gen(tmp_path, "a.json")
    b = gen(tmp_path, "b.json")
    assert a.read_bytes() == b.read_bytes()
    doc = json.loads(a.read_text())
    assert set(doc) == {"N", "epsilon", "nodes"}


def test_gen_tree_rejects_bad_parameters(tmp_path):
    out = str(tmp_path / "x.json")
    # epsilon above k0/N
    assert main(["gen-tree", "--N", "2", "--depth", "3", "--epsilon", "0.4",
                 "--seed", "0", "--out", out]) == 2
    assert main(["gen-tree", "--N", "1", "--depth", "1", "--epsilon", "0.01",
                 "--seed", "0", "--out", out]) == 2
    assert main(["gen-tree", "--N", "2", "--depth", "-1", "--epsilon", "0.01",
                 "--seed", "0", "--out", out]) == 2
    # leaf weights of at most 0.025^8 (1.5e-13) fall below the 2^-40 floor
    assert main(["gen-tree", "--N", "2", "--depth", "8", "--epsilon", "0.025",
                 "--seed", "0", "--out", out]) == 2
    assert not (tmp_path / "x.json").exists()


def test_gen_tree_k0_flag_widens_the_gate(tmp_path):
    out = str(tmp_path / "w.json")
    args = ["gen-tree", "--N", "2", "--depth", "1", "--epsilon", "0.04",
            "--seed", "5", "--out", out]
    assert main(args) == 2
    assert main(args + ["--k0", "0.1"]) == 0


def test_verify_passes_on_generated_tree(tmp_path):
    tree = gen(tmp_path)
    out = tmp_path / "verify.json"
    assert main(["verify", "--tree", str(tree), "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["ok"] is True
    assert rep["params"]["kappa"] == 10.25
    assert rep["constants"]["max_neighbors"] <= 12
    assert {"partition", "cluster_balls", "restriction"} <= set(rep["checks"])


def test_verify_fails_when_balls_collide(tmp_path):
    tree = tmp_path / "loose3.json"
    assert main(["gen-tree", "--N", "3", "--depth", "1", "--epsilon", "0.016",
                 "--seed", "103", "--out", str(tree)]) == 0
    out = tmp_path / "v.json"
    rc = main(["verify", "--tree", str(tree), "--kappa", "20",
               "--out", str(out)])
    assert rc == 1
    rep = json.loads(out.read_text())
    assert rep["ok"] is False
    assert rep["checks"]["cluster_balls"]["violations"]


def test_corrupted_tree_file_is_invalid_input(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"N": 2, "nodes": "zap"}')
    assert main(["verify", "--tree", str(bad)]) == 2
    bad.write_text("not json at all")
    assert main(["verify", "--tree", str(bad)]) == 2
    assert main(["verify", "--tree", str(tmp_path / "missing.json")]) == 2


def test_experiment_csv_deterministic(tmp_path):
    tree = gen(tmp_path)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["experiment", "--tree", str(tree), "--trials", "2",
            "--seed", "7", "--p", "1.5"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert lines[2].split(",") == [
        "seed", "trial", "N", "depth", "epsilon", "p", "backend",
        "rho_plane", "rho_tree", "quad_error", "quad_rel"]
    assert len(lines) == 5


def test_experiment_flags_tolerance_breach(tmp_path):
    tree = gen(tmp_path)
    out = str(tmp_path / "low.csv")
    with pytest.warns(UserWarning):
        rc = main(["experiment", "--tree", str(tree), "--trials", "1",
                   "--seed", "7", "--quad-order", "4", "--out", out])
    assert rc == 3
    # the CSV is still written so the breach can be inspected
    assert (tmp_path / "low.csv").exists()


def test_config_file_precedence(tmp_path):
    tree = gen(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"quad_order": 4}')
    base = ["--config", str(cfg), "experiment", "--tree", str(tree),
            "--trials", "1", "--seed", "7", "--out", str(tmp_path / "e.csv")]
    with pytest.warns(UserWarning):
        assert main(base) == 3  # config lowered the order
    assert main(base + ["--quad-order", "12"]) == 0  # flag wins
    cfg.write_text('{"nonsense": true}')
    assert main(base) == 2
    cfg.write_text('{"workers": 2}')  # the worker pool is gone
    assert main(base) == 2
    cfg.write_text('{"quad_order": "twelve"}')
    assert main(base) == 2


def test_extend_tree_report(tmp_path):
    tree = gen(tmp_path)
    data = tmp_path / "phi.json"
    data.write_text('{"0": 1.25, "1": -0.75}')
    out = tmp_path / "ext.json"
    assert main(["extend-tree", "--tree", str(tree), "--data", str(data),
                 "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["values"]["0"] == 1.25 and rep["values"]["1"] == -0.75
    assert set(rep["values"]) == {"", "0", "1"}
    assert rep["params"]["backend"] == "optimal"


def test_extend_plane_writes_samples(tmp_path):
    tree = gen(tmp_path)
    out = tmp_path / "F.csv"
    assert main(["extend-plane", "--tree", str(tree), "--seed", "3",
                 "--samples", "11", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x1,x2,value,d1,d2"
    assert len(lines) == 1 + 11 * 11


def test_build_summary_accounts_for_every_square(tmp_path):
    tree = gen(tmp_path)
    out = tmp_path / "build.json"
    assert main(["build", "--tree", str(tree), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["params"] == {"kappa": 10.25}
    dec = doc["decomposition"]
    assert sum(dec["type_counts"].values()) == dec["squares"]
    assert doc["clusters"]["report"]["violations"] == []


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_bench_reports_timings(tmp_path):
    tree = gen(tmp_path)
    out = tmp_path / "bench.json"
    assert main(["bench", "--tree", str(tree), "--quad-order", "6",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert set(doc["seconds"]) == {"embed", "whitney", "clusters", "extend",
                                   "seminorm"}
    assert doc["seminorm"] > 0
