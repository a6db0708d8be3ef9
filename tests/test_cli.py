import json
import os
import subprocess
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest

from lipcert import bnb, cli, estimators, network
from lipcert.interval import Hyperbox
from lipcert.mip import build_lipmip_model


def test_solve_prints_the_solve_as_json(tmp_path, capsys):
    net = network.random_he([3, 6, 6, 1], seed=8)
    path = tmp_path / "net.json"
    network.save(net, path)
    assert cli.main(["solve", str(path), "--center", "0.5", "--radius", "0.5",
                     "--norm", "l1"]) == 0
    out = json.loads(capsys.readouterr().out)
    box = Hyperbox.from_center_radius(np.full(3, 0.5), 0.5)
    ref = bnb.solve_mip(build_lipmip_model(net, box, alpha="l1"))
    assert out["status"] == ref.status == bnb.EXACT
    assert out["upper_bound"] == ref.upper_bound
    assert out["incumbent"] == ref.incumbent_value
    assert out["gap"] == ref.gap
    assert out["nodes"] == ref.nodes_explored
    assert out["lp_solves"] == ref.lp_solves >= ref.nodes_explored
    assert out["lp_pivots"] == ref.lp_pivots > 0
    assert out["strong_branch_lps"] == ref.strong_branch_lps > 0
    assert out["strong_branch_pivots"] == ref.strong_branch_pivots > 0
    assert out["strong_branch_fixes"] == ref.strong_branch_fixes
    assert out["wall_time_s"] > 0
    assert out["root_tightening"] == [asdict(r) for r in ref.root_tightening]
    assert out["encoding"] == ref.encoding == "backward"
    renamed = {"incumbent_value": "incumbent", "nodes_explored": "nodes",
               "wall_time": "wall_time_s"}
    assert set(out) == {renamed.get(f.name, f.name) for f in fields(bnb.MIPResult)
                        if f.name != "incumbent_point"}


def test_solve_rejects_bad_arguments(tmp_path, capsys):
    path = tmp_path / "net.json"
    network.save(network.random_he([3, 4, 1], seed=0), path)
    for argv in (
        ["solve", str(tmp_path / "missing.json"), "--center", "0", "--radius", "1"],
        ["solve", str(path), "--center", "0", "0", "--radius", "1"],
        ["solve", str(path), "--center", "0", "--radius", "-1"],
        ["solve", str(path), "--center", "0", "--radius", "1", "--gap", "-0.5"],
        ["solve", str(path), "--center", "0", "--radius", "1", "--gap", "nan"],
        ["solve", str(path), "--center", "0", "--radius", "1", "--timeout", "nan"],
        ["solve", str(path), "--center", "0", "--radius", "1", "--timeout", "-1"],
    ):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "error" in capsys.readouterr().err


def test_estimate_prints_one_csv_row_per_method(tmp_path, capsys):
    path = tmp_path / "net.json"
    network.save(network.random_he([3, 6, 6, 1], seed=8), path)
    argv = ["estimate", str(path), "--center", "0.5", "--radius", "0.5", "--norm", "l1"]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == estimators.CSV_HEADER
    rows = [line.split(",") for line in lines[1:]]
    assert [row[0] for row in rows] == list(estimators.METHODS)
    value = {row[0]: float(row[1]) for row in rows}
    assert value["randomlb"] <= value["liplp"] <= value["fastlip"]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == out


def test_estimate_runs_the_chosen_methods(tmp_path, capsys):
    path = tmp_path / "net.json"
    network.save(network.random_he([3, 6, 6, 1], seed=8), path)
    assert cli.main(["estimate", str(path), "--center", "0", "--radius", "1",
                     "--methods", "fastlip", "randomlb"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["fastlip", "randomlb"]


def test_estimate_rejects_bad_arguments(tmp_path, capsys):
    path = tmp_path / "net.json"
    network.save(network.random_he([3, 4, 1], seed=0), path)
    for argv in (
        ["estimate", str(tmp_path / "missing.json"), "--center", "0", "--radius", "1"],
        ["estimate", str(path), "--center", "0", "0", "--radius", "1"],
        ["estimate", str(path), "--center", "0", "--radius", "-1"],
        ["estimate", str(path), "--center", "0", "--radius", "1", "--gap", "nan"],
        ["estimate", str(path), "--center", "0", "--radius", "1", "--timeout", "-1"],
        ["estimate", str(path), "--center", "0", "--radius", "1", "--methods", "clever"],
    ):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "error" in capsys.readouterr().err


def test_solve_rejects_boolean_arch_without_traceback(tmp_path):
    # ``true`` in ``arch`` is a usage error, not a crash inside numpy
    doc = network.to_json_dict(network.random_he([3, 4, 1], seed=0))
    doc["arch"][0] = True
    path = tmp_path / "net.json"
    path.write_text(json.dumps(doc))
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    run = subprocess.run(
        [sys.executable, "-m", "lipcert.cli", "solve", str(path), "--center", "0", "--radius", "1"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert run.returncode == 2
    assert "Traceback" not in run.stderr
    assert f"cannot read {path}: arch" in run.stderr


@pytest.mark.parametrize("defect", ["non_utf8", "deep", "width_1e12", "width_2e70"])
def test_solve_rejects_malformed_file_without_traceback(tmp_path, defect):
    doc = network.to_json_dict(network.random_he([1, 1, 1], seed=0))
    if defect == "width_1e12":
        doc["arch"][0] = 10**12
    elif defect == "width_2e70":
        doc["arch"][0] = 2**70
    data = json.dumps(doc).encode()
    path = tmp_path / "net.json"
    if defect == "non_utf8":
        data += b"\xff"
    elif defect == "deep":
        data = b"[" * 100_000 + b"]" * 100_000
    path.write_bytes(data)
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    run = subprocess.run(
        [sys.executable, "-m", "lipcert.cli", "solve", str(path), "--center", "0", "--radius", "1"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert run.returncode == 2
    assert "Traceback" not in run.stderr
    assert f"cannot read {path}: " in run.stderr


def test_runs_on_numpy_alone(tmp_path):
    # numpy is the only runtime dependency: with scipy and hypothesis made
    # unimportable, every lipcert module imports and ``solve`` runs
    path = tmp_path / "net.json"
    network.save(network.random_he([3, 6, 6, 1], seed=8), path)
    script = f"""
import importlib, pkgutil, sys
sys.modules["scipy"] = None
sys.modules["hypothesis"] = None
import lipcert
for info in pkgutil.iter_modules(lipcert.__path__):
    importlib.import_module("lipcert." + info.name)
from lipcert import cli
sys.exit(cli.main(["solve", {str(path)!r}, "--center", "0.5", "--radius", "0.5"]))
"""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout)["status"] == bnb.EXACT


def test_solve_stopped_at_once_prints_an_open_sandwich(tmp_path, capsys):
    path = tmp_path / "net.json"
    network.save(network.random_he([3, 8, 8, 1], seed=1), path)
    assert cli.main(["solve", str(path), "--center", "0.5", "--radius", "0.5",
                     "--timeout", "0"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == bnb.TIMEOUT
    assert out["incumbent"] <= out["upper_bound"] and out["gap"] > 0
    assert all(r["lps"] == 0 for r in out["root_tightening"])
