import configparser
import json
import os
import time

import pytest

from ibcfock import cli


def write_config(tmp_path, name="run.ini", **sections):
    cp = configparser.ConfigParser()
    for sec, items in sections.items():
        cp[sec] = {k: str(v) for k, v in items.items()}
    path = tmp_path / name
    with open(path, "w") as fh:
        cp.write(fh)
    return str(path)


@pytest.fixture
def nelson_cfg(tmp_path):
    return write_config(
        tmp_path,
        model={"kind": "nelson", "g": 1.0, "m": 1},
        grid={"points_per_axis": 2, "k_max": 1.0, "n_max": 1},
        run={"lambdas": "0.5, 1.0", "tol": "1e-8"},
        output={"dir": str(tmp_path / "out"), "formats": "csv,json"},
    )


@pytest.fixture
def small_delta_cfg(tmp_path):
    return write_config(
        tmp_path,
        model={"kind": "delta2d", "g": 0.8},
        grid={"points_per_axis": 2, "k_max": 1.5, "n_max": 2},
        run={"tol": "1e-10"},
        output={"dir": str(tmp_path / "out")},
    )


class TestValidateCommand:
    def test_nelson_prints_derived_values(self, nelson_cfg, capsys):
        assert cli.main(["validate", "--config", nelson_cfg]) == 0
        out = capsys.readouterr().out
        assert "Renormalisable" in out
        assert "D=0" in out
        assert "eta_threshold=0.5" in out

    def test_froehlich(self, tmp_path, capsys):
        cfg = write_config(tmp_path, model={"kind": "froehlich"},
                           output={"dir": str(tmp_path / "out")})
        assert cli.main(["validate", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "FormPerturbation" in out and "D=-1" in out

    def test_invalid_power_law_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path,
                           model={"kind": "power_law", "d": 3, "alpha": 0.3, "beta": 1.0})
        assert cli.main(["validate", "--config", cfg]) == 1
        assert "config error" in capsys.readouterr().err


class TestConfigErrors:
    def test_missing_file(self, tmp_path, capsys):
        assert cli.main(["validate", "--config", str(tmp_path / "nope.ini")]) == 1

    def test_empty_lambda_list(self, tmp_path, capsys):
        cfg = write_config(tmp_path,
                           model={"kind": "delta2d"},
                           grid={"points_per_axis": 2, "k_max": 1.0, "n_max": 1},
                           run={"lambdas": ""})
        assert cli.main(["flow", "--config", cfg]) == 1
        assert "lambdas" in capsys.readouterr().err

    def test_lambda_beyond_kmax(self, tmp_path):
        cfg = write_config(tmp_path,
                           model={"kind": "delta2d"},
                           grid={"points_per_axis": 2, "k_max": 1.0, "n_max": 1},
                           run={"lambdas": "0.5, 2.0"})
        assert cli.main(["flow", "--config", cfg]) == 1

    def test_grid_model_dimension_conflict(self, tmp_path):
        cfg = write_config(tmp_path,
                           model={"kind": "delta2d"},
                           grid={"d": 3, "points_per_axis": 2, "k_max": 1.0})
        assert cli.main(["validate", "--config", cfg]) == 1

    def test_bad_mode(self, tmp_path):
        cfg = write_config(tmp_path,
                           model={"kind": "delta2d"},
                           grid={"points_per_axis": 2, "k_max": 1.0, "n_max": 1},
                           run={"mode": "sideways"})
        assert cli.main(["validate", "--config", cfg]) == 1


@pytest.mark.parametrize("section,key,value", [
    ("run", "tol", "abc"),
    ("run", "probe_width", "wide"),
    ("run", "lambdas", "1 x"),
    ("run", "etas", "0.3 y"),
    ("run", "ladder", "4 8 z"),
    ("run", "probes", "three"),
    ("run", "eigenvalues", "2.5"),
    ("run", "probe_seed", "seven"),
    ("run", "cauchy_tol", "small"),
    ("run", "growth_threshold", "five"),
    ("run", "points_per_unit", "one"),
    ("run", "thetas", "2 x"),
    ("run", "p_values", "1, y"),
    ("grid", "points_per_axis", "four"),
    ("grid", "k_max", "big"),
    ("grid", "n_max", "two"),
    ("model", "g", "strong"),
    ("model", "m", "1.5"),
])
def test_malformed_number_is_config_error(tmp_path, capsys, section, key, value):
    sections = {
        "model": {"kind": "delta2d", "g": 0.8, "m": 1},
        "grid": {"points_per_axis": 2, "k_max": 1.5, "n_max": 1},
        "run": {"tol": "1e-8"},
        "output": {"dir": str(tmp_path / "out")},
    }
    sections[section][key] = value
    cfg = write_config(tmp_path, **sections)
    assert cli.main(["validate", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key in err


class TestIdentityCheck:
    def test_small_config_passes(self, small_delta_cfg, capsys):
        assert cli.main(["identity-check", "--config", small_delta_cfg]) == 0
        out = capsys.readouterr().out
        assert "headline_identity" in out
        assert "passed" in out

    def test_artifacts_written(self, small_delta_cfg, tmp_path):
        out_dir = str(tmp_path / "idc")
        assert cli.main(["identity-check", "--config", small_delta_cfg,
                         "--out", out_dir]) == 0
        files = sorted(os.listdir(out_dir))
        assert files == ["identity_check.csv", "identity_check.json"]
        payload = json.loads(open(os.path.join(out_dir, "identity_check.json")).read())
        assert payload["defects"]["headline_identity"] < 1e-10
        assert "resolved_config" in payload and "config_ini" in payload

    def test_threads_flag_is_ignored(self, small_delta_cfg, tmp_path):
        for threads in ("1", "2"):
            assert cli.main(["identity-check", "--config", small_delta_cfg, "--threads",
                             threads, "--out", str(tmp_path / threads)]) == 0
        for ext in ("csv", "json"):
            one, two = (open(tmp_path / t / f"identity_check.{ext}").read()
                        for t in ("1", "2"))
            if ext == "json":
                one, two = json.loads(one), json.loads(two)
                one.pop("timestamp"), two.pop("timestamp")
                assert "threads" not in one["resolved_config"]
            assert one == two

    def test_shipped_flow_config_has_no_dense_ceiling(self, tmp_path):
        # dim 137,280, beyond ops.DENSE_CAP: the checks read the sparse matrices
        cfg = os.path.join(os.path.dirname(__file__), "..", "configs",
                           "delta2d_flow.ini")
        assert cli.main(["identity-check", "--config", cfg,
                         "--out", str(tmp_path)]) == 0
        assert sorted(os.listdir(tmp_path)) == ["identity_check.csv",
                                                "identity_check.json"]


class TestSelfEnergyCommand:
    def test_table(self, nelson_cfg, tmp_path, capsys):
        out_dir = str(tmp_path / "se")
        assert cli.main(["self-energy", "--config", nelson_cfg, "--out", out_dir]) == 0
        csv = open(os.path.join(out_dir, "self_energy.csv")).read()
        lines = csv.splitlines()
        assert lines[0].startswith("# config:")
        assert lines[1] == "lambda,e_lambda"
        assert len(lines) == 4


class TestFlowCommand:
    def test_runs_and_is_deterministic(self, tmp_path):
        cfg = write_config(
            tmp_path,
            model={"kind": "delta2d", "g": 0.6},
            grid={"points_per_axis": 2, "k_max": 1.5, "n_max": 1},
            run={"lambdas": "0.75, 1.5", "probes": 2, "tol": "1e-9"},
            output={"dir": str(tmp_path / "o1")},
        )
        assert cli.main(["flow", "--config", cfg]) == 0
        assert cli.main(["flow", "--config", cfg, "--out", str(tmp_path / "o2")]) == 0

        csv1 = open(tmp_path / "o1" / "flow.csv").read()
        csv2 = open(tmp_path / "o2" / "flow.csv").read()
        assert csv1 == csv2

        j1 = json.loads(open(tmp_path / "o1" / "flow.json").read())
        j2 = json.loads(open(tmp_path / "o2" / "flow.json").read())
        j1.pop("timestamp"), j2.pop("timestamp")
        assert j1 == j2


class TestScanCommand:
    def test_small_scan(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            model={"kind": "delta2d", "g": 1.0},
            run={"etas": "0.0", "ladder": "2, 4, 8"},
            output={"dir": str(tmp_path / "scan")},
        )
        assert cli.main(["scan", "--config", cfg]) == 0
        assert "eta=0" in capsys.readouterr().out
        payload = json.loads(open(tmp_path / "scan" / "scan.json").read())
        assert payload["verdicts"] == ["Cauchy"]

    def test_missing_etas(self, tmp_path):
        cfg = write_config(tmp_path, model={"kind": "delta2d"}, run={"ladder": "2, 4"})
        assert cli.main(["scan", "--config", cfg]) == 1


class TestBoundsCommand:
    def test_3d_sweep(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            model={"kind": "froehlich"},
            run={"thetas": "2", "p_values": "1, 10"},
            output={"dir": str(tmp_path / "b")},
        )
        assert cli.main(["bounds", "--config", cfg]) == 0
        rows = open(tmp_path / "b" / "bounds.csv").read().splitlines()
        assert rows[1] == "p,theta,integral,ratio"
        assert len(rows) == 4


class TestSpectrumCommand:
    def test_single_grid(self, small_delta_cfg, tmp_path, capsys):
        out_dir = str(tmp_path / "sp")
        cfg = configparser.ConfigParser()
        cfg.read(small_delta_cfg)
        cfg["run"]["eigenvalues"] = "2"
        with open(small_delta_cfg, "w") as fh:
            cfg.write(fh)
        assert cli.main(["spectrum", "--config", small_delta_cfg, "--out", out_dir]) == 0
        payload = json.loads(open(os.path.join(out_dir, "spectrum.json")).read())
        vals = payload["rows"][0]["eigenvalues"]
        assert len(vals) == 2 and vals[0] <= vals[1]


@pytest.mark.parametrize("value", ["0", "-1"])
def test_nonpositive_eigenvalue_count_is_config_error(small_delta_cfg, tmp_path, capsys,
                                                      value):
    cfg = configparser.ConfigParser()
    cfg.read(small_delta_cfg)
    cfg["run"]["eigenvalues"] = value
    with open(small_delta_cfg, "w") as fh:
        cfg.write(fh)
    out_dir = tmp_path / "sp"
    assert cli.main(["spectrum", "--config", small_delta_cfg, "--out", str(out_dir)]) == 1
    assert capsys.readouterr().err.startswith(f"config error: [run] eigenvalues = {value}")
    assert not out_dir.exists()


@pytest.mark.parametrize("command,key,value", [
    ("flow", "lambdas", "-1, 2"),
    ("flow", "lambdas", "nan"),
    ("flow", "probes", "0"),
    ("flow", "probes", "-2"),
    ("flow", "tol", "nan"),
    ("flow", "tol", "inf"),
    ("scan", "etas", "nan"),
    ("scan", "etas", "inf"),
    ("scan", "probe_width", "nan"),
    ("scan", "cauchy_tol", "nan"),
    ("scan", "cauchy_tol", "0"),
    ("scan", "growth_threshold", "nan"),
    ("scan", "growth_threshold", "-1"),
])
def test_bad_run_value_is_config_error(tmp_path, capsys, command, key, value):
    run = {"lambdas": "0, 2", "etas": "0.3", "ladder": "2, 4", key: value}
    cfg = write_config(tmp_path, model={"kind": "delta2d", "g": 0.8},
                       grid={"points_per_axis": 2, "k_max": 2.0, "n_max": 1},
                       run=run, output={"dir": str(tmp_path / "out")})
    assert cli.main([command, "--config", cfg]) == 1
    assert capsys.readouterr().err.startswith(f"config error: [run] {key} = {value}")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key,value", [
    ("ladder", "8, 4"),
    ("ladder", "4, 4"),
    ("ladder", "-4, 8"),
    ("ladder", "0, 8"),
    ("ladder", "4, inf"),
    ("ladder", ""),
    ("ladder", "0.2, 8"),
    ("points_per_unit", "-1"),
    ("points_per_unit", "0"),
])
def test_bad_scan_ladder_is_config_error(tmp_path, capsys, monkeypatch, key, value):
    # spectrum checks the same ladder; it has no points_per_unit, and an
    # empty ladder there means the single [grid]
    commands = ["scan"] + (["spectrum"] if key == "ladder" and value else [])
    run = {"etas": "0.3", "ladder": "2, 4", key: value}
    cfg = write_config(tmp_path, model={"kind": "nelson", "g": 1.0, "m": 1},
                       run=run, output={"dir": str(tmp_path / "out")})
    monkeypatch.setattr(cli.analysis, "regularity_scan",
                        lambda *args, **kwargs: pytest.fail("scan started"))
    monkeypatch.setattr(cli, "FockSpace", lambda *args: pytest.fail("space built"))
    for command in commands:
        assert cli.main([command, "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: [run]") and key in err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind,key,value", [
    ("nelson", "p_values", "nan, 1"),
    ("nelson", "p_values", "0, 1"),
    ("nelson", "p_values", "1, inf"),
    ("nelson", "thetas", "4"),
    ("nelson", "thetas", "1"),
    ("nelson", "thetas", "nan"),
    ("nelson", "thetas", ""),
    ("delta2d", "thetas", "1.5"),
    ("delta2d", "thetas", "3"),
    ("delta2d", "thetas", "nan"),
])
def test_bad_bound_value_is_config_error(tmp_path, capsys, monkeypatch, kind, key, value):
    cfg = write_config(tmp_path, model={"kind": kind, "g": 1.0}, run={key: value},
                       output={"dir": str(tmp_path / "out")})
    monkeypatch.setattr(cli.quad, "bound_sweep",
                        lambda *args: pytest.fail("sweep started"))
    assert cli.main(["bounds", "--config", cfg]) == 1
    assert capsys.readouterr().err.startswith(f"config error: [run] {key} = {value} ")
    assert not (tmp_path / "out").exists()


def _assert_oversized_refused(tmp_path, capsys, name, seconds):
    cfg = os.path.join(os.path.dirname(__file__), "..", "configs", name)
    start = time.perf_counter()
    assert cli.main(["spectrum", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert time.perf_counter() - start < seconds
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Fock space" in err
    assert not os.listdir(tmp_path)


def test_oversized_space_is_config_error(tmp_path, capsys):
    # the shipped ladder starts at 8^3 nodes with n_max 4: about 2.9e9 multisets
    _assert_oversized_refused(tmp_path, capsys, "froehlich.ini", 1.0)


def test_oversized_kernel_is_config_error(tmp_path, capsys):
    # the index tables of 8^3 nodes with n_max 2 fit, but the kernel a has
    # 1.34e8 triplets and H more: refused after the space, before any kernel
    _assert_oversized_refused(tmp_path, capsys, "nelson.ini", 2.0)


@pytest.mark.parametrize("command,kind,m", [
    ("flow", "froehlich", 1),     # a form perturbation has no flow
    ("scan", "nelson", 2),        # the scan has one source
])
def test_model_mismatch_is_config_error(tmp_path, capsys, monkeypatch, command, kind, m):
    cfg = write_config(
        tmp_path,
        model={"kind": kind, "g": 1.0, "m": m},
        grid={"points_per_axis": 2, "k_max": 1.0, "n_max": 1},
        run={"lambdas": "0.5, 1.0", "etas": "0.5", "ladder": "4, 8"},
        output={"dir": str(tmp_path / "out")},
    )
    monkeypatch.setattr(cli, "FockSpace", lambda *args: pytest.fail("space built"))
    assert cli.main([command, "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: [model]")
    assert not (tmp_path / "out").exists()


class TestConfigEmbedding:
    def test_embedded_ini_reproduces_run(self, tmp_path):
        cfg_path = write_config(
            tmp_path,
            model={"kind": "delta2d", "g": 0.8},
            grid={"points_per_axis": 2, "k_max": 1.5, "n_max": 1},
            run={"lambdas": "0.75, 1.5", "probes": 1, "tol": "1e-9"},
            output={"dir": str(tmp_path / "orig")},
        )
        assert cli.main(["flow", "--config", cfg_path]) == 0
        payload = json.loads(open(tmp_path / "orig" / "flow.json").read())
        replay_path = tmp_path / "replay.ini"
        replay_path.write_text(payload["config_ini"])
        assert cli.main(["flow", "--config", str(replay_path),
                         "--out", str(tmp_path / "replay")]) == 0
        a = open(tmp_path / "orig" / "flow.csv").read().splitlines()[1:]
        b = open(tmp_path / "replay" / "flow.csv").read().splitlines()[1:]
        assert a == b
