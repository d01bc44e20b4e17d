import csv
import json
import os
import re
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from lngd.cli import main_cli
from lngd.config import SCHEMA, ConfigError, config_to_dict, parse_config
from lngd.experiments import axis_aligned_spec, run_dynamics
from lngd.io import (
    CoefficientDump,
    EmitError,
    RunArtifactFiles,
    emit_outputs,
    fmt_float,
    refuse_overwrite,
    write_json,
    write_trace_csv,
)
from lngd.training import NOISE_LAWS, TRACE_COLUMNS, TRACE_DTYPE, LabelNoiseSpec

from helpers import paired_run, sha256_of

MINIMAL = {"d": 50, "n": 10, "mu_scale": 2.0, "sigma_p": 0.5, "p": 0.1,
           "eta": 0.5, "steps": 20, "seed": 3}


class TestParseConfig:
    def test_minimal_config_gets_documented_defaults(self):
        config = parse_config(data=MINIMAL)
        assert config.m == 20
        assert config.q == 2
        assert config.sigma_0 == 0.01
        assert config.log_stride == 10
        assert config.n_test == 2000
        assert config.noise == LabelNoiseSpec.flip(0.1)
        for key in ("m", "q", "sigma_0", "log_stride", "n_test"):
            assert key in config.defaults_applied

    def test_unknown_key_is_an_error(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            parse_config(data={**MINIMAL, "learning_rate": 0.1})

    def test_out_of_range_names_the_range(self):
        with pytest.raises(ConfigError, match=r"\[0, 1\]"):
            parse_config(data={**MINIMAL, "p": 1.5})

    def test_run_parameters_validated(self):
        # The run parameters every training command reads: eta > 0, n_test >= 1. The
        # commands that log every log_stride steps refuse one above steps in plan.
        for bad, match in (({"eta": 0.0}, "'eta'"), ({"n_test": 0}, "'n_test'")):
            with pytest.raises(ConfigError, match=match):
                parse_config(data={**MINIMAL, **bad})

    def test_missing_required_keys(self):
        with pytest.raises(ConfigError, match="missing required"):
            parse_config(data={"d": 50})

    def test_noise_object_parsing(self):
        config = parse_config(data={**MINIMAL, "noise": {"kind": "uniform", "lo": -1, "hi": 2}})
        assert config.noise == LabelNoiseSpec.uniform(-1.0, 2.0)

    def test_noise_flip_conflict_rejected(self):
        with pytest.raises(ConfigError, match="conflicts"):
            parse_config(data={**MINIMAL, "noise": {"kind": "flip", "p": 0.3}})

    @pytest.mark.parametrize("mean", [None, "0.5", True], ids=["null", "string", "boolean"])
    def test_noise_fields_must_be_numbers(self, mean, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**MINIMAL, "noise": {"kind": "gaussian", "mean": mean,
                                                         "std": 1.0}}))
        assert main_cli(["check", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: noise: noise key 'mean'")

    @pytest.mark.parametrize("key", ["n", "seed", "m", "steps", "log_stride", "n_test",
                                     "coeff_stride", "workers", "grid.n_values",
                                     "grid.seeds_per_cell", "grid.steps"])
    def test_booleans_are_not_integers(self, key, tmp_path, capsys):
        # JSON true is a Python int equal to 1: refused, exit 1, before anything is written.
        data = {**MINIMAL, "log_stride": 1}
        if key.startswith("grid."):
            grid = data["grid"] = {"snr_values": [0.1], "n_values": [10], "steps": 5}
            grid[key[5:]] = [True] if key == "grid.n_values" else True
        else:
            data[key] = True
        path, out = tmp_path / "config.json", tmp_path / "out"
        path.write_text(json.dumps(data))
        command = "heatmap" if key.startswith("grid.") else "dynamics"
        assert main_cli([command, "--config", str(path), "--out", str(out)]) == 1
        assert (key if key.startswith("grid.") else f"'{key}' = True") in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, value, named", [
        ("mu_scale", "Infinity", "'mu_scale' = inf"),
        ("sigma_0", "Infinity", "'sigma_0' = inf"),
        ("eta", "Infinity", "'eta' = inf"),
        ("noise", '{"kind": "gaussian", "mean": NaN, "std": 1.0}', "noise: gaussian mean"),
        ("noise", '{"kind": "uniform", "lo": 0, "hi": Infinity}', "noise: uniform hi"),
        ("grid.snr_values", "[Infinity]", "'grid.snr_values[0]' = inf"),
        ("grid.eta", "Infinity", "'grid.eta' = inf"),
        ("m", "null", "'m' = None"),
    ], ids=["mu_scale", "sigma_0", "eta", "gaussian-mean", "uniform-hi", "grid.snr_values",
            "grid.eta", "null"])
    def test_non_finite_numbers_are_refused(self, key, value, named, tmp_path, capsys):
        # Python's json reads NaN and Infinity; a null is no number either.
        data = {**MINIMAL, key: "@"}
        if key.startswith("grid."):
            data = {**MINIMAL, "grid": {"snr_values": [0.1], "n_values": [10], "steps": 5,
                                        key[5:]: "@"}}
        path, out = tmp_path / "config.json", tmp_path / "out"
        path.write_text(json.dumps(data).replace('"@"', value))
        command = "heatmap" if key.startswith("grid.") else "dynamics"
        assert main_cli([command, "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err
        assert not out.exists()

    def test_noise_unknown_kind(self):
        for kind in ("beta", []):
            with pytest.raises(ConfigError, match="unknown noise kind"):
                parse_config(data={**MINIMAL, "noise": {"kind": kind}})

    def test_grid_validation(self):
        with pytest.raises(ConfigError, match="grid"):
            parse_config(data={**MINIMAL, "grid": {"snr_values": []}})
        config = parse_config(data={**MINIMAL, "grid": {"snr_values": [0.1], "n_values": [10]}})
        assert config.grid["seeds_per_cell"] == 3

    @pytest.mark.parametrize("noise", [{"kind": "none"}, {"kind": "flip", "p": 0.1},
                                       {"kind": "gaussian", "mean": 1, "std": 1},
                                       {"kind": "uniform", "lo": -1, "hi": 2}],
                             ids=lambda noise: noise["kind"])
    def test_round_trip(self, noise):
        config = parse_config(data={**MINIMAL, "noise": noise, "noise_list": [noise],
                                    "q_list": [3, 4]})
        assert config.noise == LabelNoiseSpec.from_dict(noise)
        emitted = config_to_dict(config)
        assert emitted["noise"] == emitted["noise_list"][0] == noise
        back = parse_config(data=emitted)
        assert back == config
        assert back.defaults_applied == {}  # emitted config is fully explicit

    def test_overrides(self):
        config = parse_config(data=MINIMAL, overrides={"seed": 42})
        assert config.seed == 42

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            parse_config(tmp_path / "nope.json")

    def test_reference_config_file_parses_to_reference_values(self):
        config = parse_config("configs/section5.json")
        assert (config.d, config.n, config.m) == (2000, 200, 20)
        assert (config.eta, config.steps) == (0.5, 2000)
        assert config.mu_scale == 2.0
        assert config.sigma_p == 0.5
        assert config.noise == LabelNoiseSpec.flip(0.1)
        assert config.n_test == 2000


def test_readme_configuration_names_every_key_and_noise_law():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    assert [name for name in SCHEMA if f"`{name}`" not in section] == []
    # One bullet per noise kind, naming each of its parameters.
    bullets = {kind[1]: item.split("\n\n")[0] for item in section.split("\n- ")[1:]
               if (kind := re.match(r"`(\w+)`:", item))}
    assert sorted(bullets) == sorted(NOISE_LAWS)
    for kind, law in NOISE_LAWS.items():
        assert [name for name in law.params if f"`{name}`" not in bullets[kind]] == [], kind


def tiny_run(seed=3):
    spec = axis_aligned_spec(1.5, 0.5, 40)
    return run_dynamics(paired_run(spec, n=8, m=3, q=2, sigma_0=0.1, eta=0.1, steps=20,
                                   log_stride=10, n_test=20, noise=LabelNoiseSpec.flip(0.2),
                                   seed=seed))


def artifacts_for(result, config):
    return RunArtifactFiles(config=config, command="dynamics", files={
        "trace_standard.csv": partial(write_trace_csv, result.standard.trace),
        "trace_label_noise.csv": partial(write_trace_csv, result.label_noise.trace),
        "reports.json": partial(write_json, {"dynamics": result.reports})})


class TestEmitOutputs:
    def test_float_formatting_is_lossless(self):
        x = 0.1 + 0.2
        assert float(fmt_float(x)) == x

    def test_trace_csv_columns_and_newlines(self, tmp_path):
        result = tiny_run()
        path = tmp_path / "trace.csv"
        write_trace_csv(result.standard.trace, path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        header = raw.decode().splitlines()[0]
        assert header.split(",") == TRACE_COLUMNS

    def test_emit_writes_manifest_with_digests(self, tmp_path):
        config = parse_config(data=MINIMAL)
        result = tiny_run()
        inventory = emit_outputs(artifacts_for(result, config), tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["files"] == inventory
        for name, digest in inventory.items():
            assert sha256_of(tmp_path / name) == digest
        assert manifest["master_seed"] == config.seed
        assert set(manifest["streams"]) == {"data", "init", "label_noise", "test"}

    def test_manifest_records_the_numeric_environment_outside_files(self, tmp_path,
                                                                    monkeypatch):
        # The block names what the bytes were made under; it is no file of the run, so
        # another BLAS thread count or core count changes it and no digest. The BLAS library
        # is the one numpy reports it was built with.
        config = parse_config(data=MINIMAL)
        result = tiny_run()
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        runs = []
        for threads, cores in (("1", 1), ("3", 4)):
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", threads)
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
            out = tmp_path / threads
            inventory = emit_outputs(artifacts_for(result, config), out)
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["environment"] == {"numpy_version": np.__version__,
                                               "blas_name": blas["name"],
                                               "blas_version": blas["version"],
                                               "blas_threads": int(threads),
                                               "usable_cores": cores}
            assert all(isinstance(manifest["environment"][key], str)
                       for key in ("blas_name", "blas_version"))
            assert manifest["files"] == inventory and "environment" not in inventory
            runs.append({name: sha256_of(out / name) for name in inventory})
        assert runs[0] and runs[0] == runs[1]

    def test_refuses_overwrite_without_force(self, tmp_path):
        config = parse_config(data=MINIMAL)
        result = tiny_run()
        emit_outputs(artifacts_for(result, config), tmp_path)
        with pytest.raises(EmitError, match="force"):
            emit_outputs(artifacts_for(result, config), tmp_path)
        emit_outputs(artifacts_for(result, config), tmp_path, force=True)

    def test_forced_overwrite_removes_the_plain_names_listed(self, tmp_path):
        out = tmp_path / "run"
        (out / "sub").mkdir(parents=True)
        (out / "d").mkdir()
        names = ["old.csv", "kept.csv", "sub/x.csv", "../outside.csv"]
        for name in names:
            (out / name).write_text("x")
        (out / "manifest.json").write_text(json.dumps({"files": dict.fromkeys(
            names + ["d", "..", "missing.csv", "manifest.json"], "0")}))
        refuse_overwrite(out, force=True, keep={"kept.csv"})
        assert sorted(p.name for p in out.iterdir()) == ["d", "kept.csv", "sub"]
        assert (out / "sub" / "x.csv").exists() and (tmp_path / "outside.csv").exists()
        # An unreadable manifest is only removed.
        (out / "manifest.json").write_text('{"files": {"kept.csv": ')
        refuse_overwrite(out, force=True)
        assert sorted(p.name for p in out.iterdir()) == ["d", "kept.csv", "sub"]

    def test_rerun_same_seed_identical_digests(self, tmp_path):
        config = parse_config(data=MINIMAL)
        inv_a = emit_outputs(artifacts_for(tiny_run(), config), tmp_path / "a")
        inv_b = emit_outputs(artifacts_for(tiny_run(), config), tmp_path / "b")
        assert inv_a == inv_b

    def test_trace_csv_round_trips_the_record_array(self, tmp_path):
        trace = tiny_run().label_noise.trace
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        with open(path, newline="") as fh:
            header, *lines = csv.reader(fh)
        assert header == TRACE_COLUMNS
        assert [col for col in header if TRACE_DTYPE[col] == np.int64] == ["step", "flip_count"]
        # int() refuses "3.0": the int columns carry no decimal point.
        parsed = np.array([tuple(int(v) if TRACE_DTYPE[col].kind == "i" else float(v)
                                 for col, v in zip(header, line)) for line in lines],
                          dtype=TRACE_DTYPE)
        assert parsed.tobytes() == trace.rows.tobytes()

    def test_coefficient_csv_emitted(self, tmp_path):
        config = parse_config(data=MINIMAL)
        result = tiny_run()
        art = artifacts_for(result, config)
        gamma, same = result.label_noise.state.gamma, result.label_noise.state.same_class
        rho = result.label_noise.state.rho.copy()
        i_opp = np.flatnonzero(~same[1])[-1]
        rho[1, 2, i_opp] = -0.0  # an opposite-class entry: the sign of a zero survives
        i_same = np.flatnonzero(same[0])[0]
        rho[0, 0, i_same], rho[0, 1, i_same], rho[1, 0, i_opp] = np.inf, np.nan, -np.inf
        dump = CoefficientDump(tmp_path / "coefficients_label_noise.csv", same, stride=10,
                               last=35)
        handed = (0.25, -0.0, np.nan, -np.inf)  # written as handed, in fmt_float's form
        dump.write(15, gamma, rho, handed)  # not a snapshot step
        assert not list(tmp_path.iterdir())  # no file before the first snapshot
        dump.write(20, gamma, rho, handed)
        dump.write(25, gamma, rho, handed)
        dump.write(35, gamma, rho.transpose(2, 0, 1).copy().transpose(1, 2, 0),  # a strided view
                   np.array(handed))
        art.written.update(dump.close())
        inventory = emit_outputs(art, tmp_path)
        for name in ("coefficients_label_noise.csv", "coefficients_label_noise_summary.csv"):
            assert inventory[name] == sha256_of(tmp_path / name)  # the digest taken as written
        lines = (tmp_path / "coefficients_label_noise.csv").read_text().splitlines()
        assert lines[0] == "step,j,r,i,gamma,rho_bar,rho_under"
        # one row per (step, j, r, i); the column a rho entry does not belong to holds 0
        assert len(lines) - 1 == 2 * 2 * 3 * 8
        expected = [
            ",".join([str(step), str(j), str(r), str(i), fmt_float(gamma[b, r]),
                      fmt_float(rho[b, r, i] if same[b, i] else 0.0),
                      fmt_float(0.0 if same[b, i] else rho[b, r, i])])
            for step in (20, 35) for b, j in ((0, 1), (1, -1)) for r in range(3) for i in range(8)
        ]
        assert lines[1:] == expected
        assert lines[1 + 5 * 8 + i_opp] == f"20,-1,2,{i_opp},{fmt_float(gamma[1, 2])},0,-0"
        assert lines[1 + i_same].endswith(",inf,0")
        assert lines[1 + 8 + i_same].endswith(",nan,0")
        assert lines[1 + 3 * 8 + i_opp].endswith(",0,-inf")
        summary = (tmp_path / "coefficients_label_noise_summary.csv").read_text().splitlines()
        assert summary == ["step,max_gamma,mean_gamma,max_rho_bar,min_rho_under",
                           "20,0.25,-0,nan,-inf", "35,0.25,-0,nan,-inf"]
