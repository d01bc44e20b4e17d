import builtins
import io
import json
import os
from pathlib import Path

import numpy as np
import pytest

from lngd import cli, experiments
from lngd.cli import main_cli
from lngd.config import parse_config
from lngd.io import fmt_float

from helpers import sha256_of

MINIMAL = {"d": 40, "n": 8, "mu_scale": 1.5, "sigma_p": 0.5, "p": 0.2,
           "eta": 0.1, "steps": 20, "seed": 3, "m": 3, "sigma_0": 0.1,
           "n_test": 20, "log_stride": 10}


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(MINIMAL))
    return path


def test_no_arguments_prints_usage(capsys):
    assert main_cli([]) == 1
    assert "usage" in capsys.readouterr().err


def test_unknown_subcommand(capsys):
    assert main_cli(["frobnicate"]) == 1


def test_bad_config_key_exit_1(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**MINIMAL, "tpyo": 1}))
    assert main_cli(["check", "--config", str(path)]) == 1
    assert "unknown config keys" in capsys.readouterr().err


def test_check_reports_and_exits_zero(config_file, capsys):
    # check is report-only: failing items still exit 0.
    assert main_cli(["check", "--config", str(config_file)]) == 0
    out = capsys.readouterr().out
    assert "assumption report" in out
    assert "FAIL" in out  # desk-scale config misses the asymptotic regime


REGIME = {"mu_scale": 0.1, "sigma_p": 0.5, "d": 30_000_000_000, "n": 100, "m": 40, "p": 0.4,
          "sigma_0": 2.80e-6, "eta": 6.7e-11, "steps": 1, "seed": 1, "log_stride": 1}


@pytest.fixture
def regime_file(tmp_path, monkeypatch):
    """The regime config of d = 3e10, with every length-d signal refused."""
    def no_spec(*args):
        raise AssertionError("a length-d signal was built for d = 3e10")

    monkeypatch.setattr(cli, "axis_aligned_spec", no_spec)
    monkeypatch.setattr(experiments, "axis_aligned_spec", no_spec)
    path = tmp_path / "regime.json"
    path.write_text(json.dumps(REGIME))
    return path


def test_check_describes_the_regime_at_any_d(regime_file, tmp_path, capsys):
    # check reads only |mu|, so it builds no length-d mu.
    out_dir = tmp_path / "check"
    assert main_cli(["check", "--config", str(regime_file), "--out", str(out_dir)]) == 0
    assert "(all_passed=True)" in capsys.readouterr().out
    report = json.loads((out_dir / "assumption_report.json").read_text())
    assert report["all_passed"] and len(report["items"]) == 10


@pytest.mark.parametrize("command", ["dynamics", "concentration"])
def test_a_config_beyond_the_memory_is_refused(regime_file, tmp_path, capsys, command):
    # 8 d (n + 2 + 2m) = 8 * 3e10 * 182 bytes, 40 TiB: refused before any length-d array.
    out_dir = tmp_path / "out"
    assert main_cli([command, "--config", str(regime_file), "--out", str(out_dir)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: d = 30000000000 needs 8 d (n + 2 + 2m) = "
                                   "43680000000000 bytes at n = 100, m = 40, more than the ")
    assert not out_dir.exists()


def test_the_largest_n_and_m_a_command_runs_are_checked(monkeypatch):
    checked = []
    monkeypatch.setattr(experiments, "refuse_oversized", lambda *size: checked.append(size))
    config = parse_config(data={**MINIMAL, "q_list": [2, 4], "grid": {
        "snr_values": [0.1], "n_values": [8, 30, 12], "steps": 1}})
    for command in ("dynamics", "heatmap", "q-sweep"):
        experiments.plan(command, config)
    assert checked == [(40, 8, 3), (40, 30, 3), (40, 200, 20)]


SHORT = {"d": 40, "n": 8, "mu_scale": 1.0, "sigma_p": 0.5, "p": 0.1, "eta": 0.1, "steps": 5,
         "seed": 1, "grid": {"snr_values": [1.0], "n_values": [8], "steps": 5,
                             "seeds_per_cell": 1}}


@pytest.mark.parametrize("command, code", [("check", 0), ("concentration", 0), ("heatmap", 0),
                                           ("dynamics", 1), ("noise-compare", 1),
                                           ("q-sweep", 1)])
def test_only_commands_that_log_by_stride_refuse_one_above_steps(command, code, tmp_path,
                                                                 capsys):
    # 5 steps and the default log_stride 10: check and concentration never log, and
    # heatmap logs at the end of grid.steps.
    path = tmp_path / "short.json"
    path.write_text(json.dumps(SHORT))
    out_dir = tmp_path / "out"
    trials = ["--trials", "100"] if command == "concentration" else []
    assert main_cli([command, "--config", str(path), "--out", str(out_dir), *trials]) == code
    err = capsys.readouterr().err
    if code:
        assert err == ("error: log_stride = 10 exceeds steps = 5; allowed: integer in "
                       "[1, steps]\n")
        assert not out_dir.exists()


def test_dynamics_emits_run_directory(config_file, tmp_path, capsys):
    out_dir = tmp_path / "run"
    assert main_cli(["dynamics", "--config", str(config_file), "--out", str(out_dir)]) == 0
    names = {p.name for p in out_dir.iterdir()}
    assert {"manifest.json", "reports.json", "trace_standard.csv",
            "trace_label_noise.csv"} <= names
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert set(manifest["files"]) == names - {"manifest.json"}


GRID = {"grid": {"snr_values": [0.05, 0.1], "n_values": [8], "steps": 10, "seeds_per_cell": 2}}
RUNS = {
    "dynamics": ({"coeff_stride": 10}, []),
    "heatmap-1": (GRID, ["--workers", "1"]),
    "heatmap-2": (GRID, ["--workers", "2"]),
    "noise-compare": ({"noise_list": [{"kind": "flip", "p": 0.2},
                                      {"kind": "gaussian", "mean": 1.0, "std": 1.0}]}, []),
    "q-sweep": ({"q_list": [2, 3]}, []),
}


def run_case(tmp_path, case):
    """The command of ``RUNS[case]`` and the run directory it wrote."""
    overrides, flags = RUNS[case]
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**MINIMAL, **overrides}))
    out_dir = tmp_path / "run"
    command = case.removesuffix("-1").removesuffix("-2")
    assert main_cli([command, "--config", str(path), "--out", str(out_dir), *flags]) in (0, 3)
    return command, out_dir


@pytest.mark.parametrize("case", RUNS)
def test_manifest_lists_every_file_with_its_digest(tmp_path, capsys, case):
    # Exactly the files of the run directory, each with the sha256 of its bytes.
    _, out_dir = run_case(tmp_path, case)
    files = json.loads((out_dir / "manifest.json").read_text())["files"]
    assert files == {p.name: sha256_of(p) for p in out_dir.iterdir() if p.name != "manifest.json"}
    assert len(files) >= 3


@pytest.mark.parametrize("case", RUNS)
def test_only_dynamics_writes_coefficient_dumps(tmp_path, capsys, case):
    # Only dynamics gives its run a dump directory, and there both arms dump.
    command, out_dir = run_case(tmp_path, case)
    dumps = {f"coefficients_{label}{part}.csv" for label in experiments.ALGORITHMS
             for part in ("", "_summary")}
    assert {p.name for p in out_dir.glob("coefficients_*")} == (
        dumps if command == "dynamics" else set())


@pytest.mark.parametrize("case", ["heatmap-1", "heatmap-2"])
def test_a_heatmap_command_plans_once(tmp_path, monkeypatch, capsys, case):
    calls = []
    real_plan = experiments.plan

    def counting_plan(command, config):
        calls.append(command)
        return real_plan(command, config)

    monkeypatch.setattr(experiments, "plan", counting_plan)
    monkeypatch.setattr(cli, "plan", counting_plan)
    run_case(tmp_path, case)
    assert calls == ["heatmap"]


def test_a_run_command_without_out_writes_under_lngd_out_root(config_file, tmp_path,
                                                               monkeypatch, capsys):
    root = tmp_path / "root"
    monkeypatch.setenv("LNGD_OUT_ROOT", str(root))
    assert main_cli(["dynamics", "--config", str(config_file), "--seed", "1"]) == 0
    assert (root / "dynamics_seed1" / "manifest.json").is_file()


def test_a_run_command_without_out_or_root_writes_under_runs(config_file, tmp_path,
                                                              monkeypatch, capsys):
    monkeypatch.delenv("LNGD_OUT_ROOT", raising=False)
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    assert main_cli(["dynamics", "--config", str(config_file), "--seed", "1"]) == 0
    assert (work / "runs" / "dynamics_seed1" / "manifest.json").is_file()


@pytest.mark.parametrize("root", [None, "root"])
def test_check_without_out_writes_nothing(config_file, tmp_path, monkeypatch, capsys, root):
    if root:
        monkeypatch.setenv("LNGD_OUT_ROOT", str(tmp_path / root))
    else:
        monkeypatch.delenv("LNGD_OUT_ROOT", raising=False)
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    assert main_cli(["check", "--config", str(config_file)]) == 0
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["config.json", "work"]


def test_emit_outputs_reads_no_file_back(config_file, tmp_path, monkeypatch, capsys):
    # Every digest is taken as its file is written: no file of the run directory is read
    # while the files and the manifest are written.
    out_dir = tmp_path / "run"
    real_open, real_emit = io.open, cli.emit_outputs

    def write_only(file, mode="r", *args, **kwargs):
        if ("r" in mode or "+" in mode) and isinstance(file, (str, os.PathLike)) \
                and out_dir in Path(file).parents and os.path.exists(file):
            raise AssertionError(f"{file} read back")
        return real_open(file, mode, *args, **kwargs)

    def emit(*args, **kwargs):
        with monkeypatch.context() as patch:
            patch.setattr(builtins, "open", write_only)
            patch.setattr(io, "open", write_only)
            return real_emit(*args, **kwargs)

    monkeypatch.setattr(cli, "emit_outputs", emit)
    assert main_cli(["dynamics", "--config", str(config_file), "--out", str(out_dir)]) == 0
    files = json.loads((out_dir / "manifest.json").read_text())["files"]
    assert "trace_standard.csv" in files and "coefficients_standard.csv" in files
    assert main_cli(["dynamics", "--config", str(config_file), "--out", str(out_dir),
                     "--force"]) == 0


def test_dynamics_refuses_overwrite_then_forces(config_file, tmp_path, capsys):
    out_dir = tmp_path / "run"
    assert main_cli(["dynamics", "--config", str(config_file), "--out", str(out_dir)]) == 0
    capsys.readouterr()
    assert main_cli(["dynamics", "--config", str(config_file), "--out", str(out_dir)]) == 1
    refused = capsys.readouterr()
    assert refused.out == ""  # refused before the run, so no result lines
    assert "already exists" in refused.err
    assert main_cli(["dynamics", "--config", str(config_file), "--out", str(out_dir),
                     "--force"]) == 0


def test_dynamics_seed_override_changes_digests(config_file, tmp_path):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    main_cli(["dynamics", "--config", str(config_file), "--out", str(a)])
    main_cli(["dynamics", "--config", str(config_file), "--out", str(b), "--seed", "4"])
    main_cli(["dynamics", "--config", str(config_file), "--out", str(c)])
    files_a = json.loads((a / "manifest.json").read_text())["files"]
    files_b = json.loads((b / "manifest.json").read_text())["files"]
    files_c = json.loads((c / "manifest.json").read_text())["files"]
    assert files_a != files_b
    assert files_a == files_c


def test_heatmap_requires_grid(config_file, capsys):
    assert main_cli(["heatmap", "--config", str(config_file)]) == 1
    assert "grid" in capsys.readouterr().err


def test_heatmap_refuses_a_missing_grid_before_its_workers_note(config_file, tmp_path,
                                                                 monkeypatch, capsys):
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0})  # 2 workers oversubscribe
    out_dir = tmp_path / "hm"
    assert main_cli(["heatmap", "--config", str(config_file), "--out", str(out_dir),
                     "--workers", "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: heatmap requires a 'grid' section") and "note:" not in err
    assert not out_dir.exists()


def test_heatmap_emits_csvs(tmp_path):
    config = {**MINIMAL, "grid": {"snr_values": [0.05], "n_values": [8],
                                  "steps": 10, "eta": 0.3, "seeds_per_cell": 1}}
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(config))
    out_dir = tmp_path / "hm"
    assert main_cli(["heatmap", "--config", str(path), "--out", str(out_dir)]) == 0
    header = (out_dir / "heatmap.csv").read_text().splitlines()[0]
    assert header == "snr,n,seed,algorithm,test_accuracy"
    rows = (out_dir / "heatmap.csv").read_text().splitlines()[1:]
    assert len(rows) == 2  # 1 snr x 1 n x 1 seed x 2 algorithms
    assert (out_dir / "heatmap_aggregate.csv").exists()


def test_noise_compare_and_assert(tmp_path):
    config = {**MINIMAL, "noise_list": [{"kind": "flip", "p": 0.2}]}
    path = tmp_path / "nc.json"
    path.write_text(json.dumps(config))
    out_dir = tmp_path / "nc"
    code = main_cli(["noise-compare", "--config", str(path), "--out", str(out_dir),
                     "--assert"])
    assert code in (0, 3)  # tiny run may legitimately fail the margin check
    assert (out_dir / "reports.json").exists()


def test_q_sweep_runs(tmp_path):
    config = {**MINIMAL, "q_list": [2, 3]}
    path = tmp_path / "qs.json"
    path.write_text(json.dumps(config))
    out_dir = tmp_path / "qs"
    # tiny scale: ordering may go either way, so no --assert here
    assert main_cli(["q-sweep", "--config", str(path), "--out", str(out_dir)]) == 0
    report = json.loads((out_dir / "reports.json").read_text())
    assert set(report["q_sweep"]) == {"q=2", "q=3"}


def test_q_sweep_refuses_a_q_without_reference_settings(tmp_path, capsys):
    # Refused before any q trains, not after q=2 has run in full.
    path = tmp_path / "qs.json"
    path.write_text(json.dumps({**MINIMAL, "q_list": [2, 5]}))
    out_dir = tmp_path / "qs"
    assert main_cli(["q-sweep", "--config", str(path), "--out", str(out_dir)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "q=5" in captured.err
    assert not out_dir.exists()


def test_concentration_cli(config_file, tmp_path, capsys):
    out_dir = tmp_path / "conc"
    code = main_cli(["concentration", "--config", str(config_file), "--out", str(out_dir),
                     "--trials", "100"])
    assert code == 0
    assert "pass rate" in capsys.readouterr().out
    assert (out_dir / "concentration_report.json").exists()


@pytest.mark.parametrize("command", ["dynamics", "check", "concentration"])
@pytest.mark.parametrize("inside", [False, True], ids=["file", "under-a-file"])
def test_out_naming_a_file_is_refused(config_file, tmp_path, capsys, command, inside):
    # Refused before any work: concentration would otherwise run its whole suite first.
    taken = tmp_path / "taken"
    taken.write_text("keep")
    out = taken / "run" if inside else taken
    assert main_cli([command, "--config", str(config_file), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: output directory {out}: {taken} is not a directory\n"
    assert taken.read_text() == "keep"


def test_report_commands_refuse_run_flags(config_file, tmp_path, capsys):
    # --assert and --force would be ignored by check and concentration.
    for command in ("check", "concentration"):
        for flag in ("--assert", "--force"):
            assert main_cli([command, "--config", str(config_file), "--out",
                             str(tmp_path / command), flag]) == 1
            assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not list(tmp_path.glob("check*")) and not list(tmp_path.glob("concentration*"))


def test_trials_override_is_validated(config_file, capsys):
    assert main_cli(["concentration", "--config", str(config_file), "--trials", "5"]) == 1
    assert "'trials' = 5 out of range; allowed: integer >= 100" in capsys.readouterr().err


def test_workers_override_is_validated(tmp_path, capsys):
    config = {**MINIMAL, "grid": {"snr_values": [0.05], "n_values": [8], "steps": 10}}
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(config))
    assert main_cli(["heatmap", "--config", str(path), "--out", str(tmp_path / "hm"),
                     "--workers", "0"]) == 1
    assert "'workers' = 0 out of range; allowed: integer >= 1" in capsys.readouterr().err
    assert not (tmp_path / "hm").exists()


def test_decompose_verifies_saved_run(config_file, tmp_path, capsys):
    out_dir = tmp_path / "run"
    assert main_cli(["dynamics", "--config", str(config_file), "--out", str(out_dir)]) == 0
    assert main_cli(["decompose", "--run", str(out_dir), "--assert"]) == 0
    report = json.loads((out_dir / "decompose_reports.json").read_text())
    assert report["all_digests_match"]
    assert report["digests_match"]["coefficients_label_noise.csv"]
    assert report["digests_match"]["coefficients_label_noise_summary.csv"]
    assert report["reconstruction_bound"] == 1e-8
    assert report["max_reconstruction_error"] <= report["reconstruction_bound"]


def test_forced_rerun_removes_the_old_runs_decompose_report(config_file, tmp_path, capsys):
    # The report describes the run it replayed: a forced rerun at another seed must not
    # leave it beside a manifest it does not describe.
    out_dir = tmp_path / "run"
    assert main_cli(["dynamics", "--config", str(config_file), "--out", str(out_dir)]) == 0
    assert main_cli(["decompose", "--run", str(out_dir)]) == 0
    assert (out_dir / "decompose_reports.json").exists()
    assert main_cli(["dynamics", "--config", str(config_file), "--out", str(out_dir),
                     "--seed", "7", "--force"]) == 0
    assert json.loads((out_dir / "manifest.json").read_text())["master_seed"] == 7
    assert not (out_dir / "decompose_reports.json").exists()


@pytest.mark.parametrize("edit", ["omit", "extra"])
def test_decompose_counts_a_csv_on_one_side_as_a_mismatch(config_file, tmp_path, capsys,
                                                          edit):
    # A CSV the replay writes but the manifest omits, or one the manifest lists but the
    # replay does not write, fails the digest check.
    out_dir = tmp_path / "run"
    assert main_cli(["dynamics", "--config", str(config_file), "--out", str(out_dir)]) == 0
    manifest_path = out_dir / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    if edit == "omit":
        manifest["files"] = {"trace_standard.csv": manifest["files"]["trace_standard.csv"]}
        odd = "trace_label_noise.csv"
    else:
        odd = "trace_extra.csv"
        manifest["files"][odd] = "0" * 64
    manifest_path.write_text(json.dumps(manifest))
    assert main_cli(["decompose", "--run", str(out_dir), "--assert"]) == 3
    assert "digests match: False" in capsys.readouterr().out
    report = json.loads((out_dir / "decompose_reports.json").read_text())
    assert report["digests_match"][odd] is False
    assert report["digests_match"]["trace_standard.csv"]
    assert not report["all_digests_match"]


def test_decompose_refuses_a_run_it_cannot_replay(tmp_path, capsys):
    # decompose replays dynamics runs; any other recorded command is a usage
    # error raised before anything is replayed or written.
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    manifest = {"command": "heatmap", "config": MINIMAL, "files": {"heatmap.csv": "0" * 64}}
    (run_dir / "manifest.json").write_text(json.dumps(manifest))
    assert main_cli(["decompose", "--run", str(run_dir), "--assert"]) == 1
    assert "'heatmap'" in capsys.readouterr().err
    assert not (run_dir / "decompose_reports.json").exists()


def test_decompose_refuses_seed_and_out(tmp_path, capsys):
    # decompose replays the run's recorded config into the run directory,
    # so it has no seed to override and no output directory to choose.
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    elsewhere = tmp_path / "elsewhere"
    for flag, value in (("--seed", "7"), ("--out", str(elsewhere))):
        assert main_cli(["decompose", "--run", str(run_dir), flag, value]) == 1
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not elsewhere.exists()


@pytest.mark.parametrize("text, reason", [
    (json.dumps({"command": "dynamics"}), "has no 'config' key"),
    ('{"command": "dynamics", ', "is not valid JSON"),
    (json.dumps({"command": "dynamics", "config": MINIMAL, "files": []}),
     "'files' is not a JSON object"),
])
def test_decompose_refuses_a_broken_manifest(tmp_path, capsys, text, reason):
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    (run_dir / "manifest.json").write_text(text)
    assert main_cli(["decompose", "--run", str(run_dir)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(run_dir / "manifest.json") in err
    assert reason in err
    assert not (run_dir / "decompose_reports.json").exists()


def test_heatmap_notes_workers_beyond_the_cores(tmp_path, monkeypatch, capsys):
    # Advisory only: the note changes neither the exit code nor the outputs.
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0})
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    config = {**MINIMAL, "grid": {"snr_values": [0.05], "n_values": [8], "steps": 10,
                                  "seeds_per_cell": 2}}
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(config))
    csv = {}
    for workers in ("1", "2"):
        out_dir = tmp_path / f"hm{workers}"
        assert main_cli(["heatmap", "--config", str(path), "--out", str(out_dir),
                         "--workers", workers]) == 0
        notes = [line for line in capsys.readouterr().err.splitlines()
                 if line.startswith("note:")]
        assert len(notes) == (workers == "2")
        csv[workers] = (out_dir / "heatmap.csv").read_bytes()
    assert "OPENBLAS_NUM_THREADS=1" in notes[0]
    assert csv["1"] == csv["2"]


def test_aborted_run_exits_2(tmp_path, capsys):
    config = {**MINIMAL, "q": 4, "eta": 1e80}
    path = tmp_path / "blowup.json"
    path.write_text(json.dumps(config))
    out_dir = tmp_path / "run"
    assert main_cli(["dynamics", "--config", str(path), "--out", str(out_dir)]) == 2
    assert "ABORTED" in capsys.readouterr().out
    # the partial trace is still emitted
    assert (out_dir / "trace_standard.csv").exists()


def read_csv(path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def test_aborted_arm_keeps_the_snapshots_it_logged(tmp_path, capsys):
    # The label-noise arm's multipliers of order 1e10 make its outputs overflow at step 17.
    config = {**MINIMAL, "d": 200, "n": 20, "m": 4, "mu_scale": 2.0, "eta": 0.5, "seed": 1,
              "steps": 40, "n_test": 50, "log_stride": 2, "coeff_stride": 3,
              "noise": {"kind": "uniform", "lo": 1e10, "hi": 2e10}}
    path = tmp_path / "abort.json"
    path.write_text(json.dumps(config))
    out_dir = tmp_path / "run"
    assert main_cli(["dynamics", "--config", str(path), "--out", str(out_dir)]) == 2
    assert "label_noise: ABORTED at step 17" in capsys.readouterr().out
    for label, want in (("standard", [0, 6, 12, 18, 24, 30, 36, 40]),
                        ("label_noise", [0, 6, 12])):
        _, trace = read_csv(out_dir / f"trace_{label}.csv")
        logged = [int(row[0]) for row in trace]
        assert want == [t for t in logged if t % 3 == 0 or t == 40]
        header, dump = read_csv(out_dir / f"coefficients_{label}.csv")
        assert header == ["step", "j", "r", "i", "gamma", "rho_bar", "rho_under"]
        assert len(dump) == len(want) * 2 * 4 * 20
        steps = [int(row[0]) for row in dump]
        assert steps == [t for t in want for _ in range(2 * 4 * 20)]
        _, summary = read_csv(out_dir / f"coefficients_{label}_summary.csv")
        expected = []
        for k, t in enumerate(want):
            block = np.array(dump[k * 160:(k + 1) * 160], dtype=float)
            gamma = block[::20, 4]  # one row per (j, r)
            expected.append([str(t), *map(fmt_float, (gamma.max(), gamma.mean(),
                                                      block[:, 5].max(), block[:, 6].min()))])
        assert summary == expected


@pytest.mark.parametrize("steps, log_stride, coeff_stride",
                         [(0, 1, 1), (40, 2, 3), (40, 10, 100), (2000, 10, 100), (7, 7, 2),
                          (30, 4, 6), (30, 5, 1), (1, 1, 5)])
def test_snapshot_arrays_fit_every_logged_snapshot(steps, log_stride, coeff_stride, tmp_path,
                                                   capsys):
    # The streamed dump holds one snapshot per logged step that is a multiple of
    # coeff_stride, plus the last step, and the manifest lists the digests taken as written.
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**MINIMAL, "steps": steps, "log_stride": log_stride,
                                "coeff_stride": coeff_stride}))
    out_dir = tmp_path / "run"
    assert main_cli(["dynamics", "--config", str(path), "--out", str(out_dir)]) == 0
    want = [t for t in range(steps + 1)
            if (t % log_stride == 0 or t == steps) and (t % coeff_stride == 0 or t == steps)]
    files = json.loads((out_dir / "manifest.json").read_text())["files"]
    for label in ("standard", "label_noise"):
        _, dump = read_csv(out_dir / f"coefficients_{label}.csv")
        assert [int(row[0]) for row in dump] == [t for t in want for _ in range(2 * 3 * 8)]
        _, summary = read_csv(out_dir / f"coefficients_{label}_summary.csv")
        assert [int(row[0]) for row in summary] == want
        for name in (f"coefficients_{label}.csv", f"coefficients_{label}_summary.csv"):
            assert files[name] == sha256_of(out_dir / name)


def strict_constant(name):
    raise ValueError(f"bare {name} is not JSON")


def heatmap_report(tmp_path, steps, workers):
    config = {**MINIMAL, "q": 4, "grid": {"snr_values": [0.1, 2.0], "n_values": [8, 12],
                                          "steps": steps, "eta": 40.0, "seeds_per_cell": 3}}
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(config))
    out_dir = tmp_path / f"hm{steps}-{workers}"
    assert main_cli(["heatmap", "--config", str(path), "--out", str(out_dir),
                     "--workers", workers]) == 2  # some arms abort
    text = (out_dir / "reports.json").read_text()
    return json.loads(text, parse_constant=strict_constant)["heatmap"]


@pytest.mark.parametrize("steps, worst", [(6, -0.44999999999999996), (20, None)])
def test_worst_deficit_skips_cells_without_both_means(tmp_path, capsys, steps, worst):
    # q=4 at eta 40 aborts arms: at 6 steps every label-noise arm of the first cell aborts, so
    # it has no gap and comes first in cell order; at 20 steps every label-noise arm aborts.
    # A mean without a finished seed is written as null (the report parses strictly) and
    # printed as nan.
    for workers in ("1", "2"):
        report = heatmap_report(tmp_path, steps, workers)
        means = [(c["standard_mean"], c["label_noise_mean"]) for c in report["cells"]]
        assert means[0][1] is None
        gaps = [ln - gd for gd, ln in means if None not in (gd, ln)]
        assert report["worst_label_noise_deficit"] == worst == min(gaps, default=None)
        assert "label_noise nan" in capsys.readouterr().out.splitlines()[0]


def test_version_flag():
    with pytest.raises(SystemExit) as info:
        main_cli(["--version"])
    assert info.value.code == 0


def stage(algorithm, t1, t2, reason=None):
    """A stage_times entry as reports.json writes it, floats as their written text."""
    return {"T1": t1, "T2": t2, "algorithm": algorithm, "constants_used": {"hidden": "1.0"},
            "invalid_reason": reason}


ASSUMPTION_ITEMS = ["i.dimension_vs_n2", "i.dimension_vs_signal", "i.snr_vs_sqrt_n",
                    "ii.width_vs_logd", "ii.samples_vs_logd", "iii.learning_rate",
                    "iv.init_lower", "iv.init_upper", "v.flip_rate_lower", "v.flip_rate_upper"]
BIG_INIT = "sigma_0 sigma_p sqrt(d) = 3.162 >= 1 makes the stage-1 log nonpositive"


@pytest.mark.parametrize("command, overrides, expected", [
    ("check", {"d": 2000}, (ASSUMPTION_ITEMS,
                            {"item", "kind", "lhs", "rhs", "constant", "passed", "ratio"},
                            "2000.0", {"1.0"})),
    ("dynamics", {}, {"GD": stage("GD", "27.631021115928547", "4347.631021115928"),
                      "LNGD": stage("LNGD", "27.631021115928547", "76.81608050411437")}),
    ("dynamics", {"sigma_0": 1.0}, {"GD": stage("GD", "NaN", "NaN", BIG_INIT),
                                    "LNGD": stage("LNGD", "NaN", "NaN", BIG_INIT)}),
    ("dynamics", {"mu_scale": 100.0, "eta": 0.001},
     {"GD": stage("GD", "2763.1021115928547", "434763.10211159283"),
      "LNGD": stage("LNGD", "2763.1021115928547", "NaN",
                    "sigma_0 |mu| = 10 >= 6 makes the stage-2 log nonpositive")}),
    ("dynamics", {"sigma_0": 0.0}, "config key 'sigma_0' = 0.0 out of range; allowed: number > 0"),
], ids=["check", "valid", "big-init", "big-signal", "zero-init"])
def test_written_theory_blocks(tmp_path, capsys, command, overrides, expected):
    # The layout of assumption_report.json and of reports.json's stage_times, read with
    # every float as its written text. A zero init (sigma_0 = 0), which cannot move, is
    # refused before the run.
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**MINIMAL, **overrides}))
    out_dir = tmp_path / "out"
    if isinstance(expected, str):
        assert main_cli([command, "--config", str(path), "--out", str(out_dir)]) == 1
        assert capsys.readouterr().err == f"error: {expected}\n"
        assert not out_dir.exists()
        return
    assert main_cli([command, "--config", str(path), "--out", str(out_dir)]) == 0
    name = "assumption_report.json" if command == "check" else "reports.json"
    written = json.loads((out_dir / name).read_text(), parse_float=str, parse_constant=str)
    if command == "check":
        items = written["items"]
        assert ([it["item"] for it in items], {key for it in items for key in it},
                items[0]["lhs"], {it["constant"] for it in items}) == expected
    else:
        assert (out_dir / "manifest.json").exists()
        assert written["dynamics"]["stage_times"] == expected
