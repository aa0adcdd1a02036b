import contextlib
import csv
import io
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import uav_twoway
from uav_twoway import all_configurations, cli, default_config, montecarlo, validate_and_derive
from uav_twoway.cli import CSV_COLUMNS, MAX_FRAMES, MAX_WORKERS, main
from uav_twoway.errors import NonPositiveRateError
from uav_twoway.params import CONFIG_SCHEMA, MAX_USERS, SystemParams, split_weight_grid
from uav_twoway.throughput import (LoadDistribution, average_throughput, conditional_table,
                                   optimal_configuration)


def run_cli(*argv):
    return main(list(argv))


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_eval_matches_library(capsys, params, candidates):
    assert run_cli("eval", "--lambda1", "10", "--lambda2", "10") == 0
    out = capsys.readouterr().out
    line = next(l for l in out.splitlines() if l.startswith("r0_Hl_Hl"))
    printed = float(line.split()[-1])
    expected = average_throughput(conditional_table(candidates["r0_Hl_Hl"], params),
                                  LoadDistribution(10.0, 10.0))
    assert printed == expected.total
    assert "optimal: r0_Hl_Hl" in out
    header = out.splitlines()[0]
    assert header.endswith(f" covered_mass={expected.covered_mass!r}")


def test_eval_exhaustive_lists_eight(capsys):
    assert run_cli("eval", "--lambda1", "5", "--lambda2", "5", "--exhaustive") == 0
    out = capsys.readouterr().out
    rows = [l for l in out.splitlines() if l.startswith(("r0_", "r1_"))]
    assert len(rows) == 8


def test_eval_single_configuration(capsys):
    assert run_cli("eval", "--lambda1", "5", "--lambda2", "5",
                   "--configuration", "r1_Hh_Hl") == 0
    out = capsys.readouterr().out
    rows = [l for l in out.splitlines() if l.startswith(("r0_", "r1_"))]
    assert len(rows) == 1 and rows[0].startswith("r1_Hh_Hl")
    assert run_cli("eval", "--lambda1", "5", "--lambda2", "5",
                   "--configuration", "nope") == 2


def test_eval_configuration_and_exhaustive_exclude_each_other(capsys):
    # together, one of them would be ignored
    with pytest.raises(SystemExit) as exit_info:
        run_cli("eval", "--lambda1", "5", "--lambda2", "5", "--exhaustive",
                "--configuration", "r1_Hh_Hl")
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "--exhaustive" in err and "--configuration" in err, err


def test_eval_per_k_table(capsys):
    assert run_cli("eval", "--lambda1", "3", "--lambda2", "2", "--per-k") == 0
    out = capsys.readouterr().out
    assert "per-k breakdown for r0_Hl_Hl" in out
    assert f"\n  {-30:>4} " in out or " -30 " in out


def test_malformed_config_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("d_0_m = -5\n")
    assert run_cli("eval", "--lambda1", "1", "--lambda2", "1",
                   "--config", str(bad)) == 2
    assert "d_0_m" in capsys.readouterr().err


def test_bad_set_override_exits_2(capsys):
    assert run_cli("eval", "--lambda1", "1", "--lambda2", "1",
                   "--set", "no_such_key=5") == 2
    assert "no_such_key" in capsys.readouterr().err


def test_nonpositive_load_exits_2(capsys):
    assert run_cli("eval", "--lambda1", "0", "--lambda2", "1") == 2
    # the library check comes first: a non-finite rate that got past it
    # would never finish the command lines below
    with pytest.raises(NonPositiveRateError):
        LoadDistribution(math.inf, 1.0)
    for argv in (("eval", "--lambda1", "inf", "--lambda2", "5"),
                 ("optimize", "--lambda1", "5", "--lambda2", "inf"),
                 ("sweep", "--lambda1", "inf", "--lambda2", "5")):
        capsys.readouterr()
        assert run_cli(*argv) == 2
        assert "finite" in capsys.readouterr().err


def test_out_of_domain_load_exits_2_naming_the_flag(tmp_path):
    # in child processes with a time limit: a rate that slipped past the
    # check would hang the Skellam recurrence, and the test must fail
    env = dict(os.environ, PYTHONPATH=str(Path(uav_twoway.__file__).parents[1]))

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "uav_twoway.cli", *argv], env=env,
                              cwd=tmp_path, capture_output=True, text=True, timeout=60)

    for argv, flag in ((("eval", "--lambda1", "1e300", "--lambda2", "1e300"), "--lambda1"),
                       (("optimize", "--lambda1", "5", "--lambda2", "1.1e10"), "--lambda2"),
                       (("eval", "--lambda1", "-1", "--lambda2", "1"), "--lambda1"),
                       (("sweep", "--lambda1", "5", "--lambda2", "1,nan"), "--lambda2"),
                       (("compare", "--lambda1", "1e10:1e11:1e10", "--lambda2", "3",
                         "--frames", "2"), "--lambda1")):
        done = run(*argv)
        assert done.returncode == 2, (argv, done.stderr)
        assert f"error: {flag}=" in done.stderr, (argv, done.stderr)
    # the ceiling itself is accepted, and ends
    done = run("eval", "--lambda1", "1e10", "--lambda2", "1e10")
    assert done.returncode == 0, done.stderr


def test_optimize_reports_config(capsys):
    assert run_cli("optimize", "--lambda1", "25", "--lambda2", "2") == 0
    assert "r1_Hl_Hh" in capsys.readouterr().out


def test_sweep_cardinality_and_schema(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run_cli("sweep", "--lambda1", "2:6:2", "--lambda2", "4,8",
                   "--out", str(out)) == 0
    rows = read_rows(out)
    # 3 lambda1 x 2 lambda2 x (3 candidates + optimal)
    assert len(rows) == 24
    assert list(rows[0]) == CSV_COLUMNS
    assert {row["configuration"] for row in rows} == {
        "r1_Hl_Hh", "r1_Hh_Hl", "r0_Hl_Hl", "optimal"}
    analytical_only = rows[0]
    assert analytical_only["mc_mean"] == "" and analytical_only["n_frames"] == "0"
    assert analytical_only["h1"] in ("H_l", "H_h")
    assert float(analytical_only["h1_m"]) > 0


def test_sweep_optimal_dominates_rowwise(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run_cli("sweep", "--lambda1", "1:21:5", "--lambda2", "2,9",
                   "--out", str(out)) == 0
    rows = read_rows(out)
    by_point = {}
    for row in rows:
        by_point.setdefault((row["lambda1"], row["lambda2"]), {})[
            row["configuration"]] = float(row["throughput_bpshz"])
    for values in by_point.values():
        for label in ("r1_Hl_Hh", "r1_Hh_Hl", "r0_Hl_Hl"):
            assert values["optimal"] >= values[label]


def test_sweep_optimal_row_is_the_optimizer_result(tmp_path, params):
    # the optimal row is picked from the candidate columns; it must match
    # optimal_configuration bit for bit, including the mirrored ties at
    # lambda1 == lambda2
    out = tmp_path / "sweep.csv"
    assert run_cli("sweep", "--lambda1", "2,9,17", "--lambda2", "2,9,17",
                   "--out", str(out)) == 0
    levels = {"H_l": "Hl", "H_h": "Hh"}
    optimal_rows = [row for row in read_rows(out) if row["configuration"] == "optimal"]
    assert len(optimal_rows) == 9
    for row in optimal_rows:
        loads = LoadDistribution(float(row["lambda1"]), float(row["lambda2"]))
        cfg, best = optimal_configuration(loads, params)
        assert f"r{row['r']}_{levels[row['h1']]}_{levels[row['h2']]}" == cfg.label
        assert row["throughput_bpshz"] == repr(best.total)


def test_analytical_commands_do_not_import_numpy(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(uav_twoway.__file__).parents[1]))

    def child(code):
        done = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr

    child("import contextlib, io, sys\n"
          "import uav_twoway.pairing\n"
          "from uav_twoway.cli import main\n"
          "with contextlib.redirect_stdout(io.StringIO()):\n"
          "    assert main(['sweep', '--lambda1', '1,2', '--lambda2', '3']) == 0\n"
          "    assert main(['eval', '--lambda1', '4', '--lambda2', '5']) == 0\n"
          "    assert main(['optimize', '--lambda1', '4', '--lambda2', '5']) == 0\n"
          "assert 'numpy' not in sys.modules\n")
    # the simulator's names stay importable from the package
    child("from uav_twoway import ActivationModel, simulate\n"
          "import uav_twoway.montecarlo as mc\n"
          "assert simulate is mc.simulate and ActivationModel is mc.ActivationModel\n")


def test_every_exported_name_resolves():
    # the simulator's names load lazily, so a stale entry would only fail
    # at a user's call
    for name in uav_twoway.__all__:
        getattr(uav_twoway, name)  # raises AttributeError for a stale name


def test_sweep_rejects_bad_range(capsys, tmp_path):
    assert run_cli("sweep", "--lambda1", "5:1:-1", "--lambda2", "2",
                   "--out", str(tmp_path / "x.csv")) == 2
    assert run_cli("sweep", "--lambda1", "abc", "--lambda2", "2",
                   "--out", str(tmp_path / "x.csv")) == 2
    assert run_cli("sweep", "--lambda1", "3", "--lambda2", "2",
                   "--configurations", "bogus",
                   "--out", str(tmp_path / "x.csv")) == 2
    # (extra arguments, the flag the error must name); --lambda2 0 stops
    # the run before any frame or worker process, should an over-long range
    # or a count above its ceiling ever be accepted
    for extra, flag in ((("--lambda1", "1:inf:1", "--lambda2", "5"), "--lambda1"),
                        (("--lambda1", "5:4:1", "--lambda2", "5"), "--lambda1"),
                        (("--lambda1", "5", "--lambda2", "5", "--frames", "-3"), "--frames"),
                        (("--lambda1", "5", "--lambda2", "5", "--workers", "0"), "--workers"),
                        (("--lambda1", "5", "--lambda2", "5", "--workers", "-2"), "--workers"),
                        (("--lambda1", "1:10001:1", "--lambda2", "0"), "--lambda1"),
                        (("--lambda1", "5", "--lambda2", "5", "--frames", "3", "--seed", "-1"),
                         "--seed"),
                        (("--lambda1", "5", "--lambda2", "0", "--frames", str(MAX_FRAMES + 1)),
                         "--frames"),
                        (("--lambda1", "5", "--lambda2", "0", "--workers", str(MAX_WORKERS + 1)),
                         "--workers")):
        capsys.readouterr()
        assert run_cli("sweep", *extra, "--out", str(tmp_path / "x.csv")) == 2
        assert flag in capsys.readouterr().err


def test_range_whose_stop_is_its_start_is_one_value():
    assert cli._parse_values("3:3:1", "--lambda1") == [3.0]


def test_sweep_byte_identical_across_runs_and_workers(tmp_path):
    args = ("--lambda1", "2,7", "--lambda2", "3,5", "--frames", "25",
            "--seed", "99", "--activation", "poisson")
    paths = [tmp_path / f"run{i}.csv" for i in range(3)]
    assert run_cli("sweep", *args, "--out", str(paths[0])) == 0
    assert run_cli("sweep", *args, "--out", str(paths[1])) == 0
    assert run_cli("sweep", *args, "--workers", "2", "--out", str(paths[2])) == 0
    blobs = [path.read_bytes() for path in paths]
    assert blobs[0] == blobs[1] == blobs[2]


@pytest.mark.parametrize("args", [
    # three blocks of frames per row, each from its own stream, with model
    # activation's empty frames among them
    ("--configurations", "r1_Hl_Hh,r0_Hl_Hl", "--frames", "150", "--activation", "model",
     "--seed", "13"),
    # each worker builds the grids its points' rows read, an optimal row's
    # winner's included
    ("--configurations", "r1_Hl_Hh,optimal", "--activation", "exhaustive"),
], ids=["model", "exhaustive"])
def test_compare_blocks_byte_identical_across_workers(tmp_path, args):
    args = ("--lambda1", "6,31", "--lambda2", "4", *args)
    paths = [tmp_path / f"run{i}.csv" for i in range(2)]
    assert run_cli("compare", *args, "--workers", "1", "--out", str(paths[0])) == 0
    assert run_cli("compare", *args, "--workers", "2", "--out", str(paths[1])) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert len(read_rows(paths[0])) == 4


def test_matched_compare_across_fill_chunks_byte_identical(tmp_path):
    # 4,200 matched frames per row cross a FILL_FRAMES chunk; each chunk's
    # counts come from one draw over its blocks' streams
    from uav_twoway.montecarlo import FILL_FRAMES
    assert FILL_FRAMES < 4200
    args = ("--lambda1", "6,31", "--lambda2", "4", "--configurations", "r1_Hl_Hh,r0_Hl_Hl",
            "--frames", "4200", "--activation", "model", "--distances", "worst",
            "--shadowing", "mean")
    paths = [tmp_path / f"run{i}.csv" for i in range(3)]
    assert run_cli("compare", *args, "--workers", "1", "--out", str(paths[0])) == 0
    assert run_cli("compare", *args, "--workers", "2", "--out", str(paths[1])) == 0
    assert run_cli("compare", *args, "--workers", "1", "--out", str(paths[2])) == 0
    blobs = [path.read_bytes() for path in paths]
    assert blobs[0] == blobs[1] == blobs[2]
    rows = read_rows(paths[0])
    assert len(rows) == 4 and {row["n_frames"] for row in rows} == {"4200"}
    assert {row["deviation_flag"] for row in rows} == {"ok"}


def test_matched_compare_computes_each_cell_once_per_configuration(capsys, monkeypatch):
    # the rows of a configuration share one grid across load points, so a
    # command builds each configuration's grid once, in one engine pass, and
    # computes each (K1, K2) once; each row builds its model cdf once
    passes, builds = [], []
    receptions, model_pmf = montecarlo._receptions, montecarlo._model_pmf

    def count_passes(cfg, counts, *args):
        passes.append((cfg, counts))
        return receptions(cfg, counts, *args)

    def count_builds(*args):
        builds.append(args)
        return model_pmf(*args)

    monkeypatch.setattr(montecarlo, "_receptions", count_passes)
    monkeypatch.setattr(montecarlo, "_model_pmf", count_builds)
    assert run_cli("compare", "--lambda1", "6,12", "--lambda2", "4", "--configurations",
                   "r1_Hl_Hh,r1_Hh_Hl,r0_Hl_Hl", "--frames", "20000", "--activation", "model",
                   "--distances", "worst", "--shadowing", "mean") == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == len(builds) == 6 and {row["deviation_flag"] for row in rows} == {"ok"}
    assert len(passes) == len({cfg for cfg, _ in passes}) == 3
    for cfg in {cfg for cfg, _ in passes}:
        cells = [tuple(key) for c, counts in passes if c == cfg for key in counts.tolist()]
        assert len(cells) == len(set(cells))


def test_compare_matched_mode_agrees(tmp_path):
    out = tmp_path / "compare.csv"
    assert run_cli("compare", "--lambda1", "6", "--lambda2", "4",
                   "--configurations", "r0_Hl_Hl,r1_Hl_Hh",
                   "--activation", "exhaustive", "--distances", "worst",
                   "--shadowing", "mean", "--out", str(out)) == 0
    rows = read_rows(out)
    assert len(rows) == 2
    for row in rows:
        assert row["deviation_flag"] == "ok"
        assert abs(float(row["mc_mean"]) - float(row["throughput_bpshz"])) <= (
            1e-9 * float(row["throughput_bpshz"]))


def test_compare_requires_frames(capsys, tmp_path):
    assert run_cli("compare", "--lambda1", "5", "--lambda2", "5",
                   "--out", str(tmp_path / "c.csv")) == 2


def test_compare_sampled_matched_flags_nothing(tmp_path):
    out = tmp_path / "compare.csv"
    assert run_cli("compare", "--lambda1", "8", "--lambda2", "5",
                   "--configurations", "r1_Hl_Hh", "--frames", "4000",
                   "--activation", "model", "--distances", "worst",
                   "--shadowing", "mean", "--seed", "5", "--out", str(out)) == 0
    row = read_rows(out)[0]
    assert row["deviation_flag"] == "ok"
    assert float(row["mc_ci_low"]) <= float(row["mc_mean"]) <= float(row["mc_ci_high"])


def test_config_file_and_overrides_flow(tmp_path, capsys):
    cfg = tmp_path / "system.cfg"
    cfg.write_text("n_users = 10\n")
    assert run_cli("eval", "--lambda1", "2", "--lambda2", "2",
                   "--config", str(cfg), "--set", "d_0_m=50") == 0
    expected_config = default_config()
    expected_config["n_users"] = 10
    expected_config["d_0_m"] = 50
    params = validate_and_derive(expected_config)
    out = capsys.readouterr().out
    assert f"{params.h_low:.4f}" in out


@pytest.mark.parametrize("argv", [
    ("eval", "--lambda1", "5", "--lambda2", "3", "--exhaustive"),
    ("optimize", "--lambda1", "5", "--lambda2", "3"),
    ("sweep", "--lambda1", "5,7", "--lambda2", "3", "--configurations", "exhaustive,optimal"),
    ("compare", "--lambda1", "5,7", "--lambda2", "3", "--configurations", "r1_Hl_Hh,r0_Hl_Hl",
     "--activation", "exhaustive"),
], ids=["eval", "optimize", "sweep", "compare"])
def test_split_weights_built_once_per_call(capsys, monkeypatch, argv):
    # they depend on N alone; every table of a call, the matched engine's
    # included, reads the one build its parameter set keeps
    built = []

    def counted(n):
        built.append(n)
        return split_weight_grid(n)

    monkeypatch.setattr("uav_twoway.params.split_weight_grid", counted)
    assert run_cli(*argv) == 0
    assert built == [30]


def test_split_weights_outlive_no_call(capsys, monkeypatch):
    # the weights live with the call's parameter set: a second command in
    # the same process builds them again
    built = []

    def counted(n):
        built.append(n)
        return split_weight_grid(n)

    monkeypatch.setattr("uav_twoway.params.split_weight_grid", counted)
    argv = ("compare", "--lambda1", "6", "--lambda2", "4", "--configurations", "r1_Hl_Hh",
            "--frames", "100", "--activation", "model", "--distances", "worst",
            "--shadowing", "mean")
    assert run_cli(*argv) == 0
    first = capsys.readouterr().out
    assert run_cli(*argv) == 0
    assert capsys.readouterr().out == first
    assert built == [30, 30]


def count_grids(monkeypatch):
    """The configuration labels of every ``MatchedGrid`` built, in order."""
    built = []

    class Counted(montecarlo.MatchedGrid):
        def __init__(self, cfg, system):
            built.append(cfg.label)
            super().__init__(cfg, system)

    monkeypatch.setattr(montecarlo, "MatchedGrid", Counted)
    return built


def test_exhaustive_matched_tables_built_once_per_call(capsys, monkeypatch):
    # a matched grid depends on the configuration alone: one build per
    # configuration a row reads, whatever the number of points
    built = count_grids(monkeypatch)
    assert run_cli("compare", "--lambda1", "6,12", "--lambda2", "4", "--configurations",
                   "exhaustive", "--activation", "exhaustive") == 0
    assert sorted(built) == sorted(all_configurations())
    out = capsys.readouterr().out
    assert out.count("\n") == 1 + 2 * 8 and "DEVIATION" not in out


@pytest.mark.parametrize("lambdas", [(1.0, 18.0), (6.0, 4.0), (18.0, 1.0)])
def test_exhaustive_optimal_builds_only_its_winner(capsys, monkeypatch, params, lambdas):
    # an optimal row reads its winner's grid alone
    built = count_grids(monkeypatch)
    best, _ = optimal_configuration(LoadDistribution(*lambdas), params)
    assert run_cli("compare", "--lambda1", repr(lambdas[0]), "--lambda2", repr(lambdas[1]),
                   "--configurations", "optimal", "--activation", "exhaustive") == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert built == [best.label]
    assert len(rows) == 1 and rows[0]["deviation_flag"] == "ok"


def test_exhaustive_rows_are_the_library_value(capsys, params):
    # the CLI's exhaustive mean is simulate_exhaustive's, bit for bit, with
    # no interval, for every configuration at each point
    assert run_cli("compare", "--lambda1", "6,1", "--lambda2", "4,18", "--configurations",
                   "exhaustive", "--activation", "exhaustive") == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    configs = all_configurations()
    assert len(rows) == 4 * len(configs)
    for row in rows:
        cfg = configs[row["configuration"]]
        loads = LoadDistribution(float(row["lambda1"]), float(row["lambda2"]))
        exact = montecarlo.simulate_exhaustive(cfg, loads, params)
        assert row["mc_ci_low"] == row["mc_ci_high"] == row["mc_mean"] == repr(exact)
        assert row["n_frames"] == "0" and row["deviation_flag"] == "ok"


def test_exhaustive_rows_keep_their_bits_at_any_blas_thread_count(tmp_path):
    # at N = 200 a row sums 40,401 products, which a threaded BLAS dot would
    # split by its thread count; each row must hold the same bits either way
    env = dict(os.environ, PYTHONPATH=str(Path(uav_twoway.__file__).parents[1]))
    argv = (sys.executable, "-m", "uav_twoway.cli", "compare", "--lambda1", "6,1",
            "--lambda2", "4", "--configurations", "exhaustive", "--activation", "exhaustive",
            "--set", "n_users=200")
    blobs = [subprocess.run(argv, env=dict(env, OPENBLAS_NUM_THREADS=threads), cwd=tmp_path,
                            capture_output=True, timeout=60, check=True).stdout
             for threads in ("1", "2")]
    assert blobs[0] == blobs[1] and blobs[0].count(b"\n") == 17


OVERLAP_ARGV = {
    "eval": ("eval", "--lambda1", "5", "--lambda2", "3"),
    "optimize": ("optimize", "--lambda1", "5", "--lambda2", "3"),
    "sweep": ("sweep", "--lambda1", "5", "--lambda2", "3"),
    "compare": ("compare", "--lambda1", "5", "--lambda2", "3", "--frames", "10"),
}


@pytest.mark.parametrize("argv", OVERLAP_ARGV.values(), ids=OVERLAP_ARGV)
def test_overlapping_cells_warn_once_on_stderr(capsys, monkeypatch, argv):
    # a low lobe's footprint, of radius d_0 + h_0 tan(phi_b), reaches the
    # other cell below d_sep = 2 d_0 + h_0 tan(phi_b), 201.73 m by default
    for d_sep, warnings in (("201.7", 1), ("201.8", 0)):
        assert run_cli(*argv, "--set", f"d_sep_m={d_sep}") == 0
        err = capsys.readouterr().err
        assert err.count("warning: d_sep_m=") == warnings
        if warnings:
            assert err.startswith("warning: d_sep_m=201.7 is below 2*d_0 + h_0*tan(phi_b) "
                                  "= 201.73205080756887 m")
    # the warning leaves the exit code and stdout as they are
    assert run_cli(*argv) == 0
    quiet = capsys.readouterr()
    monkeypatch.setattr(SystemParams, "d_sep_min", property(lambda self: math.inf))
    assert run_cli(*argv) == 0
    warned = capsys.readouterr()
    assert quiet.err == "" and warned.err.count("warning: d_sep_m=300.0 ") == 1
    assert warned.out == quiet.out


def test_missing_config_file_exits_2(capsys):
    assert run_cli("eval", "--lambda1", "1", "--lambda2", "1",
                   "--config", "/nonexistent/path.cfg") == 2


@pytest.fixture
def no_rows(monkeypatch):
    """Fails the test if a grid command computes any CSV row."""
    def computed(*args):
        pytest.fail("a row was computed before the input was rejected")
    monkeypatch.setattr(cli, "_point_rows", computed)


def test_unusable_config_or_out_exits_2_naming_the_flag(capsys, tmp_path, no_rows):
    # a directory once ended in an IsADirectoryError traceback, a binary
    # file in exit 3, and a missing --out directory was reported after the
    # whole grid had run
    binary = tmp_path / "binary.cfg"
    binary.write_bytes(b"\x7fELF\xff\xfe\x00\x01")
    point = ("--lambda1", "5", "--lambda2", "3")
    grid = (*point, "--frames", "3")
    for argv, flag in ((("eval", *point, "--config", str(tmp_path)), "--config"),
                       (("optimize", *point, "--config", str(binary)), "--config"),
                       (("eval", *point, "--config", str(tmp_path / "missing.cfg")), "--config"),
                       (("compare", *grid, "--config", str(binary)), "--config"),
                       (("sweep", *grid, "--out", str(tmp_path)), "--out"),
                       (("compare", *grid, "--out", str(tmp_path / "missing" / "x.csv")),
                        "--out")):
        capsys.readouterr()
        assert run_cli(*argv) == 2, argv
        assert f"error: {flag}=" in capsys.readouterr().err, argv


def test_binomial_rate_above_population_exits_2_naming_the_flag(capsys, no_rows):
    # each user is active with probability lambda / N, N = 30 here
    for lambda1, lambda2, named in (("50", "3", "--lambda1=50.0"),
                                    ("3", "2,31", "--lambda2=31.0")):
        capsys.readouterr()
        assert run_cli("compare", "--lambda1", lambda1, "--lambda2", lambda2,
                       "--frames", "3", "--activation", "binomial") == 2
        assert f"error: {named}:" in capsys.readouterr().err


def test_binomial_rate_above_population_is_fine_without_frames(capsys):
    assert run_cli("sweep", "--lambda1", "50", "--lambda2", "3", "--frames", "0",
                   "--activation", "binomial") == 0


# key -> (low, high): CONFIG_SCHEMA's documented range ends. h_0_m has
# none, and 1e6 m breaks the guard.
RANGE_ENDS = {
    "f_c_hz": (1e6, 1e12), "c_mps": (1e7, 1e9), "p_u_dbm": (-100.0, 100.0),
    "p_g_dbm": (-100.0, 100.0), "noise_dbm": (-250.0, 0.0), "d_0_m": (1.0, 1e5),
    "d_sep_m": (1.0, 1e6), "n_users": (1, MAX_USERS), "phi_b_rad": (1e-3, math.pi / 2 - 1e-3),
    "h_0_m": (0.0, 1e6), "n_los": (1.0, 10.0), "n_nlos": (1.0, 10.0),
    "mu_los_db": (-100.0, 100.0), "sigma_los_db": (0.0, 50.0),
    "mu_nlos_db": (-100.0, 100.0), "sigma_nlos_db": (0.0, 50.0),
}
NOT_NUMBERS = ("abc", "", "nan", "-inf")
IN_RANGE_LOADS = ("1e-09", "5", "1e10")
LOADS = IN_RANGE_LOADS + ("0", "2e10", "inf", "nan")


def inside(key):
    """The key's range ends, the values just inside them and its middle.
    n_users stays at most 60, so an example takes a fraction of a second."""
    low, high = RANGE_ENDS[key]
    if key == "n_users":
        return (1, 2, 30, 59, 60)
    return (low, high, math.nextafter(low, high), math.nextafter(high, low), (low + high) / 2)


def outside(key):
    """The values just outside the key's range ends, and non-numbers."""
    low, high = RANGE_ENDS[key]
    if key == "n_users":
        return (0, high + 1, 1.5, *NOT_NUMBERS)
    beyond = [math.nextafter(low, -math.inf)]
    if key != "h_0_m":
        beyond.append(math.nextafter(high, math.inf))
    return (*beyond, *NOT_NUMBERS)


@st.composite
def overrides(draw):
    """In-range values for a random subset of the keys, and at most one
    key outside its range."""
    keys = sorted(RANGE_ENDS)
    values = {key: draw(st.sampled_from(inside(key)))
              for key in draw(st.lists(st.sampled_from(keys), unique=True))}
    bad = draw(st.none() | st.sampled_from(keys))
    if bad is not None:
        values[bad] = draw(st.sampled_from(outside(bad)))
    return values


def test_range_ends_cover_every_key():
    assert set(RANGE_ENDS) == set(CONFIG_SCHEMA)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from((("eval",), ("eval", "--exhaustive"), ("optimize",))), overrides(),
       *[st.sampled_from(IN_RANGE_LOADS) | st.sampled_from(LOADS)] * 2)
def test_point_commands_exit_0_or_2_naming_the_input(command, values, lambda1, lambda2):
    # eval and optimize end in bounded time whatever their input: every
    # exit 2 names a key that was set, or a load
    assignments = [f"--set={key}={value}" for key, value in values.items()]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([*command, "--lambda1", lambda1, "--lambda2", lambda2, *assignments])
    message = err.getvalue()
    event(f"exit {code}")
    assert code in (0, 2), message
    if code == 2:  # the error, not the overlap warning, names the input
        error = message.split("error: ", 1)[-1]
        assert any(name in error for name in (*values, "--lambda1=", "--lambda2=")), message
