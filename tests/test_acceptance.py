"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``)."""

import csv
import math
import random

import pytest

from uav_twoway import default_config, validate_and_derive
from uav_twoway.cli import main as cli_main
from uav_twoway.montecarlo import ActivationModel, simulate, simulate_exhaustive
from uav_twoway.pairing import AccountingMode, pair_counts, schedule_frame, unit_counts
from uav_twoway.sinr import Configuration, candidate_configurations
from uav_twoway.throughput import (LoadDistribution, average_throughput,
                                   optimal_configuration, skellam_pmf)

from test_throughput import brute_force_average, skellam_convolution

GRID_LAMBDA1 = [float(v) for v in range(1, 21)]          # 20 values
GRID_LAMBDA2 = [2.0, 6.0, 10.0, 14.0, 18.0]              # 5 values


def report(criterion: str, ok: bool, detail: str = ""):
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'}"
          + (f" ({detail})" if detail else ""))
    assert ok, f"{criterion} failed: {detail}"


def test_criterion_1_constants(params):
    ok_g0 = abs(params.g0 - 2.2846) < 1e-4
    ok_low = abs(params.h_low - 58.735) < 1e-3
    ok_high = abs(params.h_high - 230.94) < 1e-3
    report("criterion 1 (derived constants)", ok_g0 and ok_low and ok_high,
           f"g0={params.g0:.5f} h_low={params.h_low:.3f} h_high={params.h_high:.3f}")


def test_criterion_2_skellam_oracle():
    worst = 0.0
    for lam1 in (0.5, 2.0, 10.0):
        for lam2 in (0.5, 2.0, 10.0):
            for k in range(-30, 31):
                gap = abs(skellam_pmf(k, lam1, lam2) - skellam_convolution(k, lam1, lam2))
                worst = max(worst, gap)
    mass_gap = abs(math.fsum(skellam_pmf(k, 5.0, 5.0) for k in range(-60, 61)) - 1.0)
    report("criterion 2 (Skellam vs convolution oracle)",
           worst <= 1e-10 and mass_gap < 1e-12,
           f"max_abs_err={worst:.2e} mass_gap={mass_gap:.2e}")


def test_criterion_3_regrouping_small_n():
    config = default_config()
    config["n_users"] = 6
    params = validate_and_derive(config)
    configs = (Configuration(1, 0, 1), Configuration(1, 1, 0), Configuration(0, 0, 0))
    rng = random.Random(2024)
    worst = 0.0
    for _ in range(5):
        lam1 = rng.uniform(0.5, 6.0)
        lam2 = rng.uniform(0.5, 6.0)
        for cfg in configs:
            expected = brute_force_average(cfg, lam1, lam2, params)
            actual = average_throughput(cfg, LoadDistribution(lam1, lam2),
                                        params).total
            worst = max(worst, abs(actual - expected) / abs(expected))
    report("criterion 3 (load-difference regrouping, N=6)", worst <= 1e-9,
           f"max_rel_err={worst:.2e}")


def test_criterion_4_pair_count_conservation():
    candidates = candidate_configurations()
    ok = True
    for cfg in candidates.values():
        for k1 in range(0, 31):
            for k2 in range(0, 31):
                counts = pair_counts(k1 - k2, k2, cfg.t1, cfg.t2, AccountingMode.CONSISTENT)
                if 2 * counts.a_d + 2 * counts.a_s + counts.b != k1 + k2:
                    ok = False
                scheduled = unit_counts(schedule_frame(
                    list(range(k1)), list(range(k1, k1 + k2)), cfg))
                if scheduled != counts:
                    ok = False
    literal = pair_counts(3, 2, 0, 1, AccountingMode.PAPER_LITERAL)
    ok_literal = (literal.a_d, literal.a_s, literal.b) == (2, 3, 1)
    report("criterion 4 (pair-count conservation and scheduler match)",
           ok and ok_literal,
           f"exhaustive 31x31x3 conservation={ok} literal_example={ok_literal}")


def test_criterion_5_qualitative_reproduction(params):
    candidates = candidate_configurations()
    ok_balanced = True
    for lam in (5.0, 10.0, 15.0, 20.0):
        cfg, _ = optimal_configuration(LoadDistribution(lam, lam), params)
        ok_balanced &= cfg.label == "r0_Hl_Hl"
    cfg_heavy1, _ = optimal_configuration(LoadDistribution(25.0, 2.0), params)
    cfg_heavy2, _ = optimal_configuration(LoadDistribution(2.0, 25.0), params)
    ok_skewed = cfg_heavy1.label == "r1_Hl_Hh" and cfg_heavy2.label == "r1_Hh_Hl"
    ok_mirror = True
    for lam1, lam2 in ((25.0, 2.0), (13.0, 4.0), (7.5, 19.25)):
        direct = average_throughput(candidates["r1_Hl_Hh"],
                                    LoadDistribution(lam1, lam2), params).total
        mirrored = average_throughput(candidates["r1_Hh_Hl"],
                                      LoadDistribution(lam2, lam1), params).total
        ok_mirror &= direct == mirrored
    report("criterion 5 (qualitative optima and exact mirror symmetry)",
           ok_balanced and ok_skewed and ok_mirror,
           f"balanced->low/low={ok_balanced} skewed={ok_skewed} mirror_exact={ok_mirror}")


@pytest.fixture(scope="module")
def sweep_rows(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance") / "sweep.csv"
    code = cli_main(["sweep",
                     "--lambda1", ",".join(str(v) for v in GRID_LAMBDA1),
                     "--lambda2", ",".join(str(v) for v in GRID_LAMBDA2),
                     "--out", str(out)])
    assert code == 0
    with open(out, newline="") as fh:
        return list(csv.DictReader(fh))


def test_criterion_6_optimizer_dominance(sweep_rows):
    by_point = {}
    for row in sweep_rows:
        key = (row["lambda1"], row["lambda2"])
        by_point.setdefault(key, {})[row["configuration"]] = float(
            row["throughput_bpshz"])
    ok = len(by_point) == 100
    for values in by_point.values():
        for label in ("r1_Hl_Hh", "r1_Hh_Hl", "r0_Hl_Hl"):
            ok &= values["optimal"] >= values[label]
    report("criterion 6 (optimal column dominates row-wise on the 20x5 grid)", ok,
           f"points={len(by_point)}")


def test_criterion_7_model_simulator_consistency(params):
    candidates = candidate_configurations()
    worst_rel = 0.0
    for lam1, lam2 in ((10.0, 5.0), (25.0, 2.0)):
        loads = LoadDistribution(lam1, lam2)
        for cfg in candidates.values():
            analytical = average_throughput(cfg, loads, params).total
            exact = simulate_exhaustive(cfg, loads, params)
            worst_rel = max(worst_rel, abs(exact - analytical) / analytical)
    ok_exhaustive = worst_rel <= 1e-9

    loads = LoadDistribution(10.0, 5.0)
    cfg = candidates["r1_Hl_Hh"]
    analytical = average_throughput(cfg, loads, params).total
    sampled = simulate(cfg, loads, params, 100_000, seed=2718,
                       activation=ActivationModel.MODEL_MATCHED,
                       worst_case_distances=True, mean_shadowing=True)
    gap = abs(sampled.mean - analytical)
    ok_sampled = gap <= 3.0 * sampled.ci_half_width
    report("criterion 7 (matched-mode simulator reproduces the closed form)",
           ok_exhaustive and ok_sampled,
           f"exhaustive_rel={worst_rel:.2e} sampled_gap={gap:.4f} "
           f"3hw={3.0 * sampled.ci_half_width:.4f}")


def test_criterion_8_bound_dominance(params):
    candidates = candidate_configurations()
    ok = True
    tightest = math.inf
    for lam1 in GRID_LAMBDA1:
        for lam2 in GRID_LAMBDA2:
            loads = LoadDistribution(lam1, lam2)
            for cfg in candidates.values():
                analytical = average_throughput(cfg, loads, params).total
                empirical = simulate(cfg, loads, params, 300,
                                     seed=(31, int(lam1), int(lam2)),
                                     mean_shadowing=True,
                                     activation=ActivationModel.MODEL_MATCHED)
                margin = empirical.mean - analytical
                tightest = min(tightest, margin)
                ok &= empirical.mean >= analytical
    report("criterion 8 (exact-distance mean-shadowing simulation dominates "
           "the bound)", ok, f"min_margin={tightest:.3f} bits/s/Hz over 300 runs")


def test_criterion_9_determinism(tmp_path):
    args = ["sweep", "--lambda1", "3,11", "--lambda2", "4,9", "--frames", "30",
            "--seed", "77", "--activation", "poisson"]
    paths = [tmp_path / f"run{i}.csv" for i in range(3)]
    assert cli_main(args + ["--out", str(paths[0])]) == 0
    assert cli_main(args + ["--out", str(paths[1])]) == 0
    assert cli_main(args + ["--workers", "3", "--out", str(paths[2])]) == 0
    blobs = [path.read_bytes() for path in paths]
    ok = blobs[0] == blobs[1] == blobs[2]
    report("criterion 9 (byte-identical CSV across reruns and worker counts)", ok,
           f"{len(blobs[0])} bytes")
