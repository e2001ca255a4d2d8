"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  The statistical criteria use frozen master seeds;
every threshold below is pinned, nothing is calibrated at run time.
"""

import math
import time

import numpy as np
import pytest

from binlbm import (
    BinaryDataMatrix,
    CoPartition,
    PriorHyperparams,
    best_match,
    free_energy,
    gibbs_init,
    icl,
    robustness_experiment,
    select_model,
    simulate_dataset,
    staircase_parameters,
    summarize_inter_arrivals,
    tune_restarts,
    vbayes_step,
)
from binlbm.cli import main as cli_main
from binlbm.inference import _one_hot, VariationalState
from binlbm.rng import derive_seed
from oracles import (
    INTER_ARRIVAL_GAPS,
    TABLE5_EST,
    TABLE5_REF,
    best_match_bruteforce,
    icl_conjugate_oracle,
)

PRIOR = PriorHyperparams()
SEED_EPS005 = 104
SEED_EPS015 = 105
SEED_EPS030 = 106
SEED_ROBUST = 107


def report(criterion, ok, detail):
    print(f"[acceptance] criterion {criterion:>2}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def run_selection_batch(epsilon, count, master_seed):
    params = staircase_parameters(3, 4, epsilon)
    pairs = []
    for i in range(count):
        data, _ = simulate_dataset(params, 137, 33, seed=derive_seed(master_seed, i, 0))
        selection = select_model(data, 7, 7, prior=PRIOR, restarts=1,
                                 seed=derive_seed(master_seed, i, 1))
        pairs.append(selection.best_pair)
    return pairs


@pytest.fixture(scope="module")
def eps005_pairs():
    start = time.perf_counter()
    pairs = run_selection_batch(0.05, 20, SEED_EPS005)
    return pairs, time.perf_counter() - start


@pytest.fixture(scope="module")
def robustness_report():
    return robustness_experiment(
        [0.15], datasets_per_eps=10, sample_sizes=[20, 80, 120], samples_per_size=5,
        grid=(7, 7), prior=PRIOR, seed=SEED_ROBUST)


def test_criterion_01_icl_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    priors = [(4.0, 1.0), (1.0, 1.0), (2.0, 0.5)]
    worst = 0.0
    for case in range(50):
        n = int(rng.integers(1, 7))
        q = int(rng.integers(1, 6))
        g = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        a, b = priors[case % 3]
        data = BinaryDataMatrix(rng.integers(0, 2, size=(n, q)))
        part = CoPartition(rng.integers(0, g, size=n), rng.integers(0, m, size=q), g, m)
        value = icl(data, part, PriorHyperparams(a=a, b=b))
        expected = icl_conjugate_oracle(data.values.tolist(), part.z.tolist(),
                                        part.w.tolist(), g, m, a, b)
        worst = max(worst, abs(value - expected))
    elapsed = time.perf_counter() - start
    report(1, worst <= 1e-9 and elapsed < 10.0,
           f"max |icl - oracle| = {worst:.2e} over 50 cases in {elapsed:.2f}s")


def test_criterion_02_icl_closed_cases():
    single = BinaryDataMatrix(np.array([[0]]))
    part1 = CoPartition(np.array([0]), np.array([0]), 1, 1)
    err1 = abs(icl(single, part1, PRIOR) - (-math.log(2)))
    ones = BinaryDataMatrix(np.ones((2, 2), dtype=int))
    part2 = CoPartition(np.zeros(2, dtype=int), np.zeros(2, dtype=int), 1, 1)
    err2 = abs(icl(ones, part2, PRIOR) - (-math.log(5)))
    report(2, err1 <= 1e-12 and err2 <= 1e-12,
           f"1x1 err {err1:.2e}, 2x2 err {err2:.2e}")


def test_criterion_03_free_energy_ascent():
    start = time.perf_counter()
    rng = np.random.default_rng(3003)
    worst_dip = 0.0
    for trial in range(100):
        g = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        if trial % 2 == 0:
            data = BinaryDataMatrix(rng.integers(0, 2, size=(30, 15)))
        else:
            eps = float(rng.uniform(0.1, 0.4))
            data, _ = simulate_dataset(staircase_parameters(g, m, eps), 30, 15,
                                       seed=int(rng.integers(0, 2**31)))
        params, part = gibbs_init(data, g, m, PRIOR, sweeps=50,
                                  seed=int(rng.integers(0, 2**31)))
        state = VariationalState(_one_hot(part.z, g), _one_hot(part.w, m))
        previous = None
        for _ in range(500):
            state, params = vbayes_step(data, state, params, PRIOR)
            current = free_energy(data, state, params, PRIOR)
            if previous is not None:
                worst_dip = min(worst_dip, current - previous)
                if abs(current - previous) < 1e-6 * abs(current):
                    break
            previous = current
    elapsed = time.perf_counter() - start
    report(3, worst_dip >= -1e-8 and elapsed < 60.0,
           f"worst step change {worst_dip:.2e} over 100 fits in {elapsed:.1f}s")


def test_criterion_04_easy_regime_selection(eps005_pairs):
    pairs, elapsed = eps005_pairs
    hits = sum(pair == (3, 4) for pair in pairs)
    report(4, hits >= 17 and elapsed < 900.0,
           f"(3,4) selected on {hits}/20 datasets at eps=0.05 in {elapsed:.0f}s "
           f"(paper: 96/100)")


def test_criterion_05_t_two_regime():
    records = tune_restarts([0.15], datasets_per_eps=20, target_pair=(3, 4),
                            grid=(7, 7), prior=PRIOR, t_cap=2, seed=SEED_EPS015)
    record = records[0]
    hits = sum(1 for t, censored in zip(record.stop_t, record.censored)
               if not censored and t <= 2)
    report(5, hits >= 16,
           f"(3,4) selected at T<=2 on {hits}/20 datasets at eps=0.15 (paper: 100/100)")


def test_criterion_06_hard_regime_ordering(eps005_pairs):
    hard_pairs = run_selection_batch(0.3, 10, SEED_EPS030)
    hard_rate = sum(pair == (3, 4) for pair in hard_pairs) / 10.0
    easy_rate = sum(pair == (3, 4) for pair in eps005_pairs[0]) / 20.0
    report(6, hard_rate < easy_rate,
           f"T=1 success {hard_rate:.0%} at eps=0.3 vs {easy_rate:.0%} at eps=0.05 "
           f"(paper: 24% vs 96%)")


def test_criterion_07_subsample_selection(robustness_report):
    cell80 = robustness_report.cell(0.15, 80)
    total80 = sum(cell80.pair_counts.values())
    share80 = cell80.pair_counts.get((3, 4), 0) / total80
    cell20 = robustness_report.cell(0.15, 20)
    count34 = cell20.pair_counts.get((3, 4), 0)
    strictly_modal = all(count < count34 for pair, count in cell20.pair_counts.items()
                         if pair != (3, 4))
    report(7, share80 >= 0.90 and strictly_modal,
           f"n=80: (3,4) on {share80:.0%} of samples (paper 99.0%); "
           f"n=20 counts {cell20.pair_counts} with (3,4) strictly modal: {strictly_modal}")


def test_criterion_08_misclassification_bound_and_trend(robustness_report):
    bound_ok = True
    for cell in robustness_report.cells:
        for rate in cell.rates_by_g.get(3, ()):
            bound_ok = bound_ok and rate <= 2.0 / 3.0 + 1e-12
    median20 = float(np.median(robustness_report.cell(0.15, 20).rates_by_g[3]))
    median120 = float(np.median(robustness_report.cell(0.15, 120).rates_by_g[3]))
    report(8, bound_ok and median120 <= median20,
           f"all g-hat=3 rates <= 2/3: {bound_ok}; median rate "
           f"{median120:.3f} at n=120 vs {median20:.3f} at n=20")


def test_criterion_09_label_matching():
    start = time.perf_counter()
    table5 = best_match(TABLE5_REF, TABLE5_EST, 3, 3)
    table5_ok = table5.misclassified == 3 and table5.mapping == (0, 2, 1)
    rng = np.random.default_rng(9009)
    mismatches = 0
    for _ in range(200):
        g_ref = int(rng.integers(1, 5))
        g_est = int(rng.integers(1, 5))
        n = int(rng.integers(2, 40))
        ref = rng.integers(0, g_ref, size=n)
        est = rng.integers(0, g_est, size=n)
        ours = best_match(ref, est, g_ref, g_est).misclassified
        brute = best_match_bruteforce(ref.tolist(), est.tolist(), g_ref, g_est)
        mismatches += ours != brute
    elapsed = time.perf_counter() - start
    report(9, table5_ok and mismatches == 0 and elapsed < 10.0,
           f"switching example gives 3 misclassified; {200 - mismatches}/200 "
           f"oracle agreements in {elapsed:.2f}s")


def test_criterion_10_inter_arrival_statistics():
    occurrences = np.cumsum(INTER_ARRIVAL_GAPS).tolist()
    summary = summarize_inter_arrivals(occurrences)
    exact = (summary.minimum == 700.0 and summary.median == 6595.5
             and summary.mean == 10534.125 and summary.maximum == 36345.0)
    report(10, exact,
           f"min={summary.minimum}, median={summary.median}, "
           f"mean={summary.mean}, max={summary.maximum}")


def test_criterion_11_cli_determinism(tmp_path):
    data_path = tmp_path / "data.csv"
    assert cli_main(["simulate", "--epsilon", "0.15", "--g", "2", "--m", "2",
                     "--n", "20", "--q", "10", "--seed", "3",
                     "--out", str(data_path)]) == 0
    payloads = []
    for name, threads in (("a", "1"), ("b", "1"), ("c", "2")):
        out = tmp_path / f"sel_{name}.json"
        assert cli_main(["select", "--data", str(data_path), "--g-max", "3",
                         "--m-max", "3", "--restarts", "2", "--seed", "7",
                         "--threads", threads, "--out", str(out)]) == 0
        payloads.append(out.read_bytes())
    select_ok = payloads[0] == payloads[1] == payloads[2]

    tune_payloads = []
    for name in ("a", "b"):
        out = tmp_path / f"tune_{name}.json"
        assert cli_main(["tune-t", "--epsilon", "0.05", "--datasets", "1",
                         "--target", "3,4", "--g-max", "4", "--m-max", "5",
                         "--t-cap", "2", "--n", "40", "--q", "16", "--seed", "5",
                         "--out", str(out)]) == 0
        tune_payloads.append(out.read_bytes())
    tune_ok = tune_payloads[0] == tune_payloads[1]
    report(11, select_ok and tune_ok,
           f"select payload identical across reruns and threads: {select_ok}; "
           f"tune-t rerun identical: {tune_ok}")
