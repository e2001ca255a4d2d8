"""Refusals and guards that no other test reaches: each row of the table
calls the public or module-level entry with one bad input and names the
error it must raise, so that a deleted check shows as a missing or different
error."""

import numpy as np
import pytest

from binlbm import (
    BinaryDataMatrix,
    BlockCounts,
    CoPartition,
    ExperimentError,
    FitResult,
    LBMParameters,
    PriorHyperparams,
    SelectionResult,
    TuningRecord,
    ValidationError,
    VariationalState,
    export_reordered,
    robustness_experiment,
    stratified_subsample,
    vbayes_step,
)
from binlbm import evaluation
from binlbm.cli import main
from binlbm.evaluation import _largest_remainder
from binlbm.inference import _one_hot
from binlbm.rng import derive_rng

PARAMS = LBMParameters(2, 2, [0.5, 0.5], [0.5, 0.5], [[0.2, 0.7], [0.6, 0.3]])
PART = CoPartition(np.array([0, 1, 1]), np.array([1, 0]), 2, 2)
STATE = VariationalState(_one_hot(PART.z, 2), _one_hot(PART.w, 2))
DATA = BinaryDataMatrix([[0, 1], [1, 1], [1, 0], [0, 0]])
REF_Z = np.array([0, 0, 1, 1])


def fit_result(**changes):
    fields = dict(params=PARAMS, state=STATE, map_part=PART, free_energy=-1.0,
                  icl_value=-2.0, iterations=1, restart_index=0, chain_free_energies=(-1.0,))
    return FitResult(**{**fields, **changes})


def make_block_counts(n1, n0, row_sizes, col_sizes):
    return BlockCounts(np.array(n1), np.array(n0), np.array(row_sizes), np.array(col_sizes))


REFUSALS = [
    pytest.param(lambda tmp: stratified_subsample(DATA, REF_Z, [[0.5, 0.5]], 2, seed=0),
                 ValidationError, "proportions must be a non-empty 1-d vector",
                 id="subsample-2d-proportions"),
    pytest.param(lambda tmp: stratified_subsample(DATA, REF_Z, [1.5, -0.5], 2, seed=0),
                 ValidationError, r"^proportions entries must lie in \[0, 1\]$",
                 id="subsample-negative-proportion"),
    pytest.param(lambda tmp: stratified_subsample(DATA, REF_Z, [np.nan, 1.0], 2, seed=0),
                 ValidationError, r"^proportions entries must lie in \[0, 1\]$",
                 id="subsample-nan-proportion"),
    # within the 1e-8 sum tolerance, but above 1
    pytest.param(lambda tmp: stratified_subsample(DATA, REF_Z, [1 + 5e-9, 0.0], 2, seed=0),
                 ValidationError, r"^proportions entries must lie in \[0, 1\]$",
                 id="subsample-proportion-above-one"),
    pytest.param(lambda tmp: stratified_subsample(DATA, REF_Z, [0.5, 0.4], 2, seed=0),
                 ValidationError, r"^proportions must sum to 1 within 1e-08, got 0\.9$",
                 id="subsample-proportions-below-one"),
    pytest.param(lambda tmp: stratified_subsample(DATA, REF_Z[:3], [0.5, 0.5], 2, seed=0),
                 ValidationError, "ref_z length must equal the number of data rows",
                 id="subsample-short-ref-z"),
    pytest.param(lambda tmp: stratified_subsample(DATA, REF_Z, [0.5, 0.5], 5, seed=0),
                 ValidationError, r"n_sub must lie in \[1, 4\], got 5",
                 id="subsample-n-sub-above-n"),
    pytest.param(lambda tmp: VariationalState(np.array([0.5, 0.5]), np.ones((2, 1))),
                 ValidationError, "tau must be a non-empty 2-d matrix",
                 id="state-1d-tau"),
    pytest.param(lambda tmp: VariationalState(np.ones((2, 1)), np.array([[1.5, -0.5]])),
                 ValidationError, r"nu entries must lie in \[0, 1\]",
                 id="state-nu-out-of-range"),
    pytest.param(lambda tmp: VariationalState(np.array([[np.nan, 1.0]]), np.ones((2, 1))),
                 ValidationError, r"^tau entries must lie in \[0, 1\]$",
                 id="state-tau-nan"),
    pytest.param(lambda tmp: VariationalState(np.array([[0.5, 0.4]]), np.ones((2, 1))),
                 ValidationError, r"^each row of tau must sum to 1 within 1e-10, got 0\.9$",
                 id="state-tau-row-sum"),
    pytest.param(lambda tmp: fit_result(free_energy=float("nan")),
                 ValidationError, "free_energy must be finite",
                 id="fit-result-nan-free-energy"),
    pytest.param(lambda tmp: fit_result(map_part=CoPartition(PART.z, PART.w, 3, 2)),
                 ValidationError, "map_part group counts must match the parameters",
                 id="fit-result-group-counts"),
    pytest.param(lambda tmp: LBMParameters(2, 2, [0.2, 0.3, 0.5], PARAMS.rho, PARAMS.alpha),
                 ValidationError, r"pi must have shape \(2,\), got \(3,\)",
                 id="parameters-pi-shape"),
    pytest.param(lambda tmp: LBMParameters(2, 2, PARAMS.pi, [1.0], PARAMS.alpha),
                 ValidationError, r"rho must have shape \(2,\), got \(1,\)",
                 id="parameters-rho-shape"),
    pytest.param(lambda tmp: LBMParameters(2, 2, PARAMS.pi, PARAMS.rho, PARAMS.alpha.T[:1]),
                 ValidationError, r"alpha must have shape \(2, 2\), got \(1, 2\)",
                 id="parameters-alpha-shape"),
    pytest.param(lambda tmp: LBMParameters(2, 2, [1.5, -0.5], PARAMS.rho, PARAMS.alpha),
                 ValidationError, r"pi entries must lie in \[0, 1\]",
                 id="parameters-pi-out-of-range"),
    pytest.param(lambda tmp: LBMParameters(2, 2, [np.nan, 1.0], PARAMS.rho, PARAMS.alpha),
                 ValidationError, r"^pi entries must lie in \[0, 1\]$",
                 id="parameters-pi-nan"),
    pytest.param(lambda tmp: LBMParameters(2, 2, [0.5, 0.4], PARAMS.rho, PARAMS.alpha),
                 ValidationError, r"^pi must sum to 1 within 1e-12, got 0\.9$",
                 id="parameters-pi-sum"),
    pytest.param(lambda tmp: LBMParameters(2, 2, PARAMS.pi, PARAMS.rho,
                                           [[np.inf, 0.5], [0.5, 0.5]]),
                 ValidationError, r"^alpha entries must lie in \[0, 1\]$",
                 id="parameters-alpha-inf"),
    pytest.param(lambda tmp: make_block_counts([[1]], [[0]], [1, 1], [1]),
                 ValidationError, "block count shapes are inconsistent",
                 id="block-counts-shapes"),
    pytest.param(lambda tmp: make_block_counts([[-1]], [[2]], [1], [1]),
                 ValidationError, "block counts must be non-negative",
                 id="block-counts-negative"),
    pytest.param(lambda tmp: make_block_counts([[1]], [[1]], [1], [1]),
                 ValidationError, "n1 \\+ n0 must equal the block cell counts",
                 id="block-counts-cells"),
    pytest.param(lambda tmp: CoPartition(np.array([[0]]), np.array([0]), 1, 1),
                 ValidationError, "z must be a non-empty 1-d vector",
                 id="labels-2d"),
    pytest.param(lambda tmp: CoPartition(np.array([0]), np.array([0.0]), 1, 1),
                 ValidationError, "w must be integer-valued",
                 id="labels-float"),
    pytest.param(lambda tmp: vbayes_step(DATA, STATE, PARAMS, PriorHyperparams()),
                 ValidationError, "variational state shapes do not match",
                 id="state-shapes-against-data"),
    pytest.param(lambda tmp: export_reordered(DATA, fit_result(), tmp / "out"),
                 ValidationError, "fit partition does not match the data dimensions",
                 id="export-size-mismatch"),
    pytest.param(lambda tmp: TuningRecord(0.1, (1, 2), (False,)),
                 ValidationError, "stop_t and censored must have equal lengths",
                 id="tuning-record-lengths"),
    pytest.param(lambda tmp: SelectionResult(((1, 1, fit_result()),)).cell(2, 2),
                 KeyError, r"\(2, 2\)",
                 id="selection-cell-outside-grid"),
    pytest.param(lambda tmp: _largest_remainder(np.array([0.6, 0.6]), 10, np.array([10, 10])),
                 ValidationError, "proportions sum above 1",
                 id="largest-remainder-over-one"),
    # without the check, the row no group has room for is sought forever
    pytest.param(lambda tmp: _largest_remainder(np.array([0.5, 0.5]), 5, np.array([2, 2])),
                 ValidationError, "^capacity 4 is below the 5 rows to allocate$",
                 id="largest-remainder-short-capacity"),
]


@pytest.mark.parametrize("call, error, message", REFUSALS)
def test_refusal(tmp_path, call, error, message):
    with pytest.raises(error, match=message):
        call(tmp_path)


def test_subsample_skips_groups_allocated_no_row():
    data = BinaryDataMatrix(np.arange(24).reshape(12, 2) % 2)
    ref_z = np.arange(12) % 3
    sub, labels, rows = stratified_subsample(data, ref_z, [0.5, 0.0, 0.5], 6, seed=4)
    assert 1 not in labels
    # long hand: groups 0 and 2 draw three rows each from one stream, in order
    rng = derive_rng(4)
    expected = np.sort(np.concatenate([rng.choice(np.flatnonzero(ref_z == k), size=3,
                                                  replace=False) for k in (0, 2)]))
    assert rows.tolist() == expected.tolist()
    assert labels.tolist() == ref_z[expected].tolist()
    assert np.array_equal(sub.values, data.values[expected])


def test_robustness_gives_up_after_the_attempt_cap(monkeypatch):
    simulated = []

    def counting_simulate(*args, **kwargs):
        simulated.append(kwargs.get("seed"))
        return real_simulate(*args, **kwargs)

    real_simulate = evaluation.simulate_dataset
    monkeypatch.setattr(evaluation, "MAX_ATTEMPTS", 2)
    monkeypatch.setattr(evaluation, "simulate_dataset", counting_simulate)
    # every selection misses the target (2, 2)
    monkeypatch.setattr(evaluation, "select_model",
                        lambda *args, **kwargs: SelectionResult(((1, 1, fit_result()),)))
    with pytest.raises(ExperimentError,
                       match=r"^epsilon=0\.1, dataset 0: no accepted data set within 2 "
                             r"attempts$"):
        robustness_experiment([0.1], 1, [10], 1, (2, 2), target_pair=(2, 2), n=20, q=10)
    assert len(simulated) == 2


def test_cli_refuses_a_malformed_target(tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        main(["tune-t", "--epsilon", "0.1", "--datasets", "1", "--target", "3x4",
              "--out", str(tmp_path / "out.json")])
    assert info.value.code == 2
    assert "argument --target: expected 'g,m', got '3x4'" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()
