import functools
import inspect
import pickle
from types import SimpleNamespace

import numpy as np
import pytest

from binlbm import (
    BinaryDataMatrix,
    NumericalError,
    PriorHyperparams,
    TuningRecord,
    ValidationError,
    icl,
    inter_arrivals,
    reference_model_study,
    robustness_experiment,
    select_model,
    simulate_dataset,
    staircase_parameters,
    summarize_inter_arrivals,
    tune_restarts,
)
from binlbm import evaluation, inference, parallel, selection
from binlbm.io import fit_payload
from binlbm.selection import _argmax_icl
from binlbm.rng import derive_seed
from oracles import INTER_ARRIVAL_GAPS

PRIOR = PriorHyperparams()


class TestSelectModel:
    def test_all_zeros_prefers_single_block(self):
        # with no structure the one-block model maximizes the ICL; confirm by
        # evaluating every fitted cell, not just trusting the argmax
        data = BinaryDataMatrix(np.zeros((20, 10), dtype=int))
        selection = select_model(data, 3, 3, prior=PRIOR, restarts=1, seed=5)
        assert selection.best_pair == (1, 1)
        single = selection.cell(1, 1)
        assert all(fr.icl_value <= single.icl_value for _, _, fr in selection.grid)
        # the (1, 1) cell's ICL is partition-free and recomputable directly
        assert single.icl_value == pytest.approx(
            icl(data, single.map_part, 1, 1, PRIOR), abs=0)

    def test_staircase_easy_regime(self):
        params = staircase_parameters(3, 4, 0.05)
        for s in (0, 1):
            data, _ = simulate_dataset(params, 137, 33, seed=derive_seed(42, s))
            selection = select_model(data, 7, 7, prior=PRIOR, restarts=1, seed=derive_seed(43, s))
            assert selection.best_pair == (3, 4)

    def test_singleton_grid(self):
        data = BinaryDataMatrix(np.eye(4, dtype=int))
        selection = select_model(data, 1, 1, prior=PRIOR, restarts=1, seed=0)
        assert selection.best_pair == (1, 1)
        assert len(selection.grid) == 1

    def test_best_dominates_grid(self):
        params = staircase_parameters(2, 2, 0.2)
        data, _ = simulate_dataset(params, 30, 14, seed=8)
        selection = select_model(data, 3, 3, prior=PRIOR, restarts=1, seed=9)
        assert all(fr.icl_value <= selection.best_fit.icl_value
                   for _, _, fr in selection.grid)

    def test_thread_schedule_independence(self):
        params = staircase_parameters(2, 3, 0.15)
        data, _ = simulate_dataset(params, 40, 16, seed=2)
        serial = select_model(data, 3, 3, prior=PRIOR, restarts=2, seed=7, threads=1)
        threaded = select_model(data, 3, 3, prior=PRIOR, restarts=2, seed=7, threads=4)
        assert serial.best_pair == threaded.best_pair
        for (g1, m1, f1), (g2, m2, f2) in zip(serial.grid, threaded.grid):
            assert (g1, m1) == (g2, m2)
            assert f1.icl_value == f2.icl_value
            assert f1.free_energy == f2.free_energy
            assert np.array_equal(f1.map_part.z, f2.map_part.z)

    def test_tie_breaking_prefers_parsimony(self):
        def cell(g, m, value):
            return (g, m, SimpleNamespace(icl_value=value))

        grid = (cell(1, 1, -5.0), cell(1, 2, -3.0), cell(2, 1, -3.0), cell(2, 2, -3.0))
        pair, _ = _argmax_icl(grid)
        assert pair == (1, 2)  # smallest g + m, then smallest g

    def test_larger_icl_beats_parsimony(self):
        grid = tuple((g, m, SimpleNamespace(icl_value=value))
                     for g, m, value in [(1, 1, -5.0), (1, 2, -3.0), (2, 2, -2.5), (2, 1, -3.0)])
        pair, best = _argmax_icl(grid)
        assert pair == (2, 2) and best is grid[2][2]

    def test_grid_bounds_validated(self):
        data = BinaryDataMatrix(np.zeros((2, 2), dtype=int))
        with pytest.raises(ValidationError):
            select_model(data, 0, 1, prior=PRIOR)

    def test_cell_error_keeps_its_type(self, monkeypatch):
        real_fit = selection.fit

        def refusing(data, g, m, **kwargs):
            if (g, m) == (2, 1):
                raise ValidationError("synthetic refusal")
            return real_fit(data, g, m, **kwargs)

        monkeypatch.setattr(selection, "fit", refusing)
        data = BinaryDataMatrix(np.eye(4, dtype=int))
        with pytest.raises(ValidationError) as excinfo:
            select_model(data, 2, 2)
        assert excinfo.type is ValidationError
        assert str(excinfo.value) == "grid cell (g=2, m=1) failed: synthetic refusal"


class TestTuneRestarts:
    def test_easy_case_stops_at_one(self):
        records = tune_restarts([0.05], datasets_per_eps=3, target_pair=(3, 4),
                                grid=(4, 5), prior=PRIOR, t_cap=3, seed=11, n=60, q=24)
        record = records[0]
        assert record.stop_t == (1, 1, 1)
        assert record.censored == (False, False, False)
        counts, censored = record.distribution()
        assert counts == {1: 3} and censored == 0

    def test_recorded_t_is_minimal(self):
        # frozen configuration where dataset 1 stops at exactly T = 2: replay
        # both selection rounds through the same stream derivation
        records = tune_restarts([0.22], datasets_per_eps=2, target_pair=(3, 4),
                                grid=(4, 5), prior=PRIOR, t_cap=3, seed=3, n=80, q=30)
        record = records[0]
        assert record.stop_t[1] == 2 and not record.censored[1]
        params = staircase_parameters(3, 4, 0.22)
        data, _ = simulate_dataset(params, 80, 30, seed=derive_seed(3, 0, 1, 0))
        at_one = select_model(data, 4, 5, prior=PRIOR, restarts=1, seed=derive_seed(3, 0, 1, 1))
        at_two = select_model(data, 4, 5, prior=PRIOR, restarts=2, seed=derive_seed(3, 0, 1, 2))
        assert at_one.best_pair != (3, 4)
        assert at_two.best_pair == (3, 4)

    def test_every_dataset_replays_from_its_keys(self):
        # the seed contract at the unit level: data set d at epsilon index e
        # is simulated from (seed, e, d, 0) and its selection at T restarts
        # runs from (seed, e, d, T), whatever the other data sets did
        seed, target, grid = 3, (3, 4), (4, 5)
        records = tune_restarts([0.05, 0.22], 2, target, grid, prior=PRIOR, t_cap=3,
                                seed=seed, n=80, q=30)
        assert not any(flag for record in records for flag in record.censored)
        stops = []
        for e, record in enumerate(records):
            params = staircase_parameters(*target, record.epsilon)
            for d, stop in enumerate(record.stop_t):
                data, _ = simulate_dataset(params, 80, 30, seed=derive_seed(seed, e, d, 0))

                def selected(t):
                    return select_model(data, *grid, prior=PRIOR, restarts=t,
                                        seed=derive_seed(seed, e, d, t)).best_pair

                assert selected(stop) == target
                if stop > 1:
                    assert selected(stop - 1) != target
                stops.append(stop)
        # one data set needs a second restart, so T - 1 is replayed too
        assert max(stops) == 2

    def test_censoring_is_recorded(self):
        records = tune_restarts([0.45], datasets_per_eps=2, target_pair=(3, 4),
                                grid=(4, 5), prior=PRIOR, t_cap=1, seed=5, n=40, q=16)
        record = records[0]
        assert record.censored == (True, True)
        assert record.stop_t == (1, 1)
        counts, censored = record.distribution()
        assert counts == {} and censored == 2

    def test_distribution_counts_by_t_and_tallies_censored(self):
        record = TuningRecord(0.1, stop_t=(3, 1, 5, 3, 2, 1, 5),
                              censored=(False, False, True, False, False, False, True))
        counts, censored = record.distribution()
        assert list(counts.items()) == [(1, 2), (2, 1), (3, 2)]
        assert censored == 2 and type(censored) is int

    def test_target_outside_grid_rejected(self):
        with pytest.raises(ValidationError):
            tune_restarts([0.1], 1, target_pair=(5, 5), grid=(4, 4), t_cap=1, seed=0)

    def test_invalid_epsilon_rejected_before_simulating(self, monkeypatch):
        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated a data set before checking every epsilon")

        monkeypatch.setattr(selection, "simulate_dataset", no_simulation)
        with pytest.raises(ValidationError, match="epsilon"):
            tune_restarts([0.05, 1.5], 1, target_pair=(1, 1), grid=(1, 1), t_cap=1)

    def test_thread_schedule_independence(self):
        kwargs = dict(datasets_per_eps=3, target_pair=(3, 4), grid=(4, 4),
                      prior=PRIOR, t_cap=2, seed=21, n=50, q=20)
        serial = tune_restarts([0.1], threads=1, **kwargs)
        threaded = tune_restarts([0.1], threads=3, **kwargs)
        assert serial[0].stop_t == threaded[0].stop_t
        assert serial[0].censored == threaded[0].censored


class TestInterArrivals:
    def test_gaps_from_indices(self):
        gaps = inter_arrivals([3, 5, 12])
        assert gaps.tolist() == [3, 2, 7]

    def test_validation(self):
        with pytest.raises(ValidationError):
            inter_arrivals([0, 2])
        with pytest.raises(ValidationError):
            inter_arrivals([4, 4])
        with pytest.raises(ValidationError):
            inter_arrivals([])

    def test_published_summary_reproduced_exactly(self):
        occurrences = np.cumsum(INTER_ARRIVAL_GAPS).tolist()
        summary = summarize_inter_arrivals(occurrences)
        assert summary.minimum == 700.0
        assert summary.first_quartile == 4533.75
        assert summary.median == 6595.5
        assert summary.mean == 10534.125
        assert summary.third_quartile == 13398.5
        assert summary.maximum == 36345.0

    def test_sum_reconstructs_last_occurrence(self):
        occurrences = [2, 9, 11, 40]
        assert int(inter_arrivals(occurrences).sum()) == occurrences[-1]


class TestReferenceStudy:
    def test_stable_case_all_gaps_one(self):
        params = staircase_parameters(2, 2, 0.05)
        data, _ = simulate_dataset(params, 40, 16, seed=13)
        study = reference_model_study(data, (2, 2), prior=PRIOR, runs=6, seed=17)
        assert len(set(study.selected_pairs)) == 1
        assert study.occurrence_indices == (1, 2, 3, 4, 5, 6)
        gaps = inter_arrivals(study.occurrence_indices)
        assert gaps.tolist() == [1] * 6
        assert study.inter_arrival_summary.maximum == 1.0

    def test_single_run_degenerate(self):
        data = BinaryDataMatrix(np.eye(5, dtype=int))
        study = reference_model_study(data, (2, 2), prior=PRIOR, runs=1, seed=3)
        assert study.runs == 1
        assert study.occurrence_indices == (1,)
        assert study.inter_arrival_summary.median == 1.0

    def test_reference_is_max_icl_run(self):
        params = staircase_parameters(3, 3, 0.25)
        data, _ = simulate_dataset(params, 50, 20, seed=23)
        study = reference_model_study(data, (3, 3), prior=PRIOR, runs=5, seed=29)
        # replay every run and check the reference attains the maximum ICL
        best = None
        for k in range(5):
            sel = select_model(data, 3, 3, prior=PRIOR, restarts=1, seed=derive_seed(29, k))
            if best is None or sel.best_fit.icl_value > best[1]:
                best = (sel.best_pair, sel.best_fit.icl_value)
        assert study.reference_pair == best[0]
        assert study.reference_icl == best[1]

    def test_thread_schedule_independence(self):
        params = staircase_parameters(2, 2, 0.1)
        data, _ = simulate_dataset(params, 30, 12, seed=31)
        serial = reference_model_study(data, (2, 2), prior=PRIOR, runs=4, seed=37, threads=1)
        threaded = reference_model_study(data, (2, 2), prior=PRIOR, runs=4, seed=37, threads=4)
        assert serial.selected_pairs == threaded.selected_pairs
        assert serial.reference_pair == threaded.reference_pair
        assert serial.occurrence_indices == threaded.occurrence_indices


# each study driver on a single-cell grid, with its positional arguments
DRIVERS = {
    "select_model": (select_model, (BinaryDataMatrix(np.eye(4, dtype=int)), 1, 1), {}),
    "reference_model_study": (reference_model_study,
                              (BinaryDataMatrix(np.eye(4, dtype=int)), (1, 1)), {}),
    "tune_restarts": (tune_restarts, ([0.1], 1, (1, 1), (1, 1)), dict(t_cap=1, n=10, q=5)),
    "robustness_experiment": (robustness_experiment, ([0.1], 1, [5], 1, (1, 1)),
                              dict(target_pair=(1, 1), n=10, q=5)),
}


@pytest.mark.parametrize("name", DRIVERS)
def test_driver_passes_chain_settings_to_fit(name):
    driver, args, kwargs = DRIVERS[name]
    with pytest.raises(ValidationError, match="tol must be > 0"):
        driver(*args, tol=0.0, **kwargs)
    with pytest.raises(TypeError, match="bogus"):
        driver(*args, bogus=1, **kwargs)
    # the prior is keyword-only: by position it binds to nothing
    with pytest.raises(TypeError):
        driver(*args, PRIOR, **kwargs)


# the drivers that draw data sets before their first fit call
SIMULATING = {"tune_restarts": selection, "robustness_experiment": evaluation}


@pytest.mark.parametrize("name", SIMULATING)
def test_bad_chain_keyword_rejected_before_simulating(name, monkeypatch):
    driver, args, kwargs = DRIVERS[name]
    drawn = []
    monkeypatch.setattr(SIMULATING[name], "simulate_dataset",
                        lambda *a, **k: drawn.append(a) or simulate_dataset(*a, **k))
    with pytest.raises(TypeError, match="bogus"):
        driver(*args, bogus=1, **kwargs)
    if name == "tune_restarts":
        # it sets restarts itself, at every T
        with pytest.raises(TypeError, match="restarts"):
            driver(*args, restarts=2, **kwargs)
    assert drawn == []

    # the check does not read fit, so a functools.wraps wrapper bound in its
    # place, as a tracer binds one, changes nothing
    calls = []
    real_fit = selection.fit

    @functools.wraps(real_fit)
    def traced(*a, **k):
        calls.append(a[1:3])
        return real_fit(*a, **k)

    monkeypatch.setattr(selection, "fit", traced)
    with pytest.raises(TypeError, match="bogus"):
        driver(*args, bogus=1, **kwargs)
    assert drawn == [] and calls == []
    driver(*args, gibbs_sweeps=2, **kwargs)
    assert drawn and calls


# chain settings fit refuses; tune_restarts sets restarts itself
BAD_CHAIN_SETTINGS = [
    pytest.param(name, {key: value}, id=f"{name}-{key}={value}")
    for name in ("select_model", *SIMULATING)
    for key, value in (("gibbs_sweeps", 0), ("max_iter", 0), ("tol", 0.0), ("tol", np.nan),
                       ("restarts", 0))
    if (name, key) != ("tune_restarts", "restarts")
]


@pytest.mark.parametrize("name, setting", BAD_CHAIN_SETTINGS)
def test_bad_chain_setting_rejected_before_simulating(name, setting, monkeypatch):
    # select_model simulates nothing: it refuses before its first cell
    driver, args, kwargs = DRIVERS[name]
    drawn, calls = [], []
    if name in SIMULATING:
        monkeypatch.setattr(SIMULATING[name], "simulate_dataset",
                            lambda *a, **k: drawn.append(a) or simulate_dataset(*a, **k))
    monkeypatch.setattr(selection, "fit", lambda *a, **k: calls.append(a[1:3]))
    with pytest.raises(ValidationError) as excinfo:
        driver(*args, **setting, **kwargs)
    # fit's own message, not a task's
    assert "failed:" not in str(excinfo.value)
    assert drawn == [] and calls == []


def test_chain_settings_check_binds_fit_chain_keywords():
    # the check takes every keyword of fit but the data, the cell and the
    # seed, with fit's defaults: a keyword added to fit alone fails here
    def keywords(function):
        return {name: parameter.default
                for name, parameter in inspect.signature(function).parameters.items()
                if name not in ("data", "g", "m", "seed")}

    assert keywords(inference._check_chain_settings) == keywords(inference.fit)


def test_reference_study_checks_chain_settings_before_the_first_run():
    driver, args, kwargs = DRIVERS["reference_model_study"]
    with pytest.raises(ValidationError, match="^gibbs_sweeps must be >= 1$"):
        driver(*args, gibbs_sweeps=0, **kwargs)
    # it sets restarts itself, at 1
    with pytest.raises(TypeError, match="restarts"):
        driver(*args, restarts=2, **kwargs)


@pytest.mark.parametrize("grid", [(0, 3), (3, 0)])
def test_reference_study_checks_its_grid_before_the_first_run(grid, monkeypatch):
    def no_selection(*args, **kwargs):
        raise AssertionError("ran a selection before checking the grid")

    monkeypatch.setattr(selection, "select_model", no_selection)
    data = BinaryDataMatrix(np.eye(4, dtype=int))
    # the grid's own message, not a run's
    with pytest.raises(ValidationError, match="^g_max and m_max must be >= 1$"):
        reference_model_study(data, grid, runs=2)


def failure_message(monkeypatch, k, driver, *args, **kwargs):
    """Run ``driver`` with the k-th call of fit (1-based) raising
    NumericalError and return the message it re-raises, which must keep
    that exact type.  The drivers run serially, so calls come in task order
    and, within a selection, in row-major cell order."""
    real_fit = selection.fit
    calls = []

    @functools.wraps(real_fit)
    def failing(*a, **kw):
        calls.append(None)
        if len(calls) == k:
            raise NumericalError("synthetic failure")
        return real_fit(*a, **kw)

    monkeypatch.setattr(selection, "fit", failing)
    with pytest.raises(NumericalError) as excinfo:
        driver(*args, **kwargs)
    assert excinfo.type is NumericalError
    return str(excinfo.value)


class TestDriverErrors:
    """A failing task re-raises with its own type and its key in front."""

    def test_select_model_names_the_cell(self, monkeypatch):
        data = BinaryDataMatrix(np.eye(4, dtype=int))
        assert failure_message(monkeypatch, 3, select_model, data, 2, 2) == (
            "grid cell (g=2, m=1) failed: synthetic failure")

    def test_reference_study_names_the_run(self, monkeypatch):
        data, _ = simulate_dataset(staircase_parameters(2, 2, 0.1), 30, 12, seed=31)
        message = failure_message(monkeypatch, 2 * 4 + 2, reference_model_study,
                                  data, (2, 2), runs=3, seed=37)
        assert message == ("reference run 2 failed: grid cell (g=1, m=2) failed: "
                           "synthetic failure")

    def test_tune_restarts_names_epsilon_dataset_and_t(self, monkeypatch):
        args = ([0.1, 0.35], 2, (2, 3), (2, 3))
        kwargs = dict(t_cap=3, seed=5, n=40, q=18)
        records = tune_restarts(*args, **kwargs)
        # one call before the clean run's last: the last data set's last T,
        # at cell (2, 2) of the six
        last_call = 6 * sum(sum(r.stop_t) for r in records)
        message = failure_message(monkeypatch, last_call - 1, tune_restarts, *args, **kwargs)
        assert message == (f"epsilon=0.35, dataset 1, T={records[-1].stop_t[-1]} failed: "
                           "grid cell (g=2, m=2) failed: synthetic failure")

    # both robustness stages; ExperimentError is kept for no accepted data set
    ROBUSTNESS = ([0.1], 1, [20, 30], 2, (2, 3))
    ROBUSTNESS_KWARGS = dict(target_pair=(2, 3), n=40, q=18, seed=9)

    def test_robustness_names_the_acceptance_attempt(self, monkeypatch):
        message = failure_message(monkeypatch, 2, robustness_experiment,
                                  *self.ROBUSTNESS, **self.ROBUSTNESS_KWARGS)
        assert message == ("epsilon=0.1, dataset 0, attempt 0 failed: "
                           "grid cell (g=1, m=2) failed: synthetic failure")

    def test_robustness_names_the_subsample(self, monkeypatch):
        report = robustness_experiment(*self.ROBUSTNESS, **self.ROBUSTNESS_KWARGS)
        # past the acceptance selections and three subsample selections: the
        # first cell of sample 1 at the second size
        k = 6 * report.references[0].attempts + 3 * 6 + 1
        message = failure_message(monkeypatch, k, robustness_experiment,
                                  *self.ROBUSTNESS, **self.ROBUSTNESS_KWARGS)
        assert message == ("epsilon=0.1, dataset 0, n=30, sample 1 failed: "
                           "grid cell (g=1, m=1) failed: synthetic failure")


class TestStudyUnits:
    """Each study's unit is a module-level function of picklable arguments,
    its key last, and each driver maps it once over its flat key list."""

    DATA = simulate_dataset(staircase_parameters(2, 3, 0.1), 40, 16, seed=31)[0]
    DESIGNS = [(0.1, staircase_parameters(2, 3, 0.1))]

    @staticmethod
    def replayed(unit, key):
        """The unit's result on ``key``, directly and from a pickled copy."""
        return unit(key), pickle.loads(pickle.dumps(unit))(key)

    def test_grid_cell_replays_from_a_pickle(self):
        unit = functools.partial(selection._fit_cell, self.DATA, 7, {"prior": PRIOR})
        direct, thawed = self.replayed(unit, (2, 3))
        assert fit_payload(direct) == fit_payload(thawed)
        assert fit_payload(direct) == fit_payload(select_model(self.DATA, 2, 3, seed=7).cell(2, 3))

    def test_tuning_data_set_replays_from_a_pickle(self):
        unit = functools.partial(selection._tune_dataset, self.DESIGNS, 40, 18, (2, 3), (2, 3), 3,
                                 5, {})
        direct, thawed = self.replayed(unit, (0, 1))
        assert direct == thawed
        record = tune_restarts([0.1], 2, (2, 3), (2, 3), t_cap=3, seed=5, n=40, q=18)[0]
        assert direct == (record.stop_t[1], record.censored[1])

    def test_reference_run_replays_from_a_pickle(self):
        unit = functools.partial(selection._reference_run, self.DATA, (2, 2), 37, {})
        direct, thawed = self.replayed(unit, 2)
        assert direct == thawed
        study = reference_model_study(self.DATA, (2, 2), runs=3, seed=37)
        assert direct[0] == study.selected_pairs[2]

    def test_robustness_data_set_replays_from_a_pickle(self):
        unit = functools.partial(evaluation._robustness_dataset, self.DESIGNS, 40, 18, (2, 3),
                                 (2, 3), [20], 2, 9, {})
        (reference, outcomes), (thawed_reference, thawed_outcomes) = self.replayed(unit, (0, 0))
        assert outcomes == thawed_outcomes
        assert reference.attempts == thawed_reference.attempts
        assert np.array_equal(reference.proportions, thawed_reference.proportions)
        report = robustness_experiment([0.1], 1, [20], 2, (2, 3), target_pair=(2, 3), seed=9,
                                       n=40, q=18)
        assert report.references[0].attempts == reference.attempts
        assert report.cell(0.1, 20).pair_counts == {
            pair: sum(1 for _, p, _ in outcomes if p == pair) for _, pair, _ in outcomes}

    @pytest.fixture
    def maps(self, monkeypatch):
        """(unit name, item count) of every ordered_map call, in call order."""
        calls = []

        def counting(fn, items, threads=1):
            items = list(items)
            calls.append((fn.func.__name__, len(items)))
            return parallel.ordered_map(fn, items, threads=threads)

        monkeypatch.setattr(selection, "ordered_map", counting)
        monkeypatch.setattr(evaluation, "ordered_map", counting)
        return calls

    def test_select_model_maps_its_cells_once(self, maps):
        select_model(self.DATA, 2, 3, seed=1)
        assert maps == [("_fit_cell", 6)]

    def test_reference_study_maps_its_runs_once(self, maps):
        reference_model_study(self.DATA, (2, 2), runs=3, seed=37)
        assert maps == [("_reference_run", 3)] + [("_fit_cell", 4)] * 3

    def test_tune_restarts_maps_every_data_set_once(self, maps):
        records = tune_restarts([0.1, 0.35, 0.1], 2, (2, 3), (2, 3), t_cap=2, seed=5,
                                n=40, q=18)
        selections = sum(sum(record.stop_t) for record in records)
        assert maps == [("_tune_dataset", 3 * 2)] + [("_fit_cell", 6)] * selections

    def test_robustness_maps_every_data_set_once(self, maps):
        report = robustness_experiment([0.1, 0.1], 1, [20, 30], 2, (2, 3), target_pair=(2, 3),
                                       seed=9, n=40, q=18)
        selections = sum(reference.attempts for reference in report.references) + 2 * 2 * 2
        # the benchmark's traced count: data sets + selections x cells
        assert maps == [("_robustness_dataset", 2)] + [("_fit_cell", 6)] * selections
