"""One rule for every count and seed the library takes: a whole number, as an
int, a whole float or a numpy integer, at least its least value.  Anything
else is refused with a ValidationError naming the parameter, before any
work; a whole float or numpy integer gives the result of the int.  The
same holds for the prior, which every entry that reads one refuses unless it
is a PriorHyperparams, and for every real setting (tol, a, b, epsilon), which
must be a finite real number."""

import pickle
import re

import numpy as np
import pytest

from binlbm import (
    BinaryDataMatrix,
    CoPartition,
    LBMParameters,
    PriorHyperparams,
    ValidationError,
    VariationalState,
    contingency,
    fit,
    free_energy,
    gibbs_init,
    icl,
    inter_arrivals,
    reference_model_study,
    robustness_experiment,
    select_model,
    simulate_dataset,
    staircase_parameters,
    stratified_subsample,
    summarize_inter_arrivals,
    tune_restarts,
    vbayes_step,
)
from binlbm import evaluation, inference, model, selection
from binlbm.rng import derive_rng, derive_seed

EYE = BinaryDataMatrix(np.eye(4, dtype=int))
ROWS = BinaryDataMatrix(np.random.default_rng(3).integers(0, 2, size=(40, 6)))
CHAIN = dict(gibbs_sweeps=2, max_iter=5, seed=1)
HALF = [[0.5, 0.5], [0.5, 0.5]]


def tune(*, datasets=1, t_cap=1, target=(1, 1), grid=(1, 1), n=10, q=5, eps=0.1, **options):
    return tune_restarts([eps], datasets, target, grid, t_cap=t_cap, n=n, q=q,
                         **{**CHAIN, **options})


def robustness(*, datasets=1, size=1, samples=1, grid=(1, 1), n=10, q=5, eps=0.1, **options):
    return robustness_experiment([eps], datasets, [size], samples, grid, target_pair=(1, 1),
                                 n=n, q=q, **{**CHAIN, **options})


# (parameter, the name its message gives, the least value it takes, a call
# with the parameter set to the given value, and the (module, name) of the
# first work the call does after its checks, or None)
COUNTS = [
    ("gibbs_init.sweeps", "sweeps", 1, lambda v: gibbs_init(EYE, 2, 2, sweeps=v, seed=1),
     (inference, "derive_rng")),
    ("gibbs_init.g", "g", 1, lambda v: gibbs_init(EYE, v, 2, sweeps=2, seed=1),
     (inference, "derive_rng")),
    ("gibbs_init.m", "m", 1, lambda v: gibbs_init(EYE, 2, v, sweeps=2, seed=1),
     (inference, "derive_rng")),
    ("fit.restarts", "restarts", 1, lambda v: fit(EYE, 2, 2, restarts=v, max_iter=5,
                                                  gibbs_sweeps=2, seed=1),
     (inference, "gibbs_init")),
    ("fit.gibbs_sweeps", "gibbs_sweeps", 1, lambda v: fit(EYE, 2, 2, gibbs_sweeps=v, max_iter=5),
     (inference, "gibbs_init")),
    ("fit.max_iter", "max_iter", 1, lambda v: fit(EYE, 2, 2, max_iter=v, gibbs_sweeps=2),
     (inference, "gibbs_init")),
    ("LBMParameters.g", "g", 1, lambda v: LBMParameters(v, 2, [0.5, 0.5], [0.5, 0.5], HALF),
     None),
    ("LBMParameters.m", "m", 1, lambda v: LBMParameters(2, v, [0.5, 0.5], [0.5, 0.5], HALF),
     None),
    ("CoPartition.g", "g", 1, lambda v: CoPartition([0, 1], [1, 0], v, 2), None),
    ("CoPartition.m", "m", 1, lambda v: CoPartition([0, 1], [1, 0], 2, v), None),
    ("staircase_parameters.g", "g", 1, lambda v: staircase_parameters(v, 2, 0.1), None),
    ("staircase_parameters.m", "m", 1, lambda v: staircase_parameters(2, v, 0.1), None),
    ("simulate_dataset.n", "n", 1,
     lambda v: simulate_dataset(staircase_parameters(2, 2, 0.1), v, 3, seed=1),
     (model, "derive_rng")),
    ("simulate_dataset.q", "q", 1,
     lambda v: simulate_dataset(staircase_parameters(2, 2, 0.1), 3, v, seed=1),
     (model, "derive_rng")),
    ("select_model.g_max", "g_max and m_max", 1, lambda v: select_model(EYE, v, 1, **CHAIN),
     (selection, "fit")),
    ("select_model.m_max", "g_max and m_max", 1, lambda v: select_model(EYE, 1, v, **CHAIN),
     (selection, "fit")),
    ("select_model.restarts", "restarts", 1,
     lambda v: select_model(EYE, 1, 1, restarts=v, **CHAIN), (selection, "fit")),
    ("tune_restarts.t_cap", "t_cap", 1, lambda v: tune(t_cap=v),
     (selection, "simulate_dataset")),
    ("tune_restarts.datasets_per_eps", "datasets_per_eps", 1, lambda v: tune(datasets=v),
     (selection, "simulate_dataset")),
    ("tune_restarts.g_max", "g_max and m_max", 1, lambda v: tune(grid=(v, 1)),
     (selection, "simulate_dataset")),
    ("tune_restarts.target_pair", "target pair", 1, lambda v: tune(target=(v, 1), grid=(2, 1)),
     (selection, "simulate_dataset")),
    ("tune_restarts.n", "n", 1, lambda v: tune(n=v), (selection, "simulate_dataset")),
    ("tune_restarts.q", "q", 1, lambda v: tune(q=v), (selection, "simulate_dataset")),
    ("reference_model_study.runs", "runs", 1,
     lambda v: reference_model_study(EYE, (1, 1), runs=v, **CHAIN),
     (selection, "select_model")),
    ("reference_model_study.m_max", "g_max and m_max", 1,
     lambda v: reference_model_study(EYE, (1, v), runs=1, **CHAIN),
     (selection, "select_model")),
    ("robustness_experiment.datasets_per_eps", "datasets_per_eps", 1,
     lambda v: robustness(datasets=v), (evaluation, "simulate_dataset")),
    ("robustness_experiment.samples_per_size", "samples_per_size", 1,
     lambda v: robustness(samples=v), (evaluation, "simulate_dataset")),
    ("robustness_experiment.sample_size", "sample size", 1, lambda v: robustness(size=v),
     (evaluation, "simulate_dataset")),
    ("robustness_experiment.g_max", "g_max and m_max", 1, lambda v: robustness(grid=(v, 1)),
     (evaluation, "simulate_dataset")),
    ("robustness_experiment.n", "n", 1, lambda v: robustness(n=v),
     (evaluation, "simulate_dataset")),
    ("robustness_experiment.q", "q", 1, lambda v: robustness(q=v),
     (evaluation, "simulate_dataset")),
    ("stratified_subsample.n_sub", "n_sub", 1,
     lambda v: stratified_subsample(ROWS, np.arange(40) % 2, [0.5, 0.5], v, seed=3),
     (evaluation, "derive_rng")),
    ("contingency.g_ref", "g_ref", 1, lambda v: contingency([0, 1, 1], [1, 0, 1], v, 2),
     (evaluation, "_one_hot")),
    ("contingency.g_est", "g_est", 1, lambda v: contingency([0, 1, 1], [1, 0, 1], 2, v),
     (evaluation, "_one_hot")),
    ("derive_seed.seed", "seed", 0, lambda v: derive_seed(v, 4), None),
    ("derive_seed.key", "stream key", 0, lambda v: derive_seed(4, 1, v), None),
    ("derive_rng.seed", "seed", 0, lambda v: derive_rng(v).integers(1 << 62), None),
    ("derive_rng.key", "stream key", 0, lambda v: derive_rng(4, v).integers(1 << 62), None),
    ("inter_arrivals.first", "occurrence index", 1, lambda v: inter_arrivals([v, 5]), None),
    ("inter_arrivals.later", "occurrence index", 1, lambda v: inter_arrivals([1, v, 5]), None),
    ("summarize_inter_arrivals", "occurrence index", 1,
     lambda v: summarize_inter_arrivals([v, 5]), None),
]


@pytest.mark.parametrize("name, message_name, least, call, work", COUNTS,
                         ids=[case[0] for case in COUNTS])
def test_count_rule(name, message_name, least, call, work, monkeypatch):
    # a whole float or a numpy integer is the int it equals, in every field
    # and bit of the result
    expected = pickle.dumps(call(2))
    for value in (2.0, np.int64(2)):
        assert pickle.dumps(call(value)) == expected, value

    if work is not None:
        def refused_first(*args, **kwargs):
            raise AssertionError(f"{work[1]} ran before {name} was checked")

        monkeypatch.setattr(*work, refused_first)
    for value in (2.5, float("nan"), float("inf"), None, "3"):
        with pytest.raises(ValidationError, match="^" + re.escape(
                f"{message_name} must be a whole number, got {value}") + "$"):
            call(value)
    with pytest.raises(ValidationError, match=f"^{message_name} must be >= {least}$"):
        call(least - 1)


TOL = "tol must be a positive finite number, got {!r}"
PRIOR_KIND = "prior must be a PriorHyperparams, got {!r}"
HALF_STATE = VariationalState(np.full((4, 2), 0.5), np.full((4, 2), 0.5))
HALF_PARAMS = LBMParameters(2, 2, [0.5, 0.5], [0.5, 0.5], HALF)

# (parameter, a call with the parameter set to the given value, the message
# a refused value gives, and the (module, name) of the first work the call
# does after its checks, or None)
SETTINGS = [
    ("gibbs_init.prior", lambda v: gibbs_init(EYE, 2, 2, prior=v, sweeps=2, seed=1),
     PRIOR_KIND, (inference, "derive_rng")),
    ("vbayes_step.prior", lambda v: vbayes_step(EYE, HALF_STATE, HALF_PARAMS, v),
     PRIOR_KIND, (inference, "_vbayes_update")),
    ("free_energy.prior", lambda v: free_energy(EYE, HALF_STATE, HALF_PARAMS, v),
     PRIOR_KIND, (inference, "_expected_counts")),
    ("icl.prior", lambda v: icl(EYE, CoPartition([0, 1, 0, 1], [1, 0, 1, 0], 2, 2), v),
     PRIOR_KIND, (model, "block_counts")),
    ("fit.prior", lambda v: fit(EYE, 2, 2, prior=v, **CHAIN),
     PRIOR_KIND, (inference, "gibbs_init")),
    ("fit.tol", lambda v: fit(EYE, 2, 2, tol=v, **CHAIN), TOL, (inference, "gibbs_init")),
    ("select_model.prior", lambda v: select_model(EYE, 2, 2, prior=v, **CHAIN),
     PRIOR_KIND, (selection, "fit")),
    ("select_model.tol", lambda v: select_model(EYE, 2, 2, tol=v, **CHAIN),
     TOL, (selection, "fit")),
    ("tune_restarts.prior", lambda v: tune(prior=v), PRIOR_KIND, (selection, "simulate_dataset")),
    ("tune_restarts.epsilon", lambda v: tune(eps=v),
     "epsilon must lie strictly between 0 and 1, got {!r}", (selection, "simulate_dataset")),
    ("reference_model_study.prior",
     lambda v: reference_model_study(EYE, (1, 1), runs=1, prior=v, **CHAIN),
     PRIOR_KIND, (selection, "select_model")),
    ("reference_model_study.tol",
     lambda v: reference_model_study(EYE, (1, 1), runs=1, tol=v, **CHAIN),
     TOL, (selection, "select_model")),
    ("robustness_experiment.prior", lambda v: robustness(prior=v),
     PRIOR_KIND, (evaluation, "simulate_dataset")),
    ("robustness_experiment.tol", lambda v: robustness(tol=v), TOL,
     (evaluation, "simulate_dataset")),
    ("robustness_experiment.epsilon", lambda v: robustness(eps=v),
     "epsilon must lie strictly between 0 and 1, got {!r}", (evaluation, "simulate_dataset")),
    ("PriorHyperparams.a", lambda v: PriorHyperparams(a=v),
     "a must be a positive finite number, got {!r}", None),
    ("PriorHyperparams.b", lambda v: PriorHyperparams(b=v),
     "b must be a positive finite number, got {!r}", None),
    ("staircase_parameters.epsilon", lambda v: staircase_parameters(3, 4, v),
     "epsilon must lie strictly between 0 and 1, got {!r}", None),
]


@pytest.mark.parametrize("name, call, message, work", SETTINGS,
                         ids=[case[0] for case in SETTINGS])
def test_setting_rule(name, call, message, work, monkeypatch):
    if work is not None:
        def refused_first(*args, **kwargs):
            raise AssertionError(f"{work[1]} ran before {name} was checked")

        monkeypatch.setattr(*work, refused_first)
    # neither a string nor None is read as a number, nor any other type; and
    # no setting takes an infinity
    for value in (None, "0.1", [0.1], 0.1j, float("inf")):
        with pytest.raises(ValidationError, match="^" + re.escape(message.format(value)) + "$"):
            call(value)
