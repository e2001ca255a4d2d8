"""Hooks on binlbm's public functions, installed from outside the package.

A public function is one named in its module's ``__all__``.  ``Patch``
replaces it in every binlbm module that binds it (``fit`` lives in
``inference`` and is bound in ``selection`` and ``cli`` too), so a call is
seen whichever module makes it, and puts the originals back on exit.

Two hooks use it: ``Capture`` counts restart chains and keeps the values the
output checks need, and does no timing; ``Tracer`` records a span per call.
"""

from __future__ import annotations

import functools
import inspect
import os
import statistics
import sys
import threading
from time import perf_counter

MODULES = ("binlbm", "binlbm.cli", "binlbm.io", "binlbm.model", "binlbm.inference",
           "binlbm.selection", "binlbm.evaluation", "binlbm.parallel", "binlbm.rng")


def span_name(fn):
    """``<module>.<function>``, the module without the package prefix."""
    return f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}"


def _bindings():
    for module_name in MODULES:
        module = sys.modules[module_name]
        for attr, obj in vars(module).items():
            home = sys.modules.get(getattr(obj, "__module__", ""))
            if (inspect.isfunction(obj) and obj.__module__.startswith("binlbm.")
                    and obj.__name__ in getattr(home, "__all__", ())):
                yield module, attr, obj


class Patch:
    """Rebind every public function for which ``wrap(fn, name)`` returns a
    wrapper; one wrapper per function, shared by all its bindings."""

    def __init__(self, wrap):
        self._wrap = wrap
        self._saved = []

    def __enter__(self):
        wrappers = {}
        for module, attr, fn in list(_bindings()):
            if fn not in wrappers:
                wrappers[fn] = self._wrap(fn, span_name(fn))
            if wrappers[fn] is not None:
                self._saved.append((module, attr, fn))
                setattr(module, attr, wrappers[fn])
        return self

    def __exit__(self, *exc):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()


def _fit_chains(signature, args, kwargs, result, error):
    """(chains, failed chains, iteration cap) of one ``fit`` call."""
    bound = signature.bind(*args, **kwargs)
    bound.apply_defaults()
    restarts = bound.arguments["restarts"]
    if error is not None:
        return restarts, restarts, bound.arguments["max_iter"]
    failed = sum(1 for value in result.chain_free_energies if value is None)
    return restarts, failed, bound.arguments["max_iter"]


class Capture:
    """Counts restart chains at ``fit`` and keeps, per call, the selected
    cell of ``select_model`` and the arguments and rate of ``best_match``."""

    def __init__(self):
        self.chains = 0
        self.failed = 0
        self.selections = []
        self.matches = []

    def wrap(self, fn, name):
        if name == "inference.fit":
            signature = inspect.signature(fn)

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                try:
                    result = fn(*args, **kwargs)
                except Exception as exc:
                    chains, failed, _ = _fit_chains(signature, args, kwargs, None, exc)
                    self.chains += chains
                    self.failed += failed
                    raise
                chains, failed, _ = _fit_chains(signature, args, kwargs, result, None)
                self.chains += chains
                self.failed += failed
                return result
            return counted
        if name == "selection.select_model":
            @functools.wraps(fn)
            def kept(*args, **kwargs):
                result = fn(*args, **kwargs)
                part = result.best_fit.map_part
                self.selections.append((tuple(result.best_pair), result.best_fit.icl_value,
                                        part.z.tolist(), part.w.tolist()))
                return result
            return kept
        if name == "evaluation.best_match":
            signature = inspect.signature(fn)

            @functools.wraps(fn)
            def matched(*args, **kwargs):
                result = fn(*args, **kwargs)
                bound = signature.bind(*args, **kwargs)
                self.matches.append(([int(v) for v in bound.arguments["ref_z"]],
                                     [int(v) for v in bound.arguments["est_z"]],
                                     bound.arguments["g_ref"], bound.arguments["g_est"],
                                     result.rate))
                return result
            return matched
        return None


def _annotate(name, fn):
    """What a span of ``name`` records besides its times, or None."""
    if name == "inference.fit":
        signature = inspect.signature(fn)
        return lambda args, kwargs, result, error: _fit_chains(
            signature, args, kwargs, result, error)
    if name == "parallel.ordered_map":
        signature = inspect.signature(fn)

        def items(args, kwargs, result, error):
            value = signature.bind(*args, **kwargs).arguments["items"]
            return len(value) if hasattr(value, "__len__") else 0
        return items
    if name == "io.load_matrix":
        return lambda args, kwargs, result, error: os.path.getsize(
            args[0] if args else kwargs["path"])
    return None


class Tracer:
    """Records ``(name index, start, end, parent span index, info)`` per
    call into ``spans``; ``names`` maps name indices to span names.

    Calls must come from the thread that made the tracer: the parent is the
    top of one stack."""

    def __init__(self):
        self.names = []
        self.spans = []
        self._stack = []
        self._thread = threading.get_ident()

    def wrap(self, fn, name):
        if name not in self.names:
            self.names.append(name)
        name_index = self.names.index(name)
        annotate = _annotate(name, fn)
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if threading.get_ident() != self._thread:
                raise RuntimeError(f"{name} called from a second thread; trace with threads=1")
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            result = error = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                end = perf_counter()
                stack.pop()
                info = annotate(args, kwargs, result, error) if annotate else None
                spans[index] = (name_index, start, end, parent, info)
        return traced

    def take(self):
        """The spans recorded so far, leaving the tracer empty."""
        taken = list(self.spans)
        self.spans.clear()
        return taken


# functions reported by self time, and by total time ("<name>.s")
SELF_TIMED = (
    "inference.gibbs_init", "inference.vbayes_step", "inference.free_energy",
    "inference.fit", "model.icl", "model.simulate_dataset", "selection.select_model",
    "selection.reference_model_study", "evaluation.robustness_experiment",
    "evaluation.stratified_subsample", "evaluation.best_match", "parallel.ordered_map",
    "rng.derive_rng", "rng.derive_seed", "cli.main",
)
TOTAL_TIMED = ("io.load_matrix", "io.export_reordered", "io.write_json")
COUNTED = (
    "inference.gibbs_init", "inference.vbayes_step", "inference.free_energy",
    "inference.fit", "model.icl", "model.simulate_dataset", "selection.select_model",
    "evaluation.stratified_subsample", "evaluation.best_match", "rng.derive_rng",
    "rng.derive_seed",
)
# every per-layer metric, with its unit and better direction
LAYER_METRICS = (
    [(f"{name}.self_s", "s", "lower") for name in SELF_TIMED]
    + [(f"{name}.calls", "count", "lower") for name in COUNTED]
    + [(f"{name}.s", "s", "lower") for name in TOTAL_TIMED]
    + [("io.load_matrix.mb_per_s", "MB/s", "higher"),
       ("parallel.ordered_map.items", "count", "lower"),
       ("inference.chains", "count", "higher"),
       ("inference.chains_failed", "count", "lower"),
       ("inference.chains_at_max_iter", "count", "lower"),
       ("inference.vbayes_iters_per_chain", "count", "lower"),
       ("trace.unattributed_s", "s", "lower"),
       ("trace.overhead_s", "s", "lower")]
)


def round_figures(names, spans, wall):
    """Per-layer figures of one traced round of ``wall`` seconds, plus the
    call count of every traced function (``<name>.calls``)."""
    child_time = [0.0] * len(spans)
    for name_index, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_time, total_time, calls = {}, {}, {}
    for i, (name_index, start, end, _, _) in enumerate(spans):
        name = names[name_index]
        self_time[name] = self_time.get(name, 0.0) + (end - start) - child_time[i]
        total_time[name] = total_time.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1

    # a chain is a gibbs_init span under a fit span, with the vbayes_step
    # spans after it under the same fit
    chains = failed = at_cap = items = load_bytes = 0
    iterations = []
    chain_of_fit = {}
    for i, (name_index, _, _, parent, info) in enumerate(spans):
        name = names[name_index]
        if name == "inference.fit":
            chains += info[0]
            failed += info[1]
        elif name == "parallel.ordered_map":
            items += info
        elif name == "io.load_matrix":
            load_bytes += info
        if parent >= 0 and names[spans[parent][0]] == "inference.fit":
            if name == "inference.gibbs_init":
                chain_of_fit.setdefault(parent, []).append(0)
            elif name == "inference.vbayes_step":
                chain_of_fit[parent][-1] += 1
    for fit_index, counts in chain_of_fit.items():
        cap = spans[fit_index][4][2]
        iterations.extend(counts)
        at_cap += sum(1 for c in counts if c >= cap)

    figures = {f"{name}.calls": count for name, count in calls.items()}
    figures.update({f"{name}.self_s": self_time.get(name, 0.0) for name in SELF_TIMED})
    figures.update({f"{name}.calls": calls.get(name, 0) for name in COUNTED})
    figures.update({f"{name}.s": total_time.get(name, 0.0) for name in TOTAL_TIMED})
    load_s = total_time.get("io.load_matrix", 0.0)
    figures["io.load_matrix.mb_per_s"] = load_bytes / 2**20 / load_s if load_s else 0.0
    figures["parallel.ordered_map.items"] = items
    figures["inference.chains"] = chains
    figures["inference.chains_failed"] = failed
    figures["inference.chains_at_max_iter"] = at_cap
    figures["inference.vbayes_iters_per_chain"] = (
        statistics.median(iterations) if iterations else 0)
    # the io functions are reported whole: none of them calls a self-timed one
    attributed = (sum(self_time.get(name, 0.0) for name in SELF_TIMED)
                  + sum(total_time.get(name, 0.0) for name in TOTAL_TIMED))
    figures["trace.unattributed_s"] = wall - attributed
    return figures
