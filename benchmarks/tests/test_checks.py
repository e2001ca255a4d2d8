"""The output checks pass on real outputs of small workloads and catch a
corrupted payload; the tracer's counts match the configuration.

    PYTHONPATH=src python3 -m pytest benchmarks/tests -q
"""

import copy
import json

import checks
import tracing
import worker
from workloads import Refmodel, Reorder, Robustness, write_csv

SEED = 5


def _run(workload, workdir, hook_of, monkeypatch):
    workdir.mkdir(exist_ok=True)
    monkeypatch.chdir(workdir)
    inputs = workload.inputs(SEED)
    if inputs is not None:
        write_csv(inputs[0], workload.data_file(workdir))
    hook = hook_of()
    out_dir = workdir / "out"
    wall, status, prints = worker._round(workload, workload.argv(SEED, "out"), out_dir,
                                         tracing.Patch(hook.wrap))
    assert status == 0
    return hook, out_dir, prints, wall


def test_refmodel_check_catches_corruption(tmp_path, monkeypatch):
    workload = Refmodel(n=40, q=16, epsilon=0.1, runs=5, grid=(2, 3))
    capture, out_dir, _, _ = _run(workload, tmp_path, tracing.Capture, monkeypatch)
    assert workload.check(SEED, out_dir, capture) == []
    assert capture.chains == 5 * 6 and capture.failed == 0

    payload = json.loads(workload.outputs(out_dir)[0].read_text())
    cells = workload.inputs(SEED)[0].tolist()

    def problems(edit=None, selections=capture.selections):
        bad = copy.deepcopy(payload)
        if edit:
            edit(bad)
        return checks.check_refmodel(bad, workload.runs, selections, cells, a=4.0, b=1.0)

    assert problems() == []
    assert problems(lambda p: p.update(reference_icl=p["reference_icl"] + 1e-6))
    assert problems(lambda p: p["inter_arrival_summary"].update(
        median=p["inter_arrival_summary"]["median"] + 0.5))
    assert problems(lambda p: p["pair_distribution"][0].update(
        count=p["pair_distribution"][0]["count"] + 1))
    # a winning partition whose ICL is not the reported one
    best = max(range(len(capture.selections)), key=lambda k: capture.selections[k][1])
    pair, icl_value, z, w = capture.selections[best]
    assert pair[1] > 1
    moved = list(w)
    moved[0] = (moved[0] + 1) % pair[1]
    selections = list(capture.selections)
    selections[best] = (pair, icl_value, z, moved)
    assert problems(selections=selections)


def test_inter_arrival_summary_matches_published_gaps():
    indices, total = [], 0
    for gap in checks.oracles.INTER_ARRIVAL_GAPS:
        total += gap
        indices.append(total)
    summary = checks.inter_arrival_summary(indices)
    assert summary == {"min": 700.0, "q1": 4533.75, "median": 6595.5, "mean": 10534.125,
                       "q3": 13398.5, "max": 36345.0}


def test_robustness_check_catches_corruption(tmp_path, monkeypatch):
    workload = Robustness(epsilon=0.1, datasets=2, sizes=(10, 20), samples=2,
                          grid=(2, 2), target=(2, 2), n=40, q=12)
    capture, out_dir, _, _ = _run(workload, tmp_path, tracing.Capture, monkeypatch)
    assert workload.check(SEED, out_dir, capture) == []

    payload = json.loads(workload.outputs(out_dir)[0].read_text())

    def problems(edit=None, matches=capture.matches):
        bad = copy.deepcopy(payload)
        if edit:
            edit(bad)
        return checks.check_robustness(bad, workload.sizes, workload.datasets,
                                       workload.samples, matches)

    assert problems() == []

    def bump_rate(p):
        rates = next(iter(p["cells"][0]["rates_by_g"].values()))
        rates[0] += 0.05
    assert problems(bump_rate)
    assert problems(lambda p: p["cells"][1]["pairs"][0].update(
        count=p["cells"][1]["pairs"][0]["count"] + 1))
    ref_z, est_z, g_ref, g_est, rate = capture.matches[0]
    flipped = [1 - v for v in ref_z[:3]] + list(ref_z[3:])
    assert problems(matches=[(flipped, est_z, g_ref, g_est, rate), *capture.matches[1:]])


def test_reorder_check_catches_corruption(tmp_path, monkeypatch):
    workload = Reorder(n=90, q=24, epsilon=0.1, restarts=2, max_rate=0.05, alpha_tol=0.1)
    capture, out_dir, _, _ = _run(workload, tmp_path, tracing.Capture, monkeypatch)
    assert workload.check(SEED, out_dir, capture) == []

    cells, z, _ = workload.inputs(SEED)
    matrix_path, blocks_path = workload.outputs(out_dir)
    matrix, blocks = matrix_path.read_text(), blocks_path.read_text()

    def problems(matrix_text=matrix, blocks_text=blocks):
        return checks.check_reorder(cells.tolist(), z.tolist(), matrix_text, blocks_text,
                                    workload.epsilon, workload.max_rate, workload.alpha_tol)

    assert problems() == []
    lines = matrix.splitlines()
    row = lines[1].split(",")
    row[0] = "1" if row[0] == "0" else "0"
    assert problems(matrix_text="\n".join([lines[0], ",".join(row), *lines[2:]]) + "\n")
    span = next(l for l in blocks.splitlines() if l.startswith("row-group 1:"))
    end = int(span.rpartition("-")[2])
    assert problems(blocks_text=blocks.replace(span, f"{span.rpartition('-')[0]}-{end - 1}"))
    rate_line = next(l for l in blocks.splitlines()
                     if l and l[0].isdigit() and len(l.split()) == 5)
    assert problems(blocks_text=blocks.replace(
        rate_line, " ".join([rate_line.split()[0], "0.5", *rate_line.split()[2:]])))


def test_trace_counts_match_configuration_and_payload(tmp_path, monkeypatch):
    import binlbm.inference
    import binlbm.selection

    workload = Refmodel(n=30, q=12, runs=3, grid=(2, 2))
    _, _, plain_prints, _ = _run(workload, tmp_path / "plain", tracing.Capture, monkeypatch)
    tracer, out_dir, traced_prints, wall = _run(workload, tmp_path / "traced", tracing.Tracer, monkeypatch)
    assert traced_prints.keys() == plain_prints.keys()
    assert traced_prints == plain_prints
    assert binlbm.selection.fit is binlbm.inference.fit

    figures = tracing.round_figures(tracer.names, tracer.take(), wall)
    for key, value in workload.expected_calls(out_dir).items():
        assert figures[key] == value, key
    assert figures["model.icl.calls"] == figures["inference.fit.calls"]
    assert figures["inference.vbayes_step.calls"] == figures["inference.free_energy.calls"]
    timed = sum(figures[f"{n}.self_s"] for n in tracing.SELF_TIMED)
    timed += sum(figures[f"{n}.s"] for n in tracing.TOTAL_TIMED)
    assert abs(timed + figures["trace.unattributed_s"] - wall) < 1e-9
