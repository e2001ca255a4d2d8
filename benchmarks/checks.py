"""Output checks that recompute each expected answer apart from binlbm.

Every check returns a list of problems; an empty list means the output
passed.  The long-hand oracles come from the repository's ``tests/oracles.py``
(loaded by path), so there is one independent derivation, not a third copy.
Nothing here imports binlbm.
"""

from __future__ import annotations

import importlib.util
import math
from pathlib import Path

_ORACLES_PATH = Path(__file__).resolve().parents[1] / "tests" / "oracles.py"


def _load_oracles():
    spec = importlib.util.spec_from_file_location("oracles", _ORACLES_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracles = _load_oracles()


def _close(x, y, tol=1e-9):
    return abs(x - y) <= tol * max(1.0, abs(x), abs(y))


def _quantile(sorted_values, p):
    # linear interpolation between closest ranks (numpy's default method)
    position = (len(sorted_values) - 1) * p
    low = math.floor(position)
    high = min(low + 1, len(sorted_values) - 1)
    return sorted_values[low] + (sorted_values[high] - sorted_values[low]) * (position - low)


def inter_arrival_summary(occurrence_indices):
    """Order statistics of the waiting times, long-hand."""
    gaps = []
    previous = 0
    for index in occurrence_indices:
        gaps.append(float(index - previous))
        previous = index
    ordered = sorted(gaps)
    return {
        "min": ordered[0],
        "q1": _quantile(ordered, 0.25),
        "median": _quantile(ordered, 0.5),
        "mean": sum(gaps) / len(gaps),
        "q3": _quantile(ordered, 0.75),
        "max": ordered[-1],
    }


def check_refmodel(payload, runs, selections, cells, a, b):
    """``selections`` holds, per run in order, the captured winning cell:
    ``(pair, icl, z, w)`` with 0-based labels."""
    problems = []
    if payload.get("runs") != runs:
        problems.append(f"runs is {payload.get('runs')}, expected {runs}")
    counts = payload.get("pair_distribution", [])
    if sum(entry["count"] for entry in counts) != runs:
        problems.append("pair counts do not sum to the run count")
    if len(selections) != runs:
        return problems + [f"captured {len(selections)} selections, expected {runs}"]

    best_run = 0
    for k, (_, icl_value, _, _) in enumerate(selections):
        if icl_value > selections[best_run][1]:
            best_run = k
    pair, best_icl, z, w = selections[best_run]
    if (payload.get("reference_g"), payload.get("reference_m")) != tuple(pair):
        problems.append(f"reference pair {payload.get('reference_g')},"
                        f"{payload.get('reference_m')} is not the best-ICL run's {pair}")
    if payload.get("reference_icl") != best_icl:
        problems.append(f"reference ICL {payload.get('reference_icl')!r} is not the "
                        f"maximum over the runs, {best_icl!r}")
    oracle = oracles.icl_conjugate_oracle(cells, list(z), list(w), pair[0], pair[1], a, b)
    if not _close(payload.get("reference_icl", math.nan), oracle):
        problems.append(f"reference ICL {payload.get('reference_icl')!r} differs from the "
                        f"oracle ICL {oracle!r} of the winning partition")

    expected_counts = {}
    for p, _, _, _ in selections:
        expected_counts[tuple(p)] = expected_counts.get(tuple(p), 0) + 1
    got_counts = {(e["g"], e["m"]): e["count"] for e in counts}
    if got_counts != expected_counts:
        problems.append(f"pair distribution {got_counts} differs from the runs {expected_counts}")
    occurrences = [k + 1 for k, (p, _, _, _) in enumerate(selections) if tuple(p) == tuple(pair)]
    if payload.get("occurrence_indices") != occurrences:
        problems.append(f"occurrence indices {payload.get('occurrence_indices')} "
                        f"differ from {occurrences}")
    if payload.get("occurrences") != len(occurrences):
        problems.append("occurrence count differs from the occurrence indices")

    summary = payload.get("inter_arrival_summary", {})
    expected = inter_arrival_summary(payload.get("occurrence_indices") or [0])
    for key, value in expected.items():
        if key not in summary or not _close(summary[key], value, 1e-12):
            problems.append(f"inter-arrival {key} is {summary.get(key)!r}, "
                            f"recomputed {value!r}")
    return problems


def check_robustness(payload, sizes, datasets, samples, matches):
    """``matches`` holds every captured ``best_match`` call in call order as
    ``(ref_z, est_z, g_ref, g_est, rate)``: data sets, then sizes, then
    samples."""
    problems = []
    cells = payload.get("cells", [])
    if [cell.get("n") for cell in cells] != list(sizes):
        return [f"cells cover sizes {[cell.get('n') for cell in cells]}, expected {list(sizes)}"]
    references = payload.get("references", [])
    if len(references) != datasets or any(ref["attempts"] < 1 for ref in references):
        problems.append("references do not hold one accepted data set each")
    if len(matches) != datasets * len(sizes) * samples:
        return problems + [f"captured {len(matches)} matches, expected "
                           f"{datasets * len(sizes) * samples}"]

    expected = {size: {} for size in sizes}
    for i, (ref_z, est_z, g_ref, g_est, rate) in enumerate(matches):
        size = sizes[(i // samples) % len(sizes)]
        if len(ref_z) != size:
            problems.append(f"match {i} compares {len(ref_z)} rows, expected {size}")
        brute = oracles.best_match_bruteforce(list(ref_z), list(est_z), g_ref, g_est)
        if rate != brute / len(ref_z):
            problems.append(f"match {i}: rate {rate!r} is not the brute-force "
                            f"{brute}/{len(ref_z)}")
        expected[size].setdefault(str(g_est), []).append(brute / len(ref_z))

    for cell in cells:
        size = cell["n"]
        total = sum(entry["count"] for entry in cell["pairs"])
        if total != datasets * samples:
            problems.append(f"n={size}: pair counts sum to {total}, expected {datasets * samples}")
        by_g = {}
        for entry in cell["pairs"]:
            by_g[str(entry["g"])] = by_g.get(str(entry["g"]), 0) + entry["count"]
        if {g: len(r) for g, r in cell["rates_by_g"].items()} != by_g:
            problems.append(f"n={size}: rate lists do not match the selected row-group counts")
        if cell["rates_by_g"] != expected[size]:
            problems.append(f"n={size}: rates {cell['rates_by_g']} differ from the brute-force "
                            f"rates {expected[size]}")
    return problems


def _parse_span(line, kind, unit):
    # "row-group 2: rows 14-27"
    head, _, tail = line.partition(": ")
    label = int(head[len(kind) + 1:])
    start, _, end = tail[len(unit) + 1:].partition("-")
    return label, int(start), int(end)


def _tiles(spans, size):
    position = 0
    for _, start, end in spans:
        if start != position + 1 or end < start:
            return False
        position = end
    return position == size


def check_reorder(cells, truth_z, matrix_text, blocks_text, epsilon, max_rate, alpha_tol):
    """``cells`` is the input matrix and ``truth_z`` its simulated row labels."""
    problems = []
    n, q = len(cells), len(cells[0])
    lines = matrix_text.splitlines()
    header = lines[0].split(",")
    try:
        col_groups = [int(t[1:t.index("_")]) for t in header]
        col_order = [int(t[t.index("_item") + 5:]) - 1 for t in header]
        body = [[int(v) for v in line.split(",")] for line in lines[1:]]
    except ValueError as exc:
        return [f"reordered CSV does not parse: {exc}"]

    blocks = blocks_text.splitlines()
    row_spans = [_parse_span(l, "row-group", "rows") for l in blocks if l.startswith("row-group ")]
    col_spans = [_parse_span(l, "column-group", "columns")
                 for l in blocks if l.startswith("column-group ")]
    row_lines = [l for l in blocks if l.startswith("row-order ")]
    if len(row_lines) != 1:
        return problems + ["block summary has no single row-order line"]
    row_order = [int(t) - 1 for t in row_lines[0].split()[1:]]

    if sorted(row_order) != list(range(n)):
        problems.append("row order is not a permutation of 1..n")
    if sorted(col_order) != list(range(q)):
        problems.append("column order is not a permutation of 1..q")
    if problems:
        return problems
    expected_body = [[cells[i][j] for j in col_order] for i in row_order]
    if body != expected_body:
        problems.append("reordered matrix is not the input under its row and column orders")

    if not _tiles(row_spans, n):
        problems.append(f"row blocks {row_spans} do not tile 1..{n}")
    if not _tiles(col_spans, q):
        problems.append(f"column blocks {col_spans} do not tile 1..{q}")
    for label, start, end in col_spans:
        if any(col_groups[c] != label for c in range(start - 1, end)):
            problems.append(f"column block {label} disagrees with the header groups")
    if problems:
        return problems

    est_z = [0] * n
    for label, start, end in row_spans:
        for position in range(start - 1, end):
            est_z[row_order[position]] = label - 1
    g_est = max(est_z) + 1
    g_ref = max(truth_z) + 1
    misclassified = oracles.best_match_bruteforce(list(truth_z), est_z, g_ref, g_est)
    if misclassified / n > max_rate:
        problems.append(f"row misclassification {misclassified}/{n} exceeds {max_rate}")

    start = next(i for i, l in enumerate(blocks) if l.startswith("rho ")) + 1
    for line in blocks[start:start + g_est]:
        for value in (float(t) for t in line.split()[1:]):
            if min(abs(value - epsilon), abs(value - (1.0 - epsilon))) > alpha_tol:
                problems.append(f"block rate {value} is not within {alpha_tol} of "
                                f"{epsilon} or {1.0 - epsilon}")
    return problems
