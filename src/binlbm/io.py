"""Data ingestion, result payloads, and block-reordered exports.

File conventions: data files are comma-separated 0/1 with an optional header
row of non-numeric tokens (LF or CRLF); group labels are serialized 1-based;
result payloads are JSON with sorted keys and no timestamps, so identical
runs write identical bytes.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

import numpy as np

from .errors import MatrixParseError, ValidationError
from .model import BinaryDataMatrix

__all__ = [
    "load_matrix",
    "write_matrix_csv",
    "export_reordered",
    "write_json",
    "fit_payload",
    "selection_payload",
    "tuning_payload",
    "reference_payload",
    "robustness_payload",
]


def _is_number(token):
    try:
        float(token)
    except ValueError:
        return False
    return True


def load_matrix(path):
    """Parse a CSV of 0/1 values into a data matrix.

    A first row in which every token is non-numeric is a header and is
    skipped; a first row with any numeric token is data, so a typo in it is
    reported rather than dropped.  Blank lines at the end of the file are
    ignored.  Every data row must have the same length and every cell must be
    exactly 0 or 1; violations raise :class:`MatrixParseError` with the
    1-based file line and column.  The file is read as UTF-8, and a leading
    byte-order mark, as spreadsheets write it, is dropped; a byte sequence
    that is not UTF-8 raises :class:`MatrixParseError` with the 1-based line
    it sits on.
    """
    raw = Path(path).read_bytes()
    try:
        text = raw.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # the line of the first bad byte, counted by the breaks before it
        line = len((exc.object[:exc.start].decode("utf-8") + "?").splitlines())
        raise MatrixParseError(
            f"{path}: byte 0x{exc.object[exc.start]:02x} at row {line} is not UTF-8",
            line=line) from None
    lines = text.splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise MatrixParseError(f"{path}: file is empty")
    first_tokens = [t.strip() for t in lines[0].split(",")]
    start = 0 if any(_is_number(t) for t in first_tokens) else 1
    if start == len(lines):
        raise MatrixParseError(f"{path}: no data rows after the header")
    values = _canonical_cells(lines[start:])
    if values is None:
        values = _parse_cells(path, lines, start)
    return BinaryDataMatrix(values)


def _canonical_cells(rows):
    """The int8 matrix of rows that each read exactly ``[01](,[01])*``, all
    of one width, decoded in one vectorized pass; None for any other rows.

    The rows joined by LF are viewed as an n x 2q byte matrix.  The rows
    hold no LF, so the buffer holds exactly n.  With a digit at every even
    byte and a comma at every odd byte but the last, the n LFs can only be
    the last bytes of the n matrix rows: matrix row i is file row i, and the
    per-cell parser would read the same values from it.
    """
    buffer = np.frombuffer(("\n".join(rows) + "\n").encode(), dtype=np.uint8)
    width = len(rows[0]) + 1
    if buffer.size != len(rows) * width:
        return None
    cells = buffer.reshape(len(rows), width)
    digits = cells[:, 0::2] - ord("0")  # uint8: bytes below '0' wrap past 1
    if (digits > 1).any() or (cells[:, 1:-1:2] != ord(",")).any():
        return None
    return digits.view(np.int8)


def _parse_cells(path, lines, start):
    """Parse ``lines[start:]`` cell by cell, reporting the first bad cell."""
    rows = []
    width = None
    for line_number, line in enumerate(lines[start:], start=start + 1):
        tokens = line.split(",")
        if width is None:
            width = len(tokens)
        elif len(tokens) != width:
            raise MatrixParseError(
                f"{path}: row {line_number} has {len(tokens)} values, expected {width}",
                line=line_number)
        row = []
        for column, token in enumerate(tokens, start=1):
            stripped = token.strip()
            if not _is_number(stripped):
                raise MatrixParseError(
                    f"{path}: non-numeric value {stripped!r} at row {line_number}, "
                    f"column {column}", line=line_number, column=column)
            value = float(stripped)
            if value not in (0.0, 1.0):
                raise MatrixParseError(
                    f"{path}: non-binary value {stripped!r} at row {line_number}, "
                    f"column {column}", line=line_number, column=column)
            row.append(int(value))
        rows.append(row)
    return np.array(rows, dtype=np.int8)


def write_matrix_csv(data, path, header=None):
    """Write a data matrix as comma-separated 0/1 rows (LF endings)."""
    n, q = data.values.shape
    body = np.full((n, 2 * q), ord(","), dtype=np.uint8)
    body[:, 0::2] = data.values + ord("0")
    body[:, -1] = ord("\n")
    head = "" if header is None else ",".join(header) + "\n"
    Path(path).write_bytes(head.encode("utf-8") + body.tobytes())


def _group_spans(sorted_labels):
    # contiguous 1-based [start, end] span per group present, after reordering
    labels, sizes = np.unique(sorted_labels, return_counts=True)
    ends = np.cumsum(sizes)
    return list(zip((labels + 1).tolist(), (ends - sizes + 1).tolist(), ends.tolist()))


def export_reordered(data, fit_result, out_prefix):
    """Write the block-reordered matrix and its parameter summary.

    The matrix file sorts rows by MAP row group and columns by MAP column
    group (stable, so the original order survives within a group) and carries
    a header row tagging each column with its group and original index.  The
    summary file lays out the estimates with rho across the top, pi down the
    left and alpha in the body, followed by the row/column block boundaries
    of the reordered matrix.  Returns the two paths.
    """
    part = fit_result.map_part
    if part.n != data.n or part.q != data.q:
        raise ValidationError("fit partition does not match the data dimensions")
    row_order = np.argsort(part.z, kind="stable")
    col_order = np.argsort(part.w, kind="stable")
    body = data.values[row_order][:, col_order]
    header = [f"w{part.w[j] + 1}_item{j + 1}" for j in col_order]

    prefix = Path(out_prefix)
    matrix_path = prefix.parent / (prefix.name + "_reordered.csv")
    summary_path = prefix.parent / (prefix.name + "_blocks.txt")
    write_matrix_csv(BinaryDataMatrix(body), matrix_path, header=header)

    params = fit_result.params
    lines = [
        f"# block summary for a ({params.g}, {params.m}) fit",
        "# layout: rho (column-group proportions) across the top,",
        "#         pi (row-group proportions) down the left, alpha in the body",
        "rho " + " ".join(f"{v:.6g}" for v in params.rho),
    ]
    for k in range(params.g):
        lines.append(f"{params.pi[k]:.6g} " + " ".join(f"{v:.6g}" for v in params.alpha[k]))
    lines.append("")
    lines.append("# row blocks of the reordered matrix (1-based, inclusive)")
    for label, start, end in _group_spans(part.z[row_order]):
        lines.append(f"row-group {label}: rows {start}-{end}")
    lines.append("# column blocks of the reordered matrix (1-based, inclusive)")
    for label, start, end in _group_spans(part.w[col_order]):
        lines.append(f"column-group {label}: columns {start}-{end}")
    lines.append("# original row indices in reordered order (1-based)")
    lines.append("row-order " + " ".join(str(i + 1) for i in row_order))
    summary_path.write_text("\n".join(lines) + "\n")
    return str(matrix_path), str(summary_path)


def write_json(payload, path):
    """Serialize a payload deterministically (sorted keys, no timestamps)."""
    Path(path).write_text(
        json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")


def fit_payload(fit_result):
    params = fit_result.params
    return {
        "g": params.g,
        "m": params.m,
        "free_energy": float(fit_result.free_energy),
        "icl": float(fit_result.icl_value),
        "iterations": int(fit_result.iterations),
        "restart_index": int(fit_result.restart_index),
        "chain_free_energies": [None if v is None else float(v)
                                for v in fit_result.chain_free_energies],
        "pi": params.pi.tolist(),
        "rho": params.rho.tolist(),
        "alpha": params.alpha.tolist(),
        "z": (fit_result.map_part.z + 1).tolist(),
        "w": (fit_result.map_part.w + 1).tolist(),
    }


def selection_payload(selection):
    best_g, best_m = selection.best_pair
    return {
        "best_g": best_g,
        "best_m": best_m,
        "icl": float(selection.best_fit.icl_value),
        "free_energy": float(selection.best_fit.free_energy),
        "grid": [
            {"g": g, "m": m, "icl": float(fr.icl_value),
             "free_energy": float(fr.free_energy), "iterations": int(fr.iterations)}
            for g, m, fr in selection.grid
        ],
        "best_fit": fit_payload(selection.best_fit),
    }


def tuning_payload(records):
    out = []
    for record in records:
        counts, censored = record.distribution()
        out.append({
            "epsilon": record.epsilon,
            "stop_t": list(record.stop_t),
            "censored": list(record.censored),
            "distribution": [{"t": t, "count": c} for t, c in counts.items()],
            "censored_count": censored,
        })
    return {"records": out}


def reference_payload(study):
    summary = study.inter_arrival_summary
    return {
        "runs": study.runs,
        "reference_g": study.reference_pair[0],
        "reference_m": study.reference_pair[1],
        "reference_icl": float(study.reference_icl),
        "occurrences": study.occurrences,
        "occurrence_indices": list(study.occurrence_indices),
        "pair_distribution": [{"g": g, "m": m, "count": c}
                              for (g, m), c in sorted(Counter(study.selected_pairs).items())],
        "inter_arrival_summary": {
            "min": summary.minimum,
            "q1": summary.first_quartile,
            "median": summary.median,
            "mean": summary.mean,
            "q3": summary.third_quartile,
            "max": summary.maximum,
        },
    }


def robustness_payload(report):
    return {
        "datasets_per_eps": report.datasets_per_eps,
        "samples_per_size": report.samples_per_size,
        "cells": [
            {
                "epsilon": cell.epsilon,
                "n": cell.sample_size,
                "pairs": [{"g": g, "m": m, "count": c}
                          for (g, m), c in cell.pair_counts.items()],
                "rates_by_g": {str(g): list(rates)
                               for g, rates in cell.rates_by_g.items()},
            }
            for cell in report.cells
        ],
        "references": [
            {
                "epsilon": ref.epsilon,
                "dataset": ref.dataset_index,
                "attempts": ref.attempts,
                "pi": ref.proportions.tolist(),
            }
            for ref in report.references
        ],
    }
