import codecs
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from binlbm import (
    BinaryDataMatrix,
    CoPartition,
    LBMParameters,
    MatrixParseError,
    PriorHyperparams,
    VariationalState,
    export_reordered,
    fit,
    load_matrix,
    reference_model_study,
    robustness_experiment,
    select_model,
    stratified_subsample,
    tune_restarts,
    write_matrix_csv,
)
from binlbm import evaluation
from binlbm import io as lbm_io
from binlbm.cli import build_parser, main
from binlbm.inference import (
    DEFAULT_GIBBS_SWEEPS,
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    FitResult,
    _one_hot,
)
from binlbm.selection import DEFAULT_GRID, DEFAULT_T_CAP


def make_fit_result(params, z, w):
    part = CoPartition(z, w, params.g, params.m)
    state = VariationalState(_one_hot(part.z, params.g), _one_hot(part.w, params.m))
    return FitResult(params=params, state=state, map_part=part, free_energy=-1.0,
                     icl_value=-2.0, iterations=1, restart_index=0,
                     chain_free_energies=(-1.0,))


class TestLoadMatrix:
    def test_plain_matrix(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0,1\n1,0\n")
        data = load_matrix(path)
        assert data.values.tolist() == [[0, 1], [1, 0]]

    def test_header_is_skipped(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("item1,item2\n1,1\n")
        data = load_matrix(path)
        assert data.values.tolist() == [[1, 1]]

    def test_trailing_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0,1,1\n1,0,1\n\n")
        assert load_matrix(path).values.tolist() == [[0, 1, 1], [1, 0, 1]]

    def test_first_row_typo_is_not_a_header(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0,1,O\n1,0,1\n0,0,1\n")
        with pytest.raises(MatrixParseError) as info:
            load_matrix(path)
        assert info.value.line == 1
        assert info.value.column == 3

    def test_utf8_bom_is_dropped(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_bytes("\ufeff0,1,1\r\n1,0,1\r\n".encode("utf-8"))
        assert load_matrix(path).values.tolist() == [[0, 1, 1], [1, 0, 1]]

    def test_utf8_bom_before_header(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_bytes("\ufeffitem1,item2,item3\r\n0,1,1\r\n".encode("utf-8"))
        assert load_matrix(path).values.tolist() == [[0, 1, 1]]

    def test_crlf_endings(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_bytes(b"0,1\r\n1,0\r\n")
        assert load_matrix(path).values.tolist() == [[0, 1], [1, 0]]

    def test_non_binary_cell_location(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0,2\n1,0\n")
        with pytest.raises(MatrixParseError) as info:
            load_matrix(path)
        assert info.value.line == 1
        assert info.value.column == 2

    def test_non_numeric_after_header(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("a,b\n1,x\n")
        with pytest.raises(MatrixParseError) as info:
            load_matrix(path)
        assert info.value.line == 2
        assert info.value.column == 2

    def test_ragged_rows(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0,1\n1\n")
        with pytest.raises(MatrixParseError) as info:
            load_matrix(path)
        assert info.value.line == 2

    def test_empty_file(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("")
        with pytest.raises(MatrixParseError):
            load_matrix(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("x,y\n")
        with pytest.raises(MatrixParseError):
            load_matrix(path)

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        data = BinaryDataMatrix(rng.integers(0, 2, size=(6, 5)))
        path = tmp_path / "m.csv"
        write_matrix_csv(data, path)
        assert np.array_equal(load_matrix(path).values, data.values)

    def test_written_bytes(self, tmp_path):
        data = BinaryDataMatrix(np.array([[0, 1, 1], [1, 0, 0]]))
        path = tmp_path / "m.csv"
        write_matrix_csv(data, path, header=["a", "b", "c"])
        assert path.read_bytes() == b"a,b,c\n0,1,1\n1,0,0\n"
        write_matrix_csv(data, path)
        assert path.read_bytes() == b"0,1,1\n1,0,0\n"

    @pytest.mark.parametrize("raw, line", [
        (b"caf\xe9,b\n0,1\n1,0\n", 1),
        (b"a,b\r\n0,1\r\n1,\xff\r\n", 3),
        (b"\xef\xbb\xbf0,1\n\n1,\xc3\n", 3),
        (b"0,1\r1,0\r\x85,1\r", 3),
    ], ids=["header", "crlf-body", "bom-truncated", "bare-cr"])
    def test_undecodable_byte_location(self, tmp_path, raw, line):
        path = tmp_path / "m.csv"
        path.write_bytes(raw)
        with pytest.raises(MatrixParseError, match="is not UTF-8") as info:
            load_matrix(path)
        assert info.value.line == line
        assert f"at row {line} " in str(info.value)


# the fixed inputs of the TestLoadMatrix cases above
LOAD_MATRIX_INPUTS = [
    b"0,1\n1,0\n", b"item1,item2\n1,1\n", b"0,1,1\n1,0,1\n\n", b"0,1,O\n1,0,1\n0,0,1\n",
    "\ufeff0,1,1\r\n1,0,1\r\n".encode(), "\ufeffitem1,item2,item3\r\n0,1,1\r\n".encode(),
    b"0,1\r\n1,0\r\n", b"0,2\n1,0\n", b"a,b\n1,x\n", b"0,1\n1\n", b"", b"x,y\n",
    b"a,b,c\n0,1,1\n1,0,0\n", b"0,1,1\n1,0,0\n", b"caf\xe9,b\n0,1\n1,0\n",
    b"a,b\r\n0,1\r\n1,\xff\r\n", b"\xef\xbb\xbf0,1\n\n1,\xc3\n", b"0,1\r1,0\r\x85,1\r",
    # inputs at the edge of the decode straight from the file's bytes:
    # canonical rows without the final LF, a same-width row ending in a comma
    # where its LF should be, a byte-order mark before canonical rows, and a
    # one-column file (b"0,1,1\n1,0,1\n\n" above ends in one blank line)
    b"0,1\n1,0", b"0,1\n0,1,", codecs.BOM_UTF8 + b"0,1\n1,0\n", b"0\n1\n1\n",
]

# bytes a mutation puts into a canonical file: cell and line characters,
# whitespace, number syntax, str.splitlines breaks and bytes that are not UTF-8
FUZZ_BYTES = [bytes([b]) for b in b"01,\n\r \t.+-eOx2\x0b\x0c\x1c"] + [
    "\x85".encode(), "\u2028".encode(), b"\xe9", b"\xff"]


class TestCanonicalDecode:
    """The one-pass decode of canonical files against the per-cell parser.

    ``per_cell_load_matrix`` is ``load_matrix`` as it was before the
    vectorized decode: every file must give its matrix, or its error type,
    message and coordinates.  A file that is not UTF-8 made it raise
    ``UnicodeDecodeError``; it is now a ``MatrixParseError``.
    """

    @staticmethod
    def per_cell_load_matrix(path):
        def is_number(token):
            try:
                float(token)
            except ValueError:
                return False
            return True

        lines = Path(path).read_text(encoding="utf-8-sig").splitlines()
        while lines and not lines[-1].strip():
            lines.pop()
        if not lines:
            raise MatrixParseError(f"{path}: file is empty")
        first_tokens = [t.strip() for t in lines[0].split(",")]
        start = 0 if any(is_number(t) for t in first_tokens) else 1
        if start == len(lines):
            raise MatrixParseError(f"{path}: no data rows after the header")
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
                if not is_number(stripped):
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
        return BinaryDataMatrix(np.array(rows, dtype=np.int8))

    def assert_same_as_per_cell(self, path):
        try:
            expected = self.per_cell_load_matrix(path).values
        except UnicodeDecodeError:
            with pytest.raises(MatrixParseError, match="is not UTF-8"):
                load_matrix(path)
        except MatrixParseError as error:
            with pytest.raises(MatrixParseError) as info:
                load_matrix(path)
            assert (str(info.value), info.value.line, info.value.column) == (
                str(error), error.line, error.column)
        else:
            values = load_matrix(path).values
            assert values.dtype == expected.dtype and np.array_equal(values, expected)

    @staticmethod
    def near_canonical(rng):
        n, q = int(rng.integers(1, 5)), int(rng.choice([1, 2, 3, 6]))
        lines = [",".join(map(str, row)) for row in rng.integers(0, 2, size=(n, q))]
        if rng.random() < 0.5:
            lines.insert(0, ",".join(f"item{j + 1}" for j in range(q)))
        newline = "\r\n" if rng.random() < 0.3 else "\n"
        text = newline.join(lines) + newline * int(rng.integers(1, 4))
        raw = (("\ufeff" if rng.random() < 0.2 else "") + text).encode()
        for _ in range(int(rng.integers(0, 3))):
            at = int(rng.integers(0, len(raw) + 1))
            kind = rng.integers(0, 7)
            if kind == 0:  # flip a byte
                raw = raw[:at] + FUZZ_BYTES[rng.integers(len(FUZZ_BYTES))] + raw[at + 1:]
            elif kind == 1:  # insert a byte
                raw = raw[:at] + FUZZ_BYTES[rng.integers(len(FUZZ_BYTES))] + raw[at:]
            elif kind == 2:  # delete a byte
                raw = raw[:at] + raw[at + 1:]
            elif kind == 3:  # spaces around a cell
                cell = raw.find(b"1", at)
                raw = raw[:cell] + b" 1 " + raw[cell + 1:] if cell >= 0 else raw
            elif kind == 4:  # CR-only line endings
                raw = raw.replace(b"\r\n", b"\n").replace(b"\n", b"\r")
            elif kind == 5:  # a str.splitlines break inside the first line
                raw = raw.replace(b"1", rng.choice(["\x85", "\u2028", "\x0b"]).encode() + b"1",
                                  1)
            else:  # no final line break
                raw = raw.rstrip(b"\r\n")
        return raw

    @pytest.mark.parametrize("raw", LOAD_MATRIX_INPUTS)
    def test_load_matrix_inputs(self, tmp_path, raw):
        path = tmp_path / "m.csv"
        path.write_bytes(raw)
        self.assert_same_as_per_cell(path)

    @staticmethod
    def is_canonical(raw):
        """Whether ``raw``, after any byte-order mark, is LF-terminated
        ``[01](,[01])*`` rows of one width."""
        rows = raw.removeprefix(codecs.BOM_UTF8).split(b"\n")
        return (len(rows) > 1 and rows[-1] == b"" and len(set(map(len, rows[:-1]))) == 1
                and all(re.fullmatch(rb"[01](,[01])*", row) for row in rows[:-1]))

    def reaches_the_parser(self, path):
        """Whether the per-cell reference gets past the decode, the blank tail
        and the header to a data row."""
        try:
            self.per_cell_load_matrix(path)
        except UnicodeDecodeError:
            return False
        except MatrixParseError as error:
            # the refusals before any row is read (an empty file, a header
            # alone) carry no line; every refusal of a row names its line
            return error.line is not None
        return True

    def test_fuzzed_near_canonical_files(self, tmp_path, monkeypatch):
        deferred = []

        def counting(*args):
            deferred.append(args[0])
            return per_cell(*args)

        per_cell = lbm_io._parse_cells
        monkeypatch.setattr(lbm_io, "_parse_cells", counting)
        rng = np.random.default_rng(20240901)
        cases = 400
        for case in range(cases):
            path = tmp_path / f"f{case}.csv"
            raw = self.near_canonical(rng)
            path.write_bytes(raw)
            self.assert_same_as_per_cell(path)
            # the per-cell parser reads exactly the files with a data row that
            # the raw-bytes decode refuses
            expected = not self.is_canonical(raw) and self.reaches_the_parser(path)
            assert deferred.count(path) == expected, raw
        # both paths ran
        assert 0 < len(deferred) < cases

    def test_canonical_files_skip_the_per_cell_parser(self, tmp_path, monkeypatch):
        def refuse(*args):
            raise AssertionError(f"{args[0]} reached the per-cell parser")

        per_cell = lbm_io._parse_cells
        rng = np.random.default_rng(6)
        for q in (1, 2, 5):
            data = BinaryDataMatrix(rng.integers(0, 2, size=(7, q)))
            for header in (None, [f"item{j + 1}" for j in range(q)]):
                path = tmp_path / f"m{q}.csv"
                write_matrix_csv(data, path, header=header)
                written = path.read_bytes()
                # a headerless file of LF rows, with or without a byte-order
                # mark, never reaches the per-cell parser; the header, CRLF
                # and blank-tail variants are checked by value
                for raw, skips in ((written, header is None),
                                   (codecs.BOM_UTF8 + written, header is None),
                                   (written.replace(b"\n", b"\r\n"), False),
                                   (written + b"\n\n", False)):
                    monkeypatch.setattr(lbm_io, "_parse_cells", refuse if skips else per_cell)
                    path.write_bytes(raw)
                    assert np.array_equal(load_matrix(path).values, data.values)
        monkeypatch.setattr(lbm_io, "_parse_cells", per_cell)
        params = LBMParameters(2, 2, [0.5, 0.5], [0.5, 0.5], [[0.2, 0.7], [0.6, 0.3]])
        data = BinaryDataMatrix(rng.integers(0, 2, size=(6, 4)))
        z, w = np.array([1, 0, 1, 0, 0, 1]), np.array([1, 0, 0, 1])
        matrix_path, _ = export_reordered(data, make_fit_result(params, z, w), tmp_path / "re")
        assert np.array_equal(load_matrix(matrix_path).values,
                              data.values[np.argsort(z, kind="stable")][:, [1, 2, 0, 3]])


class TestExportReordered:
    def test_single_block_is_identity(self, tmp_path):
        rng = np.random.default_rng(8)
        data = BinaryDataMatrix(rng.integers(0, 2, size=(4, 3)))
        params = LBMParameters(1, 1, [1.0], [1.0], [[0.5]])
        result = make_fit_result(params, np.zeros(4, dtype=int), np.zeros(3, dtype=int))
        matrix_path, summary_path = export_reordered(data, result, tmp_path / "out")
        assert np.array_equal(load_matrix(matrix_path).values, data.values)
        assert "rho" in (tmp_path / "out_blocks.txt").read_text()

    def test_stable_order_within_groups(self, tmp_path):
        data = BinaryDataMatrix(np.array([
            [1, 1, 0],
            [0, 0, 1],
            [1, 0, 0],
            [0, 1, 1],
        ]))
        params = LBMParameters(2, 1, [0.5, 0.5], [1.0], [[0.4], [0.6]])
        z = np.array([1, 0, 1, 0])
        result = make_fit_result(params, z, np.zeros(3, dtype=int))
        matrix_path, summary_path = export_reordered(data, result, tmp_path / "toy")
        reordered = load_matrix(matrix_path)
        # group 0 rows (1, 3) first in original order, then group 1 rows (0, 2)
        assert np.array_equal(reordered.values, data.values[[1, 3, 0, 2]])
        summary = (tmp_path / "toy_blocks.txt").read_text()
        assert "row-order 2 4 1 3" in summary
        assert "row-group 1: rows 1-2" in summary
        assert "row-group 2: rows 3-4" in summary

    def test_group_spans_skip_absent_groups(self):
        spans = lbm_io._group_spans(np.array([0, 0, 2, 2, 2, 3]))
        assert spans == [(1, 1, 2), (3, 3, 5), (4, 6, 6)]
        assert all(type(v) is int for span in spans for v in span)
        assert lbm_io._group_spans(np.array([1, 1, 1])) == [(2, 1, 3)]

    def test_summary_layout(self, tmp_path):
        rng = np.random.default_rng(9)
        data = BinaryDataMatrix(rng.integers(0, 2, size=(5, 4)))
        params = LBMParameters(3, 4, [0.329, 0.342, 0.329], [0.291, 0.264, 0.299, 0.146],
                               rng.uniform(0.2, 0.9, size=(3, 4)))
        z = np.array([0, 1, 2, 0, 1])
        w = np.array([0, 1, 2, 3])
        result = make_fit_result(params, z, w)
        export_reordered(data, result, tmp_path / "jp")
        lines = [line for line in (tmp_path / "jp_blocks.txt").read_text().splitlines()
                 if line and not line.startswith("#")]
        # rho across the top
        head = lines[0].split()
        assert head[0] == "rho"
        assert [float(v) for v in head[1:]] == pytest.approx(params.rho.tolist(), abs=1e-6)
        # pi down the left with the alpha rows beside it
        for k in range(3):
            row = [float(v) for v in lines[1 + k].split()]
            assert row[0] == pytest.approx(params.pi[k], abs=1e-6)
            assert row[1:] == pytest.approx(params.alpha[k].tolist(), abs=1e-6)


class TestWriteJson:
    def test_reference_pair_distribution_sorted(self):
        summary = SimpleNamespace(minimum=1.0, first_quartile=1.0, median=2.0, mean=2.0,
                                  third_quartile=3.0, maximum=3.0)
        study = SimpleNamespace(runs=6, reference_pair=(2, 3), reference_icl=-10.5,
                                occurrences=2, occurrence_indices=(1, 4),
                                selected_pairs=((2, 3), (1, 4), (2, 1), (2, 3), (1, 2), (1, 4)),
                                inter_arrival_summary=summary)
        payload = lbm_io.reference_payload(study)
        assert payload["pair_distribution"] == [
            {"g": 1, "m": 2, "count": 1}, {"g": 1, "m": 4, "count": 2},
            {"g": 2, "m": 1, "count": 1}, {"g": 2, "m": 3, "count": 2}]
        json.dumps(payload)

    def test_written_bytes(self, tmp_path):
        # config-shaped: a tuple, a nested dict, keys out of order
        payload = {
            "seed": 7,
            "config": {"target": (3, 4), "epsilon": [0.1, 0.25], "command": "robustness",
                       "labels_out": None},
            "cells": [{"n": 40, "rates_by_g": {"3": [0.0, 0.125]}}],
        }
        path = tmp_path / "out.json"
        lbm_io.write_json(payload, path)
        assert path.read_bytes() == (
            b'{\n'
            b'  "cells": [\n'
            b'    {\n'
            b'      "n": 40,\n'
            b'      "rates_by_g": {\n'
            b'        "3": [\n'
            b'          0.0,\n'
            b'          0.125\n'
            b'        ]\n'
            b'      }\n'
            b'    }\n'
            b'  ],\n'
            b'  "config": {\n'
            b'    "command": "robustness",\n'
            b'    "epsilon": [\n'
            b'      0.1,\n'
            b'      0.25\n'
            b'    ],\n'
            b'    "labels_out": null,\n'
            b'    "target": [\n'
            b'      3,\n'
            b'      4\n'
            b'    ]\n'
            b'  },\n'
            b'  "seed": 7\n'
            b'}\n')

    def test_nan_is_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            lbm_io.write_json({"icl": float("nan")}, tmp_path / "out.json")


def test_package_and_cli_import_no_scipy():
    # numpy is the one runtime dependency; a fresh interpreter shows every
    # module the package pulls in at import time
    src = str(Path(lbm_io.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    loaded = subprocess.run(
        [sys.executable, "-c", "import sys, binlbm, binlbm.cli; print(*sys.modules)"],
        env=env, check=True, capture_output=True, text=True).stdout.split()
    assert "binlbm.cli" in loaded
    assert [name for name in loaded if name.startswith("scipy")] == []


class TestCli:
    def run(self, *argv):
        return main([str(a) for a in argv])

    def test_simulate_select_round_trip(self, tmp_path):
        data_path = tmp_path / "data.csv"
        labels_path = tmp_path / "labels.json"
        assert self.run("simulate", "--epsilon", 0.05, "--g", 2, "--m", 2,
                        "--n", 24, "--q", 10, "--seed", 3,
                        "--out", data_path, "--labels-out", labels_path) == 0
        data = load_matrix(data_path)
        assert data.n == 24 and data.q == 10
        labels = json.loads(labels_path.read_text())
        assert len(labels["z"]) == 24 and min(labels["z"]) >= 1

        out = tmp_path / "sel.json"
        assert self.run("select", "--data", data_path, "--g-max", 3, "--m-max", 3,
                        "--restarts", 1, "--seed", 7, "--out", out) == 0
        payload = json.loads(out.read_text())
        assert len(payload["grid"]) == 9
        assert {"best_g", "best_m", "icl", "free_energy", "config", "seed"} <= payload.keys()
        assert payload["config"]["command"] == "select"

    def test_fit_command(self, tmp_path):
        data_path = tmp_path / "d.csv"
        self.run("simulate", "--epsilon", 0.1, "--g", 2, "--m", 2, "--n", 20,
                 "--q", 8, "--seed", 1, "--out", data_path)
        out = tmp_path / "fit.json"
        assert self.run("fit", "--data", data_path, "--g", 2, "--m", 2,
                        "--seed", 5, "--out", out) == 0
        payload = json.loads(out.read_text())
        assert len(payload["z"]) == 20
        assert set(payload["z"]) <= {1, 2}
        assert len(payload["alpha"]) == 2

    def test_payload_determinism_and_threads(self, tmp_path):
        data_path = tmp_path / "d.csv"
        self.run("simulate", "--epsilon", 0.15, "--g", 2, "--m", 2, "--n", 30,
                 "--q", 12, "--seed", 11, "--out", data_path)
        outs = [tmp_path / f"sel{i}.json" for i in range(3)]
        for out, threads in zip(outs, (1, 1, 4)):
            assert self.run("select", "--data", data_path, "--g-max", 3, "--m-max", 3,
                            "--seed", 13, "--threads", threads, "--out", out) == 0
        first = outs[0].read_bytes()
        assert outs[1].read_bytes() == first
        assert outs[2].read_bytes() == first

    def test_tune_t_command(self, tmp_path):
        out = tmp_path / "tune.json"
        assert self.run("tune-t", "--epsilon", 0.05, "--datasets", 2, "--target", "3,4",
                        "--g-max", 4, "--m-max", 5, "--t-cap", 2, "--n", 60, "--q", 24,
                        "--seed", 11, "--out", out) == 0
        payload = json.loads(out.read_text())
        record = payload["records"][0]
        assert record["epsilon"] == 0.05
        assert len(record["stop_t"]) == 2
        assert record["distribution"][0]["t"] == 1

    def test_refmodel_command(self, tmp_path):
        data_path = tmp_path / "d.csv"
        self.run("simulate", "--epsilon", 0.05, "--g", 2, "--m", 2, "--n", 30,
                 "--q", 12, "--seed", 2, "--out", data_path)
        out = tmp_path / "ref.json"
        assert self.run("refmodel", "--data", data_path, "--runs", 3, "--g-max", 2,
                        "--m-max", 2, "--seed", 3, "--out", out) == 0
        payload = json.loads(out.read_text())
        assert payload["runs"] == 3
        assert payload["occurrences"] >= 1
        assert "inter_arrival_summary" in payload

    def test_robustness_command(self, tmp_path):
        out = tmp_path / "rob.json"
        assert self.run("robustness", "--epsilon", 0.1, "--datasets", 1, "--sizes", 20,
                        "--samples-per-size", 2, "--g-max", 3, "--m-max", 4,
                        "--n", 60, "--q", 24, "--seed", 17, "--out", out) == 0
        payload = json.loads(out.read_text())
        cell = payload["cells"][0]
        assert cell["n"] == 20
        assert sum(entry["count"] for entry in cell["pairs"]) == 2

    def test_robustness_sample_of_every_row(self, tmp_path, monkeypatch):
        # this data set's allocation asks group 1 for one row more than it
        # holds; the row goes to another group and the subsample is the data
        taken = []

        def recording(*args, **kwargs):
            result = stratified_subsample(*args, **kwargs)
            taken.append(result[2])
            return result

        monkeypatch.setattr(evaluation, "stratified_subsample", recording)
        out = tmp_path / "rob.json"
        assert self.run("robustness", "--epsilon", 0.15, "--datasets", 1, "--sizes", 137,
                        "--samples-per-size", 1, "--seed", 5, "--out", out) == 0
        assert len(taken) == 1 and np.array_equal(taken[0], np.arange(137))
        assert json.loads(out.read_text())["cells"][0]["n"] == 137

    def test_reorder_command(self, tmp_path):
        data_path = tmp_path / "d.csv"
        self.run("simulate", "--epsilon", 0.1, "--g", 2, "--m", 2, "--n", 18,
                 "--q", 8, "--seed", 23, "--out", data_path)
        assert self.run("reorder", "--data", data_path, "--g", 2, "--m", 2,
                        "--seed", 29, "--out", tmp_path / "re") == 0
        reordered = load_matrix(tmp_path / "re_reordered.csv")
        assert reordered.n == 18 and reordered.q == 8
        assert (tmp_path / "re_blocks.txt").exists()

    def test_missing_file_is_reported(self, tmp_path, capsys):
        code = self.run("select", "--data", tmp_path / "nope.csv", "--out", tmp_path / "o.json")
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_bad_cell_value_is_reported(self, tmp_path, capsys):
        data_path = tmp_path / "bad.csv"
        data_path.write_text("0,2\n1,0\n")
        code = self.run("fit", "--data", data_path, "--g", 1, "--m", 1,
                        "--out", tmp_path / "o.json")
        assert code == 1
        assert "row 1, column 2" in capsys.readouterr().err

    def test_undecodable_byte_is_reported(self, tmp_path, capsys):
        data_path = tmp_path / "latin1.csv"
        data_path.write_bytes(b"caf\xe9,b\n0,1\n1,0\n")
        code = self.run("fit", "--data", data_path, "--g", 1, "--m", 1,
                        "--out", tmp_path / "o.json")
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "byte 0xe9 at row 1 is not UTF-8" in err
        assert not (tmp_path / "o.json").exists()

    def test_unknown_flag_exits_with_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            self.run("select", "--data", tmp_path / "d.csv", "--out", tmp_path / "o.json",
                     "--bogus", 1)
        assert info.value.code == 2

    def test_zero_threads_is_reported(self, tmp_path, capsys):
        data_path = tmp_path / "d.csv"
        data_path.write_text("0,1\n1,0\n")
        code = self.run("select", "--data", data_path, "--g-max", 1, "--m-max", 1,
                        "--threads", 0, "--out", tmp_path / "o.json")
        assert code == 1
        assert "threads must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "o.json").exists()

    def test_invalid_epsilon_is_reported(self, tmp_path, capsys):
        code = self.run("simulate", "--epsilon", 1.5, "--out", tmp_path / "d.csv")
        assert code == 1
        assert "epsilon" in capsys.readouterr().err


CHAIN_DEFAULTS = {"seed": 0, "a": 4.0, "b": 1.0, "tol": 1e-06, "max_iter": 500,
                  "gibbs_sweeps": 100}

# a minimal command line per subcommand, the namespace it parses to (without
# the handler) and the library function the subcommand calls
PARSED = [
    (["simulate", "--epsilon", "0.1", "--out", "d.csv"],
     {"command": "simulate", "epsilon": 0.1, "g": 3, "m": 4, "n": 137, "q": 33, "seed": 0,
      "out": "d.csv", "labels_out": None}, None),
    (["fit", "--data", "d.csv", "--g", "2", "--m", "3", "--out", "f.json"],
     {"command": "fit", "data": "d.csv", "g": 2, "m": 3, "restarts": 1, "out": "f.json",
      **CHAIN_DEFAULTS}, fit),
    (["select", "--data", "d.csv", "--out", "s.json"],
     {"command": "select", "data": "d.csv", "g_max": 7, "m_max": 7, "restarts": 1,
      "out": "s.json", "threads": 1, **CHAIN_DEFAULTS}, select_model),
    (["tune-t", "--epsilon", "0.05", "--datasets", "2", "--out", "t.json"],
     {"command": "tune-t", "epsilon": [0.05], "datasets": 2, "target": (3, 4), "g_max": 7,
      "m_max": 7, "t_cap": 200, "n": 137, "q": 33, "out": "t.json", "threads": 1,
      **CHAIN_DEFAULTS}, tune_restarts),
    (["refmodel", "--data", "d.csv", "--runs", "5", "--out", "r.json"],
     {"command": "refmodel", "data": "d.csv", "runs": 5, "g_max": 7, "m_max": 7,
      "out": "r.json", "threads": 1, **CHAIN_DEFAULTS}, reference_model_study),
    (["robustness", "--epsilon", "0.15", "--datasets", "1", "--sizes", "20", "40",
      "--out", "b.json"],
     {"command": "robustness", "epsilon": [0.15], "datasets": 1, "sizes": [20, 40],
      "samples_per_size": 10, "target": (3, 4), "g_max": 7, "m_max": 7, "n": 137, "q": 33,
      "restarts": 1, "out": "b.json", "threads": 1, **CHAIN_DEFAULTS}, robustness_experiment),
    (["reorder", "--data", "d.csv", "--g", "2", "--m", "3", "--out", "re"],
     {"command": "reorder", "data": "d.csv", "g": 2, "m": 3, "restarts": 1, "out": "re",
      **CHAIN_DEFAULTS}, fit),
]


class TestCliDeclarations:
    """Every result file embeds the parsed namespace as its config, so the
    namespace of each subcommand is pinned here, value and type."""

    @pytest.mark.parametrize("argv, expected, _", PARSED, ids=[p[0][0] for p in PARSED])
    def test_namespace(self, argv, expected, _):
        parsed = vars(build_parser().parse_args(argv))
        parsed.pop("handler")
        assert parsed == expected
        assert {k: type(v) for k, v in parsed.items()} == {
            k: type(v) for k, v in expected.items()}

    @pytest.mark.parametrize("argv, _, library", PARSED, ids=[p[0][0] for p in PARSED])
    def test_defaults_come_from_the_library(self, argv, _, library):
        parsed = vars(build_parser().parse_args(argv))
        prior = PriorHyperparams()
        constants = {"a": prior.a, "b": prior.b, "tol": DEFAULT_TOL,
                     "max_iter": DEFAULT_MAX_ITER, "gibbs_sweeps": DEFAULT_GIBBS_SWEEPS,
                     "g_max": DEFAULT_GRID[0], "m_max": DEFAULT_GRID[1], "t_cap": DEFAULT_T_CAP}
        shared = constants.keys() & parsed.keys()
        assert {k: parsed[k] for k in shared} == {k: constants[k] for k in shared}
        if library is None:
            return
        # the study drivers pass the chain settings through to fit, so a
        # setting the library function does not declare is fit's
        params = inspect.signature(library).parameters
        chain = inspect.signature(fit).parameters
        for dest in ("restarts", "seed", "n", "q", "t_cap", "target", "gibbs_sweeps",
                     "max_iter", "tol"):
            param = params.get("target_pair" if dest == "target" else dest, chain.get(dest))
            if dest in parsed and param is not None and param.default is not param.empty:
                assert parsed[dest] == param.default, dest
        assert chain["prior"].default == PriorHyperparams(a=parsed["a"], b=parsed["b"])
