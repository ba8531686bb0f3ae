import gzip
import json
import os
import re
import subprocess
import sys
import threading
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from caltest import cli
from caltest.cli import (
    EmptyInputError,
    LabelValueError,
    MalformedRowError,
    PredictionRangeError,
    ingest,
    main,
    write_dataset_csv,
)
from caltest.core import Dataset
from caltest.experiments import BatteryConfig, metric_battery, run_sweep, scenario_dataset


FOUR_POINT_CSV = "prediction,label\n0.2,0\n0.3,1\n0.7,1\n0.9,1\n"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_ingest_csv(tmp_path):
    path = write(tmp_path, "ok.csv", "prediction,label\n0.2,0\n0.9,1\n")
    ds = ingest(path)
    assert ds.n == 2
    assert ds.predictions.tolist() == [0.2, 0.9]


def test_ingest_json(tmp_path):
    path = write(
        tmp_path, "ok.json", '[{"prediction": 0.2, "label": 0}, {"prediction": 0.9, "label": 1}]'
    )
    assert ingest(path).n == 2


def test_ingest_errors_name_the_row(tmp_path):
    with pytest.raises(PredictionRangeError, match="row 1"):
        ingest(write(tmp_path, "range.csv", "prediction,label\n1.2,0\n"))
    with pytest.raises(LabelValueError, match="row 2"):
        ingest(write(tmp_path, "label.csv", "prediction,label\n0.5,0\n0.5,3\n"))
    with pytest.raises(MalformedRowError, match="row 1"):
        ingest(write(tmp_path, "bad.csv", "prediction,label\nabc,0\n"))
    with pytest.raises(MalformedRowError):
        ingest(write(tmp_path, "cols.csv", "prediction,label\n0.5\n"))
    with pytest.raises(MalformedRowError):
        ingest(write(tmp_path, "header.csv", "pred,y\n0.5,0\n"))
    with pytest.raises(EmptyInputError):
        ingest(write(tmp_path, "empty.csv", ""))
    with pytest.raises(EmptyInputError):
        ingest(write(tmp_path, "headeronly.csv", "prediction,label\n"))
    with pytest.raises(MalformedRowError, match="row 1"):
        ingest(write(tmp_path, "bad.json", '[{"prediction": 0.5}]'))
    with pytest.raises(EmptyInputError, match="file is empty"):
        ingest(write(tmp_path, "empty.json", " \n"))
    with pytest.raises(MalformedRowError, match="invalid JSON"):
        ingest(write(tmp_path, "broken.json", '[{"prediction": 0.5,'))
    with pytest.raises(EmptyInputError, match="non-empty JSON array"):
        ingest(write(tmp_path, "nothing.json", "[]"))


@pytest.mark.parametrize(
    "record",
    [
        '{"prediction": true, "label": 1}',
        '{"prediction": 0.5, "label": false}',
        '{"prediction": "0.5", "label": 1}',
        '{"prediction": null, "label": 1}',
        '{"prediction": 0.5, "label": [1]}',
    ],
)
def test_ingest_json_rejects_non_numbers(tmp_path, record):
    path = write(tmp_path, "typed.json", f'[{{"prediction": 0.2, "label": 0}}, {record}]')
    with pytest.raises(MalformedRowError, match="row 2"):
        ingest(path)


@pytest.mark.parametrize("field", ["prediction", "label"])
def test_ingest_json_rejects_overflowing_integers(tmp_path, capsys, field):
    record = {"prediction": 0.5, "label": 1, field: 10**400}  # too large for a float
    path = write(tmp_path, "big.json", json.dumps([{"prediction": 0.2, "label": 0}, record]))
    with pytest.raises(MalformedRowError, match=f"row 2: {field}"):
        ingest(path)
    assert main(["compute", str(path), "--out", str(tmp_path / "out")]) == 1
    assert f"row 2: {field}" in capsys.readouterr().err


def test_ingest_accepts_utf8_byte_order_mark(tmp_path):
    csv_path = write(tmp_path, "bom.csv", "\ufeffprediction,label\n0.2,0\n0.9,1\n")
    assert ingest(csv_path).predictions.tolist() == [0.2, 0.9]
    json_path = write(tmp_path, "bom.json", '\ufeff[{"prediction": 0.2, "label": 0}]')
    assert ingest(json_path).labels.tolist() == [0]


def reference_ingest_csv(path):
    """The per-row CSV parser that the numpy pass replaced, kept as the reference."""
    text = path.read_text(encoding="utf-8-sig")
    if not text.strip():
        raise EmptyInputError(f"{path}: file is empty")
    lines = text.splitlines()
    header = lines[0].strip().lower()
    if header.replace(" ", "") != "prediction,label":
        raise MalformedRowError(f"{path}: expected header 'prediction,label', got {lines[0]!r}")
    data_lines = [ln for ln in lines[1:] if ln.strip()]
    if not data_lines:
        raise EmptyInputError(f"{path}: no data rows")
    preds, labels = [], []
    for row, line in enumerate(data_lines, start=1):
        parts = line.split(",")
        if len(parts) != 2:
            raise MalformedRowError(f"row {row}: expected 'prediction,label', got {line!r}")
        raw_pred, raw_label = parts[0].strip(), parts[1].strip()
        try:
            pred = float(raw_pred)
        except ValueError:
            raise MalformedRowError(f"row {row}: prediction {raw_pred!r} is not a number") from None
        if not np.isfinite(pred) or not (0.0 <= pred <= 1.0):
            raise PredictionRangeError(f"row {row}: prediction {pred!r} outside [0, 1]")
        try:
            label_f = float(raw_label)
        except ValueError:
            raise MalformedRowError(f"row {row}: label {raw_label!r} is not a number") from None
        if label_f not in (0.0, 1.0):
            raise LabelValueError(f"row {row}: label {raw_label!r} must be 0 or 1")
        preds.append(pred)
        labels.append(int(label_f))
    return Dataset(np.array(preds), np.array(labels))


PREDICTION_TOKENS = ["0", "1", "0.25", "1e-3", "0.2_5", "\u0661", " 0.5 ", "+.5", "-0", "\u20030.5"]
LABEL_TOKENS = ["0", "1", "1.0", "1e0", " 1 ", "-0", "\u0661"]
BAD_TOKENS = ["1_0", "nan", "inf", "-inf", "1e400", "", " ", "abc", "1.5", "-0.1", "2"]


@st.composite
def csv_texts(draw):
    pred = st.sampled_from(PREDICTION_TOKENS) | st.floats(0.0, 1.0).map(repr)
    label = st.sampled_from(LABEL_TOKENS)
    bad = st.sampled_from(BAD_TOKENS)
    rows = draw(st.lists(st.tuples(pred, label).map(",".join) | st.sampled_from(["", "  "]), max_size=8))
    bad_row = (
        st.tuples(bad, label).map(",".join)
        | st.tuples(pred, bad).map(",".join)
        | st.lists(pred | label, min_size=1, max_size=3).filter(lambda f: len(f) != 2).map(",".join)
    )
    # Valid files, and files with one or two bad rows among valid ones.
    for _ in range(draw(st.integers(0, 2))):
        rows.insert(draw(st.integers(0, len(rows))), draw(bad_row))
    header = draw(st.sampled_from(["prediction,label", " Prediction, Label ", "pred,y"]))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    text = newline.join([header, *rows]) + draw(st.sampled_from(["", newline]))
    return draw(st.sampled_from(["", "\ufeff"])) + text


def ingest_outcome(parse, path):
    try:
        ds = parse(path)
    except ValueError as exc:
        return type(exc), str(exc)
    return ds.predictions.dtype, ds.predictions.tobytes(), ds.labels.dtype, ds.labels.tobytes()


@settings(max_examples=400, deadline=None)
@given(csv_texts())
@example("prediction,label\n0.5,1,1\n0\n")  # 3 + 1 fields: two per row on average
def test_ingest_csv_matches_per_row_reference(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "equivalence.csv"
    path.write_text(text, encoding="utf-8")
    assert ingest_outcome(ingest, path) == ingest_outcome(reference_ingest_csv, path)


SPLITLINES_ONLY_BREAKS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]

BREAK_PLACES = {
    "in-field": "prediction,label\n0.5{},1\n0.25,0\n",
    "between-rows": "prediction,label\n0.5,1{}0.25,0\n",
    "own-line": "prediction,label\n0.5,1\n{}\n0.25,0\n",
    "after-header": "prediction,label{}0.5,1\n",
}

BOUNDARY_CSV_TEXTS = {
    **{
        f"U+{ord(brk):04X}-{place}": template.format(brk)
        for brk in SPLITLINES_ONLY_BREAKS
        for place, template in BREAK_PLACES.items()
    },
    "hash-row": "prediction,label\n#0.5,1\n0.25,0\n",
    "hash-after-row": "prediction,label\n0.5,1 # note\n",
    "hash-header": "#prediction,label\n0.5,1\n",
    "single-quotes": "prediction,label\n'0.5',1\n",
    "double-quotes": 'prediction,label\n"0.5","1"\n',
    "quoted-row": 'prediction,label\n"0.5,1"\n',
    "spaces-line": "prediction,label\n0.5,1\n   \n0.25,0\n",
    "tab-line-only": "prediction,label\n\t\n",
    "unit-separator-line": "prediction,label\n0.5,1\n\x1f\n",
    "one-column-rows": "prediction,label\n0.5\n0.25\n",
    "one-column-file": "prediction\n0.5\n0.25\n",
    "header-only": "prediction,label\n",
    "header-only-no-newline": "prediction,label",
    "lone-cr": "prediction,label\r0.5,1\r0.25,0\r",
    "lone-cr-blank-line": "prediction,label\r0.5,1\r\r0.25,0",
    "mixed-line-ends": "prediction,label\r\n0.5,1\r0.25,0\n",
    "whitespace-only-file": " \n\t\r\n\u3000\n",
    "blank-first-line": "\nprediction,label\n0.5,1\n",
    "byte-order-mark-only": "\ufeff",
    "underscore-row-mid-file": "prediction,label\n0.5,1\n0.2_5,1\n0.25,0\n",
    "non-ascii-digit-row-mid-file": "prediction,label\n0.5,1\n\u0660.\u0665,1\n0.25,0\n",
    "lone-cr-past-one-block": "prediction,label\r" + "0.25,1\r0.5,0\r" * (cli._SCAN_BLOCK // 7),
}


@pytest.mark.parametrize("text", BOUNDARY_CSV_TEXTS.values(), ids=BOUNDARY_CSV_TEXTS.keys())
def test_ingest_csv_boundaries_match_per_row_reference(tmp_path, text):
    path = tmp_path / "boundary.csv"
    path.write_bytes(text.encode("utf-8"))
    assert_ingest_matches_reference(path)


def assert_ingest_matches_reference(path):
    want = ingest_outcome(reference_ingest_csv, path)
    assert ingest_outcome(ingest, path) == want
    with mock.patch.object(cli, "_SCAN_BLOCK", 2):  # multi-byte breaks straddle the scanned blocks
        assert ingest_outcome(ingest, path) == want


@st.composite
def odd_csv_texts(draw):
    """Rows with line breaks, comment, quote and whitespace characters inserted anywhere."""
    row = st.tuples(st.sampled_from(["0", "1", "0.25", "1e-3"]), st.sampled_from(["0", "1"])).map(",".join)
    text = "\n".join(draw(st.lists(row | st.sampled_from(["", "  ", "0.5"]), max_size=6)))
    odd = st.sampled_from([*SPLITLINES_ONLY_BREAKS, "\r", "\n", "#", "'", '"', " ", "\t", "\x1f", ","])
    for piece in draw(st.lists(odd, max_size=3)):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + piece + text[at:]
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return "prediction,label" + newline + text.replace("\n", newline) + draw(st.sampled_from(["", newline]))


@settings(max_examples=300, deadline=None)
@given(odd_csv_texts())
def test_ingest_odd_csv_matches_per_row_reference(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "odd.csv"
    path.write_bytes(text.encode("utf-8"))
    assert_ingest_matches_reference(path)


def test_ingest_long_csv_names_the_global_row(tmp_path, monkeypatch):
    """A CRLF, a blank line and a bad row more than 50,000 lines into the file."""
    rng = np.random.default_rng(5)
    n = 130_000
    rows = [f"{p!r},{y}" for p, y in zip(rng.random(n).tolist(), rng.integers(0, 2, n).tolist())]
    rows[60_000] += "\r"  # a CRLF line end
    rows.insert(70_000, "")  # a blank line, which is not a row: list index i > 70,000 is row i
    path = tmp_path / "long.csv"
    path.write_bytes(("prediction,label\n" + "\n".join(rows) + "\n").encode("utf-8"))
    assert ingest_outcome(ingest, path) == ingest_outcome(reference_ingest_csv, path)
    with monkeypatch.context() as m:  # a clean file never reaches the per-row parser
        m.setattr(cli, "_csv_rows", None)
        assert ingest(path).n == n

    rows[125_000] = "0.5,2"
    path.write_bytes(("prediction,label\n" + "\n".join(rows) + "\n").encode("utf-8"))
    with pytest.raises(LabelValueError, match=r"^row 125000: label '2' must be 0 or 1$"):
        ingest(path)
    assert ingest_outcome(ingest, path) == ingest_outcome(reference_ingest_csv, path)


def test_ingest_bounds_per_row_work_to_the_blocks_that_need_it(tmp_path, monkeypatch):
    """A whitespace-only line and a 0.2_5 row, which loadtxt turns down, in a 130k-row file."""
    rng = np.random.default_rng(11)
    n = 130_000
    rows = [f"{p!r},{y}" for p, y in zip(rng.random(n).tolist(), rng.integers(0, 2, n).tolist())]
    rows[99_999] = "0.2_5,1"  # row 100,000
    rows.insert(40_000, "  ")  # between rows 40,000 and 40,001
    path = tmp_path / "long.csv"
    path.write_bytes(("prediction,label\n" + "\n".join(rows) + "\n").encode("utf-8"))

    calls = []
    per_row = cli._csv_rows

    def recording(lines, before):
        calls.append((lines, before))
        return per_row(lines, before)

    monkeypatch.setattr(cli, "_csv_rows", recording)
    assert ingest_outcome(ingest, path) == ingest_outcome(reference_ingest_csv, path)
    # A block is one read plus the rest of the line that the read cut.
    longest = max(map(len, rows)) + 1
    assert all(sum(len(ln) + 1 for ln in lines) <= cli._SCAN_BLOCK + longest for lines, _ in calls)
    (blank_block, blank_before), (underscore_block, underscore_before) = calls
    assert blank_before <= 40_000 <= blank_before + len(blank_block)
    assert underscore_block[100_000 - underscore_before - 1] == "0.2_5,1"


def test_ingest_names_the_row_of_a_byte_that_is_not_utf8(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_SCAN_BLOCK", 16)
    head = "prediction,label\n" + "0.25,1\r\n" * 10
    path = tmp_path / "latin1.csv"
    path.write_bytes(head.encode() + b"0.5,\xff\n0.5,1\n")
    with pytest.raises(MalformedRowError, match=rf"^row 11: byte {len(head) + 4} is not UTF-8$"):
        ingest(path)
    path.write_bytes(b"\xef\xbb\xbfpred\xe9iction,label\n0.5,1\n")  # a byte-order mark, then Latin-1
    with pytest.raises(MalformedRowError, match=r"header: byte 7 is not UTF-8$"):
        ingest(path)
    # The first bad row in the file is the one named.
    path.write_bytes(head.encode() + b"0.5,2\n0.5,\xff\n")
    with pytest.raises(LabelValueError, match=r"^row 11: label '2' must be 0 or 1$"):
        ingest(path)


@pytest.mark.parametrize("bom, offset", [(b"", 51), (b"\xef\xbb\xbf", 54)])
def test_ingest_json_names_the_offset_of_a_byte_that_is_not_utf8(tmp_path, bom, offset):
    path = tmp_path / "latin1.json"
    path.write_bytes(bom + b'[{"prediction": 0.5, "label": 1}, {"prediction": 0.\xff5, "label": 1}]')
    with pytest.raises(MalformedRowError, match=rf"^{re.escape(str(path))}: byte {offset} is not UTF-8$"):
        ingest(path)


@pytest.mark.parametrize("text", ["prediction,label\n", "prediction,label", "prediction,label\r\n\r\n"])
def test_header_only_csv_is_empty_input_without_warning(tmp_path, text):
    path = tmp_path / "header.csv"
    path.write_bytes(text.encode("utf-8"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # loadtxt warns "input contained no data"
        with pytest.raises(EmptyInputError, match="no data rows"):
            ingest(path)


# Since .csv files go to the path reader first, the tests above reach the
# block reader only with the files that reader refuses. The tests below hold
# each reader to the per-row reference on its own.


def refuse(*args):
    raise AssertionError("this reader must not run")


def assert_each_reader_matches_reference(path):
    """The block reader alone, and the path reader wherever it accepts, give the reference's outcome."""
    block_only = path.with_suffix(".txt")  # a suffix the path reader refuses
    block_only.write_bytes(path.read_bytes())
    assert_ingest_matches_reference(block_only)
    with path.open("rb") as fh:
        columns = cli._path_columns(path) if cli._lines_cut_alike(fh) else None
    if columns is not None:
        assert ingest_outcome(lambda _: Dataset(*columns), path) == ingest_outcome(
            reference_ingest_csv, path
        )


@settings(max_examples=200, deadline=None)
@given(csv_texts())
@example("prediction,label\n0.5,1,1\n0\n")
def test_each_reader_matches_per_row_reference(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "each.csv"
    path.write_text(text, encoding="utf-8")
    assert_each_reader_matches_reference(path)


@pytest.mark.parametrize("text", BOUNDARY_CSV_TEXTS.values(), ids=BOUNDARY_CSV_TEXTS.keys())
def test_each_reader_matches_per_row_reference_at_boundaries(tmp_path, text):
    path = tmp_path / "boundary.csv"
    path.write_bytes(text.encode("utf-8"))
    assert_each_reader_matches_reference(path)


@settings(max_examples=200, deadline=None)
@given(odd_csv_texts())
def test_each_reader_matches_per_row_reference_on_odd_texts(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "each_odd.csv"
    path.write_bytes(text.encode("utf-8"))
    assert_each_reader_matches_reference(path)


@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
@pytest.mark.parametrize(
    "header",
    ["prediction,label", "﻿prediction,label", " Prediction , Label "],
    ids=["plain", "byte-order-mark", "capitals-and-spaces"],
)
def test_benchmark_shaped_csv_takes_the_path_reader(tmp_path, monkeypatch, newline, header):
    rng = np.random.default_rng(3)
    preds = [0.0, 1.0, *rng.random(5000).tolist(), *np.round(rng.random(5000), 2).tolist()]
    labels = rng.integers(0, 2, len(preds)).tolist()
    path = tmp_path / "scores.csv"
    rows = [f"{p!r},{y}" for p, y in zip(preds, labels)]
    path.write_bytes(newline.join([header, *rows, ""]).encode("utf-8"))
    want = ingest_outcome(reference_ingest_csv, path)
    monkeypatch.setattr(cli, "_line_blocks", refuse)
    assert ingest_outcome(ingest, path) == want
    assert ingest(path).n == len(preds)


def test_plain_text_named_csv_gz_reads_through_the_block_reader(tmp_path, monkeypatch):
    """numpy would open a path ending in .gz through gzip, so that name never takes the path reader."""
    path = write(tmp_path, "x.csv.gz", FOUR_POINT_CSV)
    with pytest.raises(OSError):  # not a gzip file
        np.loadtxt(str(path), delimiter=",", skiprows=1)
    want = ingest_outcome(ingest, write(tmp_path, "x.csv", FOUR_POINT_CSV))
    monkeypatch.setattr(cli, "_path_columns", refuse)
    assert ingest_outcome(ingest, path) == want


def test_gzip_file_named_csv_gz_is_not_decompressed(tmp_path):
    path = tmp_path / "x.csv.gz"
    path.write_bytes(gzip.compress(FOUR_POINT_CSV.encode(), mtime=0))
    with pytest.raises(MalformedRowError, match=rf"^{re.escape(str(path))}: header: byte 1 is not UTF-8$"):
        ingest(path)


def spy_on_path_reads(monkeypatch):
    """The list of paths that np.loadtxt is given from now on."""
    path_reads, loadtxt = [], np.loadtxt

    def spy_loadtxt(fname, *args, **kwargs):
        if isinstance(fname, str):
            path_reads.append(fname)
        return loadtxt(fname, *args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", spy_loadtxt)
    return path_reads


# A file the path reader refuses, and whether it refuses before or after np.loadtxt reads the path.
PATH_READER_REFUSALS = {
    "suffix": ("x.txt", b"prediction,label\n0.5,1\n", False),
    "scanned-byte": ("x.csv", b"prediction,label\n0.5,1\x0c0.25,0\n", False),
    "scanned-byte-past-first-read": ("x.csv", b"prediction,label\n" + b"0.5,1\n" * 20_000 + b"\x1e", False),
    "underscore": ("x.csv", b"prediction,label\n0.5,1\n0.2_5,1\n", False),
    "not-ascii": ("x.csv", b"prediction,label\n0.5,1\n0.5,1\xe2\x80\xa8", False),
    "not-utf8": ("x.csv", b"prediction,label\n0.5,1\n0.5,\xff\n", False),
    "space-line": ("x.csv", b"prediction,label\n0.5,1\n  \r\n0.25,0\n", False),
    "space-line-at-end": ("x.csv", b"prediction,label\n0.5,1\n  ", False),
    "space-line-cut-between-reads": (
        "x.csv",
        b"prediction,label\n" + b"0.5,1\n" * 2720 + b"0." + b"5" * 41 + b",1\n \n0.25,0\n",  # the space is byte 16383
        False,
    ),
    "header": ("x.csv", b"pred,y\n0.5,1\n", False),
    "header-not-utf8": ("x.csv", b"pr\xe9diction,label\n0.5,1\n", False),
    "no-line-end-in-first-read": ("x.csv", b"prediction,label", False),
    "value-error": ("x.csv", b"prediction,label\n0.5,1\n0.5,one\n", True),
    "fractional-label": ("x.csv", b"prediction,label\n0.5,1\n0.5,0.5\n", True),
    "empty-table": ("x.csv", b"prediction,label\n\r\n", True),
    "range-check": ("x.csv", b"prediction,label\n0.5,1\n1.5,0\n", True),
    "label-check": ("x.csv", b"prediction,label\n0.5,1\n0.5,2\n", True),
}


@pytest.mark.parametrize(
    "name, data, reads_path", PATH_READER_REFUSALS.values(), ids=PATH_READER_REFUSALS.keys()
)
def test_path_reader_refusals_go_to_the_block_reader(tmp_path, monkeypatch, name, data, reads_path):
    path = tmp_path / name
    path.write_bytes(data)
    with monkeypatch.context() as m:
        m.setattr(cli, "_lines_cut_alike", lambda fh: False)  # the block reader alone
        want = ingest_outcome(ingest, path)
    path_reads, block_reads = spy_on_path_reads(monkeypatch), []
    line_blocks = cli._line_blocks

    def spy_line_blocks(fh):
        block_reads.append(fh)
        return line_blocks(fh)

    monkeypatch.setattr(cli, "_line_blocks", spy_line_blocks)
    assert ingest_outcome(ingest, path) == want
    assert len(path_reads) == reads_path
    assert len(block_reads) == 1


def test_space_line_cut_between_reads_straddles_the_first_read():
    data = PATH_READER_REFUSALS["space-line-cut-between-reads"][1]
    assert data[cli._SCAN_BLOCK - 2 : cli._SCAN_BLOCK + 1] == b"\n \n"


@pytest.mark.parametrize("label", ["1.0", "1e0", "0.0", "-0"])
def test_path_reader_reads_labels_written_as_floats(tmp_path, monkeypatch, label):
    """pandas writes a float label column as 1.0: the path reader reads it, in one pass."""
    path = write(tmp_path, "x.csv", f"prediction,label\n0.5,1\n0.25,{label}\n0.75,0\n")
    block_only = write(tmp_path, "x.txt", path.read_text())  # a suffix the path reader refuses
    want = ingest_outcome(ingest, block_only)
    path_reads = spy_on_path_reads(monkeypatch)
    monkeypatch.setattr(cli, "_line_blocks", refuse)
    assert ingest_outcome(ingest, path) == want
    assert path_reads == [str(path)]
    assert ingest(path).labels.tolist() == [1, int(float(label)), 0]


def assert_path_reader_reads_what_the_reference_reads(path):
    """A file the scan passes is read by the path reader to the reference's bytes, or has a bad row."""
    with path.open("rb") as fh:
        if not cli._lines_cut_alike(fh):
            return
    want = ingest_outcome(reference_ingest_csv, path)
    columns = cli._path_columns(path)
    if not isinstance(want[0], np.dtype):
        assert columns is None  # an error, named by the block reader
    else:
        assert columns is not None
        assert ingest_outcome(lambda _: Dataset(*columns), path) == want


@settings(max_examples=300, deadline=None)
@given(csv_texts() | odd_csv_texts())
def test_path_reader_reads_every_file_the_reference_reads(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "scanned.csv"
    path.write_bytes(text.encode("utf-8"))
    assert_path_reader_reads_what_the_reference_reads(path)


@pytest.mark.parametrize("text", BOUNDARY_CSV_TEXTS.values(), ids=BOUNDARY_CSV_TEXTS.keys())
def test_path_reader_reads_every_boundary_file_the_reference_reads(tmp_path, text):
    path = tmp_path / "scanned.csv"
    path.write_bytes(text.encode("utf-8"))
    assert_path_reader_reads_what_the_reference_reads(path)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_named_pipe_csv_is_read_once_by_the_block_reader(tmp_path):
    """A pipe cannot be read twice, so only a regular file takes the path reader."""
    path = tmp_path / "pipe.csv"
    os.mkfifo(path)
    writer = threading.Thread(target=path.write_text, args=(FOUR_POINT_CSV,), daemon=True)
    writer.start()
    try:
        ds = ingest(path)
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()
    assert ds.predictions.tolist() == [0.2, 0.3, 0.7, 0.9]


SPECIAL_PREDICTIONS = [0.0, 1.0, 5e-324, 1e-310, 2.2250738585072014e-308, float(np.nextafter(1.0, 0.0))]


@st.composite
def round_trip_datasets(draw):
    value = st.floats(0.0, 1.0) | st.sampled_from(SPECIAL_PREDICTIONS)
    n = draw(st.integers(1, 60))
    if draw(st.booleans()):  # tie-heavy: a few values, each repeated
        pool = draw(st.lists(value, min_size=1, max_size=4))
        preds = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    else:
        preds = draw(st.lists(value, min_size=n, max_size=n, unique=True))
    labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return Dataset(np.array(preds), np.array(labels))


@settings(max_examples=150, deadline=None)
@given(round_trip_datasets())
def test_csv_round_trip_is_exact(tmp_path_factory, ds):
    path = tmp_path_factory.getbasetemp() / "round_trip.csv"
    write_dataset_csv(ds, path)
    again = ingest(path)
    assert again.predictions.tobytes() == ds.predictions.tobytes()
    assert again.labels.tobytes() == ds.labels.tobytes()
    assert metric_battery(again) == metric_battery(ds)


def test_csv_round_trip_preserves_metrics(tmp_path):
    rng = np.random.default_rng(77)
    ds = Dataset(rng.random(300), rng.integers(0, 2, 300))
    path = tmp_path / "dump.csv"
    write_dataset_csv(ds, path)
    again = ingest(path)
    assert np.array_equal(again.predictions, ds.predictions)
    assert metric_battery(again) == metric_battery(ds)


def test_compute_command_reports_hand_value(tmp_path, capsys):
    data = write(tmp_path, "four.csv", FOUR_POINT_CSV)
    out = tmp_path / "out"
    assert main(["compute", str(data), "--B", "2", "--out", str(out)]) == 0
    payload = json.loads((out / "report.json").read_text())
    expected = 0.5 * abs(0.5 - 0.25) + 0.5 * abs(1.0 - (0.7 + 0.9) / 2)
    assert payload["results"][0]["metrics"]["ECE"] == expected
    assert payload["kind"] == "compute"
    table = (out / "report.txt").read_text()
    for column in ("TCE", "TCE(Q)", "TCE(V)", "ECE", "ACE", "MCE", "MCE(Q)"):
        assert column in table.splitlines()[0]


def test_compute_is_deterministic(tmp_path):
    data = write(tmp_path, "four.csv", FOUR_POINT_CSV)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    main(["compute", str(data), "--out", str(out_a)])
    main(["compute", str(data), "--out", str(out_b)])
    assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()


def test_compare_lists_one_row_per_input(tmp_path):
    one = write(tmp_path, "one.csv", FOUR_POINT_CSV)
    two = write(tmp_path, "two.csv", "prediction,label\n0.5,0\n0.5,1\n0.4,0\n")
    out = tmp_path / "out"
    assert main(["compare", str(one), str(two), "--out", str(out)]) == 0
    payload = json.loads((out / "report.json").read_text())
    assert payload["kind"] == "compare"
    assert [r["input"] for r in payload["results"]] == [str(one), str(two)]
    table = (out / "report.txt").read_text()
    assert str(one) in table and str(two) in table


def test_compare_of_one_input_is_a_compare_report(tmp_path):
    one = write(tmp_path, "one.csv", FOUR_POINT_CSV)
    out = tmp_path / "out"
    assert main(["compare", str(one), "--out", str(out)]) == 0
    assert json.loads((out / "report.json").read_text())["kind"] == "compare"


def test_compute_propagates_ingest_errors(tmp_path, capsys):
    bad = write(tmp_path, "bad.csv", "prediction,label\n1.2,0\n")
    code = main(["compute", str(bad), "--out", str(tmp_path / "out")])
    assert code == 1
    assert "row 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["compute", "{dir}"],
    ["compute", "{csv}", "--config", "{dir}"],
    ["compute", "{csv}", "--out", "{csv}/sub"],
], ids=["input-is-a-directory", "config-is-a-directory", "out-under-a-file"])
def test_a_path_the_system_refuses_is_an_error_line(tmp_path, argv):
    """The operating system's refusal is one error line, exit 1, in a real process."""
    data = write(tmp_path, "four.csv", FOUR_POINT_CSV)
    args = [a.format(dir=tmp_path, csv=data) for a in argv]
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-m", "caltest.cli", *args], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 1
    assert done.stderr.startswith("error: ") and "Traceback" not in done.stderr


def test_diagram_command_writes_both_files_once(tmp_path, capsys):
    rng = np.random.default_rng(5)
    ds = Dataset(rng.random(200), rng.integers(0, 2, 200))
    data = tmp_path / "data.csv"
    write_dataset_csv(ds, data)
    out = tmp_path / "diagrams"
    assert main(["diagram", str(data), "--kind", "test-based", "--out", str(out)]) == 0
    svg = out / "data_test-based.svg"
    meta = out / "data_test-based.json"
    assert svg.exists() and meta.exists()
    spec = json.loads(meta.read_text())
    assert spec["kind"] == "test_based"
    # second run collides and fails
    assert main(["diagram", str(data), "--kind", "test-based", "--out", str(out)]) == 1
    assert "refusing to overwrite" in capsys.readouterr().err


def test_diagram_svg_byte_stable_across_runs(tmp_path):
    data = write(tmp_path, "four.csv", FOUR_POINT_CSV)
    blobs = []
    for name in ("a", "b"):
        out = tmp_path / name
        main(["diagram", str(data), "--kind", "standard", "--bins", "equispaced", "--out", str(out)])
        blobs.append((out / "four_standard.svg").read_bytes())
    assert blobs[0] == blobs[1]


@pytest.mark.parametrize("context, flag, value", [
    ([], "--B", "10"),  # the default value of a flag is refused too
    (["--bins", "pava"], "--B", "7"),
    (["--bins", "quantile"], "--nmin-frac", "0.05"),
    (["--bins", "equispaced", "--B", "5"], "--nmax-frac", "0.3"),
    (["--kind", "standard"], "--alpha", "0.05"),
    (["--kind", "standard"], "--test", "t"),
])
def test_diagram_refuses_a_flag_its_bins_or_kind_does_not_apply(
        tmp_path, capsys, context, flag, value):
    data = write(tmp_path, "four.csv", FOUR_POINT_CSV)
    config = write(tmp_path, "run.cfg", f"{flag[2:]} = {value}\n")
    out = tmp_path / "out"
    for setting in ([flag, value], ["--config", str(config)]):
        with pytest.raises(SystemExit) as exc:
            main(["diagram", str(data), *context, *setting, "--out", str(out)])
        assert exc.value.code == 2
        assert f"error: {flag}: not applied by diagram" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_command_small(tmp_path):
    out = tmp_path / "sim"
    code = main(
        [
            "simulate",
            "--pairs", "0.5:0.4",
            "--n-train", "2000",
            "--n-test", "800",
            "--n-seeds", "2",
            "--out", str(out),
            "--dump-data",
        ]
    )
    assert code == 0
    payload = json.loads((out / "simulate.json").read_text())
    entry = payload["results"][0]
    assert entry["n_seeds"] == 2
    assert set(entry["summary"]) == {"TCE", "TCE(Q)", "TCE(V)", "ECE", "ACE", "MCE", "MCE(Q)"}
    # dumped scenario CSV re-ingests to the same battery values
    dumped = out / "scenario_0.5_vs_0.4_seed0.csv"
    again = metric_battery(ingest(dumped))
    direct = metric_battery(scenario_dataset(0.5, 0.4, 2000, 800, 0))
    assert again == direct


def test_sweep_command_with_invalid_point_continues(tmp_path):
    out = tmp_path / "sweep"
    code = main(
        [
            "sweep",
            "--parameter", "alpha",
            "--grid", "0.01,1.5,0.1",
            "--n-train", "1000",
            "--n-test", "400",
            "--n-seeds", "1",
            "--out", str(out),
        ]
    )
    assert code == 0
    payload = json.loads((out / "sweep.json").read_text())
    points = payload["results"][0]["points"]
    assert "summary" in points[0]
    assert "error" in points[1]
    assert "summary" in points[2]


def test_sweep_command_reports_a_nan_noise_point_as_an_error(tmp_path):
    out = tmp_path / "sweep"
    argv = ["sweep", "--parameter", "noise", "--grid", "nan", "--pairs", "0.5:0.4",
            "--n-train", "600", "--n-test", "300", "--n-seeds", "1", "--out", str(out)]
    assert main(argv) == 0
    (point,) = json.loads((out / "sweep.json").read_text())["results"][0]["points"]
    assert "noise scale" in point["error"]


def test_sweep_command_takes_test_kinds(tmp_path):
    out = tmp_path / "sweep"
    argv = ["sweep", "--parameter", "test_kind", "--grid", "t, bogus", "--pairs", "0.5:0.4",
            "--n-train", "1000", "--n-test", "400", "--n-seeds", "1", "--out", str(out)]
    assert main(argv) == 0
    points = json.loads((out / "sweep.json").read_text())["results"][0]["points"]
    assert [point["value"] for point in points] == ["t", "bogus"]
    assert "summary" in points[0] and "error" in points[1]


def test_sweep_command_takes_scenario_pairs(tmp_path):
    def blocks(*extra):
        out = tmp_path / "sweep"
        argv = ["sweep", "--parameter", "alpha", "--grid", "0.05", "--n-train", "1000",
                "--n-test", "400", "--n-seeds", "1", "--out", str(out), *extra]
        assert main(argv) == 0
        results = json.loads((out / "sweep.json").read_text())["results"]
        return [(b["train_prevalence"], b["test_prevalence"]) for b in results]

    assert blocks("--pairs", "0.3:0.3,0.3:0.2,0.2:0.4") == [(0.3, 0.3), (0.3, 0.2), (0.2, 0.4)]
    assert blocks() == [(0.5, 0.5), (0.5, 0.4)]
    argv = ["sweep", "--parameter", "prevalence", "--grid", "0.5:0.5", "--pairs", "0.3:0.3",
            "--out", str(tmp_path / "refused")]
    assert main(argv) == 1
    assert not (tmp_path / "refused").exists()


@pytest.mark.parametrize("argv, chunk", [
    (["simulate", "--pairs", "0.5:0.4,0.5"], "0.5"),
    (["sweep", "--parameter", "binsize_range", "--grid", "20:100,20"], "20"),
    (["sweep", "--parameter", "alpha", "--grid", "0.05", "--pairs", "0.5:x"], "0.5:x"),
])
def test_malformed_pair_names_itself(tmp_path, capsys, argv, chunk):
    assert main([*argv, "--out", str(tmp_path / "out")]) == 1
    assert f"error: pair '{chunk}' is not two numbers a:b" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_inverted_block_sizes_fail(tmp_path, capsys):
    data = write(tmp_path, "four.csv", FOUR_POINT_CSV)
    argv = ["compute", str(data), "--nmin-frac", "0.5", "--nmax-frac", "0.25"]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 1
    assert "got (2, 1)" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["compute", "diagram"])
@pytest.mark.parametrize("flag", ["--nmin-frac", "--nmax-frac"])
@pytest.mark.parametrize("value", ["inf", "nan"])
def test_non_finite_size_fraction_is_an_error(tmp_path, capsys, command, flag, value):
    data = write(tmp_path, "four.csv", FOUR_POINT_CSV)
    assert main([command, str(data), flag, value, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{flag[2:].replace('-', '_')} must be finite" in err


def test_sweep_alpha_is_monotone(tmp_path):
    rows = run_sweep(
        "alpha",
        [0.01, 0.05, 0.2],
        scenarios=[(0.5, 0.4)],
        n_seeds=1,
        n_train=1500,
        n_test=600,
    )
    values = [p["summary"]["TCE"]["mean"] for p in rows[0]["points"]]
    assert values == sorted(values)


def test_config_file_sets_defaults_and_flags_override(tmp_path):
    data = write(tmp_path, "four.csv", FOUR_POINT_CSV)
    cfg = write(tmp_path, "run.cfg", "alpha = 0.2\nB = 5\n")
    out = tmp_path / "out"
    main(["compute", str(data), "--config", str(cfg), "--out", str(out)])
    payload = json.loads((out / "report.json").read_text())
    assert payload["config"]["alpha"] == 0.2
    assert payload["config"]["B"] == 5

    out2 = tmp_path / "out2"
    main(["compute", str(data), "--config", str(cfg), "--alpha", "0.3", "--out", str(out2)])
    payload = json.loads((out2 / "report.json").read_text())
    assert payload["config"]["alpha"] == 0.3
    assert payload["config"]["B"] == 5


def test_config_file_skips_comments_and_a_byte_order_mark(tmp_path, capsys):
    data = write(tmp_path, "four.csv", FOUR_POINT_CSV)
    cfg = write(tmp_path, "bom.cfg", "\ufeffalpha = 0.2\n# B = 7\n\nB = 5\n")
    out = tmp_path / "out"
    assert main(["compute", str(data), "--config", str(cfg), "--out", str(out)]) == 0
    payload = json.loads((out / "report.json").read_text())
    assert (payload["config"]["alpha"], payload["config"]["B"]) == (0.2, 5)
    bad = write(tmp_path, "bad.cfg", "alpha 0.2\n")
    assert main(["compute", str(data), "--config", str(bad), "--out", str(tmp_path / "bad")]) == 1
    assert "config line 'alpha 0.2' is not key = value" in capsys.readouterr().err


@pytest.mark.parametrize("value, dumped", [("yes", True), ("TRUE", True), ("1", True),
                                           ("No", False), ("false", False), ("0", False)])
def test_config_switch_values(tmp_path, value, dumped):
    cfg = write(tmp_path, "run.cfg", f"dump-data = {value}\npairs = 0.5:0.4\n")
    out = tmp_path / "out"
    argv = ["simulate", "--config", str(cfg), "--n-train", "1000", "--n-test", "200",
            "--n-seeds", "1", "--out", str(out)]
    assert main(argv) == 0
    assert (out / "scenario_0.5_vs_0.4_seed0.csv").exists() == dumped


def test_config_switch_rejects_other_values(tmp_path, capsys):
    cfg = write(tmp_path, "run.cfg", "dump_data = ture\n")
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert "config line 'dump_data = ture'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_zero_positive_test_set_end_to_end(tmp_path):
    out = tmp_path / "sim0"
    code = main(
        [
            "simulate",
            "--pairs", "0.01:0.0",
            "--n-train", "4000",
            "--n-test", "1000",
            "--n-seeds", "2",
            "--out", str(out),
        ]
    )
    assert code == 0
    payload = json.loads((out / "simulate.json").read_text())
    summary = payload["results"][0]["summary"]
    assert summary["ECE"]["mean"] >= 0.0
    assert 0.0 <= summary["TCE"]["mean"] <= 100.0
