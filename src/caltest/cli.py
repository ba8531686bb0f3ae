"""Command-line interface: compute, compare, diagram, simulate, and sweep.

Input files are CSV with a ``prediction,label`` header (or a JSON array of
{"prediction": ..., "label": ...} objects). Every command writes a versioned
JSON report plus a plain-text table, and is deterministic given its
configuration and seed; no environment variables are consulted.
"""
from __future__ import annotations

import argparse
import codecs
import itertools
import json
import re
import sys
import warnings
from pathlib import Path

import numpy as np

from .binning import STRATEGY_KINDS, BinStrategy, build_bins
from .core import Dataset, json_safe
from .experiments import (
    DEFAULT_SIMULATE_PAIRS,
    DEFAULT_SIMULATE_SEEDS,
    DEFAULT_SWEEP_PAIRS,
    DEFAULT_SWEEP_SEEDS,
    DEFAULT_TEST_SIZE,
    DEFAULT_TRAIN_SIZE,
    METRIC_COLUMNS,
    SWEEP_PARAMETERS,
    BatteryConfig,
    metric_battery,
    run_sweep,
    scenario_dataset,
    simulate,
)
from .stattest import TEST_KINDS, TestConfig

__all__ = [
    "IngestError",
    "EmptyInputError",
    "MalformedRowError",
    "PredictionRangeError",
    "LabelValueError",
    "ingest",
    "main",
]

SCHEMA_VERSION = 1

_NORM_FLAGS = {"wl1": "weighted_l1", "sup": "sup"}
# Parsed values that are not settings, so a report's config leaves them out.
_NOT_SETTINGS = {"command", "func", "config", "out", "inputs", "given"}
# Flags that diagram applies only under some --bins or --kind: the setting and its values.
_DIAGRAM_CONTEXT = {
    "--B": ("bins", {"equispaced", "quantile"}),
    "--nmin-frac": ("bins", {"pava-bc"}),
    "--nmax-frac": ("bins", {"pava-bc"}),
    "--alpha": ("kind", {"test-based"}),
    "--test": ("kind", {"test-based"}),
}


class IngestError(ValueError):
    """Base class for input-file problems."""


class EmptyInputError(IngestError):
    pass


class MalformedRowError(IngestError):
    pass


class PredictionRangeError(IngestError):
    pass


class LabelValueError(IngestError):
    pass


def _parse_record(raw_pred, raw_label, row: int) -> tuple[float, int]:
    try:
        pred = float(raw_pred)
    except (TypeError, ValueError, OverflowError):  # a huge JSON integer overflows float
        raise MalformedRowError(f"row {row}: prediction {raw_pred!r} is not a number") from None
    if not np.isfinite(pred) or not (0.0 <= pred <= 1.0):
        raise PredictionRangeError(f"row {row}: prediction {pred!r} outside [0, 1]")
    try:
        label_f = float(raw_label)
    except (TypeError, ValueError, OverflowError):
        raise MalformedRowError(f"row {row}: label {raw_label!r} is not a number") from None
    if label_f not in (0.0, 1.0):
        raise LabelValueError(f"row {row}: label {raw_label!r} must be 0 or 1")
    return pred, int(label_f)


def ingest(path: str | Path) -> Dataset:
    """Load and validate a prediction/label file, naming the offending row on error.

    A CSV file is read once, in blocks, by ``np.loadtxt``'s grammar: a block
    of plain decimals by a vectorised reader, any other block by one loadtxt
    call on its lines; in a block that loadtxt turns down, the first bad row
    is found and named.
    """
    path = Path(path)
    if path.suffix.lower() != ".json":
        return Dataset._adopt(*_csv_columns(path))
    raw = path.read_bytes()
    body = raw.removeprefix(codecs.BOM_UTF8)  # a leading byte-order mark is not data
    try:
        text = body.decode()
    except UnicodeDecodeError as exc:
        bad = exc.start + len(raw) - len(body)
        raise MalformedRowError(f"{path}: byte {bad} is not UTF-8") from None
    if not text.strip():
        raise EmptyInputError(f"{path}: file is empty")
    try:
        records = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedRowError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(records, list) or not records:
        raise EmptyInputError(f"{path}: expected a non-empty JSON array")
    preds: list[float] = []
    labels: list[int] = []
    for row, record in enumerate(records, start=1):
        if not isinstance(record, dict) or "prediction" not in record or "label" not in record:
            raise MalformedRowError(f"row {row}: expected an object with prediction and label")
        for field in ("prediction", "label"):
            value = record[field]
            # bool is an int subclass; true/false would pass as 1/0
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise MalformedRowError(f"row {row}: {field} {value!r} is not a number")
        pred, label = _parse_record(record["prediction"], record["label"], row)
        preds.append(pred)
        labels.append(label)
    return Dataset._adopt(np.array(preds), np.array(labels, dtype=np.int8))


# Bytes read at a time, after _PAD bytes that hold the three words before a
# block's first comma; a block runs on to the end of a line longer than this.
_READ_BLOCK = 1 << 17
_PAD = 24


def _csv_columns(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """The columns of a ``prediction,label`` file; the first bad row raises.

    Rows are the non-empty lines after the header, as universal newlines cut
    them, numbered from 1; ``np.loadtxt`` reads their fields. A byte that is
    not UTF-8 makes its row bad.

    Any file, a pipe or a name such as ``.gz`` too, is read once in blocks
    cut after a read's last line end. A block with no carriage return goes
    to the plain-decimal reader; any other, or one it leaves, is cut into
    lines for one ``np.loadtxt`` call, and searched if that call refuses it.
    """
    # Grown in place: per-block arrays joined at the end left freed heap
    # resident after ingest, which raised the peak of the whole call.
    preds, labels = bytearray(), bytearray()  # float64 and int8 values
    data = bytearray(_PAD + _READ_BLOCK)
    start = end = _PAD  # data[start:end] holds the bytes read and not yet taken
    taken, header = 0, None  # the bytes of the file before data[_PAD], and the header
    with path.open("rb") as fh:
        while True:
            if end == len(data):  # a line fills the buffer
                data += bytes(_READ_BLOCK)
            got = fh.readinto(memoryview(data)[end:])
            if not got and end == _PAD and header is not None:
                break
            if not got:  # a line feed ends the last line, or an empty file
                data[end], got = 10, 1
            end += got
            cr = data.rfind(b"\r", _PAD, end)
            cut = max(data.rfind(b"\n", _PAD, end), cr) + 1
            if not cut:
                continue
            if header is None:
                line_end = re.compile(rb"\r\n?|\n").search(data, _PAD, cut)  # universal newlines
                try:  # a leading byte-order mark is not data
                    header = data[_PAD:line_end.start()].decode().removeprefix("\ufeff")
                except UnicodeDecodeError as exc:
                    raise MalformedRowError(f"{path}: header: byte {exc.start} is not UTF-8") from None
                start = line_end.end()
                if header.strip().lower().replace(" ", "") != "prediction,label":
                    rest = itertools.chain([data[start:end]], iter(lambda: fh.read(_READ_BLOCK), b""))
                    if not header.strip() and not any(map(str.strip, codecs.iterdecode(rest, "utf-8", "replace"))):
                        raise EmptyInputError(f"{path}: file is empty")  # a blank first line, and only blank text after it
                    raise MalformedRowError(f"{path}: expected header 'prediction,label', got {header!r}")
            if start < cut:
                columns = bad = lines = None  # the last block's lines go before this block's are made
                if _EXACT_QUOTIENTS and cr < start:  # every line of the block ends in a line feed alone
                    columns = _decimal_rows(np.frombuffer(data, np.uint8, cut - start + _PAD, start - _PAD))
                if columns is None:
                    raw = data[start:cut]
                    try:
                        text = raw.decode()
                    except UnicodeDecodeError as exc:  # "x" stands in for the bad byte's line, which is dropped
                        text, bad = raw[: exc.start].decode() + "x", taken + start - _PAD + exc.start
                    if "\r" in text:  # CRLF and a lone CR end a line as LF does; the search costs less than replace
                        text = text.replace("\r\n", "\n").replace("\r", "\n")
                    # The cut ends the text in a line end or "x", so the last piece is never a line.
                    lines = text.split("\n")[:-1]
                    columns = _loadtxt_columns(lines)
                    if columns is None:
                        _raise_first_bad_row(lines, len(labels))
                preds += columns[0].data  # both are contiguous
                labels += columns[1].data
                if bad is not None:
                    raise MalformedRowError(f"row {len(labels) + 1}: byte {bad} is not UTF-8")
            taken += cut - _PAD
            end -= cut - _PAD
            data[_PAD:end] = data[cut:cut + end - _PAD]
            start = _PAD
    if not labels:
        raise EmptyInputError(f"{path}: no data rows")
    return np.frombuffer(preds, dtype=np.float64), np.frombuffer(labels, dtype=np.int8)


def _loadtxt_columns(lines: list[str]) -> tuple[np.ndarray, np.ndarray] | None:
    """Contiguous float64 predictions and int8 labels as ``np.loadtxt`` reads ``lines``, or None.

    None if loadtxt turns the lines down, a prediction is NaN or outside
    [0, 1], or a label is not 0 or 1. loadtxt skips empty lines, turns down
    a line that is not two fields, and reads a field as ``float()`` reads it,
    save that it turns down underscores and non-ASCII characters.
    """
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            table = np.loadtxt(lines, dtype="f8,f8", delimiter=",", comments=None, ndmin=1)
    except ValueError:
        return None
    preds, labels = table["f0"], table["f1"]
    # NaN fails both comparisons, so it is caught along with out-of-range values.
    if not (np.all((preds >= 0.0) & (preds <= 1.0)) and np.all((labels == 0.0) | (labels == 1.0))):
        return None
    # One byte per label, as Dataset keeps them; loadtxt's 16 bytes per record go on return.
    return preds.copy(), labels.astype(np.int8)


_FLOAT_ROWS = 256  # rows of a block left to float(), beyond which loadtxt costs less
_EXACT_QUOTIENTS = np.finfo(np.longdouble).nmant >= 63  # a 64-bit long double mantissa
# 10**k for k fraction digits, as 5**k 2**k: exact in double to k = 22, and in long double.
_POW5 = 5 ** np.arange(25, dtype=np.uint64)
_FLOAT_POW10, _LONG_POW10 = (np.ldexp(_POW5.astype(t), np.arange(25)) for t in (np.float64, np.longdouble))
# For j digits in the high bytes of a little-endian word: the mask that keeps
# them, and ASCII "0" in the other bytes.
_KEEP = np.array([(1 << 64) - (1 << 8 * (8 - j)) for j in range(9)], dtype=np.uint64)
_ZEROS = ~_KEEP & np.uint64(0x3030303030303030)
_EXPONENT_ROW = re.compile(rb"([0-9](?:\.[0-9]+)?e[-+][0-9]+),([0-9])")


def _decimal_rows(buf: np.ndarray):
    """The columns of a block in the plain-decimal form, as ``np.loadtxt`` reads them, or None.

    ``buf`` is ``_PAD`` bytes, then whole lines that each end in a line
    feed. A row in the form is ``d.ddd,L``: a digit, a point, 1 to 24
    digits, at most 19 of them after the leading zeros, a comma and a
    one-digit label. So repr writes every double from 1e-4 to 1 in it. Up
    to ``_FLOAT_ROWS`` rows may instead be in repr's exponent form, such as
    ``1.2e-05,0``, which ``float()`` reads. None if a row is in neither
    form, or fails the range or 0/1 check; loadtxt reads such a block, and
    reads every row in the form alike.

    A row's k fraction digits, eight to a word, make an integer M < 10**19,
    and its value is M / 10**k, or 1 for the row 1.000. If M <= 2**53 and
    k <= 22, both are doubles and one division rounds correctly (Clinger,
    1990). Otherwise the division runs in long double, where M and 10**k are
    exact, so the quotient r is M / 10**k rounded to 64 bits. Every midpoint
    between adjacent doubles fits in 64 bits, so r lies between the same two
    midpoints as M / 10**k and rounds to the same double, unless r is one of
    them. A row whose r lies half the spacing of its double d from d, or a
    quarter below a power of two, is read by ``float()``. Without a 64-bit
    long double mantissa no block is read here.
    """
    ends = np.flatnonzero(buf[_PAD:] == 10) + _PAD  # the pad may hold the header's line feed
    starts = np.concatenate(([_PAD], ends[:-1] + 1))
    k = ends - starts - 4  # fraction digits, for a row d.ddd,L
    if k.min() < 1:  # too short for either form
        return None
    lead, label = buf[starts] - 48, buf[ends - 1] - 48
    plain = (buf[starts + 1] == 46) & (buf[ends - 2] == 44) & (lead <= 9) & (label <= 9) & (k <= 24)
    if plain.size - np.count_nonzero(plain) > _FLOAT_ROWS:  # the digit checks below only add to them
        return None
    del starts  # a row that float() reads starts after the line feed before it
    np.minimum(k, 24, out=k)
    width = -(-int(k.max()) // 8)  # words of eight digits, the last ending at the comma
    fields = np.ndarray(buf.size - 8 * width + 1, f"V{8 * width}", buf, strides=(1,))
    words = fields[ends - 2 - 8 * width].view("<u8").reshape(k.size, width)
    fraction = np.zeros(k.size, dtype=np.uint64)
    for j in range(width):
        digits = np.clip(k - 8 * (width - 1 - j), 0, 8)
        word = words[:, j] & _KEEP[digits]
        word |= _ZEROS[digits]
        # Every byte is an ASCII digit: its high nibble is 3, and stays 3 when 6 is added.
        check = word + 0x0606060606060606
        check &= 0xF0F0F0F0F0F0F0F0
        check >>= 4
        check |= word & 0xF0F0F0F0F0F0F0F0
        plain &= check == 0x3333333333333333
        # Lemire's SWAR step: the number eight digits spell, the first in the lowest byte.
        word = (word & 0x0F0F0F0F0F0F0F0F) * 2561 >> 8
        word = (word & 0x00FF00FF00FF00FF) * 6553601 >> 16
        word = (word & 0x0000FFFF0000FFFF) * 42949672960001 >> 32
        if j == width - 3:  # digits 17 to 24 before the comma: at most 19 digits after the leading zeros
            plain &= word < 1000
        fraction *= 100_000_000
        fraction += word
    other = np.flatnonzero(~plain)
    if other.size > _FLOAT_ROWS or np.any(plain & ((label > 1) | (lead > 1) | (lead == 1) & (fraction > 0))):
        return None
    preds = fraction.astype(np.float64)
    preds /= _FLOAT_POW10[k]  # exact over exact, where the fraction is at most 2**53 and k at most 22
    preds += lead  # a row 1.000 is 1; every other row in the form has lead 0
    longer = np.flatnonzero(plain & ((fraction > 1 << 53) | (k > 22) & (fraction > 0)))
    if longer.size:
        quotient = fraction[longer].astype(np.longdouble) / _LONG_POW10[k[longer]]
        preds[longer] = nearest = quotient.astype(np.float64)
        off, half = np.abs((quotient - nearest).astype(np.float64)), np.spacing(nearest) / 2  # both exact
        for i in longer[(off == half) | (off == half / 2)].tolist():
            preds[i] = float(buf[ends[i - 1] + 1 if i else _PAD:ends[i] - 2].tobytes())
    for i in other.tolist():
        row = _EXPONENT_ROW.fullmatch(buf[ends[i - 1] + 1 if i else _PAD:ends[i]].tobytes())
        if row is None or float(row[1]) > 1 or row[2] > b"1":
            return None
        preds[i], label[i] = float(row[1]), int(row[2])
    return preds, label


def _raise_first_bad_row(lines: list[str], rows: int) -> None:
    """Raise the error of the first bad row among ``lines``, which follow ``rows`` rows.

    A row is bad where ``np.loadtxt``, reading its line alone, turns a field
    down, or where a check refuses its values: where the block's call did.
    loadtxt turns a run of lines down if and only if it holds a bad line, so
    halving finds the first one in calls that read each line at most once,
    and only that line is read field by field.
    """
    while len(lines) > 1:  # loadtxt turns the lines down: keep the half that holds the first bad one
        mid = len(lines) // 2
        if (head := _loadtxt_columns(lines[:mid])) is None:
            lines = lines[:mid]
        else:
            lines, rows = lines[mid:], rows + head[1].size
    for row, line in enumerate(filter(None, lines), start=rows + 1):
        fields = [field.strip() for field in line.split(",")]
        if len(fields) != 2:
            raise MalformedRowError(f"row {row}: expected 'prediction,label', got {line!r}")
        for column, name in enumerate(("prediction", "label")):
            try:
                np.loadtxt([line], delimiter=",", comments=None, usecols=column)
            except ValueError:
                raise MalformedRowError(f"row {row}: {name} {fields[column]!r} is not a number") from None
        _parse_record(*fields, row)


def write_dataset_csv(dataset: Dataset, path: Path) -> None:
    """Lossless CSV dump; re-ingesting reproduces identical metric values."""
    lines = ["prediction,label"]
    lines.extend(
        f"{p!r},{y}" for p, y in zip(dataset.predictions.tolist(), dataset.labels.tolist())
    )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_report(args, stem: str, results: list, table: str) -> None:
    """Write the versioned report and the table to ``args.out``, and print the table.

    The report's kind is the command, and its config holds every flag the
    command parsed but ``--config`` and ``--out``, keyed by its dest.
    """
    payload = {
        "schema_version": SCHEMA_VERSION,
        "kind": args.command,
        "config": {k: v for k, v in vars(args).items() if k not in _NOT_SETTINGS},
        "results": results,
    }
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    body = json.dumps(json_safe(payload), indent=2, sort_keys=True)
    (out_dir / f"{stem}.json").write_text(body + "\n", encoding="utf-8")
    (out_dir / f"{stem}.txt").write_text(table, encoding="utf-8")
    print(table, end="")


def _format_value(column: str, value) -> str:
    if value is None or (isinstance(value, float) and not np.isfinite(value)):
        return "n/a"
    if column.startswith("TCE"):
        return f"{value:.2f}"
    return f"{value:.4f}"


def _metrics_table(rows: list[tuple[str, dict]], label_header: str) -> str:
    width = max([len(label_header)] + [len(r[0]) for r in rows]) + 2
    header = label_header.ljust(width) + "".join(c.rjust(9) for c in METRIC_COLUMNS)
    lines = [header, "-" * len(header)]
    for label, values in rows:
        cells = "".join(_format_value(c, values.get(c)).rjust(9) for c in METRIC_COLUMNS)
        lines.append(label.ljust(width) + cells)
    return "\n".join(lines) + "\n"


def _battery_config(args) -> BatteryConfig:
    return BatteryConfig(
        test=TestConfig(args.test, args.alpha),
        num_bins=args.B,
        nmin_frac=args.nmin_frac,
        nmax_frac=args.nmax_frac,
        norm=_NORM_FLAGS[args.norm],
    )


def cmd_compute(args) -> int:
    cfg = _battery_config(args)
    rows = []
    results = []
    for input_path in args.inputs:
        dataset = ingest(input_path)
        values = metric_battery(dataset, cfg)
        rows.append((str(input_path), values))
        results.append(
            {
                "input": str(input_path),
                "n": dataset.n,
                "prevalence": dataset.prevalence,
                "metrics": values,
            }
        )
    _write_report(args, "report", results, _metrics_table(rows, "input"))
    return 0


def cmd_diagram(args) -> int:
    from .diagram import build_diagram, render_svg  # only this command draws

    dataset = ingest(args.input)
    strategy = BinStrategy(
        kind=args.bins.replace("-", "_"),
        num_bins=args.B,
        nmin_frac=args.nmin_frac,
        nmax_frac=args.nmax_frac,
    )
    bins = build_bins(dataset, strategy)
    kind = "test_based" if args.kind == "test-based" else "standard"
    cfg = TestConfig(args.test, args.alpha) if kind == "test_based" else None
    spec = build_diagram(dataset, bins, cfg, kind)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    svg_path = out_dir / f"{Path(args.input).stem}_{args.kind}.svg"
    json_path = svg_path.with_suffix(".json")
    for target in (svg_path, json_path):
        if target.exists():
            raise FileExistsError(f"refusing to overwrite {target}")
    svg_path.write_text(render_svg(spec, args.width, args.height), encoding="utf-8")
    json_path.write_text(spec.to_json() + "\n", encoding="utf-8")
    print(f"wrote {svg_path}")
    print(f"wrote {json_path}")
    return 0


def _parse_pair(chunk: str) -> tuple[float, float]:
    try:
        left, right = map(float, chunk.split(":"))
    except ValueError:  # not two fields, or a field that is not a number
        raise ValueError(f"pair {chunk!r} is not two numbers a:b") from None
    return left, right


def _parse_pairs(text: str) -> list[tuple[float, float]]:
    return [_parse_pair(chunk) for chunk in text.split(",")]


def _format_pairs(pairs) -> str:
    return ",".join(f"{a:g}:{b:g}" for a, b in pairs)


def cmd_simulate(args) -> int:
    cfg = _battery_config(args)
    pairs = _parse_pairs(args.pairs)
    results = simulate(
        pairs,
        n_seeds=args.n_seeds,
        n_train=args.n_train,
        n_test=args.n_test,
        base_seed=args.seed,
        cfg=cfg,
    )
    rows = []
    for entry in results:
        label = f"{entry['train_prevalence']:g} vs {entry['test_prevalence']:g}"
        rows.append((label, {c: entry["summary"][c]["mean"] for c in METRIC_COLUMNS}))
    _write_report(args, "simulate", results, _metrics_table(rows, "prevalence"))
    if args.dump_data:
        for train_prev, test_prev in pairs:
            dataset = scenario_dataset(
                train_prev, test_prev, args.n_train, args.n_test, args.seed
            )
            name = f"scenario_{train_prev:g}_vs_{test_prev:g}_seed{args.seed}.csv"
            write_dataset_csv(dataset, Path(args.out) / name)
    return 0


def _parse_grid(parameter: str, text: str) -> list:
    values = []
    for chunk in text.split(","):
        if parameter in ("binsize_range", "prevalence"):
            values.append(_parse_pair(chunk))
        elif parameter == "test_kind":
            values.append(chunk.strip())
        else:
            values.append(float(chunk))
    return values


def cmd_sweep(args) -> int:
    cfg = _battery_config(args)
    grid = _parse_grid(args.parameter, args.grid)
    results = run_sweep(
        args.parameter,
        grid,
        scenarios=None if args.pairs is None else _parse_pairs(args.pairs),
        n_seeds=args.n_seeds,
        n_train=args.n_train,
        n_test=args.n_test,
        base_seed=args.seed,
        cfg=cfg,
    )
    blocks = []
    for block in results:
        if block["train_prevalence"] is not None:
            blocks.append(
                f"scenario: train {block['train_prevalence']:g}"
                f" vs test {block['test_prevalence']:g}\n"
            )
        rows = []
        for point in block["points"]:
            label = str(point["value"])
            if "error" in point:
                rows.append((label, {}))
            else:
                rows.append((label, {c: point["summary"][c]["mean"] for c in METRIC_COLUMNS}))
        blocks.append(_metrics_table(rows, args.parameter))
    _write_report(args, "sweep", results, "\n".join(blocks))
    return 0


_SWITCH_KEYS = {"dump_data"}
_SWITCH_VALUES = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _read_config_file(path: str) -> dict[str, str]:
    """Flat key=value defaults; command-line flags override these.

    A leading byte-order mark is not data. A switch takes 1/true/yes or
    0/false/no, in any case.
    """
    overrides = {}
    for raw in Path(path).read_text(encoding="utf-8-sig").splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"config line {raw!r} is not key = value")
        key, value = key.strip().replace("-", "_"), value.strip()
        if key in _SWITCH_KEYS and value.lower() not in _SWITCH_VALUES:
            raise ValueError(f"config line {raw!r}: {key} takes 1/true/yes or 0/false/no")
        overrides[key] = value
    return overrides


class _Given(argparse.Action):
    """Store the value and note the flag in ``given``, on the command line or from --config."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.given = getattr(namespace, "given", frozenset()) | {self.option_strings[0]}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="caltest",
        description="Calibration error metrics for probabilistic binary classifiers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # A command takes only the flags it applies: those of every command, of scoring, of drawing data.
    every = argparse.ArgumentParser(add_help=False)
    every.add_argument("--config", help="flat key=value file with flag defaults")
    every.add_argument("--B", type=int, default=BinStrategy.num_bins, action=_Given,
                       help="bin count for equispaced/quantile")
    every.add_argument("--nmin-frac", type=float, default=BinStrategy.nmin_frac, dest="nmin_frac",
                       action=_Given)
    every.add_argument("--nmax-frac", type=float, default=BinStrategy.nmax_frac, dest="nmax_frac",
                       action=_Given)
    every.add_argument("--alpha", type=float, default=TestConfig.alpha, action=_Given)
    every.add_argument("--test", choices=TEST_KINDS, default=TestConfig.kind, action=_Given)
    every.add_argument("--out", default="caltest_out", help="output directory")
    scored = argparse.ArgumentParser(add_help=False)
    scored.add_argument("--norm", choices=sorted(_NORM_FLAGS), default="wl1")
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=0)

    p_compute = sub.add_parser("compute", parents=[every, scored],
                               help="metric battery for one prediction file")
    p_compute.add_argument("inputs", nargs=1, metavar="INPUT")
    p_compute.set_defaults(func=cmd_compute)

    p_compare = sub.add_parser("compare", parents=[every, scored],
                               help="metric battery across several files")
    p_compare.add_argument("inputs", nargs="+", metavar="INPUT")
    p_compare.set_defaults(func=cmd_compute)

    p_diagram = sub.add_parser("diagram", parents=[every],
                               help="emit a reliability diagram (SVG + JSON)")
    p_diagram.add_argument("input", metavar="INPUT")
    p_diagram.add_argument("--bins", choices=[kind.replace("_", "-") for kind in STRATEGY_KINDS],
                           default=BinStrategy.kind.replace("_", "-"))
    p_diagram.add_argument("--kind", choices=["standard", "test-based"], default="test-based")
    p_diagram.add_argument("--width", type=int, default=640)
    p_diagram.add_argument("--height", type=int, default=480)
    p_diagram.set_defaults(func=cmd_diagram)

    p_sim = sub.add_parser("simulate", parents=[every, scored, seeded],
                           help="prevalence-shift scenarios on synthetic data")
    p_sim.add_argument(
        "--pairs",
        default=_format_pairs(DEFAULT_SIMULATE_PAIRS),
        help="comma-separated train:test prevalence pairs",
    )
    p_sim.add_argument("--n-train", type=int, default=DEFAULT_TRAIN_SIZE, dest="n_train")
    p_sim.add_argument("--n-test", type=int, default=DEFAULT_TEST_SIZE, dest="n_test")
    p_sim.add_argument("--n-seeds", type=int, default=DEFAULT_SIMULATE_SEEDS, dest="n_seeds")
    p_sim.add_argument("--dump-data", action="store_true", dest="dump_data",
                       help="also write one scenario CSV per pair")
    p_sim.set_defaults(func=cmd_simulate)

    p_sweep = sub.add_parser("sweep", parents=[every, scored, seeded],
                             help="sensitivity sweep of one parameter")
    p_sweep.add_argument("--parameter", choices=SWEEP_PARAMETERS, required=True)
    p_sweep.add_argument("--grid", required=True,
                         help="comma-separated values; use a:b for pairs")
    p_sweep.add_argument("--pairs", help="comma-separated train:test prevalence pairs"
                         f" (default {_format_pairs(DEFAULT_SWEEP_PAIRS)})")
    p_sweep.add_argument("--n-train", type=int, default=DEFAULT_TRAIN_SIZE, dest="n_train")
    p_sweep.add_argument("--n-test", type=int, default=DEFAULT_TEST_SIZE, dest="n_test")
    p_sweep.add_argument("--n-seeds", type=int, default=DEFAULT_SWEEP_SEEDS, dest="n_seeds")
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def _merge_config_argv(argv: list[str]) -> list[str]:
    """Inject config-file values as flags right after the subcommand.

    One ``--key=value`` token per value, so argparse names a stray key, not the
    input after it. The path is read as the parser reads ``--config``,
    abbreviations included. Command-line flags come later, so they override these.
    """
    finder = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    finder.add_argument("--config")
    try:
        path = finder.parse_known_args(argv)[0].config
    except argparse.ArgumentError:  # such as --config without a path: the parser reports it
        return argv
    if path is None:
        return argv
    injected: list[str] = []
    for key, value in _read_config_file(path).items():
        flag = "--" + key.replace("_", "-")
        if key in _SWITCH_KEYS:
            if _SWITCH_VALUES[value.lower()]:
                injected.append(flag)
        else:
            injected.append(f"{flag}={value}")
    return [argv[0], *injected, *argv[1:]]


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        merged = _merge_config_argv(sys.argv[1:] if argv is None else list(argv))
        args = parser.parse_args(merged)
        if args.command == "diagram":
            given = getattr(args, "given", frozenset())
            idle = [flag for flag, (setting, values) in _DIAGRAM_CONTEXT.items()
                    if flag in given and getattr(args, setting) not in values]
            if idle:
                parser.error(f"{', '.join(idle)}: not applied by diagram"
                             f" --bins {args.bins} --kind {args.kind}")
        return args.func(args)
    except (OSError, ValueError) as exc:  # IngestError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
