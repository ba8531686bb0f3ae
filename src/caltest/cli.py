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
import os
import stat
import sys
import warnings
from collections.abc import Iterator
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

    A CSV file is read by ``np.loadtxt``'s grammar: a regular file by one
    call on its path, anything else, or a file that call refuses, in blocks
    of lines; a block that loadtxt turns down is read line by line to name
    the first bad row.
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


# Bytes read at a time; a block runs on to the end of a line longer than this.
_READ_BLOCK = 1 << 14
# Name endings that numpy opens through a decompressor when given the path.
_DECOMPRESSED = (".gz", ".bz2", ".xz", ".lzma")


def _csv_columns(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """The columns of a ``prediction,label`` file; the first bad row raises.

    Rows are the non-empty lines after the header, as universal newlines cut
    them, numbered from 1; ``np.loadtxt`` reads their fields. A byte that is
    not UTF-8 makes its row bad.

    A regular file goes to one ``np.loadtxt`` call on its path, which reads it
    in C chunks but names no bad row. A file that call refuses, a pipe, and a
    name that numpy would decompress, such as ``.gz``, are read block by block.
    """
    with path.open("rb") as fh:
        blocks = _line_blocks(fh)
        lines, bad = next(blocks)
        if bad is not None and not lines:
            raise MalformedRowError(f"{path}: header: byte {bad} is not UTF-8")
        header = lines[0].removeprefix("\ufeff")  # a leading byte-order mark is not data
        blocks = itertools.chain([(lines[1:], bad)], blocks)
        if header.strip().lower().replace(" ", "") != "prediction,label":
            if not header.strip() and all(
                b is None and not any(map(str.strip, ls)) for ls, b in blocks
            ):  # a blank first line, and only blank text after it
                raise EmptyInputError(f"{path}: file is empty")
            raise MalformedRowError(f"{path}: expected header 'prediction,label', got {header!r}")
        columns = None
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode) and path.suffix not in _DECOMPRESSED:
            columns = _loadtxt_columns(str(path), skiprows=1, encoding="utf-8")
        if columns is None:  # the blocks carry on after the header
            columns = _block_columns(blocks)
    if not columns[1].size:
        raise EmptyInputError(f"{path}: no data rows")
    return columns


def _loadtxt_columns(source, **options) -> tuple[np.ndarray, np.ndarray] | None:
    """Contiguous float64 predictions and int8 labels as ``np.loadtxt`` reads them, or None.

    None if loadtxt turns ``source`` down, a prediction is NaN or outside
    [0, 1], or a label is not 0 or 1. loadtxt skips empty lines, turns down
    a line that is not two fields, and reads a field as ``float()`` reads it,
    save that it turns down underscores and non-ASCII characters.
    """
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            table = np.loadtxt(source, dtype="f8,f8", delimiter=",", comments=None, ndmin=1, **options)
    except ValueError:  # UnicodeDecodeError included
        return None
    preds, labels = table["f0"], table["f1"]
    # NaN fails both comparisons, so it is caught along with out-of-range values.
    if not (np.all((preds >= 0.0) & (preds <= 1.0)) and np.all((labels == 0.0) | (labels == 1.0))):
        return None
    # One byte per label, as Dataset keeps them; loadtxt's 16 bytes per record go on return.
    return preds.copy(), labels.astype(np.int8)


def _line_blocks(fh) -> Iterator[tuple[list[str], int | None]]:
    """A binary file's lines as universal newlines cut them, in blocks cut after a
    read's last line feed or carriage return.

    A CRLF cut in two, and the line feed added to end the last line, leave only
    empty lines. Each block comes with the offset of its first non-UTF-8 byte,
    or None; then it holds only the lines before that byte's line.
    """
    start, pending = 0, []
    for chunk in itertools.chain(iter(lambda: fh.read(_READ_BLOCK), b""), [b"\n"]):
        cut = max(chunk.rfind(b"\n"), chunk.rfind(b"\r")) + 1
        if not cut:
            pending.append(chunk)
            continue
        raw = b"".join([*pending, chunk[:cut]])
        try:
            text, bad = raw.decode(), None
        except UnicodeDecodeError as exc:  # "x" stands in for the bad byte's line, which is dropped
            text, bad = raw[: exc.start].decode() + "x", start + exc.start
        if "\r" in text:  # CRLF and a lone CR end a line as LF does; the search costs less than replace
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        # The cut ends the text in a line end or "x", so the last piece is never a line.
        yield text.split("\n")[:-1], bad
        start += len(raw)
        pending = [chunk[cut:]]


def _block_columns(blocks) -> tuple[np.ndarray, np.ndarray]:
    """The columns of the blocks' lines, each block read by ``np.loadtxt``; the first bad row raises."""
    # Grown in place: per-block arrays joined at the end left freed heap
    # resident after ingest, which raised the peak of the whole call.
    preds, labels = bytearray(), bytearray()  # float64 and int8 values
    for lines, bad in blocks:
        columns = _loadtxt_columns(lines)
        if columns is None:
            _raise_first_bad_row(lines, len(labels))
        preds += columns[0].data  # both are contiguous
        labels += columns[1].data
        if bad is not None:
            raise MalformedRowError(f"row {len(labels) + 1}: byte {bad} is not UTF-8")
    return np.frombuffer(preds, dtype=np.float64), np.frombuffer(labels, dtype=np.int8)


def _raise_first_bad_row(lines: list[str], rows: int) -> None:
    """Raise the error of the first bad row among ``lines``, which follow ``rows`` rows.

    A row is bad where ``np.loadtxt``, reading its line alone, turns a field
    down, or where a check refuses its values: where the block's call did.
    """
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
