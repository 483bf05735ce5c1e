"""Readers for line-oriented input files: CSV with a header row, JSON lines.

Each reader opens its file as UTF-8, passes every row to a `build`
function and returns what it built.  `build` sees the rows in file order
and may keep state across the rows of one read, such as a memo that
holds each distinct value once; a caller makes a fresh `build` for each
read, so no state outlives it.  Any fault, be it a byte that is not
UTF-8, a CSV or JSON error, or a KeyError, TypeError or ValueError raised
by `build`, becomes a MalformedRow naming the file and the row or line.
"""

import csv
import itertools
import json
from pathlib import Path

from .errors import MalformedRow

FAULTS = (csv.Error, KeyError, TypeError, ValueError)


def _malformed(path, where, exc):
    if isinstance(exc, UnicodeDecodeError):
        byte = exc.object[exc.start]
        return MalformedRow(f"{path}: not UTF-8 ({exc.reason} 0x{byte:02x})")
    return MalformedRow(f"{path}: {where}: {exc}")


def read_text(path):
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise _malformed(path, None, exc) from exc


def read_csv(path, build):
    """[build({column: value}) for each non-blank row]; `build` may keep
    per-read state, as the module docstring says.

    Rows are numbered as lines of the file, blank ones included; the
    header is row 1, and a blank one is malformed unless no row follows
    it.  A row shorter than the header lacks the missing columns' keys.
    The rows are zipped with the header because csv.DictReader is a
    sixth slower on long event logs.
    """
    built = []
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader, [])
            for row in reader:
                if row:
                    if not header:
                        raise _malformed(path, "row 1", "blank header row")
                    built.append(build(dict(zip(header, row))))
        except FAULTS as exc:
            raise _malformed(path, f"row {reader.line_num}", exc) from exc
    return built


def csv_row_of(path, index):
    """The number of the row that read_csv built its index-th value from."""
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        numbers = (reader.line_num for row in reader if row)
        return next(itertools.islice(numbers, index + 1, None))


def read_jsonl(path, build):
    """[build(value) for the JSON value on each non-blank line]; `build`
    may keep per-read state, as the module docstring says."""
    built, number = [], 0
    with open(path, encoding="utf-8") as handle:
        try:
            for number, line in enumerate(handle, start=1):
                if line.strip():
                    built.append(build(json.loads(line)))
        except FAULTS as exc:
            raise _malformed(path, f"line {number}", exc) from exc
    return built
