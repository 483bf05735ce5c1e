"""Readers for line-oriented input files: CSV with a header row, JSON lines.

Each reader opens its file as UTF-8, passes every row to a `build`
function and returns what it built.  Any fault, be it a byte that is not
UTF-8, a CSV or JSON error, or a KeyError, TypeError or ValueError raised
by `build`, becomes a MalformedRow naming the file and the row or line.
"""

import csv
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
    """[build({column: value}) for each non-blank row]; the header is row 1.

    A row shorter than the header lacks the missing columns' keys.  The
    rows are zipped with the header because csv.DictReader is a sixth
    slower on long event logs.
    """
    built, number = [], 2
    with open(path, newline="", encoding="utf-8") as handle:
        try:
            reader = csv.reader(handle)
            header = next(reader, [])
            for row in reader:
                if row:
                    built.append(build(dict(zip(header, row))))
                    number += 1
        except FAULTS as exc:
            raise _malformed(path, f"row {number}", exc) from exc
    return built


def read_jsonl(path, build):
    """[build(value) for the JSON value on each non-blank line]."""
    built, number = [], 0
    with open(path, encoding="utf-8") as handle:
        try:
            for number, line in enumerate(handle, start=1):
                if line.strip():
                    built.append(build(json.loads(line)))
        except FAULTS as exc:
            raise _malformed(path, f"line {number}", exc) from exc
    return built
