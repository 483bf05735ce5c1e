"""Readers for line-oriented input files: CSV with a header row, JSON lines.

Each reader opens its file as UTF-8, skipping a leading byte-order mark,
passes every row to a `build` function, a CSV row as the fields of
columns named once per read, by position, and returns what it built.
`build` sees the rows in file order and may keep state across the rows
of one read, such as a memo that holds each distinct value once; a
caller makes a fresh `build` for each read, so no state outlives it.  Any fault, be it a byte that is not UTF-8, a CSV or
JSON error, or a KeyError, TypeError or ValueError raised by `build`,
becomes a MalformedRow naming the file and the row or line.
"""

import csv
import functools
import itertools
import json
from operator import itemgetter
from pathlib import Path

from .errors import MalformedRow

FAULTS = (csv.Error, KeyError, TypeError, ValueError)


def _malformed(path, where, exc):
    if isinstance(exc, UnicodeDecodeError):
        byte = exc.object[exc.start]
        return MalformedRow(f"{path}: not UTF-8 ({exc.reason} 0x{byte:02x})")
    if isinstance(exc, UnicodeEncodeError):  # a JSON escape of a lone surrogate
        return MalformedRow(f"{path}: {where}: not UTF-8 ({exc.reason} {exc.object[exc.start]!r})")
    return MalformedRow(f"{path}: {where}: {exc}")


def read_text(path):
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise _malformed(path, None, exc) from exc


class _Absent(KeyError):
    """A field a row lacks: the KeyError of its column, raised by hash or == of it."""
    def _lookup(self, *_):
        raise self
    __hash__ = __eq__ = _lookup


def integer(text):
    """The int of `text`, ASCII digits after at most a leading '-';
    ValueError for the other texts int() takes, such as blanks, '+', '_'
    and digits of other scripts."""
    digits = text[1:] if text[:1] == "-" else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"{text!r} is not an integer")
    return int(text)


def real(text):
    """The float of `text`, ASCII with no '_', no leading '+' and no
    surrounding whitespace; ValueError for the other texts float() takes,
    such as '1_000', ' 5', '+5' and digits of other scripts."""
    if not (text.isascii() and "_" not in text and text[:1] != "+" and text == text.strip()):
        raise ValueError(f"{text!r} is not a number")
    return float(text)


def integers():
    """`integer` for the integer fields of one read of `read_csv`: each
    distinct text is checked once and gives one int.  A text is hashed
    before anything else, so an _Absent field raises its KeyError."""
    return functools.cache(integer)


def read_csv(path, columns, build):
    """[build(*fields) for each non-blank row], the fields of the two or
    more `columns` in that order, each found in the header once: the last
    copy of a name wins, and other columns may come in any order.

    Rows are numbered as lines of the file, blank ones included; the
    header is row 1, and a blank one is malformed unless no row follows
    it, as is a row longer than the header.  A column that a shorter row
    or the header lacks is named as a dict of the row names it, `row 2:
    'kind'`: `build` gets an _Absent, and must hash or compare its
    fields in the order it checks them.
    """
    built = []
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader, [])
            position = {name: i for i, name in enumerate(header)}
            fields = itemgetter(*(position.get(name, len(header)) for name in columns))
            for row in reader:
                if row:
                    if not header:
                        raise _malformed(path, "row 1", "blank header row")
                    if len(row) > len(header):
                        raise ValueError(f"{len(row)} fields, but the header has {len(header)}")
                    try:
                        values = fields(row)
                    except IndexError:  # a short row, or a column the header lacks
                        values = map(dict(zip(header, row)).get, columns, map(_Absent, columns))
                    built.append(build(*values))
        except FAULTS as exc:
            raise _malformed(path, f"row {reader.line_num}", exc) from exc
    return built


def csv_row_of(path, index):
    """The number of the row that read_csv built its index-th value from."""
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        numbers = (reader.line_num for row in reader if row)
        return next(itertools.islice(numbers, index + 1, None))


def read_jsonl(path, build):
    """[build(value) for the JSON value on each non-blank line]; `build`
    may keep per-read state, as the module docstring says."""
    built, number = [], 0
    with open(path, encoding="utf-8-sig") as handle:
        try:
            for number, line in enumerate(handle, start=1):
                if line.strip():
                    value = json.loads(line)
                    if "\\u" in line:  # an escape may give a lone surrogate, which is not UTF-8
                        json.dumps(value, ensure_ascii=False).encode("utf-8")
                    built.append(build(value))
        except (*FAULTS, RecursionError) as exc:  # the json module's, for a value nested too deep
            raise _malformed(path, f"line {number}", exc) from exc
    return built
