"""read_csv against the reader it replaced, which zipped each row with
its header into a dict and let the builder look its fields up by name."""

import csv
import random

from mindrec import cli, evaluation, mindmap
from mindrec.errors import MalformedRow
from mindrec.evaluation import RecEvent, SetRating
from mindrec.mindmap import NodeEvent


def dict_read(path, build):
    """The reference reader: `build` gets {column: field} for each row.
    A row longer than its header is malformed, the one deliberate change;
    the old reader dropped its last fields."""
    built = []
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader, [])
            for row in reader:
                if row:
                    if not header:
                        raise MalformedRow(f"{path}: row 1: blank header row")
                    if len(row) > len(header):
                        raise ValueError(f"{len(row)} fields, but the header has {len(header)}")
                    built.append(build(dict(zip(header, row))))
        except (csv.Error, KeyError, TypeError, ValueError) as exc:
            raise MalformedRow(f"{path}: row {reader.line_num}: {exc}") from exc
    return built


def rec_event(row):
    kind = row["kind"]
    if kind not in evaluation.REC_EVENT_KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    return RecEvent(row["set_id"], row["doc_id"], row["user_id"], kind, int(row["at"]))


def set_rating(row):
    rating = int(row["rating"])
    if not 1 <= rating <= 5:
        raise ValueError(f"rating {rating} outside 1..5")
    return SetRating(row["set_id"], row["user_id"], rating, int(row["at"]))


def node_event(row):
    kind = row["kind"]
    if kind not in mindmap.EVENT_KINDS:
        raise ValueError(f"bad kind {kind!r}")
    return NodeEvent(row["map_id"], row["node_id"], kind, int(row["at"]))


IDS = ["a", "b", ""]
# Every rating below is of a set shown to its user, so _read_ratings adds no fault.
SHOWN = [RecEvent(set_id, "d", user_id, "shown", 0) for set_id in IDS for user_id in IDS]
FORMATS = [  # (columns, the program's reader, the reference builder)
    (("set_id", "doc_id", "user_id", "kind", "at"), cli._read_events, rec_event),
    (("set_id", "user_id", "rating", "at"), lambda p: cli._read_ratings(p, SHOWN), set_rating),
    (("map_id", "node_id", "kind", "at"), mindmap.read_event_log, node_event),
]


def field(rng, column):
    """A field of `column`, now and then a bad one."""
    good = {"kind": [*evaluation.REC_EVENT_KINDS, *mindmap.EVENT_KINDS],
            "at": ["0", "17", "-3", " 8"], "rating": ["1", "3", "5"]}.get(column, IDS)
    bad = {"kind": ["bogus", ""], "at": ["x", "", "1.5"], "rating": ["0", "6", "four"]}
    return rng.choice(bad.get(column, IDS) if rng.random() < 0.04 else good)


def random_file(rng, columns):
    """CSV text with a shuffled header that may repeat or lack a column and
    hold unknown ones, and rows that may be blank, short or long."""
    header = [*columns, *rng.sample(["note", "extra"], rng.randrange(3))]
    if rng.random() < 0.2:
        header.append(rng.choice(columns))
    if rng.random() < 0.1:
        header.remove(rng.choice(columns))
    rng.shuffle(header)
    lines = [[""]] if rng.random() < 0.03 else []
    lines.append(header)
    for _ in range(rng.randrange(6)):
        row = [field(rng, column) for column in header]
        if rng.random() < 0.08:
            row = row[:rng.randrange(1, len(row))]
        elif rng.random() < 0.03:
            row.append("spare")
        lines.append([""] if rng.random() < 0.1 else row)
    return "".join(",".join(line) + "\n" for line in lines)


def outcome(read, path):
    """What a reader gives: its values, or its error line's text."""
    try:
        return read(path)
    except MalformedRow as exc:
        return f"error: {exc}"


FAULTS = {"blank header row": "blank header", "kind ": "bad kind", "outside 1..5": "bad rating",
          "invalid literal": "bad int", "fields, but": "long row", "'": "lacking column"}


def test_matches_the_dict_reader_on_random_files(tmp_path):
    rng = random.Random(18)
    path = tmp_path / "input.csv"
    seen = set()
    for n in range(300):
        columns, read, build = FORMATS[n % len(FORMATS)]
        path.write_text(random_file(rng, columns))
        want = outcome(lambda p: dict_read(p, build), path)
        assert outcome(read, path) == want, path.read_text()
        seen.add("values" if isinstance(want, list) else
                 next(fault for text, fault in FAULTS.items() if text in want))
    assert seen == {"values", *FAULTS.values()}
