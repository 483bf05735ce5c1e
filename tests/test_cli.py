import csv
import json
import os
import random
import re
import shlex
import signal
from functools import partial
from pathlib import Path

import pytest

from mindrec import cli, evaluation, experiment
from mindrec.corpus import load_corpus_jsonl
from mindrec.errors import InvariantViolation, MalformedInput, MalformedRow, MindrecError
from mindrec.mindmap import MindMap, parse_mindmap, read_map_links

from conftest import (DAY_MS, WORDS, assert_no_child_left, node, serialize_mindmap,
                      synthetic_id, write_cli_fixture)


def run(argv):
    return cli.main([str(a) for a in argv])


# Texts int() reads as numbers, but the integer rule of the input files rejects.
NUMBERS_INT_READ = [("--seed", "1_0"), ("--seed", "٧"), ("--seed", " 7"), ("--seed", "+7"),
                    ("--now", "1_000")]
NUMBER_IDS = ["seed_underscore", "seed_arabic_indic_digit", "seed_leading_blank", "seed_plus",
              "now_underscore"]


def readme_examples(text):
    """The `mindrec ...` lines of the ```sh blocks of a README text, each
    with its backslash continuations joined, as argv lists."""
    blocks = re.findall(r"^```sh\n(.*?)^```", text, re.M | re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("mindrec ")]


def test_readme_examples_parse():
    # an example the parser rejects would fail a reader with a usage error
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    examples = readme_examples(text)
    for argv in examples:
        try:
            cli.build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"README example does not parse: mindrec {shlex.join(argv)}")
    assert {argv[0] for argv in examples} == {
        "ingest-corpus", "ingest-mindmaps", "recommend", "offline-eval", "metrics",
        "reiterate", "export"}


GOOD_SET = json.dumps({
    "set_id": "s1", "user_id": "user00", "created_at": 1, "trigger": "requested",
    "label": "", "algorithm": "all_maps_all_terms",
    "items": [{"doc_id": "d1", "original_rank": 1, "display_rank": 1}],
})


def _set_without(field):
    record = json.loads(GOOD_SET)
    del record[field]
    return f"{GOOD_SET}\n{json.dumps(record)}\n".encode()


def _set_with(**fields):
    return json.dumps({**json.loads(GOOD_SET), **fields})


def _set_item_with_unknown_key():
    item = {"doc_id": "d1", "original_rank": 1, "display_rank": 1, "score": 0.5}
    return f"{GOOD_SET}\n{_set_with(items=[item])}\n".encode()


def _map_declaring(encoding):
    """A well-formed map whose declared encoding the XML parser cannot use."""
    return b'<?xml version="1.0" encoding="%s"?><map><node ID="x" TEXT="a"/></map>' % encoding


class TestMetricsCommand:
    def test_ctr_worked_example(self, tmp_path, capsys):
        events = tmp_path / "e.csv"
        with open(events, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["set_id", "doc_id", "user_id", "kind", "at"])
            for i in range(10_000):
                writer.writerow([f"s{i // 10}", f"d{i}", "u", "shown", i])
            for i in range(120):
                writer.writerow([f"s{i // 10}", f"d{i}", "u", "clicked", 20_000 + i])
        out = tmp_path / "report.csv"
        assert run(["metrics", "--events", events, "--out", out]) == 0
        rows = {r["metric"]: r for r in csv.DictReader(open(out))}
        assert float(rows["ctr"]["value"]) == pytest.approx(0.012)
        assert rows["ctr"]["n"] == "10000"

    def test_reiterate_command(self, tmp_path):
        events = tmp_path / "e.csv"
        events.write_text(
            "set_id,doc_id,user_id,kind,at\n"
            "s1,d,u,shown,1\ns1,d,u,clicked,2\n"
            "s2,d,u,shown,3\ns2,d,u,clicked,4\n"
        )
        out = tmp_path / "reit.csv"
        assert run(["reiterate", "--events", events, "--out", out]) == 0
        rows = {r["iteration"]: r for r in csv.DictReader(open(out))}
        assert rows["2"]["oblivious"] == "1"

    def test_ratings_in_documented_layout(self, tmp_path):
        events = tmp_path / "e.csv"
        events.write_text("set_id,doc_id,user_id,kind,at\ns1,d1,u,shown,1\n")
        ratings = tmp_path / "r.csv"
        ratings.write_text("set_id,user_id,rating,at\ns1,u,4,2\ns1,u,2,3\n")
        out = tmp_path / "report.csv"
        assert run(["metrics", "--events", events, "--ratings", ratings,
                    "--out", out]) == 0
        rows = {r["metric"]: r
                for r in csv.DictReader(out.read_text().splitlines())}
        assert (rows["mean_rating"]["value"], rows["mean_rating"]["n"]) == \
            ("3.000000", "2")

    @pytest.mark.parametrize("shown, rating_rows, group_by, row", [
        ("s1,d1,u1,shown,1\n", "s1,u1,4,2\ns9,u2,2,3\n", "user_id", 3),
        ("s1,d1,u1,shown,1\n", "s1,u1,4,2\ns9,u2,2,3\n", None, 3),
        ("", "s1,u1,4,2\n", None, 2),
        ("s1,d1,u1,shown,1\n", "s1,u2,4,2\n", None, 2),
    ], ids=["unshown_set_by_user", "unshown_set", "header_only_log", "shown_to_another_user"])
    def test_rating_of_a_set_not_shown_to_its_user_named(self, tmp_path, capsys, shown,
                                                         rating_rows, group_by, row):
        events = tmp_path / "e.csv"
        events.write_text("set_id,doc_id,user_id,kind,at\n" + shown)
        ratings = tmp_path / "r.csv"
        ratings.write_text("set_id,user_id,rating,at\n" + rating_rows)
        argv = ["metrics", "--events", events, "--ratings", ratings]
        assert run(argv + (["--group-by", group_by] if group_by else [])) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {ratings}: row {row}: ") and "Traceback" not in err

    def test_group_by_set_field(self, tmp_path):
        events = tmp_path / "e.csv"
        events.write_text("set_id,doc_id,user_id,kind,at\n"
                          "s1,d1,user00,shown,1\ns2,d1,user00,shown,2\n")
        sets = tmp_path / "sets.jsonl"
        sets.write_text(GOOD_SET + "\n")
        out = tmp_path / "report.csv"
        assert run(["metrics", "--events", events, "--sets", sets,
                    "--group-by", "algorithm", "--out", out]) == 0
        groups = {r["group"] for r in csv.DictReader(out.read_text().splitlines())}
        assert groups == {"all_maps_all_terms", "unknown"}

    @pytest.mark.parametrize("group_by, groups", [
        ("user_id", {"user00"}),
        ("set_id", {"s1", "unknown"}),
        ("created_at", {"1", "unknown"}),
        ("trigger", {"requested", "unknown"}),
        ("label", {"", "unknown"}),
        ("algorithm", {"all_maps_all_terms", "unknown"}),
    ])
    def test_group_by_scalar_set_fields(self, tmp_path, group_by, groups):
        # s2 has no set, so it lands in the text group "unknown", next to
        # the set's own value, which created_at gives as a number
        events = tmp_path / "e.csv"
        events.write_text("set_id,doc_id,user_id,kind,at\n"
                          "s1,d1,user00,shown,1\ns2,d1,user00,shown,2\n")
        sets = tmp_path / "sets.jsonl"
        sets.write_text(GOOD_SET + "\n")
        out = tmp_path / "report.csv"
        assert run(["metrics", "--events", events, "--sets", sets,
                    "--group-by", group_by, "--out", out]) == 0
        assert {r["group"] for r in csv.DictReader(out.read_text().splitlines())} == groups

    def test_group_by_label_that_is_not_text(self, tmp_path):
        # A label that is a number, a list or null groups by its text, and
        # the number 7 and the text "7" fall in one group.
        events = tmp_path / "e.csv"
        events.write_text("set_id,doc_id,user_id,kind,at\n"
                          "s1,d1,user00,shown,1\ns1,d1,user00,clicked,2\n"
                          "s2,d1,user00,shown,3\ns3,d1,user00,shown,4\n"
                          "s4,d1,user00,shown,5\ns5,d1,user00,shown,6\n")
        sets = tmp_path / "sets.jsonl"
        sets.write_text("\n".join([
            _set_with(set_id="s1", label=7),
            _set_with(set_id="s2", label=["x", 1],
                      items=[{"doc_id": 5, "original_rank": 1, "display_rank": 1}]),
            _set_with(set_id="s3", label="7"),
            _set_with(set_id="s4", label=None, trigger=["t"]),
        ]) + "\n")
        out = tmp_path / "report.csv"
        assert run(["metrics", "--events", events, "--sets", sets,
                    "--group-by", "label", "--out", out]) == 0
        assert out.read_text() == (
            "group,metric,value,n\n"
            "7,ctr,0.500000,2\n7,ctr_set,0.500000,2\n7,ctr_user,0.500000,1\n"
            "7,ltr,0.000000,2\n7,atr,0.000000,2\n7,citr,0.000000,2\n"
            "None,ctr,0.000000,1\nNone,ctr_set,0.000000,1\nNone,ctr_user,0.000000,1\n"
            "None,ltr,0.000000,1\nNone,atr,0.000000,1\nNone,citr,0.000000,1\n"
            "\"['x', 1]\",ctr,0.000000,1\n\"['x', 1]\",ctr_set,0.000000,1\n"
            "\"['x', 1]\",ctr_user,0.000000,1\n\"['x', 1]\",ltr,0.000000,1\n"
            "\"['x', 1]\",atr,0.000000,1\n\"['x', 1]\",citr,0.000000,1\n"
            "unknown,ctr,0.000000,1\nunknown,ctr_set,0.000000,1\nunknown,ctr_user,0.000000,1\n"
            "unknown,ltr,0.000000,1\nunknown,atr,0.000000,1\nunknown,citr,0.000000,1\n")

    @pytest.mark.parametrize("group_by", [None, "user_id"], ids=["plain", "by_user"])
    def test_empty_log_writes_header_only(self, tmp_path, group_by):
        events = tmp_path / "e.csv"
        events.write_text("set_id,doc_id,user_id,kind,at\n")
        out = tmp_path / "report.csv"
        argv = ["metrics", "--events", events, "--out", out]
        assert run(argv + (["--group-by", group_by] if group_by else [])) == 0
        assert out.read_text() == "group,metric,value,n\n"

    @pytest.mark.parametrize("log, fault", [
        ("set_id,doc_id,user_id,kind,at\ns1,d1,u1\n", "'kind'"),
        ("set_id,doc_id,user_id,at\ns1,d1,u1,1\n", "'kind'"),
        ("set_id,doc_id,user_id,kind,at\ns1,d1,u1,bogus\n", "unknown kind 'bogus'"),
        ("at,kind,set_id\n1,shown,s1\n", "'doc_id'"),
        ("set_id,doc_id,user_id,kind\ns1,d1,u1,shown\n", "'at'"),
    ], ids=["short_row", "header_without_kind", "short_row_with_bad_kind",
            "header_without_doc_id", "header_without_at"])
    def test_lacking_column_named(self, tmp_path, capsys, log, fault):
        events = tmp_path / "e.csv"
        events.write_text(log)
        assert run(["metrics", "--events", events]) == 1
        assert capsys.readouterr().err == f"error: {events}: row 2: {fault}\n"

    @pytest.mark.parametrize("command, header", [
        ("metrics", "group,metric,value,n\n"),
        ("reiterate", "iteration,shown,clicks,ctr,oblivious,first_clicks,ctr_first\n"),
    ])
    def test_header_only_log_without_a_column_reads_empty(self, tmp_path, command, header):
        events = tmp_path / "e.csv"
        events.write_text("set_id,doc_id,user_id,at\n")
        out = tmp_path / "report.csv"
        assert run([command, "--events", events, "--out", out]) == 0
        assert out.read_text() == header

    @pytest.mark.parametrize("group_by, with_sets", [
        ("items", True), ("nosuch", True), ("nosuch", False), ("algorithm", False),
    ], ids=["list_field", "unknown_name_with_sets", "unknown_name",
            "set_field_without_sets"])
    def test_group_by_rejected(self, tmp_path, capsys, group_by, with_sets):
        events = tmp_path / "e.csv"
        events.write_text("set_id,doc_id,user_id,kind,at\ns1,d1,user00,shown,1\n")
        sets = tmp_path / "sets.jsonl"
        sets.write_text(GOOD_SET + "\n")
        argv = ["metrics", "--events", events, "--group-by", group_by]
        if with_sets:
            argv += ["--sets", sets]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: --group-by {group_by}") and "Traceback" not in err


class TestReplayEventLog:
    def test_empty_log(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_text("set_id,doc_id,user_id,kind,at\n")
        assert cli.replay_event_log(p) == []

    def test_click_without_shown_names_row(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_text("set_id,doc_id,user_id,kind,at\ns1,d1,u,clicked,5\n")
        with pytest.raises(InvariantViolation, match="row 2"):
            cli.replay_event_log(p)

    def test_malformed_row(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_text("set_id,doc_id,user_id,kind,at\ns1,d1,u,shown,notanumber\n")
        with pytest.raises(MalformedRow):
            cli.replay_event_log(p)

    def test_blank_row_counted_in_bad_row_number(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_text("set_id,doc_id,user_id,kind,at\ns1,d1,u,shown,5\n\n"
                     "s1,d1,u,clicked,soon\n")
        with pytest.raises(MalformedRow, match=f"^{re.escape(str(p))}: row 4: "):
            cli.replay_event_log(p)

    def test_blank_row_counted_in_invariant_row_number(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_text("set_id,doc_id,user_id,kind,at\ns1,d1,u,shown,5\n\n"
                     "s2,d2,u,clicked,7\ns2,d2,u,shown,9\n")
        with pytest.raises(InvariantViolation, match=f"^{re.escape(str(p))}: row 4: "):
            cli.replay_event_log(p)

    def test_blank_header_row_named(self, tmp_path, capsys):
        p = tmp_path / "e.csv"
        p.write_text("\nset_id,doc_id,user_id,kind,at\ns1,d1,u,shown,5\n")
        assert run(["reiterate", "--events", p]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {p}: row 1: ") and "blank header" in err

    def test_wholly_empty_log(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_text("")
        assert cli.replay_event_log(p) == []

    def test_shuffled_log_sorted(self, tmp_path):
        rng = random.Random(8)
        rows = []
        for i in range(500):
            rows.append((f"s{i}", f"d{i}", "u", "shown", 2 * i))
            if rng.random() < 0.5:
                rows.append((f"s{i}", f"d{i}", "u", "clicked", 2 * i + 1))
        shuffled = rows[:]
        rng.shuffle(shuffled)
        p = tmp_path / "e.csv"
        with open(p, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["set_id", "doc_id", "user_id", "kind", "at"])
            writer.writerows(shuffled)
        got = cli.replay_event_log(p)
        assert [(e.set_id, e.kind, e.at) for e in got] == \
            sorted(((r[0], r[3], r[4]) for r in rows), key=lambda t: t[2])

    def test_duplicate_clicks_count_once(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_text("set_id,doc_id,user_id,kind,at\n"
                     "s,d,u,shown,0\ns,d,u,clicked,1\ns,d,u,clicked,5\n")
        got = {m: v for _, m, v, _ in evaluation.online_metrics(cli.replay_event_log(p))}
        assert got["ctr"] == 1.0

    def test_repeated_shown_keeps_earliest(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_text("set_id,doc_id,user_id,kind,at\n"
                     "s1,d1,u,shown,5\ns1,d1,u,shown,3\ns1,d1,u,clicked,6\n")
        assert [(e.kind, e.at) for e in cli.replay_event_log(p)] == \
            [("shown", 3), ("clicked", 6)]
        out = tmp_path / "reit.csv"
        assert run(["reiterate", "--events", p, "--out", out]) == 0
        [row] = csv.DictReader(open(out))
        assert (row["iteration"], row["shown"], row["clicks"]) == ("1", "1", "1")

    def test_matches_the_replay_rule_on_random_logs(self, tmp_path):
        # The rule as the docstring states it, on rows in file order: the
        # kept rows, or the file index of the row the walk stops at.
        def reference(rows):
            order = sorted(range(len(rows)), key=lambda i: (rows[i][4], rows[i][3] != "shown"))
            seen, kept = {}, []
            for i in order:
                set_id, doc_id, user_id, kind, _ = rows[i]
                shown_to = seen.get((set_id, doc_id, "shown"))
                if (shown_to is None and kind != "shown") or shown_to not in (None, user_id):
                    return i
                if (set_id, doc_id, kind) not in seen:
                    seen[set_id, doc_id, kind] = user_id
                    kept.append(rows[i])
            return kept

        rng = random.Random(16)
        p = tmp_path / "e.csv"
        outcomes = set()
        for _ in range(400):
            rows = [(rng.choice(["s1", "s2"]), rng.choice(["d1", "d2"]), rng.choice(["u1", "u2"]),
                     rng.choice(["shown"] * 4 + ["clicked", "cited"]), rng.randrange(4))
                    for _ in range(rng.randrange(1, 12))]
            with open(p, "w", newline="") as handle:
                writer = csv.writer(handle)
                writer.writerow(["set_id", "doc_id", "user_id", "kind", "at"])
                writer.writerows(rows)
            want = reference(rows)
            outcomes.add(type(want))
            if isinstance(want, int):
                with pytest.raises(InvariantViolation,
                                   match=f"^{re.escape(str(p))}: row {want + 2}: "
                                         f"'{rows[want][3]}' "):
                    cli.replay_event_log(p)
            else:
                assert [(e.set_id, e.doc_id, e.user_id, e.kind, e.at)
                        for e in cli.replay_event_log(p)] == want
        assert outcomes == {int, list}

    @pytest.mark.parametrize("argv", [
        ["metrics"], ["metrics", "--group-by", "user_id"], ["reiterate"],
        ["export", "--sets", "SETS", "--out", "OUT"],
    ], ids=["metrics", "metrics_by_user", "reiterate", "export"])
    def test_click_by_another_user_names_row(self, tmp_path, capsys, argv):
        p = tmp_path / "e.csv"
        p.write_text("set_id,doc_id,user_id,kind,at\n"
                     "s1,d1,u1,shown,1\ns1,d1,u2,clicked,2\n")
        (tmp_path / "sets.jsonl").write_text(GOOD_SET + "\n")
        paths = {"SETS": tmp_path / "sets.jsonl", "OUT": tmp_path / "export"}
        argv = [paths.get(a, a) for a in argv]
        assert run([*argv, "--events", p]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {p}: row 3: 'clicked' by user 'u2'") and \
            "'u1'" in err


class TestInterning:
    """Within one read of a file, equal ids are one object; each read
    starts afresh."""

    def test_event_log(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_text("set_id,doc_id,user_id,kind,at\n"
                     "set1,doc1,user1,shown,1700000000000\n"
                     "set1,doc2,user1,shown,1700000000000\n"
                     "set2,doc1,user1,shown,1700000000001\n")
        a, b, c = cli.replay_event_log(p)
        assert a.set_id is b.set_id and a.doc_id is c.doc_id
        assert a.user_id is b.user_id is c.user_id and a.at is b.at
        assert cli.replay_event_log(p)[0].set_id is not a.set_id

    def test_ratings(self, tmp_path):
        events = tmp_path / "e.csv"
        events.write_text("set_id,doc_id,user_id,kind,at\nset1,doc1,user1,shown,1\n")
        ratings = tmp_path / "r.csv"
        ratings.write_text("set_id,user_id,rating,at\nset1,user1,4,2\nset1,user1,5,3\n")
        a, b = cli._read_ratings(ratings, cli.replay_event_log(events))
        assert a.set_id is b.set_id and a.user_id is b.user_id

    def test_sets(self, tmp_path):
        item = {"doc_id": "doc1", "original_rank": 1, "display_rank": 1}
        p = tmp_path / "sets.jsonl"
        p.write_text(_set_with(set_id="set1", items=[item]) + "\n"
                     + _set_with(set_id="set2", items=[item, {**item, "doc_id": "doc2"}]) + "\n")
        a, b = cli._read_sets(p)
        assert a.items[0].doc_id is b.items[0].doc_id
        assert a.user_id is b.user_id and a.algorithm is b.algorithm
        assert vars(a)["set_id"] == "set1"


class TestRecommendCommand:
    def test_seed_determinism(self, tmp_path):
        corpus_path, maps_dir, now = write_cli_fixture(tmp_path)
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            assert run(["recommend", "--corpus", corpus_path,
                        "--mindmaps", maps_dir, "--user", "user01",
                        "--seed", 7, "--now", now,
                        "--preset", "all_maps_all_terms", "--out", out]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        assert b"user01" in outs[0]

    def test_unknown_user(self, tmp_path, capsys):
        corpus_path, maps_dir, now = write_cli_fixture(tmp_path)
        assert run(["recommend", "--corpus", corpus_path,
                    "--mindmaps", maps_dir, "--user", "ghost",
                    "--seed", 1, "--now", now]) == 1

    def _catalog_call(self, tmp_path, catalog_lines):
        """recommend from a --stereotype file of catalog_lines(corpus titles)."""
        corpus_path, maps_dir, now = write_cli_fixture(tmp_path)
        titles = [json.loads(line)["title"] for line in corpus_path.read_text().splitlines()]
        catalog = tmp_path / "catalog.txt"
        catalog.write_text("".join(f"{line}\n" for line in catalog_lines(titles)))
        out = tmp_path / "rec.csv"
        code = run(["recommend", "--corpus", corpus_path, "--mindmaps", maps_dir,
                    "--user", "user01", "--seed", 1, "--now", now,
                    "--stereotype", catalog, "--p-stereotype", 1, "--out", out])
        return code, catalog, out

    def test_stereotype_catalog_served(self, tmp_path):
        code, _, out = self._catalog_call(
            tmp_path, lambda titles: [titles[4], "", titles[2].upper()])
        assert code == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert {r["algorithm"] for r in rows} == {"stereotype"}
        assert sorted(r["doc_id"] for r in rows) == ["doc_3", "doc_5"]

    def test_unknown_stereotype_title_named(self, tmp_path, capsys):
        # the title is looked up, not minted as a document with no terms
        code, catalog, _ = self._catalog_call(
            tmp_path, lambda titles: [titles[0], "Not In The Corpus"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {catalog}: line 2: ") and "Not In The Corpus" in err

    def test_stereotype_document_named_twice(self, tmp_path, capsys):
        # two spellings of one title would put one document in a set twice
        code, catalog, out = self._catalog_call(
            tmp_path, lambda titles: [titles[0], "", titles[0].upper().replace(" ", "  ")])
        variant = catalog.read_text().splitlines()[2]
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {catalog}: line 3: {variant!r} names the document of line 1\n")
        assert not out.exists()

    @pytest.mark.parametrize("p_stereotype", [1, 0], ids=["stereotype_arm", "content_route"])
    def test_empty_stereotype_file_named(self, tmp_path, capsys, p_stereotype):
        # the file is checked where it enters, whichever route serves
        corpus_path, maps_dir, now = write_cli_fixture(tmp_path, n_users=2)
        catalog = tmp_path / "catalog.txt"
        catalog.write_text("\n\n")
        out = tmp_path / "rec.csv"
        assert run(["recommend", "--corpus", corpus_path, "--mindmaps", maps_dir,
                    "--user", "user01", "--seed", 1, "--now", now, "--stereotype", catalog,
                    "--p-stereotype", p_stereotype, "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {catalog}: ") and "stereotype catalog" in err
        assert not out.exists()

    def test_corpus_without_documents_named(self, tmp_path, capsys):
        corpus_path = tmp_path / "corpus.jsonl"
        corpus_path.write_text("")
        (tmp_path / "mindmaps" / "u").mkdir(parents=True)
        (tmp_path / "mindmaps" / "u" / "m1.mm").write_bytes(
            serialize_mindmap(MindMap("m1", node("r", "quantum flux"))))
        assert run(["recommend", "--corpus", corpus_path, "--mindmaps", tmp_path / "mindmaps",
                    "--user", "u", "--seed", 1, "--p-stereotype", 0]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {corpus_path}: ") and "stereotype catalog" in err

    def test_user_without_maps_gets_stereotype(self, tmp_path):
        corpus_path, maps_dir, now = write_cli_fixture(tmp_path, n_users=2)
        (maps_dir / "emptyuser").mkdir()
        out = tmp_path / "rec.csv"
        assert run(["recommend", "--corpus", corpus_path, "--mindmaps", maps_dir,
                    "--user", "emptyuser", "--seed", 1, "--now", now,
                    "--p-stereotype", 0, "--out", out]) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert rows and {r["algorithm"] for r in rows} == {"stereotype"}

    @pytest.mark.parametrize("value", ["-3", "1.5", "nan", "0.0_1", "٠.٥", " 0.5"])
    def test_p_stereotype_outside_unit_interval_rejected(self, tmp_path, capsys, value):
        corpus_path, maps_dir, now = write_cli_fixture(tmp_path, n_users=2)
        out = tmp_path / "rec.csv"
        with pytest.raises(SystemExit) as exc:
            run(["recommend", "--corpus", corpus_path, "--mindmaps", maps_dir,
                 "--user", "user01", "--seed", 1, "--now", now,
                 f"--p-stereotype={value}", "--out", out])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--p-stereotype" in err and value in err
        assert not out.exists()

    @pytest.mark.parametrize("option, value", NUMBERS_INT_READ, ids=NUMBER_IDS)
    def test_number_that_int_reads_rejected(self, tmp_path, capsys, option, value):
        # int() read each: `--seed 1_0` wrote the bytes of `--seed 10`, the
        # other seeds ran as seed 7
        corpus_path, maps_dir, now = write_cli_fixture(tmp_path, n_users=2)
        numbers = {"--seed": 1, "--now": now, option: value}
        out = tmp_path / "rec.csv"
        with pytest.raises(SystemExit) as exc:
            run(["recommend", "--corpus", corpus_path, "--mindmaps", maps_dir,
                 "--user", "user01", *(f"{k}={v}" for k, v in numbers.items()), "--out", out])
        assert exc.value.code == 2
        assert f"argument {option}: invalid integer value: {value!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_and_exponent_probability_read(self, tmp_path):
        corpus_path, maps_dir, now = write_cli_fixture(tmp_path, n_users=2)
        out = tmp_path / "rec.csv"
        assert run(["recommend", "--corpus", corpus_path, "--mindmaps", maps_dir,
                    "--user", "user01", "--seed", "-3", "--now", now,
                    "--p-stereotype", "5e-1", "--out", out]) == 0
        assert "set_user01_-3" in out.read_text()


    def test_label_not_utf8_rejected(self, tmp_path, capsys):
        # such a label was once written to --sets-out, which export and
        # metrics --sets then refused as not UTF-8
        corpus_path, maps_dir, now = write_cli_fixture(tmp_path, n_users=2)
        out, sets = tmp_path / "rec.csv", tmp_path / "sets.jsonl"
        with pytest.raises(SystemExit) as exc:
            run(["recommend", "--corpus", corpus_path, "--mindmaps", maps_dir,
                 "--user", "user01", "--seed", 1, "--now", now,
                 "--label", os.fsdecode(b"\xff"), "--out", out, "--sets-out", sets])
        assert exc.value.code == 2
        assert "argument --label: invalid utf8 value: '\\udcff'" in capsys.readouterr().err
        assert not out.exists() and not sets.exists()


class TestAlgorithmLabel:
    def test_config_without_preset_is_custom(self, tmp_path):
        corpus_path, maps_dir, now = write_cli_fixture(tmp_path, n_users=2)
        config = tmp_path / "one_map.cfg"
        config.write_text("map_limit = 1\n")
        common = ["--corpus", corpus_path, "--mindmaps", maps_dir, "--seed", 1,
                  "--now", now, "--config", config]
        assert run(["recommend", *common, "--user", "user01", "--p-stereotype", 0,
                    "--out", tmp_path / "rec.csv"]) == 0
        assert run(["offline-eval", *common, "--out", tmp_path / "offline.csv"]) == 0
        for name in ("rec.csv", "offline.csv"):
            rows = list(csv.DictReader((tmp_path / name).read_text().splitlines()))
            assert rows and {r["algorithm"] for r in rows} == {"custom"}, name


class TestOfflineEvalCommand:
    def test_matches_per_user_calls(self, tmp_path):
        corpus_path, maps_dir, now = write_cli_fixture(tmp_path, n_users=5)
        out = tmp_path / "offline.csv"
        assert run(["offline-eval", "--corpus", corpus_path,
                    "--mindmaps", maps_dir, "--seed", 3, "--now", now,
                    "--preset", "all_maps_all_terms", "--out", out]) == 0
        got = list(csv.DictReader(open(out)))

        corpus = load_corpus_jsonl(corpus_path)
        collections = cli.load_user_collections(maps_dir)
        corpus.freeze({u: c.links() for u, c in collections.items()})
        config = experiment.preset("all_maps_all_terms")
        expected = [evaluation.offline_evaluate_user(collections[u], corpus, config)
                    for u in sorted(collections)]
        assert len(got) == len(expected)
        for row, result in zip(got, expected):
            assert row["user_id"] == result.user_id
            assert float(row["mrr"]) == pytest.approx(result.mrr_term, abs=1e-6)
            assert float(row["ndcg"]) == pytest.approx(result.ndcg, abs=1e-6)

    def test_map_started_after_citation(self, tmp_path):
        corpus_path, maps_dir, now = write_cli_fixture(tmp_path, n_users=2)
        later = MindMap("later", node("late_root", "afterthought",
                                      created_at=now - DAY_MS))
        (maps_dir / "user01" / "later.mm").write_bytes(serialize_mindmap(later))
        out = tmp_path / "offline.csv"
        assert run(["offline-eval", "--corpus", corpus_path,
                    "--mindmaps", maps_dir, "--seed", 3, "--now", now,
                    "--preset", "all_maps_all_terms", "--out", out]) == 0
        users = [row["user_id"]
                 for row in csv.DictReader(out.read_text().splitlines())]
        assert users == ["user00", "user01"]

    def test_seed_needed_only_with_space(self, tmp_path):
        # --seed was required, though only --space reads it
        corpus_path, maps_dir, now = write_cli_fixture(tmp_path, n_users=3)
        argv = ["offline-eval", "--corpus", corpus_path, "--mindmaps", maps_dir,
                "--now", now, "--preset", "all_maps_all_terms"]
        assert run([*argv, "--out", tmp_path / "unseeded.csv"]) == 0
        assert run([*argv, "--seed", 7, "--out", tmp_path / "seeded.csv"]) == 0
        assert (tmp_path / "unseeded.csv").read_bytes() == (tmp_path / "seeded.csv").read_bytes()

    @pytest.mark.parametrize("option, value", NUMBERS_INT_READ, ids=NUMBER_IDS)
    def test_number_that_int_reads_rejected(self, tmp_path, capsys, option, value):
        # int() read each: `--seed 1_0` drew the configs of `--seed 10`
        corpus_path, maps_dir, now = write_cli_fixture(tmp_path, n_users=2)
        (tmp_path / "space.txt").write_text("model_size = 5, 10\n")
        numbers = {"--seed": 1, "--now": now, option: value}
        out = tmp_path / "o.csv"
        with pytest.raises(SystemExit) as exc:
            run(["offline-eval", "--corpus", corpus_path, "--mindmaps", maps_dir,
                 "--space", tmp_path / "space.txt", *(f"{k}={v}" for k, v in numbers.items()),
                 "--out", out])
        assert exc.value.code == 2
        assert f"argument {option}: invalid integer value: {value!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, flag", [("offline-eval", "--space"),
                                               ("recommend", "--user")])
    def test_missing_seed_is_usage_error(self, tmp_path, capsys, command, flag):
        # stopped before any input is read: none of the files exists
        with pytest.raises(SystemExit) as exc:
            run([command, "--corpus", tmp_path / "c.jsonl", "--mindmaps", tmp_path / "maps",
                 flag, tmp_path / "space.txt", "--out", tmp_path / "o.csv"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("text", [
        "node_limt = 5\n",
        "node_limit = 5\nnode_weighting = true\ntransform = bogus\n",
        "event_kind = moved\n",
        "node_limit = 5\nnode_weighting = true\nmetrics = depth+depth\n",
    ], ids=["unknown_key", "bad_choice", "no_selection_bound", "repeated_metric"])
    def test_bad_config_rejected(self, tmp_path, capsys, text):
        corpus_path, maps_dir, now = write_cli_fixture(tmp_path, n_users=2)
        config = tmp_path / "bad.cfg"
        config.write_text(text)
        assert run(["offline-eval", "--corpus", corpus_path,
                    "--mindmaps", maps_dir, "--seed", 3, "--now", now,
                    "--config", config, "--out", tmp_path / "o.csv"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {config}: ")
        assert "Traceback" not in err

    def test_value_that_does_not_parse_named(self, tmp_path, capsys):
        corpus_path, maps_dir, now = write_cli_fixture(tmp_path, n_users=2)
        config = tmp_path / "bad.cfg"
        config.write_text("node_limit = ten\n")
        assert run(["offline-eval", "--corpus", corpus_path, "--mindmaps", maps_dir,
                    "--seed", 3, "--now", now, "--config", config,
                    "--out", tmp_path / "o.csv"]) == 1
        assert capsys.readouterr().err == f"error: {config}: node_limit: 'ten' is not an integer\n"
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("source", ["--config", "--space"])
    @pytest.mark.parametrize("key, value", [
        ("map_limit", "-1"), ("node_limit", "-1"), ("day_window", "-5"), ("node_limit", "0"),
    ])
    def test_limit_below_one_rejected(self, tmp_path, capsys, source, key, value):
        corpus_path, maps_dir, now = write_cli_fixture(tmp_path, n_users=2)
        path = tmp_path / "limits.txt"
        bound = "map_limit" if key == "node_limit" else "node_limit"
        path.write_text(f"{bound} = 5\n{key} = {value}\n")
        assert run(["offline-eval", "--corpus", corpus_path, "--mindmaps", maps_dir,
                    "--seed", 3, "--now", now, source, path,
                    "--out", tmp_path / "o.csv"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: {key}: ") and "Traceback" not in err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("source", ["--config", "--space"])
    def test_repeated_key_rejected(self, tmp_path, capsys, source):
        corpus_path, maps_dir, now = write_cli_fixture(tmp_path, n_users=2)
        path = tmp_path / "twice.txt"
        path.write_text("node_limit = 5\n# again\nnode_limit = 10\n")
        assert run(["offline-eval", "--corpus", corpus_path, "--mindmaps", maps_dir,
                    "--seed", 3, "--now", now, source, path,
                    "--out", tmp_path / "o.csv"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: line 3: 'node_limit'") and "Traceback" not in err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("text, key", [
        ("map_limit = none\nnode_limit = none\nday_window = none\n", "node_limit"),
        ("map_limit = none, 1\nnode_limit = none\nday_window = 7, none\n", "node_limit"),
        ("use_node_weighting = true\nmetrics = none\n", "metrics"),
        ("use_node_weighting = false, true\nmetrics = depth, none\n", "metrics"),
    ], ids=["no_bound_only", "no_bound_possible", "weighting_no_metrics",
            "weighting_may_draw_no_metrics"])
    def test_space_that_can_draw_an_invalid_config_rejected(self, tmp_path, capsys, text, key):
        corpus_path, maps_dir, now = write_cli_fixture(tmp_path, n_users=2)
        space = tmp_path / "space.txt"
        space.write_text(text)
        assert run(["offline-eval", "--corpus", corpus_path, "--mindmaps", maps_dir,
                    "--seed", 3, "--now", now, "--space", space,
                    "--out", tmp_path / "o.csv"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {space}: {key}: ") and "Traceback" not in err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("pair", [
        ("--preset", "all_maps_all_terms", "--config", "typo.cfg"),
        ("--preset", "docear_combined", "--space", "s.txt"),
        ("--config", "typo.cfg", "--space", "s.txt"),
    ], ids=["preset_config", "preset_space", "config_space"])
    def test_config_sources_exclusive(self, tmp_path, capsys, pair):
        corpus_path, maps_dir, now = write_cli_fixture(tmp_path, n_users=2)
        (tmp_path / "typo.cfg").write_text("node_limt = 5\n")
        (tmp_path / "s.txt").write_text("node_limit = 10\n")
        pair = [tmp_path / a if a.endswith((".cfg", ".txt")) else a for a in pair]
        with pytest.raises(SystemExit) as exc:
            run(["offline-eval", "--corpus", corpus_path, "--mindmaps", maps_dir,
                 "--seed", 3, "--now", now, *pair, "--out", tmp_path / "o.csv"])
        assert exc.value.code == 2
        assert "not allowed with" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("config", [
        ["--preset", "stereotype"],
        ["--config", "stereotype.cfg"],
    ], ids=["preset", "config_file"])
    def test_stereotype_builds_no_model(self, tmp_path, capsys, config):
        corpus_path, maps_dir, now = write_cli_fixture(tmp_path, n_users=2)
        (tmp_path / "stereotype.cfg").write_text("preset_name = stereotype\n"
                                                 "node_limit = 1\n")
        config = [tmp_path / a if a.endswith(".cfg") else a for a in config]
        argv = ["offline-eval", "--corpus", corpus_path, "--mindmaps", maps_dir,
                "--seed", 3, "--now", now, *config, "--out", tmp_path / "o.csv"]
        named = f"{config[1]}: " if config[0] == "--config" else "--preset stereotype: "
        for users_cite in (True, False):
            if not users_cite:
                for path in maps_dir.glob("*/*.mm"):
                    path.write_bytes(serialize_mindmap(MindMap(path.stem, node("r", "quantum flux"))))
            assert run(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: {named}the stereotype preset builds no user model")
            assert not (tmp_path / "o.csv").exists()
        # a map fault still comes first
        bad = maps_dir / "user01" / "bad.mm"
        bad.write_bytes(b"<map>\n")
        assert run(argv) == 1
        assert capsys.readouterr().err.startswith(f"error: {bad}: ")

    def _offline_eval(self, tmp_path, monkeypatch, workers, evaluate=None, n_users=5):
        """(exit status, output path) of `offline-eval` with `workers` CPUs
        probed, each user evaluated by `evaluate(real evaluate, collection,
        corpus, config)` if given."""
        corpus_path, maps_dir, now = write_cli_fixture(tmp_path, n_users=n_users)
        monkeypatch.setattr(cli, "usable_cpus", lambda: workers)
        if evaluate is not None:
            monkeypatch.setattr(evaluation, "offline_evaluate_user",
                                partial(evaluate, evaluation.offline_evaluate_user))
        out = tmp_path / "o.csv"
        status = run(["offline-eval", "--corpus", corpus_path, "--mindmaps", maps_dir,
                      "--seed", 3, "--now", now, "--preset", "all_maps_all_terms",
                      "--out", out])
        assert_no_child_left()
        return status, out

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("failing", [("user00", "user04"), ("user02", "user03")],
                             ids=["first_block_and_last", "two_worker_blocks"])
    def test_first_failing_user_named(self, tmp_path, capsys, monkeypatch, workers, failing):
        # 3 workers take user00 | user01 user02 | user03 user04
        def evaluate(real, collection, corpus, config):
            if collection.user_id in failing:
                raise MindrecError(f"injected for {collection.user_id}")
            return real(collection, corpus, config)

        status, out = self._offline_eval(tmp_path, monkeypatch, workers, evaluate)
        assert status == 1
        assert capsys.readouterr().err == f"error: injected for {failing[0]}\n"
        assert not out.exists()

    @pytest.mark.parametrize("death, how", [
        (lambda: os._exit(3), "exited with status 3"),
        (lambda: os.kill(os.getpid(), signal.SIGKILL), "was killed by signal 9"),
        (lambda: os._exit(0), "sent a short reply"),
        (lambda: [][0], "exited with status 1"),
    ], ids=["exit_status", "signal", "short_reply", "unexpected_exception"])
    def test_dead_worker_stops_the_command(self, tmp_path, capsys, monkeypatch, death, how):
        test_pid = os.getpid()

        def evaluate(real, collection, corpus, config):
            if os.getpid() != test_pid:  # only in a forked worker
                death()
            return real(collection, corpus, config)

        status, out = self._offline_eval(tmp_path, monkeypatch, 2, evaluate)
        assert status == 1
        assert capsys.readouterr().err == ("error: the offline-eval worker for users "
                                           f"user02 to user04 {how}\n")
        assert not out.exists()

    @pytest.mark.parametrize("workers, n_users, has_fork", [(1, 3, True), (4, 1, True),
                                                             (4, 3, False)],
                             ids=["one_cpu", "one_user", "platform_without_fork"])
    def test_one_block_runs_without_fork(self, tmp_path, monkeypatch, workers, n_users,
                                         has_fork):
        # With a second CPU the map links are read in a worker at once with
        # the corpus, so one user's run forks that worker and no other.
        forks, fork, links_workers = [], os.fork, 1 if n_users == 1 else 0

        def counted_fork():
            forks.append(None)
            if len(forks) > links_workers:
                raise AssertionError("forked")
            return fork()

        if has_fork:
            monkeypatch.setattr(os, "fork", counted_fork)
        else:
            monkeypatch.delattr(os, "fork")
        status, out = self._offline_eval(tmp_path, monkeypatch, workers, n_users=n_users)
        assert status == 0
        assert len(forks) == links_workers
        assert len(out.read_text().splitlines()) == 1 + n_users

    def test_users_load_in_full_in_their_own_block(self, tmp_path, monkeypatch):
        # No user's maps are resident in full when the workers fork, and
        # this process loads only the users of its own block.
        loaded, load, run_tasks = [], cli._load_collection, cli._run_tasks

        def counted_load(user_dir):
            loaded.append(user_dir.name)
            return load(user_dir)

        def checked_run_tasks(tasks):
            assert loaded == []
            return run_tasks(tasks)

        monkeypatch.setattr(cli, "_load_collection", counted_load)
        monkeypatch.setattr(cli, "_run_tasks", checked_run_tasks)
        status, out = self._offline_eval(tmp_path, monkeypatch, 2)
        assert status == 0 and len(out.read_text().splitlines()) == 6
        assert loaded == ["user00", "user01"]

    @pytest.mark.parametrize("cpu_count, cpus", [(3, 3), (None, 1)])
    def test_usable_cpus_without_affinity(self, monkeypatch, cpu_count, cpus):
        # outside Linux: the CPU count, or 1 when it is unknown
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
        assert cli.usable_cpus() == cpus


class TestOnlineReadsAtOnce:
    """`metrics --sets` reads the sets file, and `export --events` the
    event log, in a worker process while this one reads the other input,
    and either stops as one process reading them in turn would."""

    def _argv(self, tmp_path, command, **bad):
        """The argv of `command` on small good inputs, save the `bad` input
        paths given by name, writing to tmp_path / "out"."""
        inputs = {"events": tmp_path / "e.csv", "ratings": tmp_path / "r.csv",
                  "sets": tmp_path / "sets.jsonl"}
        inputs["events"].write_text("set_id,doc_id,user_id,kind,at\n"
                                    "s1,d1,user00,shown,1\ns1,d1,user00,clicked,2\n")
        inputs["ratings"].write_text("set_id,user_id,rating,at\ns1,user00,4,2\n")
        inputs["sets"].write_text(GOOD_SET + "\n")
        inputs.update(bad)
        events, ratings, sets, out = (*inputs.values(), tmp_path / "out")
        return {
            "metrics": ["metrics", "--events", events, "--ratings", ratings, "--sets", sets,
                        "--group-by", "algorithm", "--out", out],
            "export": ["export", "--sets", sets, "--events", events, "--out", out],
            "metrics_without_sets": ["metrics", "--events", events, "--ratings", ratings,
                                     "--out", out],
            "reiterate": ["reiterate", "--events", events, "--out", out],
        }[command]

    @pytest.mark.parametrize("death, how", [
        (lambda: os._exit(3), "exited with status 3"),
        (lambda: os.kill(os.getpid(), signal.SIGKILL), "was killed by signal 9"),
        (lambda: os._exit(0), "sent a short reply"),
        (lambda: [][0], "exited with status 1"),
    ], ids=["exit_status", "signal", "short_reply", "unexpected_exception"])
    @pytest.mark.parametrize("command, read, flag", [
        ("metrics", "_read_sets", "--sets"),
        ("export", "replay_event_log", "--events"),
    ], ids=["metrics", "export"])
    def test_dead_worker_names_its_input(self, tmp_path, capsys, monkeypatch, command, read,
                                         flag, death, how):
        test_pid = os.getpid()
        real = getattr(cli, read)

        def dying(path):
            if os.getpid() != test_pid:  # only in a forked worker
                death()
            return real(path)

        monkeypatch.setattr(cli, read, dying)
        monkeypatch.setattr(cli, "usable_cpus", lambda: 2)
        argv = self._argv(tmp_path, command)
        assert run(argv) == 1
        assert_no_child_left()
        path = argv[argv.index(flag) + 1]
        assert capsys.readouterr().err == f"error: the worker reading {path} {how}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("command, bad, first", [
        ("metrics", ("events", "sets"), "events"),
        ("metrics", ("ratings", "sets"), "ratings"),
        ("export", ("sets", "events"), "sets"),
    ], ids=["metrics_events_and_sets", "metrics_ratings_and_sets", "export_sets_and_events"])
    def test_of_two_bad_inputs_the_serial_first_is_named(self, tmp_path, capsys, monkeypatch,
                                                         command, bad, first, workers):
        faults = {  # input -> (its text, its error)
            "events": ("set_id,doc_id,user_id,kind,at\ns1,d1,user00,bogus,1\n",
                       "row 2: unknown kind 'bogus'"),
            "ratings": ("set_id,user_id,rating,at\ns1,user00,9,2\n",
                        "row 2: rating 9 outside 1..5"),
            "sets": ('{"set_id": "s1"', "line 1: "),
        }
        paths = {}
        for name in bad:
            paths[name] = tmp_path / "bad" / name
            paths[name].parent.mkdir(exist_ok=True)
            paths[name].write_text(faults[name][0])
        monkeypatch.setattr(cli, "usable_cpus", lambda: workers)
        assert run(self._argv(tmp_path, command, **paths)) == 1
        assert_no_child_left()
        assert capsys.readouterr().err.startswith(f"error: {paths[first]}: {faults[first][1]}")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, workers, has_fork", [
        ("reiterate", 4, True), ("metrics_without_sets", 4, True),
        ("metrics", 1, True), ("export", 1, True),
        ("metrics", 4, False), ("export", 4, False),
    ], ids=["reiterate", "metrics_without_sets", "metrics_one_cpu", "export_one_cpu",
            "metrics_platform_without_fork", "export_platform_without_fork"])
    def test_runs_without_fork(self, tmp_path, monkeypatch, command, workers, has_fork):
        def no_fork():
            raise AssertionError("forked")

        if has_fork:
            monkeypatch.setattr(os, "fork", no_fork)
        else:
            monkeypatch.delattr(os, "fork")
        monkeypatch.setattr(cli, "usable_cpus", lambda: workers)
        assert run(self._argv(tmp_path, command)) == 0
        assert (tmp_path / "out").exists()


class TestMapLinksReadAtOnce:
    """`recommend` and `offline-eval` read every user's map links in a
    worker process while this one loads the corpus, and either stops as
    one process reading them in turn would."""

    @staticmethod
    def _argv(command, corpus_path, maps_dir, now, out, user="user00"):
        argv = [command, "--corpus", corpus_path, "--mindmaps", maps_dir, "--seed", 3,
                "--now", now, "--preset", "all_maps_all_terms", "--out", out]
        return argv + (["--user", user] if command == "recommend" else [])

    @pytest.mark.parametrize("death, how", [
        (lambda: os._exit(3), "exited with status 3"),
        (lambda: os.kill(os.getpid(), signal.SIGKILL), "was killed by signal 9"),
        (lambda: os._exit(0), "sent a short reply"),
        (lambda: [][0], "exited with status 1"),
    ], ids=["exit_status", "signal", "short_reply", "unexpected_exception"])
    @pytest.mark.parametrize("command", ["recommend", "offline-eval"])
    def test_dead_worker_names_the_maps(self, tmp_path, capsys, monkeypatch, command, death,
                                        how):
        test_pid = os.getpid()
        real = cli.load_user_links

        def dying(mindmaps_dir):
            if os.getpid() != test_pid:  # only in a forked worker
                death()
            return real(mindmaps_dir)

        monkeypatch.setattr(cli, "load_user_links", dying)
        monkeypatch.setattr(cli, "usable_cpus", lambda: 2)
        corpus_path, maps_dir, now = write_cli_fixture(tmp_path, n_users=3)
        out = tmp_path / "out.csv"
        assert run(self._argv(command, corpus_path, maps_dir, now, out)) == 1
        assert_no_child_left()
        assert capsys.readouterr().err == f"error: the worker reading {maps_dir} {how}\n"
        assert not out.exists()

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("command", ["recommend", "offline-eval"])
    def test_corpus_fault_named_before_a_map_fault(self, tmp_path, capsys, monkeypatch,
                                                   command, workers):
        corpus_path, maps_dir, now = write_cli_fixture(tmp_path, n_users=3)
        with open(corpus_path, "a", encoding="utf-8") as handle:
            handle.write('{"title": ""}\n')
        (maps_dir / "user01" / "bad.mm").write_bytes(b"<map>\n")
        monkeypatch.setattr(cli, "usable_cpus", lambda: workers)
        out = tmp_path / "out.csv"
        assert run(self._argv(command, corpus_path, maps_dir, now, out)) == 1
        assert_no_child_left()
        assert capsys.readouterr().err == f"error: {corpus_path}: line 31: record has no title\n"
        assert not out.exists()

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("user", ["ghost", "user01"], ids=["unknown_user", "that_user"])
    def test_map_fault_named_as_ingest_names_it(self, tmp_path, capsys, monkeypatch, user,
                                                workers):
        # a map fault comes before an unknown --user, and in the requested
        # user's own maps it is the line of ingest-mindmaps
        corpus_path, maps_dir, now = write_cli_fixture(tmp_path, n_users=3)
        (maps_dir / "user01" / "m.mm").write_bytes(b'<map><node ID="a"><node ID="a"/></node></map>')
        assert run(["ingest-mindmaps", "--mindmaps", maps_dir]) == 1
        err = capsys.readouterr().err
        monkeypatch.setattr(cli, "usable_cpus", lambda: workers)
        out = tmp_path / "out.csv"
        assert run(self._argv("recommend", corpus_path, maps_dir, now, out, user)) == 1
        assert_no_child_left()
        assert capsys.readouterr().err == err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["recommend", "offline-eval"])
    def test_links_read_in_another_process(self, tmp_path, monkeypatch, command):
        pids = tmp_path / "pids"

        def recorded(name, real):
            def read(*args):
                with open(pids, "a", encoding="utf-8") as handle:
                    handle.write(f"{name} {os.getpid()}\n")
                return real(*args)
            return read

        for name in ("load_corpus_jsonl", "load_user_links"):
            monkeypatch.setattr(cli, name, recorded(name, getattr(cli, name)))
        monkeypatch.setattr(cli, "usable_cpus", lambda: 2)
        corpus_path, maps_dir, now = write_cli_fixture(tmp_path, n_users=3)
        out = tmp_path / "out.csv"
        assert run(self._argv(command, corpus_path, maps_dir, now, out)) == 0
        assert_no_child_left()
        readers = dict(line.split() for line in pids.read_text().splitlines())
        assert readers["load_corpus_jsonl"] == str(os.getpid())
        assert readers["load_user_links"] != str(os.getpid())

    @pytest.mark.parametrize("workers, has_fork", [(1, True), (4, False)],
                             ids=["one_cpu", "platform_without_fork"])
    def test_recommend_runs_without_fork(self, tmp_path, monkeypatch, workers, has_fork):
        corpus_path, maps_dir, now = write_cli_fixture(tmp_path)
        monkeypatch.setattr(cli, "usable_cpus", lambda: 2)
        want = tmp_path / "want.csv"
        assert run(self._argv("recommend", corpus_path, maps_dir, now, want, "user01")) == 0
        assert_no_child_left()

        def no_fork():
            raise AssertionError("forked")

        if has_fork:
            monkeypatch.setattr(os, "fork", no_fork)
        else:
            monkeypatch.delattr(os, "fork")
        monkeypatch.setattr(cli, "usable_cpus", lambda: workers)
        out = tmp_path / "out.csv"
        assert run(self._argv("recommend", corpus_path, maps_dir, now, out, "user01")) == 0
        assert out.read_bytes() == want.read_bytes()


class TestMissingInput:
    @pytest.mark.parametrize("command, flag", [
        ("offline-eval", "--mindmaps"),
        ("offline-eval", "--corpus"),
        ("offline-eval", "--space"),
        ("recommend", "--stereotype"),
        ("ingest-corpus", "--corpus"),
        ("ingest-mindmaps", "--mindmaps"),
        ("metrics", "--events"),
        ("metrics", "--sets"),
        ("reiterate", "--events"),
        ("export", "--sets"),
        ("export", "--events"),
    ])
    def test_missing_path_named(self, tmp_path, capsys, command, flag):
        corpus_path, maps_dir, now = write_cli_fixture(tmp_path, n_users=2)
        events = tmp_path / "e.csv"
        events.write_text("set_id,doc_id,user_id,kind,at\ns1,d1,user00,shown,1\n")
        sets = tmp_path / "sets.jsonl"
        sets.write_text("")
        argv = {
            "offline-eval": ["--corpus", corpus_path, "--mindmaps", maps_dir,
                             "--seed", 3, "--now", now],
            "recommend": ["--corpus", corpus_path, "--mindmaps", maps_dir,
                          "--seed", 3, "--now", now, "--user", "user00"],
            "ingest-corpus": ["--corpus", corpus_path],
            "ingest-mindmaps": ["--mindmaps", maps_dir],
            "metrics": ["--events", events],
            "reiterate": ["--events", events],
            "export": ["--sets", sets, "--out", tmp_path / "export"],
        }[command]
        missing = tmp_path / "missing" / "input"
        if flag in argv:
            argv[argv.index(flag) + 1] = missing
        else:
            argv += [flag, missing]
        assert run([command, *argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(missing) in err


class TestMalformedInput:
    """A malformed row or a byte that is not UTF-8 is an `error:` line
    naming the file (and the row or line), never a traceback."""

    @pytest.mark.parametrize("command, flag, data, where", [
        ("metrics", "--sets", b'{"set_id": "s1"', "line 1"),
        ("export", "--sets", b'{"set_id": "s1"', "line 1"),
        ("metrics", "--sets", _set_without("set_id"), "line 2"),
        ("export", "--sets", _set_without("items"), "line 2"),
        ("metrics", "--sets", b"[1, 2]\n", "line 1"),
        ("export", "--sets", _set_item_with_unknown_key(), "line 2"),
        ("export", "--sets", f"{GOOD_SET}\n{_set_with(items={})}\n".encode(),
         "line 2: items is not a list"),
        ("metrics", "--sets", f"{GOOD_SET}\n{_set_with(items='')}\n".encode(),
         "line 2: items is not a list"),
        ("export", "--sets", b"\n[1, 2]\n", "line 2"),
        ("metrics", "--sets", b"[" * 100_000 + b"]" * 100_000 + b"\n", "line 1"),
        ("export", "--sets", b"[" * 100_000 + b"]" * 100_000 + b"\n", "line 1"),
        ("export", "--sets", b'{"set_id": "s\xff"}\n', "not UTF-8"),
        ("reiterate", "--events", b"set_id,doc_id,user_id,kind,at\ns1,d\xff,u,shown,1\n",
         "not UTF-8"),
        ("metrics", "--ratings", b"set_id,user_id,rating,at\ns\xff,u,4,2\n", "not UTF-8"),
        ("ingest-mindmaps", "events.csv", b"map_id,node_id,kind,at\nm,\xff,created,1\n",
         "not UTF-8"),
        ("ingest-corpus", "--corpus", b'{"title": "Caf\xe9"}\n', "not UTF-8"),
        ("ingest-corpus", "--corpus", b'{"title": "Alpha paper", "citations": [""]}\n',
         "line 1: a cited title is empty"),
        ("offline-eval", "--config", b"node_limit = 5\n# \xff\n", "not UTF-8"),
        ("offline-eval", "--space", b"node_limit = 5, \xff\n", "not UTF-8"),
        ("recommend", "--stereotype", b"Some title \xff\n", "not UTF-8"),
        ("ingest-mindmaps", "m.mm", b'<map><node ID="x" TEXT="caf\xe9"/></map>',
         "not well-formed (invalid token): line 1, column 27"),
        ("recommend", "m.mm", b'<map><node ID="x" TEXT="caf\xe9"/></map>',
         "not well-formed (invalid token): line 1, column 27"),

        ("ingest-mindmaps", "m.mm", _map_declaring(b"utf-9"), "unknown encoding: utf-9"),
        ("recommend", "m.mm", _map_declaring(b"utf-9"), "unknown encoding: utf-9"),
        ("ingest-mindmaps", "m.mm", _map_declaring(b"Shift_JIS"), "multi-byte encodings"),
        ("recommend", "m.mm", _map_declaring(b"Shift_JIS"), "multi-byte encodings"),
    ], ids=["metrics_sets_not_json", "export_sets_not_json", "sets_no_set_id",
            "sets_no_items", "metrics_sets_not_a_record", "set_item_unknown_key",
            "export_sets_items_an_object", "metrics_sets_items_a_string", "export_sets_not_a_record",
            "metrics_sets_nested_too_deep", "export_sets_nested_too_deep",
            "sets_not_utf8", "events_not_utf8", "ratings_not_utf8", "sidecar_not_utf8",
            "corpus_not_utf8", "corpus_cites_empty_title", "config_not_utf8", "space_not_utf8",
            "stereotype_not_utf8", "map_not_utf8", "map_of_another_user_not_utf8",
            "map_unknown_encoding", "map_of_another_user_unknown_encoding",
            "map_multibyte_encoding", "map_of_another_user_multibyte_encoding"])
    def test_bad_input_named(self, tmp_path, capsys, command, flag, data, where):
        corpus_path, maps_dir, now = write_cli_fixture(tmp_path, n_users=2)
        events = tmp_path / "e.csv"
        events.write_text("set_id,doc_id,user_id,kind,at\ns1,d1,user00,shown,1\n")
        sets = tmp_path / "sets.jsonl"
        sets.write_text(GOOD_SET + "\n")
        out = tmp_path / "out.csv"
        argv = {
            "offline-eval": ["--corpus", corpus_path, "--mindmaps", maps_dir,
                             "--seed", 3, "--now", now, "--out", out],
            "recommend": ["--corpus", corpus_path, "--mindmaps", maps_dir,
                          "--seed", 3, "--now", now, "--user", "user00", "--out", out],
            "ingest-corpus": ["--corpus", corpus_path, "--out", out],
            "ingest-mindmaps": ["--mindmaps", maps_dir],
            "metrics": ["--events", events, "--group-by", "algorithm", "--out", out],
            "reiterate": ["--events", events, "--out", out],
            "export": ["--sets", sets, "--events", events, "--out", tmp_path / "export"],
        }[command]
        if not flag.startswith("--"):  # a file of user01, whose maps recommend reads for links
            bad = maps_dir / "user01" / flag
        else:
            bad = tmp_path / "bad" / "input"
            bad.parent.mkdir()
            if flag in argv:
                argv[argv.index(flag) + 1] = bad
            else:
                argv += [flag, bad]
        bad.write_bytes(data)
        assert run([command, *argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ") and where in err
        assert not out.exists() and not (tmp_path / "export").exists()

    @pytest.mark.parametrize("command, flag, data, where", [
        ("export", "--sets", (_set_with(set_id="s\ud800") + "\n").encode(),
         "line 1: not UTF-8 (surrogates not allowed '\\ud800')"),
        ("metrics", "--sets", "\n".join([GOOD_SET, _set_with(label="\udfff"), ""]).encode(),
         "line 2: not UTF-8"),
        ("ingest-corpus", "--corpus", b'{"title": "\\ud800"}\n', "line 1: not UTF-8"),
    ], ids=["export_sets", "metrics_sets", "corpus"])
    def test_escaped_lone_surrogate_named(self, tmp_path, capsys, command, flag, data, where):
        # a \u escape of half a surrogate pair once reached an output file,
        # which cannot hold it, and ended in a traceback
        self.test_bad_input_named(tmp_path, capsys, command, flag, data, where)

    @pytest.mark.parametrize("flag, data", [
        ("--events", "set_id,doc_id,user_id,kind,at\ns1,d1,user00,shown,1,EXTRA\n"),
        ("--ratings", "set_id,user_id,rating,at\ns1,user00,4,2,EXTRA\n"),
        ("events.csv", "map_id,node_id,kind,at\nm,n,created,1,EXTRA\n"),
    ], ids=["events", "ratings", "sidecar"])
    def test_row_longer_than_header_named(self, tmp_path, capsys, flag, data):
        # Such a row's last fields were once dropped without a word.
        _, maps_dir, _ = write_cli_fixture(tmp_path, n_users=2)
        events = tmp_path / "e.csv"
        events.write_text("set_id,doc_id,user_id,kind,at\ns1,d1,user00,shown,1\n")
        if flag == "events.csv":
            bad = maps_dir / "user01" / flag
            argv = ["ingest-mindmaps", "--mindmaps", maps_dir]
        else:
            bad = tmp_path / "bad.csv"
            argv = ["metrics", "--events", bad if flag == "--events" else events]
            if flag == "--ratings":
                argv += ["--ratings", bad]
        bad.write_text(data)
        assert run(argv) == 1
        width = data.split("\n")[0].count(",") + 1
        assert capsys.readouterr().err == \
            f"error: {bad}: row 2: {width + 1} fields, but the header has {width}\n"

    @pytest.mark.parametrize("text", ["1_000", " +2", "\u0663"],
                             ids=["underscore", "blank_and_plus", "arabic_indic_digit"])
    @pytest.mark.parametrize("field", ["events_at", "ratings_rating", "ratings_at",
                                       "sidecar_at", "revision_suffix"])
    def test_integer_that_is_not_ascii_digits_named(self, tmp_path, capsys, field, text):
        # int() takes each of these texts, so such a file was once read in silence.
        _, maps_dir, _ = write_cli_fixture(tmp_path, n_users=2)
        events = tmp_path / "e.csv"
        events.write_text("set_id,doc_id,user_id,kind,at\ns1,d1,user00,shown,1\n")
        bad, where = tmp_path / "bad.csv", "row 2: "
        argv = ["metrics", "--events", events, "--ratings", bad]
        if field == "revision_suffix":
            bad, where = maps_dir / "user01" / f"m__rev{text}.mm", ""
            bad.write_text("<map><node/></map>")
        elif field == "sidecar_at":
            bad = maps_dir / "user01" / "events.csv"
            bad.write_text(f"map_id,node_id,kind,at\nm,n,created,{text}\n")
        elif field == "events_at":
            bad.write_text(f"set_id,doc_id,user_id,kind,at\ns1,d1,user00,shown,{text}\n")
            argv = ["reiterate", "--events", bad]
        else:
            rating, at = (text, "2") if field == "ratings_rating" else ("4", text)
            bad.write_text(f"set_id,user_id,rating,at\ns1,user00,{rating},{at}\n")
        if bad.parent == maps_dir / "user01":
            argv = ["ingest-mindmaps", "--mindmaps", maps_dir]
        assert run(argv) == 1
        assert capsys.readouterr().err == f"error: {bad}: {where}{text!r} is not an integer\n"

    @pytest.mark.parametrize("text", ["1_000", " 5", "5 ", "+5", "\u0665", "\uff15",
                                      "inf", "nan", "1e999", ""],
                             ids=["underscore", "leading_blank", "trailing_blank", "plus",
                                  "arabic_indic_digit", "fullwidth_digit", "inf", "nan",
                                  "overflowing", "empty"])
    @pytest.mark.parametrize("read", [parse_mindmap, read_map_links],
                             ids=["parse_mindmap", "read_map_links"])
    def test_time_that_is_not_an_ascii_number_named(self, tmp_path, capsys, read, text):
        # float() takes the first six, so such a map was once read in silence,
        # though the same text is malformed as a sidecar `at`.
        data = f'<map><node ID="a"><node ID="b" CREATED="{text}"/></node></map>'.encode()
        with pytest.raises(MalformedInput) as info:
            read(data)
        assert str(info.value) == f"CREATED={text!r} is not a finite number"
        corpus_path, maps_dir, now = write_cli_fixture(tmp_path, n_users=2)
        bad = maps_dir / "user01" / "m.mm"
        bad.write_bytes(data)
        # ingest-mindmaps parses user01's maps; recommend for user00 reads only their links
        command = (["ingest-mindmaps", "--mindmaps", maps_dir] if read is parse_mindmap else
                   ["recommend", "--corpus", corpus_path, "--mindmaps", maps_dir,
                    "--user", "user00", "--seed", 1, "--now", now])
        assert run(command) == 1
        assert capsys.readouterr().err == f"error: {bad}: {info.value}\n"

    @pytest.mark.parametrize("text, ms", [("17", 17), ("-5", -5), ("1.9", 1), ("2e3", 2000),
                                          ("1E+2", 100), (".5e1", 5)])
    def test_time_as_an_ascii_number_read(self, text, ms):
        data = f'<map><node ID="a" CREATED="{text}" MODIFIED="{text}"/></map>'.encode()
        mindmap = parse_mindmap(data)
        assert (mindmap.root.created_at, mindmap.saved_at) == (ms, ms)
        assert read_map_links(data).map_id == "map"

    @pytest.mark.parametrize("command", ["metrics", "export"])
    @pytest.mark.parametrize("field", ["set_id", "user_id", "doc_id"])
    @pytest.mark.parametrize("value", [["s1"], {"id": "s1"}], ids=["list", "dict"])
    def test_id_that_is_not_hashable_named(self, tmp_path, capsys, command, field, value):
        events = tmp_path / "e.csv"
        events.write_text("set_id,doc_id,user_id,kind,at\ns1,d1,user00,shown,1\n")
        bad = dict(items=[{"doc_id": value, "original_rank": 1, "display_rank": 1}]) \
            if field == "doc_id" else {field: value}
        sets = tmp_path / "sets.jsonl"
        sets.write_text(f"{GOOD_SET}\n{_set_with(**bad)}\n")
        out = tmp_path / "out"
        argv = {"metrics": ["--events", events, "--sets", sets, "--group-by", "algorithm"],
                "export": ["--sets", sets, "--events", events]}[command]
        assert run([command, *argv, "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {sets}: line 2: {field}: ") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["metrics", "export"])
    def test_set_with_unknown_key_named(self, tmp_path, capsys, command):
        # Such a record was once read in silence, though an item's unknown key was not.
        events = tmp_path / "e.csv"
        events.write_text("set_id,doc_id,user_id,kind,at\ns1,d1,user00,shown,1\n")
        sets = tmp_path / "sets.jsonl"
        sets.write_text(f"{GOOD_SET}\n{_set_with(colour='red', shade='dark')}\n")
        out = tmp_path / "out"
        argv = {"metrics": ["--events", events, "--sets", sets, "--group-by", "algorithm"],
                "export": ["--sets", sets, "--events", events]}[command]
        assert run([command, *argv, "--out", out]) == 1
        assert capsys.readouterr().err == f"error: {sets}: line 2: unknown key 'colour'\n"
        assert not out.exists()


    @pytest.mark.parametrize("command", ["metrics", "export"])
    def test_set_item_with_unknown_key_named(self, tmp_path, capsys, command):
        # Such an item once stopped both with a TypeError of RecommendationItem.
        events = tmp_path / "e.csv"
        events.write_text("set_id,doc_id,user_id,kind,at\ns1,d1,user00,shown,1\n")
        item = {"doc_id": "d1", "original_rank": 1, "colour": "red", "display_rank": 1}
        sets = tmp_path / "sets.jsonl"
        sets.write_text(f"{GOOD_SET}\n{_set_with(items=[item])}\n")
        out = tmp_path / "out"
        argv = {"metrics": ["--events", events, "--sets", sets, "--group-by", "algorithm"],
                "export": ["--sets", sets, "--events", events]}[command]
        assert run([command, *argv, "--out", out]) == 1
        assert capsys.readouterr().err == f"error: {sets}: line 2: unknown key 'colour'\n"
        assert not out.exists()


class TestInputEncodings:
    """A UTF-8 byte-order mark, as spreadsheet programs write one, is
    skipped in every CSV, JSON-lines and text input; a map is decoded as
    its XML declaration or its byte-order mark says."""

    @pytest.mark.parametrize("command, flag", [
        ("reiterate", "--events"), ("metrics", "--ratings"), ("ingest-mindmaps", "events.csv"),
        ("ingest-corpus", "--corpus"), ("export", "--sets"),
        ("offline-eval", "--config"), ("offline-eval", "--space"), ("recommend", "--stereotype"),
    ], ids=["events", "ratings", "sidecar", "corpus", "sets", "config", "space", "stereotype"])
    def test_byte_order_mark_skipped(self, tmp_path, capsys, command, flag):
        corpus_path, maps_dir, now = write_cli_fixture(tmp_path, n_users=2)
        title = json.loads(corpus_path.read_text().splitlines()[0])["title"]
        events = tmp_path / "e.csv"
        events.write_text("set_id,doc_id,user_id,kind,at\n"
                          "s1,d1,user00,shown,1\ns1,d1,user00,clicked,2\n")
        sets = tmp_path / "sets.jsonl"
        sets.write_text(GOOD_SET + "\n")
        out = tmp_path / "out"
        argv = {
            "reiterate": ["--events", events, "--out", out],
            "metrics": ["--events", events, "--ratings", tmp_path / "r.csv", "--out", out],
            "ingest-mindmaps": ["--mindmaps", maps_dir],
            "ingest-corpus": ["--corpus", corpus_path, "--out", out],
            "export": ["--sets", sets, "--events", events, "--out", out],
            "offline-eval": ["--corpus", corpus_path, "--mindmaps", maps_dir, "--seed", 3,
                             flag, tmp_path / "input", "--out", out],
            "recommend": ["--corpus", corpus_path, "--mindmaps", maps_dir, "--seed", 3,
                          "--now", now, "--user", "user00", "--stereotype", tmp_path / "input",
                          "--p-stereotype", 1, "--out", out],
        }[command]
        path, text = {
            "--events": (events, events.read_text()),
            "--ratings": (tmp_path / "r.csv", "set_id,user_id,rating,at\ns1,user00,4,2\n"),
            "events.csv": (maps_dir / "user01" / "events.csv",
                           "map_id,node_id,kind,at\nmap_u1,u1n0,created,1\n"),
            "--corpus": (corpus_path, corpus_path.read_text()),
            "--sets": (sets, sets.read_text()),
            "--config": (tmp_path / "input", "node_limit = 5\n"),
            "--space": (tmp_path / "input", "node_limit = 5, 10\n"),
            "--stereotype": (tmp_path / "input", title + "\n"),
        }[flag]
        outputs = []
        for data in (text.encode(), b"\xef\xbb\xbf" + text.encode()):
            path.write_bytes(data)
            assert run([command, *argv]) == 0, capsys.readouterr().err
            files = sorted(out.rglob("*")) if out.is_dir() else [out] * out.exists()
            outputs.append((capsys.readouterr(), [f.read_bytes() for f in files]))
            for f in files:
                f.unlink()
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("data", [
        b'<?xml version="1.0" encoding="ISO-8859-1"?>\n'
        b'<map><node ID="x" TEXT="caf\xe9"><node ID="y" LINK="Caf\xe9 study"/></node></map>',
        '<map><node ID="x" TEXT="café"><node ID="y" LINK="Café study"/></node></map>'
        .encode("utf-16"),
    ], ids=["declared_latin1", "utf16_with_bom"])
    def test_map_that_declares_its_encoding(self, tmp_path, capsys, data):
        corpus_path, maps_dir, now = write_cli_fixture(tmp_path, n_users=2)
        (maps_dir / "user00" / "declared.mm").write_bytes(data)
        assert run(["ingest-mindmaps", "--mindmaps", maps_dir]) == 0
        assert "user00: 2 maps, 12 nodes" in capsys.readouterr().out
        links = cli.load_user_links(maps_dir)["user00"]
        assert "Café study" in links
        # user00 is built in full; as user01 asks, user00 is read for its links
        for user in ("user00", "user01"):
            assert TestIngestCommands._recommend(corpus_path, maps_dir, now, user) == 0
        out = tmp_path / "offline.csv"
        assert run(["offline-eval", "--corpus", corpus_path, "--mindmaps", maps_dir,
                    "--seed", 3, "--preset", "all_maps_all_terms", "--out", out]) == 0
        users = [row["user_id"] for row in csv.DictReader(out.read_text().splitlines())]
        assert users == ["user00", "user01"]
        assert capsys.readouterr().err == ""


class TestExportCommand:
    def test_typed_ids_kept(self, tmp_path):
        # JSON 1, 1.0 and true are equal dict keys, yet each id and label
        # comes out as the sets file wrote it.
        events = tmp_path / "e.csv"
        events.write_text("set_id,doc_id,user_id,kind,at\n"
                          "s1,d1,user00,shown,1\ns1,d1,user00,clicked,2\n"
                          "s2,d1,user00,shown,3\ns3,d1,user00,shown,4\ns4,d1,user00,shown,5\n")

        def item(doc_id):
            return {"doc_id": doc_id, "original_rank": 1, "display_rank": 1}
        sets = tmp_path / "sets.jsonl"
        sets.write_text("\n".join([
            _set_with(set_id="s1", label=["x", 1], items=[item(1)]),
            _set_with(set_id="s2", label=1.0, items=[item(1.0)]),
            _set_with(set_id="s3", label=True, items=[item(True)]),
            _set_with(set_id="s4", label=1, items=[item(1), item(1.0), item(True)]),
        ]) + "\n")
        out = tmp_path / "export"
        assert run(["export", "--sets", sets, "--events", events, "--out", out]) == 0
        assert (out / "recommendation_sets.csv").read_text() == (
            "set_id,user_id,created_at,trigger,label,algorithm,items,clicks\n"
            "s1,user00,1,requested,\"['x', 1]\",all_maps_all_terms,1,0\n"
            "s2,user00,1,requested,1.0,all_maps_all_terms,1,0\n"
            "s3,user00,1,requested,True,all_maps_all_terms,1,0\n"
            "s4,user00,1,requested,1,all_maps_all_terms,3,0\n")
        assert (out / "recommendations.csv").read_text() == (
            "set_id,doc_id,original_rank,display_rank,clicked\n"
            "s1,1,1,1,0\ns2,1.0,1,1,0\ns3,True,1,1,0\ns4,1,1,1,0\ns4,1.0,1,1,0\ns4,True,1,1,0\n")
        report = tmp_path / "report.csv"
        assert run(["metrics", "--events", events, "--sets", sets,
                    "--group-by", "label", "--out", report]) == 0

        def group(name, ctr):  # one shown row, clicked or not, nothing else
            return "".join(f"{name},{metric},{ctr if metric.startswith('ctr') else 0:.6f},1\n"
                           for metric in ("ctr", "ctr_set", "ctr_user", "ltr", "atr", "citr"))
        assert report.read_text() == ("group,metric,value,n\n" + group("1", 0) + group("1.0", 0)
                                      + group("True", 0) + group("\"['x', 1]\"", 1))

    def test_export_counts(self, tmp_path):
        corpus_path, maps_dir, now = write_cli_fixture(tmp_path)
        sets_path = tmp_path / "sets.jsonl"
        for user in ("user00", "user01"):
            assert run(["recommend", "--corpus", corpus_path,
                        "--mindmaps", maps_dir, "--user", user,
                        "--seed", 5, "--now", now,
                        "--preset", "all_maps_all_terms",
                        "--out", tmp_path / "ignore.csv",
                        "--sets-out", sets_path]) == 0
        out_dir = tmp_path / "export"
        assert run(["export", "--sets", sets_path, "--out", out_dir]) == 0
        sets_rows = list(csv.DictReader(open(out_dir / "recommendation_sets.csv")))
        item_rows = list(csv.DictReader(open(out_dir / "recommendations.csv")))
        assert len(sets_rows) == 2
        assert len(item_rows) == sum(int(r["items"]) for r in sets_rows)
        set_ids = {r["set_id"] for r in sets_rows}
        assert all(r["set_id"] in set_ids for r in item_rows)


class TestIngestCommands:
    def test_ingest_corpus(self, tmp_path, capsys):
        corpus_path, _, _ = write_cli_fixture(tmp_path)
        idmap = tmp_path / "idmap.csv"
        assert run(["ingest-corpus", "--corpus", corpus_path,
                    "--out", idmap]) == 0
        rows = list(csv.DictReader(open(idmap)))
        assert rows and set(rows[0]) == {"doc_id", "cleantitle"}

    def test_ingest_mindmaps(self, tmp_path, capsys):
        _, maps_dir, _ = write_cli_fixture(tmp_path, n_users=2)
        assert run(["ingest-mindmaps", "--mindmaps", maps_dir]) == 0
        out = capsys.readouterr().out
        assert "user00" in out and "user01" in out

    def test_ingest_mindmaps_takes_no_out(self, tmp_path, capsys):
        # --out was once accepted, and no file was written
        _, maps_dir, _ = write_cli_fixture(tmp_path, n_users=1)
        with pytest.raises(SystemExit) as exit_:
            run(["ingest-mindmaps", "--mindmaps", maps_dir, "--out", tmp_path / "s.txt"])
        assert exit_.value.code == 2 and "--out" in capsys.readouterr().err

    @pytest.mark.parametrize("command, user", [
        ("offline-eval", None), ("recommend", "user00"), ("recommend", os.fsdecode(b"user\xff")),
    ], ids=["offline_eval", "recommend_another_user", "recommend_that_user"])
    def test_user_directory_not_utf8_named(self, tmp_path, capsys, command, user):
        # its name, the user id, once reached the output file and ended in a traceback
        corpus_path, maps_dir, now = write_cli_fixture(tmp_path, n_users=2)
        bad = maps_dir / os.fsdecode(b"user\xff")
        os.rename(maps_dir / "user01", bad)
        out = tmp_path / "out.csv"
        argv = [command, "--corpus", corpus_path, "--mindmaps", maps_dir,
                "--seed", 3, "--now", now, "--out", out]
        assert run(argv + (["--user", user] if user else [])) == 1
        assert capsys.readouterr().err == \
            f"error: {os.fsencode(bad)!r}: user directory is not UTF-8\n"
        assert not out.exists()

    @staticmethod
    def _recommend(corpus_path, maps_dir, now, user="user00", *extra):
        return run(["recommend", "--corpus", corpus_path, "--mindmaps", maps_dir,
                    "--user", user, "--seed", 1, "--now", now, *extra])

    @staticmethod
    def _offline_eval_errors(monkeypatch, capsys, corpus_path, maps_dir, now, *extra):
        """The set of stderr texts of `offline-eval` with 1 and 2 CPUs
        probed; each call must exit 1 and write no output."""
        errors, out = set(), maps_dir.parent / "offline.csv"
        for workers in (1, 2):
            monkeypatch.setattr(cli, "usable_cpus", lambda: workers)
            assert run(["offline-eval", "--corpus", corpus_path, "--mindmaps", maps_dir,
                        "--seed", 1, "--now", now, *extra, "--out", out]) == 1
            assert not out.exists()
            errors.add(capsys.readouterr().err)
        return errors

    @pytest.mark.parametrize("name, data", [
        ("m__revx.mm", b'<map><node ID="a"/></map>'),
        ("broken.mm", b"<map>\n"),
        ("events.csv", b"map_id,node_id,kind,at\nm,n,created,x\n"),
        ("m.mm", b'<map><node ID="a" CREATED="inf"/></map>'),
        ("m.mm", b'<map><node ID="a"><node ID="b" MODIFIED="1e999"/></node></map>'),
        ("m.mm", b'<map><node ID="a"><node ID="b"/><node ID="a"/></node></map>'),
        ("m.mm", f'<map><node ID="{synthetic_id((0, 0))}"><node/></node></map>'.encode()),
        ("m.mm", b'<mindmap><node ID="a"/></mindmap>'),
        ("m.mm", b'<map><node ID="a"/><node ID="b"/></map>'),
        ("m.mm", b"<map><richcontent/></map>"),
    ], ids=["non_numeric_revision", "unclosed_map", "bad_sidecar_row",
            "infinite_created", "overflowing_modified", "duplicate_node_id",
            "duplicate_synthetic_id", "root_not_map", "two_top_level_nodes",
            "no_top_level_node"])
    def test_bad_map_file_named(self, tmp_path, capsys, monkeypatch, name, data):
        corpus_path, maps_dir, now = write_cli_fixture(tmp_path, n_users=2)
        bad = maps_dir / "user01" / name
        bad.write_bytes(data)
        with pytest.raises(MindrecError, match=re.escape(str(bad))):
            cli.load_user_collections(maps_dir)
        assert run(["ingest-mindmaps", "--mindmaps", maps_dir]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ")
        # recommend reads user01 for its links only, and stops the same way
        assert self._recommend(corpus_path, maps_dir, now) == 1
        assert capsys.readouterr().err == err
        # so does offline-eval, whatever number of workers it would fork
        assert self._offline_eval_errors(monkeypatch, capsys, corpus_path, maps_dir, now) \
            == {err}

    def test_clashing_revision_numbers_named(self, tmp_path, capsys, monkeypatch):
        corpus_path, maps_dir, now = write_cli_fixture(tmp_path, n_users=2)
        user_dir = maps_dir / "user01"
        for name in ("clash.mm", "clash__rev1.mm"):
            (user_dir / name).write_bytes(b'<map><node ID="a"/></map>')
        assert run(["ingest-mindmaps", "--mindmaps", maps_dir]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {user_dir}: map 'clash': revision 1 after 1")
        assert self._recommend(corpus_path, maps_dir, now) == 1
        assert capsys.readouterr().err == err
        assert self._offline_eval_errors(monkeypatch, capsys, corpus_path, maps_dir, now) \
            == {err}
        # a sidecar event log does not lift the rule
        sidecar = user_dir / "events.csv"
        sidecar.write_text("map_id,node_id,kind,at\nclash,a,created,1\n")
        assert run(["ingest-mindmaps", "--mindmaps", maps_dir]) == 1
        assert capsys.readouterr().err == err
        assert self._recommend(corpus_path, maps_dir, now) == 1
        assert capsys.readouterr().err == err
        assert self._offline_eval_errors(monkeypatch, capsys, corpus_path, maps_dir, now) \
            == {err}
        # and a sidecar that cannot be read is reported first
        sidecar.write_text("map_id,node_id,kind,at\nclash,a,created,x\n")
        assert run(["ingest-mindmaps", "--mindmaps", maps_dir]) == 1
        assert capsys.readouterr().err.startswith(f"error: {sidecar}: ")

    @pytest.mark.parametrize("beside", [False, True], ids=["alone", "beside_first_revision"])
    def test_empty_revision_suffix_named(self, tmp_path, capsys, beside):
        # `m__rev.mm` was once read as revision 1: alone without an error,
        # and next to `m.mm` as a clash of two first revisions
        corpus_path, maps_dir, now = write_cli_fixture(tmp_path, n_users=2)
        bad = maps_dir / "user01" / "m__rev.mm"
        bad.write_bytes(b'<map><node ID="a"/></map>')
        if beside:
            (maps_dir / "user01" / "m.mm").write_bytes(b'<map><node ID="a"/></map>')
        err = f"error: {bad}: '' is not an integer\n"
        assert run(["ingest-mindmaps", "--mindmaps", maps_dir]) == 1
        assert capsys.readouterr().err == err
        # recommend reads user01 for its links only, and stops the same way
        assert self._recommend(corpus_path, maps_dir, now) == 1
        assert capsys.readouterr().err == err
        out = tmp_path / "offline.csv"
        assert run(["offline-eval", "--corpus", corpus_path, "--mindmaps", maps_dir,
                    "--seed", 1, "--now", now, "--out", out]) == 1
        assert capsys.readouterr().err == err
        assert not out.exists()

    def test_deep_map_read(self, tmp_path, capsys):
        corpus_path, maps_dir, now = write_cli_fixture(tmp_path, n_users=2)
        titles = [json.loads(line)["title"] for line in corpus_path.read_text().splitlines()]
        depth, start = 1_500, now - 20 * DAY_MS
        opens = "".join(
            f'<node ID="deep{i}" TEXT="{WORDS[i % len(WORDS)]}" CREATED="{start + i}"'
            + (f' LINK="{titles[i % len(titles)]}">' if i in (700, 1_400) else ">")
            for i in range(depth))
        (maps_dir / "user00" / "deep.mm").write_text(f"<map>{opens}{'</node>' * depth}</map>")
        assert run(["ingest-mindmaps", "--mindmaps", maps_dir]) == 0
        assert "user00: 2 maps, 1510 nodes" in capsys.readouterr().out
        # user00 is built in full; as user01 asks, user00 is read for its links
        for user in ("user00", "user01"):
            assert self._recommend(corpus_path, maps_dir, now, user) == 0
        out = tmp_path / "offline.csv"
        assert run(["offline-eval", "--corpus", corpus_path, "--mindmaps", maps_dir,
                    "--seed", 3, "--now", now, "--preset", "all_maps_all_terms",
                    "--out", out]) == 0
        users = [row["user_id"] for row in csv.DictReader(out.read_text().splitlines())]
        assert users == ["user00", "user01"]
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("user", ["user00", "user01", "user02"])
    def test_first_bad_user_in_sorted_order_wins(self, tmp_path, capsys, user):
        corpus_path, maps_dir, now = write_cli_fixture(tmp_path, n_users=3)
        (maps_dir / "user02" / "m.mm").write_bytes(b"<map>\n")
        bad = maps_dir / "user01" / "m.mm"
        bad.write_bytes(b'<map><node ID="a" CREATED="nan"/></map>')
        assert self._recommend(corpus_path, maps_dir, now, user) == 1
        assert capsys.readouterr().err.startswith(f"error: {bad}: ")

    @pytest.mark.parametrize("user, config_text", [("ghost", None), ("user00", "node_limt = 5\n")],
                             ids=["unknown_user", "bad_config"])
    def test_map_error_wins(self, tmp_path, capsys, user, config_text):
        corpus_path, maps_dir, now = write_cli_fixture(tmp_path, n_users=2)
        extra = []
        if config_text:
            extra = ["--config", tmp_path / "bad.cfg"]
            extra[1].write_text(config_text)
        bad = maps_dir / "user01" / "m.mm"
        bad.write_bytes(b'<map><node ID="a"><node ID="a"/></node></map>')
        assert self._recommend(corpus_path, maps_dir, now, user, *extra) == 1
        assert capsys.readouterr().err.startswith(f"error: {bad}: duplicate node id 'a'")

    @pytest.mark.parametrize("option", [["--preset", "stereotype"], ["--space", "missing.txt"]],
                             ids=["stereotype_preset", "unreadable_space"])
    def test_map_error_wins_in_offline_eval(self, tmp_path, capsys, monkeypatch, option):
        corpus_path, maps_dir, now = write_cli_fixture(tmp_path, n_users=3)
        bad = maps_dir / "user02" / "m.mm"
        bad.write_bytes(b'<map><node ID="a"><node ID="a"/></node></map>')
        if option[0] == "--space":
            option = ["--space", tmp_path / option[1]]
        errors = self._offline_eval_errors(monkeypatch, capsys, corpus_path, maps_dir, now,
                                           *option)
        assert errors == {f"error: {bad}: duplicate node id 'a' in map 'm'\n"}

    def test_within_a_user_the_first_fault_wins(self, tmp_path, capsys):
        # a bad timestamp anywhere in a file wins over a duplicate id that
        # comes before it, and a map file wins over the sidecar
        corpus_path, maps_dir, now = write_cli_fixture(tmp_path, n_users=2)
        user_dir = maps_dir / "user01"
        (user_dir / "events.csv").write_bytes(b"map_id,node_id,kind,at\nm,n,created,x\n")
        bad = user_dir / "m.mm"
        bad.write_bytes(b'<map><node ID="a"><node ID="a"/><node ID="b" CREATED="inf"/></node></map>')
        assert run(["ingest-mindmaps", "--mindmaps", maps_dir]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {bad}: CREATED='inf' is not a finite number\n"
        assert self._recommend(corpus_path, maps_dir, now) == 1
        assert capsys.readouterr().err == err
