import csv
import json
import random
import re

import pytest

from mindrec import cli, evaluation, experiment
from mindrec.corpus import load_corpus_jsonl
from mindrec.errors import InvariantViolation, MalformedRow, MindrecError
from mindrec.mindmap import MindMap, serialize_mindmap

from conftest import DAY_MS, node, write_cli_fixture


def run(argv):
    return cli.main([str(a) for a in argv])


GOOD_SET = json.dumps({
    "set_id": "s1", "user_id": "user00", "created_at": 1, "trigger": "requested",
    "label": "", "algorithm": "all_maps_all_terms",
    "items": [{"doc_id": "d1", "original_rank": 1, "display_rank": 1}],
})


def _set_without(field):
    record = json.loads(GOOD_SET)
    del record[field]
    return f"{GOOD_SET}\n{json.dumps(record)}\n".encode()


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
        cli._preresolve_citations(corpus, collections)
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

    @pytest.mark.parametrize("text", [
        "node_limt = 5\n",
        "node_limit = 5\nnode_weighting = true\ntransform = bogus\n",
        "event_kind = moved\n",
    ], ids=["unknown_key", "bad_choice", "no_selection_bound"])
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
        assert run(["offline-eval", "--corpus", corpus_path, "--mindmaps", maps_dir,
                    "--seed", 3, "--now", now, *config,
                    "--out", tmp_path / "o.csv"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "stereotype" in err


class TestMissingInput:
    @pytest.mark.parametrize("command, flag", [
        ("offline-eval", "--mindmaps"),
        ("offline-eval", "--corpus"),
        ("offline-eval", "--space"),
        ("recommend", "--stereotype"),
        ("ingest-corpus", "--corpus"),
        ("ingest-mindmaps", "--mindmaps"),
        ("metrics", "--events"),
        ("reiterate", "--events"),
        ("export", "--sets"),
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
        ("export", "--sets", b"\n[1, 2]\n", "line 2"),
        ("export", "--sets", b'{"set_id": "s\xff"}\n', "not UTF-8"),
        ("reiterate", "--events", b"set_id,doc_id,user_id,kind,at\ns1,d\xff,u,shown,1\n",
         "not UTF-8"),
        ("metrics", "--ratings", b"set_id,user_id,rating,at\ns\xff,u,4,2\n", "not UTF-8"),
        ("ingest-mindmaps", "events.csv", b"map_id,node_id,kind,at\nm,\xff,created,1\n",
         "not UTF-8"),
        ("ingest-corpus", "--corpus", b'{"title": "Caf\xe9"}\n', "not UTF-8"),
        ("offline-eval", "--config", b"node_limit = 5\n# \xff\n", "not UTF-8"),
        ("offline-eval", "--space", b"node_limit = 5, \xff\n", "not UTF-8"),
        ("recommend", "--stereotype", b"Some title \xff\n", "not UTF-8"),
    ], ids=["metrics_sets_not_json", "export_sets_not_json", "sets_no_set_id",
            "sets_no_items", "metrics_sets_not_a_record", "export_sets_not_a_record",
            "sets_not_utf8", "events_not_utf8", "ratings_not_utf8", "sidecar_not_utf8",
            "corpus_not_utf8", "config_not_utf8", "space_not_utf8",
            "stereotype_not_utf8"])
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
        if flag == "events.csv":
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


class TestExportCommand:
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

    @pytest.mark.parametrize("name, data", [
        ("m__revx.mm", b'<map><node ID="a"/></map>'),
        ("broken.mm", b"<map>\n"),
        ("events.csv", b"map_id,node_id,kind,at\nm,n,created,x\n"),
    ], ids=["non_numeric_revision", "unclosed_map", "bad_sidecar_row"])
    def test_bad_map_file_named(self, tmp_path, capsys, name, data):
        _, maps_dir, _ = write_cli_fixture(tmp_path, n_users=2)
        bad = maps_dir / "user01" / name
        bad.write_bytes(data)
        with pytest.raises(MindrecError, match=re.escape(str(bad))):
            cli.load_user_collections(maps_dir)
        assert run(["ingest-mindmaps", "--mindmaps", maps_dir]) == 1
        assert capsys.readouterr().err.startswith(f"error: {bad}: ")
