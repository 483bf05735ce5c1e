"""Seeded mutation test: a damaged input is an `error:` line, never a traceback.

Each trial flips, cuts or inserts bytes in one input of a 3-user slice,
runs in-process through `cli.main` every command that reads that input,
`offline-eval` with its workers forked, and restores the file.  Every
command must exit 0, or exit 1 with exactly one `error:` line that names
one of its input paths or a path under one, and leave no child process.
"""

import json
import random

import pytest

from mindrec import cli
from mindrec.mindmap import MindMap

from conftest import assert_no_child_left, node, serialize_mindmap, write_cli_fixture

SEED = 19
TRIALS = 400


def write_slice(tmp_path):
    """{name: path} of every input of a 3-user slice: corpus, maps,
    a sidecar, a revised map, an event log, sets, ratings, a config, a
    space and a stereotype catalog."""
    corpus, maps, now = write_cli_fixture(tmp_path, n_users=3, n_docs=20, seed=5)
    titles = [json.loads(line)["title"] for line in corpus.read_text().splitlines()]
    sidecar = maps / "user01" / "events.csv"
    sidecar.write_text("map_id,node_id,kind,at\n"
                       f"map_u1,u1root,created,{now - 9_000}\n"
                       f"map_u1,u1n0,created,{now - 8_000}\nmap_u1,u1n0,edited,{now - 7_000}\n"
                       f"map_u1,u1cite,moved,{now - 6_000}\n")
    revised = maps / "user02" / "map_u2__rev2.mm"
    revised.write_bytes(serialize_mindmap(MindMap("map_u2", node(
        "u2root", "quantum flux", created_at=now - 5_000,
        children=[node("u2n0", "neural ranking", created_at=now - 4_000),
                  node("u2new", "cited here", link=titles[3], created_at=now - 3_000)]))))
    events = tmp_path / "events.csv"
    events.write_text("set_id,doc_id,user_id,kind,at\n"
                      "s1,d1,user00,shown,1\ns1,d2,user00,shown,1\ns1,d1,user00,clicked,2\n"
                      "s2,d1,user01,shown,3\ns2,d1,user01,cited,4\n")
    item = {"doc_id": "d1", "original_rank": 1, "display_rank": 1}
    sets = tmp_path / "sets.jsonl"
    sets.write_text("".join(json.dumps({
        "set_id": set_id, "user_id": user_id, "created_at": at, "trigger": "requested",
        "label": "", "algorithm": "all_maps_all_terms", "items": [item]}) + "\n"
        for set_id, user_id, at in (("s1", "user00", 1), ("s2", "user01", 3))))
    ratings = tmp_path / "ratings.csv"
    ratings.write_text("set_id,user_id,rating,at\ns1,user00,4,2\ns2,user01,2,5\n")
    config = tmp_path / "config.cfg"
    config.write_text("node_limit = 5\nevent_kind = any\nscheme = tf_idf\nmodel_size = 10\n")
    space = tmp_path / "space.txt"
    space.write_text("node_limit = 5, 10\nday_window = none, 30\nscheme = tf_only, tf_idf\n")
    stereotype = tmp_path / "stereotype.txt"
    stereotype.write_text(f"{titles[0]}\n\n{titles[1]}\n")
    return dict(corpus=corpus, maps=maps, now=now, map=maps / "user00" / "map_u0.mm",
                revised=revised, sidecar=sidecar, events=events, sets=sets, ratings=ratings,
                config=config, space=space, stereotype=stereotype)


def commands(inputs, out):
    """{target: [(argv, input paths it reads)] of every command that reads the target}."""
    corpus, maps, events, sets = inputs["corpus"], inputs["maps"], inputs["events"], inputs["sets"]
    seeded = ["--seed", 3, "--now", inputs["now"], "--out", out]

    def offline_eval(*config):
        return (["offline-eval", "--corpus", corpus, "--mindmaps", maps, *config, *seeded],
                [corpus, maps, *config[1:]])

    def recommend(*extra):
        return (["recommend", "--corpus", corpus, "--mindmaps", maps, "--user", "user01",
                 *extra, *seeded], [corpus, maps, *extra[1:]])

    by_maps = [(["ingest-mindmaps", "--mindmaps", maps], [maps]), recommend(),
               offline_eval("--preset", "all_maps_all_terms")]
    by_events = [(["metrics", "--events", events, "--out", out], [events]),
                 (["reiterate", "--events", events, "--out", out], [events]),
                 (["export", "--sets", sets, "--events", events, "--out", out.with_suffix(".d")],
                  [sets, events])]
    return {
        "corpus": [(["ingest-corpus", "--corpus", corpus, "--out", out], [corpus]),
                   *by_maps[1:]],
        "map": by_maps, "revised": by_maps, "sidecar": by_maps,
        "events": by_events,
        "sets": [(["metrics", "--events", events, "--sets", sets, "--group-by", "algorithm",
                   "--out", out], [events, sets]), by_events[2]],
        "ratings": [(["metrics", "--events", events, "--ratings", inputs["ratings"],
                      "--out", out], [events, inputs["ratings"]])],
        "config": [offline_eval("--config", inputs["config"]),
                   recommend("--config", inputs["config"])],
        "space": [offline_eval("--space", inputs["space"])],
        "stereotype": [recommend("--stereotype", inputs["stereotype"])],
    }


def mutate(rng, data):
    """`data` with bytes flipped, cut or inserted at a random place."""
    at = rng.randrange(len(data) + 1)
    span = rng.randint(1, 8)
    how = rng.choice(("flip", "cut", "insert"))
    if how == "flip":
        at = min(at, len(data) - 1)
        flipped = bytes(b ^ rng.randint(1, 255) for b in data[at:at + span])
        return data[:at] + flipped + data[at + span:]
    if how == "cut":
        return data[:at] + data[at + span:]
    return data[:at] + rng.randbytes(span) + data[at:]


def test_mutated_inputs_fail_cleanly(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "usable_cpus", lambda: 3)  # one forked worker per other user
    inputs = write_slice(tmp_path)
    by_target = commands(inputs, tmp_path / "out.csv")
    assert all(cli.main([str(a) for a in argv]) == 0
               for runs in by_target.values() for argv, _ in runs)
    capsys.readouterr()
    rng = random.Random(SEED)
    targets = sorted(by_target)
    statuses = []
    for trial in range(TRIALS):
        target = rng.choice(targets)
        path = inputs[target]
        original = path.read_bytes()
        path.write_bytes(mutate(rng, original))
        try:
            for argv, read in by_target[target]:
                where = f"trial {trial}, {target}: {argv[0]}"
                try:
                    status = cli.main([str(a) for a in argv])
                except Exception as exc:  # the property under test: none escapes
                    pytest.fail(f"{where}: {type(exc).__name__} escaped main: {exc}")
                err = capsys.readouterr().err
                assert status in (0, 1), where
                if status == 1:
                    assert err.startswith("error: ") and err.count("\n") == 1, (where, err)
                    assert any(str(p) in err for p in read), (where, err)
                assert_no_child_left()
                statuses.append(status)
        finally:
            path.write_bytes(original)
    # The trials reach both outcomes, so neither check above is vacuous.
    assert 0 in statuses and 1 in statuses
