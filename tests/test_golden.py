"""Golden outputs: the README's determinism contract as a test.

The seed-1 `rich` and `online` inputs of the benchmark generator are
made once per module, every command below runs in-process through
`cli.main`, and the sha256 of each output file must equal the table.
Outputs never print scores, so the (doc_id, score) candidate pools of
a seeded sample of rich users are hashed too, from `repr` of the
floats, under `docear_combined` with stored weights: with weights of
1.0 a change in float association would not show.

A change that keeps the outputs leaves this table alone.  A change that
alters an output on purpose edits the entries it changes, in the same
commit, and says which and why.

`offline-eval` must write the same bytes whatever number of worker
processes it forks, so its outputs are checked again with the CPU probe
forced to 1, 2, 3 and more CPUs than users; so are those of `metrics
--sets` and `export --events`, which read their second input in a
worker, with 1 and 2 CPUs.

`offline-eval` reads the maps through `cli.load_user_collections` and
the online commands read the event log through `cli.replay_event_log`;
none changes what they return, so the module parses each of them once.
"""

import contextlib
import functools
import hashlib
import io
import random
import sys
from pathlib import Path

import pytest

from mindrec import cli, experiment, matching, mindmap
from mindrec.corpus import load_corpus_jsonl
from mindrec.errors import NoPositiveFeatures

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import gen  # noqa: E402
from conftest import assert_no_child_left  # noqa: E402

SEED = 1
PRESETS = ("docear_combined", "all_maps_all_terms", "stereotype")
N_RECOMMEND_USERS = 3
N_POOL_USERS = 40

GOLDEN = {
    "export/recommendation_sets.csv":
        "ec39344cd9ebe87d824c3e7cf78ffd33abb3a24acf8ade99049134284a1228a1",
    "export/recommendations.csv":
        "950c2c55a5f0db2413ddd941d8e0c6ddb39afa2ff14a3826cc8894fa5d4613cd",
    "metrics_by_algorithm.csv":
        "2106c31867cfc496d6ffaa925ae5b85a4417bf30525bdb54660f9fac3a4de6b7",
    "metrics_by_user.csv":
        "7ef1d3c7cb710bae109011f24439568f1680b2fa869b40163bf741e1f3f3a2b3",
    "offline/all_maps_all_terms.csv":
        "713ff4c19d5be0c64d4236d8c3079fa96011f2b70f6a235468f7e05220bce136",
    "offline/docear_combined.csv":
        "5eca58815b50a60ab982c66607c09b6819258d0841e039de589a08ff4f671ff5",
    "offline/space.csv":
        "5cdb9010e8f2f86849d211346cef7a452761f1830824009ec01a677cfd23878c",
    "pools":
        "64c0cf5fccddc3b28bec4200a8e54c6fd91795183245ec5ce55a044e6a4756b0",
    "recommend/sets.jsonl":
        "7f43a75878fa88d700656b93ed2891a0884ee26dc76ffc84a64891397e35831a",
    "recommend/u0124-all_maps_all_terms.csv":
        "64c2170f5f336660e3588eeb5397bb63627684be34e5dcde59930a2723229e3b",
    "recommend/u0124-docear_combined.csv":
        "35e69fd4f4a04feb079e4377acd80332200f29e59fc953097e46a27877fd4a52",
    "recommend/u0124-stereotype.csv":
        "99af1c23f0763659e02481936632b755ba5c2957833d8562bbd5dead5aecb74c",
    "recommend/u0198-all_maps_all_terms.csv":
        "25a0d1b3758779fe1ca7d1b76946065b8bda61cb663d6707c7970098615e26f1",
    "recommend/u0198-docear_combined.csv":
        "38bfe3760771fce2b33c957ea4e8423bd2997d516a76b28fbe96ac7824d56edd",
    "recommend/u0198-stereotype.csv":
        "e71a7dadcab6fcf407a457e9d3aecca8e23404c15906ffb41ca3d12f0a0acc6e",
    "recommend/u0260-all_maps_all_terms.csv":
        "4d9453c2892d90adc91f12c7021997daef13298b469a21b14d422fe07ec1a391",
    "recommend/u0260-docear_combined.csv":
        "96f112027bf4464144338bdb5014fe43f670131669cba1ca7d832befa68d2d56",
    "recommend/u0260-stereotype.csv":
        "abe3c12d30d83330ce737255e5556fac36d2e4b7c70ac889014e78b1c48f3bb7",
    "reiterate.csv":
        "467c15863e68987781ed0566f6810aabd00eba8105f16db9ec886d9bedc41781",
}


def _run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([str(a) for a in argv]) == 0, argv


def _pools_repr(inputs):
    """repr of [(user_id, pool or None)] for the sampled rich users."""
    corpus = load_corpus_jsonl(inputs / "corpus.jsonl")
    collections = cli.load_user_collections(str(inputs / "mindmaps"))
    corpus.freeze({u: c.links() for u, c in collections.items()})
    config = experiment.preset("docear_combined")
    config.store_weights = True
    pools = []
    for user_id in random.Random("golden:pools").sample(sorted(collections), N_POOL_USERS):
        try:
            model = experiment.build_model(collections[user_id], corpus, config, gen.NOW)
            pools.append((user_id, matching.retrieve_candidates(corpus, model)))
        except NoPositiveFeatures:
            pools.append((user_id, None))
    return repr(pools)


@pytest.fixture(scope="module")
def rich(tmp_path_factory):
    """The seed-1 rich inputs."""
    rich = tmp_path_factory.mktemp("rich")
    gen.make_rich(SEED, rich)
    return rich


@pytest.fixture(scope="module")
def online(tmp_path_factory):
    """The seed-1 online inputs."""
    online = tmp_path_factory.mktemp("online")
    gen.make_online(SEED, online)
    return online


@pytest.fixture(scope="module")
def digests(tmp_path_factory, rich, online):
    """{output name: sha256} of every output of the commands."""
    base = tmp_path_factory.mktemp("golden")
    out = base / "out"
    for directory in (out / "offline", out / "recommend"):
        directory.mkdir(parents=True)
    space = base / "space.txt"
    space.write_text(gen.SPACE_TEXT, encoding="utf-8")
    common = ["--corpus", rich / "corpus.jsonl", "--mindmaps", rich / "mindmaps",
              "--seed", SEED, "--now", gen.NOW]
    events, sets = online / "events.csv", online / "sets.jsonl"

    with pytest.MonkeyPatch.context() as patch:
        for name in ("load_user_collections", "replay_event_log"):
            patch.setattr(cli, name, functools.cache(getattr(cli, name)))
        for preset in PRESETS[:2]:
            _run("offline-eval", *common, "--preset", preset,
                 "--out", out / "offline" / f"{preset}.csv")
        _run("offline-eval", *common, "--space", space, "--out", out / "offline" / "space.csv")
        users = sorted(p.name for p in (rich / "mindmaps").iterdir())
        for user in random.Random("golden:recommend").sample(users, N_RECOMMEND_USERS):
            for preset in PRESETS:
                _run("recommend", *common, "--preset", preset, "--user", user,
                     "--out", out / "recommend" / f"{user}-{preset}.csv",
                     "--sets-out", out / "recommend" / "sets.jsonl")
        _run("metrics", "--events", events, "--group-by", "user_id",
             "--out", out / "metrics_by_user.csv")
        _run("metrics", "--events", events, "--sets", sets, "--group-by", "algorithm",
             "--out", out / "metrics_by_algorithm.csv")
        _run("reiterate", "--events", events, "--out", out / "reiterate.csv")
        _run("export", "--sets", sets, "--events", events, "--out", out / "export")
        pools = _pools_repr(rich)

    found = {path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
             for path in sorted(out.rglob("*")) if path.is_file()}
    found["pools"] = hashlib.sha256(pools.encode()).hexdigest()
    return found


def test_every_output_has_an_entry(digests):
    assert sorted(digests) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_is_golden(digests, name):
    assert digests[name] == GOLDEN[name]


def test_recommend_reads_other_users_for_links_only(rich, tmp_path, monkeypatch):
    """`recommend` builds MindMaps for the requested user only, and leaves
    the corpus as `freeze` over every user's full collection does."""
    full = load_corpus_jsonl(rich / "corpus.jsonl")
    n_ingested = len(full)
    collections = cli.load_user_collections(rich / "mindmaps")
    full.freeze({user_id: c.links() for user_id, c in collections.items()})
    assert len(full) > n_ingested   # the maps link titles the corpus lacks

    corpora, built = [], []

    def recorded_load(path):
        corpora.append(load_corpus_jsonl(path))
        return corpora[-1]

    def counted_init(self, map_id, *args, **kwargs):
        built.append((map_id, kwargs.get("revision")))
        init(self, map_id, *args, **kwargs)

    init = mindmap.MindMap.__init__
    monkeypatch.setattr(cli, "load_corpus_jsonl", recorded_load)
    monkeypatch.setattr(mindmap.MindMap, "__init__", counted_init)
    user = random.Random("golden:recommend").choice(sorted(collections))
    _run("recommend", "--corpus", rich / "corpus.jsonl", "--mindmaps", rich / "mindmaps",
         "--seed", SEED, "--now", gen.NOW, "--user", user, "--out", tmp_path / "rec.csv")

    corpus, = corpora
    assert list(corpus.documents) == list(full.documents)
    assert list(corpus.cleantitle_index.items()) == list(full.cleantitle_index.items())
    own = [(m.map_id, m.revision) for chain in collections[user].revisions.values()
           for m in chain]
    assert len(own) > 1 and sorted(built) == sorted(own)


# One parse of the rich maps for every worker count below.
_rich_collections = functools.cache(cli.load_user_collections)


@pytest.mark.parametrize("workers", [1, 2, 3, "more_than_users"])
@pytest.mark.parametrize("name", ["docear_combined", "all_maps_all_terms", "space"])
def test_offline_eval_bytes_do_not_depend_on_worker_count(rich, tmp_path, monkeypatch,
                                                          name, workers):
    """`offline-eval` writes the golden bytes however many CPUs the probe
    reports, and leaves no child process behind."""
    users = sorted(p.name for p in (rich / "mindmaps").iterdir())
    monkeypatch.setattr(cli, "usable_cpus",
                        lambda: len(users) + 1 if workers == "more_than_users" else workers)
    monkeypatch.setattr(cli, "load_user_collections", _rich_collections)
    space = tmp_path / "space.txt"
    space.write_text(gen.SPACE_TEXT, encoding="utf-8")
    out = tmp_path / "offline.csv"
    _run("offline-eval", "--corpus", rich / "corpus.jsonl", "--mindmaps", rich / "mindmaps",
         "--seed", SEED, "--now", gen.NOW,
         *(["--space", space] if name == "space" else ["--preset", name]), "--out", out)
    assert_no_child_left()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN[f"offline/{name}.csv"]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", ["metrics_by_algorithm", "metrics_by_user", "metrics_all",
                                  "export"])
def test_online_bytes_do_not_depend_on_worker_count(online, tmp_path, monkeypatch, name,
                                                    workers):
    """`metrics --sets` and `export --events` write the same bytes with 1
    and 2 CPUs probed: the golden ones, and for `metrics --sets` without
    --group-by, which has no entry, those of `metrics` without --sets."""
    monkeypatch.setattr(cli, "usable_cpus", lambda: workers)
    events, sets, out = online / "events.csv", online / "sets.jsonl", tmp_path / "out"
    if name == "export":
        _run("export", "--sets", sets, "--events", events, "--out", out)
        assert_no_child_left()
        for table in ("recommendation_sets.csv", "recommendations.csv"):
            assert (hashlib.sha256((out / table).read_bytes()).hexdigest()
                    == GOLDEN[f"export/{table}"])
        return
    group_by = {"metrics_by_algorithm": ["--group-by", "algorithm"],
                "metrics_by_user": ["--group-by", "user_id"], "metrics_all": []}[name]
    _run("metrics", "--events", events, "--sets", sets, *group_by, "--out", out)
    assert_no_child_left()
    if name == "metrics_all":
        _run("metrics", "--events", events, "--out", tmp_path / "want")
        assert out.read_bytes() == (tmp_path / "want").read_bytes()
    else:
        assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN[f"{name}.csv"]
