"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.
"""

import csv
import json
import random
import time

import pytest

from mindrec import cli
from mindrec.corpus import Corpus
from mindrec.evaluation import (
    RecEvent,
    compute_ndcg,
    offline_evaluate_user,
    online_metrics,
)
from mindrec.experiment import AlgorithmConfig, build_model, preset
from mindrec.matching import dispatch, select_and_shuffle
from mindrec.usermodel import (
    build_user_model,
    node_weight,
    weight_features,
)
from mindrec.mindmap import MindMap, MindMapCollection, revision_chains

from conftest import DAY_MS, WORDS, node, scripted_collection, serialize_mindmap, small_corpus
from test_corpus import ReferenceIndex, brute_force_scores, ingest_both
from test_evaluation import simple_config, user_with_citation
from test_matching import make_user
from test_usermodel import combined_oracle

PASS = "ACCEPTANCE PASS:"


def _shown(set_id, doc, user="u", at=0):
    return RecEvent(set_id, doc, user, "shown", at)


def _clicked(set_id, doc, user="u", at=1):
    return RecEvent(set_id, doc, user, "clicked", at)


def test_metric_worked_examples():
    start = time.perf_counter()

    events = [_shown("s", f"d{i}") for i in range(10_000)]
    events += [_clicked("s", f"d{i}") for i in range(120)]
    report = {m: v for _, m, v, _ in online_metrics(events)}
    assert round(report["ctr"], 4) == 0.0120

    events = [_shown("s1", f"d{i}") for i in range(10)]
    events += [_clicked("s1", f"d{i}") for i in range(8)]
    events += [_shown("s2", f"e{i}") for i in range(5)]
    events += [_clicked("s2", f"e{i}") for i in range(2)]
    report = {m: v for _, m, v, _ in online_metrics(events)}
    assert round(report["ctr"], 4) == round(10 / 15, 4)
    assert round(report["ctr_set"], 4) == 0.6000

    events = []
    for user, n_shown, n_clicked in (("A", 100, 7), ("B", 200, 16),
                                     ("C", 1000, 300)):
        events += [_shown(f"s{user}", f"d{i}", user=user) for i in range(n_shown)]
        events += [_clicked(f"s{user}", f"d{i}", user=user)
                   for i in range(n_clicked)]
    report = {m: v for _, m, v, _ in online_metrics(events)}
    assert round(report["ctr"], 4) == round(323 / 1300, 4)  # 24.85%

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"{PASS} metric worked examples (1.2%, 66.67%/60%, 24.85%) "
          f"in {elapsed:.3f}s")


def test_depth_weight_clamp():
    for transform in ("abs", "ln", "log10", "sqrt"):
        for depth in range(21):
            stronger = node_weight(depth, transform, "stronger")
            weaker = node_weight(depth, transform, "weaker")
            assert stronger >= 1.0
            assert 0.0 < weaker <= 1.0
    assert node_weight(2, "ln", "stronger") == 1.0
    print(f"{PASS} depth-weight clamp over depths 0..20, all transforms; "
          f"ln(2) case clamps to 1 exactly")


def test_combined_algorithm_oracle():
    start = time.perf_counter()
    collection, now = scripted_collection(n_nodes=200)
    corpus = small_corpus()
    model = build_model(collection, corpus, preset("docear_combined"), now)
    assert model.feature_list() == combined_oracle(collection, now)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"{PASS} combined-algorithm 200-node pipeline equals brute-force "
          f"oracle ({len(model.features)} terms) in {elapsed:.3f}s")


def test_retrieval_oracle():
    rng = random.Random(2024)
    for trial in range(200):
        corpus, reference = Corpus(), ReferenceIndex()
        for i in range(rng.randint(2, 25)):
            terms = [rng.choice(WORDS) for _ in range(rng.randint(1, 6))]
            cites = []
            if corpus.documents and rng.random() < 0.4:
                pick = rng.choice(sorted(corpus.documents))
                cites = [corpus.documents[pick]]
            ingest_both(corpus, reference, f"{rng.choice(WORDS)} {rng.choice(WORDS)} "
                        f"{rng.choice(WORDS)} {trial} {i}", terms, cites)
        assert list(reference.documents) == list(corpus.documents)
        query = [(rng.choice(WORDS), rng.choice([0.5, 1.0, 2.0]))
                 for _ in range(rng.randint(1, 5))]
        got = corpus.score_query(query)
        expected = brute_force_scores(reference, query)
        assert [d for d, _ in got] == [d for d, _ in expected]
        assert all(a == pytest.approx(b, rel=1e-12)
                   for (_, a), (_, b) in zip(got, expected))
    print(f"{PASS} retrieval equals index-free dot-product oracle on 200 "
          f"random corpora (<= 25 docs)")


def test_offline_evaluator_fixtures():
    now = 1_000 * DAY_MS
    corpus = Corpus()
    corpus.ingest_document("Zorblax Quuxify Theory",
                           body_terms=["zorblax", "quuxify"])
    corpus.ingest_document("Other Paper Entirely", body_terms=["unrelated"])
    corpus.ingest_document("Another Different One", body_terms=["misc"])
    user = user_with_citation("Zorblax Quuxify Theory", ["zorblax quuxify", "zorblax"], now)
    corpus.freeze({user.user_id: user.links()})
    hit = offline_evaluate_user(user, corpus, simple_config())
    assert (hit.p_at_3, hit.p_at_10, hit.mrr_term, hit.ndcg) == (1, 1, 1.0, 1.0)

    corpus2 = Corpus()
    corpus2.ingest_document("Completely Elsewhere Work", body_terms=["elsewhere"])
    user = user_with_citation("Some Uningested Reference", ["grobnik vexilla", "wumpus"], now)
    corpus2.freeze({user.user_id: user.links()})
    miss = offline_evaluate_user(user, corpus2, simple_config())
    assert (miss.p_at_3, miss.p_at_10, miss.mrr_term, miss.ndcg) == (0, 0, 0.0, 0.0)
    print(f"{PASS} offline evaluator: forced-hit fixture all 1.0, disjoint "
          f"fixture all 0.0")


def test_ndcg_formula():
    relevant = [f"r{i}" for i in range(10)]
    assert compute_ndcg(relevant + [f"c{i}" for i in range(40)],
                        relevant) == pytest.approx(1.0)
    assert compute_ndcg(["a", "b", "rel"] + [f"c{i}" for i in range(47)],
                        ["rel"]) == 0.5
    print(f"{PASS} nDCG: ideal ordering 1.0; single relevant at rank 3 -> 0.5")


def test_determinism(tmp_path):
    from conftest import write_cli_fixture
    corpus_path, maps_dir, now = write_cli_fixture(tmp_path, n_users=6)

    rec_outputs = []
    for name in ("r1.csv", "r2.csv"):
        out = tmp_path / name
        assert cli.main(["recommend", "--corpus", str(corpus_path),
                         "--mindmaps", str(maps_dir), "--user", "user02",
                         "--seed", "9", "--now", str(now),
                         "--preset", "all_maps_all_terms",
                         "--out", str(out)]) == 0
        rec_outputs.append(out.read_bytes())
    assert rec_outputs[0] == rec_outputs[1]

    space = tmp_path / "space.txt"
    space.write_text("node_limit = 5, 10\nfeature_type = terms\n")
    eval_outputs = []
    for run_idx in range(3):
        out = tmp_path / f"o{run_idx}.csv"
        assert cli.main(["offline-eval", "--corpus", str(corpus_path),
                         "--mindmaps", str(maps_dir), "--seed", "9",
                         "--now", str(now), "--space", str(space),
                         "--out", str(out)]) == 0
        eval_outputs.append(out.read_bytes())
    assert eval_outputs[0] == eval_outputs[1] == eval_outputs[2]
    print(f"{PASS} recommend and offline-eval byte-identical across reruns")


def test_sampling_statistics():
    corpus = small_corpus()
    collection = make_user(1_000 * DAY_MS)
    from mindrec.experiment import preset
    config = preset("all_maps_all_terms")
    catalog = sorted(corpus.documents)
    rng = random.Random(314)
    trials = 100_000
    hits = sum(
        dispatch(collection, corpus, config, catalog, rng, p_stereotype=0.01,
                 now=1_000 * DAY_MS).algorithm == "stereotype"
        for _ in range(trials)
    )
    frequency = hits / trials
    assert 0.007 <= frequency <= 0.013

    pool = [(f"doc_{i:03d}", float(50 - i)) for i in range(50)]
    counts = [0] * 50
    rng = random.Random(2718)
    trials2 = 100_000
    for _ in range(trials2):
        for item in select_and_shuffle(pool, k=10, rng=rng):
            counts[item.original_rank - 1] += 1
    low = min(counts) / trials2
    high = max(counts) / trials2
    assert 0.18 <= low and high <= 0.22
    print(f"{PASS} sampling statistics: stereotype frequency {frequency:.4f} "
          f"in [0.007, 0.013]; item selection in [{low:.3f}, {high:.3f}] "
          f"within [0.18, 0.22]")


def test_tf_iduf_laws():
    maps = [MindMap(f"m{i}", node(f"r{i}", "cancer cell biology"))
            for i in range(4)]
    collection = MindMapCollection("u", revision_chains(maps))
    weighted = dict(weight_features([("cancer", 3.0)], "tf_iduf",
                                    collection=collection))
    assert weighted["cancer"] == 0.0

    rng = random.Random(6)
    features = [(f"t{i}", rng.uniform(0.1, 9.0)) for i in range(60)]
    cfg = AlgorithmConfig(feature_type="terms", scheme="tf_only",
                          remove_stopwords=False, model_size=20,
                          store_weights=False)
    base = build_user_model(features, cfg)
    scaled = build_user_model([(f, w * 123.0) for f, w in features], cfg)
    assert base.features == scaled.features
    print(f"{PASS} TF-IDuF zero law for terms in all user maps; argmax "
          f"invariance under positive scaling")


def test_scale_smoke(tmp_path):
    rng = random.Random(1)
    corpus_path = tmp_path / "corpus.jsonl"
    with open(corpus_path, "w", encoding="utf-8") as handle:
        for i in range(10_000):
            words = rng.sample(WORDS, 4)
            handle.write(json.dumps({
                "title": " ".join(words) + f" edition {i}",
                "terms": rng.sample(WORDS, 5),
            }) + "\n")
    titles = [json.loads(line)["title"]
              for line in open(corpus_path, encoding="utf-8")]

    now = 1_700_000_000_000
    maps_dir = tmp_path / "mindmaps"
    for u in range(1000):
        user_dir = maps_dir / f"user{u:04d}"
        user_dir.mkdir(parents=True)
        base = now - 20 * DAY_MS
        children = [node(f"u{u}n{i}", " ".join(rng.sample(WORDS, 2)),
                         created_at=base + i * 3_600_000) for i in range(7)]
        children.append(node(f"u{u}c", "cited work", link=rng.choice(titles),
                             created_at=base + 10 * 3_600_000))
        root = node(f"u{u}r", "notes", children=children, created_at=base)
        (user_dir / f"m{u}.mm").write_bytes(
            serialize_mindmap(MindMap(f"m{u}", root)))

    out = tmp_path / "offline.csv"
    start = time.perf_counter()
    assert cli.main(["offline-eval", "--corpus", str(corpus_path),
                     "--mindmaps", str(maps_dir), "--seed", "1",
                     "--now", str(now), "--preset", "all_maps_all_terms",
                     "--out", str(out)]) == 0
    elapsed = time.perf_counter() - start
    rows = list(csv.DictReader(open(out)))
    assert len(rows) == 1000
    assert elapsed < 60.0
    print(f"{PASS} scale smoke test: 1000 users x 10,000 docs offline-eval "
          f"in {elapsed:.1f}s (< 60s)")
