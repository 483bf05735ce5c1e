"""Tests of the benchmark's own parts: reference scorer, generator,
checkers and trace aggregation.

    PYTHONPATH=src python -m pytest perfbench -q
"""

import json
import math
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import gen  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402

# tree_hash of each shape's files for seed 1.  A change to the generator
# changes the workloads, so it must update these and re-measure the
# reference figures in README.md.
SEED1_HASHES = {
    "scale": "07cbe98d96137517cce312675e3aa732353c5a103747f0222b3742f7ee2eeb14",
    "rich": "e7d8d91d5328dd514bfd017627dfc40ef6def09f4804f0aead411d2bd2addd80",
    "online": "f8fa6dd3ae4a87a857f230aa2701e095a5abfdee35d559fc85958cc497a2a4ac",
}

THREE_DOCS = [
    {"title": "Alpha beta", "terms": ["gamma", "common"], "citations": []},
    {"title": "Beta gamma", "terms": ["gamma", "common"], "citations": []},
    {"title": "Delta", "terms": ["common"], "citations": ["Alpha beta"]},
]


def test_reference_hand_worked_three_documents():
    index = reference.ReferenceIndex(THREE_DOCS)
    ln15, ln3 = math.log(3 / 2), math.log(3)
    # beta: df 2; gamma: df 2, tf 1 in doc_1 and 2 in doc_2 (title + terms).
    assert index.rank([("beta", 1.0), ("gamma", 2.0)]) == [
        ("doc_2", 1 * 1 * ln15 + 2.0 * 2 * ln15),
        ("doc_1", 1 * 1 * ln15 + 2.0 * 1 * ln15),
    ]
    # Equal scores go to the smaller doc_id; doc_3 matches only by citation.
    assert index.rank([("alpha", 1.0), ("delta", 1.0)]) == [("doc_1", ln3), ("doc_3", ln3)]
    assert index.rank([("citation:doc_1", 1.0)]) == [("doc_3", ln3)]
    # A feature in every document has idf 0 and scores nothing.
    assert index.rank([("common", 5.0)]) == []
    assert index.rank([("beta", 1.0), ("gamma", 2.0)], top=1) == [
        ("doc_2", 1 * 1 * ln15 + 2.0 * 2 * ln15)]


def _seeded_corpus(rng, n_docs):
    words = gen.WORDS[:60]
    docs, titles = [], []
    for i in range(n_docs):
        # The last word is unique per document, so no two titles merge.
        suffix = "".join("abcdefghij"[int(d)] for d in str(i))
        title = " ".join(rng.sample(words, 3)) + f" paper x{suffix}"
        cites = sorted(set(rng.sample(titles, min(len(titles), rng.randint(0, 3)))))
        docs.append({"title": title, "terms": rng.choices(words, k=rng.randint(2, 9)),
                     "citations": cites})
        titles.append(title)
    return docs, words


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_reference_matches_program_scorer(tmp_path, seed):
    from mindrec.corpus import load_corpus_jsonl

    rng = random.Random(seed)
    docs, words = _seeded_corpus(rng, 300)
    path = tmp_path / "corpus.jsonl"
    gen._write_corpus(path, docs)
    corpus = load_corpus_jsonl(path)
    index = reference.ReferenceIndex(docs)
    assert len(corpus) == index.n_docs
    for _ in range(40):
        features = rng.sample(words, rng.randint(1, 12))
        features += [f"citation:doc_{rng.randint(1, 300)}" for _ in range(rng.randint(0, 3))]
        query = [(f, rng.choice([1.0, 2.0, 0.5, rng.random()])) for f in features]
        assert corpus.score_query(query) == index.rank(query)


@pytest.mark.parametrize("shape", ["scale", "rich", "online"])
def test_generator_is_byte_identical_per_seed(tmp_path, shape):
    make = getattr(gen, f"make_{shape}")
    hashes = []
    for name, seed in (("a", 1), ("b", 1), ("c", 2)):
        out = tmp_path / name
        out.mkdir()
        make(seed, out)
        hashes.append(gen.tree_hash(out))
    assert hashes[0] == hashes[1] == SEED1_HASHES[shape] != hashes[2]


def test_offline_checker_flags_inconsistent_rows():
    header = ",".join(checks.OFFLINE_HEADER)
    good = f"{header}\nu1,x,2,1,1,0.500000,0.630930\nu2,x,,0,0,0.000000,0.000000\n"
    assert checks.offline_consistent(good, ["u1", "u2"], "x") == []
    assert checks.offline_consistent(good, ["u1", "u2", "u3"], "x")
    bad_mrr = good.replace("0.500000", "0.250000")
    assert checks.offline_consistent(bad_mrr, ["u1", "u2"], "x")
    bad_p3 = f"{header}\nu1,x,5,1,1,0.200000,0.5\n"
    assert checks.offline_consistent(bad_p3, ["u1"], "x")


def test_recommendation_checker():
    ranking = [(f"doc_{i}", 10.0 - i) for i in range(1, 6)]
    user = next(u for u in (f"user{i:04d}" for i in range(100))
                if checks.arm_draw(7, u) >= checks.P_STEREOTYPE)
    head = "set_id,user_id,algorithm,doc_id,original_rank,display_rank\n"
    rows = [f"set_{user}_7,{user},all_maps_all_terms,doc_{r},{r},{d}"
            for r, d in ((2, 1), (1, 3), (5, 2), (3, 5), (4, 4))]
    text = head + "\n".join(rows) + "\n"
    assert checks.recommendation(text, user, "all_maps_all_terms", 7, ranking, []) == []
    swapped = text.replace("doc_2,2", "doc_2,3")
    assert checks.recommendation(swapped, user, "all_maps_all_terms", 7, ranking, [])
    assert checks.recommendation(text.replace(",1\n", ",3\n", 1), user,
                                 "all_maps_all_terms", 7, ranking, [])
    assert checks.recommendation(text, user, "docear_combined", 7, ranking, [])


def test_metrics_checker_compares_values_and_counts():
    text = "group,metric,value,n\nall,ctr,0.333333,3\n"
    assert checks.metrics_report(text, [("all", "ctr", 1 / 3, 3)]) == []
    assert checks.metrics_report(text, [("all", "ctr", 0.3334, 3)])
    assert checks.metrics_report(text, [("all", "ctr", 1 / 3, 4)])


def test_aggregate_reports_self_time():
    dump = {"request": "r", "counts": {"corpus.score_query_calls": 2, "corpus.ranked": 10,
                                       "matching.pool": 4, "corpus.docs": 7},
            "spans": [
                (1, "cli.main", 0.0, 10.0, None, "r"),
                (2, "corpus.load", 0.0, 3.0, 1, "r"),
                (3, "text.tokenize", 1.0, 2.0, 2, "r"),
                (4, "evaluation.offline_user", 4.0, 6.0, 1, "u1"),
                (5, "corpus.score_query", 4.5, 5.5, 4, "u1"),
            ]}
    metrics = tracing.aggregate([dump, dump])
    assert metrics["corpus.load_s"] == pytest.approx(4.0)
    assert metrics["text.tokenize_s"] == pytest.approx(2.0)
    assert metrics["evaluation.offline_user_s"] == pytest.approx(2.0)
    assert metrics["evaluation.offline_user_p50_ms"] == pytest.approx(2000.0)
    assert metrics["corpus.ranked_per_query"] == pytest.approx(5.0)
    assert metrics["matching.pool_over_ranked"] == pytest.approx(0.4)
    assert metrics["corpus.docs"] == 7
    assert set(metrics) == {name for name, _, _ in tracing.PER_LAYER}


def test_benchmark_json_lists_what_run_py_prints():
    import run

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    # offline_rich runs by hand only; see README.md.
    assert [w["name"] for w in bench["workloads"]] == \
        [name for name in run.WORKLOADS if name != "offline_rich"]
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == \
        [tuple(entry) for entry in tracing.PER_LAYER]
