import random

import pytest

from mindrec.corpus import Corpus
from mindrec.evaluation import (
    RecEvent,
    SetRating,
    compute_ndcg,
    offline_evaluate_user,
    online_metrics,
    reiteration_report,
)
from mindrec.experiment import AlgorithmConfig
from mindrec.mindmap import MindMap, MindMapCollection, revision_chains
from mindrec.usermodel import DAY_MS

from conftest import node, single_map_collection


class TestNdcg:
    def test_ideal_ordering(self):
        relevant = [f"r{i}" for i in range(10)]
        candidates = relevant + [f"c{i}" for i in range(40)]
        assert compute_ndcg(candidates, relevant) == pytest.approx(1.0)

    def test_no_relevant_hits(self):
        assert compute_ndcg([f"c{i}" for i in range(50)], ["r1"]) == 0.0

    def test_single_relevant_at_rank_three(self):
        candidates = ["a", "b", "rel"] + [f"c{i}" for i in range(47)]
        assert compute_ndcg(candidates, ["rel"]) == pytest.approx(0.5)

    def test_invariant_below_last_relevant(self):
        candidates = ["a", "rel", "b", "c", "d"]
        shuffled_tail = ["a", "rel", "d", "b", "c"]
        assert compute_ndcg(candidates, ["rel"]) == \
            compute_ndcg(shuffled_tail, ["rel"])

    def test_empty_relevant(self):
        assert compute_ndcg(["a", "b"], []) == 0.0


def simple_config(**feature_kw):
    features = dict(feature_type="terms", scheme="tf_only",
                    remove_stopwords=False, model_size=50, store_weights=True)
    features.update(feature_kw)
    return AlgorithmConfig(node_limit=1000, event_kind="any", visibility="all",
                           **features)


def user_with_citation(link_title, texts, now):
    children = [node(f"t{i}", text, created_at=now - 10 * DAY_MS + i)
                for i, text in enumerate(texts)]
    cite = node("cite", "reference", link=link_title,
                created_at=now - 5 * DAY_MS)
    late = node("late", "added afterwards", created_at=now - DAY_MS)
    root = node("r", "root topic", children=children + [cite, late],
                created_at=now - 20 * DAY_MS)
    return single_map_collection("u", root)


class TestOfflineEvaluate:
    def test_forced_hit(self):
        now = 1_000 * DAY_MS
        corpus = Corpus()
        corpus.ingest_document("Zorblax Quuxify Theory",
                               body_terms=["zorblax", "quuxify"])
        corpus.ingest_document("Other Paper Entirely",
                               body_terms=["unrelated", "stuff"])
        corpus.ingest_document("Another Different One",
                               body_terms=["misc", "things"])
        collection = user_with_citation("Zorblax Quuxify Theory",
                                        ["zorblax quuxify", "zorblax"], now)
        result = offline_evaluate_user(collection, corpus, simple_config())
        assert result.target_rank == 1
        assert result.p_at_3 == 1 and result.p_at_10 == 1
        assert result.mrr_term == 1.0
        assert result.ndcg == pytest.approx(1.0)

    def test_disjoint_vocabulary_miss(self):
        now = 1_000 * DAY_MS
        corpus = Corpus()
        corpus.ingest_document("Completely Elsewhere Work",
                               body_terms=["elsewhere", "work"])
        collection = user_with_citation("Some Uningested Reference",
                                        ["zorblax quuxify", "grobnik"], now)
        corpus.freeze({"u": collection.links()})
        result = offline_evaluate_user(collection, corpus, simple_config())
        assert result.target_rank is None
        assert (result.p_at_3, result.p_at_10, result.mrr_term) == (0, 0, 0.0)
        assert result.ndcg == 0.0

    def test_no_citations(self):
        collection = single_map_collection("u", node("r", "plain text"))
        assert offline_evaluate_user(collection, Corpus(), simple_config()) is None

    def test_nodes_created_after_citation_pruned(self):
        # the 'late' node's vocabulary must not leak into the model
        now = 1_000 * DAY_MS
        corpus = Corpus()
        corpus.ingest_document("Afterwards Added Paper",
                               body_terms=["afterwards", "added"])
        corpus.ingest_document("Padding Doc", body_terms=["padding"])
        collection = user_with_citation("Uningested Target",
                                        ["zorblax"], now)
        corpus.freeze({"u": collection.links()})
        result = offline_evaluate_user(collection, corpus, simple_config())
        assert result.target_rank is None  # "afterwards added" never queried

    def test_deterministic(self):
        now = 1_000 * DAY_MS
        corpus = Corpus()
        corpus.ingest_document("Zorblax Quuxify Theory",
                               body_terms=["zorblax", "quuxify"])
        corpus.ingest_document("Padding Doc", body_terms=["padding"])
        collection = user_with_citation("Zorblax Quuxify Theory",
                                        ["zorblax quuxify"], now)
        a = offline_evaluate_user(collection, corpus, simple_config())
        b = offline_evaluate_user(collection, corpus, simple_config())
        assert a == b

    def test_map_started_after_citation_dropped(self):
        # a map begun after the target citation is left out whole, not
        # pruned down to nothing
        now = 1_000 * DAY_MS
        corpus = Corpus()
        corpus.ingest_document("Zorblax Quuxify Theory",
                               body_terms=["zorblax", "quuxify"])
        corpus.ingest_document("Later Map Paper", body_terms=["later", "map"])
        corpus.ingest_document("Padding Doc", body_terms=["padding"])
        first = user_with_citation("Zorblax Quuxify Theory",
                                   ["zorblax quuxify"], now)
        later = MindMap("m2", node("r2", "later map", created_at=now - DAY_MS))
        collection = MindMapCollection("u", revision_chains(first.latest_maps() + [later]))
        result = offline_evaluate_user(collection, corpus, simple_config())
        assert result.target_rank == 1


def shown(set_id, doc, user="u", at=0):
    return RecEvent(set_id, doc, user, "shown", at)


def clicked(set_id, doc, user="u", at=1):
    return RecEvent(set_id, doc, user, "clicked", at)


def metric_map(report):
    return {(g, m): (v, n) for g, m, v, n in report}


class TestOnlineMetrics:
    def test_ctr_worked_example(self):
        events = [shown("s", f"d{i}") for i in range(10_000)]
        events += [clicked("s", f"d{i}") for i in range(120)]
        got = metric_map(online_metrics(events))
        assert got[("all", "ctr")][0] == pytest.approx(0.012)

    def test_two_set_example(self):
        events = []
        events += [shown("s1", f"d{i}") for i in range(10)]
        events += [clicked("s1", f"d{i}") for i in range(8)]
        events += [shown("s2", f"e{i}") for i in range(5)]
        events += [clicked("s2", f"e{i}") for i in range(2)]
        got = metric_map(online_metrics(events))
        assert got[("all", "ctr")][0] == pytest.approx(10 / 15)
        assert got[("all", "ctr_set")][0] == pytest.approx(0.6)

    def test_three_user_example(self):
        events = []
        for user, n_shown, n_clicked in (("A", 100, 7), ("B", 200, 16),
                                         ("C", 1000, 300)):
            events += [shown(f"s{user}", f"d{i}", user=user)
                       for i in range(n_shown)]
            events += [clicked(f"s{user}", f"d{i}", user=user)
                       for i in range(n_clicked)]
        got = metric_map(online_metrics(events))
        assert got[("all", "ctr")][0] == pytest.approx(323 / 1300)
        # arithmetic mean of per-user CTRs: (0.07 + 0.08 + 0.30) / 3
        assert got[("all", "ctr_user")][0] == pytest.approx(0.15)

    def test_through_rates_and_rating(self):
        events = [shown("s", f"d{i}") for i in range(4)]
        events += [clicked("s", "d0"),
                   RecEvent("s", "d0", "u", "linked", 2),
                   RecEvent("s", "d1", "u", "annotated", 3),
                   RecEvent("s", "d2", "u", "cited", 4)]
        ratings = [SetRating("s", "u", 4, 9), SetRating("s", "u", 2, 10)]
        got = metric_map(online_metrics(events, ratings))
        assert got[("all", "ltr")][0] == 0.25
        assert got[("all", "atr")][0] == 0.25
        assert got[("all", "citr")][0] == 0.25
        assert got[("all", "mean_rating")][0] == 3.0

    def test_group_by_user(self):
        events = [shown("s1", "d", user="A"), clicked("s1", "d", user="A"),
                  shown("s2", "e", user="B")]
        got = metric_map(online_metrics(events, group_by="user_id"))
        assert got[("A", "ctr")][0] == 1.0
        assert got[("B", "ctr")][0] == 0.0

    def test_group_by_set_attribute(self):
        events = [shown("s1", "d"), clicked("s1", "d"), shown("s2", "e")]
        groups = {"s1": "combined", "s2": "stereotype"}
        got = metric_map(online_metrics(events, group_by="algorithm",
                                        set_groups=groups))
        assert got[("combined", "ctr")][0] == 1.0
        assert got[("stereotype", "ctr")][0] == 0.0

    def test_no_impressions(self):
        assert online_metrics([]) == []
        assert online_metrics([], group_by="user_id") == []

    def test_rates_bounded(self):
        rng = random.Random(4)
        events = []
        for s in range(20):
            for d in range(10):
                events.append(shown(f"s{s}", f"d{d}", user=f"u{s % 5}", at=s))
                if rng.random() < 0.3:
                    events.append(clicked(f"s{s}", f"d{d}", user=f"u{s % 5}",
                                          at=s + 1))
        got = metric_map(online_metrics(events))
        per_set = [got[("all", "ctr_set")][0]]
        for (g, m), (v, n) in got.items():
            if m != "mean_rating":
                assert 0.0 <= v <= 1.0
        assert per_set


class TestReiteration:
    def test_single_showing(self):
        events = [shown("s1", "d1", at=1), clicked("s1", "d1", at=2)]
        [row] = reiteration_report(events)
        assert row["iteration"] == 1
        assert row["oblivious"] == 0
        assert row["ctr"] == 1.0

    def test_second_click_is_oblivious(self):
        events = [shown("s1", "d", at=1), clicked("s1", "d", at=2),
                  shown("s2", "d", at=3), clicked("s2", "d", at=4)]
        rows = {r["iteration"]: r for r in reiteration_report(events)}
        assert rows[2]["clicks"] == 1
        assert rows[2]["oblivious"] == 1
        assert rows[2]["first_clicks"] == 0

    def test_replay_oracle(self):
        rng = random.Random(31)
        events = []
        at = 0
        pairs = [("u1", "a"), ("u1", "b"), ("u2", "a")]
        log = {}
        for i in range(30):
            user, doc = rng.choice(pairs)
            at += 1
            set_id = f"s{i}"
            events.append(RecEvent(set_id, doc, user, "shown", at))
            click = rng.random() < 0.5
            if click:
                at += 1
                events.append(RecEvent(set_id, doc, user, "clicked", at))
            log.setdefault((user, doc), []).append(click)

        # naive per-pair replay
        expected = {}
        for flips in log.values():
            before = False
            for iteration, click in enumerate(flips, start=1):
                row = expected.setdefault(iteration, [0, 0, 0])
                row[0] += 1
                if click:
                    row[1] += 1
                    if before:
                        row[2] += 1
                    before = True
        got = {r["iteration"]: (r["shown"], r["clicks"], r["oblivious"])
               for r in reiteration_report(events)}
        assert got == {i: tuple(v) for i, v in expected.items()}
