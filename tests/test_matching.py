import random
from dataclasses import replace

import pytest

from mindrec import cli, evaluation, experiment, matching
from mindrec.corpus import Corpus, is_citation_feature
from mindrec.errors import NoModel
from mindrec.experiment import preset
from mindrec.matching import (
    derive_seed,
    dispatch,
    retrieve_candidates,
    select_and_shuffle,
)
from mindrec.mindmap import NodeEvent
from mindrec.usermodel import DAY_MS, UserModel

from conftest import WORDS, node, scripted_collection, single_map_collection, small_corpus
from test_corpus import ReferenceIndex, brute_force_scores, ingest_both


def model_of(*features):
    return UserModel([(f, 1.0) for f in features])


class TestRetrieveCandidates:
    def test_single_match(self, corpus3):
        pool = retrieve_candidates(corpus3, model_of("quantum"))
        assert len(pool) == 1

    def test_truncates_to_pool_size(self):
        corpus = small_corpus()
        for i in range(120):
            corpus.ingest_document(f"paper number {'x' * (i + 1)}",
                                   body_terms=["shared", f"unique{i}"])
        full = corpus.score_query([("shared", 1.0)])
        pool = retrieve_candidates(corpus, model_of("shared"), pool_size=50)
        assert pool == full[:50]

    def test_no_hits(self, corpus3):
        assert retrieve_candidates(corpus3, model_of("zzz")) == []

    def test_empty_model(self, corpus3):
        assert retrieve_candidates(corpus3, UserModel([])) == []

    def test_random_configs_match_brute_force(self):
        """The pool of a model built under a random config, weights stored
        or not, is the index-free oracle's ranking cut to the pool size;
        a feature's query weight is its stored weight, or 1.0 when the
        config stores none."""
        rng = random.Random(28)
        corpus, reference = Corpus(), ReferenceIndex()
        titles = []
        for i in range(60):
            title = f"{rng.choice(WORDS)} {rng.choice(WORDS)} {i}"
            cites = rng.sample(titles, min(len(titles), rng.choice([0, 0, 1, 2])))
            ingest_both(corpus, reference, title,
                        [rng.choice(WORDS[:40]) for _ in range(rng.randint(1, 8))], cites)
            titles.append(title)
        collection, now = scripted_collection(n_nodes=120, seed=28)
        for mindmap in collection.maps.values():
            for node_id in mindmap.node_ids():
                if rng.random() < 0.15:  # an unseen title is minted by freeze
                    mindmap.node(node_id).link = rng.choice(titles[:50] + [f"Ghost {node_id}"])
        links = {collection.user_id: collection.links()}
        corpus.freeze(links)
        for link in links[collection.user_id]:
            reference.resolve(link)
        assert list(reference.documents) == list(corpus.documents)

        built, full_pools, cited = {False: 0, True: 0}, 0, 0
        for _ in range(80):
            drawn = experiment.random_config(experiment.DEFAULT_SPACE, rng)
            features = {}
            for store_weights in (False, True):
                config = replace(drawn, store_weights=store_weights)
                try:
                    model = experiment.build_model(collection, corpus, config, now)
                except NoModel:
                    continue
                built[store_weights] += 1
                features[store_weights] = [f for f, _ in model.features]
                query = [(f, w if store_weights else 1.0) for f, w in model.features]
                pool = retrieve_candidates(corpus, model)
                assert pool == brute_force_scores(reference, query)[:matching.DEFAULT_POOL_SIZE]
                full_pools += len(pool) == matching.DEFAULT_POOL_SIZE
                cited += any(is_citation_feature(f) for f in features[store_weights])
            if features:  # storing weights keeps the same features in the same order
                assert features[False] == features[True]
        assert built[False] == built[True] >= 30 and full_pools >= 10 and cited >= 10


class TestSelectAndShuffle:
    def _pool(self, n=50):
        return [(f"doc_{i:03d}", float(n - i)) for i in range(n)]

    def test_small_pool_keeps_everything(self):
        items = select_and_shuffle(self._pool(4), k=10, rng=random.Random(1))
        assert sorted(i.doc_id for i in items) == [f"doc_{i:03d}" for i in range(4)]
        assert sorted(i.display_rank for i in items) == [1, 2, 3, 4]

    def test_seed_reproducibility(self):
        a = select_and_shuffle(self._pool(), k=10, rng=random.Random(42))
        b = select_and_shuffle(self._pool(), k=10, rng=random.Random(42))
        assert a == b

    def test_ranks_valid(self):
        items = select_and_shuffle(self._pool(), k=10, rng=random.Random(5))
        assert len({i.doc_id for i in items}) == 10
        assert sorted(i.display_rank for i in items) == list(range(1, 11))
        assert all(1 <= i.original_rank <= 50 for i in items)

    def test_empty_pool(self):
        rng = random.Random(0)
        assert select_and_shuffle([], k=10, rng=rng) == []
        assert rng.getstate() == random.Random(0).getstate()  # nothing drawn

    def test_generator_required(self):
        # no unseeded fallback: every delivered set comes from a given seed
        with pytest.raises(TypeError):
            select_and_shuffle(self._pool(), k=10)

    def test_selection_uniformity(self):
        rng = random.Random(1234)
        counts = {i: 0 for i in range(50)}
        trials = 20_000
        pool = self._pool()
        for _ in range(trials):
            for item in select_and_shuffle(pool, k=10, rng=rng):
                counts[item.original_rank - 1] += 1
        for c in counts.values():
            assert 0.18 <= c / trials <= 0.22


def make_user(now):
    root = node("r", "quantum flux", children=[node("a", "neural network")])
    events = [NodeEvent("m1", nid, "created", now - DAY_MS) for nid in ("r", "a")]
    return single_map_collection("u", root, events=events)


class TestDispatch:
    def _args(self, corpus):
        now = 1_000 * DAY_MS
        config = preset("all_maps_all_terms")
        catalog = sorted(corpus.documents)
        return make_user(now), corpus, config, catalog, now

    def test_always_stereotype(self, corpus3):
        collection, corpus, config, catalog, now = self._args(corpus3)
        rec = dispatch(collection, corpus, config, catalog, random.Random(1),
                       p_stereotype=1.0, now=now)
        assert rec.algorithm == "stereotype"

    def test_never_stereotype(self, corpus3):
        collection, corpus, config, catalog, now = self._args(corpus3)
        rec = dispatch(collection, corpus, config, catalog, random.Random(1),
                       p_stereotype=0.0, now=now)
        assert rec.algorithm == "all_maps_all_terms"

    def test_fallback_on_no_candidates(self, corpus3):
        now = 1_000 * DAY_MS
        root = node("r", "xylophone zither")
        events = [NodeEvent("m1", "r", "created", now - DAY_MS)]
        collection = single_map_collection("u", root, events=events)
        rec = dispatch(collection, corpus3, preset("all_maps_all_terms"),
                       sorted(corpus3.documents), random.Random(1),
                       p_stereotype=0.0, now=now)
        assert rec.algorithm == "stereotype"

    def test_no_duplicate_docs(self, corpus3):
        collection, corpus, config, catalog, now = self._args(corpus3)
        rec = dispatch(collection, corpus, config, catalog, random.Random(3),
                       p_stereotype=0.5, now=now)
        ids = [i.doc_id for i in rec.items]
        assert len(ids) == len(set(ids))

    def test_seed_determinism(self, corpus3):
        collection, corpus, config, catalog, now = self._args(corpus3)
        a = dispatch(collection, corpus, config, catalog, random.Random(7),
                     p_stereotype=0.5, now=now)
        b = dispatch(collection, corpus, config, catalog, random.Random(7),
                     p_stereotype=0.5, now=now)
        assert a == b

    def test_stereotype_frequency(self, corpus3):
        collection, corpus, config, catalog, now = self._args(corpus3)
        rng = random.Random(99)
        trials = 20_000
        hits = sum(
            dispatch(collection, corpus, config, catalog, rng,
                     p_stereotype=0.01, now=now).algorithm == "stereotype"
            for _ in range(trials)
        )
        assert 0.007 <= hits / trials <= 0.013

    def test_stereotype_preset_builds_no_model(self, corpus3, monkeypatch):
        def build_model(*args, **kwargs):
            pytest.fail("dispatch built a model under the stereotype preset")

        monkeypatch.setattr(matching, "build_model", build_model)
        collection, corpus, _, catalog, now = self._args(corpus3)
        for seed in range(20):
            for p_stereotype in (0.0, 0.5, 1.0):
                rec = dispatch(collection, corpus, preset("stereotype"), catalog,
                               random.Random(seed), p_stereotype=p_stereotype, now=now)
                assert rec.algorithm == "stereotype"
                assert {item.doc_id for item in rec.items} == set(catalog)


class TestDeriveSeed:
    def test_stable(self):
        assert derive_seed(1, "u1") == derive_seed(1, "u1")

    def test_user_dependent(self):
        assert derive_seed(1, "u1") != derive_seed(1, "u2")


class TestNoModel:
    @pytest.mark.parametrize("reason", ["no_maps", "no_features"])
    def test_catalog_served_and_miss_counted(self, tmp_path, monkeypatch, reason):
        now = 1_000 * DAY_MS
        cite = node("cite", "reference", link="Quantum Flux Paradigm",
                    created_at=now - 5 * DAY_MS)
        if reason == "no_maps":
            (tmp_path / "u").mkdir()
            served = cli.load_user_collections(tmp_path)["u"]
            # the one map begins after its own citation: offline keeps no map
            evaluated = single_map_collection(
                "u", node("r", "quantum flux", children=[cite], created_at=now - DAY_MS))
        else:
            # one map: TF-IDuF weighs every feature ln(1/1) = 0
            served = evaluated = single_map_collection("u", node(
                "r", "quantum flux", created_at=now - 10 * DAY_MS,
                children=[node("a", "neural network", created_at=now - 9 * DAY_MS), cite]))
        corpus = small_corpus()
        corpus.freeze({"u": evaluated.links()})
        config = preset("docear_combined")

        reasons = []

        def recording(*args, **kwargs):
            try:
                return experiment.build_model(*args, **kwargs)
            except NoModel as exc:
                reasons.append(exc.reason)
                raise

        monkeypatch.setattr(matching, "build_model", recording)
        rec = dispatch(served, corpus, config, sorted(corpus.documents),
                       random.Random(1), p_stereotype=0.0, now=now)
        assert rec.algorithm == "stereotype" and rec.items
        assert evaluation.offline_evaluate_user(evaluated, corpus, config).target_rank is None
        assert reasons == [reason, reason]
