import math
import random

import pytest

from mindrec.corpus import Corpus, citation_feature
from mindrec.errors import EmptyCollection, InvalidConfig, NoPositiveFeatures
from mindrec.experiment import AlgorithmConfig, build_model, preset
from mindrec.mindmap import MindMap, MindMapCollection, NodeEvent, is_visible, revision_chains
from mindrec.usermodel import (
    COMBINERS,
    DAY_MS,
    build_user_model,
    extend_selection,
    extract_features,
    node_weight,
    select_nodes,
    weight_features,
)

from conftest import node, scripted_collection, single_map_collection


def selection_oracle(collection, cfg, now):
    """Independent brute force over the raw event log."""
    events = [e for e in collection.events
              if cfg.event_kind == "any" or e.kind == cfg.event_kind]
    if cfg.day_window is not None:
        events = [e for e in events if e.at >= now - cfg.day_window * DAY_MS]
    if cfg.map_limit is not None:
        newest = {}
        for e in events:
            newest[e.map_id] = max(newest.get(e.map_id, 0), e.at)
        keep = sorted(newest, key=lambda m: (-newest[m], m))[: cfg.map_limit]
        events = [e for e in events if e.map_id in set(keep)]
    latest = {}
    for e in events:
        latest[(e.map_id, e.node_id)] = max(latest.get((e.map_id, e.node_id), 0), e.at)
    rows = []
    for (m, n), at in latest.items():
        if m not in collection.revisions or n not in collection.latest(m):
            continue
        vis = is_visible(collection.latest(m), n)
        if cfg.visibility == "visible_only" and not vis:
            continue
        if cfg.visibility == "invisible_only" and vis:
            continue
        rows.append((at, m, n))
    rows.sort(key=lambda t: (-t[0], t[1], t[2]))
    out = [(m, n) for _, m, n in rows]
    return out[: cfg.node_limit] if cfg.node_limit is not None else out


class TestSelectNodes:
    def _tiny(self):
        root = node("r", "alpha", children=[node("a", "beta"), node("b", "gamma")])
        events = [
            NodeEvent("m1", "r", "created", 100),
            NodeEvent("m1", "a", "created", 200),
            NodeEvent("m1", "b", "created", 300),
        ]
        return single_map_collection("u", root, events=events)

    def test_limit_above_population(self):
        got = select_nodes(self._tiny(), AlgorithmConfig(node_limit=10), now=1000)
        assert got == [("m1", "b"), ("m1", "a"), ("m1", "r")]

    def test_kind_filter_eliminates_all(self):
        got = select_nodes(self._tiny(),
                           AlgorithmConfig(node_limit=10, event_kind="moved"),
                           now=1000)
        assert got == []

    def test_empty_collection(self):
        with pytest.raises(EmptyCollection):
            select_nodes(MindMapCollection("u", revision_chains([])),
                         AlgorithmConfig(node_limit=1), now=0)

    def test_day_window(self):
        collection = self._tiny()
        now = 300 + 2 * DAY_MS
        cfg = AlgorithmConfig(node_limit=10, day_window=2)
        # only events at >= now - 2 days = 300 qualify
        assert select_nodes(collection, cfg, now) == [("m1", "b")]

    @pytest.mark.parametrize("cfg", [
        AlgorithmConfig(node_limit=75, day_window=90, event_kind="moved",
                        visibility="visible_only"),
        AlgorithmConfig(node_limit=30, event_kind="edited"),
        AlgorithmConfig(map_limit=2, node_limit=50, event_kind="any"),
        AlgorithmConfig(day_window=200, visibility="invisible_only"),
    ])
    def test_matches_brute_force_oracle(self, cfg):
        collection, now = scripted_collection()
        assert select_nodes(collection, cfg, now) == \
            selection_oracle(collection, cfg, now)


class TestExtendSelection:
    def test_empty_extension_identity(self):
        collection, _ = scripted_collection(n_nodes=40)
        selection = [(m, n) for m in list(collection.revisions)[:1]
                     for n in collection.latest(m).node_ids()[:3]]
        assert extend_selection(collection, selection, frozenset()) == selection

    def test_lonely_root_unchanged(self):
        collection = single_map_collection("u", node("r", "solo"))
        selection = [("m1", "r")]
        got = extend_selection(collection, selection,
                               frozenset({"children", "siblings", "parents"}))
        assert got == selection

    def test_relation_scan_oracle(self):
        collection, _ = scripted_collection(n_nodes=80, seed=13)
        map_id = list(collection.revisions)[0]
        mindmap = collection.latest(map_id)
        ids = mindmap.node_ids()
        selection = [(map_id, ids[5]), (map_id, ids[11])]
        extension = frozenset({"children", "siblings"})
        got = extend_selection(collection, selection, extension)
        assert got[: len(selection)] == selection
        expected = set(selection)
        for _, nid in selection:
            expected.update((map_id, c.id) for c in mindmap.node(nid).children)
            parent = mindmap.parent_id(nid)
            if parent is not None:
                expected.update((map_id, s.id)
                                for s in mindmap.node(parent).children
                                if s.id != nid)
        assert set(got) == expected
        assert len(got) == len(set(got))

    def test_superset_property(self):
        collection, now = scripted_collection(n_nodes=60, seed=5)
        selection = select_nodes(collection, AlgorithmConfig(node_limit=10), now)
        got = extend_selection(collection, selection,
                               frozenset({"children", "siblings", "parents"}))
        assert set(got) >= set(selection)


class TestNodeWeight:
    def test_ln_two_clamps_to_one(self):
        assert node_weight((2, 0, 0, 0), "depth", "ln", "stronger") == 1.0

    def test_sqrt_four(self):
        assert node_weight((4, 0, 0, 0), "depth", "sqrt", "stronger") == 2.0

    def test_abs_weaker_reciprocal(self):
        assert node_weight((3, 0, 0, 0), "depth", "abs", "weaker") == pytest.approx(1 / 3)

    @pytest.mark.parametrize("transform", ["abs", "ln", "log10", "sqrt"])
    @pytest.mark.parametrize("value", range(0, 21))
    def test_clamp_laws(self, transform, value):
        stronger = node_weight((value, 0, 0, 0), "depth", transform, "stronger")
        weaker = node_weight((value, 0, 0, 0), "depth", transform, "weaker")
        assert stronger >= 1.0
        assert 0.0 < weaker <= 1.0

    def test_degenerate_values_weight_one(self):
        for transform in ("ln", "log10"):
            assert node_weight((0, 0, 0, 0), "depth", transform, "weaker") == 1.0
            assert node_weight((1, 0, 0, 0), "depth", transform, "stronger") == 1.0
        assert node_weight((0, 0, 0, 0), "depth", "abs", "weaker") == 1.0

    def test_other_metrics(self):
        assert node_weight((0, 9, 0, 0), "children", "sqrt", "stronger") == 3.0
        assert node_weight((0, 0, 4, 0), "siblings", "abs", "stronger") == 4.0
        assert node_weight((0, 0, 0, 100), "term_count", "log10", "stronger") == 2.0


class TestCombine:
    def test_sum(self):
        assert COMBINERS["sum"]([2, 3]) == 5

    def test_product_max_avg(self):
        assert COMBINERS["product"]([2, 3]) == 6
        assert COMBINERS["max"]([2, 3]) == 3
        assert COMBINERS["avg"]([2, 3]) == 2.5

    @pytest.mark.parametrize("combiner", ["sum", "max", "product", "avg"])
    def test_singleton_identity(self, combiner):
        assert COMBINERS[combiner]([7.5]) == 7.5

    def test_empty(self):
        # no combiner ever sees an empty list: weighting needs a metric
        with pytest.raises(InvalidConfig, match="metric"):
            AlgorithmConfig(node_limit=1, node_weighting=True, metrics=()).validate()


class TestExtractFeatures:
    def test_plain_terms(self):
        collection = single_map_collection("u", node("r", "Academic Search Engines"))
        got = extract_features(collection, [("m1", "r", 1.0)], "terms", False)
        assert got == [("academic", 1.0), ("search", 1.0), ("engines", 1.0)]

    def test_stopword_removal(self):
        collection = single_map_collection("u", node("r", "the cat"))
        got = extract_features(collection, [("m1", "r", 1.0)], "terms", True)
        assert got == [("cat", 1.0)]

    def test_citation_inherits_weight(self):
        corpus = Corpus()
        doc = corpus.ingest_document("Linked Paper Title")
        collection = single_map_collection(
            "u", node("r", "", link="Linked Paper Title"))
        got = extract_features(collection, [("m1", "r", 2.0)], "citations",
                               False, corpus=corpus)
        assert got == [(citation_feature(doc), 2.0)]

    def test_both_streams(self):
        corpus = Corpus()
        doc = corpus.ingest_document("Linked Paper Title")
        collection = single_map_collection(
            "u", node("r", "cancer sun", link="Linked Paper Title"))
        got = extract_features(collection, [("m1", "r", 1.0)], "both",
                               False, corpus=corpus)
        assert ("cancer", 1.0) in got and (citation_feature(doc), 1.0) in got


class TestWeightFeatures:
    def test_tf_only_sums(self):
        got = weight_features([("cancer", 1), ("cancer", 1), ("sun", 1)], "tf_only")
        assert dict(got) == {"cancer": 2, "sun": 1}

    def test_tf_iduf_hand_value(self):
        maps = [MindMap(f"m{i}", node(f"r{i}", "filler")) for i in range(3)]
        maps.append(MindMap("m3", node("r3", "cancer")))
        collection = MindMapCollection("u", revision_chains(maps))
        occurrences = [("cancer", 1.0)] * 3
        [(_, weight)] = weight_features(occurrences, "tf_iduf",
                                        collection=collection)
        assert weight == pytest.approx(3 * math.log(4))

    def test_tf_iduf_everywhere_is_zero(self):
        maps = [MindMap(f"m{i}", node(f"r{i}", "cancer cell")) for i in range(4)]
        collection = MindMapCollection("u", revision_chains(maps))
        got = dict(weight_features([("cancer", 2.0)], "tf_iduf",
                                   collection=collection))
        assert got["cancer"] == 0.0

    def test_tf_idf_uses_corpus(self, corpus3):
        got = dict(weight_features([("quantum", 2.0)], "tf_idf", corpus=corpus3))
        assert got["quantum"] == pytest.approx(2 * math.log(3 / 1))

    def test_unindexed_feature_zero(self, corpus3):
        got = dict(weight_features([("xylophone", 1.0)], "tf_idf", corpus=corpus3))
        assert got["xylophone"] == 0.0

    def test_weight_inheritance_linearity(self):
        base = [("cancer", 1.0), ("sun", 2.0)]
        doubled = [("cancer", 2.0), ("sun", 2.0)]
        a = dict(weight_features(base, "tf_only"))
        b = dict(weight_features(doubled, "tf_only"))
        assert b["cancer"] == 2 * a["cancer"]
        assert b["sun"] == a["sun"]


class TestBuildUserModel:
    def _cfg(self, **kw):
        defaults = dict(feature_type="terms", scheme="tf_only",
                        remove_stopwords=False, model_size=35, store_weights=True)
        defaults.update(kw)
        return AlgorithmConfig(**defaults)

    def test_top_k_sort_oracle(self):
        rng = random.Random(2)
        weighted = [(f"term{i:02d}", rng.choice([0.5, 1.0, 2.0, 3.0]))
                    for i in range(40)]
        model = build_user_model(weighted, self._cfg(), "u")
        expected = sorted(weighted, key=lambda p: (-p[1], p[0]))[:35]
        assert model.features == expected

    def test_k_above_population(self):
        weighted = [("aa", 1.0), ("bb", 2.0)]
        model = build_user_model(weighted, self._cfg(model_size=100), "u")
        assert model.feature_list() == ["bb", "aa"]

    def test_all_zero_weights(self):
        with pytest.raises(NoPositiveFeatures):
            build_user_model([("aa", 0.0), ("bb", 0.0)], self._cfg(), "u")

    def test_unweighted_keeps_order(self):
        weighted = [("low", 1.0), ("high", 5.0)]
        model = build_user_model(weighted, self._cfg(store_weights=False), "u")
        assert model.features == [("high", None), ("low", None)]

    def test_argmax_invariance_under_scaling(self):
        rng = random.Random(9)
        weighted = [(f"t{i}", rng.uniform(0.1, 5)) for i in range(50)]
        base = build_user_model(weighted, self._cfg(store_weights=False), "u")
        scaled = build_user_model([(f, w * 17.0) for f, w in weighted],
                                  self._cfg(store_weights=False), "u")
        assert base.features == scaled.features


def combined_oracle(collection, now):
    """Full pipeline reimplemented naively for the combined algorithm."""
    from mindrec.mindmap import node_depth, node_stats
    from mindrec.text import tokenize

    cfg = AlgorithmConfig(node_limit=75, day_window=90, event_kind="moved",
                          visibility="visible_only")
    selection = selection_oracle(collection, cfg, now)
    if len(selection) < 75:
        cfg = AlgorithmConfig(node_limit=75, day_window=90, event_kind="any",
                              visibility="visible_only")
        selection = selection_oracle(collection, cfg, now)

    extended = list(selection)
    have = set(selection)
    for m, n in selection:
        mm = collection.latest(m)
        for c in mm.node(n).children:
            if (m, c.id) not in have:
                have.add((m, c.id))
                extended.append((m, c.id))
        parent = mm.parent_id(n)
        if parent is not None:
            for s in mm.node(parent).children:
                if s.id != n and (m, s.id) not in have:
                    have.add((m, s.id))
                    extended.append((m, s.id))

    tf = {}
    for m, n in extended:
        mm = collection.latest(m)
        depth = node_depth(mm, n)
        siblings = node_stats(mm, n)[1]
        w = 0.0
        for v in (depth, siblings):
            t = math.log(v) if v > 0 else 0.0
            w += max(1.0, t) if t > 0 else 1.0
        for token in tokenize(mm.node(n).text, remove_stopwords=True):
            tf[token] = tf.get(token, 0.0) + w

    udf = {}
    for mm in collection.latest_maps():
        seen = set()
        for nid in mm.node_ids():
            seen.update(tokenize(mm.node(nid).text))
        for t in seen:
            udf[t] = udf.get(t, 0) + 1
    n_maps = len(collection.revisions)
    weighted = [(t, v * math.log(n_maps / udf[t])) for t, v in tf.items()]
    weighted = [(t, w) for t, w in weighted if w > 0]
    weighted.sort(key=lambda p: (-p[1], p[0]))
    return [t for t, _ in weighted[:35]]


class TestCombinedAlgorithm:
    def test_matches_pipeline_oracle(self, corpus3):
        collection, now = scripted_collection()
        model = build_model(collection, corpus3, preset("docear_combined"), now)
        assert model.feature_list() == combined_oracle(collection, now)
        assert all(w is None for _, w in model.features)
        assert len(model.features) <= 35

    def test_fallback_without_moved_events(self, corpus3):
        root = node("r", "quantum research", children=[
            node("a", "neural ranking"), node("b", "citation graph")])
        now = 1_000 * DAY_MS
        events = [NodeEvent("m1", nid, "created", now - DAY_MS)
                  for nid in ("r", "a", "b")]
        # second map keeps TF-IDuF away from ln(1) = 0 on every term
        other = MindMap("m2", node("r2", "unrelated filler"))
        collection = MindMapCollection(
            "u", revision_chains([MindMap("m1", root), other]), events=events)
        model = build_model(collection, corpus3, preset("docear_combined"), now)
        assert len(model.features) > 0  # fallback (kind=any) engaged

    def test_preset_through_generic_pipeline(self, corpus3):
        root = node("r", "quantum research", children=[
            node("a", "neural ranking"), node("b", "citation graph")])
        now = 1_000 * DAY_MS
        events = [NodeEvent("m1", nid, "created", now - DAY_MS)
                  for nid in ("r", "a", "b")]
        other = MindMap("m2", node("r2", "unrelated filler"))
        collection = MindMapCollection(
            "u", revision_chains([MindMap("m1", root), other]), events=events)
        model = build_model(collection, corpus3, preset("docear_combined"), now)
        assert model == build_model(collection, corpus3, preset("docear_combined"), now)
        assert model.features

    def test_stopword_only_text(self, corpus3):
        root = node("r", "the and of", children=[node("a", "to from")])
        now = 1_000 * DAY_MS
        events = [NodeEvent("m1", nid, "created", now - DAY_MS)
                  for nid in ("r", "a")]
        collection = single_map_collection("u", root, events=events)
        with pytest.raises(NoPositiveFeatures):
            build_model(collection, corpus3, preset("docear_combined"), now)

    def test_determinism(self, corpus3):
        collection, now = scripted_collection()
        a = build_model(collection, corpus3, preset("docear_combined"), now)
        b = build_model(collection, corpus3, preset("docear_combined"), now)
        assert a.features == b.features
