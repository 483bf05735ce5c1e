import itertools
import math
import random
from dataclasses import replace

import pytest

from mindrec.corpus import Corpus, citation_feature
from mindrec.errors import EmptyCollection, InvalidConfig, NoPositiveFeatures
from mindrec.experiment import AlgorithmConfig, build_model, preset
from mindrec.mindmap import MindMap, MindMapCollection, NodeEvent, is_visible, revision_chains
from mindrec.usermodel import (
    COMBINERS,
    DAY_MS,
    NODE_METRICS,
    build_user_model,
    extend_selection,
    extract_features,
    node_weight,
    select_nodes,
    weigh_nodes,
    weight_features,
)

from conftest import WORDS, node, scripted_collection, single_map_collection


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
        if m not in collection.maps or n not in collection.maps[m]:
            continue
        vis = is_visible(collection.maps[m], n)
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

    @pytest.mark.parametrize("cfg", [AlgorithmConfig(node_limit=10),
                                     AlgorithmConfig(node_limit=10, visibility="visible_only")],
                             ids=["all", "visible_only"])
    def test_events_of_a_map_or_node_the_user_lacks_skipped(self, cfg):
        # A sidecar may name a map the user has no file for, or a node the
        # latest revision dropped; both are newer than every kept event.
        tiny = self._tiny()
        collection = single_map_collection("u", tiny.maps["m1"].root, events=[
            *tiny.events, NodeEvent("m9", "r", "created", 400),
            NodeEvent("m1", "gone", "edited", 500)])
        got = select_nodes(collection, cfg, now=1000)
        assert got == selection_oracle(collection, cfg, 1000) == \
            [("m1", "b"), ("m1", "a"), ("m1", "r")]

    def test_node_deleted_by_a_later_revision_skipped(self):
        # A derived log keeps the first revision's created event of a node
        # that a later revision deleted.
        first = MindMap("m1", node("r", "alpha", children=[node("a", "beta", created_at=50),
                                                          node("gone", "gamma", created_at=90)]))
        second = MindMap("m1", node("r", "alpha", children=[node("a", "beta", created_at=50)]),
                         revision=2, saved_at=200)
        collection = MindMapCollection("u", revision_chains([first, second]))
        assert ("m1", "gone") in {(e.map_id, e.node_id) for e in collection.events}
        cfg = AlgorithmConfig(node_limit=10)
        got = select_nodes(collection, cfg, now=1000)
        assert got == selection_oracle(collection, cfg, 1000) == [("m1", "a"), ("m1", "r")]


class _Stop(Exception):
    pass


class TestAnyEventFallback:
    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_random_configs(self, monkeypatch, seed):
        # build_model's selection, as extend_selection receives it, against
        # the oracle: event kind any when the config's own selection is short
        from mindrec import experiment

        def recording(collection, selection, extension):
            seen.append(selection)
            raise _Stop

        monkeypatch.setattr(experiment, "extend_selection", recording)
        rng = random.Random(seed)
        branches = set()
        for n_nodes in (8, 40, 120, 320):
            collection, now = scripted_collection(n_nodes=n_nodes, seed=seed)
            for node_limit, event_kind in itertools.product(
                    (1, 5, 25, 75), ("created", "edited", "moved")):
                cfg = AlgorithmConfig(
                    node_limit=node_limit, event_kind=event_kind, fallback_any=True,
                    day_window=rng.choice([None, 7, 30, 60, 90, 180]),
                    visibility=rng.choice(["all", "visible_only", "invisible_only"]))
                own = selection_oracle(collection, cfg, now)
                short = len(own) < node_limit
                expected = selection_oracle(collection, replace(cfg, event_kind="any"),
                                            now) if short else own
                seen = []
                with pytest.raises(_Stop):
                    build_model(collection, None, cfg, now)
                assert seen == [expected], cfg
                branches.add(short)
        assert branches == {False, True}

    def test_select_nodes_never_falls_back(self):
        collection, now = scripted_collection()
        cfg = AlgorithmConfig(node_limit=75, event_kind="moved", fallback_any=True)
        got = select_nodes(collection, cfg, now)
        assert got == selection_oracle(collection, cfg, now)
        assert len(got) < 75  # short, so build_model would select again


class TestExtendSelection:
    def test_empty_extension_identity(self):
        collection, _ = scripted_collection(n_nodes=40)
        selection = [(m, n) for m in list(collection.maps)[:1]
                     for n in collection.maps[m].node_ids()[:3]]
        assert extend_selection(collection, selection, frozenset()) == selection

    def test_lonely_root_unchanged(self):
        collection = single_map_collection("u", node("r", "solo"))
        selection = [("m1", "r")]
        got = extend_selection(collection, selection,
                               frozenset({"children", "siblings", "parents"}))
        assert got == selection

    def test_relation_scan_oracle(self):
        collection, _ = scripted_collection(n_nodes=80, seed=13)
        map_id = list(collection.maps)[0]
        mindmap = collection.maps[map_id]
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
        assert node_weight(2, "ln", "stronger") == 1.0

    def test_sqrt_four(self):
        assert node_weight(4, "sqrt", "stronger") == 2.0

    def test_abs_weaker_reciprocal(self):
        assert node_weight(3, "abs", "weaker") == pytest.approx(1 / 3)

    @pytest.mark.parametrize("transform", ["abs", "ln", "log10", "sqrt"])
    @pytest.mark.parametrize("value", range(0, 21))
    def test_clamp_laws(self, transform, value):
        stronger = node_weight(value, transform, "stronger")
        weaker = node_weight(value, transform, "weaker")
        assert stronger >= 1.0
        assert 0.0 < weaker <= 1.0

    def test_degenerate_values_weight_one(self):
        for transform in ("ln", "log10"):
            assert node_weight(0, transform, "weaker") == 1.0
            assert node_weight(1, transform, "stronger") == 1.0
        assert node_weight(0, "abs", "weaker") == 1.0

    def test_other_metrics(self):
        m = MindMap("s", node("r", " ".join(["term"] * 100), children=[
            node("nine", children=[node(f"c{i}") for i in range(9)]),
            *(node(f"s{i}") for i in range(4))]))
        assert node_weight(NODE_METRICS["children"](m, "nine"), "sqrt", "stronger") == 3.0
        assert node_weight(NODE_METRICS["siblings"](m, "s0"), "abs", "stronger") == 4.0
        assert node_weight(NODE_METRICS["term_count"](m, "r"), "log10", "stronger") == 2.0


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


def random_weighing_map(rng, map_id):
    """A random map of 1 to 40 nodes, wide (parents drawn among the first
    nodes), deep (among the last) or mixed, some nodes folded, and its
    parent links: {node_id: parent id, None for the root}."""
    words = WORDS + ["the", "of", "and", "a", "x", "C++", "2017"]  # stop words, short tokens
    shape = rng.choice(["wide", "deep", "mixed"])
    nodes, parents = [], {}
    for i in range(rng.randint(1, 40)):
        text = " ".join(rng.choice(words) for _ in range(rng.randint(0, 5)))
        each = node(f"n{i}", text, folded=rng.random() < 0.2)
        pool = nodes[:3] if shape == "wide" else nodes[-2:] if shape == "deep" else nodes
        parents[each.id] = None
        if pool:
            parent = rng.choice(pool)
            parent.children.append(each)
            parents[each.id] = parent.id
        nodes.append(each)
    return MindMap(map_id, nodes[0]), parents


def reference_weight(mindmap, parents, node_id, cfg):
    """One node's weight, written from the README's node metrics and weight
    rule: depth is parent steps from the root, children the node's child
    count, siblings its parent's child count minus one (0 for the root),
    term_count the tokenizer's terms with stop words kept; f is the
    transform, and a value of 0 or f(value) <= 0 weighs 1."""
    from mindrec.text import tokenize

    depth, ancestor = 0, parents[node_id]
    while ancestor is not None:
        depth, ancestor = depth + 1, parents[ancestor]
    parent = parents[node_id]
    measured = {
        "depth": depth,
        "children": len(mindmap.node(node_id).children),
        "siblings": 0 if parent is None else len(mindmap.node(parent).children) - 1,
        "term_count": len(tokenize(mindmap.node(node_id).text)),
    }
    f = {"abs": abs, "ln": math.log, "log10": math.log10, "sqrt": math.sqrt}[cfg.transform]
    scores = []
    for metric in cfg.metrics:
        value = measured[metric]
        if value == 0 or f(value) <= 0:
            scores.append(1.0)
        elif cfg.direction == "stronger":
            scores.append(max(1.0, f(value)))
        else:
            scores.append(min(1.0, 1 / f(value)))
    total, product = 0.0, 1.0
    for score in scores:
        total += score
        product *= score
    return {"sum": total, "max": max(scores), "product": product,
            "avg": total / len(scores)}[cfg.combiner]


class TestWeighNodesMatchesReference:
    def test_random_trees(self):
        # every ordered choice of metrics, each transform, direction and combiner
        rng = random.Random(25)
        names = ("depth", "children", "siblings", "term_count")
        orders = [p for k in range(1, 5) for p in itertools.permutations(names, k)]
        for metrics, transform, direction, combiner in itertools.product(
                orders, ("abs", "ln", "log10", "sqrt"), ("stronger", "weaker"),
                ("sum", "max", "product", "avg")):
            maps = [random_weighing_map(rng, f"m{i}") for i in range(rng.randint(1, 2))]
            collection = MindMapCollection("u", revision_chains([m for m, _ in maps]),
                                           events=[])
            everything = [(m.map_id, n) for m, _ in maps for n in m.node_ids()]
            selection = rng.sample(everything, rng.randint(1, len(everything)))
            cfg = AlgorithmConfig(node_limit=1, node_weighting=True, metrics=metrics,
                                  transform=transform, direction=direction, combiner=combiner)
            links = {m.map_id: parents for m, parents in maps}
            expected = [(m, n, reference_weight(collection.maps[m], links[m], n, cfg))
                        for m, n in selection]
            assert weigh_nodes(collection, selection, cfg) == expected, cfg


@pytest.mark.parametrize("metrics, per_node", [
    (("depth", "siblings"), 0), (("children", "term_count"), 1),
], ids=["depth_siblings", "children_term_count"])
def test_weighing_tokenizes_only_for_term_count(monkeypatch, metrics, per_node):
    # the combined algorithm's depth+siblings once tokenized every weighted node
    from mindrec import mindmap, text, usermodel

    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return text.tokenize(*args, **kwargs)
    for module in (usermodel, mindmap):
        if hasattr(module, "tokenize"):
            monkeypatch.setattr(module, "tokenize", counting)
    collection, _ = scripted_collection(n_nodes=40)
    selection = [(m, n) for m, latest in collection.maps.items() for n in latest.node_ids()]
    cfg = AlgorithmConfig(node_limit=75, node_weighting=True, metrics=metrics, transform="ln")
    weigh_nodes(collection, selection, cfg)
    assert len(calls) == per_node * len(selection)


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

    def test_unknown_scheme(self):
        with pytest.raises(ValueError, match="unknown weighting scheme 'bm25'"):
            weight_features([("cancer", 1.0)], "bm25")

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
        model = build_user_model(weighted, self._cfg())
        expected = sorted(weighted, key=lambda p: (-p[1], p[0]))[:35]
        assert model.features == expected

    def test_k_above_population(self):
        weighted = [("aa", 1.0), ("bb", 2.0)]
        model = build_user_model(weighted, self._cfg(model_size=100))
        assert model.feature_list() == ["bb", "aa"]

    def test_all_zero_weights(self):
        with pytest.raises(NoPositiveFeatures):
            build_user_model([("aa", 0.0), ("bb", 0.0)], self._cfg())

    def test_unweighted_keeps_order(self):
        weighted = [("low", 1.0), ("high", 5.0)]
        model = build_user_model(weighted, self._cfg(store_weights=False))
        assert model.features == [("high", 1.0), ("low", 1.0)]

    def test_argmax_invariance_under_scaling(self):
        rng = random.Random(9)
        weighted = [(f"t{i}", rng.uniform(0.1, 5)) for i in range(50)]
        base = build_user_model(weighted, self._cfg(store_weights=False))
        scaled = build_user_model([(f, w * 17.0) for f, w in weighted],
                                  self._cfg(store_weights=False))
        assert base.features == scaled.features


def combined_oracle(collection, now):
    """Full pipeline reimplemented naively for the combined algorithm."""
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
        mm = collection.maps[m]
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
        mm = collection.maps[m]
        depth, ancestor = 0, mm.parent_id(n)
        while ancestor is not None:
            depth, ancestor = depth + 1, mm.parent_id(ancestor)
        parent = mm.parent_id(n)
        siblings = 0 if parent is None else len(mm.node(parent).children) - 1
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
    n_maps = len(collection.maps)
    weighted = [(t, v * math.log(n_maps / udf[t])) for t, v in tf.items()]
    weighted = [(t, w) for t, w in weighted if w > 0]
    weighted.sort(key=lambda p: (-p[1], p[0]))
    return [t for t, _ in weighted[:35]]


class TestCombinedAlgorithm:
    def test_matches_pipeline_oracle(self, corpus3):
        collection, now = scripted_collection()
        model = build_model(collection, corpus3, preset("docear_combined"), now)
        assert model.feature_list() == combined_oracle(collection, now)
        assert all(w == 1.0 for _, w in model.features)
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
