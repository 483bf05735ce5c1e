"""User-model construction pipeline stages.

select nodes -> extend -> weight nodes -> extract features -> weight
features -> truncate; ``experiment.build_model`` runs them in that order,
and decides the combined algorithm's any-event fallback.  The combined
algorithm is one configuration of it (the ``docear_combined`` preset).
"""

import math
from dataclasses import dataclass

from .corpus import citation_feature
from .errors import EmptyCollection, NoPositiveFeatures
from .mindmap import is_visible, node_depth
from .text import tokenize

DAY_MS = 24 * 60 * 60 * 1000

TRANSFORMS = {
    "abs": float,
    "ln": math.log,
    "log10": math.log10,
    "sqrt": math.sqrt,
}


def _sibling_count(mindmap, node_id):
    parent = mindmap.parent_id(node_id)
    return 0 if parent is None else len(mindmap.node(parent).children) - 1


NODE_METRICS = {
    "depth": node_depth,
    "children": lambda mindmap, node_id: len(mindmap.node(node_id).children),
    "siblings": _sibling_count,
    "term_count": lambda mindmap, node_id: len(tokenize(mindmap.node(node_id).text)),
}
COMBINERS = {
    "sum": sum,
    "max": max,
    "product": math.prod,
    "avg": lambda scores: sum(scores) / len(scores),
}


@dataclass
class UserModel:
    """The query retrieval reads as it is: [(feature, weight)], the
    heaviest feature first; a model that stores no weights holds 1.0."""
    features: list

    def feature_list(self):
        return [f for f, _ in self.features]


def select_nodes(collection, cfg, now):
    """Pick the (map_id, node_id) pairs an AlgorithmConfig qualifies.

    Nodes are ordered by their latest matching event, newest first, with
    (map_id, node_id) as the tie break, then truncated to node_limit.
    Selects once; ``experiment.build_model`` owns the any-event fallback.
    """
    if not collection.maps:
        raise EmptyCollection(f"user {collection.user_id!r} has no mind maps")

    events = collection.events
    if cfg.event_kind != "any":
        events = [e for e in events if e.kind == cfg.event_kind]
    if cfg.day_window is not None:
        cutoff = now - cfg.day_window * DAY_MS
        events = [e for e in events if e.at >= cutoff]

    if cfg.map_limit is not None:
        latest_per_map = {e.map_id: e.at for e in events}  # events ascend by time
        kept = sorted(latest_per_map, key=lambda m: (-latest_per_map[m], m))
        kept = set(kept[: cfg.map_limit])
        events = [e for e in events if e.map_id in kept]

    latest_event = {(e.map_id, e.node_id): e.at for e in events}

    selected = []
    for (map_id, node_id), at in latest_event.items():
        latest = collection.maps.get(map_id)
        if latest is None or node_id not in latest:
            continue
        if cfg.visibility != "all":
            visible = is_visible(latest, node_id)
            if cfg.visibility == "visible_only" and not visible:
                continue
            if cfg.visibility == "invisible_only" and visible:
                continue
        selected.append((at, map_id, node_id))

    selected.sort(key=lambda t: (-t[0], t[1], t[2]))
    result = [(m, n) for _, m, n in selected]
    if cfg.node_limit is not None:
        result = result[: cfg.node_limit]
    return result


def extend_selection(collection, selection, extension):
    """Append relatives (children, siblings, parents) of each selected node.

    Originals keep their positions; per original the relatives follow in
    the fixed order children, siblings, parents; duplicates keep their
    first occurrence.
    """
    if not extension:
        return list(selection)
    seen = set(selection)
    result = list(selection)

    def add(map_id, node_id):
        key = (map_id, node_id)
        if key not in seen:
            seen.add(key)
            result.append(key)

    for map_id, node_id in selection:
        latest = collection.maps[map_id]
        node = latest.node(node_id)
        parent = latest.parent_id(node_id)
        if "children" in extension:
            for child in node.children:
                add(map_id, child.id)
        if "siblings" in extension and parent is not None:
            for sibling in latest.node(parent).children:
                if sibling.id != node_id:
                    add(map_id, sibling.id)
        if "parents" in extension and parent is not None:
            add(map_id, parent)
    return result


def node_weight(value, transform, direction):
    """Weight one node from the value of a node metric, clamped around 1.

    stronger: max(1, f(v)); weaker: min(1, 1/f(v)); degenerate f(v) -> 1.
    """
    transformed = TRANSFORMS[transform](value) if value > 0 else 0.0
    if transformed <= 0.0:
        return 1.0
    if direction == "stronger":
        return max(1.0, transformed)
    return min(1.0, 1.0 / transformed)


def weigh_nodes(collection, selection, cfg):
    """(map_id, node_id, weight) per selected node; every weight is 1
    unless cfg.node_weighting."""
    if not cfg.node_weighting:
        return [(map_id, node_id, 1.0) for map_id, node_id in selection]
    weighted = []
    for map_id, node_id in selection:
        latest = collection.maps[map_id]
        scores = [node_weight(NODE_METRICS[m](latest, node_id), cfg.transform, cfg.direction)
                  for m in cfg.metrics]
        weighted.append((map_id, node_id, COMBINERS[cfg.combiner](scores)))
    return weighted


def extract_features(collection, weighted_nodes, feature_type, remove_stopwords,
                     corpus=None):
    """Emit (feature, occurrence_weight) pairs; features inherit node weight.

    Terms come from the node text through the shared tokenizer; citations
    come from node links looked up in the frozen corpus.
    """
    occurrences = []
    for map_id, node_id, weight in weighted_nodes:
        node = collection.maps[map_id].node(node_id)
        if feature_type in ("terms", "both"):
            for token in tokenize(node.text, remove_stopwords=remove_stopwords):
                occurrences.append((token, weight))
        if feature_type in ("citations", "both") and node.link:
            occurrences.append((citation_feature(corpus.lookup(node.link)), weight))
    return occurrences


def _user_document_frequency(collection, corpus):
    """feature -> number of the user's latest-revision maps containing it."""
    udf = {}
    for mindmap in collection.maps.values():
        present = set()
        for node_id in mindmap.node_ids():
            node = mindmap.node(node_id)
            present.update(tokenize(node.text))
            if node.link and corpus is not None:
                present.add(citation_feature(corpus.lookup(node.link)))
        for feature in present:
            udf[feature] = udf.get(feature, 0) + 1
    return udf


def weight_features(occurrences, scheme, corpus=None, collection=None):
    """Aggregate occurrences per feature and apply the weighting scheme.

    tf_only/cc_only: summed occurrence weights.  tf_idf/cc_idf: scaled by
    ln(N/df) over the global corpus.  tf_iduf: scaled by ln(M/udf) over
    the user's own mind maps.
    """
    tf = {}
    for feature, weight in occurrences:
        tf[feature] = tf.get(feature, 0.0) + weight

    if scheme in ("tf_only", "cc_only"):
        return sorted(tf.items())
    if scheme in ("tf_idf", "cc_idf"):
        return [(feature, value * corpus.idf(feature)) for feature, value in sorted(tf.items())]
    if scheme == "tf_iduf":
        udf = _user_document_frequency(collection, corpus)
        n_maps = len(collection.maps)
        return [(feature, value * math.log(n_maps / udf[feature]) if feature in udf else 0.0)
                for feature, value in sorted(tf.items())]
    raise ValueError(f"unknown weighting scheme {scheme!r}")


def build_user_model(weighted_features, cfg):
    """Keep the top model_size positive-weight features, weight-descending.
    Without store_weights each keeps that order but weighs 1.0."""
    positive = [(f, w) for f, w in weighted_features if w > 0]
    if not positive:
        raise NoPositiveFeatures("every candidate feature has weight <= 0")
    positive.sort(key=lambda pair: (-pair[1], pair[0]))
    kept = positive[: cfg.model_size]
    return UserModel(kept if cfg.store_weights else [(f, 1.0) for f, _ in kept])
