"""Offline evaluation (citation-removal ground truth) and the online
metric suite computed from recommendation event logs."""

import math
from dataclasses import dataclass
from operator import attrgetter

from .matching import content_pool
from .mindmap import MindMapCollection, copy_mindmap

REC_EVENT_KINDS = ("shown", "clicked", "linked", "annotated", "cited")


@dataclass(slots=True)
class RecEvent:
    set_id: str
    doc_id: str
    user_id: str
    kind: str
    at: int


@dataclass(slots=True)
class SetRating:
    set_id: str
    user_id: str
    rating: int
    at: int


@dataclass
class OfflineResult:
    user_id: str
    algorithm: str
    target_rank: int | None
    p_at_3: int
    p_at_10: int
    mrr_term: float
    ndcg: float


def compute_ndcg(candidate_ids, relevant_ids):
    """Binary-gain nDCG of a ranked candidate list against a relevant set.

    DCG = sum gain_i / log2(i + 1) over 1-based positions; the ideal list
    packs every relevant item into the top positions.
    """
    relevant = set(relevant_ids)
    dcg = sum(
        1.0 / math.log2(i + 1)
        for i, doc_id in enumerate(candidate_ids, start=1)
        if doc_id in relevant
    )
    ideal_hits = min(len(relevant), len(candidate_ids))
    idcg = sum(1.0 / math.log2(i + 1) for i in range(1, ideal_hits + 1))
    return dcg / idcg if idcg else 0.0


def offline_evaluate_user(collection, corpus, config):
    """Remove the most recently added citation (and everything newer),
    rebuild the model, and check where the removed paper ranks.  A map
    whose root is newer than that citation is left out whole.  The corpus
    must be frozen over the collection.  A user who cites nothing gets
    None."""
    # A node came to be at its latest created event, else at its CREATED time.
    created = {(e.map_id, e.node_id): e.at for e in collection.events if e.kind == "created"}
    born, citations = {}, []  # citations: (-born, map_id, node_id, link)
    for map_id, mindmap in collection.maps.items():
        for node_id in mindmap.node_ids():
            node = mindmap.node(node_id)
            at = born[map_id, node_id] = created.get((map_id, node_id), node.created_at)
            if node.link:
                citations.append((-at, map_id, node_id, node.link))
    if not citations:
        return None
    citations.sort()  # newest first, ties by map id, then node id
    _, target_map, target_node, _ = citations[0]
    target_at = born[target_map, target_node]
    relevant = list(dict.fromkeys(corpus.lookup(link) for *_, link in citations[:10]))
    target_doc = relevant[0]

    pruned_maps = []
    for map_id, mindmap in collection.maps.items():
        drop = {node_id for node_id in mindmap.node_ids() if born[map_id, node_id] > target_at}
        if mindmap.root.id in drop:
            continue
        strip = {target_node} if map_id == target_map else set()
        pruned_maps.append(copy_mindmap(mindmap, drop_node_ids=drop, strip_link_ids=strip))
    surviving = {(m.map_id, n) for m in pruned_maps for n in m.node_ids()}
    events = [e for e in collection.events
              if (e.map_id, e.node_id) in surviving and e.at <= target_at]
    pruned = MindMapCollection(collection.user_id, {m.map_id: [m] for m in pruned_maps},
                               events=events)

    candidate_ids = [doc_id for doc_id, _ in content_pool(pruned, corpus, config, target_at)]
    rank = candidate_ids.index(target_doc) + 1 if target_doc in candidate_ids else None
    return OfflineResult(
        user_id=collection.user_id,
        algorithm=config.algorithm,
        target_rank=rank,
        p_at_3=1 if rank is not None and rank <= 3 else 0,
        p_at_10=1 if rank is not None and rank <= 10 else 0,
        mrr_term=1.0 / rank if rank is not None else 0.0,
        ndcg=compute_ndcg(candidate_ids, relevant),
    )


def online_metrics(events, ratings=(), group_of=None):
    """CTR family, link/annotate/cite-through rates, and mean rating.

    `events` is a replayed log (`cli.replay_event_log`): each (set_id,
    doc_id, kind) once, and every click after its set's shown row for the
    same user.  `group_of(record)` gives the group of an event or a
    rating; without it every record is in group "all".  Returns [(group,
    metric, value, n)] rows, none for an empty log.
    """
    group_of = group_of or (lambda record: "all")

    # group -> ({kind: count}, {set_id: [shown, clicked]}, {user_id: [shown, clicked]})
    tallies = {}
    for e in events:
        group = group_of(e)
        tally = tallies.get(group)
        if tally is None:
            tally = tallies[group] = (dict.fromkeys(REC_EVENT_KINDS, 0), {}, {})
        kinds, per_set, per_user = tally
        kinds[e.kind] += 1
        if e.kind in ("shown", "clicked"):
            slot = 0 if e.kind == "shown" else 1
            per_set.setdefault(e.set_id, [0, 0])[slot] += 1
            per_user.setdefault(e.user_id, [0, 0])[slot] += 1
    rated = {}  # group -> [rating sum, ratings]
    for r in ratings:
        total = rated.setdefault(group_of(r), [0, 0])
        total[0] += r.rating
        total[1] += 1

    report = []
    for group in sorted(tallies):
        kinds, per_set, per_user = tallies[group]
        n_shown = kinds["shown"]  # >= 1: a replayed click's group holds its shown row
        report += [
            (group, "ctr", kinds["clicked"] / n_shown, n_shown),
            (group, "ctr_set", sum(c / s for s, c in per_set.values()) / len(per_set),
             len(per_set)),
            (group, "ctr_user", sum(c / s for s, c in per_user.values()) / len(per_user),
             len(per_user)),
            (group, "ltr", kinds["linked"] / n_shown, n_shown),
            (group, "atr", kinds["annotated"] / n_shown, n_shown),
            (group, "citr", kinds["cited"] / n_shown, n_shown),
        ]
        if group in rated:
            rating_sum, n_ratings = rated[group]
            report.append((group, "mean_rating", rating_sum / n_ratings, n_ratings))
    return report


def reiteration_report(events):
    """CTR by how many times an item was re-shown to the same user.

    `events` is a replayed log (`cli.replay_event_log`).  A click at
    iteration n is 'oblivious' when the same user already clicked the
    same item at an earlier iteration.  Returns rows
    {iteration, shown, clicks, ctr, oblivious, first_clicks, ctr_first}.
    """
    clicked = {(e.user_id, e.doc_id, e.set_id) for e in events if e.kind == "clicked"}
    showings = {}  # (user_id, doc_id) -> set_ids in showing order
    shown = [e for e in events if e.kind == "shown"]
    shown.sort(key=attrgetter("set_id"))
    shown.sort(key=attrgetter("at"))  # stable, so by (at, set_id)
    for e in shown:
        showings.setdefault((e.user_id, e.doc_id), []).append(e.set_id)

    per_iteration = {}
    for (user_id, doc_id), sets in showings.items():
        clicked_before = False
        for iteration, set_id in enumerate(sets, start=1):
            row = per_iteration.setdefault(iteration,
                                           {"shown": 0, "clicks": 0, "oblivious": 0})
            row["shown"] += 1
            if (user_id, doc_id, set_id) in clicked:
                row["clicks"] += 1
                if clicked_before:
                    row["oblivious"] += 1
                clicked_before = True

    report = []
    for iteration in sorted(per_iteration):
        row = per_iteration[iteration]
        first_clicks = row["clicks"] - row["oblivious"]
        report.append({
            "iteration": iteration,
            "shown": row["shown"],
            "clicks": row["clicks"],
            "ctr": row["clicks"] / row["shown"],
            "oblivious": row["oblivious"],
            "first_clicks": first_clicks,
            "ctr_first": first_clicks / row["shown"],
        })
    return report
