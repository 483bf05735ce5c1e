"""Reference computations, made from the generator's records alone.

The scorer follows the documented retrieval definition: a document's
score is the sum, over the query's features in query order, of
``weight * tf * ln(N / df)``; documents scoring 0 are left out and ties
go to the smaller ``doc_id`` string.  Scores are exhaustive: no top-k
cut, no pruning, and posting lists built from the generator's records
rather than from the program's index.
"""

import heapq
import math
import re

_SPLIT = re.compile(r"[^0-9a-z]+")
CITATION_PREFIX = "citation:"


def tokenize(text):
    """Lowercase, split on anything but a-z and 0-9, keep tokens of 2+."""
    return [t for t in _SPLIT.split(text.lower()) if len(t) >= 2]


class ReferenceIndex:
    """Documents as feature -> tf dicts, numbered as the corpus file orders
    them: line i is doc_<i+1> (the generator only cites earlier lines)."""

    def __init__(self, docs, extra_docs=0):
        ids = {doc["title"]: f"doc_{i + 1}" for i, doc in enumerate(docs)}
        self.postings = {}
        for i, doc in enumerate(docs):
            tf = {}
            for token in tokenize(doc["title"]):
                tf[token] = tf.get(token, 0) + 1
            for term in doc["terms"]:
                tf[term.lower()] = tf.get(term.lower(), 0) + 1
            for title in doc["citations"]:
                tf[CITATION_PREFIX + ids[title]] = 1
            for feature, n in tf.items():
                self.postings.setdefault(feature, []).append((f"doc_{i + 1}", n))
        # Documents minted for citations of titles outside the corpus have
        # no features but count towards N.
        self.n_docs = len(docs) + extra_docs

    def idf(self, feature):
        df = len(self.postings.get(feature, ()))
        return math.log(self.n_docs / df) if df else 0.0

    def rank(self, query, top=None):
        """[(doc_id, score)] for `query`, a list of (feature, weight) pairs;
        the best `top` of them when `top` is given.

        Every document's score is accumulated in query-feature order, the
        same order a per-document loop would add the terms in, so the
        floats are exact; nothing is pruned before every score is known.
        """
        scores = {}
        get = scores.get
        for feature, weight in query:
            idf = self.idf(feature)
            if idf == 0.0:
                continue
            for doc_id, n in self.postings[feature]:
                scores[doc_id] = get(doc_id, 0.0) + weight * n * idf
        keyed = ((-s, doc_id) for doc_id, s in scores.items() if s != 0.0)
        ranked = sorted(keyed) if top is None else heapq.nsmallest(top, keyed)
        return [(doc_id, -s) for s, doc_id in ranked]


def all_terms_query(texts):
    """The `all_maps_all_terms` query for one user: every token of every
    node, one feature each with weight 1 (weights are not stored), ordered
    by occurrence count descending, then token."""
    counts = {}
    for text in texts:
        for token in tokenize(text):
            counts[token] = counts.get(token, 0) + 1
    return [(f, 1.0) for f, _ in sorted(counts.items(), key=lambda p: (-p[1], p[0]))]


def offline_row(ranking, target_doc, pool_size=50):
    """Expected offline-eval fields for a user with one cited document:
    (target_rank, p_at_3, p_at_10, mrr, ndcg) as the CSV prints them."""
    pool = [doc_id for doc_id, _ in ranking[:pool_size]]
    if target_doc not in pool:
        return ("", "0", "0", "0.000000", "0.000000")
    rank = pool.index(target_doc) + 1
    return (str(rank), str(int(rank <= 3)), str(int(rank <= 10)),
            f"{1.0 / rank:.6f}", f"{1.0 / math.log2(rank + 1):.6f}")


def online_expectations(records):
    """Expected `metrics` rows per grouping and `reiterate` rows, computed
    from the canonical facts the online generator recorded."""
    sets, kinds = records["sets"], records["kinds"]

    def rates(set_ids):
        shown = clicked = 0
        counts = {k: 0 for k in ("linked", "annotated", "cited")}
        set_ctrs, per_user = [], {}
        for set_id in set_ids:
            rec = sets[set_id]
            s = len(rec["docs"])
            c = sum((set_id, d) in kinds["clicked"] for d in rec["docs"])
            for kind in counts:
                counts[kind] += sum((set_id, d) in kinds[kind] for d in rec["docs"])
            shown += s
            clicked += c
            set_ctrs.append(c / s)
            user = per_user.setdefault(rec["user"], [0, 0])
            user[0] += s
            user[1] += c
        user_ctrs = [c / s for s, c in per_user.values()]
        return [
            ("ctr", clicked / shown, shown),
            ("ctr_set", sum(set_ctrs) / len(set_ctrs), len(set_ctrs)),
            ("ctr_user", sum(user_ctrs) / len(user_ctrs), len(user_ctrs)),
            ("ltr", counts["linked"] / shown, shown),
            ("atr", counts["annotated"] / shown, shown),
            ("citr", counts["cited"] / shown, shown),
        ]

    def grouped(key):
        groups = {}
        for set_id, rec in sets.items():
            groups.setdefault(rec[key], []).append(set_id)
        return [(g, m, v, n) for g in sorted(groups) for m, v, n in rates(groups[g])]

    showings = {}
    for set_id in sorted(sets, key=lambda s: (sets[s]["at"], s)):
        for doc_id in sets[set_id]["docs"]:
            showings.setdefault((sets[set_id]["user"], doc_id), []).append(set_id)
    iterations = {}
    for (_, doc_id), set_ids in showings.items():
        clicked_before = False
        for i, set_id in enumerate(set_ids, start=1):
            row = iterations.setdefault(i, [0, 0, 0])
            row[0] += 1
            if (set_id, doc_id) in kinds["clicked"]:
                row[1] += 1
                row[2] += clicked_before
                clicked_before = True
    reiteration = [(i, s, c, c / s, o, c - o, (c - o) / s)
                   for i, (s, c, o) in sorted(iterations.items())]
    return {"user": grouped("user"), "algorithm": grouped("algorithm"),
            "reiteration": reiteration}
