"""Recommendation-candidate corpus: dedup by cleantitle, citation
resolution, and inverted-index TF-IDF retrieval over terms and citations.

Citation features are addressed with a ``citation:`` prefix so that term
and citation features can share one query (mixed user models).
"""

import heapq
import math
import re

from .errors import EmptyTitle, UnknownTitle
from .rows import read_jsonl
from .text import tokenize

CITATION_PREFIX = "citation:"
_NON_LETTERS = re.compile("[^a-z]+")


def citation_feature(doc_id):
    return CITATION_PREFIX + doc_id


def is_citation_feature(feature):
    return feature.startswith(CITATION_PREFIX)


def document_id(ordinal):
    """The id of the document minted `ordinal`-th, counting from 0."""
    return f"doc_{ordinal + 1}"


def _ordinal(doc_id):
    """The inverse of `document_id`."""
    return int(doc_id[4:]) - 1


def cleantitle(title):
    """Lowercase a-z-only normalization used for document disambiguation.

    Falls back to the original title when normalization strips more than
    half of it (protects non-Latin titles from collapsing).
    """
    normalized = _NON_LETTERS.sub("", title.lower())
    if len(normalized) * 2 < len(title):
        return title
    return normalized


class Corpus:
    """Documents and their indexes.

    `documents` maps each document id to its title; the document's
    cleantitle is `cleantitle(title)`, its key in `cleantitle_index`.  The
    postings are the only store of term counts and citations.

    `ingest_document` and `resolve_citation` mint a document for every
    unseen title, and `freeze` mints one for every title the users' maps
    cite.  Each minted document counts toward N in idf = ln(N/df).  After
    `freeze` the query path only reads: `lookup` of an unseen title raises.

    A posting names a document by its ordinal, its 0-based mint position
    (`document_id(ordinal)` is its id), so that `rank` can add scores into
    a list indexed by ordinal.  Each feature's postings are grouped by tf,
    so that `rank` computes one float per group: a list of
    (tf, [ordinal, ...]) pairs, each document in one group, the groups and
    the ordinals within one in no particular order.  Every posting of a
    document holds the same ordinal int.  Only a record that merges with
    one ingested before searches the groups for its ordinal.
    """

    def __init__(self):
        self.documents = {}
        self.cleantitle_index = {}
        self.term_index = {}      # term -> [(tf, [ordinal, ...]), ...]
        self.citation_index = {}  # cited doc_id -> [(1, [citing ordinal, ...])]
        self._ingested = bytearray()  # ordinal -> 1 once a record of it was ingested

    def __len__(self):
        return len(self.documents)

    def resolve_citation(self, reference):
        """Map a cited title onto a document id, minting one if unseen."""
        key = cleantitle(reference)
        doc_id = self.cleantitle_index.get(key)
        if doc_id is not None:
            return doc_id
        doc_id = document_id(len(self.documents))
        self.documents[doc_id] = reference
        self.cleantitle_index[key] = doc_id
        self._ingested.append(0)
        return doc_id

    def freeze(self, links):
        """Mint every title linked from the users' latest maps, users in
        sorted order, so that ids and N do not depend on which user a
        command builds a model for first.  `links`: {user_id: the links
        of that user's latest maps in order}, as `MindMapCollection.links`
        gives them."""
        for user_id in sorted(links):
            for link in links[user_id]:
                self.resolve_citation(link)

    def lookup(self, title):
        """The id of the document a title names; never mints."""
        doc_id = self.cleantitle_index.get(cleantitle(title))
        if doc_id is None:
            raise UnknownTitle(f"no document titled {title!r} in the corpus")
        return doc_id

    def ingest_document(self, title, body_terms=None, citations=()):
        """Insert a document, merging with any same-cleantitle record: the
        last title is kept, each term's count is the larger of the
        records', and citations form a set."""
        if not title:
            raise EmptyTitle("document title must be non-empty")
        doc_id = self.resolve_citation(title)
        self.documents[doc_id] = title
        ordinal = _ordinal(doc_id)   # one int object shared by every posting
        merging = self._ingested[ordinal]
        self._ingested[ordinal] = 1

        counts = {}
        for term in tokenize(title):
            counts[term] = counts.get(term, 0) + 1
        for term in body_terms or ():
            term = term.lower()
            counts[term] = counts.get(term, 0) + 1
        _post(self.term_index, counts, ordinal, merging)
        cited = dict.fromkeys([self.resolve_citation(r) for r in citations], 1)
        _post(self.citation_index, cited, ordinal, merging)
        return doc_id

    def _postings(self, feature):
        if is_citation_feature(feature):
            return self.citation_index.get(feature[len(CITATION_PREFIX):], ())
        return self.term_index.get(feature, ())

    def document_frequency(self, feature):
        """The number of documents that have `feature`."""
        return sum(len(ordinals) for _, ordinals in self._postings(feature))

    def idf(self, feature):
        """ln(N/df) over the whole corpus; 0.0 for a feature no document has."""
        n_docs, df = len(self.documents), self.document_frequency(feature)
        return math.log(n_docs / df) if df else 0.0

    def rank(self, features, top=None):
        """Weighted TF-IDF dot product over the inverted indexes: for each
        feature in turn, `q_weight * tf * idf` is computed once per tf group
        and added to the score of each document in the group.

        `features`: a list of (feature, weight) pairs.  Returns
        [(doc_id, score)] sorted score-descending, ties by doc_id;
        zero-scoring documents are excluded.  With `top`, only the first
        `top` of that list: the documents scoring at least the `top`-th
        largest score are sorted, which gives the same floats in the same
        order as a full sort.
        """
        scores = [0.0] * len(self.documents)
        for feature, q_weight in features:
            idf = self.idf(feature)
            if idf == 0.0:
                continue
            for tf, ordinals in self._postings(feature):
                x = q_weight * tf * idf
                for i in ordinals:
                    scores[i] += x
        cut = heapq.nlargest(top, scores)[-1] if top and top < len(scores) else 0.0
        if cut <= 0.0:   # a negative score can make the top: keep every non-zero one
            cut = -math.inf
        ranked = sorted((-score, document_id(i))
                        for i, score in enumerate(scores) if score >= cut and score)
        return [(doc_id, -score) for score, doc_id in ranked[:top]]

    def score_query(self, features):
        """The full ranking: `rank(features)`."""
        return self.rank(features)


def _post(index, counts, ordinal, merging):
    """Post one document's {feature: count} into `index` under `ordinal`.
    `merging`: an earlier record of the document may have posted it
    already; then the larger count stays.  Only a merge searches the
    groups for the ordinal."""
    for feature, n in counts.items():
        groups = index.get(feature)
        if groups is None:
            index[feature] = [(n, [ordinal])]
            continue
        if merging and not _unpost_smaller(groups, ordinal, n):
            continue
        for tf, ordinals in groups:
            if tf == n:
                ordinals.append(ordinal)
                break
        else:
            groups.append((n, [ordinal]))


def _unpost_smaller(groups, ordinal, n):
    """Take `ordinal` out of its group when its count is below `n`, dropping
    a group left empty.  False when it is posted with a count of `n` or more."""
    for k, (tf, ordinals) in enumerate(groups):
        if ordinal in ordinals:
            if tf >= n:
                return False
            ordinals.remove(ordinal)
            if not ordinals:
                del groups[k]
            return True
    return True


def _strings(value):
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def load_corpus_jsonl(path):
    """Build a corpus from JSON-lines: {"title", "terms"?, "citations"?}.

    A line that is not a JSON record with a non-empty title and, where
    given, lists of strings as terms and of non-empty strings as
    citations raises MalformedRow naming the file and the line.
    """
    corpus = Corpus()

    def ingest(record):
        title = record.get("title") if isinstance(record, dict) else None
        if not isinstance(title, str) or not title:
            raise ValueError("record has no title")
        terms, citations = record.get("terms", []), record.get("citations", [])
        if not _strings(terms) or not _strings(citations):
            raise ValueError("terms and citations must be lists of strings")
        if "" in citations:
            raise ValueError("a cited title is empty")
        corpus.ingest_document(title, body_terms=terms, citations=citations)

    read_jsonl(path, ingest)
    return corpus
