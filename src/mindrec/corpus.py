"""Recommendation-candidate corpus: dedup by cleantitle, citation
resolution, and inverted-index TF-IDF retrieval over terms and citations.

Citation features are addressed with a ``citation:`` prefix so that term
and citation features can share one query (mixed user models).
"""

import json
import math
from collections import Counter
from dataclasses import dataclass, field

from .errors import EmptyQuery, EmptyTitle, MalformedRow
from .text import tokenize

CITATION_PREFIX = "citation:"


def citation_feature(doc_id):
    return CITATION_PREFIX + doc_id


def is_citation_feature(feature):
    return feature.startswith(CITATION_PREFIX)


def cleantitle(title):
    """Lowercase a-z-only normalization used for document disambiguation.

    Falls back to the original title when normalization strips more than
    half of it (protects non-Latin titles from collapsing).
    """
    normalized = "".join(ch for ch in title.lower() if "a" <= ch <= "z")
    if len(normalized) * 2 < len(title):
        return title
    return normalized


@dataclass
class Document:
    doc_id: str
    title: str
    cleantitle: str
    terms: Counter = field(default_factory=Counter)
    cited_ids: list = field(default_factory=list)


class Corpus:
    """Mutable while being built; treat as frozen once queries start."""

    def __init__(self):
        self.documents = {}
        self.cleantitle_index = {}
        self.term_index = {}      # term -> {doc_id: tf}
        self.citation_index = {}  # cited doc_id -> {citing doc_id: count}
        self._next_id = 1

    def __len__(self):
        return len(self.documents)

    def _fresh_id(self):
        doc_id = f"doc_{self._next_id}"
        self._next_id += 1
        return doc_id

    def _index_terms(self, doc_id, counts):
        for term, n in counts.items():
            self.term_index.setdefault(term, {})
            self.term_index[term][doc_id] = self.term_index[term].get(doc_id, 0) + n

    def resolve_citation(self, reference):
        """Map a cited title onto a document id, minting one if unseen."""
        key = cleantitle(reference)
        doc_id = self.cleantitle_index.get(key)
        if doc_id is not None:
            return doc_id
        doc_id = self._fresh_id()
        self.documents[doc_id] = Document(doc_id, reference, key)
        self.cleantitle_index[key] = doc_id
        return doc_id

    def ingest_document(self, title, body_terms=None, citations=()):
        """Insert a document, merging with any same-cleantitle record."""
        if not title:
            raise EmptyTitle("document title must be non-empty")
        doc_id = self.resolve_citation(title)
        doc = self.documents[doc_id]
        doc.title = title

        term_counts = Counter(tokenize(title))
        if body_terms:
            term_counts.update(t.lower() for t in body_terms)
        new_terms = term_counts - doc.terms
        doc.terms.update(new_terms)
        self._index_terms(doc_id, new_terms)

        for reference in citations:
            cited = self.resolve_citation(reference)
            if cited not in doc.cited_ids:
                doc.cited_ids.append(cited)
                self.citation_index.setdefault(cited, {})
                self.citation_index[cited][doc_id] = (
                    self.citation_index[cited].get(doc_id, 0) + 1
                )
        return doc_id

    def document_frequency(self, feature):
        if is_citation_feature(feature):
            return len(self.citation_index.get(feature[len(CITATION_PREFIX):], {}))
        return len(self.term_index.get(feature, {}))

    def _postings(self, feature):
        if is_citation_feature(feature):
            return self.citation_index.get(feature[len(CITATION_PREFIX):], {})
        return self.term_index.get(feature, {})

    def score_query(self, features):
        """Weighted TF-IDF dot product over the inverted indexes.

        `features`: iterable of feature strings or (feature, weight) pairs.
        Returns [(doc_id, score)] sorted score-descending, ties by doc_id;
        zero-scoring documents are excluded.  idf = ln(N / df).
        """
        weighted = []
        for item in features:
            if isinstance(item, tuple):
                weighted.append(item)
            else:
                weighted.append((item, 1.0))
        if not weighted:
            raise EmptyQuery("query has no features")

        n_docs = len(self.documents)
        scores = {}
        for feature, q_weight in weighted:
            postings = self._postings(feature)
            if not postings:
                continue
            idf = math.log(n_docs / len(postings))
            if idf == 0.0:
                continue
            for doc_id, tf in postings.items():
                scores[doc_id] = scores.get(doc_id, 0.0) + q_weight * tf * idf
        ranked = [(doc_id, s) for doc_id, s in scores.items() if s != 0.0]
        ranked.sort(key=lambda pair: (-pair[1], pair[0]))
        return ranked


def _strings(value):
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def load_corpus_jsonl(path_or_file):
    """Build a corpus from JSON-lines: {"title", "terms"?, "citations"?}.

    A line that is not a JSON record with a non-empty title and, where
    given, lists of strings as terms and citations raises MalformedRow
    naming the file and the line.
    """
    if hasattr(path_or_file, "read"):
        handle = path_or_file
    else:
        handle = open(path_or_file, encoding="utf-8")
    name = getattr(handle, "name", "corpus")
    corpus = Corpus()
    with handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError as exc:
                raise MalformedRow(f"{name}: line {number}: {exc}") from exc
            title = record.get("title") if isinstance(record, dict) else None
            if not isinstance(title, str) or not title:
                raise MalformedRow(f"{name}: line {number}: record has no title")
            terms, citations = record.get("terms") or [], record.get("citations") or []
            if not _strings(terms) or not _strings(citations):
                raise MalformedRow(
                    f"{name}: line {number}: terms and citations must be lists of strings")
            corpus.ingest_document(title, body_terms=terms, citations=citations)
    return corpus
