import math
import random
import re
from collections import Counter

import pytest

from mindrec import corpus as corpus_module
from mindrec.corpus import Corpus, citation_feature, cleantitle, document_id, load_corpus_jsonl
from mindrec.errors import EmptyTitle, MalformedRow, MindrecError
from mindrec.text import tokenize
from mindrec.usermodel import extract_features

from conftest import WORDS, node, single_map_collection, small_corpus


class TestCleantitle:
    def test_already_normalized(self):
        assert cleantitle("abc") == "abc"

    def test_chinese_title_kept(self):
        title = "量子计算综述"
        assert cleantitle(title) == title

    def test_punctuation_and_case_stripped(self):
        out = cleantitle("Google Scholar's Ranking Algorithm")
        assert out == "googlescholarsrankingalgorithm"
        assert len(out) == 30

    def test_short_result_falls_back(self):
        # 3 letters survive out of 9 characters -> below half, keep original
        assert cleantitle("a!!!!!!!b") == "a!!!!!!!b"

    def test_empty(self):
        assert cleantitle("") == ""


class TestResolveIngest:
    def test_resolve_same_title_variants(self):
        corpus = Corpus()
        a = corpus.resolve_citation("Deep Learning For Search!")
        b = corpus.resolve_citation("deep learning for search")
        assert a == b
        assert len(corpus) == 1

    def test_resolve_new_reference_grows_corpus(self):
        corpus = Corpus()
        doc_id = corpus.resolve_citation("Totally New Paper 2014")
        assert doc_id in corpus.documents
        assert len(corpus) == 1

    def test_resolve_idempotent(self):
        corpus = Corpus()
        doc_id = corpus.resolve_citation("Some Known Work")
        again = corpus.resolve_citation(corpus.documents[doc_id])
        assert again == doc_id

    def test_ingest_no_citations(self):
        corpus = Corpus()
        corpus.ingest_document("A Lone Paper")
        assert len(corpus) == 1
        assert corpus.citation_index == {}

    def test_ingest_citation_links_documents(self):
        corpus = Corpus()
        a = corpus.ingest_document("Paper Alpha Topic")
        b = corpus.ingest_document("Paper Beta Topic", citations=["Paper Alpha Topic"])
        assert cited_by(corpus, b) == [a]
        # postings name the citing document by its ordinal
        assert postings(corpus.citation_index)[a] == {list(corpus.documents).index(b): 1}
        assert [document_id(i) for i in postings(corpus.citation_index)[a]] == [b]

    def test_ingest_duplicate_title_merges(self):
        corpus = Corpus()
        a = corpus.ingest_document("Same Paper Here")
        b = corpus.ingest_document("Same paper here!")
        assert a == b
        assert len(corpus) == 1

    def test_merge_keeps_last_title_larger_counts_and_a_citation_set(self):
        corpus = Corpus()
        a = corpus.ingest_document("Same Paper Here", body_terms=["alpha", "beta", "beta"],
                                   citations=["Cited Work", "cited work!"])
        corpus.ingest_document("Same paper here!", body_terms=["Alpha", "alpha", "gamma"],
                               citations=["Cited Work"])
        assert corpus.documents[a] == "Same paper here!"
        assert bag(corpus, a) == {"same": 1, "paper": 1, "here": 1,
                                  "alpha": 2, "beta": 2, "gamma": 1}
        assert cited_by(corpus, a) == [corpus.lookup("Cited Work")]

    def test_only_a_merge_searches_the_groups(self, monkeypatch):
        # a document first minted as a citation has no postings to search
        searched = []
        unpost = corpus_module._unpost_smaller
        monkeypatch.setattr(corpus_module, "_unpost_smaller",
                            lambda *args: searched.append(args[1:]) or unpost(*args))
        corpus = Corpus()
        corpus.ingest_document("Paper Alpha Topic", citations=["Paper Beta Topic"])
        corpus.ingest_document("Paper Beta Topic", body_terms=["alpha"],
                               citations=["Paper Alpha Topic"])
        assert searched == []
        beta = corpus.ingest_document("paper beta topic!", body_terms=["alpha", "alpha"])
        assert searched == [(1, 1), (1, 1), (1, 1), (1, 2)]
        assert bag(corpus, beta) == {"paper": 1, "beta": 1, "topic": 1, "alpha": 2}

    def test_empty_title_rejected(self):
        with pytest.raises(EmptyTitle):
            Corpus().ingest_document("")

    def test_jsonl_loader(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text(
            '{"title": "First Doc", "terms": ["alpha"], "citations": ["Second Doc"]}\n'
            '{"title": "Second Doc"}\n',
            encoding="utf-8",
        )
        corpus = load_corpus_jsonl(path)
        assert len(corpus) == 2
        first = corpus.cleantitle_index[cleantitle("First Doc")]
        second = corpus.cleantitle_index[cleantitle("Second Doc")]
        assert cited_by(corpus, first) == [second]

    @pytest.mark.parametrize("line", [
        "{not json",
        '{"terms": ["alpha"]}',
        '{"title": ""}',
        '["First Doc"]',
        '{"title": "Third Doc", "citations": "First Doc"}',
        '{"title": "Third Doc", "terms": ["alpha", 7]}',
        '{"title": "Third Doc", "terms": ""}',
        '{"title": "Third Doc", "terms": 0}',
        '{"title": "Third Doc", "citations": false}',
        '{"title": "Third Doc", "citations": {}}',
        '{"title": "Third Doc", "terms": null}',
        '{"title": "Third Doc", "citations": ["First Doc", ""]}',
    ], ids=["not_json", "no_title", "empty_title", "not_a_record",
            "citations_not_a_list", "term_not_a_string", "terms_empty_string",
            "terms_zero", "citations_false", "citations_empty_object", "terms_null",
            "citation_empty_title"])
    def test_malformed_jsonl_line_named(self, tmp_path, line):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"title": "First Doc"}\n\n' + line + "\n", encoding="utf-8")
        with pytest.raises(MalformedRow, match=f"^{re.escape(str(path))}: line 3: "):
            load_corpus_jsonl(path)

    def test_escaped_surrogate_pair_read(self, tmp_path):
        # only a lone surrogate is malformed: a pair is one character, and
        # an escaped backslash before "u" is no escape
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"title": "Smile \\ud83d\\ude00", "terms": ["a\\\\ud800"]}\n',
                        encoding="utf-8")
        corpus = load_corpus_jsonl(path)
        assert list(corpus.documents.values()) == ["Smile \U0001F600"]

    def test_posting_sums_match_bags(self):
        corpus = Corpus()
        corpus.ingest_document("other paper", body_terms=["alpha"])
        doc = corpus.ingest_document("alpha beta", body_terms=["alpha", "alpha"])
        assert document_id(list(corpus.documents).index(doc)) == doc
        assert bag(corpus, doc) == {"alpha": 3, "beta": 1}


def postings(index):
    """{feature: {ordinal: tf}} of a corpus's term or citation index, in the
    index's feature order; the order within one feature's postings is not
    kept, since no output depends on it.  Asserts that each of a feature's
    tf groups is non-empty and has its own tf, and that each document is in
    one of them."""
    out = {}
    for feature, groups in index.items():
        out[feature] = {i: tf for tf, ordinals in groups for i in ordinals}
        assert all(ordinals for _, ordinals in groups)
        assert len({tf for tf, _ in groups}) == len(groups)
        assert len(out[feature]) == sum(len(ordinals) for _, ordinals in groups)
    return out


def bag(corpus, doc_id):
    """{term: count} of one document, read back from the term postings."""
    ordinal = list(corpus.documents).index(doc_id)
    return {term: tfs[ordinal] for term, tfs in postings(corpus.term_index).items()
            if ordinal in tfs}


def cited_by(corpus, doc_id):
    """The ids one document cites, read back from the citation postings."""
    ordinal = list(corpus.documents).index(doc_id)
    return [cited for cited, tfs in postings(corpus.citation_index).items() if ordinal in tfs]


class ReferenceIndex:
    """A straightforward index builder, for comparison with `Corpus`:
    a character-filter cleantitle, a Counter difference on every ingest
    and `setdefault` postings."""

    def __init__(self):
        self.documents, self.cleantitle_index = {}, {}
        self.term_index, self.citation_index = {}, {}

    @staticmethod
    def cleantitle(title):
        normalized = "".join(ch for ch in title.lower() if "a" <= ch <= "z")
        return title if len(normalized) * 2 < len(title) else normalized

    def resolve(self, title):
        key = self.cleantitle(title)
        if key not in self.cleantitle_index:
            doc_id = f"doc_{len(self.documents) + 1}"
            self.documents[doc_id] = [doc_id, title, key, Counter(), []]
            self.cleantitle_index[key] = doc_id
        return self.cleantitle_index[key]

    def ingest(self, title, body_terms, citations):
        doc_id = self.resolve(title)
        doc = self.documents[doc_id]
        doc[1] = title
        ordinal = list(self.documents).index(doc_id)
        counts = Counter(tokenize(title))
        counts.update(t.lower() for t in body_terms)
        added = counts - doc[3]
        doc[3].update(added)
        for term, n in added.items():
            postings = self.term_index.setdefault(term, {})
            postings[ordinal] = postings.get(ordinal, 0) + n
        for reference in citations:
            cited = self.resolve(reference)
            if cited not in doc[4]:
                doc[4].append(cited)
                self.citation_index.setdefault(cited, {})[ordinal] = 1

    def state(self):
        return ([(d[0], d[1], d[2], d[3], sorted(d[4])) for d in self.documents.values()],
                list(self.cleantitle_index.items()),
                list(self.term_index.items()), list(self.citation_index.items()))


def index_state(corpus):
    """Every index of a corpus as lists, so that document and feature order
    count in comparisons, each feature's postings as `postings` gives them,
    and each document's title, cleantitle, bag and cited ids, the last two
    read back from the postings."""
    return ([(doc_id, title, cleantitle(title), Counter(bag(corpus, doc_id)),
              sorted(cited_by(corpus, doc_id)))
             for doc_id, title in corpus.documents.items()],
            list(corpus.cleantitle_index.items()),
            list(postings(corpus.term_index).items()),
            list(postings(corpus.citation_index).items()))


class TestIngestAgainstReference:
    # merge on cleantitle, non-Latin titles that keep themselves, titles
    # with no token of two letters or more
    BASES = ["Deep Search", "deep search!", "DEEP-SEARCH", "Quantum Flux", "quantum  flux 2",
             "量子计算综述", "Ωμέγα θεωρία", "Ωμέγα θεωρία x", "a-b", "x y z", "?!", "Çа́fé"]

    def _title(self, rng):
        if rng.random() < 0.5:
            return rng.choice(self.BASES)
        return " ".join(rng.choice(WORDS[:12]) for _ in range(rng.randint(1, 3)))

    def test_same_index_state_as_reference(self):
        rng = random.Random(12)
        for _ in range(150):
            corpus, reference = Corpus(), ReferenceIndex()
            for _ in range(rng.randint(1, 25)):
                title = self._title(rng)
                # re-ingests add body terms to what the title already has
                terms = [rng.choice(WORDS[:10]).upper() if rng.random() < 0.2
                         else rng.choice(WORDS[:10]) for _ in range(rng.randint(0, 6))]
                # citations often name titles not ingested yet
                cites = [self._title(rng) for _ in range(rng.choice([0, 0, 1, 3]))]
                corpus.ingest_document(title, body_terms=terms, citations=cites)
                reference.ingest(title, terms, cites)
            assert index_state(corpus) == reference.state()


def ingest_both(corpus, reference, title, body_terms, citations):
    """Feed one record to a corpus and to a `ReferenceIndex`."""
    corpus.ingest_document(title, body_terms=body_terms, citations=citations)
    reference.ingest(title, body_terms, citations)


def brute_force_scores(reference, features):
    """Index-free oracle: per-document dot product over the raw bags of a
    `ReferenceIndex`."""
    docs = reference.documents.values()
    out = []
    for doc_id, _, _, terms, cited_ids in docs:
        score = 0.0
        for feature, q_w in features:
            if feature.startswith("citation:"):
                cited = feature.split(":", 1)[1]
                tf = 1 if cited in cited_ids else 0
                df = sum(1 for d in docs if cited in d[4])
            else:
                tf = terms.get(feature, 0)
                df = sum(1 for d in docs if feature in d[3])
            if tf and df:
                score += q_w * tf * math.log(len(docs) / df)
        if score != 0.0:
            out.append((doc_id, score))
    out.sort(key=lambda pair: (-pair[1], pair[0]))
    return out


class TestFreeze:
    def _links(self):
        cited = node("r", "root", link="Zeta Ghost", children=[
            node("n1", "known", link="quantum flux paradigm!"),
            node("n2", "again", link="ZETA GHOST")])
        return {
            "user_b": single_map_collection("user_b", cited).links(),
            "user_a": single_map_collection(
                "user_a", node("r", "root", children=[node("n", "x", link="Alpha Ghost")])).links(),
        }

    def test_mints_each_link_once_in_sorted_user_order(self):
        corpus = small_corpus()
        corpus.freeze(self._links())
        assert (corpus.lookup("Alpha Ghost"), corpus.lookup("zeta ghost")) == ("doc_4", "doc_5")
        assert corpus.lookup("Quantum Flux Paradigm") == "doc_1"
        assert len(corpus) == 5
        corpus.freeze(self._links())
        assert len(corpus) == 5

    def test_lookup_of_unminted_title_raises(self):
        corpus = small_corpus()
        with pytest.raises(MindrecError, match="Never Minted Paper"):
            corpus.lookup("Never Minted Paper")
        assert len(corpus) == 3

    def test_query_path_never_mints(self):
        # a citation feature of a link freeze did not see is a fault
        corpus = small_corpus()
        collection = single_map_collection("u", node("r", "root", link="Unseen Reference"))
        with pytest.raises(MindrecError, match="Unseen Reference"):
            extract_features(collection, [("m1", "r", 1.0)], "citations", False, corpus=corpus)
        assert len(corpus) == 3


class TestScoreQuery:
    def _ab_corpus(self):
        corpus = Corpus()
        corpus.ingest_document("docalpha", body_terms=["aa", "bb"])
        corpus.ingest_document("docbeta", body_terms=["bb", "cc"])
        return corpus

    def test_single_hit(self):
        corpus = self._ab_corpus()
        [(doc_id, score)] = corpus.score_query([("aa", 1.0)])
        assert corpus.documents[doc_id] == "docalpha"
        assert score == pytest.approx(math.log(2))

    def test_df_equals_n_scores_zero(self):
        assert self._ab_corpus().score_query([("bb", 1.0)]) == []

    def test_absent_feature(self):
        assert self._ab_corpus().score_query([("zz", 1.0)]) == []

    def test_empty_query(self):
        assert self._ab_corpus().score_query([]) == []

    def test_weighted_query(self):
        corpus = self._ab_corpus()
        [(_, unweighted)] = corpus.score_query([("aa", 1.0)])
        [(_, weighted)] = corpus.score_query([("aa", 3.0)])
        assert weighted == pytest.approx(3 * unweighted)

    def test_brute_force_equivalence_random_corpora(self):
        rng = random.Random(11)
        for _ in range(40):
            corpus, reference = Corpus(), ReferenceIndex()
            n_docs = rng.randint(2, 25)
            for i in range(n_docs):
                terms = [rng.choice(WORDS) for _ in range(rng.randint(1, 6))]
                cites = []
                if corpus.documents and rng.random() < 0.5:
                    cites = [corpus.documents[rng.choice(sorted(corpus.documents))]]
                ingest_both(corpus, reference, f"title {i} {rng.choice(WORDS)}", terms, cites)
            assert list(reference.documents) == list(corpus.documents)
            query = [(rng.choice(WORDS), rng.choice([1.0, 2.0, 0.5]))
                     for _ in range(rng.randint(1, 4))]
            if corpus.citation_index and rng.random() < 0.5:
                cited = rng.choice(sorted(corpus.citation_index))
                query.append((citation_feature(cited), 1.0))
            got = corpus.score_query(query)
            expected = brute_force_scores(reference, query)
            assert [d for d, _ in got] == [d for d, _ in expected]
            for (_, a), (_, b) in zip(got, expected):
                assert a == pytest.approx(b, rel=1e-12)

    def test_order_invariance_single_feature(self):
        # one query feature: ratios don't depend on N, order must persist
        corpus = Corpus()
        corpus.ingest_document("docalpha", body_terms=["aa", "aa", "aa"])
        corpus.ingest_document("docbeta", body_terms=["aa"])
        corpus.ingest_document("docgamma", body_terms=["cc"])
        before = [d for d, _ in corpus.score_query([("aa", 1.0)])]
        corpus.ingest_document("unrelated", body_terms=["zz"])
        after = [d for d, _ in corpus.score_query([("aa", 1.0)])]
        assert before == after


class TestRank:
    @staticmethod
    def _random_corpus(rng):
        """A random corpus and a `ReferenceIndex` fed the same records."""
        corpus, reference = Corpus(), ReferenceIndex()
        for i in range(rng.randint(2, 30)):
            terms = [rng.choice(WORDS[:8]) for _ in range(rng.randint(1, 5))]
            cites = []
            if corpus.documents and rng.random() < 0.4:
                cites = [corpus.documents[rng.choice(sorted(corpus.documents))]]
            ingest_both(corpus, reference, f"title {i} {rng.choice(WORDS)}", terms, cites)
        return corpus, reference

    def test_top_k_is_prefix_of_full_ranking(self):
        rng = random.Random(23)
        for _ in range(200):
            corpus, _ = self._random_corpus(rng)
            query = [(rng.choice(WORDS[:8]), rng.choice([1.0, 2.0, rng.random()]))
                     for _ in range(rng.randint(1, 5))]
            if corpus.citation_index and rng.random() < 0.5:
                query.append((citation_feature(rng.choice(sorted(corpus.citation_index))),
                              rng.random()))
            full = corpus.rank(query)
            assert corpus.score_query(query) == full
            n = len(full)
            for top in {1, 2, n - 1, n, n + 5} - {-1, 0}:
                assert corpus.rank(query, top=top) == full[:top]

    def test_ties_at_the_cut_keep_lowest_doc_ids(self):
        corpus = Corpus()
        for word in WORDS[:11]:                      # doc_1 .. doc_11: tf 1
            corpus.ingest_document(f"paper {word}", body_terms=["aa"])
        corpus.ingest_document("paper best", body_terms=["aa", "aa"])   # doc_12
        for word in WORDS[11:14]:                    # doc_13 .. doc_15
            corpus.ingest_document(f"filler {word}", body_terms=["zz"])
        idf = math.log(15 / 12)
        # doc ids are strings: doc_1 < doc_10 < doc_11 < doc_2
        assert corpus.rank([("aa", 1.0)], top=4) == [
            ("doc_12", 1.0 * 2 * idf), ("doc_1", 1.0 * 1 * idf),
            ("doc_10", 1.0 * 1 * idf), ("doc_11", 1.0 * 1 * idf)]
        full = corpus.rank([("aa", 1.0)])
        assert [d for d, _ in full] == ["doc_12", "doc_1", "doc_10", "doc_11",
                                        *(f"doc_{i}" for i in range(2, 10))]
        for top in range(1, 14):
            assert corpus.rank([("aa", 1.0)], top=top) == full[:top]

    def test_negative_and_cancelling_weights_match_brute_force(self):
        # The "cancel" and "single x/y" documents make df(xx) == df(yy), so
        # the pair (xx, w), (yy, -w) sums "cancel"'s score to exactly 0.0.
        rng = random.Random(29)
        cuts_at_or_below_zero = 0
        for _ in range(200):
            corpus, reference = self._random_corpus(rng)
            ingest_both(corpus, reference, "cancel paper", ["xx", "yy"], [])
            for k in range(rng.randint(0, 3)):
                ingest_both(corpus, reference, f"single x {'q' * (k + 2)}", ["xx"], [])
                ingest_both(corpus, reference, f"single y {'q' * (k + 2)}", ["yy"], [])
            assert list(reference.documents) == list(corpus.documents)
            w = rng.choice([1.0, 2.0, rng.random()])
            query = [(rng.choice(WORDS[:8]), rng.choice([-1.0, -2.5, rng.uniform(-1, 1)]))
                     for _ in range(rng.randint(1, 4))]
            query[rng.randint(0, len(query)):0] = [("xx", w), ("yy", -w)]
            expected = brute_force_scores(reference, query)
            assert corpus.lookup("cancel paper") not in dict(expected)
            n = len(expected)
            assert corpus.rank(query) == expected
            for top in (1, 2, n - 1, n, n + 1, n + 7, 1000):
                if top >= 1:
                    assert corpus.rank(query, top=top) == expected[:top]
                    cuts_at_or_below_zero += n > 0 and expected[min(top, n) - 1][1] <= 0.0
        assert cuts_at_or_below_zero > 100

    def test_ties_across_the_cut_break_by_doc_id_string(self):
        # tf 1 on three words and weights 1 or 2: most scores are tied, and
        # with 12+ documents doc_1x and doc_2 sit in the same tie.
        rng = random.Random(31)
        splits_against_ordinal_order = 0
        for _ in range(100):
            corpus, reference = Corpus(), ReferenceIndex()
            for i in range(rng.randint(12, 30)):
                ingest_both(corpus, reference, f"paper {'x' * (i + 2)}",
                            rng.sample(WORDS[:3], rng.randint(1, 2)), [])
            assert list(reference.documents) == list(corpus.documents)
            ordinal = {doc_id: i for i, doc_id in enumerate(corpus.documents)}
            query = [(w, rng.choice([1.0, 2.0])) for w in rng.sample(WORDS[:3], rng.randint(1, 3))]
            expected = brute_force_scores(reference, query)
            for top in range(1, len(expected) + 2):
                assert corpus.rank(query, top=top) == expected[:top]
                if top < len(expected):
                    (last, score), (first_out, next_score) = expected[top - 1], expected[top]
                    splits_against_ordinal_order += (
                        score == next_score and ordinal[first_out] < ordinal[last])
        assert splits_against_ordinal_order > 100

    def test_empty_query_with_top(self):
        assert Corpus().rank([], top=5) == []
        assert small_corpus().rank([], top=1) == []


class TestRankAfterMerges:
    """`rank` and `document_frequency` against the index-free oracle on
    corpora whose records merge: a re-ingest raises a count that other
    documents already hold, counts reach 2 and 3, a citation repeats
    within a record and across merged records, and weights may be
    negative or zero."""

    TITLES = [f"paper {w}" for w in WORDS[10:16]]

    def _ingest_random(self, rng, corpus, reference, ingested, seen):
        title = rng.choice(self.TITLES)
        terms = [rng.choice(WORDS[:4]) for _ in range(rng.randint(0, 6))]
        cites = rng.sample(self.TITLES, rng.randint(0, 2))
        if cites and rng.random() < 0.5:     # the same title again, spelt otherwise
            cites.append(cites[0].upper() + "!")
        seen["cited_twice"] += len(cites) > len({cleantitle(c) for c in cites})
        if title in ingested:
            doc = reference.documents[corpus.lookup(title)]
            others = [d for d in reference.documents.values() if d is not doc]
            counts = Counter(tokenize(title)) + Counter(terms)
            seen["raised"] += any(n > doc[3][t] and any(d[3][t] for d in others)
                                  for t, n in counts.items())
            seen["cited_again"] += any(corpus.cleantitle_index.get(cleantitle(c)) in doc[4]
                                       for c in cites)
        ingested.add(title)
        ingest_both(corpus, reference, title, terms, cites)

    def test_rank_and_document_frequency_match_brute_force(self):
        rng = random.Random(43)
        seen = Counter()
        for _ in range(200):
            corpus, reference = Corpus(), ReferenceIndex()
            ingested = set()
            for _ in range(rng.randint(2, 30)):
                self._ingest_random(rng, corpus, reference, ingested, seen)
            assert list(reference.documents) == list(corpus.documents)
            docs = list(reference.documents.values())
            for d in docs:
                seen.update(f"tf{n}" for n in d[3].values())
            features = [*WORDS[:4], *(t for d in docs for t in d[3]),
                        *(citation_feature(c) for d in docs for c in d[4])]
            for feature in set(features):
                if feature.startswith("citation:"):
                    holders = {d[0] for d in docs if feature[len("citation:"):] in d[4]}
                else:
                    holders = {d[0] for d in docs if d[3][feature]}
                assert corpus.document_frequency(feature) == len(holders)
            query = [(rng.choice(features), rng.choice([-2.5, -1.0, 0.0, 0.5, 1.0, 2.0,
                                                        rng.uniform(-1, 1)]))
                     for _ in range(rng.randint(1, 6))]
            expected = brute_force_scores(reference, query)
            assert corpus.rank(query) == expected
            n = len(expected)
            for top in {1, 2, n - 1, n, n + 3} - {-1, 0}:
                assert corpus.rank(query, top=top) == expected[:top]
        assert min(seen[k] for k in ("raised", "cited_again", "cited_twice", "tf2", "tf3")) > 50
