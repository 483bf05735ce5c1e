import math
import random
import re

import pytest

from mindrec.corpus import Corpus, citation_feature, cleantitle, load_corpus_jsonl
from mindrec.errors import EmptyQuery, EmptyTitle, MalformedRow

from conftest import WORDS


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
        again = corpus.resolve_citation(corpus.documents[doc_id].title)
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
        assert corpus.documents[b].cited_ids == [a]
        assert corpus.citation_index[a] == {b: 1}

    def test_ingest_duplicate_title_merges(self):
        corpus = Corpus()
        a = corpus.ingest_document("Same Paper Here")
        b = corpus.ingest_document("Same paper here!")
        assert a == b
        assert len(corpus) == 1

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
        assert corpus.documents[first].cited_ids == [second]

    @pytest.mark.parametrize("line", [
        "{not json",
        '{"terms": ["alpha"]}',
        '{"title": ""}',
        '["First Doc"]',
        '{"title": "Third Doc", "citations": "First Doc"}',
        '{"title": "Third Doc", "terms": ["alpha", 7]}',
    ], ids=["not_json", "no_title", "empty_title", "not_a_record",
            "citations_not_a_list", "term_not_a_string"])
    def test_malformed_jsonl_line_named(self, tmp_path, line):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"title": "First Doc"}\n\n' + line + "\n", encoding="utf-8")
        with pytest.raises(MalformedRow, match=f"^{re.escape(str(path))}: line 3: "):
            load_corpus_jsonl(path)

    def test_posting_sums_match_bags(self):
        corpus = Corpus()
        doc = corpus.ingest_document("alpha beta", body_terms=["alpha", "alpha"])
        total = sum(postings.get(doc, 0) for postings in corpus.term_index.values())
        assert total == sum(corpus.documents[doc].terms.values())


def brute_force_scores(corpus, features):
    """Index-free oracle: per-document dot product over raw bags."""
    n = len(corpus.documents)
    out = []
    for doc_id, doc in corpus.documents.items():
        score = 0.0
        for feature, q_w in features:
            if feature.startswith("citation:"):
                cited = feature.split(":", 1)[1]
                tf = 1 if cited in doc.cited_ids else 0
                df = sum(1 for d in corpus.documents.values()
                         if cited in d.cited_ids)
            else:
                tf = doc.terms.get(feature, 0)
                df = sum(1 for d in corpus.documents.values()
                         if feature in d.terms)
            if tf and df:
                score += q_w * tf * math.log(n / df)
        if score != 0.0:
            out.append((doc_id, score))
    out.sort(key=lambda pair: (-pair[1], pair[0]))
    return out


class TestScoreQuery:
    def _ab_corpus(self):
        corpus = Corpus()
        corpus.ingest_document("docalpha", body_terms=["aa", "bb"])
        corpus.ingest_document("docbeta", body_terms=["bb", "cc"])
        return corpus

    def test_single_hit(self):
        corpus = self._ab_corpus()
        [(doc_id, score)] = corpus.score_query(["aa"])
        assert corpus.documents[doc_id].title == "docalpha"
        assert score == pytest.approx(math.log(2))

    def test_df_equals_n_scores_zero(self):
        assert self._ab_corpus().score_query(["bb"]) == []

    def test_absent_feature(self):
        assert self._ab_corpus().score_query(["zz"]) == []

    def test_empty_query(self):
        with pytest.raises(EmptyQuery):
            self._ab_corpus().score_query([])

    def test_weighted_query(self):
        corpus = self._ab_corpus()
        [(_, unweighted)] = corpus.score_query(["aa"])
        [(_, weighted)] = corpus.score_query([("aa", 3.0)])
        assert weighted == pytest.approx(3 * unweighted)

    def test_brute_force_equivalence_random_corpora(self):
        rng = random.Random(11)
        for _ in range(40):
            corpus = Corpus()
            n_docs = rng.randint(2, 25)
            for i in range(n_docs):
                terms = [rng.choice(WORDS) for _ in range(rng.randint(1, 6))]
                cites = []
                if corpus.documents and rng.random() < 0.5:
                    cites = [corpus.documents[rng.choice(sorted(corpus.documents))].title]
                corpus.ingest_document(f"title {i} {rng.choice(WORDS)}",
                                       body_terms=terms, citations=cites)
            query = [(rng.choice(WORDS), rng.choice([1.0, 2.0, 0.5]))
                     for _ in range(rng.randint(1, 4))]
            if corpus.citation_index and rng.random() < 0.5:
                cited = rng.choice(sorted(corpus.citation_index))
                query.append((citation_feature(cited), 1.0))
            got = corpus.score_query(query)
            expected = brute_force_scores(corpus, query)
            assert [d for d, _ in got] == [d for d, _ in expected]
            for (_, a), (_, b) in zip(got, expected):
                assert a == pytest.approx(b, rel=1e-12)

    def test_order_invariance_single_feature(self):
        # one query feature: ratios don't depend on N, order must persist
        corpus = Corpus()
        corpus.ingest_document("docalpha", body_terms=["aa", "aa", "aa"])
        corpus.ingest_document("docbeta", body_terms=["aa"])
        corpus.ingest_document("docgamma", body_terms=["cc"])
        before = [d for d, _ in corpus.score_query(["aa"])]
        corpus.ingest_document("unrelated", body_terms=["zz"])
        after = [d for d, _ in corpus.score_query(["aa"])]
        assert before == after
