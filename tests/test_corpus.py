import json
import re
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from incmine.corpus import (
    PreprocessConfig,
    TagOntology,
    default_stopwords,
    load_corpus,
    load_stopwords,
    preprocess,
    to_transactions,
    tokenize,
    top_frequent_words,
)
from incmine.errors import IncmineError
from incmine.vectors import corpus_term_counts
from helpers import make_corpus, plain_and_bom


class TestLoadCorpus:
    def test_three_valid_rows(self, corpus_csv):
        path = corpus_csv([("a", "cade dalla scala", "frattura"),
                           ("b", "taglio alla mano", ""),
                           ("c", "urto violento", "contusione")])
        corp = load_corpus(path)
        assert len(corp) == 3
        assert corp.ids == ("a", "b", "c")
        assert corp.dropped == 0

    def test_placeholder_dynamics_dropped(self, corpus_csv):
        path = corpus_csv([("a", "ND", "x"), ("b", "vero testo", "y")])
        corp = load_corpus(path)
        assert len(corp) == 1
        assert corp.dropped == 1

    def test_all_default_placeholders(self, corpus_csv):
        path = corpus_csv([("a", "", ""), ("b", "N.D.", ""), ("c", "-", ""),
                           ("d", "testo buono", "")])
        corp = load_corpus(path)
        assert len(corp) == 1
        assert corp.dropped == 3

    def test_duplicate_id_names_the_id(self, corpus_csv):
        path = corpus_csv([("dup", "primo testo", ""), ("x", "altro", ""),
                           ("dup", "secondo testo", "")])
        with pytest.raises(IncmineError, match=re.escape(
                f"{path}:4: duplicate record id 'dup' (first at line 2)")):
            load_corpus(path)

    def test_zero_usable_rows(self, corpus_csv):
        path = corpus_csv([("a", "ND", ""), ("b", "", "")])
        with pytest.raises(IncmineError, match=r"no usable rows \(2 dropped\)"):
            load_corpus(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,text\nx,y\n", encoding="utf-8")
        with pytest.raises(IncmineError, match=":1"):
            load_corpus(str(path))

    def test_wrong_field_count_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,dynamics,consequence\na,solo due\n", encoding="utf-8")
        with pytest.raises(IncmineError, match=":2"):
            load_corpus(str(path))

    def test_rfc4180_quoting(self, corpus_csv):
        path = corpus_csv([("a", 'cade, poi "urta" la scala', "x")])
        corp = load_corpus(path)
        assert corp.dynamics[0] == 'cade, poi "urta" la scala'

    def test_jsonl_load(self, tmp_path):
        path = tmp_path / "c.jsonl"
        rows = [{"id": "a", "dynamics": "cade male", "consequence": "botta"},
                {"id": "b", "dynamics": "scivola"}]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n",
                        encoding="utf-8")
        corp = load_corpus(str(path), fmt="jsonl")
        assert len(corp) == 2
        assert corp.consequences == ("botta", "")

    @pytest.mark.parametrize("fmt, text", [
        ("jsonl", '{"id": "a", "dynamics": "cade male", "consequence": "botta"}\n'
                  '{"id": "b", "dynamics": "ND"}\n'),
        ("csv", "id,dynamics,consequence\na,cade male,botta\nb,ND,\n"),
    ])
    def test_byte_order_mark_is_skipped(self, tmp_path, fmt, text):
        plain, bom = plain_and_bom(tmp_path, fmt, text)
        assert load_corpus(bom, fmt=fmt) == load_corpus(plain, fmt=fmt)
        assert load_corpus(bom, fmt=fmt).ids == ("a",)

    def test_jsonl_parse_error_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": "a", "dynamics": "ok"}\n{nope\n', encoding="utf-8")
        with pytest.raises(IncmineError, match=":2"):
            load_corpus(str(path), fmt="jsonl")


class TestPreprocess:
    def test_stopword_removal(self):
        cfg = PreprocessConfig(stopwords=frozenset({"il", "dalla"}))
        assert preprocess("Il lavoratore cade dalla scala.", cfg) == \
            ["lavoratore", "cade", "scala"]

    def test_accent_nfc_and_case(self):
        cfg = PreprocessConfig(stopwords=frozenset())
        assert preprocess("È CADUTO!!", cfg) == ["caduto"]
        # decomposed form normalizes to the same tokens
        assert preprocess("È CADUTO!!", cfg) == ["caduto"]

    def test_nfc_again_after_lowercasing(self):
        # "J" has no precomposed caron form, its lowercase does: "ǰ" (U+01F0)
        cfg = PreprocessConfig(stopwords=frozenset(), min_token_len=1)
        assert preprocess("J\u030cA", cfg) == ["\u01f0a"]

    def test_digits_and_short_tokens(self):
        cfg = PreprocessConfig(stopwords=frozenset())
        assert preprocess("x 12 kg", cfg) == ["kg"]

    def test_min_token_len_one_keeps_singles(self):
        cfg = PreprocessConfig(stopwords=frozenset(), min_token_len=1)
        assert preprocess("x 12 kg", cfg) == ["x", "kg"]

    def test_rejects_uppercase_stopwords(self):
        with pytest.raises(ValueError):
            PreprocessConfig(stopwords=frozenset({"IL"}))

    @given(st.text(max_size=200))
    def test_idempotent(self, text):
        cfg = PreprocessConfig(stopwords=frozenset({"di", "il"}))
        once = preprocess(text, cfg)
        again = preprocess(" ".join(once), cfg)
        assert once == again


class TestTopFrequentWords:
    def test_counting(self):
        corp = make_corpus([("x", "alfa alfa beta", "")])
        assert top_frequent_words(corp, PreprocessConfig(stopwords=frozenset()), 2) == \
            [("alfa", 2), ("beta", 1)]

    def test_tie_breaks_lexicographic(self):
        corp = make_corpus([("x", "beta alfa", "")])
        assert top_frequent_words(corp, PreprocessConfig(stopwords=frozenset()), 1) == [("alfa", 1)]

    def test_truncates_to_distinct(self):
        words = " ".join(f"parola{chr(97 + i // 26)}{chr(97 + i % 26)}"
                         for i in range(40))
        corp = make_corpus([("x", words, "")])
        assert len(top_frequent_words(corp, PreprocessConfig(stopwords=frozenset()), 100)) == 40

    def test_counts_bounded_by_total(self):
        corp = make_corpus([("x", "uno due due tre tre tre", "")])
        top = top_frequent_words(corp, PreprocessConfig(stopwords=frozenset()), 10)
        assert sum(c for _, c in top) <= 6


NO_STOPWORDS = PreprocessConfig(stopwords=frozenset())


class TestTagOntology:
    def test_direct_lookup(self):
        onto = TagOntology({"martello": "UTENSILE"})
        assert list(tokenize(["martello"], NO_STOPWORDS, onto)) == [["UTENSILE"]]

    def test_many_to_one(self):
        onto = TagOntology({"martello": "UTENSILE", "trapano": "UTENSILE"})
        assert list(tokenize(["cade martello trapano"], NO_STOPWORDS, onto)) == \
            [["cade", "UTENSILE", "UTENSILE"]]

    def test_empty_passthrough(self):
        onto = TagOntology({"ab": "B"})
        assert list(tokenize(["", "12 !"], NO_STOPWORDS, onto)) == [[], []]
        assert list(tokenize([], NO_STOPWORDS, onto)) == []

    def test_idempotent(self):
        onto = TagOntology({"martello": "UTENSILE"})
        (once,) = tokenize(["cade martello"], NO_STOPWORDS, onto)
        assert [onto.pairs.get(tok, tok) for tok in once] == once == ["cade", "UTENSILE"]

    def test_without_ontology_is_preprocess(self):
        texts = ["Il martello CADE", "", "x 12 kg"]
        cfg = PreprocessConfig(stopwords=frozenset({"il"}))
        assert list(tokenize(texts, cfg)) == [preprocess(t, cfg) for t in texts]

    def test_tsv_parsing(self, tmp_path):
        path = tmp_path / "onto.tsv"
        path.write_text("# commento\nmartello\tUTENSILE\n\ntrapano\tutensile\n",
                        encoding="utf-8")
        onto = TagOntology.from_tsv(str(path))
        assert onto.pairs == {"martello": "UTENSILE", "trapano": "UTENSILE"}

    def test_tsv_byte_order_mark_is_skipped(self, tmp_path):
        plain, bom = plain_and_bom(tmp_path, "tsv", "martello\tUTENSILE\nscala\tATTREZZO\n")
        assert TagOntology.from_tsv(bom).pairs == TagOntology.from_tsv(plain).pairs
        assert "martello" in TagOntology.from_tsv(bom).pairs

    def test_tsv_conflict(self, tmp_path):
        path = tmp_path / "onto.tsv"
        path.write_text("martello\tUTENSILE\nmartello\tARNESE\n", encoding="utf-8")
        with pytest.raises(IncmineError, match="martello"):
            TagOntology.from_tsv(str(path))

    # a backslash too: a DOT quoted string cannot hold one before its closing quote
    @pytest.mark.parametrize("tag", ("A+B", "+", "¬A", "TAG¬", "FALL\\", "A\\B", "\\"))
    def test_tag_with_label_syntax_rejected(self, tag):
        with pytest.raises(IncmineError, match=re.escape(repr(tag))):
            TagOntology({"martello": "UTENSILE", "scala": tag})

    def test_tag_equal_to_word_rejected(self):
        # a caseless script word colliding with its own tag
        with pytest.raises(IncmineError, match=re.escape("tag equals a mapped word: ['工具']")):
            TagOntology({"工具": "工具"})


class TestToTransactions:
    def test_set_semantics(self):
        corp = make_corpus([("x", "cade cade scala", "")])
        result = to_transactions(corp, PreprocessConfig(stopwords=frozenset()))
        assert result.transactions[0].items == frozenset({"cade", "scala"})

    def test_four_records_none_flagged(self):
        corp = make_corpus([("a", "uno due", ""), ("b", "tre", ""),
                            ("c", "quattro cinque", ""), ("d", "sei", "")])
        result = to_transactions(corp, PreprocessConfig(stopwords=frozenset()))
        assert len(result.transactions) == 4
        assert result.flagged == ()

    def test_stopword_only_record_flagged(self):
        cfg = PreprocessConfig(stopwords=frozenset({"il", "la"}))
        corp = make_corpus([("a", "il la", ""), ("b", "scala rotta", "")])
        result = to_transactions(corp, cfg)
        assert result.flagged == ("a",)
        assert len(result.transactions) == 1

    def test_accounting_identity(self):
        cfg = PreprocessConfig(stopwords=frozenset({"di"}))
        corp = make_corpus([("a", "di di", ""), ("b", "vite persa", ""),
                            ("c", "di", ""), ("d", "dado stretto", "")])
        result = to_transactions(corp, cfg)
        assert len(result.transactions) + len(result.flagged) == len(corp)

    def test_all_empty_is_an_error(self):
        cfg = PreprocessConfig(stopwords=frozenset({"il"}))
        corp = make_corpus([("a", "il", "")])
        with pytest.raises(IncmineError, match="every record tokenized to an empty item set"):
            to_transactions(corp, cfg)

    def test_tags_applied_before_dedup(self):
        onto = TagOntology({"martello": "UTENSILE", "trapano": "UTENSILE"})
        corp = make_corpus([("x", "martello trapano", "")])
        result = to_transactions(corp, PreprocessConfig(stopwords=frozenset()), onto)
        assert result.transactions[0].items == frozenset({"UTENSILE"})


def test_stages_read_one_tokenization():
    """Mining items, tf-idf terms and the top words come from one tokenizer:
    a record's items are its term counts' keys, and the top words count
    the untagged tokens."""
    onto = TagOntology({"martello": "UTENSILE", "trapano": "UTENSILE", "scala": "ATTREZZO"})
    cfg = PreprocessConfig(stopwords=frozenset({"il", "la"}))
    corp = make_corpus([("a", "Il martello cade sul trapano", ""),
                        ("b", "il la", ""),
                        ("c", "scala scala rotta, martello", ""),
                        ("d", "cade dalla SCALA", "")])
    txs = to_transactions(corp, cfg, onto)
    assert txs.flagged == ("b",)
    items = {t.id: t.items for t in txs.transactions}
    docs = corpus_term_counts(corp, cfg, onto)
    assert len(docs) == len(corp)
    for rec_id, counts in zip(corp.ids, docs):
        assert set(counts) == items.get(rec_id, frozenset())
    untagged = Counter(tok for text in corp.dynamics for tok in preprocess(text, cfg))
    assert dict(top_frequent_words(corp, cfg, 100)) == untagged
    assert "UTENSILE" not in untagged and items["a"] >= {"UTENSILE"}


def test_stopword_file_roundtrip(tmp_path):
    path = tmp_path / "stop.txt"
    path.write_text("Il\ndalla\n\nE\n", encoding="utf-8")
    assert load_stopwords(str(path)) == frozenset({"il", "dalla", "e"})


def test_stopword_file_byte_order_mark_is_skipped(tmp_path):
    plain, bom = plain_and_bom(tmp_path, "txt", "il\ndalla\n")
    assert load_stopwords(bom) == load_stopwords(plain) == frozenset({"il", "dalla"})


def test_bundled_stopwords():
    words = default_stopwords()
    assert "il" in words and "della" in words
    assert all(w == w.lower() for w in words)
