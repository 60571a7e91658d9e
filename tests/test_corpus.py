import json
import re

import pytest
from hypothesis import given, strategies as st

from incmine.corpus import (
    CorpusFormatError,
    DuplicateIdError,
    EmptyCorpusError,
    EmptyTransactionsError,
    OntologyError,
    PreprocessConfig,
    TagOntology,
    apply_tags,
    default_stopwords,
    load_corpus,
    load_stopwords,
    preprocess,
    to_transactions,
    top_frequent_words,
)
from conftest import make_corpus


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
        path = corpus_csv([("dup", "primo testo", ""), ("dup", "secondo testo", "")])
        with pytest.raises(DuplicateIdError, match="dup"):
            load_corpus(path)

    def test_zero_usable_rows(self, corpus_csv):
        path = corpus_csv([("a", "ND", ""), ("b", "", "")])
        with pytest.raises(EmptyCorpusError):
            load_corpus(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,text\nx,y\n", encoding="utf-8")
        with pytest.raises(CorpusFormatError, match=":1"):
            load_corpus(str(path))

    def test_wrong_field_count_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,dynamics,consequence\na,solo due\n", encoding="utf-8")
        with pytest.raises(CorpusFormatError, match=":2"):
            load_corpus(str(path))

    def test_rfc4180_quoting(self, corpus_csv):
        path = corpus_csv([("a", 'cade, poi "urta" la scala', "x")])
        corp = load_corpus(path)
        assert corp.records[0].dynamics == 'cade, poi "urta" la scala'

    def test_jsonl_load(self, tmp_path):
        path = tmp_path / "c.jsonl"
        rows = [{"id": "a", "dynamics": "cade male", "consequence": "botta"},
                {"id": "b", "dynamics": "scivola"}]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n",
                        encoding="utf-8")
        corp = load_corpus(str(path), fmt="jsonl")
        assert len(corp) == 2
        assert corp.records[1].consequence == ""

    @pytest.mark.parametrize("fmt, text", [
        ("jsonl", '{"id": "a", "dynamics": "cade male", "consequence": "botta"}\n'
                  '{"id": "b", "dynamics": "ND"}\n'),
        ("csv", "id,dynamics,consequence\na,cade male,botta\nb,ND,\n"),
    ])
    def test_byte_order_mark_is_skipped(self, tmp_path, fmt, text):
        plain, bom = tmp_path / f"plain.{fmt}", tmp_path / f"bom.{fmt}"
        plain.write_bytes(text.encode("utf-8"))
        bom.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        assert load_corpus(str(bom), fmt=fmt) == load_corpus(str(plain), fmt=fmt)
        assert load_corpus(str(bom), fmt=fmt).ids == ("a",)

    def test_jsonl_parse_error_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": "a", "dynamics": "ok"}\n{nope\n', encoding="utf-8")
        with pytest.raises(CorpusFormatError, match=":2"):
            load_corpus(str(path), fmt="jsonl")


class TestPreprocess:
    def test_stopword_removal(self):
        cfg = PreprocessConfig(stopwords=frozenset({"il", "dalla"}))
        assert preprocess("Il lavoratore cade dalla scala.", cfg) == \
            ["lavoratore", "cade", "scala"]

    def test_accent_nfc_and_case(self):
        cfg = PreprocessConfig()
        assert preprocess("È CADUTO!!", cfg) == ["caduto"]
        # decomposed form normalizes to the same tokens
        assert preprocess("È CADUTO!!", cfg) == ["caduto"]

    def test_digits_and_short_tokens(self):
        cfg = PreprocessConfig()
        assert preprocess("x 12 kg", cfg) == ["kg"]

    def test_min_token_len_one_keeps_singles(self):
        cfg = PreprocessConfig(min_token_len=1)
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
        assert top_frequent_words(corp, 2, PreprocessConfig()) == \
            [("alfa", 2), ("beta", 1)]

    def test_tie_breaks_lexicographic(self):
        corp = make_corpus([("x", "beta alfa", "")])
        assert top_frequent_words(corp, 1, PreprocessConfig()) == [("alfa", 1)]

    def test_truncates_to_distinct(self):
        words = " ".join(f"parola{chr(97 + i // 26)}{chr(97 + i % 26)}"
                         for i in range(40))
        corp = make_corpus([("x", words, "")])
        assert len(top_frequent_words(corp, 100, PreprocessConfig())) == 40

    def test_counts_bounded_by_total(self):
        corp = make_corpus([("x", "uno due due tre tre tre", "")])
        top = top_frequent_words(corp, 10, PreprocessConfig())
        assert sum(c for _, c in top) <= 6


class TestTagOntology:
    def test_direct_lookup(self):
        onto = TagOntology({"martello": "UTENSILE"})
        assert apply_tags(["martello"], onto) == ["UTENSILE"]

    def test_many_to_one(self):
        onto = TagOntology({"martello": "UTENSILE", "trapano": "UTENSILE"})
        assert apply_tags(["cade", "martello", "trapano"], onto) == \
            ["cade", "UTENSILE", "UTENSILE"]

    def test_empty_passthrough(self):
        assert apply_tags([], TagOntology({"a": "B"})) == []

    def test_idempotent(self):
        onto = TagOntology({"martello": "UTENSILE"})
        tokens = ["cade", "martello"]
        once = apply_tags(tokens, onto)
        assert apply_tags(once, onto) == once

    def test_tsv_parsing(self, tmp_path):
        path = tmp_path / "onto.tsv"
        path.write_text("# commento\nmartello\tUTENSILE\n\ntrapano\tutensile\n",
                        encoding="utf-8")
        onto = TagOntology.from_tsv(str(path))
        assert onto.pairs == {"martello": "UTENSILE", "trapano": "UTENSILE"}

    def test_tsv_conflict(self, tmp_path):
        path = tmp_path / "onto.tsv"
        path.write_text("martello\tUTENSILE\nmartello\tARNESE\n", encoding="utf-8")
        with pytest.raises(OntologyError, match="martello"):
            TagOntology.from_tsv(str(path))

    @pytest.mark.parametrize("tag", ("A+B", "+", "¬A", "TAG¬"))
    def test_tag_with_label_syntax_rejected(self, tag):
        with pytest.raises(OntologyError, match=re.escape(repr(tag))):
            TagOntology({"martello": "UTENSILE", "scala": tag})

    def test_tag_equal_to_word_rejected(self):
        # a caseless script word colliding with its own tag
        with pytest.raises(OntologyError):
            TagOntology({"工具": "工具"})


class TestToTransactions:
    def test_set_semantics(self):
        corp = make_corpus([("x", "cade cade scala", "")])
        result = to_transactions(corp, PreprocessConfig())
        assert result.transactions[0].items == frozenset({"cade", "scala"})

    def test_four_records_none_flagged(self):
        corp = make_corpus([("a", "uno due", ""), ("b", "tre", ""),
                            ("c", "quattro cinque", ""), ("d", "sei", "")])
        result = to_transactions(corp, PreprocessConfig())
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
        with pytest.raises(EmptyTransactionsError):
            to_transactions(corp, cfg)

    def test_tags_applied_before_dedup(self):
        onto = TagOntology({"martello": "UTENSILE", "trapano": "UTENSILE"})
        corp = make_corpus([("x", "martello trapano", "")])
        result = to_transactions(corp, PreprocessConfig(), onto)
        assert result.transactions[0].items == frozenset({"UTENSILE"})


def test_stopword_file_roundtrip(tmp_path):
    path = tmp_path / "stop.txt"
    path.write_text("Il\ndalla\n\nE\n", encoding="utf-8")
    assert load_stopwords(str(path)) == frozenset({"il", "dalla", "e"})


def test_bundled_stopwords():
    words = default_stopwords()
    assert "il" in words and "della" in words
    assert all(w == w.lower() for w in words)
