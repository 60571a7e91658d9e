"""Incident-record loading, text normalization and the transaction database.

Records carry two free-text fields: the event dynamics (what happened) and the
consequence (the resulting injury). A ``Corpus`` keeps them as columns -
``ids``, ``dynamics`` and ``consequences``, equal-length tuples in file
order. ``tokenize`` is the one tokenizer every text stage reads: it yields
each text's lowercase tokens, optionally collapsed onto ontology tags. Rule
mining takes each record's dynamics tokens as a set of items
(``to_transactions``), tf-idf counts them (``vectors.corpus_term_counts``)
and the sequence model reads both columns.
"""

from __future__ import annotations

import csv
import json
import re
import unicodedata
from collections import Counter
from dataclasses import dataclass, field
from importlib import resources
from typing import Iterable, Iterator, Mapping, Optional

from .errors import IncmineError

# maximal runs of Unicode letters (accents included); digits/underscore break runs
_TOKEN_RE = re.compile(r"[^\W\d_]+", re.UNICODE)

DEFAULT_PLACEHOLDERS = frozenset({"", "ND", "N.D.", "-"})

_CSV_COLUMNS = ("id", "dynamics", "consequence")

# frequent words the preprocess report lists by default
TOP_WORDS = 100


@dataclass(frozen=True)
class Corpus:
    """The kept records as equal-length columns, in file order."""
    ids: tuple[str, ...]
    dynamics: tuple[str, ...]
    consequences: tuple[str, ...]
    dropped: int  # rows discarded because dynamics was a missing-value placeholder

    def __len__(self) -> int:
        return len(self.ids)


@dataclass(frozen=True)
class PreprocessConfig:
    stopwords: frozenset[str]
    min_token_len: int = 2

    def __post_init__(self):
        if self.min_token_len < 1:
            raise ValueError("min_token_len must be >= 1")
        bad = [w for w in self.stopwords if w != w.lower()]
        if bad:
            raise ValueError(f"stopwords must be lowercase, got: {sorted(bad)[:5]}")
        object.__setattr__(self, "stopwords", frozenset(self.stopwords))


@dataclass(frozen=True)
class TagOntology:
    """word -> TAG substitution table; words lowercase, tags uppercase.

    A tag may not contain ``+`` or ``¬``: rule labels join an itemset's items
    with ``+`` and mark a negated side with ``¬``, so such a tag would give
    two itemsets one label. Nor may it contain ``\\``: a DOT quoted string
    has no escape for a backslash, so one before the closing quote would
    escape it. Tokens are letters only, so tags alone can hold either.
    """

    pairs: Mapping[str, str]

    def __post_init__(self):
        pairs = dict(self.pairs)
        for word, tag in pairs.items():
            if word != word.lower():
                raise IncmineError(f"ontology word not lowercase: {word!r}")
            if tag != tag.upper():
                raise IncmineError(f"ontology tag not uppercase: {tag!r}")
            if "+" in tag or "¬" in tag:
                raise IncmineError(
                    f"ontology tag {tag!r} contains '+' or '¬', which rule labels reserve")
            if "\\" in tag:
                raise IncmineError(
                    f"ontology tag {tag!r} contains '\\', which rules.dot cannot quote")
        tags = set(pairs.values())
        overlap = tags & set(pairs)
        if overlap:
            raise IncmineError(f"tag equals a mapped word: {sorted(overlap)}")
        object.__setattr__(self, "pairs", pairs)

    @classmethod
    def from_tsv(cls, path) -> "TagOntology":
        """Parse `word<TAB>TAG` lines; blank lines and `#` comments allowed."""
        pairs: dict[str, str] = {}
        with open(path, encoding="utf-8-sig") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                parts = line.split("\t")
                if len(parts) != 2 or not parts[0] or not parts[1]:
                    raise IncmineError(f"{path}:{lineno}: expected 'word<TAB>TAG'")
                word, tag = parts[0].strip().lower(), parts[1].strip().upper()
                if word in pairs and pairs[word] != tag:
                    raise IncmineError(
                        f"{path}:{lineno}: word {word!r} mapped to both "
                        f"{pairs[word]!r} and {tag!r}"
                    )
                pairs[word] = tag
        return cls(pairs)


@dataclass(frozen=True)
class Transaction:
    id: str
    items: frozenset[str]


@dataclass(frozen=True)
class TransactionSet:
    """Mining-ready transactions plus the ids excluded for tokenizing to nothing."""

    transactions: tuple[Transaction, ...]
    flagged: tuple[str, ...] = field(default=())


def load_corpus(path, fmt: str = "csv") -> Corpus:
    """Load incident records from CSV (id,dynamics,consequence) or JSONL.

    Either file may start with a UTF-8 byte-order mark.

    Rows whose stripped dynamics field is one of ``DEFAULT_PLACEHOLDERS``
    (the empty string among them) are dropped and counted in
    ``Corpus.dropped``. Raises on malformed files, duplicate ids and corpora
    with no usable rows.
    """
    if fmt == "csv":
        rows = _read_csv(path)
    elif fmt == "jsonl":
        rows = _read_jsonl(path)
    else:
        raise ValueError(f"unknown corpus format: {fmt!r}")

    ids: list[str] = []
    texts: list[str] = []
    consequences: list[str] = []
    seen: dict[str, int] = {}  # record id -> line
    dropped = 0
    for lineno, rec_id, dynamics, consequence in rows:
        stripped = dynamics.strip()
        if stripped in DEFAULT_PLACEHOLDERS:
            dropped += 1
            continue
        if not rec_id:
            raise IncmineError(f"{path}:{lineno}: empty record id")
        if rec_id in seen:
            raise IncmineError(f"{path}:{lineno}: duplicate record id {rec_id!r} "
                               f"(first at line {seen[rec_id]})")
        seen[rec_id] = lineno
        ids.append(rec_id)
        texts.append(dynamics)
        consequences.append(consequence)
    if not ids:
        raise IncmineError(f"{path}: no usable rows ({dropped} dropped)")
    return Corpus(ids=tuple(ids), dynamics=tuple(texts),
                  consequences=tuple(consequences), dropped=dropped)


def _read_csv(path):
    out = []
    with open(path, encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
        except csv.Error as exc:
            raise IncmineError(f"{path}:1: {exc}") from exc
        if header is None or tuple(h.strip() for h in header) != _CSV_COLUMNS:
            raise IncmineError(
                f"{path}:1: expected header {','.join(_CSV_COLUMNS)}, got {header}"
            )
        try:
            for row in reader:
                if not row:
                    continue
                if len(row) != 3:
                    raise IncmineError(
                        f"{path}:{reader.line_num}: expected 3 fields, got {len(row)}"
                    )
                out.append((reader.line_num, row[0], row[1], row[2]))
        except csv.Error as exc:
            raise IncmineError(f"{path}:{reader.line_num}: {exc}") from exc
    return out


def _read_jsonl(path):
    """(line, id, dynamics, consequence) per object.

    ``id`` is a string or an integer; ``dynamics`` is a string, or null for a
    dropped placeholder; ``consequence`` is a string, null or absent. Any
    other JSON type is an ``IncmineError`` naming the line and the field.
    """
    out = []
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            # ValueError covers JSONDecodeError and an integer over Python's
            # digit limit; RecursionError, nesting too deep
            except (ValueError, RecursionError) as exc:
                raise IncmineError(f"{path}:{lineno}: {exc}") from exc
            if not isinstance(obj, dict) or "id" not in obj or "dynamics" not in obj:
                raise IncmineError(
                    f"{path}:{lineno}: object must carry 'id' and 'dynamics'"
                )
            rec_id = obj["id"]
            if isinstance(rec_id, bool) or not isinstance(rec_id, (str, int)):
                raise IncmineError(
                    f"{path}:{lineno}: field 'id' must be a string or an integer")
            texts = [obj["dynamics"], obj.get("consequence")]
            for name, value in zip(("dynamics", "consequence"), texts):
                if value is not None and not isinstance(value, str):
                    raise IncmineError(
                        f"{path}:{lineno}: field {name!r} must be a string or null")
            out.append((lineno, str(rec_id), texts[0] or "", texts[1] or ""))
    return out


def preprocess(text: str, config: PreprocessConfig) -> list[str]:
    """Normalize (NFC), lowercase and tokenize into alphabetic runs.

    Tokens shorter than ``min_token_len`` and stopwords are removed; digits and
    punctuation never enter tokens. Order follows the text.
    """
    normalized = unicodedata.normalize("NFC", text).lower()
    # lowercasing can leave a base letter and mark that compose: "J\u030c" -> "ǰ"
    normalized = unicodedata.normalize("NFC", normalized)
    out = []
    for tok in _TOKEN_RE.findall(normalized):
        if len(tok) < config.min_token_len or tok in config.stopwords:
            continue
        out.append(tok)
    return out


def tokenize(texts: Iterable[str], config: PreprocessConfig,
             ontology: Optional[TagOntology] = None) -> Iterator[list[str]]:
    """``preprocess`` each text in turn, yielding its tokens with every mapped
    word replaced by its tag when ``ontology`` is given; unmapped tokens pass
    through. A generator: a stage holds one text's tokens at a time."""
    pairs = None if ontology is None else ontology.pairs
    for text in texts:
        tokens = preprocess(text, config)
        yield tokens if pairs is None else [pairs.get(tok, tok) for tok in tokens]


def top_frequent_words(corpus: Corpus, config: PreprocessConfig,
                       top_k: int = TOP_WORDS) -> list[tuple[str, int]]:
    """Top-k dynamics words by count, ties broken lexicographically ascending."""
    if top_k < 1:
        raise ValueError("top_k must be >= 1")
    counts: Counter[str] = Counter()
    for tokens in tokenize(corpus.dynamics, config):
        counts.update(tokens)
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return ranked[:top_k]


def to_transactions(corpus: Corpus, config: PreprocessConfig,
                    ontology: Optional[TagOntology] = None) -> TransactionSet:
    """Reduce each record's dynamics to an item set.

    Records that tokenize to nothing are flagged and left out of the mining
    set. Raises ``IncmineError`` when nothing survives.
    """
    transactions: list[Transaction] = []
    flagged: list[str] = []
    for rec_id, tokens in zip(corpus.ids, tokenize(corpus.dynamics, config, ontology)):
        items = frozenset(tokens)
        if items:
            transactions.append(Transaction(id=rec_id, items=items))
        else:
            flagged.append(rec_id)
    if not transactions:
        raise IncmineError("every record tokenized to an empty item set")
    return TransactionSet(transactions=tuple(transactions), flagged=tuple(flagged))


def load_stopwords(path) -> frozenset[str]:
    """One word per line, UTF-8; lowercased on load, blank lines skipped."""
    words = set()
    with open(path, encoding="utf-8-sig") as fh:
        for line in fh:
            word = line.strip().lower()
            if word:
                words.add(word)
    return frozenset(words)


def default_stopwords() -> frozenset[str]:
    """The bundled Italian stopword list."""
    text = resources.files("incmine.data").joinpath("stopwords_it.txt").read_text("utf-8")
    return frozenset(w.strip().lower() for w in text.splitlines() if w.strip())
