"""Incident-record loading, text normalization and the transaction database.

Records carry two free-text fields: the event dynamics (what happened) and the
consequence (the resulting injury). Each record's dynamics text is reduced to
a set of items - lowercase tokens, optionally collapsed onto ontology tags -
and the resulting transactions feed rule mining, vectorization and the
sequence model.
"""

from __future__ import annotations

import csv
import json
import re
import unicodedata
from collections import Counter
from dataclasses import dataclass, field
from importlib import resources
from typing import Iterable, Mapping, Optional, Sequence

from .errors import IncmineError

# maximal runs of Unicode letters (accents included); digits/underscore break runs
_TOKEN_RE = re.compile(r"[^\W\d_]+", re.UNICODE)

DEFAULT_PLACEHOLDERS = frozenset({"", "ND", "N.D.", "-"})

_CSV_COLUMNS = ("id", "dynamics", "consequence")

# frequent words the preprocess report lists by default
TOP_WORDS = 100


class CorpusError(IncmineError):
    pass


class CorpusFormatError(CorpusError):
    """Malformed input file; message carries the 1-based line number."""


class DuplicateIdError(CorpusError):
    pass


class EmptyCorpusError(CorpusError):
    pass


class EmptyTransactionsError(CorpusError):
    pass


class OntologyError(IncmineError):
    pass


@dataclass(frozen=True)
class RawRecord:
    id: str
    dynamics: str
    consequence: str = ""


@dataclass(frozen=True)
class Corpus:
    records: tuple[RawRecord, ...]
    dropped: int  # rows discarded because dynamics was a missing-value placeholder

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(r.id for r in self.records)


@dataclass(frozen=True)
class PreprocessConfig:
    stopwords: frozenset[str] = frozenset()
    min_token_len: int = 2
    placeholders: frozenset[str] = DEFAULT_PLACEHOLDERS

    def __post_init__(self):
        if self.min_token_len < 1:
            raise ValueError("min_token_len must be >= 1")
        bad = [w for w in self.stopwords if w != w.lower()]
        if bad:
            raise ValueError(f"stopwords must be lowercase, got: {sorted(bad)[:5]}")
        object.__setattr__(self, "stopwords", frozenset(self.stopwords))
        object.__setattr__(self, "placeholders", frozenset(self.placeholders))


@dataclass(frozen=True)
class TagOntology:
    """word -> TAG substitution table; words lowercase, tags uppercase.

    A tag may not contain ``+`` or ``¬``: rule labels join an itemset's items
    with ``+`` and mark a negated side with ``¬``, so such a tag would give
    two itemsets one label. Tokens are letters only, so tags alone can.
    """

    pairs: Mapping[str, str]

    def __post_init__(self):
        pairs = dict(self.pairs)
        for word, tag in pairs.items():
            if word != word.lower():
                raise OntologyError(f"ontology word not lowercase: {word!r}")
            if tag != tag.upper():
                raise OntologyError(f"ontology tag not uppercase: {tag!r}")
            if "+" in tag or "¬" in tag:
                raise OntologyError(
                    f"ontology tag {tag!r} contains '+' or '¬', which rule labels reserve")
        tags = set(pairs.values())
        overlap = tags & set(pairs)
        if overlap:
            raise OntologyError(f"tag equals a mapped word: {sorted(overlap)}")
        object.__setattr__(self, "pairs", pairs)

    @classmethod
    def from_tsv(cls, path) -> "TagOntology":
        """Parse `word<TAB>TAG` lines; blank lines and `#` comments allowed."""
        pairs: dict[str, str] = {}
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                parts = line.split("\t")
                if len(parts) != 2 or not parts[0] or not parts[1]:
                    raise OntologyError(f"{path}:{lineno}: expected 'word<TAB>TAG'")
                word, tag = parts[0].strip().lower(), parts[1].strip().upper()
                if word in pairs and pairs[word] != tag:
                    raise OntologyError(
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


def load_corpus(path, fmt: str = "csv",
                placeholders: frozenset[str] = DEFAULT_PLACEHOLDERS) -> Corpus:
    """Load incident records from CSV (id,dynamics,consequence) or JSONL.

    Either file may start with a UTF-8 byte-order mark.

    Rows whose dynamics field is empty or matches a placeholder are dropped and
    counted in ``Corpus.dropped``. Raises on malformed files, duplicate ids
    and corpora with no usable rows.
    """
    if fmt == "csv":
        rows = _read_csv(path)
    elif fmt == "jsonl":
        rows = _read_jsonl(path)
    else:
        raise ValueError(f"unknown corpus format: {fmt!r}")

    records: list[RawRecord] = []
    seen: set[str] = set()
    dropped = 0
    for lineno, rec_id, dynamics, consequence in rows:
        stripped = dynamics.strip()
        if stripped == "" or stripped in placeholders:
            dropped += 1
            continue
        if not rec_id:
            raise CorpusFormatError(f"{path}:{lineno}: empty record id")
        if rec_id in seen:
            raise DuplicateIdError(f"duplicate record id: {rec_id!r}")
        seen.add(rec_id)
        records.append(RawRecord(id=rec_id, dynamics=dynamics, consequence=consequence))
    if not records:
        raise EmptyCorpusError(f"{path}: no usable rows ({dropped} dropped)")
    return Corpus(records=tuple(records), dropped=dropped)


def _read_csv(path):
    out = []
    with open(path, encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
        except csv.Error as exc:
            raise CorpusFormatError(f"{path}:1: {exc}") from exc
        if header is None or tuple(h.strip() for h in header) != _CSV_COLUMNS:
            raise CorpusFormatError(
                f"{path}:1: expected header {','.join(_CSV_COLUMNS)}, got {header}"
            )
        try:
            for row in reader:
                if not row:
                    continue
                if len(row) != 3:
                    raise CorpusFormatError(
                        f"{path}:{reader.line_num}: expected 3 fields, got {len(row)}"
                    )
                out.append((reader.line_num, row[0], row[1], row[2]))
        except csv.Error as exc:
            raise CorpusFormatError(f"{path}:{reader.line_num}: {exc}") from exc
    return out


def _read_jsonl(path):
    """(line, id, dynamics, consequence) per object.

    ``id`` is a string or an integer; ``dynamics`` is a string, or null for a
    dropped placeholder; ``consequence`` is a string, null or absent. Any
    other JSON type is a ``CorpusFormatError`` naming the line and the field.
    """
    out = []
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except (json.JSONDecodeError, RecursionError) as exc:  # or nested too deep
                raise CorpusFormatError(f"{path}:{lineno}: {exc}") from exc
            if not isinstance(obj, dict) or "id" not in obj or "dynamics" not in obj:
                raise CorpusFormatError(
                    f"{path}:{lineno}: object must carry 'id' and 'dynamics'"
                )
            rec_id = obj["id"]
            if isinstance(rec_id, bool) or not isinstance(rec_id, (str, int)):
                raise CorpusFormatError(
                    f"{path}:{lineno}: field 'id' must be a string or an integer")
            texts = [obj["dynamics"], obj.get("consequence")]
            for name, value in zip(("dynamics", "consequence"), texts):
                if value is not None and not isinstance(value, str):
                    raise CorpusFormatError(
                        f"{path}:{lineno}: field {name!r} must be a string or null")
            out.append((lineno, str(rec_id), texts[0] or "", texts[1] or ""))
    return out


def preprocess(text: str, config: PreprocessConfig) -> list[str]:
    """Normalize (NFC), lowercase and tokenize into alphabetic runs.

    Tokens shorter than ``min_token_len`` and stopwords are removed; digits and
    punctuation never enter tokens. Order follows the text.
    """
    normalized = unicodedata.normalize("NFC", text).lower()
    normalized = unicodedata.normalize("NFC", normalized)
    out = []
    for tok in _TOKEN_RE.findall(normalized):
        if len(tok) < config.min_token_len or tok in config.stopwords:
            continue
        out.append(tok)
    return out


def top_frequent_words(corpus: Corpus, k: int,
                       config: PreprocessConfig) -> list[tuple[str, int]]:
    """Top-k dynamics words by count, ties broken lexicographically ascending."""
    if k < 1:
        raise ValueError("k must be >= 1")
    counts: Counter[str] = Counter()
    for rec in corpus:
        counts.update(preprocess(rec.dynamics, config))
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return ranked[:k]


def apply_tags(tokens: Sequence[str], ontology: TagOntology) -> list[str]:
    """Replace each mapped word with its tag; unmapped tokens pass through."""
    pairs = ontology.pairs
    return [pairs.get(tok, tok) for tok in tokens]


def to_transactions(corpus: Corpus, config: PreprocessConfig,
                    ontology: Optional[TagOntology] = None) -> TransactionSet:
    """Reduce each record's dynamics to an item set.

    Records that tokenize to nothing are flagged and left out of the mining
    set. Raises EmptyTransactionsError when nothing survives.
    """
    transactions: list[Transaction] = []
    flagged: list[str] = []
    for rec in corpus:
        tokens = preprocess(rec.dynamics, config)
        if ontology is not None:
            tokens = apply_tags(tokens, ontology)
        items = frozenset(tokens)
        if items:
            transactions.append(Transaction(id=rec.id, items=items))
        else:
            flagged.append(rec.id)
    if not transactions:
        raise EmptyTransactionsError("every record tokenized to an empty item set")
    return TransactionSet(transactions=tuple(transactions), flagged=tuple(flagged))


def load_stopwords(path) -> frozenset[str]:
    """One word per line, UTF-8; lowercased on load, blank lines skipped."""
    words = set()
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            word = line.strip().lower()
            if word:
                words.add(word)
    return frozenset(words)


def default_stopwords() -> frozenset[str]:
    """The bundled Italian stopword list."""
    text = resources.files("incmine.data").joinpath("stopwords_it.txt").read_text("utf-8")
    return frozenset(w.strip().lower() for w in text.splitlines() if w.strip())
