"""Test data and writers shared by the test modules.

A plain module, not ``conftest.py``: the test modules import these by name,
and in a session that also collects ``perfbench/tests`` the name
``conftest`` can resolve to that directory's conftest instead.
"""

import struct
from collections import Counter

import numpy as np

from incmine.corpus import Corpus
from incmine.vectors import TermCounts


def save_embeddings(matrix, path, fmt="text"):
    """Write the 2-D array ``matrix`` in the text or binary format
    ``load_embeddings`` reads."""
    if fmt == "text":
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("{} {}\n".format(*matrix.shape))
            for row in matrix:
                fh.write(" ".join(repr(float(v)) for v in row) + "\n")
    elif fmt == "binary":
        with open(path, "wb") as fh:
            fh.write(struct.pack("<QQ", *matrix.shape))
            fh.write(matrix.astype("<f4").tobytes(order="C"))
    else:
        raise ValueError("fmt must be 'text' or 'binary'")


def plain_and_bom(tmp_path, name, text):
    """Write ``text`` as UTF-8 twice: plain, and after a byte-order mark."""
    plain, bom = tmp_path / f"plain.{name}", tmp_path / f"bom.{name}"
    plain.write_bytes(text.encode("utf-8"))
    bom.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    return str(plain), str(bom)


def term_columns(docs):
    """``{term: column}`` as ``tfidf_matrix`` numbers them: sorted terms."""
    return {t: j for j, t in enumerate(sorted({t for counts in docs for t in counts}))}


def term_counts(docs):
    """The ``TermCounts`` of the Mapping ``docs``, one ``{term: count >= 1}``
    per record, term ids numbered by first occurrence as
    ``corpus_term_counts`` numbers them."""
    ids = {}
    entries = sorted((i, ids.setdefault(term, len(ids)), count)
                     for i, counts in enumerate(docs) for term, count in counts.items())
    assert all(count >= 1 for *_, count in entries), "a token occurs at least once"
    rows, cols, counts = np.array(entries, dtype=np.int64).reshape(-1, 3).T
    return TermCounts(n_rows=len(docs), terms=tuple(ids), rows=rows, cols=cols, counts=counts)


def counters(counts):
    """One ``Counter`` of terms per record of the ``TermCounts`` ``counts``."""
    docs = [Counter() for _ in range(counts.n_rows)]
    for row, col, count in zip(counts.rows.tolist(), counts.cols.tolist(),
                               counts.counts.tolist()):
        docs[row][counts.terms[col]] = count
    return docs


def make_corpus(rows):
    """Build a Corpus directly from (id, dynamics[, consequence]) tuples."""
    return Corpus(ids=tuple(r[0] for r in rows), dynamics=tuple(r[1] for r in rows),
                  consequences=tuple(r[2] if len(r) > 2 else "" for r in rows),
                  dropped=0)


def _csv_quote(field):
    if any(ch in field for ch in ',"\n'):
        return '"' + field.replace('"', '""') + '"'
    return field


FIXTURE_ROWS = [
    ("r01", "operaio scivola su scala bagnata", "frattura gamba"),
    ("r02", "taglio con lama affilata durante lavorazione", "lacerazione mano"),
    ("r03", "caduta da ponteggio alto", "contusione spalla"),
    ("r04", "urto contro carrello elevatore", "trauma cranico"),
    ("r05", "schiacciamento mano sotto pressa", "amputazione dita"),
    ("r06", "ustione da metallo fuso in fonderia", "ustione braccio"),
    ("r07", "inalazione fumi densi saldatura", "intossicazione vie"),
    ("r08", "contatto con cavo elettrico scoperto", "folgorazione lieve"),
    ("r09", "scivola su pavimento bagnato officina", "frattura polso"),
    ("r10", "caduta scala durante manutenzione", "contusione schiena"),
    ("r11", "taglio lama su banco lavorazione", "lacerazione dita"),
    ("r12", "urto carrello in retromarcia", "trauma lieve"),
]
