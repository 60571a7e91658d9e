"""Seeded input generator for the benchmark.

Every byte comes from numpy's PCG64 streams; nothing is downloaded and nothing
outside the generated files reaches the program.

Two streams are used.  The *structure* stream has a fixed seed: it decides
which records hold which vocabulary ranks, which consequence each record
has, and where the embedding points lie.  The *surface* stream is drawn from
``--seed``: it spells the words, orders the rows, interleaves stopwords,
numbers and punctuation, names the ontology tags and rotates the embedding
space.  Every seed therefore gives different bytes, but the same itemset
lattice, the same tf-idf matrix up to row and column order, and the same
pairwise distances up to float32 rounding.  PAM's SWAP pass count and the
number of emitted rules depend on that structure, so fixing it keeps the
spread between seeds down to the program and the machine.

Shape of the corpus:

* the 400-word dynamics vocabulary has a Zipf head of 50 words with a
  per-record inclusion probability of at least 4 % and a Zipf tail below
  1 %; ``--idf-max 4.0`` (document frequency at least 1.8 %) keeps exactly
  the head;
* records of one of 8 topics share three signature words, and their
  consequence names the topic's injury and body parts picked by their
  dynamics words;
* Italian stopwords, ``hh:mm`` times, commas and decomposed (NFD) accented
  words are mixed into the text; exactly 1 % of rows carry an ``ND`` or
  ``-`` placeholder instead of a dynamics text.

The embedding matrix has planted clusters and a decaying spectrum whose
cumulative explained variance is 0.80 at 7 components and 0.885 at
``EMBED_REDUCED_DIMS`` = 8, so a 0.85 threshold keeps 8 dimensions.
"""

from __future__ import annotations

import csv
import io
import struct
import unicodedata

import numpy as np

STRUCTURE_SEED = 20210429

# all of these are in the bundled Italian stopword list, so preprocessing drops them
STOPWORDS = ("il", "la", "di", "da", "in", "con", "su", "per", "un", "una",
             "del", "della", "nel", "alla", "dal", "dopo", "durante", "mentre",
             "che", "e", "sul", "sulla", "lo", "gli", "le", "dei", "delle")
PLACEHOLDERS = ("ND", "-")

VOCAB_SIZE = 400
HEAD_WORDS = 50          # the words the IDF band [0.1, 4.0] keeps
HEAD_TOP_P = 0.42        # inclusion probability of the most common word
HEAD_LAST_P = 0.04       # ... and of the 50th
TAIL_TOP_P = 0.008
TAIL_LAST_P = 0.001
N_TOPICS = 8
TOPIC_WORDS = 3          # signature words per topic: head ranks 8..31
N_INJURIES = 16
N_BODY_PARTS = 20
N_TAGS = 12              # each tag covers up to three head words and two tail words

EMBED_DIM = 384
EMBED_CLUSTERS = 12
EMBED_LATENT = 24
EMBED_REDUCED_DIMS = 8   # components needed for 0.85 explained variance

_CONSONANTS = ("b", "c", "d", "f", "g", "l", "m", "n", "p", "r", "s", "t",
               "v", "z", "ch", "gl", "gn", "sc", "tr", "pr", "br", "st")
_VOWELS = ("a", "e", "i", "o", "u")
_ACCENTED = ("à", "è", "ì", "ò", "ù")


def _words(rng: np.random.Generator, count: int, taken: set[str]) -> list[str]:
    """Distinct Italian-looking words of 3-4 syllables, ~10 % with a final accent."""
    out = []
    while len(out) < count:
        syllables = [_CONSONANTS[rng.integers(len(_CONSONANTS))]
                     + _VOWELS[rng.integers(len(_VOWELS))]
                     for _ in range(int(rng.integers(3, 5)))]
        if rng.random() < 0.1:
            syllables[-1] = syllables[-1][:-1] + _ACCENTED[rng.integers(len(_ACCENTED))]
        word = "".join(syllables)
        if word not in taken:
            taken.add(word)
            out.append(word)
    return out


def _zipf(top: float, last: float, count: int) -> np.ndarray:
    """Probabilities top * r**-s for ranks 1..count, with s chosen to end at last."""
    s = np.log(top / last) / np.log(count)
    return top * np.arange(1, count + 1, dtype=np.float64) ** -s


def _record_structure(rng: np.random.Generator, p: np.ndarray):
    """Vocabulary ranks of one record's dynamics and its consequence template."""
    topic = int(rng.integers(N_TOPICS))
    signature = np.arange(8 + TOPIC_WORDS * topic, 8 + TOPIC_WORDS * (topic + 1))
    p = p.copy()
    p[signature] = 0.75
    ranks = np.nonzero(rng.random(VOCAB_SIZE) < p)[0]
    if len(ranks) == 0:
        ranks = signature[:1]
    injury = topic if rng.random() < 0.9 else int(rng.integers(N_INJURIES))
    parts = (int(ranks.min()) % N_BODY_PARTS,)
    form = rng.random()
    if form < 0.01:
        parts = ()  # consequence left as the ND placeholder
    elif form < 0.3:
        parts += (int(ranks.max()) % N_BODY_PARTS,)
    return ranks, injury, parts


def _sentence(rng: np.random.Generator, words: list[str]) -> str:
    """Content words with stopwords, times and commas interleaved.

    A few words are written decomposed (NFD); preprocessing folds them back
    onto the composed token.
    """
    parts = []
    for word in words:
        if rng.random() < 0.4:
            parts.append(STOPWORDS[int(rng.integers(len(STOPWORDS)))])
        if rng.random() < 0.05:
            word = unicodedata.normalize("NFD", word)
        parts.append(word)
        if rng.random() < 0.08:
            parts[-1] += ","
        if rng.random() < 0.05:
            parts.append(f"{int(rng.integers(1, 24))}:{int(rng.integers(0, 60)):02d}")
    text = " ".join(parts)
    return text[:1].upper() + text[1:] + "."


def _lexicon(seed: int):
    """The seed's spelling of the vocabulary, consequences and tags."""
    rng = np.random.default_rng([seed, 0])
    taken: set[str] = set()
    vocab = _words(rng, VOCAB_SIZE, taken)
    injuries = _words(rng, N_INJURIES, taken)
    body_parts = _words(rng, N_BODY_PARTS, taken)
    tags = [w.upper() for w in _words(rng, N_TAGS, taken)]
    return vocab, injuries, body_parts, tags


def corpus_csv(seed: int, rows: int) -> bytes:
    """Corpus CSV (id,dynamics,consequence); exactly rows // 100 placeholder rows."""
    structure = np.random.default_rng([STRUCTURE_SEED, 1, rows])
    surface = np.random.default_rng([seed, 1])
    vocab, injuries, body_parts, _ = _lexicon(seed)
    p = np.concatenate([_zipf(HEAD_TOP_P, HEAD_LAST_P, HEAD_WORDS),
                        _zipf(TAIL_TOP_P, TAIL_LAST_P, VOCAB_SIZE - HEAD_WORDS)])
    records = [_record_structure(structure, p) for _ in range(rows)]
    placeholder = np.zeros(rows, dtype=bool)
    placeholder[structure.choice(rows, size=rows // 100, replace=False)] = True

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["id", "dynamics", "consequence"])
    for i, r in enumerate(surface.permutation(rows)):
        ranks, injury, parts = records[r]
        if placeholder[r]:
            dynamics = PLACEHOLDERS[int(surface.integers(2))]
        else:
            dynamics = _sentence(surface, [vocab[j] for j in surface.permutation(ranks)])
        if not parts:
            consequence = "ND"
        elif len(parts) == 2:
            consequence = f"{injuries[injury]} {body_parts[parts[0]]} e {body_parts[parts[1]]}"
        else:
            stop = STOPWORDS[int(surface.integers(len(STOPWORDS)))]
            consequence = f"{injuries[injury]} {stop} {body_parts[parts[0]]}"
        writer.writerow([f"R{i:06d}", dynamics, consequence])
    return buf.getvalue().encode("utf-8")


def ontology_tsv(seed: int) -> bytes:
    """word<TAB>TAG lines: each tag covers up to three head ranks >= 32 and two tail ranks."""
    structure = np.random.default_rng([STRUCTURE_SEED, 2])
    head = structure.permutation(np.arange(32, HEAD_WORDS))
    tail = structure.permutation(np.arange(HEAD_WORDS, VOCAB_SIZE))
    vocab, _, _, tags = _lexicon(seed)
    lines = ["# word<TAB>TAG", ""]
    for t, tag in enumerate(tags):
        for j in list(head[3 * t:3 * t + 3]) + list(tail[2 * t:2 * t + 2]):
            lines.append(f"{vocab[int(j)]}\t{tag}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def _spectrum() -> np.ndarray:
    """Latent variances: 8 leading dims hold 0.885 of the total, 16 more 0.095."""
    head = 0.93 ** np.arange(EMBED_REDUCED_DIMS)
    head *= 0.80 / head[:-1].sum()  # the first 7 dims stop at 0.80, below 0.85
    tail = 0.8 ** np.arange(EMBED_LATENT - EMBED_REDUCED_DIMS)
    tail *= 0.095 / tail.sum()
    return np.concatenate([head, tail])


def embeddings_bin(seed: int, rows: int) -> bytes:
    """Binary embedding matrix: <QQ n_rows n_cols, then little-endian float32.

    Latent coordinates (planted cluster centres plus spread) are whitened and
    scaled to the variances of ``_spectrum``; isotropic noise in all
    EMBED_DIM columns adds the last 2 % of the variance.  The seed rotates the
    result with a random orthogonal matrix and shuffles the rows, which
    leaves every pairwise distance unchanged.
    """
    structure = np.random.default_rng([STRUCTURE_SEED, 3, rows])
    centres = structure.normal(size=(EMBED_CLUSTERS, EMBED_LATENT)) * 3.0
    labels = structure.integers(EMBED_CLUSTERS, size=rows)
    latent = centres[labels] + structure.normal(size=(rows, EMBED_LATENT))
    latent -= latent.mean(axis=0)
    u, _, _ = np.linalg.svd(latent, full_matrices=False)
    points = structure.normal(scale=np.sqrt(0.02 / EMBED_DIM), size=(rows, EMBED_DIM))
    points[:, :EMBED_LATENT] += u * np.sqrt((rows - 1) * _spectrum())

    surface = np.random.default_rng([seed, 3])
    rotation, _ = np.linalg.qr(surface.normal(size=(EMBED_DIM, EMBED_DIM)))
    values = points[surface.permutation(rows)] @ rotation.T
    return struct.pack("<QQ", rows, EMBED_DIM) + values.astype("<f4").tobytes()
