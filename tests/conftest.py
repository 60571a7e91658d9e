import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(__file__))

from incmine.corpus import Transaction

from helpers import FIXTURE_ROWS, _csv_quote


@pytest.fixture
def toy_transactions():
    """Three {a,b} transactions and one {c}."""
    return [
        Transaction("t0", frozenset({"a", "b"})),
        Transaction("t1", frozenset({"a", "b"})),
        Transaction("t2", frozenset({"a", "b"})),
        Transaction("t3", frozenset({"c"})),
    ]


@pytest.fixture
def corpus_csv(tmp_path):
    """Factory writing a corpus CSV and returning its path."""
    def _write(rows, name="corpus.csv"):
        path = tmp_path / name
        lines = ["id,dynamics,consequence"]
        for row in rows:
            fields = list(row) + [""] * (3 - len(row))
            lines.append(",".join(_csv_quote(f) for f in fields))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return str(path)
    return _write


@pytest.fixture
def fixture_corpus_path(corpus_csv):
    return corpus_csv(FIXTURE_ROWS)


@pytest.fixture
def rng():
    return np.random.default_rng(2024)
