"""CLI stdout and exit codes on the seeded corpus of ``scripts/stdout_corpus.py`` match
the pinned ``tests/stdout_corpus.txt``; a mismatch prints each case's documents and
command lines, so it can be replayed on the code that made the file."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "stdout_corpus.py"


def test_stdout_matches_the_pinned_corpus():
    spec = importlib.util.spec_from_file_location("stdout_corpus", SCRIPT)
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    found = corpus.mismatches()
    assert not found, "\n\n".join(found)
