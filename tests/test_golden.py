"""Replay the committed CLI golden corpus (tests/golden/cli.json) byte for byte."""

from golden.make import load, mismatches


def test_cli_golden_corpus_replays_byte_for_byte():
    corpus = load()
    assert len(corpus) > 80
    assert mismatches(corpus) == []
