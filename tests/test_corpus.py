import os
import random
import re
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import TOKENS
from hieralign.corpus import (
    NULL_ID,
    NULL_TOKEN,
    CorpusError,
    LoadStats,
    SentencePair,
    Vocabulary,
    build_vocabulary,
    drop_empty,
    encode_corpus,
    encode_pairs,
    load_parallel_corpus,
    read_bitext,
    read_bitext_joined,
)


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_parallel_basic(tmp_path):
    src = write(tmp_path / "s", "a b\n")
    tgt = write(tmp_path / "t", "x y z\n")
    pairs, vsrc, vtgt, stats = load_parallel_corpus(src, tgt)
    assert len(pairs) == 1
    assert pairs[0].n == 2 and pairs[0].m == 3
    assert stats.kept == 1


def test_empty_side_skipped(tmp_path):
    src = write(tmp_path / "s", "a\n\n")
    tgt = write(tmp_path / "t", "x\nu\n")
    pairs, _, _, stats = load_parallel_corpus(src, tgt)
    assert len(pairs) == 1
    assert pairs[0].index == 0
    assert stats.skipped_empty == 1


def test_line_count_mismatch(tmp_path):
    src = write(tmp_path / "s", "a\nb\nc\n")
    tgt = write(tmp_path / "t", "x\ny\n")
    with pytest.raises(CorpusError, match=r"3.*2"):
        read_bitext(src, tgt)


def test_undecodable_bytes(tmp_path):
    src = tmp_path / "s"
    src.write_bytes(b"ok\n\xff\xfe broken\n")
    tgt = write(tmp_path / "t", "x\ny\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(src))}:2: undecodable byte 0xff$"):
        read_bitext(str(src), tgt)


def test_joined_basic(tmp_path):
    path = write(tmp_path / "j", "a b ||| x y\n")
    pairs, _, _, _ = encode_corpus(read_bitext_joined(path))
    assert pairs[0].n == 2 and pairs[0].m == 2


def test_joined_lowercase_finds_a_cased_separator_among_raw_tokens(tmp_path):
    path = write(tmp_path / "j", "Das Haus <SEP> The House\n")
    assert read_bitext_joined(path, "<SEP>", lowercase=True) == [(["das", "haus"], ["the", "house"])]
    with pytest.raises(CorpusError, match=re.escape(f"{path}:1: missing separator '<sep>'")):
        read_bitext_joined(path, "<sep>", lowercase=True)


def test_joined_duplicate_separator(tmp_path):
    path = write(tmp_path / "j", "a ||| x ||| y\n")
    with pytest.raises(CorpusError, match=re.escape(f"{path}:1: duplicated separator '|||'")):
        read_bitext_joined(path)


def test_joined_missing_separator(tmp_path):
    path = write(tmp_path / "j", "a b ||| x\na b c\n")
    with pytest.raises(CorpusError, match=re.escape(f"{path}:2: missing separator '|||'")):
        read_bitext_joined(path)


def test_vocabulary_first_occurrence_order():
    vocab = Vocabulary()
    for tok in ["b", "a", "b"]:
        vocab.add(tok)
    assert vocab.lookup("b") == 1
    assert vocab.lookup("a") == 2
    assert vocab.token(NULL_ID) == NULL_TOKEN
    assert len(vocab) == 3


def test_vocabulary_empty_corpus():
    vsrc, vtgt = build_vocabulary([])
    assert len(vsrc) == 1 and len(vtgt) == 1


def test_vocabulary_deterministic(tmp_path):
    src = write(tmp_path / "s", "c a\nb a\n")
    tgt = write(tmp_path / "t", "z\ny z\n")
    _, v1, w1, _ = load_parallel_corpus(src, tgt)
    _, v2, w2, _ = load_parallel_corpus(src, tgt)
    assert [v1.token(k) for k in range(len(v1))] == [v2.token(k) for k in range(len(v2))]
    assert [w1.token(k) for k in range(len(w1))] == [w2.token(k) for k in range(len(w2))]


def test_vocabulary_roundtrip(tmp_path):
    vocab = Vocabulary()
    for tok in ["uno", "dos", "tres"]:
        vocab.add(tok)
    path = tmp_path / "vocab"
    vocab.save(path)
    reloaded = Vocabulary.load(path)
    assert len(reloaded) == len(vocab)
    for k in range(len(vocab)):
        assert reloaded.token(k) == vocab.token(k)
    assert reloaded.lookup("dos") == vocab.lookup("dos")


@settings(max_examples=100, deadline=None)
@given(st.lists(TOKENS, unique=True, max_size=8))
def test_vocabulary_roundtrip_any_tokens(tokens):
    vocab = Vocabulary()
    for token in tokens:
        vocab.add(token)
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "vocab")
        vocab.save(path)
        reloaded = Vocabulary.load(path)
    assert reloaded.tokens() == vocab.tokens()
    assert reloaded.ids() == vocab.ids()


def test_streaming_twice_identical(tmp_path):
    src = write(tmp_path / "s", "a b\nc\n")
    tgt = write(tmp_path / "t", "x\ny z\n")
    first, _, _, _ = load_parallel_corpus(src, tgt)
    second, _, _, _ = load_parallel_corpus(src, tgt)
    assert first == second


def test_max_len_guard():
    pairs, _, _, stats = encode_corpus([(["a"] * 5, ["x"]), ([], ["y"]), (["b"], ["y"])], max_len=4)
    assert stats == LoadStats(kept=1, skipped_empty=1, skipped_long=1)
    assert len(pairs) == 1 and pairs[0].index == 2


def test_lowercase_flag(tmp_path):
    src = write(tmp_path / "s", "Foo BAR\n")
    tgt = write(tmp_path / "t", "Baz\n")
    bitext = read_bitext(src, tgt, lowercase=True)
    assert bitext[0] == (["foo", "bar"], ["baz"])


def test_vocabularies_and_pairs_equal_the_token_by_token_reference():
    rng = random.Random(3)
    words = [f"w{k}" for k in range(40)] + ["Ä", "日本", NULL_TOKEN]
    raw = drop_empty([([rng.choice(words) for _ in range(rng.randrange(6))],
                       [rng.choice(words) for _ in range(rng.randrange(6))]) for _ in range(200)])
    vsrc, vtgt = build_vocabulary(raw)
    ref_src, ref_tgt = Vocabulary(), Vocabulary()
    for _, src, tgt in raw:
        for token in src:
            ref_src.add(token)
        for token in tgt:
            ref_tgt.add(token)
    assert vsrc.tokens() == ref_src.tokens() and vtgt.tokens() == ref_tgt.tokens()
    # Tokens the vocabularies lack encode to UNKNOWN_ID.
    other = [(index, src + ["unseen"], ["unseen"] + tgt) for index, src, tgt in raw]
    expected = [SentencePair(tuple(map(vsrc.lookup, src)), tuple(map(vtgt.lookup, tgt)), index)
                for index, src, tgt in other if len(src) <= 4 and len(tgt) <= 4]
    assert encode_pairs(other, vsrc, vtgt, max_len=4) == expected


def test_unknown_tokens_encode_to_unknown_id():
    raw = drop_empty([(["a"], ["x"])])
    vsrc, vtgt = build_vocabulary(raw)
    pairs = encode_pairs(drop_empty([(["a", "zzz"], ["x"])]), vsrc, vtgt)
    assert pairs[0].source == (1, -1)
