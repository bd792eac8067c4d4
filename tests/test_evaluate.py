import random
import re

import pytest

from hieralign.evaluate import GoldAlignment, aer, load_gold, per_sentence


def write_gold(tmp_path, text):
    path = tmp_path / "gold"
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_load_gold_sure_and_possible(tmp_path):
    golds = load_gold(write_gold(tmp_path, "0-0 1?2\n"))
    assert golds[0].sure == {(0, 0)}
    assert golds[0].possible == {(0, 0), (1, 2)}


def test_load_gold_empty_line(tmp_path):
    golds = load_gold(write_gold(tmp_path, "\n"))
    assert golds[0].sure == set() and golds[0].possible == set()


def test_load_gold_duplicates_collapse(tmp_path):
    golds = load_gold(write_gold(tmp_path, "0-0 0-0\n"))
    assert len(golds[0].sure) == 1


def test_load_gold_malformed_token(tmp_path):
    path = write_gold(tmp_path, "0-0\n1-1 x+2\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:2: column 5: bad gold token 'x+2'")):
        load_gold(path)
    # A superscript is a digit to str.isdigit but not to int().
    path = write_gold(tmp_path, "0-0 \u00b2?1\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:1: column 5: bad gold token '\u00b2?1'")):
        load_gold(path)


def test_sure_links_are_possible():
    gold = GoldAlignment(sure={(0, 0)}, possible={(1, 1)})
    assert gold.possible == {(0, 0), (1, 1)}


def test_aer_perfect():
    gold = GoldAlignment(sure={(0, 0), (1, 1)}, possible=set())
    metrics = aer([{(0, 0), (1, 1)}], [gold])
    assert metrics == {"precision": 1.0, "recall": 1.0, "aer": 0.0}


def test_aer_disjoint_is_one():
    gold = GoldAlignment(sure={(0, 0)}, possible=set())
    metrics = aer([{(5, 5)}], [gold])
    assert metrics["aer"] == pytest.approx(1.0)
    assert metrics["precision"] == 0.0 and metrics["recall"] == 0.0


def test_aer_possible_only_link():
    gold = GoldAlignment(sure={(0, 0)}, possible={(0, 0), (1, 1)})
    metrics = aer([{(0, 0)}], [gold])
    assert metrics["precision"] == 1.0
    assert metrics["recall"] == 1.0
    assert metrics["aer"] == pytest.approx(0.0)


def test_aer_undefined_when_no_links():
    metrics = aer([set()], [GoldAlignment()])
    assert metrics["aer"] is None
    assert metrics["precision"] == 0.0 and metrics["recall"] == 0.0


def test_length_mismatch_rejected():
    with pytest.raises(ValueError):
        aer([set()], [])


def test_aer_bounds_and_zero_condition():
    rng = random.Random(13)
    for _ in range(300):
        n = m = 6
        hyp = {(rng.randrange(n), rng.randrange(m)) for _ in range(rng.randrange(8))}
        sure = {(rng.randrange(n), rng.randrange(m)) for _ in range(rng.randrange(5))}
        extra = {(rng.randrange(n), rng.randrange(m)) for _ in range(rng.randrange(5))}
        gold = GoldAlignment(sure=sure, possible=sure | extra)
        value = aer([hyp], [gold])["aer"]
        if value is None:
            continue
        assert 0.0 <= value <= 1.0
        if sure and value == 0.0:
            assert sure <= hyp <= gold.possible


def test_adding_possible_link_never_hurts():
    rng = random.Random(29)
    for _ in range(200):
        n = m = 5
        sure = {(rng.randrange(n), rng.randrange(m)) for _ in range(rng.randrange(1, 4))}
        extra = {(rng.randrange(n), rng.randrange(m)) for _ in range(rng.randrange(4))}
        gold = GoldAlignment(sure=sure, possible=sure | extra)
        hyp = {link for link in gold.possible if rng.random() < 0.5}
        candidates = gold.possible - hyp
        if not candidates:
            continue
        before = aer([hyp], [gold])["aer"]
        hyp.add(next(iter(candidates)))
        after = aer([hyp], [gold])["aer"]
        if before is not None and after is not None:
            assert after <= before + 1e-12


def test_per_sentence_matches_corpus_for_single_line():
    gold = GoldAlignment(sure={(0, 0)}, possible={(0, 0), (2, 2)})
    hyp = [{(0, 0), (1, 1)}]
    assert per_sentence(hyp, [gold])[0] == aer(hyp, [gold])
