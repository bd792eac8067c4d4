import dataclasses
import hashlib
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from hieralign import workers
from hieralign.alignio import format_alignment
from hieralign.cli import main as cli_main
from hieralign.corpus import build_vocabulary, drop_empty, encode_pairs
from hieralign.parser import project
from hieralign.pipeline import (
    AlignerConfig,
    align_lines,
    align_tasks,
    load_model,
    save_model,
    train_model,
)
from hieralign.softmatrix import build_soft_matrix


def test_defaults_match_reported_settings():
    config = AlignerConfig()
    assert config.em_iters == 5
    assert config.vb is True
    assert config.alpha == 0.01
    assert config.beam == 10
    assert config.sigma_theta == 3.0
    assert config.sigma_delta == 5.0
    assert config.p0 == 1e-4
    assert config.r == 0.5
    assert config.max_sentence_len == 200
    assert config.vbh is False


def test_snapshot_roundtrip():
    config = AlignerConfig(em_iters=3, vb=False, sigma_theta=1.0, threads=4, lowercase=True)
    restored = AlignerConfig.from_snapshot(config.snapshot())
    assert dataclasses.asdict(restored) == dataclasses.asdict(config)


# Any valid setting: positive numbers, r and fallback in (0, 1].
SETTING_VALUES = {"bool": st.booleans(), "int": st.integers(min_value=1),
                  "float": st.floats(min_value=0, exclude_min=True, allow_nan=False)}


@settings(max_examples=200)
@given(st.fixed_dictionaries({
    f.name: st.floats(min_value=0, max_value=1, exclude_min=True) if f.name in ("r", "fallback") else SETTING_VALUES[f.type]
    for f in dataclasses.fields(AlignerConfig)
}))
def test_any_config_survives_its_snapshot(values):
    config = AlignerConfig(**values)
    assert AlignerConfig.from_snapshot(config.snapshot()) == config


def test_invalid_config_rejected():
    with pytest.raises(ValueError):
        AlignerConfig(beam=0)
    with pytest.raises(ValueError):
        AlignerConfig(alpha=-1.0)
    with pytest.raises(ValueError, match="em_iters must be positive"):
        AlignerConfig(em_iters=0)
    for name in ("alpha", "sigma_theta", "r", "p0"):
        with pytest.raises(ValueError, match=f"{name} must be positive"):
            AlignerConfig(**{name: float("nan")})
    for r in (2.0, 1.0 + 1e-9):
        with pytest.raises(ValueError, match=re.escape("distortion threshold r must be in (0, 1]")):
            AlignerConfig(r=r)
    assert AlignerConfig(r=1.0).r == 1.0
    for fallback in (float("inf"), 2.0, 1.0 + 1e-9):
        with pytest.raises(ValueError, match=re.escape("fallback probability must be in (0, 1]")):
            AlignerConfig(fallback=fallback)
    assert AlignerConfig(fallback=1.0).fallback == 1.0


def trained_toy_model(tmp_path=None):
    bitext = [(["das", "haus"], ["the", "house"]), (["das"], ["the"])] * 3
    raw = drop_empty(bitext)
    vsrc, vtgt = build_vocabulary(raw)
    pairs = encode_pairs(raw, vsrc, vtgt)
    return bitext, train_model(pairs, vsrc, vtgt, AlignerConfig(threads=1))


def test_model_save_load_roundtrip(tmp_path):
    _, model = trained_toy_model()
    save_model(model, tmp_path / "model")
    reloaded = load_model(tmp_path / "model")
    assert reloaded.t_fwd.probs == model.t_fwd.probs
    assert reloaded.t_rev.probs == model.t_rev.probs
    assert reloaded.config == model.config


def test_load_model_missing_dir(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_model(tmp_path / "nope")


def test_align_tasks_placeholders():
    bitext, model = trained_toy_model()
    model.config.max_sentence_len = 1
    tasks = align_tasks([(["a", "b"], ["x"]), ([], ["x"]), (["a"], ["x"])], model)
    assert tasks[0] is None  # over the length guard
    assert tasks[1] is None  # empty side
    assert tasks[2] is not None and tasks[2].index == 2


def test_align_lines_order_and_placeholders():
    bitext, model = trained_toy_model()
    with_bad = list(bitext) + [([], ["x"])]
    lines = align_lines(with_bad, model)
    assert len(lines) == len(with_bad)
    assert lines[-1] == ""
    assert lines[0] == "0-0 1-1"


def test_reversed_order_corpus_recovered_by_nested_inversions():
    import random

    from hieralign.alignio import parse_alignment_line
    from hieralign.evaluate import GoldAlignment, aer

    rng = random.Random(4242)
    bitext = []
    golds = []
    for _ in range(150):
        length = rng.randint(3, 7)
        words = rng.sample(range(30), length)
        bitext.append(([f"s{w}" for w in words], [f"t{w}" for w in reversed(words)]))
        golds.append(GoldAlignment(sure={(length - 1 - i, i) for i in range(length)}))
    raw = drop_empty(bitext)
    vsrc, vtgt = build_vocabulary(raw)
    pairs = encode_pairs(raw, vsrc, vtgt)
    model = train_model(pairs, vsrc, vtgt, AlignerConfig(sigma_theta=1.0, distortion=False))
    hyps = [parse_alignment_line(line) for line in align_lines(bitext, model)]
    assert aer(hyps, golds)["aer"] < 0.05


def test_align_lines_equals_per_pair_reference():
    # Placeholders (empty sides, over-length pairs) sit between the pairs,
    # one-word sides among them, and the corpus spans several chunks.
    rng = random.Random(61)
    bitext = []
    for _ in range(workers.CHUNK_SIZE + 40):
        n, m = rng.choice([(rng.randint(1, 9), rng.randint(1, 9)), (1, rng.randint(1, 6)), (0, 3), (11, 4)])
        bitext.append(([f"s{rng.randrange(25)}" for _ in range(n)], [f"t{rng.randrange(25)}" for _ in range(m)]))
    raw = drop_empty(bitext)
    vsrc, vtgt = build_vocabulary(raw)
    model = train_model(encode_pairs(raw, vsrc, vtgt), vsrc, vtgt, AlignerConfig(max_sentence_len=10))
    params = model.config.matrix_params()
    want = []
    for pair in align_tasks(bitext, model):
        if pair is None:
            want.append("")
            continue
        matrix = build_soft_matrix(pair, model.t_fwd, model.t_rev, params)
        want.append(format_alignment(project(oracles.reference_top_down_parse(matrix, model.config.beam))))
    assert "" in want
    assert align_lines(bitext, model) == want


def write_model(tmp_path):
    _, model = trained_toy_model()
    save_model(model, tmp_path)
    return tmp_path


IMPORT_PROBE = """
import sys
from hieralign.cli import main
from hieralign.corpus import build_vocabulary, drop_empty, encode_pairs, read_bitext
from hieralign.pipeline import AlignerConfig, align_lines, load_model, save_model, train_model

src, tgt, out = sys.argv[1:]
bitext = read_bitext(src, tgt, False)
raw = drop_empty(bitext)
vocab_src, vocab_tgt = build_vocabulary(raw)
model = train_model(encode_pairs(raw, vocab_src, vocab_tgt), vocab_src, vocab_tgt,
                    AlignerConfig(vbh=True, threads=1))
save_model(model, out + ".model")
align_lines(bitext, load_model(out + ".model"))
print("numpy.ma" in sys.modules)
assert main(["pipeline", "-s", src, "-t", tgt, "-o", out, "--threads", "1"]) == 0
print("numpy.ma" in sys.modules)
"""


def test_training_and_alignment_leave_numpy_ma_unimported(tmp_path):
    # np.unique without return arrays imports numpy.ma; a fresh process shows it.
    rng = random.Random(14)
    src, tgt = tmp_path / "c.src", tmp_path / "c.tgt"
    lines = [[f"w{rng.randrange(12)}" for _ in range(rng.randint(1, 6))] for _ in range(60)]
    src.write_text("".join(" ".join(words) + "\n" for words in lines), encoding="utf-8")
    tgt.write_text("".join(" ".join(words[::-1]) + "\n" for words in lines), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    run = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(src), str(tgt), str(tmp_path / "out.align")],
                         capture_output=True, text=True, env=env, check=True)
    assert run.stdout.split() == ["False", "False"]


def test_load_model_rejects_duplicate_vocabulary_line(tmp_path):
    model_dir = write_model(tmp_path)
    path = model_dir / "vocab.tgt"
    path.write_text(path.read_text() + "house\n")
    with pytest.raises(ValueError, match=rf"{re.escape(str(path))}:3: duplicate token 'house'"):
        load_model(model_dir)


def test_load_model_rejects_ttable_of_the_other_direction(tmp_path):
    model_dir = write_model(tmp_path)
    path = model_dir / "ttable.fwd"
    path.write_text(path.read_text().replace("#ttable fwd", "#ttable rev", 1))
    with pytest.raises(ValueError, match=rf"{re.escape(str(path))}:1: .*'rev'.*'fwd'"):
        load_model(model_dir)


@pytest.mark.parametrize("size", ["0", "3"])
def test_load_model_rejects_ttable_vocabulary_size_out_of_range(tmp_path, size):
    model_dir = write_model(tmp_path)
    path = model_dir / "ttable.rev"
    header, body = path.read_text().split("\n", 1)
    assert header == "#ttable rev 2"
    path.write_text(f"#ttable rev {size}\n{body}")
    with pytest.raises(ValueError, match=rf"{re.escape(str(path))}:1: vocabulary size {size} outside 1..2"):
        load_model(model_dir)


def test_load_model_rejects_unparsable_setting(tmp_path):
    model_dir = write_model(tmp_path)
    path = model_dir / "config.txt"
    path.write_text(path.read_text().replace("alpha=0.01", "alpha=abc"))
    line = path.read_text().splitlines().index("alpha=abc") + 1
    with pytest.raises(ValueError, match=rf"{re.escape(str(path))}:{line}: alpha"):
        load_model(model_dir)


def test_load_model_rejects_invalid_setting(tmp_path):
    model_dir = write_model(tmp_path)
    path = model_dir / "config.txt"
    snapshot = path.read_text()
    path.write_text(snapshot.replace("\nr=0.5\n", "\nr=2.0\n"))
    with pytest.raises(ValueError, match=rf"{re.escape(str(path))}: distortion threshold r must be in \(0, 1\]"):
        load_model(model_dir)
    path.write_text(re.sub(r"\nfallback=.*\n", "\nfallback=2.0\n", snapshot))
    with pytest.raises(ValueError, match=rf"{re.escape(str(path))}: fallback probability must be in \(0, 1\]"):
        load_model(model_dir)


def test_load_model_rejects_unknown_setting(tmp_path):
    model_dir = write_model(tmp_path)
    path = model_dir / "config.txt"
    path.write_text(path.read_text() + "max_phrase_len=7\n")
    assert load_model(model_dir).config == AlignerConfig(threads=1)
    path.write_text(path.read_text() + "colour=blue\n")
    line = len(path.read_text().splitlines())
    with pytest.raises(ValueError, match=rf"{re.escape(str(path))}:{line}: unknown setting 'colour=blue'"):
        load_model(model_dir)


# sha256 of the Pharaoh output of the default-settings smoke pipeline. A
# speedup must leave it unchanged; an approved change of output, such as a
# new beam default, updates it.
SMOKE_OUTPUT_SHA256 = "7529f7fdcfb5c88c53d7ff035e8240ff1750d95a621cd19652edde0cc38a9862"


def test_smoke_output_is_pinned(smoke_run):
    assert hashlib.sha256(smoke_run["out"].read_bytes()).hexdigest() == SMOKE_OUTPUT_SHA256


# sha256 of the lexicon files of the default-settings smoke model. Model
# files are byte-identical across speedups of their writer.
SMOKE_TTABLE_SHA256 = {
    "ttable.fwd": "9ed5b78042f56e168faa73e11c51d97782b91701c16f1b256bc99192d52e1e0d",
    "ttable.rev": "ee5a2cf7585ce3bbc10964ffec00266cfe28b076b4aacca96c6a14794b83aef1",
}


def test_smoke_model_tables_are_pinned(smoke_corpus, tmp_path):
    model = tmp_path / "model"
    assert cli_main(["train", "-s", str(smoke_corpus["src"]), "-t", str(smoke_corpus["tgt"]), "-o", str(model)]) == 0
    for name, digest in SMOKE_TTABLE_SHA256.items():
        assert hashlib.sha256((model / name).read_bytes()).hexdigest() == digest


def test_readme_python_api_runs(tmp_path, monkeypatch):
    # The README's "Python API" snippet, run as written on a toy corpus.
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    snippet = re.search(r"^## Python API\n\n```python\n(.*?)^```", readme, re.M | re.S).group(1)
    (tmp_path / "corpus.src").write_text("a b c\nb c\na c\nc a b\n", encoding="utf-8")
    (tmp_path / "corpus.tgt").write_text("x y z\ny z\nx z\nz x y\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(snippet, namespace)
    assert {j for j, _ in namespace["links"]} == {0, 1, 2}
