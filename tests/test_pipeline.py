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
from hieralign import parser
from hieralign.alignio import format_alignment
from hieralign.cli import main as cli_main
from hieralign.corpus import build_vocabulary, drop_empty, encode_pairs
from hieralign.parser import GROUP_PAIRS, project
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


# Any valid setting: positive finite numbers, r and fallback in (0, 1], p0 in (0, 1).
SETTING_VALUES = {"bool": st.booleans(), "int": st.integers(min_value=1),
                  "float": st.floats(min_value=0, exclude_min=True, allow_nan=False, allow_infinity=False)}


@settings(max_examples=200)
@given(st.fixed_dictionaries({
    f.name: st.floats(min_value=0, max_value=1, exclude_min=True, exclude_max=f.name == "p0")
    if f.name in ("r", "fallback", "p0") else SETTING_VALUES[f.type]
    for f in dataclasses.fields(AlignerConfig)
}))
def test_any_config_survives_its_snapshot(values):
    config = AlignerConfig(**values)
    assert AlignerConfig.from_snapshot(config.snapshot()) == config


def test_invalid_config_rejected():
    with pytest.raises(ValueError, match="beam must be positive"):
        AlignerConfig(beam=0)
    with pytest.raises(ValueError):
        AlignerConfig(alpha=-1.0)
    with pytest.raises(ValueError, match="em_iters must be positive"):
        AlignerConfig(em_iters=0)
    for name in ("alpha", "sigma_theta", "r", "p0"):
        with pytest.raises(ValueError, match=f"{name} must be positive"):
            AlignerConfig(**{name: float("nan")})
    for name in ("alpha", "sigma_theta", "sigma_delta", "p0"):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            AlignerConfig(**{name: float("inf")})
    with pytest.raises(ValueError, match="config.txt: sigma_delta must be finite"):
        AlignerConfig.from_snapshot(AlignerConfig().snapshot().replace("sigma_delta=5.0\n", "sigma_delta=inf\n"))
    for r in (2.0, 1.0 + 1e-9, float("inf")):
        with pytest.raises(ValueError, match=re.escape("distortion threshold r must be in (0, 1]")):
            AlignerConfig(r=r)
    assert AlignerConfig(r=1.0).r == 1.0
    for fallback in (float("inf"), 2.0, 1.0 + 1e-9):
        with pytest.raises(ValueError, match=re.escape("fallback probability must be in (0, 1]")):
            AlignerConfig(fallback=fallback)
    assert AlignerConfig(fallback=1.0).fallback == 1.0
    for p0 in (1.0, 2.0, 1e6):
        with pytest.raises(ValueError, match=re.escape("p0 must be in (0, 1)")):
            AlignerConfig(p0=p0)
    with pytest.raises(ValueError, match=re.escape("config.txt: p0 must be in (0, 1)")):
        AlignerConfig.from_snapshot(AlignerConfig().snapshot().replace("p0=0.0001\n", "p0=1.0\n"))


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
    # one-word sides among them, and the real pairs fill more than two
    # lockstep groups, run by one worker and by two.
    rng = random.Random(61)
    bitext = []
    for _ in range(5 * GROUP_PAIRS):
        n, m = rng.choice([(rng.randint(1, 9), rng.randint(1, 9)), (1, rng.randint(1, 6)), (0, 3), (11, 4)])
        bitext.append(([f"s{rng.randrange(25)}" for _ in range(n)], [f"t{rng.randrange(25)}" for _ in range(m)]))
    raw = drop_empty(bitext)
    vsrc, vtgt = build_vocabulary(raw)
    model = train_model(encode_pairs(raw, vsrc, vtgt), vsrc, vtgt, AlignerConfig(max_sentence_len=10))
    want = []
    for pair in align_tasks(bitext, model):
        if pair is None:
            want.append("")
            continue
        matrix = build_soft_matrix(pair, model.t_fwd, model.t_rev, model.config)
        want.append(format_alignment(project(oracles.reference_top_down_parse(matrix, model.config.beam))))
    assert "" in want
    assert sum(pair is not None for pair in align_tasks(bitext, model)) > 2 * GROUP_PAIRS
    for threads in (1, 2):
        config = dataclasses.replace(model.config, threads=threads)
        assert align_lines(bitext, dataclasses.replace(model, config=config)) == want


def test_align_lines_is_the_same_for_any_worker_count():
    # Six runs of GROUP_PAIRS pairs, each run's pairs longer than the last's,
    # so the lockstep groups cost unevenly and each worker count deals them
    # out differently.
    rng = random.Random(62)
    bitext = []
    for run in range(6):
        for _ in range(GROUP_PAIRS):
            n, m = rng.randint(1, 3 + 2 * run), rng.randint(1, 3 + 2 * run)
            bitext.append(([f"s{rng.randrange(40)}" for _ in range(n)], [f"t{rng.randrange(40)}" for _ in range(m)]))
    raw = drop_empty(bitext)
    vsrc, vtgt = build_vocabulary(raw)
    model = train_model(encode_pairs(raw, vsrc, vtgt), vsrc, vtgt, AlignerConfig(em_iters=2))
    pairs = [pair for pair in align_tasks(bitext, model) if pair is not None]
    assert len(parser.lockstep_groups([(pair.n, pair.m) for pair in pairs], model.config.beam)) >= 5
    outputs = {}
    for threads in (1, 2, 3):
        config = dataclasses.replace(model.config, threads=threads)
        outputs[threads] = align_lines(bitext, dataclasses.replace(model, config=config))
    assert outputs[1] == outputs[2] == outputs[3]
    assert sum(line != "" for line in outputs[1]) == len(pairs)


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


@pytest.mark.parametrize("dropped", ["lowercase", "em_iters", "fallback"])
def test_load_model_rejects_truncated_config(tmp_path, dropped):
    # A lost line would silently read as the default, e.g. align without lowercasing.
    model_dir = write_model(tmp_path)
    path = model_dir / "config.txt"
    path.write_text("".join(line + "\n" for line in path.read_text().splitlines() if not line.startswith(f"{dropped}=")))
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: missing setting {dropped}$"):
        load_model(model_dir)


def test_load_model_rejects_empty_config(tmp_path):
    model_dir = write_model(tmp_path)
    path = model_dir / "config.txt"
    path.write_text("")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: missing setting em_iters$"):
        load_model(model_dir)


def test_load_model_rejects_duplicate_setting(tmp_path):
    model_dir = write_model(tmp_path)
    path = model_dir / "config.txt"
    path.write_text(path.read_text() + "beam=3\n")
    line = len(path.read_text().splitlines())
    with pytest.raises(ValueError, match=rf"{re.escape(str(path))}:{line}: duplicate setting beam$"):
        load_model(model_dir)


def test_load_model_rejects_a_bool_setting_that_is_not_true_or_false(tmp_path):
    model_dir = write_model(tmp_path)
    path = model_dir / "config.txt"
    lines = path.read_text().splitlines(keepends=True)
    line = lines.index("vbh=False\n") + 1
    path.write_text("".join(lines).replace("vbh=False\n", "vbh=yes\n"))
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:{line}: vbh is not a valid bool: 'yes'$"):
        load_model(model_dir)


@pytest.mark.parametrize("separator", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
def test_load_model_splits_config_lines_at_newlines_only(tmp_path, separator):
    # str.splitlines would read this line as the two settings beam=10 and em_iters=7.
    model_dir = write_model(tmp_path)
    path = model_dir / "config.txt"
    path.write_text(f"vb=True\nbeam=10{separator}em_iters=7\n", encoding="utf-8")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:2: beam is not a valid int"):
        load_model(model_dir)


@pytest.mark.parametrize("text, line", [("the\n\nhouse\n", 2), ("the\nthe house\n", 2), ("the\thouse\n", 1),
                                        ("the\n\n", 2), ("the\nhouse\u2028\n", 2)])
def test_load_model_rejects_vocabulary_line_that_is_not_a_token(tmp_path, text, line):
    model_dir = write_model(tmp_path)
    path = model_dir / "vocab.tgt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match=rf"{re.escape(str(path))}:{line}: not a whitespace-free token"):
        load_model(model_dir)


# sha256 of the Pharaoh output of the default-settings smoke pipeline. A
# speedup must leave it unchanged; an approved change of output, such as a
# new beam default, updates it.
SMOKE_OUTPUT_SHA256 = "7529f7fdcfb5c88c53d7ff035e8240ff1750d95a621cd19652edde0cc38a9862"


def test_smoke_output_is_pinned(smoke_run):
    assert hashlib.sha256(smoke_run["out"].read_bytes()).hexdigest() == SMOKE_OUTPUT_SHA256


def test_smoke_output_does_not_depend_on_the_window(smoke_corpus, tmp_path, monkeypatch):
    # Beam levels expanded one to a few pairs at a time give the pinned output.
    monkeypatch.setattr(parser, "WINDOW", 300)
    out = tmp_path / "smoke.align"
    assert cli_main(["pipeline", "-s", str(smoke_corpus["src"]), "-t", str(smoke_corpus["tgt"]), "-o", str(out),
                     "--threads", "1"]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SMOKE_OUTPUT_SHA256


# sha256 of the lexicon files of the default-settings smoke model, with
# EM's expected counts summed in corpus order. Model files are
# byte-identical across speedups of their writer.
SMOKE_TTABLE_SHA256 = {
    "ttable.fwd": "d4bba7fe95e9d3f8ef93560354624ca32d23dd5c0b14837a564c905ef5b77250",
    "ttable.rev": "3d0bfac4fcad89ddb4675f1c5c4b9f0f8b306df613e33f4f74ae8582cfa91b16",
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
