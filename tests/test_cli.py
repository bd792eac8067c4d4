import inspect
import io
import os
import random
import tracemalloc

import pytest

import oracles
from hieralign import corpus, phrase
from hieralign.alignio import format_alignment
from hieralign.cli import build_arg_parser, config_from_args, main
from hieralign.corpus import read_bitext
from hieralign.parser import GROUP_PAIRS
from hieralign.pipeline import AlignerConfig, align_tasks, load_model
from hieralign.softmatrix import build_soft_matrix, dump_matrix


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture
def toy(tmp_path):
    src = write(tmp_path / "c.src", "das haus\ndas\nhaus ist gut\n")
    tgt = write(tmp_path / "c.tgt", "the house\nthe\nhouse is good\n")
    return {"src": src, "tgt": tgt, "dir": tmp_path}


MODEL_FILES = ["ttable.fwd", "ttable.rev", "vocab.src", "vocab.tgt", "config.txt"]


def read_model_bytes(model_dir):
    return {name: (model_dir / name).read_bytes() for name in MODEL_FILES}


def test_train_writes_model_files(toy):
    out = toy["dir"] / "model"
    assert main(["train", "-s", toy["src"], "-t", toy["tgt"], "-o", str(out)]) == 0
    for name in MODEL_FILES:
        assert (out / name).exists(), name


def test_train_rerun_bit_identical(toy):
    out1 = toy["dir"] / "m1"
    out2 = toy["dir"] / "m2"
    assert main(["train", "-s", toy["src"], "-t", toy["tgt"], "-o", str(out1)]) == 0
    assert main(["train", "-s", toy["src"], "-t", toy["tgt"], "-o", str(out2)]) == 0
    assert read_model_bytes(out1) == read_model_bytes(out2)


def test_missing_input_fails_with_stderr(toy, capsys):
    rc = main(["train", "-s", str(toy["dir"] / "absent"), "-t", toy["tgt"], "-o", str(toy["dir"] / "m")])
    assert rc != 0
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["eval", "--gold", "{dir}", "--hyp", "{file}"],
                                     ["train", "-s", "{dir}", "-t", "{file}", "-o", "{dir}/m"],
                                     ["train", "-s", "{file}", "-t", "{file}", "-o", "{file}"],
                                     ["pipeline", "-s", "{file}", "-t", "{file}", "-o", "{dir}/out", "--model-dir", "{file}"],
                                     ["train", "-s", "{file}", "-t", "{file}", "-o", "{file}/m/n"],
                                     ["pipeline", "-s", "{file}", "-t", "{file}", "-o", "{dir}"],
                                     ["pipeline", "-s", "{file}", "-t", "{file}", "-o", "{dir}/absent/out"],
                                     ["pipeline", "-s", "{file}", "-t", "{file}", "-o", "{file}/out"]])
def test_os_errors_fail_with_an_error_line(toy, capsys, command):
    # A directory where a file is read, a file where the model directory
    # goes or would be made, and a -o path that names a directory or has no
    # directory above it: all fail before training, and write nothing.
    names = {"dir": str(toy["dir"]), "file": toy["src"]}
    assert main([arg.format(**names) for arg in command]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[-1].startswith("error: ")
    assert " iteration " not in err
    assert not (toy["dir"] / "out").exists() and not (toy["dir"] / "absent").exists()


@pytest.mark.parametrize("command", [["extract", "-s", "{file}", "-t", "{file}", "--align", "{file}", "--dump", "{dir}"],
                                     ["extract", "-s", "{file}", "-t", "{file}", "--align", "{file}",
                                      "--dump", "{dir}/absent/out"],
                                     ["extract", "-s", "{file}", "-t", "{file}", "--align", "{file}", "--max-len", "0"],
                                     ["align", "-s", "{file}", "-t", "{file}", "-m", "{dir}", "--dump-matrix", "{dir}"],
                                     ["align", "-s", "{file}", "-t", "{file}", "-m", "{dir}", "--dump-matrix", "{file}/out"]])
def test_bad_output_and_max_len_fail_before_any_input_is_read(toy, capsys, monkeypatch, command):
    # A --dump or --dump-matrix path that open(..., "w") would refuse, and a
    # --max-len below 1, fail before the corpus, the alignments or the model
    # are read, and before any phrase table is built.
    def unreached(*args, **kwargs):
        raise AssertionError("reached before the bad option was reported")

    for name in ("read_bitext", "read_alignment_file", "load_model"):
        monkeypatch.setattr(f"hieralign.cli.{name}", unreached)
    monkeypatch.setattr(phrase, "phrase_table", unreached)
    names = {"dir": str(toy["dir"]), "file": toy["src"]}
    assert main([arg.format(**names) for arg in command]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[-1].startswith("error: ")
    assert not (toy["dir"] / "absent").exists()


def test_align_single_token_pair(tmp_path, capsys):
    src = write(tmp_path / "s", "a\n")
    tgt = write(tmp_path / "t", "x\n")
    model = tmp_path / "model"
    assert main(["train", "-s", src, "-t", tgt, "-o", str(model)]) == 0
    capsys.readouterr()
    assert main(["align", "-s", src, "-t", tgt, "-m", str(model)]) == 0
    assert capsys.readouterr().out == "0-0\n"


def test_align_no_distortion_variant(toy, capsys):
    model = toy["dir"] / "model"
    assert main(["train", "-s", toy["src"], "-t", toy["tgt"], "-o", str(model)]) == 0
    capsys.readouterr()
    rc = main(
        ["align", "-s", toy["src"], "-t", toy["tgt"], "-m", str(model),
         "--sigma-theta", "1", "--no-distortion", "--stats"]
    )
    assert rc == 0
    captured = capsys.readouterr()
    assert len(captured.out.splitlines()) == 3
    assert "pairs/s" in captured.err


def test_align_oversized_pair_gets_empty_line(tmp_path, capsys):
    src = write(tmp_path / "s", "a b\n" + " ".join(["w"] * 9) + "\n")
    tgt = write(tmp_path / "t", "x y\nz\n")
    model = tmp_path / "model"
    assert main(["train", "-s", src, "-t", tgt, "-o", str(model)]) == 0
    capsys.readouterr()
    rc = main(["align", "-s", src, "-t", tgt, "-m", str(model), "--max-sentence-len", "8"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert lines[1] == ""


def test_align_reports_skipped_pairs(tmp_path, capsys):
    # As train does: the counts go to stderr, the empty lines to stdout.
    src = write(tmp_path / "s", "a b\n\na b c\nb\n")
    tgt = write(tmp_path / "t", "x y\ny\nx\n\n")
    model = tmp_path / "model"
    assert main(["train", "-s", src, "-t", tgt, "-o", str(model)]) == 0
    capsys.readouterr()
    assert main(["align", "-s", src, "-t", tgt, "-m", str(model), "--max-sentence-len", "1"]) == 0
    out, err = capsys.readouterr()
    assert out == "\n" * 4
    assert err.splitlines() == ["skipped 2 pair(s) with an empty side", "skipped 2 pair(s) over the length limit"]
    assert main(["align", "-s", src, "-t", tgt, "-m", str(model)]) == 0
    out, err = capsys.readouterr()
    assert out.splitlines()[1:] == ["", "0-0 1-0 2-0", ""]
    assert err.splitlines() == ["skipped 2 pair(s) with an empty side"]


def spy_on_encoding(monkeypatch):
    """The input line numbers of the pairs encoded from here on, one per SentencePair made."""
    encoded = []
    make = corpus.SentencePair
    monkeypatch.setattr(corpus, "SentencePair", lambda *args: encoded.append(args[2]) or make(*args))
    return encoded


@pytest.mark.parametrize("dump", [False, True])
def test_align_encodes_each_pair_once(toy, capsys, monkeypatch, dump):
    model = toy["dir"] / "model"
    assert main(["train", "-s", toy["src"], "-t", toy["tgt"], "-o", str(model)]) == 0
    capsys.readouterr()
    assert main(["align", "-s", toy["src"], "-t", toy["tgt"], "-m", str(model), "--max-sentence-len", "2"]) == 0
    want = capsys.readouterr()
    assert want.err == "skipped 1 pair(s) over the length limit\n"
    encoded = spy_on_encoding(monkeypatch)
    options = ["--dump-matrix", str(toy["dir"] / "m.tsv")] if dump else []
    assert main(["align", "-s", toy["src"], "-t", toy["tgt"], "-m", str(model), "--max-sentence-len", "2", *options]) == 0
    assert encoded == [0, 1]
    assert capsys.readouterr() == want


@pytest.mark.parametrize("command", [["pipeline", "-o", "{dir}/out"],
                                     ["sweep", "--gold", "{dir}/gold", "--theta-grid", "1,3", "--delta-grid", "5"]],
                         ids=["pipeline", "sweep"])
def test_pipeline_and_sweep_encode_their_corpus_once(toy, capsys, monkeypatch, command):
    # They align the pairs they trained on, at every grid point.
    write(toy["dir"] / "gold", "0-0 1-1\n0-0\n0-0 1-1 2-2\n")
    argv = [arg.format(dir=toy["dir"]) for arg in command] + ["-s", toy["src"], "-t", toy["tgt"],
                                                              "--max-sentence-len", "2"]

    def run():
        """The data written (sweep's stdout, pipeline's -o file) and the first stderr line."""
        assert main(argv) == 0
        out, err = capsys.readouterr()
        return out + ((toy["dir"] / "out").read_text() if command[0] == "pipeline" else ""), err.splitlines()[0]

    want = run()
    assert want[1] == "skipped 1 pair(s) over the length limit"
    encoded = spy_on_encoding(monkeypatch)
    assert run() == want
    assert encoded == [0, 1]


def test_align_dump_matrix(toy, tmp_path, capsys):
    model = toy["dir"] / "model"
    dump = tmp_path / "m.tsv"
    assert main(["train", "-s", toy["src"], "-t", toy["tgt"], "-o", str(model)]) == 0
    capsys.readouterr()
    assert main(["align", "-s", toy["src"], "-t", toy["tgt"], "-m", str(model),
                 "--dump-matrix", str(dump)]) == 0
    dumped = capsys.readouterr().out
    blocks = dump.read_text().rstrip("\n").split("\n\n")
    assert len(blocks) == 3
    first = blocks[0].splitlines()
    assert len(first) == 4  # 2x2 pair
    j, i, w = first[0].split("\t")
    assert (j, i) == ("0", "0") and float(w) > 0
    # Dumping changes nothing in the alignment itself.
    assert len(dumped.splitlines()) == 3
    assert main(["align", "-s", toy["src"], "-t", toy["tgt"], "-m", str(model)]) == 0
    assert capsys.readouterr().out == dumped


def test_align_dump_matrix_over_many_chunks(tmp_path, capsys):
    # More pairs than two lockstep groups hold, with empty-side lines among them.
    rng = random.Random(5)
    src_lines, tgt_lines = [], []
    for k in range(2 * GROUP_PAIRS + 40):
        words = [f"w{rng.randrange(9)}" for _ in range(rng.randint(1, 4))]
        src_lines.append("" if k % 50 == 7 else " ".join(words))
        tgt_lines.append(" ".join(f"v{w[1:]}" for w in reversed(words)))
    src = write(tmp_path / "c.src", "\n".join(src_lines) + "\n")
    tgt = write(tmp_path / "c.tgt", "\n".join(tgt_lines) + "\n")
    model, dump = tmp_path / "model", tmp_path / "m.tsv"
    assert main(["train", "-s", src, "-t", tgt, "-o", str(model)]) == 0
    assert main(["align", "-s", src, "-t", tgt, "-m", str(model), "--threads", "1"]) == 0
    serial = capsys.readouterr().out
    assert main(["align", "-s", src, "-t", tgt, "-m", str(model), "--threads", "2", "--dump-matrix", str(dump)]) == 0
    assert capsys.readouterr().out == serial
    loaded = load_model(str(model))
    want = io.StringIO()
    for pair in align_tasks(read_bitext(src, tgt), loaded):
        if pair is not None:
            dump_matrix(build_soft_matrix(pair, loaded.t_fwd, loaded.t_rev, loaded.config), want)
    assert dump.read_text() == want.getvalue()
    blocks = dump.read_text().rstrip("\n").split("\n\n")
    shapes = [(len(s.split()), len(t.split())) for s, t in zip(src_lines, tgt_lines) if s and t]
    assert len(blocks) == len(shapes)
    for block, (n, m) in zip(blocks, shapes):
        rows = [row.split("\t") for row in block.splitlines()]
        assert [(int(j), int(i)) for j, i, _ in rows] == [(j, i) for j in range(n) for i in range(m)]


def test_align_rejects_training_options(toy, capsys):
    model = toy["dir"] / "model"
    assert main(["train", "-s", toy["src"], "-t", toy["tgt"], "-o", str(model)]) == 0
    for option in (["--alpha", "0.5"], ["--em-iters", "2"], ["--no-vb"], ["--no-null"], ["--vbh"],
                   ["--fallback-prob", "0.5"]):
        with pytest.raises(SystemExit) as exc:
            main(["align", "-s", toy["src"], "-t", toy["tgt"], "-m", str(model), *option])
        assert exc.value.code == 2
        assert option[0] in capsys.readouterr().err


def test_align_takes_matrix_settings_from_the_model(tmp_path, capsys):
    # Reversed word order: the distortion factor of the default settings
    # pulls these pairs off the anti-diagonal.
    rng = random.Random(5)
    src_lines, tgt_lines = [], []
    for _ in range(40):
        words = rng.sample(range(12), rng.randint(2, 5))
        src_lines.append(" ".join(f"s{w}" for w in words) + "\n")
        tgt_lines.append(" ".join(f"t{w}" for w in reversed(words)) + "\n")
    src = write(tmp_path / "s", "".join(src_lines))
    tgt = write(tmp_path / "t", "".join(tgt_lines))
    settings = ["--sigma-theta", "1", "--no-distortion"]
    out = tmp_path / "pipeline.align"
    assert main(["pipeline", "-s", src, "-t", tgt, "-o", str(out), *settings]) == 0
    tuned, default = tmp_path / "tuned", tmp_path / "default"
    assert main(["train", "-s", src, "-t", tgt, "-o", str(tuned), *settings]) == 0
    assert main(["train", "-s", src, "-t", tgt, "-o", str(default)]) == 0
    capsys.readouterr()
    assert main(["align", "-s", src, "-t", tgt, "-m", str(tuned)]) == 0
    assert capsys.readouterr().out == out.read_text()
    # Flags override the model's settings.
    assert main(["align", "-s", src, "-t", tgt, "-m", str(default), *settings]) == 0
    assert capsys.readouterr().out == out.read_text()
    assert main(["align", "-s", src, "-t", tgt, "-m", str(default)]) == 0
    assert capsys.readouterr().out != out.read_text()


def test_align_reads_input_as_the_model_was_trained(tmp_path, capsys):
    # Only the lexicon tells that the last pair is inverted; read without
    # lowercasing, its words would all be unknown to the model.
    src_lines = "Das Haus\nHaus Ist\nIst Gut\nGut Das\nDas Ist\nHaus Gut\nHaus Das\n"
    tgt_lines = "The House\nHouse Is\nIs Good\nGood The\nThe Is\nHouse Good\nThe House\n"
    src = write(tmp_path / "s", src_lines)
    tgt = write(tmp_path / "t", tgt_lines)
    lower_src = write(tmp_path / "ls", src_lines.lower())
    lower_tgt = write(tmp_path / "lt", tgt_lines.lower())
    model = tmp_path / "model"
    assert main(["train", "-s", src, "-t", tgt, "-o", str(model), "--lowercase"]) == 0
    capsys.readouterr()
    assert main(["align", "-s", lower_src, "-t", lower_tgt, "-m", str(model)]) == 0
    want = capsys.readouterr().out
    assert want.splitlines()[-1] == "0-1 1-0"
    assert main(["align", "-s", src, "-t", tgt, "-m", str(model)]) == 0
    assert capsys.readouterr().out == want


def test_align_lowercase_contradicting_model_fails(toy, capsys):
    model = toy["dir"] / "model"
    assert main(["train", "-s", toy["src"], "-t", toy["tgt"], "-o", str(model)]) == 0
    capsys.readouterr()
    rc = main(["align", "-s", toy["src"], "-t", toy["tgt"], "-m", str(model), "--lowercase"])
    assert rc != 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert str(model) in captured.err and "--lowercase" in captured.err


def test_pipeline_end_to_end(toy):
    out = toy["dir"] / "out.align"
    rc = main(["pipeline", "-s", toy["src"], "-t", toy["tgt"], "-o", str(out)])
    assert rc == 0
    assert len(out.read_text().splitlines()) == 3


def test_pipeline_vbh_flag(toy):
    out = toy["dir"] / "out.align"
    rc = main(["pipeline", "-s", toy["src"], "-t", toy["tgt"], "-o", str(out), "--vbh"])
    assert rc == 0
    assert len(out.read_text().splitlines()) == 3


def test_pipeline_threads_identical_output(toy):
    out1 = toy["dir"] / "o1.align"
    out2 = toy["dir"] / "o2.align"
    assert main(["pipeline", "-s", toy["src"], "-t", toy["tgt"], "-o", str(out1), "--threads", "1"]) == 0
    assert main(["pipeline", "-s", toy["src"], "-t", toy["tgt"], "-o", str(out2), "--threads", "2"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def skip_lines(err):
    return [line for line in err.splitlines() if line.startswith("skipped ")]


def test_pipeline_model_dir_aligns_as_the_pipeline_did(toy, capsys):
    # The toy corpus, then one with an empty-side line and a pair over the
    # length limit: pipeline aligns the pairs it trained on, as align
    # encodes them with the model's vocabularies, and as train + align do.
    src = write(toy["dir"] / "s", "das haus\n\nhaus ist gut\ndas ist\nist\n")
    tgt = write(toy["dir"] / "t", "the house\nthe\nhouse is good\nthat is\nis\n")
    for corpus_files, options in (([toy["src"], toy["tgt"]], []), ([src, tgt], ["--max-sentence-len", "2"])):
        files = ["-s", corpus_files[0], "-t", corpus_files[1]]
        out, model, trained = toy["dir"] / "out", toy["dir"] / "model", toy["dir"] / "trained"
        assert main(["pipeline", *files, "-o", str(out), "--model-dir", str(model), *options]) == 0
        skipped = skip_lines(capsys.readouterr().err)
        assert len(skipped) == len(options)
        assert main(["align", *files, "-m", str(model)]) == 0
        aligned = capsys.readouterr()
        assert aligned.out.encode("utf-8") == out.read_bytes()
        assert aligned.err.splitlines() == skipped
        assert main(["train", *files, "-o", str(trained), *options]) == 0
        assert skip_lines(capsys.readouterr().err) == skipped
        assert main(["align", *files, "-m", str(trained)]) == 0
        assert capsys.readouterr() == aligned


def test_joined_bitext_input(tmp_path):
    joined = write(tmp_path / "joined", "a b ||| x y\nc ||| z\n")
    out = tmp_path / "out.align"
    assert main(["pipeline", "--bitext", joined, "-o", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 2


def test_symmetrize_cli(tmp_path, capsys):
    fwd = write(tmp_path / "f", "0-0 1-1\n0-0\n")
    rev = write(tmp_path / "r", "0-0\n0-0\n")  # target-source order
    assert main(["symmetrize", "--fwd", fwd, "--rev", rev, "--heuristic", "gdfa"]) == 0
    assert capsys.readouterr().out == "0-0 1-1\n0-0\n"
    assert main(["symmetrize", "--fwd", fwd, "--rev", rev, "--heuristic", "intersection"]) == 0
    assert capsys.readouterr().out == "0-0\n0-0\n"
    rev = write(tmp_path / "r", "0-0 2-1\n1-0\n")
    assert main(["symmetrize", "--fwd", fwd, "--rev", rev, "--heuristic", "union"]) == 0
    assert capsys.readouterr().out == "0-0 1-1 1-2\n0-0 0-1\n"
    with pytest.raises(SystemExit):
        main(["symmetrize", "--fwd", fwd, "--rev", rev, "--heuristic", "nope"])
    assert "invalid choice: 'nope'" in capsys.readouterr().err


def test_symmetrize_gdfa_memory_follows_the_links_not_their_indices(tmp_path, capsys):
    # A grid sized from the largest index would take 10**10 cells here.
    fwd = write(tmp_path / "f", "0-0 99999-99999\n")
    rev = write(tmp_path / "r", "0-0\n")
    tracemalloc.start()
    try:
        assert main(["symmetrize", "--fwd", fwd, "--rev", rev]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().out == "0-0\n"
    assert peak < 1 << 20


@pytest.mark.parametrize("index", [10**18, 10**19])
def test_symmetrize_gdfa_rejects_indices_past_the_int64_link_keys(tmp_path, capsys, index):
    fwd = write(tmp_path / "f", f"0-0 {index}-{index}\n")
    rev = write(tmp_path / "r", "0-0\n")
    assert main(["symmetrize", "--fwd", fwd, "--rev", rev]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "error: 1 pair(s) of up to" in err and "overflow the int64 link keys" in err


def test_symmetrize_gdfa_lines_equal_the_set_loop(tmp_path, capsys):
    # Every line goes through one corpus-wide grow-diag; each must still be
    # the set loop's answer for its own pair.
    rng = random.Random(5)
    fwds, revs = [], []
    for _ in range(40):
        n, m = rng.randint(1, 9), rng.randint(1, 9)
        fwds.append({(j, rng.randrange(m)) for j in range(n) if rng.random() < 0.8})
        revs.append({(rng.randrange(n), i) for i in range(m) if rng.random() < 0.8})
    fwd = write(tmp_path / "f", "".join(format_alignment(links) + "\n" for links in fwds))
    rev = write(tmp_path / "r", "".join(format_alignment({(i, j) for j, i in links}) + "\n" for links in revs))
    assert main(["symmetrize", "--fwd", fwd, "--rev", rev, "--heuristic", "gdfa"]) == 0
    want = [format_alignment(oracles.reference_grow_diag(a, b)) for a, b in zip(fwds, revs)]
    assert capsys.readouterr().out.splitlines() == want


@pytest.mark.parametrize("files, command, message", [
    # Every pair has an empty side, so none is left to train on.
    ({"s": "a\n\n", "t": "\nx\n"}, ["pipeline", "-s", "{s}", "-t", "{t}", "-o", "{dir}/o"],
     "cannot train on an empty corpus"),
    ({"s": "a\n"}, ["pipeline", "-s", "{s}", "-o", "{dir}/o"], "need both -s/--source and -t/--target (or --bitext)"),
    ({"f": "0-0\n0-0\n", "r": "0-0\n"}, ["symmetrize", "--fwd", "{f}", "--rev", "{r}"],
     "--fwd has 2 lines, --rev has 1 lines"),
    ({"g": "0-0\n0-0\n", "h": "0-0\n"}, ["eval", "--gold", "{g}", "--hyp", "{h}"],
     "hypothesis has 1 sentences, gold has 2"),
    ({"g": "0-0\n", "h": "0-0\n0-0\n"}, ["eval", "--gold", "{g}", "--hyp", "{h}", "--per-sentence"],
     "hypothesis has 2 sentences, gold has 1"),
    ({"s": "a\nb\n", "t": "x\ny\n", "a": "0-0\n"}, ["extract", "-s", "{s}", "-t", "{t}", "--align", "{a}"],
     "corpus has 2 lines, alignment has 1 lines"),
], ids=["no-usable-pair", "source-without-target", "symmetrize", "eval", "eval-per-sentence", "extract"])
def test_unusable_inputs_fail_with_an_error_line(tmp_path, capsys, files, command, message):
    names = {name: write(tmp_path / name, text) for name, text in files.items()}
    assert main([arg.format(dir=tmp_path, **names) for arg in command]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[-1] == f"error: {message}"
    assert not (tmp_path / "o").exists()


def test_alignment_file_errors_name_the_file(tmp_path, toy, capsys):
    good = write(tmp_path / "good", "0-0\n0-0\n")
    bad = write(tmp_path / "bad", "0-0\nzz\n")
    commands = [["symmetrize", "--fwd", good, "--rev", bad], ["eval", "--gold", good, "--hyp", bad],
                ["extract", "-s", toy["src"], "-t", toy["tgt"], "--align", bad]]
    for command in commands:
        assert main(command) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert f"error: {bad}:2: bad link token 'zz'" in err


def test_undecodable_model_and_gold_files_fail_with_path_and_line(toy, tmp_path, capsys):
    model = toy["dir"] / "model"
    assert main(["train", "-s", toy["src"], "-t", toy["tgt"], "-o", str(model)]) == 0
    vocab = model / "vocab.src"
    vocab.write_bytes(vocab.read_bytes().replace(b"\n", b"\n\xff", 1))
    gold = tmp_path / "g"
    gold.write_bytes(b"0-0\n\xff0-0\n")
    hyp = write(tmp_path / "h", "0-0\n0-0\n")
    commands = {vocab: ["align", "-s", toy["src"], "-t", toy["tgt"], "-m", str(model)],
                gold: ["eval", "--gold", str(gold), "--hyp", hyp]}
    for path, command in commands.items():
        capsys.readouterr()
        assert main(command) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {path}:2: undecodable byte 0xff\n"


def test_eval_cli(tmp_path, capsys):
    gold = write(tmp_path / "g", "0-0 1?1\n0-0\n")
    hyp = write(tmp_path / "h", "0-0 1-1\n0-0\n")
    assert main(["eval", "--gold", gold, "--hyp", hyp]) == 0
    assert capsys.readouterr().out == "precision=1.0000 recall=1.0000 aer=0.0000\n"


def test_eval_cli_per_sentence_and_undefined(tmp_path, capsys):
    gold = write(tmp_path / "g", "\n")
    hyp = write(tmp_path / "h", "\n")
    assert main(["eval", "--gold", gold, "--hyp", hyp, "--per-sentence"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("0\t")
    assert out[-1] == "precision=0.0000 recall=0.0000 aer=undefined"


def test_extract_cli(tmp_path, capsys):
    src = write(tmp_path / "s", "a b\n")
    tgt = write(tmp_path / "t", "x y\n")
    align = write(tmp_path / "a", "0-0 1-1\n")
    dump = tmp_path / "phr.tsv"
    assert main(["extract", "-s", src, "-t", tgt, "--align", align,
                 "--max-len", "2", "--dump", str(dump)]) == 0
    assert capsys.readouterr().out == "entries=3\n"
    assert sorted(dump.read_text().splitlines()) == ["a\tx", "a b\tx y", "b\ty"]


def test_extract_reads_a_lone_carriage_return_as_a_line_end_in_every_file(tmp_path, capsys):
    src = write(tmp_path / "s", "das haus\rein buch\n")
    tgt = write(tmp_path / "t", "the house\ra book\r")
    align = write(tmp_path / "a", "0-0 1-1\r0-0 1-1\n")
    assert main(["extract", "-s", src, "-t", tgt, "--align", align, "--max-len", "1"]) == 0
    assert capsys.readouterr().out == "entries=4\n"


def test_extract_rejects_a_link_outside_its_sentence(tmp_path, capsys):
    src = write(tmp_path / "s", "a b\nc\n")
    tgt = write(tmp_path / "t", "x y\nz\n")
    align = write(tmp_path / "a", "0-0\n0-0 1-5\n")
    assert main(["extract", "-s", src, "-t", tgt, "--align", align]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert f"error: {align}:2: link 1-5 outside a 1-word source and 1-word target" in err


def test_extract_rejects_max_len_zero(tmp_path, capsys):
    src = write(tmp_path / "s", "a b\n")
    tgt = write(tmp_path / "t", "x y\n")
    align = write(tmp_path / "a", "0-0 1-1\n")
    assert main(["extract", "-s", src, "-t", tgt, "--align", align, "--max-len", "0"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "error: --max-len must be positive, got 0" in err


def test_extract_max_len_defaults_to_the_phrase_default():
    args = build_arg_parser().parse_args(["extract", "-s", "s", "-t", "t", "--align", "a"])
    assert args.max_len == phrase.DEFAULT_MAX_LEN
    for function in (phrase.extract_spans, phrase.phrase_strings, phrase.phrase_table):
        assert inspect.signature(function).parameters["max_len"].default == phrase.DEFAULT_MAX_LEN


@pytest.mark.parametrize("option", ["--sigma-theta", "--sigma-delta"])
def test_sweep_does_not_offer_the_settings_its_grid_sets(toy, tmp_path, option):
    gold = write(tmp_path / "g", "0-0 1-1\n0-0\n0-0 1-1 2-2\n")
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "-s", toy["src"], "-t", toy["tgt"], "--gold", gold, option, "1"])
    assert exc.value.code == 2


def test_sweep_cli(tmp_path, capsys):
    # Each line is the recall eval gives for align at that grid point.
    # Reversed word order, so that the grid points differ, and an
    # empty-side line, whose empty alignment eval scores as align wrote it.
    rng = random.Random(9)
    src_lines, tgt_lines, gold_lines = [], [], []
    for k in range(30):
        words = rng.sample(range(10), rng.randint(1, 5))
        src_lines.append("" if k == 4 else " ".join(f"s{w}" for w in words))
        tgt_lines.append(" ".join(f"t{w}" for w in reversed(words)))
        gold_lines.append(" ".join(f"{j}-{len(words) - 1 - j}" for j in range(len(words))))
    src = write(tmp_path / "s", "\n".join(src_lines) + "\n")
    tgt = write(tmp_path / "t", "\n".join(tgt_lines) + "\n")
    gold = write(tmp_path / "g", "\n".join(gold_lines) + "\n")
    files = ["-s", src, "-t", tgt]
    assert main(["sweep", *files, "--gold", gold, "--theta-grid", "1,50", "--delta-grid", "1,5"]) == 0
    swept = capsys.readouterr().out.splitlines()
    model, hyp = tmp_path / "model", tmp_path / "hyp"
    assert main(["train", *files, "-o", str(model)]) == 0
    want = []
    for theta in ("1", "50"):
        for delta in ("1", "5"):
            capsys.readouterr()
            assert main(["align", *files, "-m", str(model), "--sigma-theta", theta, "--sigma-delta", delta]) == 0
            hyp.write_text(capsys.readouterr().out, encoding="utf-8")
            assert main(["eval", "--gold", gold, "--hyp", str(hyp)]) == 0
            recall = capsys.readouterr().out.split()[1].removeprefix("recall=")
            want.append(f"{theta}\t{delta}\t{recall}")
    assert swept == want
    assert len({line.split("\t")[2] for line in want}) > 1


@pytest.mark.parametrize("gold_text, option, message", [
    ("0-0 1-1\n0-0\n0-0 1-1 2-2\n", ["--theta-grid", "0"], "sigma_theta must be positive"),
    ("0-0 1-1\n0-0\n0-0 1_1 2-2\n", [], "1_1"),
    ("0-0\n", [], "gold has 1 lines, corpus has 3 lines"),
])
def test_sweep_checks_its_settings_and_gold_before_training(toy, tmp_path, capsys, gold_text, option, message):
    gold = write(tmp_path / "g", gold_text)
    rc = main(["sweep", "-s", toy["src"], "-t", toy["tgt"], "--gold", gold, *option])
    assert rc == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert message in err
    assert " iteration " not in err


@pytest.mark.parametrize("command", [["train", "-o", "m"], ["pipeline", "-o", "out"], ["sweep", "--gold", "g"]])
def test_no_setting_flags_give_the_default_config(command):
    # train offers no --threads and keeps AlignerConfig's one; the others use every core.
    args = build_arg_parser().parse_args([*command, "-s", "s", "-t", "t"])
    want = AlignerConfig() if command[0] == "train" else AlignerConfig(threads=os.cpu_count() or 1)
    assert config_from_args(args) == want


def test_train_offers_no_threads(toy, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["train", "-s", toy["src"], "-t", toy["tgt"], "-o", str(toy["dir"] / "model"), "--threads", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --threads 2" in capsys.readouterr().err
    assert not (toy["dir"] / "model").exists()


def test_train_snapshot_does_not_depend_on_the_cores(toy, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 7)
    model = toy["dir"] / "model"
    assert main(["train", "-s", toy["src"], "-t", toy["tgt"], "-o", str(model)]) == 0
    assert "threads=1\n" in (model / "config.txt").read_text(encoding="utf-8").splitlines(keepends=True)


def test_align_offers_only_the_run_settings():
    top = build_arg_parser()
    align = next(action for action in top._actions if action.dest == "command").choices["align"]
    offered = {flag for action in align._actions for flag in action.option_strings}
    inputs = {"-h", "--help", "-s", "--source", "-t", "--target", "--bitext", "--separator", "-m", "--model",
              "--stats", "--dump-matrix"}
    settings = {"--sigma-theta", "--sigma-delta", "--no-distortion", "--distortion-threshold", "--p0", "--beam",
                "--max-sentence-len", "--threads", "--lowercase"}
    assert offered == inputs | settings


def assert_rejected_before_training(toy, capsys, option, train_value, pipeline_value, message):
    """train (unless train_value is None) and pipeline fail on the option, before any work."""
    model = toy["dir"] / "model"
    if train_value is not None:
        rc = main(["train", "-s", toy["src"], "-t", toy["tgt"], "-o", str(model), option, train_value])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"error: {message}" in err
        assert " iteration " not in err
        assert not model.exists()
    out = toy["dir"] / "out"
    rc = main(["pipeline", "-s", toy["src"], "-t", toy["tgt"], "-o", str(out), option, pipeline_value])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"error: {message}" in err
    assert " iteration " not in err
    assert not out.exists()


def test_distortion_threshold_over_one_rejected_before_training(toy, capsys):
    assert_rejected_before_training(toy, capsys, "--distortion-threshold", "2", "1.5",
                                    "distortion threshold r must be in (0, 1]")


def test_fallback_over_one_rejected_before_training(toy, capsys):
    assert_rejected_before_training(toy, capsys, "--fallback-prob", "inf", "inf",
                                    "fallback probability must be in (0, 1]")


def test_infinite_alpha_rejected_before_training(toy, capsys):
    assert_rejected_before_training(toy, capsys, "--alpha", "inf", "inf", "alpha must be finite")


def test_p0_of_one_or_more_rejected_before_training(toy, capsys):
    assert_rejected_before_training(toy, capsys, "--p0", "1", "1e6", "p0 must be in (0, 1)")


def test_bitext_and_split_files_conflict(toy, tmp_path, capsys):
    joined = write(tmp_path / "joined", "a ||| x\n")
    rc = main(["pipeline", "-s", toy["src"], "-t", toy["tgt"], "--bitext", joined,
               "-o", str(tmp_path / "o")])
    assert rc == 1
    assert "not both" in capsys.readouterr().err


def test_threads_must_be_a_positive_count(toy, capsys):
    # --threads goes to the config as given, which rejects a count below one;
    # a value that is neither a count nor 'auto' fails in argparse. train
    # offers no --threads; align's counts are checked before the model is read.
    for value in ("0", "-2"):
        assert_rejected_before_training(toy, capsys, "--threads", None, value, "threads must be positive")
    for command in (["pipeline", "-o", str(toy["dir"] / "out")], ["align", "-m", str(toy["dir"] / "model")]):
        with pytest.raises(SystemExit) as exc:
            main([*command, "-s", toy["src"], "-t", toy["tgt"], "--threads", "abc"])
        assert exc.value.code == 2
        assert "argument --threads: invalid" in capsys.readouterr().err
    args = build_arg_parser().parse_args(["align", "-s", "s", "-t", "t", "-m", "m", "--threads", "3"])
    assert args.threads == 3


@pytest.mark.parametrize("option, value, message", [
    ("--threads", "0", "threads must be positive"),
    ("--threads", "-2", "threads must be positive"),
    ("--beam", "0", "beam must be positive"),
    ("--distortion-threshold", "2", "distortion threshold r must be in (0, 1]"),
])
def test_align_checks_its_settings_before_reading_the_model(toy, capsys, monkeypatch, option, value, message):
    def read_model(model_dir):
        raise AssertionError("the model was read before the settings were checked")

    # The model directory does not exist either: the bad setting is reported, not the model.
    monkeypatch.setattr("hieralign.cli.load_model", read_model)
    rc = main(["align", "-s", toy["src"], "-t", toy["tgt"], "-m", str(toy["dir"] / "nomodel"), option, value])
    assert rc == 1
    assert f"error: {message}" in capsys.readouterr().err


def test_align_missing_model_fails(toy, capsys):
    rc = main(["align", "-s", toy["src"], "-t", toy["tgt"], "-m", str(toy["dir"] / "nomodel")])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_line_count_mismatch_fails(tmp_path, capsys):
    src = write(tmp_path / "s", "a\nb\n")
    tgt = write(tmp_path / "t", "x\n")
    rc = main(["pipeline", "-s", src, "-t", tgt, "-o", str(tmp_path / "o")])
    assert rc == 1
    assert "mismatch" in capsys.readouterr().err
