"""Every file the package reads goes through corpus.read_text: one line-end
rule, one UTF-8 decode and `path:line` on an undecodable byte."""

import ast
from pathlib import Path

import pytest

import hieralign
from hieralign.alignio import read_alignment_file
from hieralign.corpus import NULL_TOKEN, Vocabulary, encode_corpus, read_bitext, read_bitext_joined, read_lines
from hieralign.evaluate import GoldAlignment, load_gold
from hieralign.pipeline import AlignerConfig, load_model, save_model, train_model

BITEXT = [(["das", "haus"], ["the", "house"]), (["das"], ["the"])]

# kind: (file, its lines, reader of the directory holding the files, what it reads)
READERS = {
    "source corpus": ("c.src", ["das haus", "das"], lambda d: read_bitext(d / "c.src", d / "c.tgt"), BITEXT),
    "target corpus": ("c.tgt", ["the house", "the"], lambda d: read_bitext(d / "c.src", d / "c.tgt"), BITEXT),
    "joined corpus": ("c.joined", ["das haus ||| the house", "das ||| the"],
                      lambda d: read_bitext_joined(d / "c.joined"), BITEXT),
    "vocabulary": ("vocab.src", ["das", "haus"], lambda d: Vocabulary.load(d / "vocab.src").tokens(),
                   [NULL_TOKEN, "das", "haus"]),
    "config.txt": ("config.txt", AlignerConfig(beam=3).snapshot().splitlines(), lambda d: load_model(d).config,
                   AlignerConfig(beam=3)),
    "pharaoh": ("c.align", ["0-0 1-1", "0-0"], lambda d: read_alignment_file(d / "c.align"), [{(0, 0), (1, 1)}, {(0, 0)}]),
    "gold": ("c.gold", ["0-0 1?1", "0?0"], lambda d: load_gold(d / "c.gold"),
             [GoldAlignment({(0, 0)}, {(1, 1)}), GoldAlignment(set(), {(0, 0)})]),
}


@pytest.fixture
def files(tmp_path):
    """A directory holding a saved model and the two-line files of READERS."""
    pairs, vsrc, vtgt, _ = encode_corpus(BITEXT)
    save_model(train_model(pairs, vsrc, vtgt, AlignerConfig(threads=1)), tmp_path)
    for name, lines, _, _ in READERS.values():
        if name != "config.txt":
            (tmp_path / name).write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return tmp_path


@pytest.mark.parametrize("kind", sorted(READERS))
def test_every_reader_reports_an_undecodable_byte_by_line(files, kind):
    name, lines, read, _ = READERS[kind]
    path = files / name
    path.write_bytes(f"{lines[0]}\n".encode() + b"\xff" + f"{lines[1]}\n".encode())
    with pytest.raises(ValueError) as err:
        read(files)
    assert not isinstance(err.value, UnicodeDecodeError)
    assert str(err.value).startswith(f"{path}:2: undecodable byte 0xff")


@pytest.mark.parametrize("kind", sorted(READERS))
@pytest.mark.parametrize("line_end", ["\n", "\r\n", "\r"])
@pytest.mark.parametrize("last_line_end", [True, False], ids=["ended", "unended"])
def test_every_reader_reads_each_line_end_as_a_line(files, kind, line_end, last_line_end):
    name, lines, read, value = READERS[kind]
    (files / name).write_bytes((line_end.join(lines) + (line_end if last_line_end else "")).encode())
    assert read(files) == value


def test_an_empty_file_has_no_lines(tmp_path):
    empty = tmp_path / "empty"
    empty.write_bytes(b"")
    assert read_lines(empty) == []
    assert read_bitext(empty, empty) == []
    assert read_bitext_joined(empty) == []
    assert Vocabulary.load(empty).tokens() == [NULL_TOKEN]
    assert read_alignment_file(empty) == []
    assert load_gold(empty) == []


@pytest.mark.parametrize("text, lines", [("\n", [""]), ("a", ["a"]), ("a\n\n", ["a", ""]), ("a\r\rb", ["a", "", "b"]),
                                         ("a\r\n\rb\r", ["a", "", "b"]), ("a\x0cb\x85c \n", ["a\x0cb\x85c "])])
def test_read_lines_ends_lines_at_newlines_only(tmp_path, text, lines):
    path = tmp_path / "text"
    path.write_bytes(text.encode())
    assert read_lines(path) == lines


class _Opens(ast.NodeVisitor):
    """(file, line, function) of each open() call whose mode is not a write mode."""

    def __init__(self, name):
        self.name, self.scope, self.reads = name, ["<module>"], []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    def visit_Call(self, node):
        if getattr(node.func, "id", getattr(node.func, "attr", None)) == "open":
            mode = node.args[1] if len(node.args) > 1 else next((k.value for k in node.keywords if k.arg == "mode"), None)
            if not (isinstance(mode, ast.Constant) and set(mode.value) & set("wax")):
                self.reads.append((self.name, node.lineno, self.scope[-1]))
        self.generic_visit(node)


def test_only_read_text_opens_a_file_for_reading():
    reads = []
    for path in sorted(Path(hieralign.__file__).parent.glob("*.py")):
        opens = _Opens(path.name)
        opens.visit(ast.parse(path.read_text(encoding="utf-8")))
        reads += opens.reads
    assert [(name, function) for name, _, function in reads] == [("corpus.py", "read_text")], reads
