import pytest

from hieralign.alignio import (
    AlignmentFormatError,
    format_alignment,
    parse_alignment_line,
    read_alignment_file,
)
from oracles import write_alignment_file


def test_parse_and_format_roundtrip():
    links = {(2, 1), (0, 0), (1, 10)}
    line = format_alignment(links)
    assert line == "0-0 1-10 2-1"
    assert parse_alignment_line(line) == links


def test_empty_line_is_empty_set():
    assert parse_alignment_line("") == set()
    assert format_alignment(set()) == ""


def test_bad_token_raises_with_line():
    with pytest.raises(AlignmentFormatError, match="line 3"):
        parse_alignment_line("0-0 nope", lineno=3)
    with pytest.raises(AlignmentFormatError):
        parse_alignment_line("1-")
    # A superscript is a digit to str.isdigit but not to int().
    with pytest.raises(AlignmentFormatError, match="line 4"):
        parse_alignment_line("0-0 \u00b2-1", lineno=4)


def test_file_roundtrip(tmp_path):
    alignments = [{(0, 0)}, set(), {(1, 2), (0, 1)}]
    path = tmp_path / "a.align"
    write_alignment_file(path, alignments)
    assert read_alignment_file(path) == alignments
    assert path.read_text() == "0-0\n\n0-1 1-2\n"
