import re

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


def test_bad_token_raises_with_line(tmp_path):
    path = tmp_path / "a.align"
    path.write_text("0-0\n\n0-1\n0-0 nope\n", encoding="utf-8")
    with pytest.raises(AlignmentFormatError, match=f"^{re.escape(str(path))}:4: bad link token 'nope'$"):
        read_alignment_file(path)
    with pytest.raises(AlignmentFormatError, match="^bad link token '1-'$"):
        parse_alignment_line("1-")
    # A superscript is a digit to str.isdigit but not to int().
    path.write_text("0-0\n0-0 \u00b2-1\n", encoding="utf-8")
    with pytest.raises(AlignmentFormatError, match=f"^{re.escape(str(path))}:2: "):
        read_alignment_file(path)


def test_file_roundtrip(tmp_path):
    alignments = [{(0, 0)}, set(), {(1, 2), (0, 1)}]
    path = tmp_path / "a.align"
    write_alignment_file(path, alignments)
    assert read_alignment_file(path) == alignments
    assert path.read_text() == "0-0\n\n0-1 1-2\n"
