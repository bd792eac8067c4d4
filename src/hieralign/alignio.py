"""Pharaoh-format alignment files: space-separated `j-i` links per line."""

from __future__ import annotations

from .corpus import read_lines


def parse_link(token, sep):
    """(j, i) of a `j<sep>i` token of two decimal indices, None for any other token."""
    a, found, b = token.partition(sep)
    if not found or not a.isdecimal() or not b.isdecimal():
        return None
    return int(a), int(b)


def parse_alignment_line(line):
    """Parse one Pharaoh line into a set of (source, target) links; a bad token raises ValueError."""
    links = set()
    for token in line.split():
        link = parse_link(token, "-")
        if link is None:
            raise ValueError(f"bad link token {token!r}")
        links.add(link)
    return links


def format_alignment(links):
    """Render links sorted by source then target index; empty set -> empty line."""
    return " ".join(f"{j}-{i}" for j, i in sorted(links))


def read_alignment_file(path):
    """Links of every line of a Pharaoh file; a bad token raises ValueError("path:line: ...")."""
    out = []
    for lineno, line in enumerate(read_lines(path), start=1):
        try:
            out.append(parse_alignment_line(line))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    return out
