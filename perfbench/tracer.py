"""In-memory spans recorded around calls into hieralign, plus self-time accounting.

A span is (name, start, end, parent id, pair index). Spans nest through a
stack in the recording process; spans recorded in a worker process come
back with the chunk's result and are adopted under the span that was open
when the chunk was dispatched. Times come from time.perf_counter, which is
the system-wide monotonic clock on Linux, so worker and parent spans share
one time base.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

from hieralign import workers
from hieralign.alignio import format_alignment
from hieralign.parser import project, top_down_parse
from hieralign.softmatrix import build_soft_matrix


class Tracer:
    def __init__(self):
        self.spans = []   # [name, start, end, parent id, pair index]
        self._open = []

    @contextmanager
    def span(self, name, pair=None):
        record = [name, time.perf_counter(), None, self._open[-1] if self._open else None, pair]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def adopt(self, records):
        """Add (name, start, end, pair) spans recorded elsewhere under the open span."""
        parent = self._open[-1]
        self.spans.extend([name, start, end, parent, pair] for name, start, end, pair in records)

    def self_times(self):
        """Self time per span name: duration minus the union of its children's intervals.

        The union, not the sum, so that children running in parallel worker
        processes are not counted twice against their parent.
        """
        children = {}
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                children.setdefault(parent, []).append((start, end))
        totals = {}
        for sid, (name, start, end, _, _) in enumerate(self.spans):
            covered = 0.0
            reach = start
            for c0, c1 in sorted(children.get(sid, ())):
                c0, c1 = max(c0, reach), min(c1, end)
                if c1 > c0:
                    covered += c1 - c0
                    reach = c1
            totals[name] = totals.get(name, 0.0) + (end - start) - covered
        return totals

    def durations(self, name):
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def write(self, path):
        keys = ("name", "start", "end", "parent", "pair")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(keys, record)) for record in self.spans], fh)


def traced_align_chunk(chunk):
    """The per-pair alignment steps of one chunk, each timed as a span.

    Runs in whichever process workers.map_chunks uses and reads the same
    (t_fwd, t_rev, params, beam) payload as hieralign's own chunk worker.
    Returns (lines, spans, split count).
    """
    t_fwd, t_rev, params, beam = workers.payload()
    clock = time.perf_counter
    lines, spans, splits = [], [], 0
    for pair in chunk:
        if pair is None:
            lines.append("")
            continue
        t0 = clock()
        matrix = build_soft_matrix(pair, t_fwd, t_rev, params)
        t1 = clock()
        derivation = top_down_parse(matrix, beam)
        t2 = clock()
        lines.append(format_alignment(project(derivation)))
        t3 = clock()
        spans += [
            ("softmatrix.build", t0, t1, pair.index),
            ("parser.parse", t1, t2, pair.index),
            ("parser.project", t2, t3, pair.index),
        ]
        splits += len(derivation.steps)
    return lines, spans, splits
