"""A worker pool that maps a function over chunks, yielding results in chunk order.

map_chunks runs a function over chunks the caller cut, independently of
the worker count, so its output is the same whether 1 or N processes ran.
Alignment maps over the parser's lockstep groups. chunked cuts a list
into chunks of CHUNK_SIZE items; the package does not call it, only
perfbench's traced alignment flow does.
"""

from __future__ import annotations

import multiprocessing as mp

# chunked's default chunk size; nothing else reads it.
CHUNK_SIZE = 128

_payload = None


def payload():
    """Shared read-only payload installed for the current worker."""
    return _payload


def _init_worker(value):
    global _payload
    _payload = value


def chunked(items, size=CHUNK_SIZE):
    """Split a list into consecutive chunks of at most `size` items."""
    return [items[k:k + size] for k in range(0, len(items), size)]


def map_chunks(func, shared, chunks, threads=1):
    """Yield func(chunk) for every chunk, in order.

    `shared` is installed once per worker and read through payload().
    The pool starts no more workers than there are chunks; one worker runs
    inline in this process, and the payload is released when the run ends.
    """
    processes = min(threads, len(chunks))
    if processes <= 1:
        _init_worker(shared)
        try:
            for chunk in chunks:
                yield func(chunk)
        finally:
            _init_worker(None)
        return
    with mp.Pool(processes, initializer=_init_worker, initargs=(shared,)) as pool:
        yield from pool.imap(func, chunks, chunksize=1)
