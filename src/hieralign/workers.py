"""Chunked worker-pool helpers with order-preserving reduction.

Work is cut into chunks of a fixed size that does not depend on the worker
count, and results come back in chunk order, so any reduction over them is
bit-identical whether 1 or N processes ran.
"""

from __future__ import annotations

import multiprocessing as mp

# Fixed, not a tuning knob: the E-step sums its counts chunk by chunk, so this
# sets EM's summation order. Alignment output does not depend on chunking.
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
    threads <= 1 runs inline in this process, and the payload is released
    when the run ends.
    """
    if threads is None or threads <= 1 or len(chunks) <= 1:
        _init_worker(shared)
        try:
            for chunk in chunks:
                yield func(chunk)
        finally:
            _init_worker(None)
        return
    with mp.Pool(threads, initializer=_init_worker, initargs=(shared,)) as pool:
        yield from pool.imap(func, chunks, chunksize=1)
