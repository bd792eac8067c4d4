"""Map a function over chunks in forked processes, yielding results in chunk order.

map_chunks runs a function over chunks the caller cut, independently of
the worker count, so its output is the same whether 1 or N processes ran.
With P processes the parent forks P - 1 children and chunk k goes to
process k mod P, the parent being process 0: the parent runs its own
share while the children run theirs. Each child sends its results, or
the exception it raised, as one pickle over a pipe and leaves with
os._exit; one that dies without sending makes the parent raise
RuntimeError. Where os.fork does not exist, every chunk runs in this
process.
Alignment maps over the parser's lockstep groups. chunked cuts a list
into chunks of CHUNK_SIZE items; the package does not call it, only
perfbench's traced alignment flow does.
"""

from __future__ import annotations

import os
import pickle
import signal

# chunked's default chunk size; nothing else reads it.
CHUNK_SIZE = 128

_payload = None


def payload():
    """Shared read-only payload installed for the current worker."""
    return _payload


def chunked(items, size=CHUNK_SIZE):
    """Split a list into consecutive chunks of at most `size` items."""
    return [items[k:k + size] for k in range(0, len(items), size)]


def _child(func, share, writer):
    """In a forked child: send func's results for share, or its exception, then exit."""
    code = 1
    try:
        try:
            message = pickle.dumps((True, [func(chunk) for chunk in share]))
        except BaseException as exc:
            message = pickle.dumps((False, exc))
        with os.fdopen(writer, "wb") as fh:
            fh.write(message)
        code = 0
    finally:
        os._exit(code)


def _results(children, pid):
    """The results child pid sent; the exception it sent is raised here."""
    with children[pid] as reader:
        message = reader.read()
    if not message:
        # It died before sending: reap it here, for its exit status.
        status = os.waitpid(pid, 0)[1]
        del children[pid]
        raise RuntimeError(f"worker process {pid} died with exit status {os.waitstatus_to_exitcode(status)}")
    ok, value = pickle.loads(message)
    if not ok:
        raise value
    return value


def map_chunks(func, shared, chunks, threads=1):
    """Yield func(chunk) for every chunk, in order.

    `shared` is installed in this process and read through payload(); the
    children forked here inherit it. No more processes run than there are
    chunks, one of them this process. No child outlives the call, and the
    payload is released when it ends.
    """
    global _payload
    processes = min(threads, len(chunks)) if hasattr(os, "fork") else 1
    _payload = shared
    children = {}  # pid -> read end of its pipe, in share order, until reaped
    try:
        if processes <= 1:
            for chunk in chunks:
                yield func(chunk)
            return
        for k in range(1, processes):
            read, writer = os.pipe()
            reader = os.fdopen(read, "rb")
            pid = os.fork()
            if pid == 0:
                _child(func, chunks[k::processes], writer)
            os.close(writer)
            children[pid] = reader
        pids = list(children)
        shares = [[func(chunk) for chunk in chunks[::processes]]] + [None] * len(pids)
        for k in range(len(chunks)):
            owner = k % processes
            if shares[owner] is None:
                shares[owner] = _results(children, pids[owner - 1])
            yield shares[owner][k // processes]
    finally:
        _payload = None
        for pid, reader in children.items():
            reader.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
