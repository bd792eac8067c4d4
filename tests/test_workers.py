import functools
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from hieralign import workers


def test_inline_map_releases_payload():
    def scaled(chunk):
        return [x * workers.payload() for x in chunk]

    chunks = workers.chunked(list(range(5)), size=2)
    assert list(workers.map_chunks(scaled, 10, chunks, threads=1)) == [[0, 10], [20, 30], [40]]
    assert workers.payload() is None


def assert_no_child_left():
    assert workers.payload() is None
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_forks_one_child_fewer_than_processes(monkeypatch):
    forks = []
    fork = os.fork

    def counting_fork():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    chunks = workers.chunked(list(range(7)), size=1)
    for threads, want in ((8, 6), (3, 2), (2, 1), (1, 0)):
        forks.clear()
        assert list(workers.map_chunks(sum, None, chunks, threads=threads)) == list(range(7))
        assert len(forks) == want
    forks.clear()
    assert list(workers.map_chunks(sum, None, chunks[:1], threads=8)) == [0]
    assert forks == []
    # No chunks: nothing runs and nothing is forked, whatever the thread count.
    for threads in (1, 3):
        assert list(workers.map_chunks(sum, None, [], threads=threads)) == []
    assert forks == []
    # One thread: every chunk runs in this process.
    pids = list(workers.map_chunks(lambda chunk: os.getpid(), None, chunks, threads=1))
    assert pids == [os.getpid()] * len(chunks)
    assert forks == []
    assert_no_child_left()


def test_shares_are_round_robin_and_read_the_payload():
    def tagged(chunk):
        return (os.getpid(), [x + workers.payload() for x in chunk])

    chunks = workers.chunked(list(range(7)), size=1)
    results = list(workers.map_chunks(tagged, 100, chunks, threads=3))
    assert [values for _, values in results] == [[100 + k] for k in range(7)]
    pids = [pid for pid, _ in results]
    assert pids[0] == os.getpid()
    assert len(set(pids)) == 3
    assert all(pids[k] == pids[k % 3] for k in range(7))
    assert_no_child_left()


def raise_in_child(chunk):
    if chunk == [1]:
        raise ValueError("chunk [1] is bad")
    return chunk


def raise_in_parent(chunk):
    if chunk == [0]:
        raise ValueError("chunk [0] is bad")
    return chunk


def kill_in_child(parent, chunk):
    if os.getpid() != parent:
        os.kill(os.getpid(), signal.SIGKILL)
    return chunk


@pytest.mark.parametrize("func, error, message", [
    (raise_in_child, ValueError, r"^chunk \[1\] is bad$"),
    (raise_in_parent, ValueError, r"^chunk \[0\] is bad$"),
    (functools.partial(kill_in_child, os.getpid()), ChildProcessError, "died with exit status -9"),
], ids=["child-raises", "parent-raises", "child-killed"])
def test_a_failing_chunk_fails_the_map_and_leaves_no_child(func, error, message):
    chunks = workers.chunked(list(range(6)), size=1)
    with pytest.raises(error, match=message):
        list(workers.map_chunks(func, "payload", chunks, threads=3))
    assert_no_child_left()


def test_closing_the_map_after_its_first_item_leaves_no_child():
    results = workers.map_chunks(len, "payload", workers.chunked(list(range(6)), size=1), threads=3)
    assert next(results) == 1
    assert workers.payload() == "payload"
    results.close()
    assert_no_child_left()


def test_import_leaves_multiprocessing_unimported():
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    probe = "import sys, hieralign, hieralign.cli; print(any(m.startswith('multiprocessing') for m in sys.modules))"
    run = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True)
    assert run.stdout.split() == ["False"]
