from hieralign import workers


def test_inline_map_releases_payload():
    def scaled(chunk):
        return [x * workers.payload() for x in chunk]

    chunks = workers.chunked(list(range(5)), size=2)
    assert list(workers.map_chunks(scaled, 10, chunks, threads=1)) == [[0, 10], [20, 30], [40]]
    assert workers.payload() is None


def test_pool_starts_no_more_workers_than_chunks(monkeypatch):
    asked = []

    class RecordingPool:
        def __init__(self, processes, initializer, initargs):
            asked.append(processes)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            workers._init_worker(None)

        def imap(self, func, chunks, chunksize):
            return map(func, chunks)

    monkeypatch.setattr(workers.mp, "Pool", RecordingPool)
    chunks = workers.chunked(list(range(5)), size=3)
    assert list(workers.map_chunks(sum, None, chunks, threads=8)) == [3, 7]
    assert asked == [2]
    assert list(workers.map_chunks(sum, None, chunks[:1], threads=8)) == [3]
    assert asked == [2]
