from hieralign import workers


def test_inline_map_releases_payload():
    def scaled(chunk):
        return [x * workers.payload() for x in chunk]

    chunks = workers.chunked(list(range(5)), size=2)
    assert list(workers.map_chunks(scaled, 10, chunks, threads=1)) == [[0, 10], [20, 30], [40]]
    assert workers.payload() is None
