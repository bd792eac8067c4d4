import hieralign

PUBLIC_NAMES = [
    "AlignerConfig", "Block", "CorpusError", "Derivation", "FORWARD", "GoldAlignment", "INVERTED", "Model",
    "NULL_ID", "NULL_TOKEN", "REVERSE", "STRAIGHT", "SentencePair", "SoftMatrix", "SplitStep", "TTable",
    "Vocabulary", "aer", "align_lines", "build_soft_matrix", "build_vocabulary", "digamma", "grow_diag_final_and",
    "intersect", "load_gold", "load_model", "load_parallel_corpus", "project", "save_model",
    "symmetric_lexical_score", "top_down_parse", "train_model", "union_links",
]


def test_package_exports_exactly_its_public_names():
    assert sorted(hieralign.__all__) == sorted(PUBLIC_NAMES)
    assert len(hieralign.__all__) == 33
    for name in hieralign.__all__:
        assert getattr(hieralign, name) is not None
