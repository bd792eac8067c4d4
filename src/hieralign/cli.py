"""Command-line interface: train, align, pipeline, symmetrize, eval, extract, sweep.

Standard output carries data only; progress, warnings and timings go to
standard error.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import time

from . import evaluate, phrase, symmetrize
from .alignio import format_alignment, parse_alignment_line, read_alignment_file
from .corpus import DEFAULT_SEPARATOR, CorpusError, encode_corpus, read_bitext, read_bitext_joined
from .pipeline import (
    TRAINING,
    AlignerConfig,
    align_lines,
    align_tasks,
    load_model,
    save_model,
    stderr_log,
    train_model,
)
from .softmatrix import build_soft_matrix, dump_matrix


def _add_input_options(p):
    p.add_argument("-s", "--source", help="source text, one sentence per line")
    p.add_argument("-t", "--target", help="target text, one sentence per line")
    p.add_argument("--bitext", help="joined corpus with a ' ||| ' separator")
    p.add_argument("--separator", default=DEFAULT_SEPARATOR, help="separator token for --bitext")


# Settings that align takes from the model unless a flag overrides them:
# all it offers but threads, 'auto' unless given, and lowercase, which
# must agree with the model.
ALIGN_SETTINGS = tuple(f.name for f in dataclasses.fields(AlignerConfig)
                       if f.metadata["group"] != TRAINING and f.name not in ("threads", "lowercase"))


def _add_config_options(p, from_model=False, omit=()):
    """One option per AlignerConfig field but those named in omit, in its group and with its default.

    from_model (align) leaves out the training options and leaves
    ALIGN_SETTINGS unset unless given, so that they default to the model's
    config.txt.
    """
    groups = {}
    for f in dataclasses.fields(AlignerConfig):
        meta = f.metadata
        if from_model and meta["group"] == TRAINING or f.name in omit:
            continue
        if meta["group"] not in groups:
            groups[meta["group"]] = p.add_argument_group(meta["group"])
        if f.type == "bool":
            options = {"action": "store_false" if f.default else "store_true"}
        else:
            options = {"type": {"int": int, "float": float}[f.type]}
        options["default"] = argparse.SUPPRESS if from_model and f.name in ALIGN_SETTINGS else f.default
        groups[meta["group"]].add_argument(meta["flag"], dest=f.name, help=meta["help"],
                                           **{**options, **meta["argparse"]})


def config_from_args(args):
    """The config of the options given; a setting the command does not offer keeps its default."""
    return AlignerConfig(**{f.name: getattr(args, f.name) for f in dataclasses.fields(AlignerConfig)
                            if hasattr(args, f.name)})


def read_input(args, lowercase):
    """Raw bitext from -s/-t or --bitext, per the flags given."""
    if args.bitext:
        if args.source or args.target:
            raise CorpusError("give either --bitext or -s/-t, not both")
        return read_bitext_joined(args.bitext, args.separator, lowercase)
    if not args.source or not args.target:
        raise CorpusError("need both -s/--source and -t/--target (or --bitext)")
    return read_bitext(args.source, args.target, lowercase)


def _report_skips(stats):
    if stats.skipped_empty:
        stderr_log(f"skipped {stats.skipped_empty} pair(s) with an empty side")
    if stats.skipped_long:
        stderr_log(f"skipped {stats.skipped_long} pair(s) over the length limit")


def _train(bitext, config):
    pairs, vsrc, vtgt, stats = encode_corpus(bitext, config.max_sentence_len)
    _report_skips(stats)
    return train_model(pairs, vsrc, vtgt, config, log=stderr_log)


def _check_out_dir(out_dir):
    """Fail, creating nothing, if save_model could not make out_dir: it or an existing ancestor is no directory."""
    path = os.path.abspath(out_dir)
    while not os.path.exists(path):
        path = os.path.dirname(path)
    if not os.path.isdir(path):
        raise NotADirectoryError(f"{path} is not a directory")


def _check_out_file(path):
    """Fail, creating nothing, if open(path, "w") could not: path is a directory or its parent is none."""
    if os.path.isdir(path):
        raise IsADirectoryError(f"{path} is a directory")
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent):
        raise NotADirectoryError(f"{parent} is not a directory")


def cmd_train(args):
    config = config_from_args(args)
    _check_out_dir(args.out_dir)
    model = _train(read_input(args, config.lowercase), config)
    save_model(model, args.out_dir)
    stderr_log(f"model written to {args.out_dir}")
    return 0


def cmd_align(args):
    overrides = {name: getattr(args, name) for name in ALIGN_SETTINGS if hasattr(args, name)}
    # AlignerConfig checks each setting on its own, so a bad flag fails here,
    # against the defaults, before the model is read.
    AlignerConfig(threads=args.threads, **overrides)
    if args.dump_matrix:
        _check_out_file(args.dump_matrix)
    model = load_model(args.model)
    # Input must be read as the model's vocabulary was: lowercasing comes
    # from the snapshot, and --lowercase may not contradict it.
    if args.lowercase and not model.config.lowercase:
        raise ValueError(f"--lowercase contradicts the model in {args.model}, trained without it")
    model.config = dataclasses.replace(model.config, threads=args.threads, **overrides)
    bitext = read_input(args, model.config.lowercase)
    started = time.perf_counter()
    if args.dump_matrix:
        with open(args.dump_matrix, "w", encoding="utf-8") as fh:
            for pair in align_tasks(bitext, model):
                if pair is not None:
                    dump_matrix(build_soft_matrix(pair, model.t_fwd, model.t_rev, model.config), fh)
    sys.stdout.writelines(line + "\n" for line in align_lines(bitext, model))
    if args.stats:
        elapsed = time.perf_counter() - started
        rate = len(bitext) / elapsed if elapsed > 0 else float("inf")
        stderr_log(f"aligned {len(bitext)} pairs in {elapsed:.2f}s ({rate:.1f} pairs/s)")
    return 0


def cmd_pipeline(args):
    config = config_from_args(args)
    _check_out_file(args.out)
    if args.model_dir:
        _check_out_dir(args.model_dir)
    bitext = read_input(args, config.lowercase)
    model = _train(bitext, config)
    started = time.perf_counter()
    lines = align_lines(bitext, model)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.writelines(line + "\n" for line in lines)
    if args.model_dir:
        save_model(model, args.model_dir)
    stderr_log(f"aligned {len(bitext)} pairs in {time.perf_counter() - started:.2f}s")
    return 0


def cmd_symmetrize(args):
    fwd = read_alignment_file(args.fwd)
    rev = read_alignment_file(args.rev)
    if len(fwd) != len(rev):
        raise CorpusError(f"--fwd has {len(fwd)} lines, --rev has {len(rev)} lines")
    rev = [{(j, i) for i, j in a_rev} for a_rev in rev]  # reverse files carry i-j links
    if args.heuristic == "gdfa":
        merged = symmetrize.grow_diag_pairs(fwd, rev)
    else:
        combine = symmetrize.intersect if args.heuristic == "intersection" else symmetrize.union_links
        merged = [combine(a_fwd, a_rev) for a_fwd, a_rev in zip(fwd, rev)]
    sys.stdout.writelines(format_alignment(links) + "\n" for links in merged)
    return 0


def _fmt_metric(value):
    return "undefined" if value is None else f"{value:.4f}"


def cmd_eval(args):
    golds = evaluate.load_gold(args.gold)
    hyps = read_alignment_file(args.hyp)
    names = ("precision", "recall", "aer")
    if args.per_sentence:
        for k, m in enumerate(evaluate.per_sentence(hyps, golds)):
            sys.stdout.write("\t".join([str(k), *(_fmt_metric(m[name]) for name in names)]) + "\n")
    m = evaluate.aer(hyps, golds)
    sys.stdout.write(" ".join(f"{name}={_fmt_metric(m[name])}" for name in names) + "\n")
    return 0


def cmd_extract(args):
    if args.max_len < 1:
        raise ValueError(f"--max-len must be positive, got {args.max_len}")
    if args.dump:
        _check_out_file(args.dump)
    bitext = read_bitext(args.source, args.target, args.lowercase)
    alignments = read_alignment_file(args.align)
    for lineno, ((src, tgt), links) in enumerate(zip(bitext, alignments), start=1):
        for j, i in sorted(links):
            if j >= len(src) or i >= len(tgt):
                raise CorpusError(f"{args.align}:{lineno}: link {j}-{i} outside a {len(src)}-word source "
                                  f"and {len(tgt)}-word target")
    table = phrase.phrase_table(bitext, alignments, args.max_len, not args.no_unaligned_extension)
    if args.dump:
        with open(args.dump, "w", encoding="utf-8") as fh:
            fh.writelines(f"{src_phrase}\t{tgt_phrase}\n" for src_phrase, tgt_phrase in sorted(table))
    sys.stdout.write(f"entries={len(table)}\n")
    return 0


def cmd_sweep(args):
    config = config_from_args(args)
    # Every grid point and the gold file are checked before training.
    grid = [dataclasses.replace(config, sigma_theta=float(theta), sigma_delta=float(delta))
            for theta in args.theta_grid.split(",") for delta in args.delta_grid.split(",")]
    golds = evaluate.load_gold(args.gold)
    bitext = read_input(args, config.lowercase)
    if len(golds) != len(bitext):
        raise CorpusError(f"gold has {len(golds)} lines, corpus has {len(bitext)} lines")
    model = _train(bitext, config)
    for point in grid:
        lines = align_lines(bitext, dataclasses.replace(model, config=point))
        hyps = [parse_alignment_line(line) for line in lines]
        metrics = evaluate.aer(hyps, golds)
        sys.stdout.write(f"{point.sigma_theta:g}\t{point.sigma_delta:g}\t{_fmt_metric(metrics['recall'])}\n")
    return 0


def build_arg_parser():
    top = argparse.ArgumentParser(prog="hieralign", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train translation tables and save a model")
    _add_input_options(p)
    p.add_argument("-o", "--out-dir", required=True, help="model output directory")
    _add_config_options(p, omit=("threads",))  # training runs in one process
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("align", help="align a corpus with a trained model")
    _add_input_options(p)
    p.add_argument("-m", "--model", required=True, help="model directory from train")
    p.add_argument("--stats", action="store_true", help="report timing to stderr")
    p.add_argument("--dump-matrix", help="write per-pair weight matrices to this TSV file")
    _add_config_options(p, from_model=True)
    p.set_defaults(func=cmd_align)

    p = sub.add_parser("pipeline", help="train and align in one run")
    _add_input_options(p)
    p.add_argument("-o", "--out", required=True, help="alignment output file")
    p.add_argument("--model-dir", help="also save the trained model to this directory")
    _add_config_options(p)
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("symmetrize", help="combine two directional alignments")
    p.add_argument("--fwd", required=True, help="source-to-target Pharaoh file (j-i)")
    p.add_argument("--rev", required=True, help="target-to-source Pharaoh file (i-j)")
    p.add_argument("--heuristic", default="gdfa", choices=symmetrize.HEURISTICS)
    p.set_defaults(func=cmd_symmetrize)

    p = sub.add_parser("eval", help="score a hypothesis against gold links")
    p.add_argument("--gold", required=True, help="gold file: j-i sure, j?i possible")
    p.add_argument("--hyp", required=True, help="hypothesis Pharaoh file")
    p.add_argument("--per-sentence", action="store_true", help="also print per-line TSV metrics")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("extract", help="extract consistent phrase pairs")
    p.add_argument("-s", "--source", required=True)
    p.add_argument("-t", "--target", required=True)
    p.add_argument("--align", required=True, help="Pharaoh alignment file")
    p.add_argument("--max-len", type=int, default=phrase.DEFAULT_MAX_LEN)
    p.add_argument("--no-unaligned-extension", action="store_true",
                   help="keep only spans whose boundary words are aligned")
    p.add_argument("--dump", help="write the distinct phrase pairs to this TSV file")
    p.add_argument("--lowercase", action="store_true")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("sweep", help="grid sigma_theta x sigma_delta against a gold file")
    _add_input_options(p)
    p.add_argument("--gold", required=True)
    p.add_argument("--theta-grid", default="1,2,3,4")
    p.add_argument("--delta-grid", default="1,2,5,10")
    _add_config_options(p, omit=("sigma_theta", "sigma_delta"))
    p.set_defaults(func=cmd_sweep)
    return top


def main(argv=None):
    args = build_arg_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        stderr_log(f"error: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
