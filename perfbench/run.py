"""Seeded hieralign benchmark: one workload and one seed per invocation.

  python3 perfbench/run.py --workload short|long|zipf --seed N --seconds S --trace 0|1

Generates the workload's corpus from the seed, then runs benchmark flows
(perfbench/flow.py), each in a fresh process, until --seconds have passed
(at least MIN_FLOWS flows, or MIN_TRACED_PAIRS pairs). --trace 0 runs the
untraced user flow and reports the end-to-end metrics as medians over
flows. --trace 1 alternates an untraced flow with a traced one and reports
the per-layer metrics.
Every alignment file a flow writes is checked here: each line must be
well-formed Pharaoh output covering every source and target word, and
all files of a run must be byte-identical. The last line of stdout is the
JSON result; a human summary goes to stderr, and everything, spans
included, stays under .perfbench/<workload>-<seed>-trace<T>/.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

MIN_FLOWS = 3
MIN_TRACED_PAIRS = 2
# A run that has not finished by then is stopped and fails, with no result.
RUN_LIMIT_S = 170
# Acceptance gate 05 of the test suite bounds AER on the smoke corpus shape.
SHORT_AER_LIMIT = 0.15


class BenchError(Exception):
    """A flow process failed; the run has no result."""


def host_info():
    return {"loadavg": os.getloadavg(), "time": time.time()}


def run_flow(mode, index, args, workdir, deadline, extra=()):
    """Run flow.py in a fresh process group; returns its JSON result.

    The flow is killed, with its worker processes, at perf_counter() == deadline.
    """
    cmd = [sys.executable, os.path.join(HERE, "flow.py"), mode, "--root", ROOT,
           "--workdir", workdir, "--workload", args.workload, "--index", str(index),
           "--seed", str(args.seed), *extra]
    env = dict(os.environ)
    env.pop("HIERALIGN_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"), HERE])
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env=env, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{mode} flow {index} still running after the {RUN_LIMIT_S}s run limit") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} flow {index} exited with {proc.returncode}:\n{err[-4000:]}")
    return json.loads(out.strip().splitlines()[-1])


def run_until(deadline_s, step, minimum):
    """Call step(k) for k = 0, 1, ... while another call is expected to end in time."""
    started = time.perf_counter()
    walls = []
    while True:
        t = time.perf_counter()
        step(len(walls))
        walls.append(time.perf_counter() - t)
        elapsed = time.perf_counter() - started
        if len(walls) >= minimum and elapsed + statistics.median(walls) > deadline_s:
            return


def parse_links(line, n, m):
    """Links of one Pharaoh line, or None if it is missing or has a bad or out-of-range token."""
    if line is None:
        return None
    links = set()
    for token in line.split():
        j, sep, i = token.partition("-")
        if not (sep and j.isdigit() and i.isdigit() and int(j) < n and int(i) < m):
            return None
        links.add((int(j), int(i)))
    return links


def check_outputs(workdir, corpus):
    """Check every alignment file of the run against the corpus and each other.

    A line fails when it is missing, malformed, leaves a source or target
    word uncovered, or differs from the same line of the first file; every
    line beyond the corpus fails too. Returns (attempted lines, failed
    lines, sha256 per file, lines of the first file).
    """
    names = sorted(f for f in os.listdir(workdir) if f.endswith(".align"))
    attempted = failed = 0
    digests = {}
    reference = None
    for name in names:
        with open(os.path.join(workdir, name), "rb") as fh:
            data = fh.read()
        digests[name] = hashlib.sha256(data).hexdigest()
        lines = data.decode("utf-8", errors="replace").split("\n")[:-1]
        failed += max(0, len(lines) - len(corpus))
        lines = lines[:len(corpus)] + [None] * (len(corpus) - len(lines))
        if reference is None:
            reference = lines
        for line, ref, (n, m, _) in zip(lines, reference, corpus):
            links = parse_links(line, n, m)
            ok = (links is not None and line == ref
                  and {j for j, _ in links} == set(range(n))
                  and {i for _, i in links} == set(range(m)))
            failed += not ok
        attempted += len(corpus)
    return attempted, failed, digests, reference


def alignment_f1(lines, corpus):
    """Micro F1 of output links against the planted gold; 1 - F1 is the AER
    for a gold standard whose links are all sure."""
    hits = hyp = ref = 0
    for line, (n, m, gold) in zip(lines, corpus):
        links = parse_links(line, n, m) or set()
        hits += len(links & gold)
        hyp += len(links)
        ref += len(gold)
    return 2.0 * hits / (hyp + ref)


def median_of(results, key):
    values = [r[key] for r in results if key in r]
    return statistics.median(values) if values else None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.perf_counter() + RUN_LIMIT_S

    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    try:
        import numpy
        import hieralign  # noqa: F401  (the program under test must be importable)
    except ImportError as exc:
        sys.stderr.write(f"cannot import the program under test from {ROOT}/src: {exc}\n")
        return 2
    import corpora

    if args.workload not in corpora.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(corpora.WORKLOADS)}")
    workload = corpora.WORKLOADS[args.workload]
    workdir = os.path.join(ROOT, ".perfbench", f"{args.workload}-{args.seed}-trace{args.trace}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "nproc": os.cpu_count(), "python": platform.python_version(), "numpy": numpy.__version__,
        "host_before": host_info(),
    }
    corpus = corpora.write(workload, args.seed, workdir)

    user, traced = [], []

    def user_flow(k):
        extra = ("--serial-check",) if k == 0 and workload.threads > 1 else ()
        user.append(run_flow("user", k, args, workdir, deadline, extra))

    def flow_pair(k):
        user_flow(k)
        traced.append(run_flow("traced", k, args, workdir, deadline,
                               ("--checks",) if k == 0 else ()))

    try:
        if args.trace:
            run_until(args.seconds, flow_pair, MIN_TRACED_PAIRS)
        else:
            run_until(args.seconds, user_flow, MIN_FLOWS)
    except BenchError as exc:
        sys.stderr.write(f"{exc}\n")
        return 1

    attempted, failed, digests, lines = check_outputs(workdir, corpus)
    f1 = alignment_f1(lines, corpus)
    failures = [f for t in traced for f in t.get("checks", {}).get("failures", [])]
    if failed:
        failures.append(f"{failed} of {attempted} output lines failed the checks")
    if workload.name == "short" and 1.0 - f1 >= SHORT_AER_LIMIT:
        failures.append(f"AER {1.0 - f1:.4f} on short is not below {SHORT_AER_LIMIT}")

    if args.trace:
        layers = [t["layer"] for t in traced]
        values = {name: median_of(layers, name) for name in layers[0]}
        values["trace.overhead_frac"] = (
            values["trace.pipeline_s"] / median_of(user, "pipeline_s") - 1.0)
        values["pairs_failed_frac"] = failed / attempted
        values["aer"] = 1.0 - f1
        report["loglik_per_iteration"] = traced[0]["checks"]["loglik"]
        report["parse_tail_percentile"] = traced[0]["tail_percentile"]
    else:
        values = {
            "setup_s": median_of(user, "setup_s"),
            "train_s": median_of(user, "train_s"),
            "align_pairs_per_s": statistics.median(r["lines"] / r["align_s"] for r in user),
            "pipeline_s": median_of(user, "pipeline_s"),
            "peak_rss_mb": median_of(user, "peak_rss_mb"),
            "model_bytes": median_of(user, "model_bytes"),
            "f1": f1,
        }

    report.update({"host_after": host_info(), "user_flows": user, "traced_flows": traced,
                   "digests": digests, "failures": failures, "metrics": values})
    with open(os.path.join(workdir, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    for name in os.listdir(workdir):
        if name.startswith("model-"):
            shutil.rmtree(os.path.join(workdir, name))

    sys.stderr.write(
        f"{args.workload} seed {args.seed} trace {args.trace}: {len(user)} untraced and "
        f"{len(traced)} traced flows, nproc {report['nproc']}, python {report['python']}, "
        f"numpy {report['numpy']}, loadavg {report['host_before']['loadavg'][0]:.2f} -> "
        f"{report['host_after']['loadavg'][0]:.2f}\n"
        f"output sha256 {sorted(set(digests.values()))}\n"
    )
    for failure in failures:
        sys.stderr.write(f"FAILED: {failure}\n")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
