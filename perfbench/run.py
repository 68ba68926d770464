"""twodiag benchmark.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 24 --trace 0

Runs whole rounds of one workload's operations, one after another, until
the operations have taken --seconds, checks every output, and prints one
JSON object as the last line of standard output: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1.  Failed operations
are reported on standard error, one JSON object each.  See README.md.
"""

from __future__ import annotations

import os

# BLAS stays on one thread; the benchmark itself runs one.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_PROBES = 9


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("verify", "closed-forms", "solve"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="import and generate the first round's inputs, then exit")
    return p.parse_args(argv)


def prepare(workload: str, seed: int, trace: bool):
    """Everything before the first operation: imports, hooks, first inputs."""
    sys.path.insert(0, SRC)
    sys.path.insert(0, ROOT)
    import twodiag

    if os.path.dirname(os.path.abspath(twodiag.__file__)) != os.path.join(SRC, "twodiag"):
        raise ImportError(f"twodiag imported from {twodiag.__file__}, not from {SRC}")
    from perfbench import layers, pace, workloads

    rng = random.Random(f"{seed}:{workload}")
    tap = layers.ResidueTap()
    caches = layers.CacheControl()
    tracer = layers.Tracer(trace)
    first = workloads.plan_round(workload, rng, 0)
    return workloads, pace, rng, tap, caches, tracer, first


def measure_setup(args, pace) -> float:
    """Median time of fresh processes that set up and stop, corrected by
    reference times taken between them."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    times, refs = [], [pace.reference()]
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
        refs.append(pace.reference())
    return statistics.median(times) * pace.factor(refs)


def percentile(values, q: int) -> float:
    """q-th percentile (1..99) by statistics.quantiles' exclusive method."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def summary(statistic, values):
    """statistic(values), or None (JSON null) when no operation gave a value."""
    return statistic(values) if values else None


def resident_mib() -> float:
    """Current resident memory of this process."""
    try:
        with open("/proc/self/statm") as fh:
            pages = int(fh.read().split()[1])
    except OSError:
        return 0.0
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def load_checker(checks) -> float:
    """Map the LAPACK and BLAS references of the checks before the measured
    phase, so every workload carries them alike; returns the memory they
    added, in MiB."""
    before = resident_mib()
    checks.load_references()
    return resident_mib() - before


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        workloads, pace, rng, tap, caches, tracer, plan = prepare(args.workload, args.seed,
                                                                  bool(args.trace))
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    if args.setup_only:
        return 0
    setup_s = None if args.trace else measure_setup(args, pace)
    checker_mib = load_checker(workloads.checks)

    op_ms, round_s, failures = [], [], []
    errors = {"eig": [], "vec": []}
    correct = True
    attempted = 0
    measured = 0.0
    round_index = 0
    raw_round_s, round_factor = [], []
    phase_start = time.perf_counter()
    while True:
        raw_ms, refs = [], []
        for index, op in enumerate(plan):
            attempted += 1
            caches.clear()
            tap.take()
            tracer.op_id = attempted
            try:
                t0 = time.perf_counter()
                out = workloads.run_op(op, tracer)
                dt = time.perf_counter() - t0
            except Exception as exc:  # an operation that raises fails; its time is not kept
                correct = False
                refs.append(pace.reference())
                failures.append(_failure(args, round_index, index, op, repr(exc),
                                         traceback.format_exc(limit=3)))
                continue
            refs.append(pace.reference())
            caches.harvest()
            out["tapped"] = tap.take()
            tracer.count("doubles.residues", len(out["tapped"]))
            raw_ms.append(dt * 1e3)
            try:
                problems, errs = workloads.check_op(op, out)
            except Exception as exc:  # output the checks cannot even read
                problems, errs = [f"check raised {exc!r}"], {}
            if problems:
                correct = False
                failures.append(_failure(args, round_index, index, op, "; ".join(problems)))
            for key, value in errs.items():
                errors[key].append(value)
        scale = pace.factor(refs)
        round_factor.append(scale)
        raw_round_s.append(sum(raw_ms) / 1e3)
        round_s.append(raw_round_s[-1] * scale)
        op_ms += [t * scale for t in raw_ms]
        measured += raw_round_s[-1]
        round_index += 1
        # The wall-clock cap ends runs whose operations fail too fast to add
        # up to --seconds.
        if measured >= args.seconds or time.perf_counter() - phase_start > 3 * args.seconds:
            break
        plan = workloads.plan_round(args.workload, rng, round_index)

    tap.restore()
    tracer.restore()
    for f in failures:
        print(json.dumps(f), file=sys.stderr)
    print(json.dumps({"round_s": round_s, "raw_round_s": raw_round_s,
                      "factor": round_factor}), file=sys.stderr)
    if args.trace:
        out_dir = os.path.join(HERE, "traces")
        os.makedirs(out_dir, exist_ok=True)
        tracer.write_spans(os.path.join(out_dir, f"{args.workload}-seed{args.seed}.jsonl"))
        metrics = layer_metrics(tracer, caches, round_s, raw_round_s, op_ms, round_factor)
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (statistics.median(round_s), "s"),
            "op_p50_ms": (summary(statistics.median, op_ms), "ms"),
            "op_p90_ms": (summary(lambda v: percentile(v, 90), op_ms), "ms"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
                             - checker_mib, "MiB"),
            "eig_err_eps": (summary(statistics.fmean, errors["eig"]), "eps"),
            "vec_resid_eps": (summary(statistics.fmean, errors["vec"]), "eps"),
        }
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def _failure(args, round_index, index, op, problem, tb=None) -> dict:
    rec = {"workload": args.workload, "seed": args.seed, "round": round_index,
           "op": index, **op.describe(), "problem": problem}
    if tb:
        rec["traceback"] = tb
    return rec


def layer_metrics(tracer, caches, round_s, raw_round_s, op_ms, factors) -> dict:
    """Per-layer figures, as totals per round (maxima and ratios as such);
    times carry the run's median speed correction, which is reported too,
    beside the uncorrected round time."""
    rounds = len(round_s)
    scale = statistics.median(factors)
    sec = lambda name: tracer.seconds.get(name, 0.0) * scale / rounds
    cnt = lambda name: tracer.counts.get(name, 0) / rounds
    lookups = caches.hits + caches.misses
    eigs = tracer.counts.get("eigsolve.eigenvalues", 0)
    return {
        "exact.series_calls": (cnt("exact.series"), "count"),
        "exact.series_s": (sec("exact.series"), "s"),
        "exact.value_bits_max": (tracer.maxima.get("exact.value_bits_max", 0), "bits"),
        "families.eval_calls": (cnt("families.eval"), "count"),
        "families.eval_s": (sec("families.eval"), "s"),
        "families.weight_norm_s": (sec("families.weight_norm"), "s"),
        "families.cache_hit_ratio": (caches.hits / lookups if lookups else 0.0, "ratio"),
        "families.cache_lookups": (lookups / rounds, "count"),
        "doubles.pair_grid_s": (sec("doubles.pair_grid"), "s"),
        "doubles.requirements_grid_s": (sec("doubles.requirements_grid"), "s"),
        "doubles.residues": (cnt("doubles.residues"), "count"),
        "transforms.s": (sec("transforms"), "s"),
        "transforms.residues": (cnt("transforms.residues"), "count"),
        "orthosystems.s": (sec("orthosystems"), "s"),
        "oscillator.s": (sec("oscillator"), "s"),
        "matrices.build_s": (sec("matrices.build"), "s"),
        "matrices.charpoly_s": (sec("matrices.charpoly"), "s"),
        "matrices.charpoly_bits_max": (tracer.maxima.get("matrices.charpoly_bits_max", 0), "bits"),
        "matrices.eigvec_s": (sec("matrices.eigvec"), "s"),
        "matrices.u_residual_s": (sec("matrices.u_residual"), "s"),
        "matio.export_s": (sec("matio.export"), "s"),
        "matio.bytes": (cnt("matio.bytes"), "bytes"),
        "eigsolve.convert_s": (sec("eigsolve.convert"), "s"),
        "eigsolve.values_s": (sec("eigsolve.values"), "s"),
        "eigsolve.vectors_s": (sec("eigsolve.vectors"), "s"),
        "eigsolve.sweeps": (cnt("eigsolve.sweeps"), "count"),
        "eigsolve.sweeps_per_eig": (tracer.counts.get("eigsolve.sweeps", 0) / eigs if eigs else 0.0,
                                    "ratio"),
        "trace.wall_s": (statistics.median(round_s), "s"),
        "trace.raw_wall_s": (statistics.median(raw_round_s), "s"),
        "trace.op_p50_ms": (summary(statistics.median, op_ms), "ms"),
        "pace.factor": (scale, "ratio"),
    }


if __name__ == "__main__":
    sys.exit(main())
