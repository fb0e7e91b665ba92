"""intervalwalk benchmark: one workload, one seed, one result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload census-grid --seed 0 --seconds 20 --trace 0

Workloads: census-grid, multistart-wide, sweep-orders, oracle-exact (see
perfbench/README.md for why each exists and which layers it stresses).

With `--trace 0` the run measures the end-to-end metrics with tracing off.
With `--trace 1` it alternates untraced and traced passes, replays a sample
of descents through the public layer functions, and reports the per-layer
metrics plus the tracing overhead.  Either way every op's output is checked.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it holds
the environment and, per metric, the repeat count, median and quartiles.

The package is imported from `src/` of the checkout and used as a library.
BLAS runs with one thread.  End-to-end times are scaled to a reference
machine speed by a calibration kernel timed before every op (see
`workloads.Calibrator`).  The exit code is 0 when every op passed its
checks, 1 when any failed, and 2 when the checkout has no package source.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORK_ROOT = ROOT / ".perfbench_work"

#: Seed whose outputs `reference.json` records; runs on it are compared
#: against the reference values as well as the invariants.
DEFAULT_SEED = 0
#: Second seed that later claims must also hold on; it gets invariant checks
#: only.
HELD_OUT_SEED = 9176

#: Environment variables that pin BLAS and OpenMP pools to one thread; set
#: before numpy is imported.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "wall_s": "s",
    "starts_per_s": "1/s",
    "schedules_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {
    "trace.overhead": "ratio",
    **{f"{layer}.self_s": "s" for layer in (
        "generate", "instancefile", "graph", "chain", "optimize",
        "oracle", "experiments", "cli", "rng",
    )},
    "optimize.sample_s": "s",
    "rng.substream_s": "s",
    "rng.substream_calls": "count",
    "optimize.improve_at_s": "s",
    "optimize.descent_lr_s": "s",
    "optimize.descent_rl_s": "s",
    "optimize.multistart_s": "s",
    "graph.selection_of_s": "s",
    "chain.transition_matrix_s": "s",
    "chain.expectation_s": "s",
    "optimize.sweeps_per_descent": "count",
    "optimize.candidate_evals": "count",
    "optimize.improvements": "count",
    "optimize.accept_ratio": "ratio",
    "optimize.distinct_extrema": "count",
    "optimize.distinct_ratio": "ratio",
    "optimize.best_hit_share": "ratio",
    "graph.validate_s": "s",
    "instancefile.load_s": "s",
    "instancefile.save_s": "s",
    "cli.bounds_s": "s",
    "cli.overhead_s": "s",
    "generate.instance_s": "s",
    "generate.calls": "count",
    "experiments.run_s": "s",
    "experiments.pool_speedup": "ratio",
    "oracle.exact_s": "s",
    "oracle.schedules_per_s_deep": "1/s",
    "oracle.schedules_per_s_wide": "1/s",
    "oracle.argopt_count": "count",
    "oracle.enumerate_extremal_s": "s",
}

#: per-call median metrics read straight from the durations of the spans of
#: the traced passes
SPAN_MEDIANS = {
    "optimize.sample_s": "optimize.random_extremal_schedule",
    "rng.substream_s": "rng.substream",
    "optimize.improve_at_s": "optimize.improve_at",
    "optimize.descent_lr_s": "optimize.descent_lr",
    "optimize.descent_rl_s": "optimize.descent_rl",
    "optimize.multistart_s": "optimize.multistart",
    "graph.selection_of_s": "graph.selection_of",
    "chain.transition_matrix_s": "chain.transition_matrix",
    "chain.expectation_s": "chain.expectation",
    "graph.validate_s": "graph.validate",
    "instancefile.load_s": "instancefile.load_instance",
    "instancefile.save_s": "instancefile.save_instance",
    "cli.bounds_s": "cli.main",
    "generate.instance_s": "generate.generate_instance",
    "oracle.exact_s": "oracle.exact_bounds",
    "oracle.enumerate_extremal_s": "oracle.enumerate_extremal",
}

#: metrics that fall back to the replays and probes after the passes when no
#: pass makes the call.  improve_at and expectation are public functions
#: that no pass calls (the descent has its own candidate evaluation and
#: fold); descent_lr on the multistart workloads is a one-start multistart.
REPLAY_MEDIANS = frozenset({
    "optimize.improve_at_s",
    "chain.expectation_s",
    "optimize.descent_lr_s",
    "instancefile.save_s",
    "oracle.enumerate_extremal_s",
})


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("default", "tiny"), default="default",
                        help="input size; 'tiny' is for the self-check")
    parser.add_argument("--reference", type=Path, default=BENCH_DIR / "reference.json",
                        help="reference values for the default seed")
    parser.add_argument("--record-reference", action="store_true",
                        help="write this workload's default-seed outputs into --reference")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def quartiles(values):
    values = sorted(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def percentile(values, pct: int) -> float:
    values = sorted(values)
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def git_sha() -> str | None:
    """HEAD of the checkout's own `.git`, read without running git (which
    would look above the checkout); None when the checkout is no repository."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text(encoding="utf-8").strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment() -> dict:
    import numpy

    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "intervalwalk").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": git_sha(),
        "src_sha256": src.hexdigest()[:16],
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


def child_setup_seconds(args) -> float:
    """Setup time measured in a fresh interpreter, so imports are cold."""
    cmd = [sys.executable, str(Path(__file__)), "--workload", args.workload, "--seed",
           str(args.seed), "--size", args.size, "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"setup child failed: {proc.stderr.strip()[-500:]}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def setup_scale() -> float:
    """Speed scale for a setup just finished: median of five calibrations."""
    from workloads import Calibrator

    calibrator = Calibrator(400)
    return statistics.median(calibrator.scale(t, t) for t in (calibrator() for _ in range(5)))


def timed_passes(workload, seconds: float):
    """Run passes while another pass, as long as the last one, still ends
    within `seconds`, and until the run holds the workload's minimum passes
    and ops.  Returns the pass walls and the ops per pass."""
    walls, passes = [], []
    deadline = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        wall, ops = workload.run_pass()
        walls.append(wall)
        passes.append(ops)
        now = time.perf_counter()
        enough = len(walls) >= workload.min_passes and sum(map(len, passes)) >= workload.min_ops
        if enough and now + (now - t0) > deadline:
            return walls, passes


def pass_scale(ops) -> float:
    """Speed scale of a pass: its ops' scales, weighted by op time."""
    total = sum(op.seconds for op in ops)
    return sum(op.seconds * op.scale for op in ops) / total if total else 1.0


def check_passes(workload, passes, reference) -> dict[str, str]:
    """Failures keyed by 'pass/op'.  Every pass must repeat the first pass's
    outputs; the first pass is also checked against the reference."""
    failures = {}
    first = {op.key: op for op in passes[0]}
    for p, ops in enumerate(passes):
        for op in ops:
            if op.error:
                failures[f"{p}/{op.key}"] = op.error
        for key, reason in workload.check(ops).items():
            failures[f"{p}/{key}"] = reason
        if p:
            for op in ops:
                head = first.get(op.key)
                if op.error or head is None or head.error:
                    continue
                if workload.reference_entry(op) != workload.reference_entry(head):
                    failures[f"{p}/{op.key}"] = "output differs from the first pass"
    if reference is not None:
        for key, reason in compare_reference(workload, passes[0], reference).items():
            failures[f"0/{key}"] = reason
    return failures


def compare_reference(workload, ops, reference: dict) -> dict[str, str]:
    from workloads import close_rel

    failures = {}
    seen = {op.key: workload.reference_entry(op) for op in ops if not op.error and op.data}
    for key in reference.keys() - seen.keys():
        failures[key] = "op missing from the run"
    for key, got in seen.items():
        want = reference.get(key)
        if want is None:
            failures[key] = "op missing from the reference"
            continue
        mismatch = _first_mismatch(got, want, close_rel)
        if mismatch:
            failures[key] = f"reference mismatch at {mismatch}"
    return failures


def _first_mismatch(got, want, close_rel, path=""):
    if isinstance(want, dict):
        if not isinstance(got, dict) or got.keys() != want.keys():
            return path or "/"
        for k in want:
            found = _first_mismatch(got[k], want[k], close_rel, f"{path}/{k}")
            if found:
                return found
        return None
    if isinstance(want, float) and not isinstance(got, bool) and isinstance(got, (int, float)):
        return None if close_rel(float(got), want) else f"{path}: {got!r} != {want!r}"
    return None if got == want else f"{path}: {got!r} != {want!r}"


def end_to_end(workload, walls, passes, setups) -> dict:
    """Metric -> list of samples at the reference machine speed, from the
    passes in which no op failed; the reported value is the median."""
    clean = [(w, ops) for w, ops in zip(walls, passes) if not any(op.error for op in ops)]
    walls = [w * pass_scale(ops) for w, ops in clean]
    op_times = [op.seconds * op.scale for _, ops in clean for op in ops]
    tail = [percentile(op_times, workload.tail_pct)] if op_times else []
    return {
        "wall_s": walls,
        "starts_per_s": [workload.starts_per_pass() / w for w in walls],
        "schedules_per_s": [workload.schedules_per_pass() / w for w in walls],
        "op_p50_s": op_times,
        "op_tail_s": tail,
        "peak_rss_mb": [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0],
        "setup_s": setups,
    }


def traced_run(workload, seconds: float):
    """Alternate untraced and traced passes, then replay sampled descents and
    run the extra probes under the tracer.  Returns (per-layer samples, all
    passes, failures found on the way, checks made outside the passes, raw
    figures for the detail line)."""
    from tracer import Tracer
    from workloads import Calibrator

    # Passes are scaled to the reference speed by calibrations on both sides
    # (outside the tracer, so they add no spans); only the measured overhead
    # uses the scaled walls.
    calibrator = Calibrator(400)
    tracer = Tracer()
    untraced, traced, passes, summaries, cli_pairs, span_counts = [], [], [], [], [], []
    untraced_raw = []
    results = []
    deadline = time.perf_counter() + seconds
    cal = calibrator()
    while True:
        t0 = time.perf_counter()
        wall, ops = workload.run_pass()
        after = calibrator()
        untraced_raw.append(wall)
        untraced.append(wall * calibrator.scale(cal, after))
        passes.append(ops)
        tracer.clear()
        with tracer:
            wall, ops = workload.run_pass()
        cal = calibrator()
        traced.append(wall * calibrator.scale(after, cal))
        passes.append(ops)
        summaries.append(tracer.summary())
        span_counts.append(len(tracer.spans))
        cli_pairs.append(tracer.children_of("cli.main", "optimize.multistart"))
        results.extend(tracer.results)
        now = time.perf_counter()
        if now + (now - t0) > deadline:
            break

    # replays and probes, traced, after the passes
    last_results = list(tracer.results)
    tracer.clear()
    failures = {}
    replays, pool = [], None
    try:
        with tracer:
            replays = workload.replays(last_results)
            for k, rep in enumerate(replays):
                reason = replay_failure(rep, tracer)
                if reason:
                    failures[f"replay{k}"] = reason
            workload.traced_extras()
    except Exception as exc:
        failures["replay"] = f"raised {exc!r}"
    probe = tracer.summary()
    results.extend(tracer.results)

    try:
        pool = workload.pool_check()
    except Exception as exc:
        failures["pool"] = f"raised {exc!r}"
    if pool is not None and not pool[0]:
        failures["pool"] = "1-worker and 2-worker outputs differ"

    # --- per-layer samples
    samples: dict[str, list[float]] = {name: [] for name in PER_LAYER}
    # The overhead is the wrapper's cost per call times the spans of a traced
    # pass, over the untraced pass.  A traced pass against an untraced one
    # measures the same, but on passes of seconds the machine's speed noise
    # swamps it; that direct figure is printed beside it.
    samples["trace.overhead"] = [
        statistics.median(span_counts) * Tracer.span_cost() / statistics.median(untraced_raw)
    ]
    measured_overhead = statistics.median(traced) / statistics.median(untraced) - 1.0
    for layer_metric in (m for m in PER_LAYER if m.endswith(".self_s")):
        layer = layer_metric.split(".")[0]
        samples[layer_metric] = [s["self_s"][layer] for s in summaries]
    for metric, span in SPAN_MEDIANS.items():
        durations = [d for s in summaries for d in s["durations"].get(span, [])]
        if not durations and metric in REPLAY_MEDIANS:
            durations = probe["durations"].get(span, [])
        samples[metric] = durations
    samples["rng.substream_calls"] = [len(s["durations"].get("rng.substream", [])) for s in summaries]
    samples["generate.calls"] = [len(s["durations"].get("generate.generate_instance", [])) for s in summaries]
    samples["experiments.run_s"] = [
        d for s in summaries for name in ("experiments.run_extrema_count", "experiments.run_sweep_comparison")
        for d in s["durations"].get(name, [])
    ]
    samples["cli.overhead_s"] = [total - inner for pairs in cli_pairs for total, inner in pairs]

    descents = [out for name, _, _, out in results if name.startswith("optimize.descent_")]
    steps = [args[0].n for name, args, _, _ in results if name.startswith("optimize.descent_")]
    if descents:
        sweeps = [d.sweeps for d in descents]
        evals = [d.sweeps * n for d, n in zip(descents, steps)]
        improvements = [d.improvements for d in descents]
        samples["optimize.sweeps_per_descent"] = [statistics.fmean(sweeps)]
        samples["optimize.candidate_evals"] = [statistics.fmean(evals)]
        samples["optimize.improvements"] = [statistics.fmean(improvements)]
        samples["optimize.accept_ratio"] = [sum(improvements) / sum(evals)]
    census = workload.census(passes[0])
    if census:
        samples["optimize.distinct_extrema"] = [sum(c[1] for c in census)]
        samples["optimize.distinct_ratio"] = [sum(c[1] for c in census) / sum(c[0] for c in census)]
        samples["optimize.best_hit_share"] = [statistics.fmean(c[2] / c[0] for c in census)]
    if pool is not None:
        samples["experiments.pool_speedup"] = [pool[1]]
    if hasattr(workload, "shape_rates"):
        all_ops = [op for ops in passes[0::2] for op in ops]
        rates = workload.shape_rates(all_ops)
        samples["oracle.schedules_per_s_deep"] = [rates["deep"]]
        samples["oracle.schedules_per_s_wide"] = [rates["wide"]]
        samples["oracle.argopt_count"] = [workload.argopt_count(passes[0])]
    return samples, passes, failures, len(replays) + 1, {"trace_overhead_measured": measured_overhead}


def replay_failure(rep, tracer) -> str | None:
    """Replay one descent and its start through the public layer functions;
    the reason it fails its checks, or None.  A one-start multistart runs in
    a span named like the `local_optimize` spans, so that it gives the
    descent time and counts of the multistart workloads."""
    from workloads import close_rel, selection_bits
    from intervalwalk import chain as iw_chain
    from intervalwalk import optimize as iw_optimize
    from intervalwalk import rng as iw_rng

    p = rep.problem
    if rep.start is None:
        rl = rep.order is iw_optimize.SweepOrder.RIGHT_TO_LEFT
        name = f"optimize.descent_{'rl' if rl else 'lr'}"
        with tracer.span(name):
            run = iw_optimize.multistart(p, 1, rep.seed, rep.order).best
        tracer.results.append((name, (p,), {}, run))
        start = iw_optimize.random_extremal_schedule(p.bounds, p.n, iw_rng.substream(rep.seed, 0))
    else:
        run = iw_optimize.local_optimize(p, rep.start, rep.order)
        start = rep.start
    if rep.census is not None and selection_bits(run.selections) not in rep.census:
        return "replayed descent reached a selection outside the census"
    value = iw_chain.expectation(p.bounds, p.q, start, p.f)
    if not close_rel(value, run.start_value):
        return f"start value {run.start_value!r} != expectation {value!r}"
    for step in range(p.n):
        _, improved = iw_optimize.improve_at(p, start, step)
        worse = improved > value if p.sense is iw_optimize.Sense.MIN else improved < value
        if worse and not close_rel(improved, value):
            return f"improve_at at step {step} made the start worse"
    return None


def main(argv=None) -> int:
    args = parse_args(argv)
    t_start = time.perf_counter()
    if not (ROOT / "src" / "intervalwalk" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'intervalwalk'}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    import workloads  # noqa: E402  (imports numpy and the whole package)

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    workdir = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, args.size, workdir)
        workload.setup()
        setup_s = time.perf_counter() - t_start
        setup_s *= setup_scale()
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.record_reference:
            return record_reference(args, workload)
        setups = [setup_s]
        if not args.trace:
            setups += [child_setup_seconds(args) for _ in range(workload.setup_repeats - 1)]
        return measure(args, workload, setups)
    finally:
        workloads.cleanup(workdir)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass


def load_reference(args):
    if args.seed != DEFAULT_SEED or args.size != "default":
        return None
    data = json.loads(args.reference.read_text(encoding="utf-8"))
    return data["workloads"].get(args.workload, {})


def record_reference(args, workload) -> int:
    if args.seed != DEFAULT_SEED or args.size != "default":
        print("error: the reference is recorded on the default seed and size", file=sys.stderr)
        return 2
    _, ops = workload.run_pass()
    failures = {**{op.key: op.error for op in ops if op.error}, **workload.check(ops)}
    if failures:
        print(f"error: outputs fail their checks: {failures}", file=sys.stderr)
        return 1
    path = args.reference
    data = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    data.setdefault("seed", DEFAULT_SEED)
    data.setdefault("workloads", {})[args.workload] = {
        op.key: workload.reference_entry(op) for op in ops
    }
    data["workloads"] = dict(sorted(data["workloads"].items()))
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(ops)} {args.workload} ops in {path}")
    return 0


def measure(args, workload, setups) -> int:
    import workloads

    reference = load_reference(args)
    extra_attempts = 0
    raw = {}
    if args.trace:
        samples, passes, failures, extra_attempts, raw = traced_run(workload, args.seconds)
        units = PER_LAYER
    else:
        workload.calibrator = workloads.Calibrator(workload.calibration_iterations)
        walls, passes = timed_passes(workload, args.seconds)
        samples = end_to_end(workload, walls, passes, setups)
        # unscaled figures, so that a change which moves the speed scale
        # itself stays visible (README.md: "Times are at a reference speed")
        raw = {"wall_s": statistics.median(walls),
               "op_p50_s": statistics.median(op.seconds for ops in passes for op in ops),
               "speed_scale": quartiles([pass_scale(ops) for ops in passes])}
        failures = {}
        units = END_TO_END
    failures.update(check_passes(workload, passes, reference))

    attempted = sum(len(ops) for ops in passes) + extra_attempts
    failed = min(attempted, len(failures))
    metrics, detail = {}, {}
    for name, unit in units.items():
        values = samples.get(name) or [0.0]
        q1, med, q3 = quartiles(values)
        metrics[name] = {"value": med, "unit": unit}
        detail[name] = {"n": len(values), "median": med, "q1": q1, "q3": q3, "unit": unit}
    if not args.trace:
        op_count = len(samples["op_p50_s"])
        detail["op_p50_s"]["ops"] = op_count
        detail["op_tail_s"].update(percentile=workload.tail_pct, ops=op_count)

    for name, d in detail.items():
        print(f"{name:32s} {d['median']:.6g} {d['unit']}  (n={d['n']}, q1={d['q1']:.6g}, q3={d['q3']:.6g})")
    print(f"failed_frac {failed / attempted:.6g} ({failed} of {attempted} ops)")
    for key, reason in sorted(failures.items())[:20]:
        print(f"FAILED {key}: {reason}")
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "reference_checked": reference is not None,
        "failed_frac": failed / attempted,
        "raw": raw,
        "environment": environment(),
        "detail": detail,
    }))
    correct = not failures
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
