"""Wall-clock benchmark of the repro platform, one workload per invocation.

    python3 perfbench/run.py --workload sample-store --seed 1 --seconds 25 --trace 0

Runs from the root of a source checkout (it imports ``src/repro``), prints
every metric by name with its unit, a machine record and a count
fingerprint, checks the program's outputs and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs an untraced half and a traced half
and reports the per-layer metrics. Exits 1 when an output check fails and
2 when there are no program sources to run. See ``perfbench/README.md``.
"""

from __future__ import annotations

import os

# One process, one caller: BLAS gets no helper threads (set before numpy loads).
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import compileall  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("sample-store", "train-minibatch", "serve-online")
#: Dataset every workload runs on: 26,000 vertices, 202,541 edges.
DATASET, SCALE = "taobao-small-sim", 5.0
#: Fresh processes timed for setup_s in an untraced run; it reports their median.
PROBES = 5
PROBE_TIMEOUT_S = 120


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="timed seconds per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--inject", metavar="LAYER:MS",
        help="self-test only: spin for MS milliseconds of CPU time in every call of LAYER's "
        "entry point (storage: get_neighbors_batch, nn: Tensor.backward)",
    )
    p.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def machine() -> dict:
    import numpy as np

    from report import Calibration

    calibration = Calibration()
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "calibration_ms": round(statistics.median(calibration.ms() for _ in range(25)), 4),
    }


def synthesise(seed: int):
    from repro.data import make_dataset

    return make_dataset(DATASET, scale=SCALE, seed=seed)


def probe(args: argparse.Namespace) -> int:
    """Child process: build the workload, finish one operation and print
    its set-up time: the process's CPU time since it started, less
    synthesis and speed measurements, scaled by the geometric mean of the
    speed factors measured before synthesis, after it and at the end."""
    from report import Calibration
    from spans import clock
    from workloads import WORKLOADS, ProbeDone, Run

    t = clock()
    calibration = Calibration()
    speed = lambda: statistics.median(calibration.speed() for _ in range(3))  # noqa: E731
    speeds = [speed()]
    graph = synthesise(args.seed)
    speeds.append(speed())
    untimed_s = clock() - t
    workload = WORKLOADS[args.workload](graph, args.seed)
    try:
        workload.measure(Run(1, [], probe=True))
    except ProbeDone:
        setup_s = clock() - untimed_s
        speeds.append(speed())
        print(json.dumps({"setup_s": setup_s * statistics.geometric_mean(speeds)}), flush=True)
        return 0
    raise RuntimeError("set-up probe ended without finishing an operation")


def setup_seconds(args: argparse.Namespace) -> float:
    """Set-up time of one fresh process (see :func:`probe`)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--probe"]
    child = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=PROBE_TIMEOUT_S)
    if child.returncode != 0 or not child.stdout:
        raise RuntimeError(f"set-up probe failed with exit code {child.returncode}")
    return json.loads(child.stdout)["setup_s"]


def emit(line: str) -> None:
    print(line, flush=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: program sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.probe:
        return probe(args)

    compileall.compile_dir(str(SRC), quiet=1)
    setups = [setup_seconds(args) for _ in range(PROBES)] if not args.trace else []

    from report import SPECS, Calibration, end_to_end, per_layer, percentile_ms
    from spans import INJECT_POINTS, Patches, Span, inject_delay
    from workloads import WORKLOADS, Phase, Run

    patches = Patches()
    if args.inject:
        layer, _, ms = args.inject.partition(":")
        if layer not in INJECT_POINTS:
            print(f"error: --inject layer must be one of {sorted(INJECT_POINTS)}", file=sys.stderr)
            return 2
        inject_delay(patches, layer, float(ms) / 1e3)
    emit(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    emit("machine: " + json.dumps(machine(), sort_keys=True))
    graph = synthesise(args.seed)
    half = args.seconds / 2
    phases = [Phase(half, False), Phase(half, True)] if args.trace else [Phase(args.seconds, False)]
    workload = WORKLOADS[args.workload](graph, args.seed)
    spec = SPECS[args.workload]
    run = Run(workload.prefix_ops, phases, Calibration())
    try:
        workload.measure(run)
    finally:
        run.close()
        patches.restore()

    problems = list(workload.problems)
    if run.fingerprint is None:
        problems.append("the run ended before its fingerprint window")
    else:
        blob = json.dumps(run.fingerprint, sort_keys=True)
        emit(f"fingerprint: {hashlib.sha256(blob.encode()).hexdigest()[:16]} {blob}")
    untraced = phases[0].meter
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if args.trace:
        traced = phases[1]
        mean = lambda m: statistics.fmean(m.scaled(spec.op))  # noqa: E731
        overhead = mean(traced.meter) / mean(untraced) - 1
        updates = untraced.scaled("update")
        metrics = per_layer(
            spec, traced.spans, traced.meter.factor, getattr(workload, "counts", {}), overhead,
            percentile_ms(updates, 50) if updates else 0.0,
        )
        OUT.mkdir(exist_ok=True)
        path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        spans = [s.as_list() for s in traced.spans]
        path.write_text(json.dumps({"fields": list(Span.FIELDS), "spans": spans}))
        emit(f"spans: {len(traced.spans)} written to {path.relative_to(HERE.parent)}")
        for name, (value, unit) in metrics.items():
            emit(f"layer {name} {value:.6g} {unit}")
    else:
        metrics, named = end_to_end(spec, untraced, statistics.median(setups), rss_mb)
        for name, value, unit, note in named:
            emit(f"metric {name} {value:.6g} {unit} {note}".rstrip())
        emit("setup_s samples: " + " ".join(f"{s:.4f}" for s in setups))
        speeds = untraced.speeds
        emit(f"speed factor: median {statistics.median(speeds):.4f}, range "
             f"{min(speeds):.4f}-{max(speeds):.4f} over {len(speeds)} timings "
             "(reported times are measured times multiplied by it)")
    for problem in problems[:20]:
        emit(f"check failed: {problem}")
    emit(f"check: {'ok' if not problems else f'{len(problems)} problems'}")
    emit(json.dumps({
        "correct": not problems,
        "attempted": sum(p.meter.attempted for p in phases),
        "failed": sum(p.meter.failed for p in phases),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
