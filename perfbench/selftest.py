"""Self-test of the benchmark: count fingerprints and layer sensitivity.

    python3 perfbench/selftest.py [--seed 1] [--seconds 4]

For every workload it makes three same-seed runs: a baseline, one with a
fixed delay added to every ``get_neighbors_batch`` call (the storage layer)
and one with a delay added to every ``Tensor.backward`` call (the nn layer).
A delay only sleeps, so it changes no count: all three fingerprints must be
identical. The storage delay must worsen ``latency_ms.p50`` beyond its bound
on ``sample-store`` and ``serve-online`` and leave ``train-minibatch`` within
it; the nn delay must do the opposite. Exits 1 when any expectation fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
#: Layer -> (injected delay, workloads whose latency it must move).
INJECTIONS = {
    "storage": ("storage:10", {"sample-store", "serve-online"}),
    "nn": ("nn:40", {"train-minibatch"}),
}
METRIC = "latency_ms.p50"


def run(workload: str, seed: int, seconds: float, inject: "str | None") -> "tuple[str, float]":
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    if inject:
        cmd += ["--inject", inject]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=HERE.parent)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} failed:\n{out.stdout}\n{out.stderr}")
    result = json.loads(lines[-1])
    fingerprint = next(ln for ln in lines if ln.startswith("fingerprint: "))
    return fingerprint, result["metrics"][METRIC]["value"]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=4.0)
    args = p.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == METRIC)
    failures = []
    for workload in ("sample-store", "train-minibatch", "serve-online"):
        base_fp, base = run(workload, args.seed, args.seconds, None)
        fingerprints = {base_fp}
        print(f"{workload}: baseline {METRIC} {base:.4f} ms", flush=True)
        for layer, (inject, moves) in INJECTIONS.items():
            fp, value = run(workload, args.seed, args.seconds, inject)
            change = value / base - 1
            expect_move = workload in moves
            ok = change > bound if expect_move else change <= bound
            verdict = "ok" if ok else "FAIL"
            print(f"  +{layer} delay: {value:.4f} ms ({change:+.1%}, bound {bound:.0%}, "
                  f"{'must move' if expect_move else 'must stay'}) {verdict}", flush=True)
            if not ok:
                failures.append(f"{workload} with {layer} delay moved {change:+.1%}")
            fingerprints.add(fp)
        same = len(fingerprints) == 1
        print(f"  fingerprint {'identical' if same else 'DIFFERS'} across the three "
              "same-seed runs", flush=True)
        if not same:
            failures.append(f"{workload} fingerprints differ between same-seed runs")
    for failure in failures:
        print(f"FAIL: {failure}")
    print("selftest: " + ("ok" if not failures else f"{len(failures)} failures"))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
