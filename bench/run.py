"""mfhxa benchmark: end-to-end and per-layer metrics for three workloads.

Run from a checkout of the repository (no install needed; mfhxa is imported
from the checkout's src/):

    python3 bench/run.py --workload montecarlo --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0
    python3 bench/selftest.py

Each workload runs in its own process as a closed loop: one client, the next
item starts when the previous one has finished, no extra threads; BLAS and
OpenMP are pinned to one thread. Items run in batches of whole workload
cycles, each item writing into its own new directory. Between batches a
seeded sample of items is checked against the slow reference (reference.py)
and the batch's files are deleted.

Only the items themselves are timed. Before each item, untimed, a full
garbage collection runs, so every item starts from a collected heap as a
fresh CLI process would, and no item pays for cyclic garbage that earlier
items left behind. Without it the market items' times were bimodal (a full
collection landed in about half of them) and their median jumped between
the two modes from run to run. Collections that an item's own allocations
trigger are timed; the untimed collection time is in `details`.

--trace 0 reports the end-to-end metrics:
  setup_s       median time for a fresh interpreter to import mfhxa.cli
  items_per_s   items that completed and passed their checks per second of
                timed wall time
  item_p50_ms   median item time
  item_tail_ms  highest whole percentile of item time with at least 10 items
                beyond it (the percentile and item count are in `details`)
  peak_rss_mb   peak resident memory of the workload process
  ok_ratio      1 - failed_ratio: items that did not raise and passed their
                checks, over items attempted (failed_ratio is 0 when all is
                well, and reported metrics must be non-zero)

--trace 1 runs the same items twice, untraced and then traced (tracer.py),
and reports per-layer metrics from the traced pass: busy (self) seconds and
work counts per item, kernel increment reuse, per-call medians, and the
tracing overhead. The spans are written to .bench_run/.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import os

PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED_THREADS)

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter_ns  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"
WORKLOAD_NAMES = ("montecarlo", "replicate", "market")
SETUP_REPEATS = 5
WARMUP_ITEMS = 1
HARD_LIMIT_S = 140  # stop starting batches after this, so a run ends within 180 s
TAIL_BEYOND = 10
IMPORT_PROBE = ("import time; t = time.perf_counter(); import mfhxa.cli; "
                "print(repr(time.perf_counter() - t))")


def _child_env() -> dict:
    env = dict(os.environ, **PINNED_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def measure_setup() -> float:
    """Median import time of mfhxa.cli in fresh interpreters, after one warm-up."""
    times = []
    for _ in range(SETUP_REPEATS + 1):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=_child_env(),
                              cwd=ROOT, capture_output=True, text=True, timeout=60,
                              check=True)
        times.append(float(done.stdout.strip()))
    return statistics.median(times[1:])


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    git_sha = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if done.returncode == 0:
            git_sha = done.stdout.strip()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_pinning": {k: os.environ.get(k) for k in PINNED_THREADS},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "platform": platform.platform(),
    }


@dataclass
class PassResult:
    durations_ns: list[int] = field(default_factory=list)
    gc_ns: int = 0
    failures: dict[int, str] = field(default_factory=dict)
    checked: int = 0

    @property
    def items(self) -> int:
        return len(self.durations_ns)

    @property
    def wall_ns(self) -> int:
        """Timed wall time: the sum of the item times."""
        return sum(self.durations_ns)


class Runner:
    """Runs a workload's items in whole cycles and checks a seeded sample."""

    def __init__(self, workload, seed: int, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.started = perf_counter_ns()

    def sampled(self, i: int) -> bool:
        return random.Random(f"{self.seed}:{i}:check").random() < self.workload.check_rate

    def _check(self, result: PassResult, i: int, outdir: Path, outputs) -> None:
        result.checked += 1
        try:
            problems = self.workload.check(i, outdir, outputs)
        except Exception:
            problems = ["check raised:\n" + traceback.format_exc()]
        if problems:
            result.failures[i] = "; ".join(problems)

    def run_batch(self, result: PassResult, tag: str, first: int, count: int,
                  check_all: bool = False) -> None:
        batch = self.workdir / f"{tag}-{first:07d}"
        dirs = [batch / f"item-{i:07d}" for i in range(first, first + count)]
        for d in dirs:
            d.mkdir(parents=True)
        kept = {}
        for i, outdir in zip(range(first, first + count), dirs):
            t_gc = perf_counter_ns()
            gc.collect()
            t0 = perf_counter_ns()
            try:
                outputs = self.workload.item(i, outdir)
                error = None
            except Exception:
                error = traceback.format_exc()
            result.durations_ns.append(perf_counter_ns() - t0)
            result.gc_ns += t0 - t_gc
            if error is not None:
                result.failures[i] = "item raised:\n" + error
            elif check_all or self.sampled(i):
                kept[i] = (outdir, outputs)
        for i, (outdir, outputs) in kept.items():
            self._check(result, i, outdir, outputs)
        shutil.rmtree(batch)

    def run_pass(self, tag: str, first: int, seconds: float | None = None,
                 items: int | None = None) -> PassResult:
        """Whole cycles until `items` items, or until the cycle boundary nearest `seconds`."""
        result = PassResult()
        cycle = self.workload.cycle
        i = first
        while True:
            self.run_batch(result, tag, i, cycle)
            i += cycle
            if items is not None:
                if result.items >= items:
                    break
            elif result.wall_ns + result.wall_ns / (result.items / cycle) / 2 >= seconds * 1e9:
                break
            if perf_counter_ns() - self.started > HARD_LIMIT_S * 1e9:
                print(f"run.py: stopped at the {HARD_LIMIT_S} s limit", file=sys.stderr)
                break
        return result


def tail_percentile(durations_ns: list[int]) -> tuple[int, float]:
    """(p, value) of the highest whole percentile with TAIL_BEYOND items beyond it.

    Runs too short to have one at or above the median report the median.
    """
    import numpy as np

    xs = np.asarray(durations_ns, dtype=float)
    for p in range(99, 50, -1):
        value = float(np.percentile(xs, p))
        if np.count_nonzero(xs > value) >= TAIL_BEYOND:
            return p, value
    return 50, float(np.median(xs))


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_workload(args) -> int:
    from workloads import WORKLOADS

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        setup_s = None if args.trace else measure_setup()
        workload = WORKLOADS[args.workload](args.seed, workdir)
        runner = Runner(workload, args.seed, workdir)
        warmup = PassResult()
        runner.run_batch(warmup, "warmup", 0, WARMUP_ITEMS, check_all=True)
        if args.trace:
            passes, layer_metrics, trace_summary = run_traced(runner, args)
        else:
            passes = [runner.run_pass("timed", WARMUP_ITEMS, seconds=args.seconds)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p.items for p in [warmup, *passes])
    failed = sum(len(p.failures) for p in [warmup, *passes])
    for p in [warmup, *passes]:
        for i, why in p.failures.items():
            print(f"run.py: {args.workload} item {i} failed: {why}", file=sys.stderr)
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "client": "closed loop, 1 client, 1 thread",
        "items_timed": [p.items for p in passes],
        "wall_s": [p.wall_ns / 1e9 for p in passes],
        "untimed_gc_s": [p.gc_ns / 1e9 for p in passes],
        "checked": sum(p.checked for p in [warmup, *passes]),
        "failed_ratio": failed / attempted,
        "environment": environment(),
    }
    if args.trace:
        metrics = layer_metrics
        details["trace_summary"] = trace_summary
    else:
        timed = passes[0]
        percentile, tail_ns = tail_percentile(timed.durations_ns)
        details["item_tail_percentile"] = percentile
        metrics = {
            "setup_s": metric(setup_s, "s"),
            "items_per_s": metric((timed.items - len(timed.failures)) / (timed.wall_ns / 1e9),
                                  "1/s"),
            "item_p50_ms": metric(statistics.median(timed.durations_ns) / 1e6, "ms"),
            "item_tail_ms": metric(tail_ns / 1e6, "ms"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                                  "MB"),
            "ok_ratio": metric(1.0 - failed / attempted, "ratio"),
        }
    for name, m in metrics.items():
        print(f"{args.workload:<11} {name:<34} {m['value']:>14.6g} {m['unit']}")
    print("details " + json.dumps(details, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_traced(runner: Runner, args):
    """An untraced pass, then the same items traced; per-layer metrics of the latter."""
    from tracer import Tracer

    untraced = runner.run_pass("untraced", WARMUP_ITEMS, seconds=args.seconds / 2)
    tracer = Tracer()
    tracer.install()
    try:
        traced = runner.run_pass("traced", WARMUP_ITEMS, items=untraced.items)
    finally:
        tracer.uninstall()
    metrics, summary = tracer.metrics(traced.items, traced.wall_ns, untraced.wall_ns)
    spans = WORK / f"trace-{args.workload}-seed{args.seed}-{os.getpid()}.jsonl"
    tracer.write(spans)
    summary["spans_file"] = str(spans.relative_to(ROOT))
    return [untraced, traced], metrics, summary


def run_all(args) -> int:
    """Every workload, each in its own process; prints each one's metrics."""
    results = {}
    for name in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=300)
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        if done.returncode != 0 or not lines:
            print(f"run.py: workload {name} exited with {done.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "mfhxa" / "__init__.py").is_file():
        print(f"run.py: mfhxa sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    import mfhxa

    if Path(mfhxa.__file__).resolve().parent != SRC / "mfhxa":
        print(f"run.py: imported mfhxa from {mfhxa.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
