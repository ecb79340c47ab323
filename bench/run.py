"""umlr benchmark: one workload per run, in one process with one thread.

Run from the root of a checkout:

    python3 bench/run.py --workload mc_ridge_t_n500 --seed 1 --seconds 10 --trace 0

A run imports umlr from ``src/``, makes its inputs from ``--seed``, does one
untimed warm-up call, then calls the workload in a closed loop with one
caller (the next call starts when the previous one returns) for
``--seconds``. Every call is checked. The last line of standard output is
the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` prints the end-to-end metrics of an untraced run.
``--trace 1`` spends half the time untraced and half with every public umlr
function wrapped in a span, and prints the per-layer metrics. The line
before the result records the environment, the results digest and any
failed check. See README.md for the workloads and the metrics.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

# One BLAS/OpenMP thread, and fixed glibc malloc thresholds. With glibc's
# adaptive defaults, whether the heap top is trimmed after each bootstrap
# refit depends on the seed and on what ran before; the ridge workload then
# takes 2.1M to 2.5M page faults per call, or none, and its throughput
# spread 19 % between runs. With these values large blocks up to 32 MiB
# come from the heap and the heap is never trimmed. glibc reads them when the
# process starts, so the script re-executes itself once to apply them.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "MALLOC_MMAP_THRESHOLD_": str(32 << 20),
    "MALLOC_TRIM_THRESHOLD_": str(256 << 20),
}
if any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
    os.environ.update(PINNED_ENV)
    os.execv(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]])

import numpy as np

from metrics import END_TO_END, PER_LAYER, layer_metrics, top_self_shares
from tracing import Tracer, root_seconds, span_table
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 3  # this process plus two fresh child processes
PROBE_TIMEOUT_S = 120


def since_process_start() -> float:
    """Seconds since the kernel started this process."""
    with open("/proc/self/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    start_ticks = int(fields[19])  # field 22, starttime
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")


def load_umlr():
    """Import umlr from this checkout's ``src/``, never from site-packages."""
    if not (SRC / "umlr" / "__init__.py").is_file():
        sys.exit(f"bench: no umlr source at {SRC / 'umlr'}")
    sys.path.insert(0, str(SRC))
    import umlr
    import umlr.cli  # noqa: F401  (the CLI workload's entry point, and a traced layer)

    if Path(umlr.__file__).resolve().parent != SRC / "umlr":
        sys.exit(f"bench: imported umlr from {umlr.__file__}, not from {SRC}")
    return umlr


@dataclass
class Tally:
    calls: int = 0
    units: int = 0
    ops: int = 0
    failed_ops: int = 0
    failed_units: int = 0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rates: list = field(default_factory=list)  # units per second of each call
    problems: list = field(default_factory=list)

    def add(self, out, reference: str, seconds: float):
        self.calls += 1
        self.rates.append(out.units / seconds)
        self.units += out.units
        self.ops += out.ops
        self.failed_ops += out.failed_ops
        self.failed_units += out.failed_units
        self.problems += out.problems
        if out.digest != reference:
            self.problems.append(f"call {self.calls}: results digest differs from the warm-up's")

    def merge(self, other: "Tally") -> "Tally":
        """Counts and problems of two phases; times and rates are dropped."""
        merged = Tally(problems=self.problems + other.problems)
        for name in ("calls", "units", "ops", "failed_ops", "failed_units"):
            setattr(merged, name, getattr(self, name) + getattr(other, name))
        return merged


def timed_loop(work, umlr, inputs, seconds: float, reference: str, tracer=None) -> Tally:
    """Closed loop with one caller: call until ``seconds`` have passed."""
    tally = Tally()
    start, cpu = time.perf_counter(), time.process_time()
    now = start
    while now - start < seconds:
        if tracer is not None:
            tracer.unit = tracer.unit_base = tally.units
        out = work.run(umlr, inputs)
        before, now = now, time.perf_counter()
        tally.add(out, reference, now - before)
    tally.wall_s = now - start
    tally.cpu_s = time.process_time() - cpu
    return tally


def probe_setup(args) -> float:
    """set-up seconds of a fresh child process running this script."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
           "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, check=True,
                          timeout=PROBE_TIMEOUT_S)
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def untraced_run(work, umlr, inputs, reference, args, own_setup_s):
    setups = [own_setup_s] + [probe_setup(args) for _ in range(SETUP_SAMPLES - 1)]
    tally = timed_loop(work, umlr, inputs, args.seconds, reference)
    metrics = {
        "setup_s": statistics.median(setups),
        "units_per_s": statistics.median(tally.rates),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ratio": 1.0 - tally.failed_ops / tally.ops,
    }
    return metrics, tally, {"setup_samples_s": setups, "call_rates": tally.rates}


def traced_run(work, umlr, inputs, reference, args):
    plain = timed_loop(work, umlr, inputs, args.seconds / 2, reference)
    tracer = Tracer()
    tracer.install()
    try:
        traced = timed_loop(work, umlr, inputs, args.seconds / 2, reference, tracer)
    finally:
        tracer.uninstall()
    table = span_table(tracer.store)
    metrics = layer_metrics(table, tracer.counts, traced.units, traced.wall_s,
                            root_seconds(tracer.store), plain.wall_s / plain.units,
                            plain.cpu_s / plain.units)
    return metrics, plain.merge(traced), {"spans": tracer.store.n,
                                          "top_self_pct": top_self_shares(table, traced.wall_s)}


def environment(seed: int) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_build(),
        "pinned_env": PINNED_ENV,
        "threads": process_threads(),
        "git_sha": git_sha(),
        "seed": seed,
    }


def blas_build() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy without show_config(mode=...)
        return "unknown"
    return " ".join(str(blas.get(k, "")) for k in ("name", "version", "openblas configuration"))


def process_threads() -> int | None:
    """OS threads of this process; 1 shows that the thread pin held."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def git_sha() -> str | None:
    """Commit of the checkout, read from ``.git`` without running git; None
    when the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def parse_args(argv):
    ap = argparse.ArgumentParser(description="umlr benchmark (see README.md)")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    umlr = load_umlr()
    work = WORKLOADS[args.workload]
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        inputs = work.prepare(args.seed, workdir)
        warm = work.run(umlr, inputs)
        own_setup_s = since_process_start()
        if args.setup_only:
            print(json.dumps({"setup_s": own_setup_s}))
            return 0
        if args.trace:
            metrics, tally, extra = traced_run(work, umlr, inputs, warm.digest, args)
            units = PER_LAYER
        else:
            metrics, tally, extra = untraced_run(work, umlr, inputs, warm.digest, args,
                                                 own_setup_s)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = warm.problems + tally.problems
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "digest": warm.digest, "calls": tally.calls,
        "units": tally.units, "problems": problems, "env": environment(args.seed), **extra,
    }))
    print(json.dumps({
        "correct": not problems,
        "attempted": tally.units,
        "failed": tally.failed_units,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
