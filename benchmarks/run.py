"""Benchmark of the ``threefold`` CLI as a shell user runs it.

Usage (from the repository root):

    python3 benchmarks/run.py --workload cli-small --seed 1 --seconds 30 --trace 0

One closed-loop client runs the workload's argv list in passes, one fresh
child process per invocation and never more than one child at a time.
Every answer is checked against the expected table in ``workloads.py``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs untraced
and traced passes and reports the per-layer metrics (see ``layers.py``).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are the human-readable report and the environment it ran in.

``--seconds`` fixes the number of passes from each workload's nominal pass
time, so that two commits compared with the same arguments do the same
work.  The program is imported from ``src/`` of the working directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import namedtuple
from dataclasses import dataclass, field
from importlib import metadata

import layers
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
INVOCATION_TIMEOUT_S = 60.0
HARD_STOP_S = 165.0  # no invocation starts or runs past this point of a run
RECORD_PREFIX = "PERFBENCH "

END_TO_END_UNITS = {
    "setup_s": "s",
    "invocation_p50_s": "s",
    "invocation_tail_s": "s",
    "compute_s": "s",
    "invocations_per_s": "1/s",
    "fail_ratio": "ratio",
    "peak_rss_mb": "MB",
}
# fail_ratio reads 0 on a healthy commit; the result line carries it as
# ``failed`` / ``attempted`` instead of as a metric
RESULT_END_TO_END = [name for name in END_TO_END_UNITS if name != "fail_ratio"]


HANDLED_SIGNALS = (signal.SIGTERM, signal.SIGINT, signal.SIGHUP)


class Interrupted(Exception):
    def __init__(self, signum):
        super().__init__(f"signal {signum}")
        self.signum = signum


def _on_signal(signum, frame):
    raise Interrupted(signum)


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def tail(values, beyond=TAIL_BEYOND):
    """Highest nearest-rank percentile with at least ``beyond`` samples above it.

    Returns ``(value, percentile, count)``.  With ``beyond`` or fewer samples
    no percentile qualifies, and the maximum is returned as the 100th.
    """
    xs = sorted(values)
    n = len(xs)
    if n <= beyond:
        return xs[-1], 100.0, n
    k = n - beyond - 1  # xs[k + 1:] holds exactly `beyond` samples
    return xs[k], 100.0 * (k + 1) / n, n


# ---------------------------------------------------------------------------
# one invocation
# ---------------------------------------------------------------------------

@dataclass
class Invocation:
    argv: tuple
    wall_s: float
    returncode: int
    rss_mb: float
    cpu_s: float
    setup_s: float | None = None
    main_s: float | None = None
    stderr: str = ""
    record: dict | None = None
    failure: str | None = None  # None when the answer was verified


def _drain(proc, deadline):
    """Read stdout and stderr to EOF; kill the child at the deadline."""
    out = {proc.stdout.fileno(): [], proc.stderr.fileno(): []}
    timed_out = False
    with selectors.DefaultSelector() as sel:
        for stream in (proc.stdout, proc.stderr):
            sel.register(stream, selectors.EVENT_READ)
        while sel.get_map():
            remaining = deadline - time.perf_counter()
            if remaining <= 0 and not timed_out:
                # os.kill, not Popen.kill: that would reap the child before wait4
                os.kill(proc.pid, signal.SIGKILL)
                timed_out = True
            for key, _ in sel.select(timeout=1.0 if timed_out else remaining):
                data = os.read(key.fd, 1 << 16)
                if data:
                    out[key.fd].append(data)
                else:
                    sel.unregister(key.fileobj)
    text = {fd: b"".join(chunks).decode("utf-8", "replace") for fd, chunks in out.items()}
    return text[proc.stdout.fileno()], text[proc.stderr.fileno()], timed_out


Finished = namedtuple("Finished", "stdout stderr t0 wall_s returncode usage timed_out")


def spawn(cmd, timeout, root):
    """Run one child to its end; the exit code is negative for death by signal."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        stdout, stderr, timed_out = _drain(proc, t0 + timeout)
    except BaseException:
        os.kill(proc.pid, signal.SIGKILL)
        raise
    finally:
        # an interrupt here would leave the child unreaped
        blocked = signal.pthread_sigmask(signal.SIG_BLOCK, HANDLED_SIGNALS)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, blocked)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
    return Finished(stdout, stderr, t0, wall, proc.returncode, usage, timed_out)


def invoke(case, seed, root, timeout, trace=False, importtime=False):
    argv = ("--json", "--seed", str(seed)) + case.argv
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + [CHILD]
    cmd += (["--trace"] if trace else []) + ["--"] + list(argv)
    done = spawn(cmd, timeout, root)
    stderr, rc = done.stderr, done.returncode
    inv = Invocation(argv=case.argv, wall_s=done.wall_s, returncode=rc, stderr=stderr,
                     rss_mb=done.usage.ru_maxrss / 1024.0,
                     cpu_s=done.usage.ru_utime + done.usage.ru_stime)
    lines = stderr.splitlines()
    records = [line for line in lines if line.startswith(RECORD_PREFIX)]
    if records:
        try:
            inv.record = json.loads(records[-1][len(RECORD_PREFIX):])
        except json.JSONDecodeError:  # cut short by a kill
            pass
        else:
            inv.setup_s = inv.record["ready_at"] - done.t0
            inv.main_s = inv.record["main_s"]
    if done.timed_out:
        inv.failure = f"timeout after {timeout:.0f} s"
    elif rc < 0:
        inv.failure = f"killed by signal {-rc}"
    elif rc != 0:
        last = [line for line in lines if not line.startswith(RECORD_PREFIX)][-1:]
        inv.failure = f"exit code {rc}: {last[0] if last else ''}"
    elif inv.record is None:
        inv.failure = "no timing record from the child"
    else:
        try:
            report = json.loads(done.stdout)
        except json.JSONDecodeError as err:
            inv.failure = f"unparsable JSON: {err}"
        else:
            try:
                case.check(report)
            except workloads.Mismatch as err:
                inv.failure = f"mismatch: {err}"
    return inv


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

@dataclass
class Pass:
    invocations: list = field(default_factory=list)
    wall_s: float = 0.0
    complete: bool = False

    @property
    def compute_s(self):
        # an invocation without a timing record makes the pass's compute unknown
        return sum(math.inf if inv.main_s is None else inv.main_s for inv in self.invocations)

    @property
    def cpu_s(self):
        return sum(inv.cpu_s for inv in self.invocations)


def run_pass(cases, seed, root, stop_at, traced=False, importtime=False):
    p = Pass()
    start = time.perf_counter()
    for case in cases:
        remaining = stop_at - time.perf_counter()
        if remaining <= 1.0:
            break
        p.invocations.append(invoke(case, seed, root, min(INVOCATION_TIMEOUT_S, remaining),
                                    trace=traced, importtime=importtime))
    else:
        p.complete = True
    p.wall_s = time.perf_counter() - start
    return p


def planned_passes(workload, cases, seconds):
    at_least = math.ceil((TAIL_BEYOND + 1) / len(cases))  # enough samples for a tail
    return max(at_least, round(seconds / workload.nominal_pass_s))


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def end_to_end(passes):
    """End-to-end values and notes.  Unknown or failed times count as infinite,
    and every reported time is capped at the invocation timeout per invocation."""
    invs = [inv for p in passes for inv in p.invocations]
    ok = [inv for inv in invs if inv.failure is None]
    # a failed invocation misses every latency limit: it sorts beyond the tail
    walls = [inv.wall_s if inv.failure is None else math.inf for inv in invs]
    tail_value, tail_pct, count = tail(walls)
    complete = [p for p in passes if p.complete] or passes
    values = {
        "setup_s": min(statistics.median(math.inf if inv.setup_s is None else inv.setup_s
                                         for inv in invs), INVOCATION_TIMEOUT_S),
        "invocation_p50_s": min(statistics.median(walls), INVOCATION_TIMEOUT_S),
        "invocation_tail_s": min(tail_value, INVOCATION_TIMEOUT_S),
        "compute_s": min(statistics.median(p.compute_s for p in complete),
                         INVOCATION_TIMEOUT_S * max(len(p.invocations) for p in complete)),
        "invocations_per_s": len(ok) / sum(p.wall_s for p in passes),
        "fail_ratio": (len(invs) - len(ok)) / len(invs),
        "peak_rss_mb": max(inv.rss_mb for inv in invs),
    }
    notes = {"invocation_tail_s": f"p{tail_pct:.2f} of {count} invocations, "
                                  f"{TAIL_BEYOND if count > TAIL_BEYOND else 0} beyond",
             "compute_s": f"median of {len(complete)} passes",
             "setup_s": f"median of {len(invs)} child start-ups"}
    return values, notes


def per_layer(untraced, traced):
    totals = layers.LayerTotals()
    for p in traced:
        for inv in p.invocations:
            if inv.record is not None:
                totals.add(inv.record["names"], inv.record["spans"])
    values = layers.layer_metrics(totals, len(traced))
    imports = [layers.parse_importtime(inv.stderr) for p in untraced for inv in p.invocations]
    for name in imports[0]:
        values[name] = statistics.median(row[name] for row in imports)
    values["cli.cpu_s"] = statistics.median(p.cpu_s for p in untraced)
    values["trace.overhead_s"] = (statistics.median(p.compute_s for p in traced)
                                  - statistics.median(p.compute_s for p in untraced))
    notes = {"jordan.products_per_trace": "by kind: " + ", ".join(
        f"{kind}={ratio:g}" for kind, ratio in totals.products_per_trace_by_kind().items()),
        "representations.validate_bytes": "computed from |G| and d",
        "su2.tensor_power_bytes": "computed, 16*4^(2j) at the largest j"}
    return values, notes


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def _blas():
    """BLAS library and its thread count, read from the loaded OpenBLAS."""
    import ctypes
    import glob

    import numpy

    info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    out = {"name": info.get("name"), "version": info.get("version"),
           "configuration": info.get("openblas configuration"), "threads": None}
    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                out["threads"] = getter()
                return out
    return out


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root):
    """HEAD of the checkout, or None when the checkout is not itself a git work tree."""
    try:
        done = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(root):
        return None
    return lines[1]


def environment(root, args):
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = None
    thread_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "python": platform.python_version(),
        **versions,
        "blas": _blas(),
        "blas_thread_env": {var: os.environ.get(var) for var in thread_vars},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": _git_commit(root),
    }


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _print_metrics(values, units, notes):
    for name, unit in units.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:40s} {values[name]:>14.6g} {unit}{note}")


def measure(args, root, workdir):
    """Run the planned passes; return (untraced, traced)."""
    workload = workloads.WORKLOADS[args.workload]
    cases = workload.build(args.seed, workdir)
    stop_at = time.perf_counter() + HARD_STOP_S
    # an import-only child warms the bytecode cache
    rc = spawn([sys.executable, CHILD, "--"], INVOCATION_TIMEOUT_S, root).returncode
    if rc != 0:
        print(f"warm-up import failed with exit code {rc}")
    planned = planned_passes(workload, cases, args.seconds)
    untraced, traced = [], []
    if args.trace:
        for _ in range(max(1, planned // 2)):
            untraced.append(run_pass(cases, args.seed, root, stop_at, importtime=True))
            traced.append(run_pass(cases, args.seed, root, stop_at, traced=True))
    else:
        for _ in range(planned):
            untraced.append(run_pass(cases, args.seed, root, stop_at))
    return untraced, traced


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "threefold", "cli.py")):
        print("error: run from a threefold checkout: src/threefold/cli.py not found", file=sys.stderr)
        return 2
    for signum in HANDLED_SIGNALS:
        signal.signal(signum, _on_signal)
    workdir = os.path.join(root, ".bench_work", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        env = environment(root, args)
        print("environment " + json.dumps(env, sort_keys=True))
        untraced, traced = measure(args, root, workdir)
    except Interrupted as err:
        print(f"interrupted by {err}", file=sys.stderr)
        return 128 + err.signum
    finally:
        for signum in HANDLED_SIGNALS:  # no child is left to stop
            signal.signal(signum, signal.SIG_DFL)
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:  # another run is using it
            pass

    invs = [inv for p in untraced + traced for inv in p.invocations]
    failures = [inv for inv in invs if inv.failure]
    print(f"workload {args.workload}: {len(untraced + traced)} passes, {len(invs)} invocations, "
          f"{len(failures)} failed")
    for inv in failures[:10]:
        print(f"  FAILED {' '.join(inv.argv)}: {inv.failure}")
    e2e, e2e_notes = end_to_end(untraced)
    print("end-to-end" + (" (untraced passes, start-up slowed by -X importtime):" if args.trace else ":"))
    _print_metrics(e2e, END_TO_END_UNITS, e2e_notes)
    if args.trace:
        values, notes = per_layer(untraced, traced)
        print("per-layer (traced passes, per pass):")
        _print_metrics(values, layers.PER_LAYER_UNITS, notes)
        names, units = list(layers.PER_LAYER_UNITS), layers.PER_LAYER_UNITS
    else:
        values, names, units = e2e, RESULT_END_TO_END, END_TO_END_UNITS
    result = {
        "correct": not failures,
        "attempted": len(invs),
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
