"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload active --seed 0 --seconds 30 --trace 0

Run from the repository root. The run sets up (Spark session, warm-up,
input generation), then runs timed passes of the workload until
``--seconds`` have gone by (at least one pass), checks every pass's
output, and prints as its last line one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` the passes are traced
and the metrics are the per-layer ones.

Load model: a closed loop with one client. One pass runs at a time, in
this single driver process, on Spark ``local[N]`` (NOTES.md has the
pinned load).
"""
from __future__ import annotations

import argparse
import os
import resource
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TMP = ROOT / ".perfbench_tmp"  # every file Spark or Python writes goes here
# Output fingerprints of every run in this checkout, for the determinism
# probe: runs of one workload and seed should all log the same one.
FINGERPRINT_LOG = ROOT / ".perfbench_fingerprints.jsonl"

# ---- pinned load (recorded in NOTES.md) --------------------------------------
SPARK_CORES = min(4, os.cpu_count() or 1)
SHUFFLE_PARTITIONS = 4
DRIVER_MEMORY = "2g"
BLAS_THREADS = "2"  # per process
HASH_SEED = "0"  # the data generator seeds from hash((domain, seed))


def _pin_environment() -> None:
    """Re-execute with a fixed hash seed, BLAS threads, import path and
    temp dir.

    Python randomises str hashing per process, and ``er_domain`` seeds
    its generator from ``hash((domain, seed))``: without a fixed
    PYTHONHASHSEED the same ``--seed`` would give other inputs each run.
    """
    want = {
        "PYTHONHASHSEED": HASH_SEED,
        "OPENBLAS_NUM_THREADS": BLAS_THREADS,
        "OMP_NUM_THREADS": BLAS_THREADS,
        "MKL_NUM_THREADS": BLAS_THREADS,
        "TMPDIR": str(TMP),
        # Every JVM, spark-submit's launcher included: temp files in TMP
        # and no hsperfdata file under /tmp.
        "JAVA_TOOL_OPTIONS": f"-Djava.io.tmpdir={TMP} -XX:-UsePerfData",
        "PYTHONPATH": str(ROOT / "src"),  # for Spark's Python workers too
        "PYSPARK_PYTHON": sys.executable,
        "PYSPARK_DRIVER_PYTHON": sys.executable,
    }
    if all(os.environ.get(k) == v for k, v in want.items()):
        return
    os.environ.update(want)
    os.execv(sys.executable, [sys.executable, *sys.argv])


def _start_spark():
    from pyspark.sql import SparkSession

    return (
        SparkSession.builder.master(f"local[{SPARK_CORES}]")
        .appName("perfbench")
        .config("spark.driver.memory", DRIVER_MEMORY)
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.local.dir", str(TMP))
        .config("spark.sql.warehouse.dir", str(TMP / "warehouse"))
        .config("spark.sql.shuffle.partitions", SHUFFLE_PARTITIONS)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.ui.retainedJobs", 100_000)
        .config("spark.ui.retainedStages", 100_000)
        .config("spark.executorEnv.OPENBLAS_NUM_THREADS", BLAS_THREADS)
        .getOrCreate()
    )


def _stop_spark(spark) -> None:
    """Stop Spark and wait until its JVM and Python workers have exited."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    proc = getattr(gateway, "proc", None)
    workers = _descendants(proc.pid) if proc is not None else []
    spark.stop()
    if gateway is not None:
        gateway.shutdown()
    if proc is not None:
        if proc.stdin:
            proc.stdin.close()  # the gateway JVM exits when its stdin closes
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=30)
    _wait_ended(workers)


def _stat(pid: int | str) -> tuple[int, str]:
    """(parent pid, state letter) of a process, from /proc."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return int(fields[1]), fields[0]


def _descendants(pid: int) -> list[int]:
    """Pids of every process below ``pid``: Spark's Python workers."""
    children: dict[int, list[int]] = {}
    for d in Path("/proc").iterdir():
        if d.name.isdigit():
            try:
                children.setdefault(_stat(d.name)[0], []).append(int(d.name))
            except (OSError, IndexError, ValueError):
                continue  # exited while we looked
    out, todo = [], [pid]
    while todo:
        for c in children.get(todo.pop(), ()):
            out.append(c)
            todo.append(c)
    return out


def _alive(pid: int) -> bool:
    try:
        return _stat(pid)[1] not in ("Z", "X")
    except (OSError, IndexError, ValueError):
        return False


def _wait_ended(pids: list[int], timeout: float = 10.0) -> None:
    """Wait for the workers, which exit once the JVM is gone; kill any
    still running after ``timeout``."""
    deadline = time.monotonic() + timeout
    for pid in pids:
        while _alive(pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        if _alive(pid):
            os.kill(pid, signal.SIGKILL)


def _hwm_mb(pid: int | str) -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


def _peak_rss_mb(spark) -> tuple[float, float]:
    """Peak RSS of this driver process and of the Spark JVM."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    try:
        jvm_pid = spark.sparkContext._jvm.java.lang.ProcessHandle.current().pid()
        return own, _hwm_mb(jvm_pid)
    except (OSError, ValueError):
        return own, 0.0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    TMP.mkdir(exist_ok=True)
    _pin_environment()
    try:
        return _run(args)
    finally:
        shutil.rmtree(TMP, ignore_errors=True)


def _run(args: argparse.Namespace) -> int:
    try:
        import repro  # noqa: F401
    except ImportError as e:
        print(f"perfbench: cannot import repro from {ROOT / 'src'}: {e}", file=sys.stderr)
        return 2
    from measure import report, run_workload
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"expected one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]

    t0 = time.perf_counter()
    spark = _start_spark()
    spark.sparkContext.setLogLevel("ERROR")
    try:
        res = run_workload(spark, w, args.seed, args.seconds, bool(args.trace),
                           time.perf_counter() - t0, FINGERPRINT_LOG)
        res["e2e"]["peak_rss_mb"], res["layer"]["jvm.peak_rss_mb"] = _peak_rss_mb(spark)
    finally:
        _stop_spark(spark)
    report(res, w.name, args.seed, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
