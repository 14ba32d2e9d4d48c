"""CTT pipeline benchmark: one command, two workloads, checked outputs.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload backfill --seed 0 --seconds 10 --trace 0

Workloads (see ``perfbench/workloads.py`` for why each exists):
``backfill`` and ``analytics``. Every run starts
its own Spark session (``local[4]``) through :func:`repro.runner.get_spark`,
works in a fresh directory under ``<checkout>/.bench_work`` and deletes
it at the end.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones (tracing off); with ``--trace 1``
they are the per-layer ones, recorded by wrapping each layer's public
functions from outside the program. The line before it is a ``meta``
object: host, Spark settings, scale factor, seed and source revision.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: Scale factor of every simulated deployment: 4 simulated days, just
#: over the 3 days the whole fault scenario needs, so that a run of
#: either workload takes about a minute or less on a 4-core host.
SF = 0.01
#: Spark master: as many task threads as the reference host has cores.
MASTER = "local[4]"
DRIVER_MEMORY = "2g"
#: Seed used while tuning; the held-out seed is kept for checking claims.
DEFAULT_SEED = 0
HELD_OUT_SEED = 1_000_003


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["backfill", "analytics"])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def _configure_env(run_dir: Path) -> None:
    """Settings that must be in place before the JVM starts."""
    tmp = run_dir / "tmp"
    tmp.mkdir()
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    os.environ["TZ"] = "UTC"
    time.tzset()
    # Python workers (pandas UDFs) import the program from the checkout.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p
    )
    # A fixed, pre-touched heap: otherwise G1's heap sizing alone moves
    # peak_rss_mb by about 14% between identical runs.
    java_opts = (
        f"-Xms{DRIVER_MEMORY} -XX:+AlwaysPreTouch -Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    )
    # spark-submit's short-lived launcher JVM would write /tmp/hsperfdata_*.
    os.environ["SPARK_LAUNCHER_OPTS"] = " ".join(
        o for o in (os.environ.get("SPARK_LAUNCHER_OPTS", ""), "-XX:-UsePerfData") if o
    )
    # SPARK_LOCAL_DIRS, when set, takes precedence over spark.local.dir.
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master {MASTER} --driver-memory {DRIVER_MEMORY}"
        f" --conf spark.local.dir={run_dir / 'spark-local'}"
        " --conf spark.ui.enabled=false --conf spark.ui.showConsoleProgress=false"
        " --conf spark.driver.host=127.0.0.1"
        f" --driver-java-options '{java_opts}'"
        " pyspark-shell"
    )


def _revision() -> dict:
    digest = hashlib.sha256()
    for f in sorted(SRC.rglob("*.py")):
        digest.update(str(f.relative_to(SRC)).encode())
        digest.update(f.read_bytes())
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            sha = None
    return {"git_sha": sha, "src_sha256": digest.hexdigest()}


def _meta(args, spark) -> dict:
    import pyspark

    conf = spark.sparkContext.getConf()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "sf": SF,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "master": spark.sparkContext.master,
        "driver_memory": conf.get("spark.driver.memory", DRIVER_MEMORY),
        "shuffle_partitions": int(spark.conf.get("spark.sql.shuffle.partitions")),
        "spark_local_dirs": os.environ.get("SPARK_LOCAL_DIRS") or conf.get("spark.local.dir"),
        "pyspark": pyspark.__version__,
        "python": sys.version.split()[0],
        **_revision(),
    }


def main(argv=None) -> int:
    args = _parse(argv)
    # On SIGTERM, unwind through the finally below: stop Spark, delete the run dir.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "repro" / "runner.py").is_file():
        print(f"no program source under {SRC}", file=sys.stderr)
        return 2
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=work_root))
    spark = None
    try:
        _configure_env(run_dir)
        sys.path.insert(0, str(SRC))
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        import workloads
        from repro import runner

        t0 = time.perf_counter()
        spark = runner.get_spark("perfbench")
        spark_start_s = time.perf_counter() - t0
        run = workloads.Run(
            spark=spark, seed=args.seed, seconds=args.seconds, sf=SF,
            work=run_dir / "work", trace=bool(args.trace),
        )
        run.setup_s = spark_start_s
        result = workloads.WORKLOADS[args.workload](run)
        print(json.dumps({"meta": _meta(args, spark)}))
        if args.trace:
            trace_file = work_root / f"last_trace-{args.workload}.json"
            trace_file.write_text(json.dumps(run.trace_report(), indent=1))
        print(json.dumps(result))
        return 0
    finally:
        try:
            if spark is not None:
                _stop(spark)
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)


def _stop(spark) -> None:
    """Stop Spark and wait for the JVM (and its Python workers) to exit."""
    gateway = spark.sparkContext._gateway
    proc = getattr(gateway, "proc", None)
    try:
        spark.stop()
    finally:
        gateway.shutdown()
        if proc is not None:
            # The gateway JVM exits once its stdin, our end of the pipe, closes.
            proc.stdin.close()
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()


if __name__ == "__main__":
    sys.exit(main())
