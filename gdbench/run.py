"""Benchmark of the GD partitioner: time to partition and partition quality.

Run from the repository root::

    python3 gdbench/run.py --workload kway-local --seed 1 --seconds 20 --trace 0

One run draws a fixed pool of inputs from ``--seed`` (relabellings of the
workload's preset graph), partitions them in turn for ``--seconds`` (each at
least once) through the public functions of ``repro.core`` and
``repro.graphs`` (graph in, ``[id, part]`` out), checks every output in numpy
(``gdcheck``) and prints, as its last stdout line, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds an ``info`` record (environment, n and m, every sample). ``attempted``
counts the distinct inputs partitioned, and ``failed`` those with an output
that failed its check, so both are fixed by the seed, not by machine speed.

- ``--trace 0`` reports the end-to-end metrics (``END_TO_END``).
- ``--trace 1`` partitions each input both untraced and traced and reports
  the per-layer metrics (``gdlayers.PER_LAYER``), including the tracing
  overhead; its spans are written as JSON lines under ``.bench_build/gdbench/``.

The benchmark pins its own Spark environment and ignores ``SPARK_*`` and
``PYSPARK_*`` variables. It exits non-zero without a result when the
repository's ``src/repro`` is missing.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shlex
import shutil
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pandas as pd

from gdcheck import check_assignment
from gdlayers import PER_LAYER, Tree, spark_stats, summarize
from gdspans import JOB_GROUP, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

EPS = 0.05
SETUP_REPS = 3
WARMUP = 1
SHUFFLE_PARTITIONS = 8
DRIVER_MEMORY = "2g"
TINY_N = 300

END_TO_END = {
    "partition_s": "s",
    "setup_s": "s",
    "locality": "fraction",
    "eps_achieved": "fraction",
    "py_peak_rss_mb": "MB",
    "jvm_peak_rss_mb": "MB",
}


@dataclass(frozen=True)
class Workload:
    """One graph and partitioner configuration; d=2 (unit, degree), ε=0.05."""

    graph: str  # preset in repro.graphs.generators
    n: int
    k: int
    spark_levels: int
    n_iter: int
    input_s: float  # nominal seconds to build and partition one input


# Share of --seconds that one pass over the input pool is sized to take at
# the nominal cost, leaving room for a slower machine.
POOL_SHARE = 0.8


# Sizes are set by the time one run may take: a Spark GD bisection with
# n_iter=20 costs about 20 s on 4 cores with local[4] whatever n is (per-job
# scheduling dominates), and every run must fit set-up, a warm-up and its
# inputs into about a minute. ``input_s`` was measured on 4 cores.
WORKLOADS = {
    # Top bisection on the Spark GD loop (most of partition_s), the 14 below
    # in numpy after the descent collects each half: every layer runs.
    "kway-spark": Workload("fb_lite", 4000, 16, 1, 20, 20.0),
    # numpy engine only: the Spark GD loop is bypassed, so changes to it are
    # predicted not to move this workload; repair, numpy GD and collection.
    "kway-local": Workload("fb_lite", 4000, 16, 0, 60, 1.5),
}


def _natural(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", required=True, type=_natural)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--tiny", action="store_true",
                   help=f"n={TINY_N} graphs, for the benchmark's own smoke test")
    return p.parse_args(argv)


def pin_environment(work: Path) -> dict[str, str]:
    """Fix the JVM launch settings before pyspark starts a gateway.

    Returns the Spark conf set per session. Scratch files go under ``work``.
    """
    for key in [k for k in os.environ if k.startswith(("SPARK_", "PYSPARK_"))]:
        del os.environ[key]
    tmp = str(work)
    os.environ["TMPDIR"] = tmp
    os.environ["SPARK_LAUNCHER_OPTS"] = "-XX:-UsePerfData"
    cores = min(4, os.cpu_count() or 1)
    # The serial collector grows the heap only when a collection needs it, so
    # the JVM's peak resident memory follows the workload, not GC timing.
    java_opts = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData -XX:+UseSerialGC"
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join([
        f"--master local[{cores}]",
        f"--driver-memory {DRIVER_MEMORY}",
        "--conf spark.driver.host=127.0.0.1",
        f"--conf spark.local.dir={shlex.quote(tmp)}",
        f"--conf {shlex.quote('spark.driver.extraJavaOptions=' + java_opts)}",
        "pyspark-shell",
    ])
    return {
        "spark.master": f"local[{cores}]",
        "spark.driver.memory": DRIVER_MEMORY,
        "spark.sql.shuffle.partitions": str(SHUFFLE_PARTITIONS),
        "spark.sql.autoBroadcastJoinThreshold": "-1",
        "spark.sql.execution.arrow.pyspark.enabled": "true",
        "spark.ui.enabled": "false",
        "spark.ui.showConsoleProgress": "false",
        # Keep every job and stage of a run readable by the tracer.
        "spark.ui.retainedJobs": "100000",
        "spark.ui.retainedStages": "100000",
    }


def start_session(conf: dict[str, str]):
    from pyspark.sql import SparkSession

    b = SparkSession.builder.appName("gdbench")
    for k, v in conf.items():
        if k not in ("spark.master", "spark.driver.memory"):
            b = b.config(k, v)
    spark = b.getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def git_sha() -> str:
    """Commit of the checkout, read from ``.git`` when there is one."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def vm_hwm_mb(pid: int) -> float:
    """Peak resident memory (VmHWM) of process ``pid``, in MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


@dataclass
class Input:
    """One relabelling of the workload graph, lifted into Spark."""

    index: int
    edges_pdf: pd.DataFrame  # canonical edge list [src, dst]
    edges: object  # Spark DataFrame of the same edges, cached
    vertices: object  # Spark vertex table [id, degree, w_0, w_1], cached
    build_s: float


class Bench:
    """State of one benchmark run: the session, its inputs and the results."""

    def __init__(self, args: argparse.Namespace, conf: dict[str, str]):
        self.args = args
        self.conf = conf
        self.wl = WORKLOADS[args.workload]
        self.n = TINY_N if args.tiny else self.wl.n
        self.tracer = Tracer() if args.trace else None
        self.spark = None
        self.graph: pd.DataFrame | None = None
        self.setup_s: list[float] = []
        self.setup_spans = []
        self.build_s: list[float] = []
        # Per input index: whether every output passed its check, and the
        # (locality, eps_achieved) of its first well-formed output.
        self.passed: dict[int, bool] = {}
        self.malformed = 0
        self.quality: dict[int, tuple[float, float]] = {}

    def _span(self, name: str):
        return self.tracer.span(name) if self.tracer else nullcontext()

    # -- inputs and set-up ---------------------------------------------------
    def build_input(self, index: int) -> Input:
        """Input ``index`` of this run: a relabelling of the workload graph,
        lifted into Spark with its vertex table.

        The graph is the preset with its default structure seed; ``--seed``
        and ``index`` draw a random permutation of the vertex ids. Inputs of
        a run therefore differ in ids, Spark hash placement and GD noise, not
        in structure, so a run's medians cover the partitioner's own
        randomness rather than graph-to-graph variation. The graph is
        generated afresh for set-up repetitions (``index == 0``).
        """
        from repro.graphs import generators as gen
        from repro.graphs import ops

        t0 = time.perf_counter()
        if index == 0:
            self.graph = gen.generate_edges(getattr(gen, self.wl.graph)(n=self.n))
        perm = np.random.default_rng([self.args.seed, index]).permutation(self.n)
        src = perm[self.graph["src"].to_numpy()]
        dst = perm[self.graph["dst"].to_numpy()]
        edges_pdf = pd.DataFrame({"src": np.minimum(src, dst), "dst": np.maximum(src, dst)})
        edges_pdf = edges_pdf.sort_values(["src", "dst"], ignore_index=True)
        edges = gen.to_spark(self.spark, edges_pdf).cache()
        edges.count()
        with self._span("setup.vertex_table"):
            vertices = ops.vertex_table(edges).cache()
            vertices.count()
        return Input(index, edges_pdf, edges, vertices, time.perf_counter() - t0)

    def setup(self) -> Input:
        """Session start, graph generation, lift into Spark, vertex table.

        Repeated ``SETUP_REPS`` times on input 0, each on a fresh SparkContext
        in the same JVM; only the first repetition also launches the JVM, and
        the median is reported.
        """
        for rep in range(SETUP_REPS):
            if self.spark is not None:
                self.spark.stop()
            root = self.tracer.begin("setup", rep=rep) if self.tracer else None
            t0 = time.perf_counter()
            self.spark = start_session(self.conf)
            self.sc = self.spark.sparkContext
            if self.tracer:
                self.tracer.sc = self.sc
                self.tracer.job_group = f"setup-{rep}"
            inp = self.build_input(0)
            self.setup_s.append(time.perf_counter() - t0)
            if root is not None:
                self.tracer.end(root)
                self.setup_spans.append(root)
        return inp

    # -- one partition -------------------------------------------------------
    def partition(self, inp: Input, group: str) -> float:
        """Partition ``inp`` once under Spark job group ``group``, check the
        output and return the wall time in seconds.

        Timed from the call into the partitioner to a materialised pandas
        ``[id, part]``.
        """
        from repro.core.params import GDParams
        from repro.core.recursive import partition_k_spark

        k = self.wl.k
        params = GDParams(n_iter=self.wl.n_iter, eps=EPS)
        self.sc.setLocalProperty(JOB_GROUP, group)
        if self.tracer:
            self.tracer.job_group = group
        self.passed.setdefault(inp.index, True)
        t0 = time.perf_counter()
        try:
            out = partition_k_spark(inp.edges, inp.vertices, k, params, self.wl.spark_levels)
            with self._span("out.materialize"):
                pdf = out.toPandas()
        except Exception:  # a failing partition is counted, and the run goes on
            traceback.print_exc(file=sys.stderr)
            self.passed[inp.index] = False
            return time.perf_counter() - t0
        finally:
            self.sc.setLocalProperty(JOB_GROUP, None)
        dt = time.perf_counter() - t0
        v = check_assignment(inp.edges_pdf, self.n, k, EPS, pdf["id"].to_numpy(),
                             pdf["part"].to_numpy())
        if not (v.total and v.in_range):
            self.malformed += 1
        if not v.ok:
            self.passed[inp.index] = False
            print(f"[gdbench] input {inp.index}: check failed: {v.reason()}", file=sys.stderr)
        if v.total and v.in_range:
            self.quality.setdefault(inp.index, (v.locality, v.eps_achieved))
        return dt

    def jobs_in(self, group: str) -> int:
        self.sc._jsc.sc().listenerBus().waitUntilEmpty()
        return len(self.sc.statusTracker().getJobIdsForGroup(group))

    def traced_partition(self, inp: Input, group: str):
        """Partition with every wrapper installed; returns (seconds, jobs, root span)."""
        self.tracer.install()
        root = self.tracer.begin("partition", input=inp.index)
        try:
            dt = self.partition(inp, group)
        finally:
            self.tracer.end(root)
            self.tracer.uninstall()
        spans = self.tracer.spans[root.sid:]
        spark_stats(self.sc, spans)
        root.attrs["jobs"] = self.jobs_in(group)
        return dt, root.attrs["jobs"] + sum(s.attrs.get("jobs", 0) for s in spans), root

    # -- the run -------------------------------------------------------------
    def run(self) -> dict:
        """Set up, warm up, then partition the pool's inputs in turn for
        ``--seconds``: each at least once, and another only while the last
        one's time still fits, so a run measures whole inputs and its length
        stays bounded. With tracing, each input is partitioned both untraced
        and traced, in alternating order, so the pairs show the overhead."""
        if self.tracer:
            self.tracer.install()
        inp = self.setup()
        if self.tracer:
            self.tracer.uninstall()
        for i in range(WARMUP):
            self.partition(inp, f"warmup-{i}")

        times: dict[int, list[float]] = {0: [], 1: []}
        jobs: dict[int, list[int]] = {0: [], 1: []}
        roots = []
        pool = self.pool_size()
        deadline = time.perf_counter() + self.args.seconds
        done = 0
        last = 0.0
        while done < pool or time.perf_counter() + last < deadline:
            started = time.perf_counter()
            index = done % pool + 1
            done += 1
            inp.edges.unpersist()
            inp.vertices.unpersist()
            inp = self.build_input(index)
            self.build_s.append(inp.build_s)
            order = ((0, 1) if index % 2 else (1, 0)) if self.tracer else (0,)
            for traced in order:
                group = f"partition-{done}-input-{index}-traced{traced}"
                if traced:
                    dt, n_jobs, root = self.traced_partition(inp, group)
                    roots.append(root)
                else:
                    dt = self.partition(inp, group)
                    n_jobs = self.jobs_in(group) if self.tracer else 0
                times[traced].append(dt)
                jobs[traced].append(n_jobs)
            last = time.perf_counter() - started

        info = self.describe(times, jobs)
        if self.tracer:
            metrics = summarize(Tree(self.tracer.spans), roots, self.setup_spans)
            metrics["trace.overhead_ratio"] = (
                statistics.median(times[1]) / statistics.median(times[0])
            )
            metrics["trace.extra_jobs"] = statistics.median(jobs[1]) - statistics.median(jobs[0])
            units = PER_LAYER
            out_dir = ROOT / ".bench_build" / "gdbench"
            path = out_dir / f"spans-{self.args.workload}-seed{self.args.seed}.jsonl"
            self.tracer.write_jsonl(path)
            info["spans"] = str(path.relative_to(ROOT))
        else:
            quality = list(self.quality.values())
            metrics = {
                "partition_s": statistics.median(times[0]),
                "setup_s": statistics.median(self.setup_s),
                "locality": statistics.median(q[0] for q in quality),
                "eps_achieved": statistics.median(q[1] for q in quality),
                "py_peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "jvm_peak_rss_mb": vm_hwm_mb(self.sc._jvm.java.lang.ProcessHandle.current().pid()),
            } if self.quality else {}
            units = END_TO_END
        print(json.dumps({"info": info}))
        return {
            "correct": self.malformed == 0 and bool(self.quality),
            "attempted": len(self.passed),
            "failed": self.failed(),
            "metrics": {k: {"value": float(metrics.get(k, 0.0)), "unit": u}
                        for k, u in units.items()},
        }

    def pool_size(self) -> int:
        """Number of distinct inputs in this run, fixed by the arguments so
        that two runs with the same seed check the same inputs."""
        per_input = self.wl.input_s * (2 if self.tracer else 1)
        return max(1, int(POOL_SHARE * self.args.seconds / per_input))

    def failed(self) -> int:
        return sum(not ok for ok in self.passed.values())

    def describe(self, times: dict, jobs: dict) -> dict:
        import pyspark

        return {
            "workload": self.args.workload,
            "seed": self.args.seed,
            "graph": self.wl.graph,
            "n": self.n,
            "m": len(self.graph),
            "k": self.wl.k,
            "eps": EPS,
            "git_sha": git_sha(),
            "nproc": os.cpu_count(),
            "pyspark": pyspark.__version__,
            "numpy": np.__version__,
            "spark_conf": self.conf,
            "warmup_partitions": WARMUP,
            "pool": self.pool_size(),
            "partitions": len(times[0]),
            "partition_s": times[0],
            "traced_partition_s": times[1],
            "jobs_untraced": jobs[0],
            "jobs_traced": jobs[1],
            "setup_s": self.setup_s,
            "input_build_s": self.build_s,
            "failed_inputs": sorted(i for i, ok in self.passed.items() if not ok),
            "failed_frac": self.failed() / max(len(self.passed), 1),
        }

    def close(self) -> None:
        """Stop the session and the JVM, and wait for the JVM to exit."""
        from pyspark import SparkContext

        if self.spark is not None:
            self.spark.stop()
        gateway = SparkContext._gateway
        if gateway is not None:
            gateway.shutdown()
            proc = getattr(gateway, "proc", None)
            if proc is not None:
                proc.stdin.close()
                proc.wait(timeout=60)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "core" / "recursive.py").is_file():
        print(f"error: {SRC / 'repro'} not found; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = ROOT / ".bench_build" / "gdbench" / f"tmp-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    conf = pin_environment(work)
    bench = Bench(args, conf)
    try:
        result = bench.run()
    finally:
        bench.close()
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
