"""Per-layer metrics of one traced partition, from its spans and Spark's
status store.

Iterations of the Spark GD loop are delimited by the driver-side λ-solve
(``gd.lambda_solve``), which runs exactly once per iteration: iteration t is
the collect that precedes the t-th solve and the update + ``localCheckpoint``
that follows it. Calls made from ``_final_alternating`` are kept apart.
Numpy GD iterations are delimited by the one-shot projection, likewise once
per iteration.
"""
from __future__ import annotations

import re
from collections import defaultdict

import numpy as np

from gdspans import Span

ACTIONS = ("spark.collect", "spark.localCheckpoint", "spark.toPandas", "spark.count",
           "spark.createDataFrame")

# name -> unit, in the order the benchmark reports them.
PER_LAYER = {
    "gd.relax_s": "s",
    "gd.collect_s": "s",
    "gd.checkpoint_s": "s",
    "gd.other_actions_s": "s",
    "gd.final_project_s": "s",
    "gd.driver_s": "s",
    "gd.iter_ms.p50": "ms",
    "gd.iter_ms.p90": "ms",
    "gd.collect_ms.p50": "ms",
    "gd.collect_ms.p90": "ms",
    "gd.checkpoint_ms.p50": "ms",
    "gd.checkpoint_ms.p90": "ms",
    "gd.driver_ms.p50": "ms",
    "gd.driver_ms.p90": "ms",
    "gd.jobs_per_iter": "count",
    "gd.stages_per_iter": "count",
    "gd.tasks_per_iter": "count",
    "gd.exchanges_per_iter": "count",
    "gd.shuffle_bytes_per_iter": "bytes",
    "gd.task_skew": "ratio",
    "spark.jobs_per_partition": "count",
    "spark.failed_tasks": "count",
    "round.repair_s": "s",
    "round.repair_calls": "count",
    "round.repair_flips": "count",
    "round.pre_repair_violation": "ratio",
    "local.relax_s": "s",
    "local.iter_ms": "ms",
    "proj.one_shot_us": "us",
    "proj.final_alternating_ms": "ms",
    "rec.descent_s": "s",
    "rec.collected_rows": "count",
    "rec.spark_nodes": "count",
    "rec.local_nodes": "count",
    "out.materialize_s": "s",
    "gen.generate_s": "s",
    "ops.vertex_table_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.extra_jobs": "count",
}


class Tree:
    def __init__(self, spans: list[Span]):
        self.spans = spans
        self.children: dict[int | None, list[Span]] = defaultdict(list)
        for s in spans:
            self.children[s.parent].append(s)

    def walk(self, root: Span):
        """``root`` and all spans below it, depth first."""
        stack = [root]
        while stack:
            s = stack.pop()
            yield s
            stack.extend(reversed(self.children[s.sid]))

    def outermost(self, root: Span, names: tuple[str, ...]):
        """Spans named ``names`` below ``root`` that have no such ancestor."""
        stack = list(self.children[root.sid])
        while stack:
            s = stack.pop()
            if s.name in names:
                yield s
            else:
                stack.extend(self.children[s.sid])


def exchange_ids(plan: str) -> set[str]:
    """Exchanges of an executed plan string, by plan id, skipping the
    ``== Initial Plan ==`` sections that adaptive execution prints."""
    ids: set[str] = set()
    skip_from: int | None = None
    for line in plan.splitlines():
        text = line.lstrip(" :+-|")
        col = len(line) - len(text)
        if skip_from is not None:
            if col >= skip_from:
                continue
            skip_from = None
        if text.startswith("== Initial Plan =="):
            skip_from = col
        elif text.startswith("Exchange "):
            m = re.search(r"\[plan_id=(\d+)\]", text)
            ids.add(m.group(1) if m else text)
    return ids


def spark_stats(sc, spans: list[Span]) -> None:
    """Attach job, stage, task, shuffle and plan figures to every action span.

    Run after the partition has returned: it waits for Spark's listener bus so
    the status store holds every job, then reads it without issuing a job.
    """
    jsc = sc._jsc.sc()
    jsc.listenerBus().waitUntilEmpty()
    store = jsc.statusStore()
    tracker = sc.statusTracker()
    quantiles = sc._gateway.new_array(sc._jvm.double, 2)
    quantiles[0], quantiles[1] = 0.5, 1.0
    for s in spans:
        if s.name not in ACTIONS:
            continue
        df = s.attrs.pop("df", None)
        if s.name != "spark.createDataFrame" and df is not None:
            plan = df._jdf.queryExecution().executedPlan().toString()
            s.attrs["exchanges"] = sorted(exchange_ids(plan))
        jobs = list(tracker.getJobIdsForGroup(s.attrs["job_group"]))
        stages = tasks = failed = shuffle = 0
        skew = 0.0
        for j in jobs:
            for sid in tracker.getJobInfo(j).stageIds:
                st = store.lastStageAttempt(sid)
                failed += st.numFailedTasks()
                if st.status().toString() != "COMPLETE":
                    continue
                stages += 1
                tasks += st.numCompleteTasks()
                shuffle += st.shuffleWriteBytes()
                if st.shuffleReadBytes() > 0:
                    dist = store.taskSummary(sid, st.attemptId(), quantiles)
                    if dist.isDefined():
                        d = dist.get().duration()
                        skew = max(skew, d.apply(1) / max(d.apply(0), 1.0))
        s.attrs.update(jobs=len(jobs), stages=stages, tasks=tasks, failed_tasks=failed,
                       shuffle_bytes=shuffle, task_skew=skew)


def _pct(xs: list[float], q: float) -> float:
    return float(np.percentile(xs, q)) if xs else 0.0


def _covered(spans: list[Span], lo: float, hi: float) -> float:
    """Time within ``[lo, hi]`` covered by non-overlapping ``spans``."""
    return sum(max(0.0, min(s.end, hi) - max(s.start, lo)) for s in spans)


def _gd_loop(tree: Tree, relax: Span, out: dict, samples: dict) -> None:
    kids = tree.children[relax.sid]
    final = [s for s in kids if s.name == "gd.final_alternating"]
    solves = [s for s in kids if s.name == "gd.lambda_solve"]
    actions = [s for s in kids if s.name in ACTIONS]
    in_loop: set[int] = set()
    for t, lam in enumerate(solves):
        collect = next((a for a in reversed(actions)
                        if a.name == "spark.collect" and a.end <= lam.start), None)
        ckpt = next((a for a in actions
                     if a.name == "spark.localCheckpoint" and a.start >= lam.end), None)
        it = [a for a in (collect, ckpt) if a is not None]
        for a, key in ((collect, "collect"), (ckpt, "checkpoint")):
            if a is None:
                continue
            in_loop.add(a.sid)
            samples[f"gd.{key}_ms"].append(1e3 * a.dur)
            out[f"gd.{key}_s"] += a.dur
        samples["gd.jobs_per_iter"].append(sum(a.attrs.get("jobs", 0) for a in it))
        samples["gd.stages_per_iter"].append(sum(a.attrs.get("stages", 0) for a in it))
        samples["gd.tasks_per_iter"].append(sum(a.attrs.get("tasks", 0) for a in it))
        samples["gd.shuffle_bytes_per_iter"].append(sum(a.attrs.get("shuffle_bytes", 0) for a in it))
        samples["gd.exchanges_per_iter"].append(
            len(set().union(*[set(a.attrs.get("exchanges", [])) for a in it]))
        )
        samples["gd.task_skew"].append(max([a.attrs.get("task_skew", 0.0) for a in it] or [0.0]))
        if t + 1 < len(solves):
            lo, hi = lam.start, solves[t + 1].start
            samples["gd.iter_ms"].append(1e3 * (hi - lo))
            samples["gd.driver_ms"].append(1e3 * (hi - lo - _covered(actions, lo, hi)))
    final_actions = [a for f in final for a in tree.walk(f) if a.name in ACTIONS]
    out["gd.relax_s"] += relax.dur
    out["gd.other_actions_s"] += sum(a.dur for a in actions if a.sid not in in_loop)
    out["gd.final_project_s"] += sum(a.dur for a in final_actions)
    out["gd.driver_s"] += relax.dur - sum(a.dur for a in actions) - sum(
        a.dur for a in final_actions
    )


def partition_metrics(tree: Tree, root: Span) -> tuple[dict, dict]:
    """Per-partition totals and per-call samples below the partition's span."""
    out: dict[str, float] = defaultdict(float)
    samples: dict[str, list] = defaultdict(list)
    for relax in tree.outermost(root, ("gd.relax",)):
        _gd_loop(tree, relax, out, samples)
    for s in tree.walk(root):
        if s.name in ACTIONS:
            out["spark.jobs_per_partition"] += s.attrs.get("jobs", 0)
            out["spark.failed_tasks"] += s.attrs.get("failed_tasks", 0)
        elif s.name == "round.repair":
            out["round.repair_s"] += s.dur
            out["round.repair_calls"] += 1
            out["round.repair_flips"] += s.attrs["flips"]
            out["round.pre_repair_violation"] = max(
                out["round.pre_repair_violation"], s.attrs["violation"]
            )
        elif s.name == "local.relax":
            out["local.relax_s"] += s.dur
            starts = [c.start for c in tree.children[s.sid] if c.name == "proj.one_shot"]
            samples["local.iter_ms"].extend(1e3 * np.diff(starts))
        elif s.name == "proj.one_shot":
            samples["proj.one_shot_us"].append(1e6 * s.dur)
        elif s.name == "proj.alternating":
            samples["proj.final_alternating_ms"].append(1e3 * s.dur)
        elif s.name == "out.materialize":
            out["out.materialize_s"] += s.dur
    out["spark.jobs_per_partition"] += root.attrs.get("jobs", 0)
    for rec in tree.outermost(root, ("rec.partition_k_spark",)):
        nodes = list(tree.outermost(rec, ("gd.bipartition", "local.bipartition")))
        out["rec.descent_s"] += rec.dur - sum(b.dur for b in nodes)
        for s in tree.walk(rec):
            if s.name == "gd.bipartition":
                out["rec.spark_nodes"] += 1
            elif s.name == "local.bipartition":
                out["rec.local_nodes"] += 1
            elif s.name == "spark.toPandas":
                out["rec.collected_rows"] += s.attrs["rows"]
    return out, samples


def summarize(tree: Tree, roots: list[Span], setups: list[Span]) -> dict[str, float]:
    """Median over traced partitions of each total; percentiles over the
    pooled per-call samples; medians over set-up repetitions."""
    totals: dict[str, list] = defaultdict(list)
    pooled: dict[str, list] = defaultdict(list)
    for root in roots:
        out, samples = partition_metrics(tree, root)
        for k in PER_LAYER:
            totals[k].append(out.get(k, 0.0))
        for k, v in samples.items():
            pooled[k].extend(v)
    m = {k: float(np.median(v)) for k, v in totals.items()}
    for k in ("gd.iter_ms", "gd.collect_ms", "gd.checkpoint_ms", "gd.driver_ms"):
        m[f"{k}.p50"] = _pct(pooled[k], 50)
        m[f"{k}.p90"] = _pct(pooled[k], 90)
    for k in ("gd.jobs_per_iter", "gd.stages_per_iter", "gd.tasks_per_iter",
              "gd.exchanges_per_iter", "gd.shuffle_bytes_per_iter", "gd.task_skew",
              "local.iter_ms", "proj.one_shot_us", "proj.final_alternating_ms"):
        m[k] = _pct(pooled[k], 50)
    for name, key in (("gen.generate_edges", "gen.generate_s"),
                      ("setup.vertex_table", "ops.vertex_table_s")):
        durs = [s.dur for r in setups for s in tree.walk(r) if s.name == name]
        m[key] = float(np.median(durs)) if durs else 0.0
    return m
