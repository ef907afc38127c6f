"""Spans around the partitioner's layers, recorded from outside the program.

The tracer replaces named functions with wrappers that record a span (name,
start, end, parent) in memory, and restores the originals on ``uninstall``.
Spans are written out as JSON lines once the run ends.

Two rules decide where a wrapper must go:

- A function that a module brought in with ``from … import`` is looked up in
  that module's namespace, so it is wrapped there (``recursive.induced_edges``,
  ``gd.sequential_lambdas``). Functions the program reaches through a module
  attribute at call time (``rounding.repair_balance``, ``P.one_shot_alternating``)
  are wrapped on their own module.
- Spark actions are methods of the concrete classic DataFrame class,
  ``pyspark.sql.classic.dataframe.DataFrame``; wrapping the public
  ``pyspark.sql.DataFrame`` base records nothing.

Each Spark action runs under a job group of its own, so the jobs, stages and
tasks it caused can be read back from Spark's status store after the timed
call. The tracer issues no Spark job itself: plans and the status store are
read only after the partition has finished.
"""
from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

JOB_GROUP = "spark.jobGroup.id"


@dataclass
class Span:
    sid: int
    parent: int | None
    name: str
    start: float
    end: float = float("nan")
    attrs: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start

    def record(self) -> dict:
        attrs = {k: v for k, v in self.attrs.items() if k != "df"}
        return {
            "sid": self.sid, "parent": self.parent, "name": self.name,
            "start": self.start, "end": self.end, **attrs,
        }


def _repair_stats(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    """Flips made by ``repair_balance`` and the violation it started from:
    ``max_j |⟨w_j, signs⟩| / (ε·Σw_j)``."""
    names = ("signs", "x", "W", "eps")
    a = {**dict(zip(names, args)), **kwargs}
    signs, W = np.asarray(a["signs"]), np.asarray(a["W"])
    span.attrs["flips"] = int(np.count_nonzero(np.asarray(result) != signs))
    b = a["eps"] * W.sum(axis=0)
    span.attrs["violation"] = float(np.max(np.abs(W.T @ signs) / np.maximum(b, 1e-300)))


def _rows(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    span.attrs["rows"] = int(len(result))


def targets() -> list[tuple[object, str, str, Callable | None]]:
    """``(owner, attribute, span name, after-hook)`` for every wrapped call."""
    from pyspark.sql.classic.dataframe import DataFrame
    from pyspark.sql.session import SparkSession

    from repro.core import gd, local_gd, projection_np, recursive, rounding
    from repro.graphs import generators, ops

    return [
        (recursive, "partition_k_spark", "rec.partition_k_spark", None),
        (recursive, "partition_k_local", "rec.partition_k_local", None),
        (recursive, "induced_edges", "ops.induced_edges", None),
        (recursive, "gd_bipartition_spark", "gd.bipartition", None),
        (recursive, "gd_bipartition_local", "local.bipartition", None),
        (gd, "gd_relax_spark", "gd.relax", None),
        (gd, "_final_alternating", "gd.final_alternating", None),
        (gd, "sequential_lambdas", "gd.lambda_solve", None),
        (local_gd, "gd_relax_local", "local.relax", None),
        (projection_np, "one_shot_alternating", "proj.one_shot", None),
        (projection_np, "alternating", "proj.alternating", None),
        (rounding, "round_randomized", "round.randomized", None),
        (rounding, "repair_balance", "round.repair", _repair_stats),
        (generators, "generate_edges", "gen.generate_edges", None),
        (ops, "vertex_table", "ops.vertex_table", None),
        (DataFrame, "collect", "spark.collect", None),
        (DataFrame, "localCheckpoint", "spark.localCheckpoint", None),
        (DataFrame, "toPandas", "spark.toPandas", _rows),
        (DataFrame, "count", "spark.count", None),
        (SparkSession, "createDataFrame", "spark.createDataFrame", None),
    ]


class Tracer:
    """Keeps spans in memory; wrappers are active between install/uninstall."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.sc = None
        self.job_group: str | None = None
        self._open: list[Span] = []
        self._saved: list[tuple[object, str, Any]] = []

    # -- spans -------------------------------------------------------------
    def begin(self, name: str, **attrs: Any) -> Span:
        parent = self._open[-1].sid if self._open else None
        s = Span(len(self.spans), parent, name, time.perf_counter(), attrs=attrs)
        self.spans.append(s)
        self._open.append(s)
        return s

    def end(self, s: Span) -> None:
        s.end = time.perf_counter()
        self._open.remove(s)

    @contextmanager
    def span(self, name: str, **attrs: Any):
        s = self.begin(name, **attrs)
        try:
            yield s
        finally:
            self.end(s)

    # -- wrapping ----------------------------------------------------------
    def install(self) -> None:
        """Wrap every target. Set ``sc`` (the SparkContext whose job groups
        attribute Spark work to action spans) before any action runs."""
        for owner, attr, name, after in targets():
            if attr not in vars(owner):
                continue  # renamed or removed in the program: nothing to time
            original = vars(owner)[attr]
            is_action = name.startswith("spark.")
            setattr(owner, attr, self._wrapper(original, name, after, is_action))
            self._saved.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrapper(self, fn: Callable, name: str, after: Callable | None, is_action: bool):
        tracer = self

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            s = tracer.begin(name)
            if is_action:
                s.attrs["df"] = args[0]
                group = f"{tracer.job_group}/{s.sid}"
                s.attrs["job_group"] = group
                tracer.sc.setLocalProperty(JOB_GROUP, group)
            try:
                result = fn(*args, **kwargs)
            finally:
                if is_action:
                    tracer.sc.setLocalProperty(JOB_GROUP, tracer.job_group)
                tracer.end(s)
            if after is not None:
                after(s, args, kwargs, result)
            return result

        return wrapped

    # -- output ------------------------------------------------------------
    def write_jsonl(self, path) -> None:
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(s.record()) + "\n")
