"""Count the Spark jobs and the py4j commands that a piece of driver code
causes."""
import uuid
from typing import Any, Callable

from py4j.clientserver import JavaClient


def count_jobs(spark, run: Callable[[], Any]) -> tuple[int, Any]:
    """Run ``run()`` under a fresh job group; return the number of Spark jobs
    it started and its result."""
    sc = spark.sparkContext
    group = f"count-jobs-{uuid.uuid4().hex}"
    sc.setJobGroup(group, group)
    try:
        result = run()
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    sc._jsc.sc().listenerBus().waitUntilEmpty()
    return len(sc.statusTracker().getJobIdsForGroup(group)), result


def count_py4j(run: Callable[[], Any]) -> tuple[int, Any]:
    """Run ``run()``; return the number of py4j commands the driver sent to
    the JVM meanwhile (each a round trip) and its result. Counts nest: an
    outer count includes an inner one's commands."""
    sent = 0
    original = JavaClient.send_command

    def counting(self, *args, **kwargs):
        nonlocal sent
        sent += 1
        return original(self, *args, **kwargs)

    JavaClient.send_command = counting
    try:
        result = run()
    finally:
        JavaClient.send_command = original
    return sent, result
