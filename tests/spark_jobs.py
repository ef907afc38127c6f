"""Count the Spark jobs that a piece of driver code starts."""
import uuid
from typing import Any, Callable


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
