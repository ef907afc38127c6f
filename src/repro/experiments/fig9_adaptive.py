"""Fig 9: effect of adaptive step size and vertex fixing.

The paper traces edge locality (left) and maximum imbalance (right) over
iterations for (1) non-adaptive, (2) adaptive, (3) adaptive + vertex fixing.
Claims to preserve: fixing attains the best final quality AND keeps
near-perfect balance even under one-shot alternating projection, while the
other variants accumulate imbalance that must be repaired at the end.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.core.local_gd import gd_relax_local
from repro.core.params import GDParams
from repro.experiments.common import print_table
from repro.graphs import generators as gen

PAPER_FIG9_NOTES = (
    "Paper Fig 9: adaptive+fixing reaches the best locality and keeps "
    "max-imbalance near 0 throughout; non-adaptive/adaptive accumulate "
    "imbalance under one-shot projection (repaired only at the end)."
)

VARIANTS = {
    "non-adaptive": dict(adaptive=False, fixing=False),
    "adaptive": dict(adaptive=True, fixing=False),
    "adaptive+fixing": dict(adaptive=True, fixing=True),
}


def run_fig9(
    spark: SparkSession | None = None,
    n: int = 1200,
    n_iter: int = 100,
    seed: int = 0,
) -> pd.DataFrame:
    spec = gen.lj_lite(n=n)
    pdf = gen.generate_edges(spec)
    deg = np.bincount(
        np.concatenate([pdf.src.to_numpy(), pdf.dst.to_numpy()]), minlength=spec.n
    ).astype(float)
    W = np.column_stack([np.ones(spec.n), deg])
    total = W.sum(axis=0)
    rows = []
    for vname, flags in VARIANTS.items():
        p = GDParams(n_iter=n_iter, eps=0.05, seed=seed, final_project=False, **flags)
        _, trace = gd_relax_local(pdf, W, p)
        for frac in (0.25, 0.5, 0.75, 1.0):
            t = int(frac * n_iter)
            m = trace[t - 1]
            rows.append(
                {
                    "variant": vname,
                    "iteration": t,
                    "locality_pct": round(100 * (0.5 + m.xax / (4 * len(pdf))), 1),
                    "max_imbalance": round(float(np.max(np.abs(m.a) / total)), 4),
                    "n_fixed": spec.n - m.n_free,
                }
            )
    return pd.DataFrame(rows)


def main(spark: SparkSession | None = None, **kwargs) -> pd.DataFrame:
    df = run_fig9(spark, **kwargs)
    print(PAPER_FIG9_NOTES)
    print_table("Fig 9 (measured): locality and imbalance traces", df)
    return df
