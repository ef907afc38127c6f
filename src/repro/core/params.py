"""Hyper-parameters of Algorithm 1 (GD), defaults per paper §4.3."""
from __future__ import annotations

from dataclasses import dataclass

# Per-coordinate Gaussian σ at t=0 is ``NOISE_SIGMA_MULT / n_iter``, so the
# expected noise norm is ``√n/n_iter`` (noise is only added at t=0, §3.2).
NOISE_SIGMA_MULT = 1.0


@dataclass
class GDParams:
    """Parameters of the projected-gradient-descent partitioner.

    - ``n_iter``: iteration budget ``I`` (paper uses 100 at FB scale; quality
      plateaus much earlier at our graph sizes), at least 1. The run trace
      that ``local_gd.relax`` returns has ``n_iter`` entries, one ``Moments``
      per step (Fig 9), also when the loop skips steps that cannot change
      ``x`` (DESIGN.md §3).
    - ``eps``: balance tolerance, at least 0; slab half-width is
      ``eps · Σ_i w_i^(j)``.
    - ``step_mult``: target step length is ``step_mult · √n / n_iter``
      (Fig 8: ``2·√n/100`` is a good choice at I=100).
    - ``projection``: ``one_shot`` (default, §3.1) or ``exact`` (the KKT
      projection, Fig 10; numpy engine only).
    - ``adaptive``: rescale γ_t so the realized step length tracks the target
      step length (§3.2). The step length is ``‖x_{t+1} − x_t‖``, measured
      after the projection and before fixing; at t=0 ``x_t`` is the start
      point before the noise.
    - ``fixing``: freeze near-integral coordinates (|x| ≥ ``fix_threshold``)
      after ``fix_start_frac`` of the iterations (§3.2).
    - ``final_project``: project on the slab faces until feasible before
      rounding, fixing the one-shot drift (§3.1, Fig 9).
    """

    n_iter: int = 60
    eps: float = 0.05
    step_mult: float = 2.0
    projection: str = "one_shot"
    adaptive: bool = True
    fixing: bool = True
    fix_threshold: float = 0.999
    fix_start_frac: float = 0.7
    final_project: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if self.projection not in {"one_shot", "exact"}:
            raise ValueError(f"projection must be 'one_shot' or 'exact', got {self.projection!r}")
        if self.n_iter < 1:
            raise ValueError(f"n_iter must be at least 1, got {self.n_iter}")
        if not self.eps >= 0:
            raise ValueError(f"eps must be non-negative, got {self.eps}")

    @property
    def fix_start(self) -> int:
        return int(self.fix_start_frac * self.n_iter)

    @property
    def noise_sigma(self) -> float:
        """Per-coordinate σ of the noise added at t=0."""
        return NOISE_SIGMA_MULT / self.n_iter
