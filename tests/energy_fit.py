"""Linear-fit quality of a run's energy series, for acceptance criterion 3."""

import numpy as np


def energy_fit_r2(log, t_start_s: int, t_end_s: int) -> float:
    """R-squared of a least-squares line through log's total energy vs time.

    Takes the samples from t_start_s to t_end_s, both included.
    """
    pts = [(t, total) for t, total, _ in log.energy_series if t_start_s <= t <= t_end_s]
    if len(pts) < 3:
        raise ValueError("not enough samples for a fit")
    t = np.array([p[0] for p in pts], dtype=float)
    y = np.array([p[1] for p in pts], dtype=float)
    slope, intercept = np.polyfit(t, y, 1)
    resid = y - (slope * t + intercept)
    ss_res = float(np.sum(resid * resid))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0.0:
        return 1.0
    return 1.0 - ss_res / ss_tot
