"""Deterministic CSV/JSON artifact writers shared by the CLI and scripts."""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

from .odeflow import PhaseState, Trajectory, hamiltonian_value

TRAJECTORY_SAMPLES = 512


def _fmt(x) -> str:
    """Shortest round-trip decimal form of a float (deterministic)."""
    if isinstance(x, float):
        return repr(float(x))  # numpy floats would print as np.float64(...)
    return str(x)


def write_csv(path: str, header, rows) -> None:
    """RFC-4180 CSV (CRLF line endings, UTF-8)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(x) for x in row])


def write_trajectory_csv(traj: Trajectory, path: str,
                         samples: int = TRAJECTORY_SAMPLES) -> None:
    ts = np.linspace(traj.t_min, traj.t_max, samples)
    rows = []
    for t in ts:
        u, p = traj.state(float(t))
        h = hamiltonian_value(traj.w, PhaseState(u=u, p=p, t=float(t)))
        rows.append((float(t), math.exp(float(t)), u, p, h))
    write_csv(path, ("t", "r", "u", "p", "H"), rows)


def write_findings_csv(findings, path: str) -> None:
    write_csv(path, ("u0", "p0", "t1", "t2"),
              [(f.u0, f.p0, f.t1, f.t2) for f in findings])


def write_family_csv(fam, path: str) -> None:
    header = ["r"] + ["u_alpha_%d" % j for j in range(len(fam.alpha_grid))]
    rows = []
    for i, r in enumerate(map(float, fam.r_grid)):
        rows.append([r] + [float(x) for x in fam.u_matrix[i, :]])
    write_csv(path, header, rows)


def write_report(report: dict, out_dir: str, wall_clock: float, **phases) -> str:
    """report.json is byte-identical across reruns; the wall-clock time and
    the phase times (name=seconds) are written to a timing.txt sidecar so
    they never perturb the report."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "report.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(report, sort_keys=True, indent=2,
                            allow_nan=False) + "\n")
    with open(os.path.join(out_dir, "timing.txt"), "w", encoding="utf-8") as fh:
        fh.write("wall_clock_seconds=%.6f\n" % wall_clock)
        fh.writelines("%s=%.6f\n" % item for item in phases.items())
    return path
