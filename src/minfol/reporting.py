"""Deterministic CSV/JSON artifact writers shared by the CLI and scripts."""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

from .odeflow import Trajectory

TRAJECTORY_SAMPLES = 512


def write_csv(path: str, header, rows) -> None:
    """RFC-4180 CSV (CRLF line endings, UTF-8). csv writes every field with
    str(), which gives a float or an np.float64 its shortest round-trip form."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_trajectory_csv(traj: Trajectory, path: str,
                         samples: int = TRAJECTORY_SAMPLES) -> None:
    """t, r, u, p and H = p^2/2 + e^{2t} W(u, t) at equally spaced times, read
    in one call; exp is math.exp's, as in `hamiltonian_value` (np.exp may differ)."""
    ts = np.linspace(traj.t_min, traj.t_max, samples)
    u, p = traj.state(ts)
    t = ts.tolist()
    e2 = np.array([math.exp(2.0 * x) for x in t])
    h = 0.5 * p * p + e2 * traj.w.w(u, ts)
    write_csv(path, ("t", "r", "u", "p", "H"),
              zip(t, map(math.exp, t), u.tolist(), p.tolist(), h.tolist()))


def write_findings_csv(findings, path: str) -> None:
    write_csv(path, ("u0", "p0", "t1", "t2"),
              [(f.u0, f.p0, f.t1, f.t2) for f in findings])


def write_family_csv(fam, path: str) -> None:
    header = ["r"] + ["u_alpha_%d" % j for j in range(len(fam.alpha_grid))]
    write_csv(path, header, np.column_stack([fam.r_grid, fam.u_matrix]).tolist())


def write_report(report: dict, out_dir: str, wall_clock: float, **phases) -> str:
    """report.json is byte-identical across reruns; the wall-clock time and
    the phase times (name=seconds) are written to a timing.txt sidecar so
    they never perturb the report. The report is serialized before the file
    is opened, so a report that cannot be written leaves no report.json."""
    text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "report.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    with open(os.path.join(out_dir, "timing.txt"), "w", encoding="utf-8") as fh:
        fh.write("wall_clock_seconds=%.6f\n" % wall_clock)
        fh.writelines("%s=%.6f\n" % item for item in phases.items())
    return path
