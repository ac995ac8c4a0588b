"""Config-driven command-line front end.

Exit codes: 0 = pass / certified / found-as-expected,
1 = not-certified / not-found, 2 = error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from dataclasses import replace

import numpy as np

from . import __version__
from .certify import (check_condition_A, check_condition_B, hardy_identity_check,
                      hardy_identity_checks)
from .config import (HARDY_CLOSED_FORMS, ExperimentConfig, build_bumps, build_potential, grid,
                     load_config)
from .errors import MinfolError
from .foliation import build_MA_family, build_NA_family, example_446_check
from .odeflow import asymptotic_match_outer, integrate_radial_ivp, stepper_work
from .potential import make_bump
from .reporting import (write_family_csv, write_csv, write_findings_csv,
                        write_report, write_trajectory_csv)
from .rigidity import conjugate_point_scan, scaling_exponent_fit, strip_step_over_zero_spacing

SLOPE_TOL = 0.15
RESIDUAL_TOL = 1e-7


def _run_certify(cfg: ExperimentConfig, out_dir: str, timing: dict):
    pot = build_potential(cfg)
    t0 = time.perf_counter()
    cert_a = check_condition_A(pot, cfg.n, x0_offset=cfg.params["x0_offset"],
                               grid_points=cfg.params["grid_points"])
    t1 = time.perf_counter()
    cert_b = check_condition_B(pot, cfg.n)
    timing.update(condition_A_seconds=t1 - t0,
                  condition_B_seconds=time.perf_counter() - t1)
    certified = "certified" in (cert_a.verdict, cert_b.verdict)
    results = {"condition_A": cert_a.to_dict(), "condition_B": cert_b.to_dict()}
    verdict = "certified" if certified else "not-certified"
    return (0 if certified else 1), results, verdict


def _run_solve(cfg: ExperimentConfig, out_dir: str, timing: dict):
    pot = build_potential(cfg)
    p = cfg.params
    r0 = float(p["r0"]) if p["r0"] is not None else 2.0 * pot.r_outer
    r_end = float(p["r_end"]) if p["r_end"] is not None else 1e-2
    run_cfg = replace(cfg.integrator, t_range=(math.log(r0), math.log(r_end)))
    t0 = time.perf_counter()
    traj = integrate_radial_ivp(pot, cfg.n, r0, float(p["u0"]), float(p["du0"]),
                                run_cfg)
    fit = asymptotic_match_outer(traj, cfg.n) if cfg.n >= 3 else None  # before any artifact
    t1 = time.perf_counter()
    write_trajectory_csv(traj, os.path.join(out_dir, "trajectory.csv"),
                         samples=p["samples"])
    timing.update(flow_seconds=t1 - t0, csv_seconds=time.perf_counter() - t1)
    u_end, p_end = traj.state(traj.t_min if r_end < r0 else traj.t_max)
    results = {"r0": r0, "r_end": r_end,
               "final_state": {"u": u_end, "p": p_end},
               "events": [{"t": ev.t, "kind": ev.kind} for ev in traj.sol.events],
               "diagnostics": stepper_work([traj.sol])}
    if fit is not None:
        results["outer_fit"] = {"alpha": fit.alpha, "A": fit.A,
                                "max_residual": fit.max_residual}
    return 0, results, "solved"


def _run_scan(cfg: ExperimentConfig, out_dir: str, timing: dict):
    w = build_potential(cfg)
    p = cfg.params
    t_end = float(p["t_end"]) if p["t_end"] is not None else w.t_upper + 10.0
    t0 = time.perf_counter()
    report = conjugate_point_scan(w, grid(p["u0"]), grid(p["p0"]),
                                  float(p["t_start"]), t_end,
                                  cfg=cfg.integrator, n_slide=p["n_slide"])
    timing["scan_seconds"] = time.perf_counter() - t0
    num_cells = len(report.u0_grid) * len(report.p0_grid) * len(report.t_starts)
    if report.failures and not report.findings:
        u0, p0, ts, message = report.failures[0]
        raise MinfolError("scan found no conjugate points and %d of %d cells "
                          "failed; first at (u0=%g, p0=%g, t_start=%g): %s"
                          % (len(report.failures), num_cells, u0, p0, ts, message))
    ranked = sorted(zip(report.findings, report.residuals),
                    key=lambda fv: (fv[0].t_start, fv[0].u0, fv[0].p0))
    findings = [f for f, _ in ranked]
    write_findings_csv(findings, os.path.join(out_dir, "findings.csv"))
    results = {
        "num_cells": num_cells,
        "num_findings": len(findings),
        "num_failures": len(report.failures),
        "findings": [{"u0": f.u0, "p0": f.p0, "t1": f.t1, "t2": f.t2,
                      "verification_residual": v}
                     for f, v in ranked],
        "diagnostics": {**report.diagnostics, "strip_step_over_zero_spacing":
                        strip_step_over_zero_spacing(w, cfg.integrator)},
    }
    found = len(findings) > 0
    return (0 if found else 1), results, \
        ("conjugate-points-found" if found else "no-conjugate-points")


def _run_foliate(cfg: ExperimentConfig, out_dir: str, timing: dict):
    pot = build_potential(cfg)
    p = cfg.params
    alphas = [float(a) for a in grid(p["alphas"])]
    t0 = time.perf_counter()
    if p["family"] == "N_A":
        fam = build_NA_family(pot, cfg.n, float(p["A"]), alphas,
                              cfg=cfg.integrator, r_min=float(p["r_min"]),
                              r_start=None if p["r_start"] is None else float(p["r_start"]))
    else:
        fam = build_MA_family(pot, cfg.n, float(p["A"]), alphas,
                              cfg=cfg.integrator,
                              r_end=None if p["r_end"] is None else float(p["r_end"]))
    timing["family_seconds"] = time.perf_counter() - t0
    write_family_csv(fam, os.path.join(out_dir, "family.csv"))
    ordering = fam.ordering
    results = {"family": p["family"], "A": float(p["A"]), "alphas": alphas,
               "min_gap": ordering.min_gap,
               "min_dudalpha": ordering.min_dudalpha,
               "coverage": list(ordering.coverage),
               "diagnostics": stepper_work([traj.sol for traj in fam.trajectories])}
    ordered = ordering.verdict == "ordered"
    return (0 if ordered else 1), results, ordering.verdict


def _run_scaling(cfg: ExperimentConfig, out_dir: str, timing: dict):
    w = build_potential(cfg)
    p = cfg.params
    t0 = time.perf_counter()
    fit = scaling_exponent_fit(w, p["N_list"], quad_tol=float(p["quad_tol"]))
    t1 = time.perf_counter()
    timing["fit_seconds"] = t1 - t0
    rows = list(zip(fit.N_list, fit.lhs, fit.rhs))
    # (rhs - lhs) / rhs at the last holding and the first failing N, both
    # integrated by the crossover search
    cross = fit.crossover_N
    margins = None if cross in (None, 1) else [
        {"N": N, "margin": (rhs - lhs) / rhs}
        for N, (lhs, rhs) in zip((cross - 1, cross), (fit.sides(cross - 1), fit.sides(cross)))]
    results = {"N_list": fit.N_list, "lhs": fit.lhs, "rhs": fit.rhs,
               "slope_lhs": fit.slope_lhs, "slope_rhs": fit.slope_rhs,
               "crossover_N": cross, "crossover_margins": margins,
               "identically_zero": fit.identically_zero}
    if fit.identically_zero:
        write_csv(os.path.join(out_dir, "scaling.csv"),
                  ("N", "lhs", "rhs"), rows)
        results["diagnostics"] = fit.sides.diagnostics
        return 1, results, "identically-zero"
    n_lo, n_hi = p["convergence_pair"]
    lo, hi = fit.sides(n_lo), fit.sides(n_hi)
    t2 = time.perf_counter()
    disc = fit.sides.discriminant()
    timing.update(convergence_seconds=t2 - t1,
                  discriminant_seconds=time.perf_counter() - t2)
    rows += [(n_lo, lo[0], lo[1]), (n_hi, hi[0], hi[1])]
    write_csv(os.path.join(out_dir, "scaling.csv"), ("N", "lhs", "rhs"), rows)
    conv_lhs = abs(n_hi**3 * hi[0] - n_lo**3 * lo[0]) / abs(n_hi**3 * hi[0])
    conv_rhs = abs(n_hi**5 * hi[1] - n_lo**5 * lo[1]) / abs(n_hi**5 * hi[1])
    results.update({
        "compensated_convergence": {"lhs_rel_change": conv_lhs,
                                    "rhs_rel_change": conv_rhs},
        "discriminant_N1": {"lhs": disc[0], "rhs": disc[1], "holds": disc[2]},
        "diagnostics": fit.sides.diagnostics,
    })
    ok = (fit.slope_lhs is not None
          and abs(fit.slope_lhs + 3.0) <= SLOPE_TOL
          and abs(fit.slope_rhs + 5.0) <= SLOPE_TOL
          and fit.crossover_N is not None)
    return (0 if ok else 1), results, \
        ("scaling-law-confirmed" if ok else "scaling-law-not-confirmed")


def _run_example446(cfg: ExperimentConfig, out_dir: str, timing: dict):
    phi, psi = build_bumps(cfg)
    p = cfg.params
    u0_grid = None if p["u0_grid"] is None else grid(p["u0_grid"])
    rep = example_446_check(phi, psi, u0_grid, variant=cfg.potential["variant"],
                            fd_step=float(p["fd_step"]))
    timing.update(rep.timing)
    header = ["t"] + ["u_leaf_%d" % j for j in range(len(rep.leaves))]
    rows = np.column_stack([rep.leaves[0].t] + [leaf.u for leaf in rep.leaves]).tolist()
    write_csv(os.path.join(out_dir, "leaves.csv"), header, rows)
    results = {"variant": rep.variant,
               "max_residual": rep.max_residual,
               "min_pairwise_gap": rep.min_pairwise_gap,
               "crossings": rep.crossings,
               "residuals": [leaf.max_residual for leaf in rep.leaves],
               "diagnostics": rep.diagnostics}
    ok = rep.max_residual <= RESIDUAL_TOL and rep.crossings == 0
    return (0 if ok else 1), results, \
        ("leaves-verified" if ok else "leaves-not-verified")


def _random_test_function(rng, r1, r2):
    span = r2 - r1
    width = rng.uniform(0.05 * span, 0.45 * span)
    center = rng.uniform(r1 + width, r2 - width)
    amplitude = rng.uniform(0.2, 2.0) * (-1.0, 1.0)[rng.integers(0, 2)]
    return make_bump(center, width, amplitude)


def _run_hardy(cfg: ExperimentConfig, out_dir: str, timing: dict):
    p = cfg.params
    rel_tol, r1, r2 = float(p["rel_tol"]), float(p["r1"]), float(p["r2"])
    rng = np.random.default_rng(cfg.seed)
    rows, checks, orders = [], [], []
    t0 = time.perf_counter()
    for n in p["n_list"]:
        exact = HARDY_CLOSED_FORMS.get(n)
        if exact is not None:
            lhs, rhs = sides = hardy_identity_check(lambda r: 1.0 - r, n, 0.0, 1.0,
                                                    dxi=lambda r: -1.0)
            rel = abs(lhs - exact) / exact
            rows.append((n, "closed-form", lhs, rhs, rel))
            checks.append(rel <= rel_tol and abs(rhs - exact) <= rel_tol * exact)
            orders += sides.orders
        bumps = [_random_test_function(rng, r1, r2) for _ in range(p["num_random"])]
        sides = hardy_identity_checks(bumps, n, r1, r2)
        for k, (lhs, rhs) in enumerate(zip(*(side.tolist() for side in sides))):
            rel = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)
            rows.append((n, "random-%d" % k, lhs, rhs, rel))
            checks.append(rel <= rel_tol and lhs >= -1e-10)
        orders += [k for side in sides.orders for k in side.tolist()]
    timing["checks_seconds"] = time.perf_counter() - t0
    write_csv(os.path.join(out_dir, "results.csv"),
              ("n", "case", "lhs", "rhs", "rel_err"), rows)
    results = {"num_checks": len(checks),
               "num_passed": int(sum(checks)),
               "max_rel_err": max(r[4] for r in rows),
               "min_lhs": min(r[2] for r in rows),
               "diagnostics": {"integrals": sum(k > 0 for k in orders),
                               "highest_order": max(orders, default=0)}}
    ok = all(checks)
    return (0 if ok else 1), results, \
        ("identity-holds" if ok else "identity-violated")


_RUNNERS = {
    "certify": _run_certify,
    "solve": _run_solve,
    "scan-conjugate": _run_scan,
    "foliate": _run_foliate,
    "rigidity-scaling": _run_scaling,
    "example446": _run_example446,
    "hardy-check": _run_hardy,
}


def run_command(cfg: ExperimentConfig, out_dir: str) -> tuple[int, dict]:
    os.makedirs(out_dir, exist_ok=True)
    t0, timing = time.time(), {}
    code, results, verdict = _RUNNERS[cfg.command](cfg, out_dir, timing)
    report = {"tool": "minfol", "version": __version__,
              "command": cfg.command, "config": cfg.raw,
              "results": results, "verdict": verdict, "exit_code": code}
    write_report(report, out_dir, wall_clock=time.time() - t0, **timing)
    return code, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="minfol",
        description="Minimality certificates, solution foliations and the "
                    "planar rigidity experiment.")
    parser.add_argument("--config", required=True, metavar="PATH",
                        help="JSON experiment configuration")
    parser.add_argument("--out", default="out", metavar="DIR",
                        help="output directory (default: ./out)")
    parser.add_argument("--seed", type=int, default=None, metavar="S",
                        help="random seed (overrides config)")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg.seed = args.seed
            cfg.raw["seed"] = args.seed
        code, _ = run_command(cfg, args.out)
        return code
    except MinfolError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except Exception as exc:  # unexpected failures also map to exit 2
        print("internal error: %s: %s" % (type(exc).__name__, exc),
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
