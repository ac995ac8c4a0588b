"""The benchmark's workloads: inputs made from a seed, one pass through the
CLI entry point, and the checks of every verdict and artifact.

A pass runs each of a workload's configs with `minfol.cli.run_command`, which
writes the same artifacts as the `minfol` command. The checks read those
artifacts back and compare them with `reference` (which does not import
minfol) or with properties the method must have. They use only config keys
and artifacts, so a rewrite of minfol's internals leaves them intact.

An operation is a scan cell, a certificate condition, a Hardy check, a
foliation or explicit-family leaf, or a scaling fit. It fails when its output
disagrees with the check. A problem that belongs to no single operation (a
wrong verdict, a malformed artifact) makes the run incorrect.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

import reference as ref

# Tolerances of the checks; the README lists them per workload.
T2_TOL = 1e-7            # scan t2 against the reference table
VERIFY_TOL = 1e-7        # verification_residual of each scan finding
MARGIN_A_TOL = 1e-8      # condition A margin, absolute
NORM_B_RTOL = 1e-9       # condition B norm, relative
LEAF_OUTER_TOL = 1e-8    # N_A leaf against alpha / r^{n-2} + A beyond r_outer
HARDY_RTOL = 1e-8        # Hardy sides, relative
RESIDUAL_446 = 1e-7      # example446 Newton residual bound
LEAF_446_TOL = 1e-8      # example446 leaf against the reference first-order flow
SLOPE_TOL = 0.15         # scaling slopes around -3 and -5
SIDES_RTOL = 1e-8        # rescaled sides against the reference quadrature
SLOPE_AGREE = 1e-6       # reported slopes against slopes of the reference sides

# Cells the program misses today: DOP853 at max_step = inf steps over the
# support strip. Counted as failed operations; they do not make a run incorrect.
KNOWN_FAULTS = {("planar-scan", "cell u0=-0.25 p0=0.5"),
                ("planar-scan", "cell u0=0.25 p0=-0.5")}


@dataclass
class Tally:
    workload: str
    attempted: int = 0
    failed: list = field(default_factory=list)     # operation labels
    problems: list = field(default_factory=list)   # not tied to one operation

    def op(self, label: str, errors: list) -> None:
        self.attempted += 1
        if errors:
            self.failed.append(label + ": " + "; ".join(errors))

    def expect(self, ok: bool, message: str) -> bool:
        if not ok:
            self.problems.append(message)
        return ok

    def unexpected(self) -> list:
        return self.problems + [f for f in self.failed
                                if (self.workload, f.split(":")[0]) not in KNOWN_FAULTS]


def _bump(spec: tuple) -> dict:
    return {"center": spec[0], "width": spec[1], "amplitude": spec[2]}


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array([[float(x) for x in r] for r in rows[1:]])


class Workload:
    """configs: name -> config dict; the CLI runs them in this order."""

    name = ""
    configs: dict

    def run_pass(self, cli, cfgs: dict, out_dir: str) -> None:
        for key, cfg in cfgs.items():
            cli.run_command(cfg, os.path.join(out_dir, key))

    def check(self, out_dir: str, tally: Tally) -> None:
        raise NotImplementedError

    def _report(self, out_dir, key, tally, verdict):
        rep = _read_json(os.path.join(out_dir, key, "report.json"))
        tally.expect(rep.get("verdict") == verdict and rep.get("exit_code") == 0,
                     "%s: verdict %r exit %r, expected %r exit 0"
                     % (key, rep.get("verdict"), rep.get("exit_code"), verdict))
        return rep["results"]


class PlanarScan(Workload):
    """scan-conjugate on the strong bump over a fixed 5 x 5 (u0, p0) grid.

    The grid does not depend on the seed: the reference table is stored, and
    the two cells of the known fault must be the same in every run."""

    name = "planar-scan"

    def __init__(self, seed: int):
        self.configs = {"scan": {
            "command": "scan-conjugate", "n": 2,
            "potential": {"kind": "product", "f": _bump(ref.SCAN_F),
                          "g": _bump(ref.SCAN_G)},
            "scan": {"u0": list(ref.SCAN_U0), "p0": list(ref.SCAN_P0),
                     "t_start": ref.SCAN_T_START, "n_slide": 1}}}
        self.table = {(c["u0"], c["p0"]): c["t2"]
                      for c in ref.load_scan_table()["cells"]}

    def check(self, out_dir, tally):
        res = self._report(out_dir, "scan", tally, "conjugate-points-found")
        tally.expect(res["num_cells"] == len(self.table)
                     and res["num_failures"] == 0,
                     "scan: %r cells, %r failures" % (res["num_cells"],
                                                      res["num_failures"]))
        found = {(f["u0"], f["p0"]): f for f in res["findings"]}
        _, rows = _read_csv(os.path.join(out_dir, "scan", "findings.csv"))
        csv_t2 = {(r[0], r[1]): r[3] for r in rows}
        tally.expect(csv_t2 == {k: f["t2"] for k, f in found.items()},
                     "scan: findings.csv disagrees with report.json")
        for (u0, p0), t2_ref in self.table.items():
            got = found.get((u0, p0))
            mirror = found.get((-u0, -p0))
            errors = []
            if (got is None) != (t2_ref is None):
                errors.append("reference %s, program %s"
                              % ("hit" if t2_ref is not None else "miss",
                                 "hit" if got is not None else "miss"))
            elif got is not None and abs(got["t2"] - t2_ref) > T2_TOL:
                errors.append("t2 %r vs reference %r" % (got["t2"], t2_ref))
            if got is not None and not got["verification_residual"] <= VERIFY_TOL:
                errors.append("verification residual %r"
                              % got["verification_residual"])
            if (got is None) != (mirror is None) or (
                    got is not None and abs(got["t2"] - mirror["t2"]) > T2_TOL):
                errors.append("differs from the mirrored cell")
            tally.op("cell u0=%r p0=%r" % (u0, p0), errors)


# Copies of configs/certify.json, configs/foliate.json, configs/hardy-check.json
# and configs/example446.json, so that editing those samples does not change
# the benchmark's inputs.
_CERT_F, _CERT_G, _CERT_SCALE = (0.0, 1.0, 1.0), (2.0, 1.0, 1.0), 0.002
_HARDY = {"n_list": [3, 4, 5], "num_random": 20, "r1": 0.1, "r2": 4.0,
          "rel_tol": 1e-8}
_PHI, _PSI = (0.0, 1.0, 1.0), (0.5, 0.5, 1.0)
_LEAF_U0 = (-0.8, 0.8, 11)   # the command's default: phi's support inset by 10%
_ALPHAS = [-0.5, 0.5, 9]


class Minimality(Workload):
    """certify, foliate (N_A), hardy-check (seeded) and example446."""

    name = "minimality"

    def __init__(self, seed: int):
        cert_pot = {"kind": "product", "f": _bump(_CERT_F), "g": _bump(_CERT_G),
                    "scale": _CERT_SCALE}
        self.configs = {
            "certify": {"command": "certify", "n": 3, "potential": cert_pot,
                        "certify": {"x0_offset": 0.0, "grid_points": 2048}},
            "foliate": {"command": "foliate", "n": 3, "potential": cert_pot,
                        "foliate": {"family": "N_A", "A": 0.0,
                                    "alphas": list(_ALPHAS), "r_min": 1e-4}},
            "hardy": {"command": "hardy-check", "n": 3, "seed": int(seed),
                      "hardy": dict(_HARDY)},
            "example446": {"command": "example446", "n": 2, "potential": {
                "kind": "example446", "phi": _bump(_PHI), "psi": _bump(_PSI),
                "variant": "auto"},
                "example446": {"fd_step": 2e-4, "u0_grid": list(_LEAF_U0)}},
        }
        self.pot = ref.ProductPotential(ref.Bump(*_CERT_F), ref.Bump(*_CERT_G),
                                        _CERT_SCALE)
        self._leaf_ref = None

    def check(self, out_dir, tally):
        self._check_certify(out_dir, tally)
        self._check_foliate(out_dir, tally)
        self._check_hardy(out_dir, tally)
        self._check_example446(out_dir, tally)

    def _check_certify(self, out_dir, tally):
        res = self._report(out_dir, "certify", tally, "certified")
        cfg = self.configs["certify"]["certify"]
        margin = ref.condition_A_margin(self.pot, 3, cfg["grid_points"],
                                        cfg["x0_offset"])
        a = res["condition_A"]
        errors = []
        if not abs(a["margin"] - margin) <= MARGIN_A_TOL:
            errors.append("margin %r vs reference %r" % (a["margin"], margin))
        if (a["verdict"] == "certified") != (margin >= 0):
            errors.append("verdict %r with reference margin %r"
                          % (a["verdict"], margin))
        tally.op("condition A", errors)

        norm = ref.condition_B_norm(self.pot, 3)
        s3 = 3 * 1 / 4.0 * 2.0 * math.pi ** 2   # n(n-2)/4 |S^3|
        b = res["condition_B"]
        errors = []
        if not abs(b["norm_value"] / norm - 1.0) <= NORM_B_RTOL:
            errors.append("norm %r vs reference %r" % (b["norm_value"], norm))
        if not abs(b["threshold"] / s3 - 1.0) <= 1e-12:
            errors.append("threshold %r vs S_3 %r" % (b["threshold"], s3))
        if (b["verdict"] == "certified") != (norm <= s3):
            errors.append("verdict %r with reference norm %r"
                          % (b["verdict"], norm))
        tally.op("condition B", errors)

    def _check_foliate(self, out_dir, tally):
        res = self._report(out_dir, "foliate", tally, "ordered")
        spec = self.configs["foliate"]["foliate"]
        alphas = np.linspace(*spec["alphas"][:2], spec["alphas"][2])
        A, n = spec["A"], 3
        tally.expect(np.allclose(res["alphas"], alphas, rtol=0, atol=1e-15),
                     "foliate: alphas %r" % (res["alphas"],))
        header, rows = _read_csv(os.path.join(out_dir, "foliate", "family.csv"))
        if not tally.expect(len(header) == len(alphas) + 1 and len(rows) > 0,
                            "foliate: family.csv header %r" % (header,)):
            return
        r = rows[:, 0]
        outer = r > self.pot.g.hi
        tally.expect(np.count_nonzero(outer) >= 4,
                     "foliate: family.csv has no rows beyond r_outer")
        for j, alpha in enumerate(alphas):
            u = rows[:, j + 1]
            errors = []
            dev = np.max(np.abs(u[outer] - (alpha / r[outer] ** (n - 2) + A)))
            if not dev <= LEAF_OUTER_TOL:
                errors.append("outer form off by %r" % dev)
            if j > 0 and not np.all(u > rows[:, j]):
                errors.append("not above leaf %d on every row" % (j - 1))
            tally.op("N_A leaf alpha=%r" % float(alpha), errors)

    def _check_hardy(self, out_dir, tally):
        self._report(out_dir, "hardy", tally, "identity-holds")
        closed = {3: 0.25, 4: 1.0 / 6.0}
        expected = []
        for n in _HARDY["n_list"]:
            if n in closed:
                expected.append((n, "closed-form"))
            expected += [(n, "random-%d" % k) for k in range(_HARDY["num_random"])]
        with open(os.path.join(out_dir, "hardy", "results.csv"), newline="",
                  encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        if not tally.expect([(int(r[0]), r[1]) for r in rows] == expected,
                            "hardy: results.csv cases differ from the config"):
            return
        for n_s, case, lhs_s, rhs_s, _ in rows:
            n, lhs, rhs = int(n_s), float(lhs_s), float(rhs_s)
            errors = []
            if case == "closed-form":
                for side, v in (("lhs", lhs), ("rhs", rhs)):
                    if not abs(v - closed[n]) <= HARDY_RTOL * closed[n]:
                        errors.append("%s %r vs closed form %r" % (side, v, closed[n]))
            else:
                if not abs(lhs - rhs) <= HARDY_RTOL * max(abs(lhs), abs(rhs)):
                    errors.append("lhs %r != rhs %r" % (lhs, rhs))
                if not lhs > 0:
                    errors.append("lhs %r not positive" % lhs)
            tally.op("hardy n=%d %s" % (n, case), errors)

    def _check_example446(self, out_dir, tally):
        res = self._report(out_dir, "example446", tally, "leaves-verified")
        tally.expect(res["variant"] == "chain-rule",
                     "example446: variant %r" % res["variant"])
        header, rows = _read_csv(os.path.join(out_dir, "example446", "leaves.csv"))
        phi, psi = ref.Bump(*_PHI), ref.Bump(*_PSI)
        u0s = np.linspace(*_LEAF_U0)
        if not tally.expect(len(header) == len(u0s) + 1
                            and len(res["residuals"]) == len(u0s),
                            "example446: %d leaf columns" % (len(header) - 1)):
            return
        ts = rows[:, 0]
        if self._leaf_ref is None or not np.array_equal(self._leaf_ref[0], ts):
            t0 = psi.lo - 0.5
            self._leaf_ref = (ts, [ref.first_order_leaf(phi, psi, u0, t0, ts)
                                   for u0 in u0s])
        for j, u0 in enumerate(u0s):
            u = rows[:, j + 1]
            errors = []
            if not res["residuals"][j] <= RESIDUAL_446:
                errors.append("residual %r" % res["residuals"][j])
            dev = float(np.max(np.abs(u - self._leaf_ref[1][j])))
            if not dev <= LEAF_446_TOL:
                errors.append("off the reference flow by %r" % dev)
            if j > 0 and not np.all(u > rows[:, j]):
                errors.append("crosses leaf %d" % (j - 1))
            tally.op("example446 leaf u0=%r" % float(u0), errors)


SCALING_N = [4, 8, 16, 32]
SCALING_PAIR = [64, 128]
SCALING_CONFIG_BUMP = ((0.0, 1.0, 0.2), (2.0, 0.8, 0.1))  # rigidity-scaling.json
FAMILY_SIZE = 15


def scaling_family(seed: int, size: int = FAMILY_SIZE) -> list:
    """Gentle product bumps f(u) g(r), drawn from the seed. sup |W| e^{2t}
    stays small, so both sides are in their asymptotic regime at N >= 4.
    f stays centred at u = 0: the quadrature then reaches the same order on
    every member, so the work of a pass does not depend on the seed."""
    rng = np.random.default_rng(seed)
    family = []
    for _ in range(size):
        sign = float(rng.choice((-1.0, 1.0)))
        f = (0.0, round(float(rng.uniform(0.8, 1.2)), 6),
             round(sign * float(rng.uniform(0.1, 0.3)), 6))
        g = (round(float(rng.uniform(1.8, 2.4)), 6),
             round(float(rng.uniform(0.6, 1.0)), 6),
             round(float(rng.uniform(0.05, 0.15)), 6))
        family.append((f, g))
    return family


class ScalingLaw(Workload):
    """rigidity-scaling on the config's bump and a seeded family of bumps."""

    name = "scaling-law"

    def __init__(self, seed: int):
        self.bumps = {"config": SCALING_CONFIG_BUMP}
        for k, fg in enumerate(scaling_family(seed)):
            self.bumps["family-%02d" % k] = fg
        self.configs = {key: {
            "command": "rigidity-scaling", "n": 2,
            "potential": {"kind": "product", "f": _bump(f), "g": _bump(g)},
            "scaling": {"N_list": list(SCALING_N), "quad_tol": 1e-12,
                        "convergence_pair": list(SCALING_PAIR)}}
            for key, (f, g) in self.bumps.items()}
        self._sides = {}

    def _ref_sides(self, key, Ns):
        f, g = self.bumps[key]
        pot = ref.ProductPotential(ref.Bump(*f), ref.Bump(*g))
        cache = self._sides.setdefault(key, {})
        missing = [N for N in Ns if N not in cache]
        if missing:
            cache.update(ref.rescaled_sides(pot, missing))
        return cache

    def check(self, out_dir, tally):
        for key in self.configs:
            rep = _read_json(os.path.join(out_dir, key, "report.json"))
            res = rep["results"]
            _, rows = _read_csv(os.path.join(out_dir, key, "scaling.csv"))
            Ns = [int(N) for N in rows[:, 0]]
            cross = res.get("crossover_N")
            sides = self._ref_sides(key, Ns + ([int(cross)] if cross else []))
            errors = []
            if rep.get("verdict") != "scaling-law-confirmed" or rep.get("exit_code") != 0:
                errors.append("verdict %r" % rep.get("verdict"))
            if Ns[:len(SCALING_N)] != SCALING_N or res["N_list"] != SCALING_N:
                errors.append("N rows %r" % Ns)
            for N, lhs, rhs in zip(Ns, rows[:, 1].tolist(), rows[:, 2].tolist()):
                for side, v, r in (("lhs", lhs, sides[N][0]), ("rhs", rhs, sides[N][1])):
                    if not abs(v - r) <= SIDES_RTOL * abs(r):
                        errors.append("%s(N=%d) %r vs reference %r" % (side, N, v, r))
            slopes = (ref.loglog_slope(SCALING_N, [sides[N][0] for N in SCALING_N]),
                      ref.loglog_slope(SCALING_N, [sides[N][1] for N in SCALING_N]))
            for name, got, own, law in (("lhs", res["slope_lhs"], slopes[0], -3.0),
                                        ("rhs", res["slope_rhs"], slopes[1], -5.0)):
                if not abs(own - law) <= SLOPE_TOL:
                    errors.append("reference %s slope %r" % (name, own))
                if got is None or not abs(got - own) <= SLOPE_AGREE:
                    errors.append("%s slope %r vs reference %r" % (name, got, own))
            if cross is None or not sides[int(cross)][0] > sides[int(cross)][1]:
                errors.append("LHS <= RHS at the reported crossover N=%r" % cross)
            tally.op("fit %s" % key, errors)


WORKLOADS = {w.name: w for w in (PlanarScan, Minimality, ScalingLaw)}
