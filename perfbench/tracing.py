"""Per-layer numbers for the traced run: spans around minfol's public
functions, and probes that time single calls on fixed inputs.

Spans are recorded from the benchmark's own files: each public function is
replaced, at the name its caller looks it up by, with a wrapper that records
(name, layer, start, end, parent). The spans stay in memory and are written
out when the run ends. A layer's self time is the duration of its spans minus
the part their child spans cover; potential evaluation inside solver
callbacks is not wrapped, so it counts toward its caller.

A wrapped or probed name that a later version of minfol no longer has is
reported as absent (on stderr) and the run carries on.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import os
import statistics
import sys
import tempfile
import time
import traceback

LAYERS = ("cli", "rigidity", "jacobi", "odeflow", "certify", "foliation",
          "potential", "reporting")

# (module, attribute, layer): the module is where the caller looks the name up.
WRAPPED = [
    ("minfol.cli", "run_command", "cli"),
    ("minfol.cli", "conjugate_point_scan", "rigidity"),
    ("minfol.cli", "verify_finding", "rigidity"),
    ("minfol.cli", "scaling_exponent_fit", "rigidity"),
    ("minfol.cli", "rescaled_inequality_sides", "rigidity"),
    ("minfol.cli", "discriminant_inequality_check", "rigidity"),
    ("minfol.rigidity", "rescaled_inequality_sides", "rigidity"),
    ("minfol.rigidity", "integrate_hamiltonian", "odeflow"),
    ("minfol.rigidity", "integrate_jacobi", "jacobi"),
    ("minfol.foliation", "integrate_radial_ivp", "odeflow"),
    ("minfol.cli", "check_condition_A", "certify"),
    ("minfol.cli", "check_condition_B", "certify"),
    ("minfol.cli", "hardy_identity_check", "certify"),
    ("minfol.cli", "build_NA_family", "foliation"),
    ("minfol.cli", "example_446_check", "foliation"),
    ("minfol.cli", "select_example_446_variant", "foliation"),
    ("minfol.foliation", "example_446_check", "foliation"),
    ("minfol.cli", "to_log_form", "potential"),
    ("minfol.foliation", "to_log_form", "potential"),
    ("minfol.foliation", "example_446_potential", "potential"),
    ("minfol.certify", "u_bound_function", "potential"),
    ("minfol.potential.RadialCurvatureEnvelope", "__call__", "potential"),
    ("minfol.cli", "write_report", "reporting"),
    ("minfol.cli", "write_csv", "reporting"),
    ("minfol.cli", "write_findings_csv", "reporting"),
    ("minfol.cli", "write_family_csv", "reporting"),
]


def absent(name: str, exc: BaseException) -> None:
    print("perfbench: %s absent (%s: %s)" % (name, type(exc).__name__, exc),
          file=sys.stderr)


def _resolve(path: str):
    """A module, or a class inside one, by dotted path."""
    try:
        return importlib.import_module(path)
    except ImportError:
        mod, _, attr = path.rpartition(".")
        return getattr(importlib.import_module(mod), attr)


class Tracer:
    """Installs the wrappers while active and keeps every span in memory."""

    def __init__(self):
        self.spans = []      # [name, layer, start, end, parent index]
        self._stack = []
        self._saved = []

    def _wrap(self, fn, name, layer):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, layer, time.perf_counter(), None,
                          stack[-1] if stack else None])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][3] = time.perf_counter()
        return traced

    def __enter__(self):
        for path, attr, layer in WRAPPED:
            try:
                owner = _resolve(path)
                fn = getattr(owner, attr)
            except (ImportError, AttributeError) as exc:
                absent("%s.%s" % (path, attr), exc)
                continue
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, "%s.%s" % (path, attr), layer))
        return self

    def __exit__(self, *exc):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()
        return False

    def layer_totals(self, first: int = 0) -> dict:
        """layer -> (self seconds, calls) over spans[first:]."""
        spans = self.spans[first:]
        child = [0.0] * len(spans)
        for name, layer, start, end, parent in spans:
            if parent is not None and parent >= first:
                child[parent - first] += end - start
        totals = {layer: [0.0, 0] for layer in LAYERS}
        for k, (name, layer, start, end, parent) in enumerate(spans):
            totals[layer][0] += (end - start) - child[k]
            totals[layer][1] += 1
        return totals

    def dump(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "layer", "start", "end", "parent"],
                       "spans": self.spans}, fh)


def _timed(fn, reps: int) -> tuple[float, object]:
    """Median seconds of reps calls, and the last result."""
    times, out = [], None
    for _ in range(reps):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), out


def run_probes(out_dir: str) -> dict:
    """Each probe times one public function on fixed inputs."""
    import numpy as np

    metrics = {}
    try:
        from minfol import certify as C
        from minfol import foliation as F
        from minfol import jacobi as J
        from minfol import odeflow as O
        from minfol import potential as P
        from minfol import reporting as W
        from minfol import rigidity as R
        strong = P.product_potential(P.make_bump(0.0, 1.0, -6.0),
                                     P.make_bump(2.0, 1.0, 1.0))
        gentle = P.product_potential(P.make_bump(0.0, 1.0, 0.2),
                                     P.make_bump(2.0, 0.8, 0.1))
        cert = P.scale_potential(P.product_potential(
            P.make_bump(0.0, 1.0, 1.0), P.make_bump(2.0, 1.0, 1.0)), 0.002)
        ws, wg, wc = P.to_log_form(strong), P.to_log_form(gentle), P.to_log_form(cert)
        t_end = ws.t_upper + 10.0
        span_cfg = O.IntegratorConfig(t_range=(-2.0, t_end))
        state = O.PhaseState(u=0.25, p=0.25, t=-2.0)
    except Exception as exc:  # the probes' inputs cannot be built: all absent
        absent("every probe", exc)
        return metrics
    traj, found, family = [], [], []

    def scalar_eval():
        batch = 2000
        sec, _ = _timed(lambda: [ws.dw_du(0.1, 0.5) for _ in range(batch)], 5)
        return {"potential.scalar_eval_us": sec / batch * 1e6}

    def array_eval():
        x, _ = np.polynomial.legendre.leggauss(96)
        vu = wg.u_bound * x
        vt = 0.5 * (wg.t_upper - wg.t_lower) * x + 0.5 * (wg.t_upper + wg.t_lower)
        V, T = vu[:, None], vt[None, :]
        sec, _ = _timed(lambda: (wg.w(V, T), wg.dw_du(V, T), wg.dw_dt(V, T)), 20)
        return {"potential.array_eval_ns_per_point": sec / (len(vu) * len(vt)) * 1e9}

    def log_form():
        return {"potential.log_form_ms": _timed(lambda: P.to_log_form(strong), 5)[0] * 1e3}

    def envelope_point():
        env = P.u_bound_function(cert, 3)
        return {"potential.envelope_point_ms": _timed(lambda: env(2.0), 20)[0] * 1e3}

    def flow_solve():
        sec, tr = _timed(lambda: O.integrate_hamiltonian(ws, state, span_cfg), 5)
        traj.append(tr)
        return {"odeflow.flow_solve_ms": sec * 1e3,
                "odeflow.flow_steps": len(tr.sol.ts) - 1}

    def radial_leaf():
        r0, alpha = 6.0, 0.25
        cfg = O.IntegratorConfig(t_range=(math.log(r0), math.log(1e-4)))
        sec, _ = _timed(lambda: O.integrate_radial_ivp(
            cert, 3, r0, alpha / r0, -alpha / r0 ** 2, cfg, w=wc), 5)
        return {"odeflow.radial_leaf_ms": sec * 1e3}

    def jacobi_field():
        sec, fld = _timed(lambda: J.integrate_jacobi(
            traj[0], 0.0, 1.0, mode="log-form", cfg=span_cfg, t_init=-2.0), 5)
        return {"jacobi.field_ms": sec * 1e3, "jacobi.field_steps": len(fld.sol.ts) - 1}

    def scan_cell():
        sec, rep = _timed(lambda: R.conjugate_point_scan(ws, [0.25], [0.25], -2.0, t_end), 3)
        found.extend(rep.findings)
        return {"rigidity.scan_cell_ms": sec * 1e3}

    def verify():
        sec, _ = _timed(lambda: R.verify_finding(ws, found[0], O.IntegratorConfig(),
                                                 t_end=t_end), 3)
        return {"rigidity.verify_ms": sec * 1e3}

    def sides():
        return {"rigidity.sides_ms":
                _timed(lambda: R.rescaled_inequality_sides(wg, 8, 1e-12), 5)[0] * 1e3}

    def hardy():
        xi = P.make_bump(1.5, 0.8, 1.0)
        return {"certify.hardy_check_ms":
                _timed(lambda: C.hardy_identity_check(xi, 3, 0.1, 4.0), 3)[0] * 1e3}

    def condition_a():
        return {"certify.condition_a_ms":
                _timed(lambda: C.check_condition_A(cert, 3, grid_points=64), 3)[0] * 1e3}

    def condition_b():
        return {"certify.condition_b_ms":
                _timed(lambda: C.check_condition_B(cert, 3), 3)[0] * 1e3}

    def na_family():
        sec, fam = _timed(lambda: F.build_NA_family(cert, 3, 0.0, [-0.25, 0.0, 0.25]), 3)
        family.append(fam)
        return {"foliation.family_ms": sec * 1e3}

    def example446():
        phi, psi = P.make_bump(0.0, 1.0, 1.0), P.make_bump(0.5, 0.5, 1.0)
        return {"foliation.example446_ms": _timed(lambda: F.example_446_check(
            phi, psi, [-0.5, 0.0, 0.5], variant="chain-rule"), 3)[0] * 1e3}

    def write():
        report = {"tool": "minfol", "command": "foliate",
                  "results": {"alphas": [-0.25, 0.0, 0.25]}, "verdict": "ordered"}
        os.makedirs(out_dir, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=out_dir) as out:
            def artifacts():
                W.write_family_csv(family[0], os.path.join(out, "family.csv"))
                W.write_report(report, out, wall_clock=0.0)
            return {"reporting.write_ms": _timed(artifacts, 5)[0] * 1e3}

    for body in (scalar_eval, array_eval, log_form, envelope_point, flow_solve,
                 radial_leaf, jacobi_field, scan_cell, verify, sides, hardy,
                 condition_a, condition_b, na_family, example446, write):
        try:
            metrics.update(body())
        except Exception as exc:  # a renamed or removed function: report, go on
            absent("probe %s" % body.__name__, exc)
            traceback.print_exc(limit=2, file=sys.stderr)
    return metrics
