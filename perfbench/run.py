"""The minfol benchmark: one command, three workloads.

    python3 perfbench/run.py --workload planar-scan --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; minfol is imported from its `src/`, so
nothing has to be installed. With `--trace 0` the last line of standard
output is a JSON object with the end-to-end metrics (setup_s, run_s,
peak_rss_mb); with `--trace 1` it holds the per-layer metrics instead. See
perfbench/README.md for the workloads, the checks and the metric map.

The command runs each measurement in a child process of its own, so that
set-up (which includes importing minfol) and peak memory are those of a
fresh process:

* SETUP_SAMPLES - 1 children only set up and report when they are ready;
* one more child sets up, then runs whole passes of the workload until
  --seconds have passed, checking every pass's artifacts.

setup_s is the median over all SETUP_SAMPLES set-ups, run_s the median pass.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_SAMPLES = 3
BUDGET_S = 170.0   # the whole command ends within 180 s
ONE_THREAD = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
WORKLOAD_NAMES = ("planar-scan", "minimality", "scaling-law")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: set by the parent when it starts a child
    ap.add_argument("--role", choices=("main", "setup", "measure"),
                    default="main", help=argparse.SUPPRESS)
    ap.add_argument("--t-launch", type=float, default=None, help=argparse.SUPPRESS)
    return ap.parse_args(argv)


# ---------------------------------------------------------------- child side

def set_up(name: str, seed: int):
    """Import minfol, generate and validate the configs, build the potentials."""
    sys.path[:0] = [SRC, HERE]
    from minfol import cli
    from minfol.config import validate_config
    from workloads import WORKLOADS

    wl = WORKLOADS[name](seed)
    # through JSON text, as a config file reaches the CLI
    cfgs = {key: validate_config(json.loads(json.dumps(spec)))
            for key, spec in wl.configs.items()}
    try:
        from minfol.config import build_bumps, build_potential
        from minfol.potential import example_446_potential, to_log_form
    except ImportError as exc:
        from tracing import absent
        absent("potential set-up", exc)
        return cli, wl, cfgs
    for cfg in cfgs.values():
        if cfg.command == "example446":
            example_446_potential(*build_bumps(cfg))
        elif cfg.command != "hardy-check":
            to_log_form(build_potential(cfg))
    return cli, wl, cfgs


def measure(args, cli, wl, cfgs) -> dict:
    from tracing import LAYERS, Tracer, run_probes
    from workloads import Tally

    out = os.path.join(OUT, "%s-%d" % (wl.name, os.getpid()))
    tally = Tally(wl.name)
    plain, traced, layers = [], [], []
    probes = run_probes(out) if args.trace else {}
    tracer = Tracer()
    deadline = time.monotonic() + args.seconds
    try:
        while True:
            t0 = time.perf_counter()
            wl.run_pass(cli, cfgs, out)
            plain.append(time.perf_counter() - t0)
            wl.check(out, tally)
            if args.trace:
                first = len(tracer.spans)
                with tracer:
                    t0 = time.perf_counter()
                    wl.run_pass(cli, cfgs, out)
                    traced.append(time.perf_counter() - t0)
                layers.append(tracer.layer_totals(first))
                wl.check(out, tally)
            if time.monotonic() >= deadline:
                break
    finally:
        shutil.rmtree(out, ignore_errors=True)
    result = {"attempted": tally.attempted, "failed": tally.failed,
              "unexpected": tally.unexpected(), "run_s": plain,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if args.trace:
        tracer.dump(os.path.join(OUT, "trace-%s-seed%d.json" % (wl.name, args.seed)))
        per_layer = dict(probes)
        for layer in LAYERS:
            per_layer[layer + ".self_s"] = statistics.median(t[layer][0] for t in layers)
            per_layer[layer + ".calls"] = layers[0][layer][1]
        per_layer["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
        result["per_layer"] = per_layer
    return result


def child(args) -> int:
    cli, wl, cfgs = set_up(args.workload, args.seed)
    setup_s = time.monotonic() - args.t_launch
    result = {"setup_s": setup_s}
    if args.role == "measure":
        result.update(measure(args, cli, wl, cfgs))
    print(json.dumps(result))
    return 0


# --------------------------------------------------------------- parent side

def spawn(args, role: str, deadline: float) -> dict:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--role", role]
    env = dict(os.environ, **ONE_THREAD)
    t_launch = time.monotonic()
    proc = subprocess.run(cmd + ["--t-launch", repr(t_launch)], env=env, cwd=ROOT,
                          stdout=subprocess.PIPE, text=True,
                          timeout=max(deadline - t_launch, 1.0))
    if proc.returncode != 0:
        raise RuntimeError("%s child exited with %d" % (role, proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def unit_of(name: str) -> str:
    for suffix, unit in (("_us", "us"), ("_ms", "ms"), ("_ns_per_point", "ns"),
                         ("_s", "s"), ("_mb", "MB")):
        if name.endswith(suffix):
            return unit
    return "count"


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.role != "main":
        return child(args)
    if not os.path.isfile(os.path.join(SRC, "minfol", "__init__.py")):
        print("perfbench: no minfol sources under %s" % SRC, file=sys.stderr)
        return 2
    deadline = time.monotonic() + BUDGET_S
    try:
        setups = [] if args.trace else [spawn(args, "setup", deadline)["setup_s"]
                                        for _ in range(SETUP_SAMPLES - 1)]
        res = spawn(args, "measure", deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1
    setups.append(res["setup_s"])
    if args.trace:
        values = res["per_layer"]
    else:
        values = {"setup_s": statistics.median(setups),
                  "run_s": statistics.median(res["run_s"]),
                  "peak_rss_mb": res["peak_rss_mb"]}
    for kind in ("failed", "unexpected"):
        for line, times in sorted(collections.Counter(res[kind]).items()):
            print("%s (%d x): %s" % (kind, times, line))
    print("%s seed %d: %d passes, run_s %s, setup_s %s" % (
        args.workload, args.seed, len(res["run_s"]),
        ["%.3f" % t for t in res["run_s"]], ["%.3f" % t for t in setups]))
    print(json.dumps({"correct": not res["unexpected"],
                      "attempted": res["attempted"],
                      "failed": len(res["failed"]),
                      "metrics": {k: {"value": v, "unit": unit_of(k)}
                                  for k, v in values.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
