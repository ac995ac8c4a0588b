"""JSON experiment configuration: parsing, validation, defaults."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Optional

from .errors import ConfigError
from .odeflow import IntegratorConfig
from .potential import (ProductPotential, make_bump, product_potential,
                        scale_potential, zero_potential)

COMMANDS = ("certify", "solve", "scan-conjugate", "foliate",
            "rigidity-scaling", "example446", "hardy-check")

_TOP_KEYS = {"command", "n", "seed", "potential", "integrator",
             "certify", "solve", "scan", "foliate", "scaling", "example446",
             "hardy"}

_SECTION_KEYS = {
    "potential": {"kind", "f", "g", "phi", "psi", "variant", "u_bound",
                  "r_inner", "r_outer", "scale"},
    "integrator": {"rel_tol", "abs_tol", "max_step", "event_tol"},
    "certify": {"x0_offset", "grid_points"},
    "solve": {"r0", "u0", "du0", "r_end", "samples"},
    "scan": {"u0", "p0", "t_start", "t_end", "n_slide"},
    "foliate": {"family", "A", "alphas", "r_min", "r_start", "r_end"},
    "scaling": {"N_list", "quad_tol", "convergence_pair"},
    "example446": {"u0_grid", "fd_step"},
    "hardy": {"n_list", "num_random", "r1", "r2", "rel_tol"},
}

_BUMP_KEYS = {"center", "width", "amplitude"}

_DEFAULTS = {
    "certify": {"x0_offset": 0.0, "grid_points": 2048},
    "solve": {"r0": None, "u0": 0.0, "du0": 0.0, "r_end": None, "samples": 512},
    "scan": {"u0": [-0.5, 0.5, 11], "p0": [-0.5, 0.5, 11],
             "t_start": -2.0, "t_end": None, "n_slide": 1},
    "foliate": {"family": "N_A", "A": 0.0, "alphas": [-0.5, 0.5, 9],
                "r_min": 1e-4, "r_start": None, "r_end": None},
    "scaling": {"N_list": [4, 8, 16, 32], "quad_tol": 1e-12,
                "convergence_pair": [64, 128]},
    "example446": {"u0_grid": None, "fd_step": 2e-4},
    "hardy": {"n_list": [3, 4, 5], "num_random": 20, "r1": 0.1, "r2": 4.0,
              "rel_tol": 1e-8},
}

_COMMAND_SECTION = {"certify": "certify", "solve": "solve",
                    "scan-conjugate": "scan", "foliate": "foliate",
                    "rigidity-scaling": "scaling", "example446": "example446",
                    "hardy-check": "hardy"}


@dataclass
class ExperimentConfig:
    command: str
    n: int = 3
    seed: int = 0
    potential: dict = field(default_factory=lambda: {"kind": "zero"})
    integrator: IntegratorConfig = IntegratorConfig()
    params: dict = field(default_factory=dict)   # command-specific section
    raw: dict = field(default_factory=dict)      # validated config echo


def _reject_unknown(section: str, given: dict, allowed: set) -> None:
    for key in given:
        if key not in allowed:
            raise ConfigError("unknown key %r in section %r" % (key, section))


def _bump_spec(section: str, name: str, given: Any) -> dict:
    if not isinstance(given, dict):
        raise ConfigError("%s.%s must be an object with center/width/amplitude"
                          % (section, name))
    _reject_unknown("%s.%s" % (section, name), given, _BUMP_KEYS)
    missing = _BUMP_KEYS - set(given)
    if missing:
        raise ConfigError("%s.%s missing keys %s"
                          % (section, name, sorted(missing)))
    return {k: float(given[k]) for k in _BUMP_KEYS}


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _check_scaling(params: dict) -> None:
    N_list, pair, tol = (params[k] for k in ("N_list", "convergence_pair", "quad_tol"))
    if not (isinstance(N_list, list) and len(N_list) >= 3
            and all(_is_int(N) and N >= 1 for N in N_list)
            and all(b > a for a, b in zip(N_list, N_list[1:]))):
        raise ConfigError("scaling.N_list must hold >= 3 strictly increasing "
                          "integers >= 1, got %r" % (N_list,))
    if not (isinstance(pair, list) and len(pair) == 2 and all(map(_is_int, pair))
            and 1 <= pair[0] < pair[1]):
        raise ConfigError("scaling.convergence_pair must be two integers "
                          "1 <= a < b, got %r" % (pair,))
    if not (isinstance(tol, (int, float)) and not isinstance(tol, bool)
            and math.isfinite(tol) and tol > 0):
        raise ConfigError("scaling.quad_tol must be a finite number > 0, got %r"
                          % (tol,))


def validate_config(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    _reject_unknown("<root>", data, _TOP_KEYS)
    command = data.get("command")
    if command not in COMMANDS:
        raise ConfigError("field 'command' must be one of %s, got %r"
                          % (list(COMMANDS), command))
    n = int(data.get("n", 3))
    if n < 2:
        raise ConfigError("field 'n' must be an integer >= 2")
    if command in ("certify", "foliate") and n < 3:
        raise ConfigError("command %r requires n >= 3 "
                          "(pointwise/norm conditions are void at n = 2)"
                          % command)
    if command in ("scan-conjugate", "rigidity-scaling", "example446") and n != 2:
        raise ConfigError("command %r is a planar (n = 2) experiment" % command)

    seed = int(data.get("seed", 0))

    pot_spec = dict(data.get("potential", {"kind": "zero"}))
    _reject_unknown("potential", pot_spec, _SECTION_KEYS["potential"])
    kind = pot_spec.get("kind", "zero")
    if kind not in ("zero", "product", "example446"):
        raise ConfigError("potential.kind must be zero|product|example446, "
                          "got %r" % kind)
    if kind == "product":
        pot_spec["f"] = _bump_spec("potential", "f", pot_spec.get("f"))
        pot_spec["g"] = _bump_spec("potential", "g", pot_spec.get("g"))
    elif kind == "example446":
        pot_spec["phi"] = _bump_spec("potential", "phi", pot_spec.get("phi"))
        pot_spec["psi"] = _bump_spec("potential", "psi", pot_spec.get("psi"))
        variant = pot_spec.setdefault("variant", "auto")
        if variant not in ("auto", "as-printed", "chain-rule"):
            raise ConfigError("potential.variant must be "
                              "auto|as-printed|chain-rule, got %r" % variant)
    else:
        pot_spec.setdefault("u_bound", 1.0)
        pot_spec.setdefault("r_inner", 1.0)
        pot_spec.setdefault("r_outer", 3.0)
    if command == "example446" and kind != "example446":
        raise ConfigError("command 'example446' requires "
                          "potential.kind = 'example446'")

    integ = dict(data.get("integrator", {}))
    _reject_unknown("integrator", integ, _SECTION_KEYS["integrator"])
    integrator = IntegratorConfig(
        rel_tol=float(integ.get("rel_tol", 1e-10)),
        abs_tol=float(integ.get("abs_tol", 1e-10)),
        max_step=float(integ["max_step"]) if integ.get("max_step") else float("inf"),
        event_tol=float(integ.get("event_tol", 1e-12)))

    section = _COMMAND_SECTION[command]
    given = dict(data.get(section, {}))
    _reject_unknown(section, given, _SECTION_KEYS[section])
    params = dict(_DEFAULTS[section])
    params.update(given)
    if section == "foliate" and params["family"] not in ("N_A", "M_A"):
        raise ConfigError("foliate.family must be N_A or M_A, got %r"
                          % params["family"])
    if section == "scaling":
        _check_scaling(params)

    echo = {"command": command, "n": n, "seed": seed,
            "potential": pot_spec,
            "integrator": {"rel_tol": integrator.rel_tol,
                           "abs_tol": integrator.abs_tol,
                           "event_tol": integrator.event_tol},
            section: params}
    return ExperimentConfig(command=command, n=n, seed=seed,
                            potential=pot_spec, integrator=integrator,
                            params=params, raw=echo)


def _finite(literal: str, kind=float):
    """A JSON number literal, or a NaN/Infinity that json accepts, as kind."""
    if not math.isfinite(float(literal)):
        raise ConfigError("config number %s is not finite" % literal)
    return kind(literal)


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh, parse_float=_finite, parse_constant=_finite,
                             parse_int=lambda literal: _finite(literal, int))
    except OSError as exc:
        raise ConfigError("cannot read config %r: %s" % (path, exc)) from exc
    except json.JSONDecodeError as exc:
        raise ConfigError("config %r: parse error at line %d column %d: %s"
                          % (path, exc.lineno, exc.colno, exc.msg)) from exc
    return validate_config(data)


def build_potential(cfg: ExperimentConfig) -> Optional[ProductPotential]:
    spec = cfg.potential
    kind = spec["kind"] if "kind" in spec else "zero"
    if kind == "zero":
        return zero_potential(u_bound=float(spec.get("u_bound", 1.0)),
                              r_inner=float(spec.get("r_inner", 1.0)),
                              r_outer=float(spec.get("r_outer", 3.0)))
    if kind == "product":
        f = make_bump(**spec["f"])
        g = make_bump(**spec["g"])
        pot = product_potential(f, g)
        scale = float(spec.get("scale", 1.0))
        if scale != 1.0:
            pot = scale_potential(pot, scale)
        return pot
    return None  # example446 potentials are built from phi/psi in the runner


def build_bumps(cfg: ExperimentConfig):
    spec = cfg.potential
    return make_bump(**spec["phi"]), make_bump(**spec["psi"])
