"""JSON experiment configuration: parsing, validation, defaults.

`_COMMANDS` says, for each command, every config key it reads. A config
that sets any other key is an error, so a run never drops a setting."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, NamedTuple

import numpy as np

from .errors import ConfigError
from .odeflow import IntegratorConfig
from .potential import (ProductPotential, make_bump, product_potential,
                        scale_potential, zero_potential)


class _Command(NamedTuple):
    section: str
    defaults: dict       # the section's keys and their defaults
    min_n: int
    planar: bool
    kinds: tuple         # the potential kinds it builds
    integrator: bool     # whether it reads the integrator section


_RADIAL = ("zero", "product")

_COMMANDS = {
    "certify": _Command("certify", {"x0_offset": 0.0, "grid_points": 2048},
                        3, False, _RADIAL, False),
    "solve": _Command("solve", {"r0": None, "u0": 0.0, "du0": 0.0, "r_end": None,
                                "samples": 512}, 2, False, _RADIAL, True),
    "scan-conjugate": _Command("scan", {"u0": [-0.5, 0.5, 11], "p0": [-0.5, 0.5, 11],
                                        "t_start": -2.0, "t_end": None, "n_slide": 1},
                               2, True, _RADIAL, True),
    "foliate": _Command("foliate", {"family": "N_A", "A": 0.0, "alphas": [-0.5, 0.5, 9],
                                    "r_min": 1e-4, "r_start": None, "r_end": None},
                        3, False, _RADIAL, True),
    "rigidity-scaling": _Command("scaling", {"N_list": [4, 8, 16, 32], "quad_tol": 1e-12,
                                             "convergence_pair": [64, 128]},
                                 2, True, _RADIAL, False),
    "example446": _Command("example446", {"u0_grid": None, "fd_step": 2e-4},
                           2, True, ("example446",), False),
    "hardy-check": _Command("hardy", {"n_list": [3, 4, 5], "num_random": 20, "r1": 0.1,
                                      "r2": 4.0, "rel_tol": 1e-8}, 2, False, (), False),
}

COMMANDS = tuple(_COMMANDS)

# kind -> the keys of a potential of that kind and their defaults; None marks
# a bump, which has no default
_POTENTIAL_KEYS = {"zero": {"u_bound": 1.0, "r_inner": 1.0, "r_outer": 3.0},
                   "product": {"f": None, "g": None, "scale": 1.0},
                   "example446": {"phi": None, "psi": None, "variant": "auto"}}

_INTEGRATOR = {"rel_tol": 1e-10, "abs_tol": 1e-10, "max_step": math.inf}

# hardy-check's closed-form cases: n -> the identity's two sides for xi = 1 - r
# on [0, 1], int_0^1 r^{n-1} - ((n-2)/2)^2 r^{n-3} (1 - r)^2 dr
HARDY_CLOSED_FORMS = {3: 0.25, 4: 1.0 / 6.0}

_BUMP = dict.fromkeys(("center", "width", "amplitude"), 0.0)

# keys whose null default the command works out: radii (> 0) and the scan's end
_NULLABLE = {"solve": ("r0", "r_end"), "scan": ("t_end",), "foliate": ("r_start", "r_end")}
_GRIDS = {"scan": ("u0", "p0"), "foliate": ("alphas",), "example446": ("u0_grid",)}


@dataclass
class ExperimentConfig:
    command: str
    n: int = 3
    seed: int = 0
    potential: dict = field(default_factory=lambda: {"kind": "zero"})
    integrator: IntegratorConfig = IntegratorConfig()
    params: dict = field(default_factory=dict)   # command-specific section
    raw: dict = field(default_factory=dict)      # validated config echo


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number(x) -> bool:
    return _is_int(x) or isinstance(x, float)


def grid(spec, name: str = "grid") -> np.ndarray:
    """The values of a grid key: [lo, hi, count] with an integer count >= 2
    is a linspace, any other nonempty list of numbers is its values."""
    if not (isinstance(spec, list) and spec and all(map(_is_number, spec))
            and not (len(spec) == 3 and _is_int(spec[2]) and spec[2] < 2)):
        raise ConfigError("%s must be [lo, hi, count] with an integer count >= 2 or a "
                          "nonempty list of numbers (write 1 as 1.0), got %r" % (name, spec))
    if len(spec) == 3 and _is_int(spec[2]):
        return np.linspace(float(spec[0]), float(spec[1]), spec[2])
    return np.asarray([float(x) for x in spec])


def _object(section: str, given: Any) -> dict:
    if not isinstance(given, dict):
        raise ConfigError("section %r must be an object" % section)
    return given


def _checked(section: str, given: Any, defaults: dict) -> dict:
    """A copy of given, whose keys must be keys of defaults: where the
    default is an int the value must be an integer, where a float a number."""
    for key, value in _object(section, given).items():
        if key not in defaults:
            raise ConfigError("unknown key %r in section %r, which reads only %s"
                              % (key, section, ", ".join(sorted(defaults))))
        default = defaults[key]
        if _is_int(default) and not _is_int(value):
            raise ConfigError("%s.%s must be an integer, got %r" % (section, key, value))
        if isinstance(default, float) and not _is_number(value):
            raise ConfigError("%s.%s must be a number, got %r" % (section, key, value))
    return dict(given)


def _bump_spec(section: str, given: Any) -> dict:
    missing = set(_BUMP) - set(_checked(section, given, _BUMP))
    if missing:
        raise ConfigError("%s missing keys %s" % (section, sorted(missing)))
    return {k: float(given[k]) for k in _BUMP}


def _potential(command: str, kinds: tuple, given: Any) -> dict:
    kind = _object("potential", given).get("kind", "zero")
    if kinds and kind not in kinds:
        raise ConfigError("command %r requires %s, got potential.kind %r"
                          % (command, "a radial potential (kind zero or product)"
                             if kinds == _RADIAL else "potential.kind = 'example446'",
                             kind))
    spec = _checked("potential", given, {"kind": kind, **_POTENTIAL_KEYS[kind]})
    for key, default in _POTENTIAL_KEYS[kind].items():
        if default is None:
            spec[key] = _bump_spec("potential." + key, spec.get(key))
        elif key != "scale":    # a product echoes its scale only when given
            spec.setdefault(key, default)
    if kind == "example446" and spec["variant"] not in ("auto", "as-printed",
                                                        "chain-rule"):
        raise ConfigError("potential.variant must be "
                          "auto|as-printed|chain-rule, got %r" % spec["variant"])
    return spec


def _check_section(section: str, params: dict) -> None:
    for key in _NULLABLE.get(section, ()):
        x, least = params[key], -math.inf if key == "t_end" else 0.0
        if x is not None and not (_is_number(x) and least < x < math.inf):
            raise ConfigError("%s.%s must be a finite number%s or null, got %r"
                              % (section, key, " > 0" if least == 0 else "", x))
    for key in _GRIDS.get(section, ()):
        if params[key] is None:
            continue
        values = grid(params[key], "%s.%s" % (section, key))
        if len(values) < 2 and section != "scan":   # a scan may have one cell
            raise ConfigError("%s.%s must hold at least two values, as its leaves are "
                              "compared, got %r" % (section, key, params[key]))
    if section == "foliate" and params["family"] not in ("N_A", "M_A"):
        raise ConfigError("foliate.family must be N_A or M_A, got %r"
                          % params["family"])
    if section == "foliate" and not params["r_min"] > 0:
        raise ConfigError("foliate.r_min must be a number > 0, got %r" % (params["r_min"],))
    if section == "solve" and not params["samples"] >= 2:
        raise ConfigError("solve.samples must be an integer >= 2, got %r" % (params["samples"],))
    if section == "certify" and not params["grid_points"] >= 2:
        raise ConfigError("certify.grid_points must be an integer >= 2, got %r"
                          % (params["grid_points"],))
    if section == "hardy":
        _check_hardy(params)
    if section != "scaling":
        return
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
    if not (math.isfinite(tol) and tol > 0):
        raise ConfigError("scaling.quad_tol must be a finite number > 0, got %r"
                          % (tol,))


def _check_hardy(params: dict) -> None:
    n_list, r1, r2 = params["n_list"], params["r1"], params["r2"]
    if not (isinstance(n_list, list) and n_list and all(_is_int(n) and n >= 3 for n in n_list)):
        raise ConfigError("hardy.n_list must hold integers >= 3, got %r" % (n_list,))
    if not 0 <= r1 < r2:
        raise ConfigError("hardy needs 0 <= r1 < r2, got r1 = %r, r2 = %r" % (r1, r2))
    if not params["rel_tol"] > 0:
        raise ConfigError("hardy.rel_tol must be > 0, got %r" % (params["rel_tol"],))
    if not params["num_random"] >= 0:
        raise ConfigError("hardy.num_random must be >= 0, got %r" % (params["num_random"],))
    if params["num_random"] == 0 and not set(n_list) & set(HARDY_CLOSED_FORMS):
        raise ConfigError("hardy-check would run no check: num_random is 0 and n_list holds "
                          "no n with a closed form (%s)" % ", ".join(map(str, HARDY_CLOSED_FORMS)))


def validate_config(data: dict) -> ExperimentConfig:
    command = _object("<root>", data).get("command")
    if command not in COMMANDS:
        raise ConfigError("field 'command' must be one of %s, got %r"
                          % (list(COMMANDS), command))
    row = _COMMANDS[command]
    reads = {"potential": row.kinds, "integrator": row.integrator}
    _checked("<root>", data, dict.fromkeys(["command", "n", "seed", row.section]
                                            + [key for key in reads if reads[key]]))
    n, seed = data.get("n", 3), data.get("seed", 0)
    if not (_is_int(n) and n >= 2):
        raise ConfigError("field 'n' must be an integer >= 2, got %r" % (n,))
    if not _is_int(seed):
        raise ConfigError("field 'seed' must be an integer, got %r" % (seed,))
    if n < row.min_n:
        raise ConfigError("command %r requires n >= %d "
                          "(pointwise/norm conditions are void at n = 2)"
                          % (command, row.min_n))
    if row.planar and n != 2:
        raise ConfigError("command %r is a planar (n = 2) experiment" % command)

    pot_spec = _potential(command, row.kinds, data.get("potential", {"kind": "zero"}))
    integ = _checked("integrator", data.get("integrator", {}), _INTEGRATOR)
    integrator = IntegratorConfig(**{k: float(v) for k, v in {**_INTEGRATOR, **integ}.items()})
    params = {**row.defaults, **_checked(row.section, data.get(row.section, {}),
                                         row.defaults)}
    _check_section(row.section, params)

    echo = {"command": command, "n": n, "seed": seed, "potential": pot_spec,
            "integrator": {k: getattr(integrator, k) for k in _INTEGRATOR
                           if k != "max_step" or k in integ},
            row.section: params}
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


def build_potential(cfg: ExperimentConfig) -> ProductPotential:
    """The potential of a command that builds kind zero or product."""
    spec = cfg.potential
    if spec.get("kind", "zero") == "zero":
        return zero_potential(**{k: float(spec.get(k, default))
                                 for k, default in _POTENTIAL_KEYS["zero"].items()})
    pot = product_potential(make_bump(**spec["f"]), make_bump(**spec["g"]))
    scale = float(spec.get("scale", 1.0))
    return scale_potential(pot, scale) if scale != 1.0 else pot


def build_bumps(cfg: ExperimentConfig):
    spec = cfg.potential
    return make_bump(**spec["phi"]), make_bump(**spec["psi"])
