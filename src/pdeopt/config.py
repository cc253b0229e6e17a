"""Experiment configuration: flat INI sections with typed, validated fields.

The file format is diff-friendly key/value text (configparser).  A config
round-trips losslessly through ``ExperimentConfig.to_ini`` / ``from_ini``;
every field is representable as a string and parsed back to the same value.
"""

from __future__ import annotations

import configparser
import io
from dataclasses import dataclass, field

import numpy as np

from .adjoint import CostWeights
from .exceptions import ConfigError
from .forward import TimeGrid
from .grids import SIDES, build_grid_1d, build_grid_2d
from .models import (CUBIC_SINK, ActuatorDesign, HeatShapeActuator,
                     KsGaussianActuator, ModelSpec, make_heat_model, make_ks_model)
from .optimize import AdmissibleSets, OptimizerConfig

# a field's admissible range: (predicate, message)
_POSITIVE = (lambda x: x > 0, "must be positive")
_NONNEGATIVE = (lambda x: x >= 0, "must be nonnegative")
_UNIT = (lambda x: 0 < x < 1, "must lie in (0, 1)")


def _at_least(k: int) -> tuple:
    return (lambda x: x >= k, f"must be at least {k}")


def _one_of(*choices: str) -> tuple:
    return (lambda x: x in choices, f"expected one of {'|'.join(choices)}")


_SCHEMA: dict[str, dict[str, tuple]] = {
    # section -> key -> (type, default, rule); type in {float, int, bool, str,
    # "floats", "optfloat"}; rule is the field's admissible range or None,
    # and an empty optfloat passes every rule
    "model": {
        "kind": (str, "ks", _one_of("ks", "heat")),
        "lambda": (float, 30.0, None),
        "nonlinearity": (str, "cubic", _one_of("cubic", "none")),
        "linear": (bool, False, None),
    },
    "grid": {
        "n": (int, 128, _at_least(4)),
        "nx": (int, 32, _at_least(4)),
        "ny": (int, 32, _at_least(4)),
        "lx": (float, 1.0, _POSITIVE),
        "ly": (float, 1.0, _POSITIVE),
        "dirichlet": (str, "left,right,bottom,top", None),
    },
    "time": {
        "tau": (float, 1.0, _POSITIVE),
        "nt": (int, 400, _at_least(2)),
    },
    "cost": {
        "q_scale": (float, 1.0, _NONNEGATIVE),
        "r_scale": (float, 1.0, _POSITIVE),
    },
    "sets": {
        "r1": (float, 10.0, _POSITIVE),
        "r2": (float, 1.0, _POSITIVE),
        "u_box": ("optfloat", None, _POSITIVE),
    },
    "actuator": {
        "omega": (float, 0.05, _POSITIVE),
        "kad_low": (float, 0.1, _UNIT),
        "kad_high": (float, 0.9, _UNIT),
        "basis_per_axis": (int, 3, _at_least(1)),
        "r_init": ("floats", (), None),
    },
    "initial_condition": {
        "kind": (str, "sine", _one_of("sine", "bump", "zero")),
        "amplitude": (float, 0.1, None),
        "center": (float, 0.5, None),
        "width": (float, 0.07, _POSITIVE),
        # second-harmonic admixture; breaks the mirror symmetry that would
        # make the actuator-location gradient vanish identically at r = 1/2
        "second_mode": (float, 0.3, None),
    },
    "optimizer": {
        "max_iters": (int, 2000, _at_least(1)),
        "tol": (float, 1e-5, _POSITIVE),
        "armijo_c1": (float, 1e-4, _UNIT),
        "backtrack": (float, 0.5, _UNIT),
        "step0": (float, 1.0, _POSITIVE),
        "seed": (int, 0, _at_least(0)),
        "multi_start": (int, 5, _at_least(1)),
        "optimize_design": (bool, True, None),
    },
    "riccati": {
        "nt": (int, 400, _at_least(2)),
        "check_every": (int, 10, _at_least(1)),
    },
    "output": {
        "dir": (str, "out", None),
        "jobs": (int, 1, _at_least(1)),
    },
}
_FIELDS = {f"{sec}.{key}": row for sec, keys in _SCHEMA.items() for key, row in keys.items()}


# The most doubles that one array sized by the config may hold: an (nt+1) x n
# trajectory, the sampled actuator basis (basis_per_axis^2 x n) or a dense
# 1-D heat factor (nx x nx, ny x ny).  From peak RSS on heat 32x32,
# optimize holds about 9 trajectory-sized arrays and riccati-validate about
# 11, so a linear optimize with its Riccati cross-check holds 20 x 16 MiB;
# with the dense Riccati storage (at most 0.55 GiB, see cli.RICCATI_MAX_NODES)
# a run stays under 1 GiB.  The basis is held twice while it is sampled.
MAX_SAMPLES = 2**21


def _parse(name: str, kind, raw: str):
    try:
        if kind is float:
            return float(raw)
        if kind is int:
            return int(raw)
        if kind is bool:
            low = raw.strip().lower()
            if low in ("true", "1", "yes", "on"):
                return True
            if low in ("false", "0", "no", "off"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        if kind == "optfloat":
            return None if raw.strip() == "" else float(raw)
        if kind == "floats":
            raw = raw.strip()
            return tuple(float(tok) for tok in raw.split(",")) if raw else ()
        return raw.strip()
    except ValueError as err:
        raise ConfigError(name, str(err)) from None


def _sides(raw: str) -> tuple[str, ...]:
    return tuple(s.strip() for s in raw.split(",") if s.strip())


def _render(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (tuple, list)):
        return ",".join(repr(v) for v in value)
    return str(value)


@dataclass
class ExperimentConfig:
    """All knobs of one experiment, keyed as 'section.key'."""

    values: dict = field(default_factory=dict)

    def __post_init__(self):
        merged = {name: default for name, (_, default, _) in _FIELDS.items()}
        unknown = sorted(set(self.values) - set(merged))
        if unknown:
            raise ConfigError(unknown[0], "unknown field")
        merged.update(self.values)
        self.values = merged
        self.validate()

    def __getitem__(self, name: str):
        if name not in self.values:
            raise ConfigError(name, "unknown field")
        return self.values[name]

    def with_value(self, name: str, value) -> "ExperimentConfig":
        if name not in self.values:
            raise ConfigError(name, "unknown field")
        kind = _FIELDS[name][0]
        if not isinstance(value, str):
            # a number or sequence is written as INI text and parsed like the
            # file: an int field takes integral values, a bool field 0 or 1
            value = np.asarray(value).tolist()  # numpy scalars to Python
            if kind is int and isinstance(value, float) and value.is_integer():
                value = int(value)
            elif kind is bool and not isinstance(value, list) and value in (0, 1):
                value = bool(value)
            value = _render(value)
        new = dict(self.values)
        new[name] = _parse(name, kind, value)
        return ExperimentConfig(values=new)

    def validate(self) -> None:
        v = self.values
        for name, value in v.items():
            if isinstance(value, (float, tuple)) and not np.all(np.isfinite(value)):
                raise ConfigError(name, f"must be finite, got {value!r}")
            rule = _FIELDS[name][2]
            if rule is not None and value is not None and not rule[0](value):
                raise ConfigError(name, f"{rule[1]}, got {value!r}")
        # the rules below read more than one field or float64 arithmetic
        if v["model.kind"] == "ks" and v["grid.n"] > 512:
            # the KS stepper works in the dense eigenbasis of the n x n operator
            raise ConfigError("grid.n", "KS grids take at most 512 nodes")
        sides = _sides(v["grid.dirichlet"])
        if not sides or not set(sides) <= set(SIDES):
            raise ConfigError("grid.dirichlet",
                              f"expected a nonempty subset of {','.join(SIDES)}")
        # the Laplacian's eigenvalues lie in [-bound, 0) with bound
        # 4/hx^2 + 4/hy^2, which must be a positive float64
        with np.errstate(all="ignore"):
            bounds = {name: 4.0 / np.square(np.float64(v[name]) / v[cells])
                      for name, cells in (("grid.lx", "grid.nx"), ("grid.ly", "grid.ny"))}
        for name, bound in bounds.items():
            if not bound > 0:
                raise ConfigError(name, f"{v[name]} gives a 4/h^2 of 0 in float64")
        if not np.isfinite(bounds["grid.lx"] + bounds["grid.ly"]):
            name = max(bounds, key=bounds.get)
            raise ConfigError(name, f"{v[name]} makes the Laplacian's spectral bound "
                              "4/hx^2 + 4/hy^2 overflow float64")
        for name in ("actuator.omega", "initial_condition.width"):
            # a Gaussian divides by the square of its width, which a subnormal
            # square turns into an overflow
            with np.errstate(all="ignore"):
                if np.square(np.float64(v[name])) < np.finfo(np.float64).tiny:
                    raise ConfigError(name, f"{v[name]} squares below the smallest "
                                      "normal float64")
        if not v["actuator.kad_low"] < v["actuator.kad_high"]:
            raise ConfigError("actuator.kad_low", "must be below actuator.kad_high, got "
                              f"{v['actuator.kad_low']} >= {v['actuator.kad_high']}")
        if v["model.kind"] == "heat":
            n = v["grid.nx"] * v["grid.ny"]
            sizes = {"grid.nx": v["grid.nx"] ** 2, "grid.ny": v["grid.ny"] ** 2,
                     "actuator.basis_per_axis": v["actuator.basis_per_axis"] ** 2 * n}
        else:
            n, sizes = v["grid.n"], {}
        nt_name = max(("time.nt", "riccati.nt"), key=v.get)
        sizes[nt_name] = (v[nt_name] + 1) * n
        for name, size in sizes.items():
            if size > MAX_SAMPLES:
                raise ConfigError(name, f"{v[name]} needs an array of {size} doubles, "
                                  f"above the cap of {MAX_SAMPLES}")

    # --- serialization -------------------------------------------------

    @staticmethod
    def from_ini(path) -> "ExperimentConfig":
        parser = configparser.ConfigParser(interpolation=None)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                parser.read_file(fh)
        except configparser.Error as err:
            raise ConfigError("(file)", f"INI parse failure: {err}") from None
        vals = {}
        for sec in parser.sections():
            if sec not in _SCHEMA:
                raise ConfigError(sec, "unknown section")
            for key, raw in parser.items(sec):
                if key not in _SCHEMA[sec]:
                    raise ConfigError(f"{sec}.{key}", "unknown field")
                name = f"{sec}.{key}"
                vals[name] = _parse(name, _FIELDS[name][0], raw)
        return ExperimentConfig(values=vals)

    def to_ini(self, path=None) -> str:
        parser = configparser.ConfigParser(interpolation=None)
        for sec, keys in _SCHEMA.items():
            parser[sec] = {key: _render(self.values[f"{sec}.{key}"]) for key in keys}
        buf = io.StringIO()
        parser.write(buf)
        text = buf.getvalue()
        if path is not None:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        return text

    def to_dict(self) -> dict:
        return dict(sorted(self.values.items(), key=lambda kv: kv[0]))

    # --- builders -------------------------------------------------------

    @property
    def is_ks(self) -> bool:
        return self.values["model.kind"] == "ks"

    def build_grid(self):
        if self.is_ks:
            return build_grid_1d(self["grid.n"])
        return build_grid_2d(self["grid.nx"], self["grid.ny"], self["grid.lx"],
                             self["grid.ly"], dirichlet_sides=_sides(self["grid.dirichlet"]))

    def build_model(self, grid=None) -> ModelSpec:
        grid = grid if grid is not None else self.build_grid()
        if self.is_ks:
            fam = KsGaussianActuator(omega=self["actuator.omega"],
                                     bounds=(self["actuator.kad_low"],
                                             self["actuator.kad_high"]))
            return make_ks_model(grid, lam=self["model.lambda"], actuator=fam,
                                 linear=self["model.linear"])
        fam = HeatShapeActuator(basis_per_axis=self["actuator.basis_per_axis"],
                                lx=self["grid.lx"], ly=self["grid.ly"])
        nl = None if (self["model.linear"] or self["model.nonlinearity"] == "none") \
            else CUBIC_SINK
        return make_heat_model(grid, f_scalar=nl, actuator=fam)

    def build_design(self, model: ModelSpec) -> ActuatorDesign:
        r_init = self["actuator.r_init"]
        if not r_init:
            return model.actuator_family.initial_design()
        family = model.actuator_family
        params = np.asarray(r_init, dtype=float)
        if params.shape != (family.design_dim,) \
                or not np.array_equal(family.project(params), params):
            raise ConfigError("actuator.r_init", f"{list(r_init)} is not an admissible "
                              f"design of {family.design_dim} parameter(s)")
        return ActuatorDesign(params=params)

    def build_x0(self, grid) -> np.ndarray:
        with np.errstate(all="ignore"):
            x0 = self._initial_state(grid)
        if not np.all(np.isfinite(x0)):
            raise ConfigError("initial_condition.amplitude", "the initial state is not "
                              "finite (amplitude, second_mode or width out of range)")
        return x0

    def _initial_state(self, grid) -> np.ndarray:
        kind = self["initial_condition.kind"]
        amp = self["initial_condition.amplitude"]
        # a numpy scalar, so that under build_x0's errstate a width too large to
        # square gives inf (a flat bump) rather than a Python OverflowError
        c, wdt = self["initial_condition.center"], np.float64(self["initial_condition.width"])
        if kind == "zero":
            return np.zeros(grid.size)
        if self.is_ks:
            xi = grid.nodes
            if kind == "sine":
                return amp * (np.sin(np.pi * xi)
                              + self["initial_condition.second_mode"] * np.sin(2 * np.pi * xi))
            return amp * np.exp(-((xi - c) ** 2) / (2 * wdt**2))
        xx, yy = grid.meshgrid()
        sx, sy = np.pi / grid.lx, np.pi / grid.ly
        if kind == "sine":
            base = np.sin(sx * xx) * np.sin(sy * yy) \
                + self["initial_condition.second_mode"] * np.sin(2 * sx * xx) * np.sin(sy * yy)
            return amp * base.ravel()
        bump = np.exp(-(((xx - c * grid.lx) ** 2 + (yy - c * grid.ly) ** 2)
                        / (2 * wdt**2)))
        return amp * bump.ravel()

    def build_time_grid(self) -> TimeGrid:
        return TimeGrid(tau=self["time.tau"], nt=self["time.nt"])

    def build_weights(self) -> CostWeights:
        return CostWeights(q_scale=self["cost.q_scale"], r_scale=self["cost.r_scale"])

    def build_sets(self, model: ModelSpec) -> AdmissibleSets:
        return AdmissibleSets(family=model.actuator_family, r1=self["sets.r1"],
                              r2=self["sets.r2"], u_box=self["sets.u_box"])

    def build_optimizer(self) -> OptimizerConfig:
        return OptimizerConfig(max_iters=self["optimizer.max_iters"],
                               tol=self["optimizer.tol"],
                               armijo_c1=self["optimizer.armijo_c1"],
                               backtrack=self["optimizer.backtrack"],
                               step0=self["optimizer.step0"],
                               seed=self["optimizer.seed"],
                               multi_start=self["optimizer.multi_start"])
