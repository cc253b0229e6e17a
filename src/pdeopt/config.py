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

_SCHEMA: dict[str, dict[str, tuple]] = {
    # section -> key -> (type, default); type in {float, int, bool, str, "floats", "optfloat"}
    "model": {
        "kind": (str, "ks"),
        "lambda": (float, 30.0),
        "nonlinearity": (str, "cubic"),
        "linear": (bool, False),
    },
    "grid": {
        "n": (int, 128),
        "nx": (int, 32),
        "ny": (int, 32),
        "lx": (float, 1.0),
        "ly": (float, 1.0),
        "dirichlet": (str, "left,right,bottom,top"),
    },
    "time": {
        "tau": (float, 1.0),
        "nt": (int, 400),
    },
    "cost": {
        "q_scale": (float, 1.0),
        "r_scale": (float, 1.0),
    },
    "sets": {
        "r1": (float, 10.0),
        "r2": (float, 1.0),
        "u_box": ("optfloat", None),
    },
    "actuator": {
        "omega": (float, 0.05),
        "kad_low": (float, 0.1),
        "kad_high": (float, 0.9),
        "basis_per_axis": (int, 3),
        "r_init": ("floats", ()),
    },
    "initial_condition": {
        "kind": (str, "sine"),
        "amplitude": (float, 0.1),
        "center": (float, 0.5),
        "width": (float, 0.07),
        # second-harmonic admixture; breaks the mirror symmetry that would
        # make the actuator-location gradient vanish identically at r = 1/2
        "second_mode": (float, 0.3),
    },
    "optimizer": {
        "max_iters": (int, 2000),
        "tol": (float, 1e-5),
        "armijo_c1": (float, 1e-4),
        "backtrack": (float, 0.5),
        "step0": (float, 1.0),
        "seed": (int, 0),
        "multi_start": (int, 5),
        "optimize_design": (bool, True),
    },
    "riccati": {
        "nt": (int, 400),
        "check_every": (int, 10),
    },
    "output": {
        "dir": (str, "out"),
        "jobs": (int, 1),
    },
}


# The most doubles that one array sized by the config may hold: an (nt+1) x n
# trajectory, the sampled actuator basis (basis_per_axis^2 x n) or a dense
# 1-D heat factor (nx x nx, ny x ny).  From peak RSS on heat 32x32,
# optimize holds about 9 trajectory-sized arrays and riccati-validate about
# 11, so a linear optimize with its Riccati cross-check holds 20 x 16 MiB;
# with the dense Riccati storage (at most 0.55 GiB, see cli.RICCATI_MAX_NODES)
# a run stays under 1 GiB.  The basis is held twice while it is sampled.
MAX_SAMPLES = 2**21


def _parse(section: str, key: str, kind, raw: str):
    name = f"{section}.{key}"
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
        merged = {}
        for sec, keys in _SCHEMA.items():
            for key, (_, default) in keys.items():
                merged[f"{sec}.{key}"] = default
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
        sec, key = name.split(".", 1)
        kind, _ = _SCHEMA[sec][key]
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
        new[name] = _parse(sec, key, kind, value)
        return ExperimentConfig(values=new)

    def validate(self) -> None:
        v = self.values
        for name, value in v.items():
            if isinstance(value, (float, tuple)) and not np.all(np.isfinite(value)):
                raise ConfigError(name, f"must be finite, got {value!r}")
        if v["model.kind"] not in ("ks", "heat"):
            raise ConfigError("model.kind", f"expected 'ks' or 'heat', got {v['model.kind']!r}")
        if v["model.nonlinearity"] not in ("cubic", "none"):
            raise ConfigError("model.nonlinearity", "expected 'cubic' or 'none'")
        for name in ("grid.n", "grid.nx", "grid.ny"):
            if v[name] < 4:
                raise ConfigError(name, "grids need at least 4 nodes per axis")
        if v["model.kind"] == "ks" and v["grid.n"] > 512:
            # the KS stepper works in the dense eigenbasis of the n x n operator
            raise ConfigError("grid.n", "KS grids take at most 512 nodes")
        sides = _sides(v["grid.dirichlet"])
        if not sides or not set(sides) <= set(SIDES):
            raise ConfigError("grid.dirichlet",
                              f"expected a nonempty subset of {','.join(SIDES)}")
        if v["time.nt"] < 2:
            raise ConfigError("time.nt", "need at least 2 time steps")
        for name in ("grid.lx", "grid.ly", "time.tau", "cost.r_scale", "sets.r1",
                     "sets.r2", "actuator.omega", "initial_condition.width",
                     "optimizer.tol", "optimizer.step0"):
            if v[name] <= 0:
                raise ConfigError(name, f"must be positive, got {v[name]}")
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
            # a Gaussian divides by the square of its width
            with np.errstate(all="ignore"):
                if np.square(np.float64(v[name])) == 0:
                    raise ConfigError(name, f"{v[name]} squares to 0 in float64")
        if v["sets.u_box"] is not None and v["sets.u_box"] <= 0:
            raise ConfigError("sets.u_box", f"must be positive or empty, got {v['sets.u_box']}")
        if v["cost.q_scale"] < 0:
            raise ConfigError("cost.q_scale", f"must be nonnegative, got {v['cost.q_scale']}")
        if not (0 < v["actuator.kad_low"] < v["actuator.kad_high"] < 1):
            raise ConfigError("actuator.kad_low", "need 0 < a < b < 1")
        for name in ("optimizer.backtrack", "optimizer.armijo_c1"):
            if not 0 < v[name] < 1:
                raise ConfigError(name, f"must lie in (0, 1), got {v[name]}")
        for name in ("actuator.basis_per_axis", "optimizer.max_iters",
                     "optimizer.multi_start", "riccati.check_every", "output.jobs"):
            if v[name] < 1:
                raise ConfigError(name, f"must be >= 1, got {v[name]}")
        if v["riccati.nt"] < 2:
            raise ConfigError("riccati.nt", "need at least 2 Riccati time steps")
        if v["initial_condition.kind"] not in ("sine", "bump", "zero"):
            raise ConfigError("initial_condition.kind", "expected sine|bump|zero")
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
                kind, _ = _SCHEMA[sec][key]
                vals[f"{sec}.{key}"] = _parse(sec, key, kind, raw)
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
