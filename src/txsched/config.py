"""Run configuration: YAML schema, strict validation, model construction.

The file is a nested mapping with sections system / channel / costs / solver /
sim / output. Physics parameters (plant matrices, channel tables, costs, the
discount factor) have no defaults; only solver knobs and output settings do.
The solver and sim sections become SolverConfig and SimConfig, defined here so
that loading a config imports neither the solver nor the simulator; each
checks its own fields, so one built directly names the same dotted path.
Unknown keys anywhere are rejected, and every validation error names the
offending field by its dotted path. Array fields are read as the models read
them: a system matrix given as a scalar is 1x1 and as a list one row, and a
channel.lam list is one action's two modes. Every number must be finite: a
NaN, an infinity or an integer beyond the float64 range is refused, with its
index in an array.
"""

import copy
import json
import numbers
import re
from dataclasses import MISSING, asdict, dataclass, fields

import numpy as np

from .channel import ChannelModel, make_gilbert_elliott, make_persistent_failure
from .lti_estimation import LtiSystem


class ConfigError(ValueError):
    """Invalid configuration; ``path`` is the dotted field name."""

    def __init__(self, path, message):
        super().__init__(f"{path}: {message}")
        self.path = path


@dataclass(frozen=True)
class SolverConfig:
    """Knobs of the belief-grid value iteration, each checked when built (a
    ConfigError at ``solver.<field>``) and stored as a float or an int."""

    gamma: float
    tau_max: int = 60
    grid_n: int = 200
    vi_tol: float = 1e-9
    max_sweeps: int = 2000
    weight_eps: float = 0.01
    tie_break: str = "low"

    def __post_init__(self):
        _store(self, "solver.gamma", _number, lo=0.0, hi=1.0, strict_lo=True, strict_hi=True)
        _store(self, "solver.tau_max", _integer, lo=1)
        _store(self, "solver.grid_n", _integer, lo=2)
        _store(self, "solver.vi_tol", _number, lo=0.0, strict_lo=True)
        _store(self, "solver.max_sweeps", _integer, lo=1)
        _store(self, "solver.weight_eps", _number, lo=0.0, strict_lo=True)
        if self.tie_break not in ("low", "high"):
            raise ConfigError("solver.tie_break",
                              f"must be 'low' or 'high', got {self.tie_break!r}")

    def belief_grid(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.grid_n + 1)


@dataclass(frozen=True)
class SimConfig:
    """Batch settings: episode length, replication count, base seed; checked
    like SolverConfig, at ``sim.<field>``."""

    horizon: int
    n_runs: int
    seed: int

    def __post_init__(self):
        _store(self, "sim.horizon", _integer, lo=1)
        _store(self, "sim.n_runs", _integer, lo=1)
        _store(self, "sim.seed", _integer, lo=0, hi=(1 << 64) - 1)


def _store(obj, path, check, **bounds):
    """Replace the field that ``path`` names by its value as ``check`` returns it."""
    name = path.rsplit(".", 1)[1]
    object.__setattr__(obj, name, check(getattr(obj, name), path, **bounds))


_OUTPUT_DEFAULTS = {"directory": "out", "emit_traces": False}


def _require_mapping(obj, path):
    if not isinstance(obj, dict):
        raise ConfigError(path, f"expected a mapping, got {type(obj).__name__}")
    return obj


def _reject_unknown(section, path, allowed):
    unknown = set(section) - set(allowed)
    if unknown:
        raise ConfigError(f"{path}.{sorted(unknown, key=str)[0]}", "unknown key")


def _get(section, path, key):
    if key not in section:
        raise ConfigError(f"{path}.{key}", "missing required key")
    return section[key]


# YAML 1.1 reads an exponent form as a number only with a dot in the
# mantissa and a sign in the exponent (1.0e-9, 1.0e+9), so 1e-9 loads as a
# string
_EXPONENT_FORM = re.compile(r"([-+]?)([0-9]*)(?:\.([0-9]*))?[eE]([-+]?)([0-9]+)")


def _not_a(kind, value, path):
    """The error for a value that is not ``kind`` ("a number", "an
    integer"); a string in exponent form is named as one that YAML 1.1 did
    not read as a number, with a spelling that loads as one."""
    form = _EXPONENT_FORM.fullmatch(value) if isinstance(value, str) else None
    if form is not None:
        sign, whole, frac, exp_sign, exp = form.groups()
        # a dotted mantissa with a signed exponent loads as a number, so a
        # string of that form was quoted
        if (whole or frac) and not (frac is not None and exp_sign):
            hint = ("write the integer in digits" if kind == "an integer" else
                    f"write {sign}{whole or 0}.{frac or 0}e{exp_sign or '+'}{exp}")
            return ConfigError(path, f"expected {kind}, got the string {value!r}, which "
                                     f"YAML 1.1 does not read as a number; {hint}")
    return ConfigError(path, f"expected {kind}, got {value!r}")


def _number(value, path, lo=None, hi=None, strict_lo=False, strict_hi=False):
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise _not_a("a number", value, path)
    x = float(_finite_array(value, path))
    if lo is not None and (x <= lo if strict_lo else x < lo):
        raise ConfigError(path, f"must be {'>' if strict_lo else '>='} {lo}, got {x}")
    if hi is not None and (x >= hi if strict_hi else x > hi):
        raise ConfigError(path, f"must be {'<' if strict_hi else '<='} {hi}, got {x}")
    return x


def _integer(value, path, lo=None, hi=None):
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise _not_a("an integer", value, path)
    value = int(value)
    if lo is not None and value < lo:
        raise ConfigError(path, f"must be >= {lo}, got {value}")
    if hi is not None and value > hi:
        raise ConfigError(path, f"must be <= {hi}, got {value}")
    return value


def _finite_array(value, path):
    """``value`` as a float array; NaN, an infinity, or an integer beyond the
    float64 range is a config error."""
    try:
        M = np.asarray(value, dtype=float)
    except OverflowError:
        raise ConfigError(path, "must be finite, got an integer beyond the float64 "
                                "range") from None
    except (TypeError, ValueError) as exc:
        raise ConfigError(path, f"not a numeric array: {exc}") from None
    if not np.isfinite(M).all():
        at = tuple(int(i) for i in np.argwhere(~np.isfinite(M))[0])
        raise ConfigError(path, f"must be finite, got {M[at]}"
                                + (f" at index {list(at)}" if at else ""))
    return M


@dataclass(frozen=True)
class RunConfig:
    """Validated configuration with constructed models."""

    system: LtiSystem
    channel: ChannelModel
    action_costs: np.ndarray
    c_stop: float | None
    solver: SolverConfig
    sim: SimConfig | None
    out_dir: str
    emit_traces: bool
    raw: dict

    @property
    def is_stopping(self) -> bool:
        return self.c_stop is not None

    def to_dict(self) -> dict:
        """Normalized configuration (defaults applied, numbers canonical);
        loading the serialized form reproduces this dict exactly."""
        return copy.deepcopy(self.raw)

    @property
    def problem_sha256(self) -> str:
        """sha256 of the normalized sections that determine the solution
        (system, channel, costs, solver); the output and sim sections are
        left out, so ``--out`` and ``--seed`` do not change it."""
        import hashlib
        problem = {k: self.raw[k] for k in ("system", "channel", "costs", "solver")}
        return hashlib.sha256(json.dumps(problem, sort_keys=True).encode("utf-8")).hexdigest()


def _parse_system(section):
    sec = _require_mapping(section, "system")
    _reject_unknown(sec, "system", ("A", "C", "Q", "R"))
    mats = {k: _finite_array(_get(sec, "system", k), f"system.{k}")
            for k in ("A", "C", "Q", "R")}
    try:
        system = LtiSystem(**mats)
    except ValueError as exc:
        raise ConfigError("system", str(exc)) from None
    raw = {k: getattr(system, k).tolist() for k in ("A", "C", "Q", "R")}
    return system, raw


# the closed-form channel families: channel.type -> (constructor, its keys)
_CHANNEL_FAMILIES = {
    "ge": (make_gilbert_elliott, ("p00", "p11", "lam_good", "lam_bad", "b0")),
    "persistent": (make_persistent_failure, ("p_fail", "lam_good", "lam_bad", "b0")),
}


def _parse_channel(section):
    sec = _require_mapping(section, "channel")
    ctype = _get(sec, "channel", "type")
    if isinstance(ctype, str) and ctype in _CHANNEL_FAMILIES:
        make, keys = _CHANNEL_FAMILIES[ctype]
        _reject_unknown(sec, "channel", ("type",) + keys)
        vals = {k: _number(_get(sec, "channel", k), f"channel.{k}", lo=0.0, hi=1.0)
                for k in keys}
        try:
            return make(**vals), {"type": ctype, **vals}
        except ValueError as exc:
            raise ConfigError("channel", str(exc)) from None
    if ctype == "explicit":
        _reject_unknown(sec, "channel", ("type", "lam", "mode_kernel", "b0"))
        lam = _finite_array(_get(sec, "channel", "lam"), "channel.lam")
        kern = _finite_array(_get(sec, "channel", "mode_kernel"), "channel.mode_kernel")
        b0 = _number(_get(sec, "channel", "b0"), "channel.b0", lo=0.0, hi=1.0)
        try:
            ch = ChannelModel(lam=lam, mode_kernel=kern,
                              initial_mode_dist=np.array([1.0 - b0, b0]))
        except ValueError as exc:
            raise ConfigError("channel", str(exc)) from None
        return ch, {"type": "explicit", "lam": ch.lam.tolist(),
                    "mode_kernel": ch.mode_kernel.tolist(), "b0": b0}
    raise ConfigError("channel.type", f"must be ge, persistent, or explicit, got {ctype!r}")


def _parse_costs(section, n_actions):
    sec = _require_mapping(section, "costs")
    _reject_unknown(sec, "costs", ("c_a", "c_stop"))
    c_a = _get(sec, "costs", "c_a")
    if not isinstance(c_a, list) or not c_a:
        raise ConfigError("costs.c_a", "expected a nonempty list of per-action costs")
    costs = np.array([_number(v, f"costs.c_a[{i}]") for i, v in enumerate(c_a)])
    if len(costs) != n_actions:
        raise ConfigError("costs.c_a", f"length {len(costs)} does not match the "
                                       f"channel's {n_actions} action(s)")
    c_stop = None
    if "c_stop" in sec and sec["c_stop"] is not None:
        c_stop = _number(sec["c_stop"], "costs.c_stop")
        if n_actions != 1:
            raise ConfigError("costs.c_stop", "stopping mode requires a "
                                              "single-action channel")
        if costs[0] != 0.0:
            raise ConfigError("costs.c_a", "the continue action must cost 0 "
                                           "in stopping mode")
    raw = {"c_a": costs.tolist()}
    if c_stop is not None:
        raw["c_stop"] = c_stop
    return costs, c_stop, raw


def _parse_section(cls, section, path):
    """``cls`` built (and so checked) from the mapping ``section``, and its dict."""
    sec = _require_mapping(section, path)
    _reject_unknown(sec, path, [f.name for f in fields(cls)])
    for f in fields(cls):
        if f.default is MISSING:
            _get(sec, path, f.name)
    obj = cls(**sec)
    return obj, asdict(obj)


def _parse_output(section):
    if section is None:
        section = {}
    sec = _require_mapping(section, "output")
    _reject_unknown(sec, "output", tuple(_OUTPUT_DEFAULTS))
    directory = sec.get("directory", _OUTPUT_DEFAULTS["directory"])
    if not isinstance(directory, str) or not directory:
        raise ConfigError("output.directory", "expected a nonempty string")
    emit = sec.get("emit_traces", _OUTPUT_DEFAULTS["emit_traces"])
    if not isinstance(emit, bool):
        raise ConfigError("output.emit_traces", "expected a boolean")
    return directory, emit


def parse_config(data: dict) -> RunConfig:
    """Validate a parsed YAML mapping and build the models."""
    top = _require_mapping(data, "config")
    _reject_unknown(top, "config", ("system", "channel", "costs", "solver",
                                    "sim", "output"))
    for key in ("system", "channel", "costs", "solver"):
        if key not in top:
            raise ConfigError(key, "missing required section")
    system, raw_system = _parse_system(top["system"])
    channel, raw_channel = _parse_channel(top["channel"])
    action_costs, c_stop, raw_costs = _parse_costs(top["costs"], channel.n_actions)
    solver, raw_solver = _parse_section(SolverConfig, top["solver"], "solver")
    sim = top.get("sim")
    simcfg, raw_sim = (None, None) if sim is None else _parse_section(SimConfig, sim, "sim")
    out_dir, emit = _parse_output(top.get("output"))
    raw = {"system": raw_system, "channel": raw_channel, "costs": raw_costs,
           "solver": raw_solver, "output": {"directory": out_dir, "emit_traces": emit}}
    if raw_sim is not None:
        raw["sim"] = raw_sim
    return RunConfig(system=system, channel=channel, action_costs=action_costs,
                     c_stop=c_stop, solver=solver, sim=simcfg, out_dir=out_dir,
                     emit_traces=emit, raw=raw)


def load_config(path) -> RunConfig:
    """Load and validate a YAML configuration file (with libyaml's parser
    where PyYAML was built with it; both read the same YAML 1.1)."""
    import yaml
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = yaml.load(fh, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
        except yaml.YAMLError as exc:
            mark = getattr(exc, "problem_mark", None)
            where = f" (line {mark.line + 1}, column {mark.column + 1})" if mark else ""
            raise ConfigError("<file>", f"YAML parse error{where}: {exc}") from None
    if data is None:
        raise ConfigError("<file>", "configuration file is empty")
    return parse_config(data)
