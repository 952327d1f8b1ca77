"""Run configuration: parse, validate, default, and re-emit.

Format: UTF-8 text, one `section.key = value` per line, `#` starts a
comment.  Unknown keys are errors, as are type or range violations; every
error message carries the offending key path (and line number when
parsing).  `canonical_text` emits the full configuration in a fixed key
order so that parse(canonical_text(cfg)) round-trips exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any

from .errors import ConfigError
from .grid import GridSpec
from .minimize import GaussianBlob, SolverConfig
from .potential import Constant, CoulombSingular, Potential, Tabulated

MODES = ("solve", "sweep-lambda", "compare-vinf", "validate", "radial-crosscheck")

_POTENTIAL_KINDS = ("constant", "coulomb_singular", "tabulated")
_KINETIC_KINDS = ("fd", "spectral")
_INIT_KINDS = ("gaussian", "file")


def _parse_bool(key: str, raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"{key}: expected a boolean, got {raw!r}")


def _parse_float(key: str, raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{key}: expected a finite number, got {raw!r}")
    return value


def _parse_int(key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {raw!r}") from None


def _parse_floats(key: str, raw: str) -> tuple[float, ...]:
    try:
        values = tuple(float(tok) for tok in raw.split(",") if tok.strip())
    except ValueError:
        raise ConfigError(f"{key}: expected comma-separated numbers, got {raw!r}") from None
    if not all(math.isfinite(v) for v in values):
        raise ConfigError(f"{key}: expected finite numbers, got {raw!r}")
    return values


@dataclass(frozen=True)
class RunConfig:
    """Typed run configuration with documented defaults."""

    grid_L: float = 12.0
    grid_n: int = 32
    grid_staggered: bool = True

    potential_kind: str = "constant"
    potential_V1: float = 1.0
    potential_lambda: float = 0.0
    potential_alpha: int = 1
    potential_table_path: str = ""

    solver_p: float = 4.0
    solver_step: float = 1.0
    solver_tol: float = 1e-7
    solver_max_iters: int = 500
    solver_seed: int = 0
    solver_starts: int = 1
    solver_kinetic: str = "fd"
    solver_init: str = "gaussian"
    solver_init_width: float = 0.0  # 0 means the blob default L/6
    solver_init_center: tuple[float, float, float] = (0.0, 0.0, 0.0)
    solver_init_amplitude: float = 1.0
    solver_init_path: str = ""
    solver_coercivity_override: bool = False

    mode: str = "solve"
    output_dir: str = "runs"
    jobs: int = 1
    sweep_lambdas: tuple[float, ...] = (1.0, 2.0, 4.0)
    radial_r_max: float = 30.0
    radial_n_r: int = 2048

    def validate(self) -> None:
        if self.grid_L <= 0:
            raise ConfigError(f"grid.L: must be positive, got {self.grid_L}")
        if self.grid_n < 8:
            raise ConfigError(f"grid.n: must be at least 8, got {self.grid_n}")
        if self.grid_staggered and self.grid_n % 2:
            raise ConfigError(f"grid.n: staggered grids need even n, got {self.grid_n}")
        if self.potential_kind not in _POTENTIAL_KINDS:
            raise ConfigError(
                f"potential.kind: must be one of {_POTENTIAL_KINDS}, got {self.potential_kind!r}"
            )
        if self.potential_alpha not in (1, 2):
            raise ConfigError(f"potential.alpha: must be 1 or 2, got {self.potential_alpha}")
        if self.potential_lambda < 0:
            raise ConfigError(f"potential.lambda: must be nonnegative, got {self.potential_lambda}")
        if self.potential_kind == "tabulated" and not self.potential_table_path:
            raise ConfigError("potential.table_path: required for tabulated potentials")
        if not 3.0 < self.solver_p < 5.0:
            raise ConfigError(f"solver.p: must lie in the open interval (3, 5), got {self.solver_p}")
        if self.solver_step <= 0:
            raise ConfigError(f"solver.step: must be positive, got {self.solver_step}")
        if self.solver_tol <= 0:
            raise ConfigError(f"solver.tol: must be positive, got {self.solver_tol}")
        if self.solver_max_iters < 1:
            raise ConfigError(f"solver.max_iters: must be at least 1, got {self.solver_max_iters}")
        if self.solver_starts < 1:
            raise ConfigError(f"solver.starts: must be at least 1, got {self.solver_starts}")
        if self.solver_kinetic not in _KINETIC_KINDS:
            raise ConfigError(
                f"solver.kinetic: must be one of {_KINETIC_KINDS}, got {self.solver_kinetic!r}"
            )
        if self.solver_init not in _INIT_KINDS:
            raise ConfigError(
                f"solver.init: must be one of {_INIT_KINDS}, got {self.solver_init!r}"
            )
        if self.solver_init_width < 0:
            raise ConfigError(
                f"solver.init_width: must be nonnegative (0 means L/6), got {self.solver_init_width}"
            )
        if self.solver_init == "file" and not self.solver_init_path:
            raise ConfigError("solver.init_path: required when solver.init = file")
        if self.mode not in MODES:
            raise ConfigError(f"mode: must be one of {MODES}, got {self.mode!r}")
        if self.jobs < 1:
            raise ConfigError(f"jobs: must be at least 1, got {self.jobs}")
        if not self.sweep_lambdas:
            raise ConfigError("sweep.lambdas: need at least one value")
        if any(lam <= 0 for lam in self.sweep_lambdas):
            raise ConfigError(f"sweep.lambdas: values must be positive, got {self.sweep_lambdas}")
        if self.radial_r_max <= 0:
            raise ConfigError(f"radial.r_max: must be positive, got {self.radial_r_max}")
        if self.radial_n_r < 16:
            raise ConfigError(f"radial.n_r: must be at least 16, got {self.radial_n_r}")

    # object builders -------------------------------------------------

    def build_grid(self) -> GridSpec:
        return GridSpec(L=self.grid_L, n=self.grid_n, staggered=self.grid_staggered)

    def build_potential(self) -> Potential:
        if self.potential_kind == "constant":
            return Constant(self.potential_V1)
        if self.potential_kind == "coulomb_singular":
            return CoulombSingular(self.potential_V1, self.potential_lambda, self.potential_alpha)
        from .grid import read_field

        return Tabulated(read_field(self.potential_table_path))

    def build_solver(self) -> SolverConfig:
        if self.solver_init == "gaussian":
            init: Any = GaussianBlob(
                center=self.solver_init_center,
                width=self.solver_init_width if self.solver_init_width > 0 else None,
                amplitude=self.solver_init_amplitude,
            )
        else:
            init = self.solver_init_path
        return SolverConfig(
            p=self.solver_p,
            step=self.solver_step,
            tol_residual=self.solver_tol,
            max_iters=self.solver_max_iters,
            init=init,
            seed=self.solver_seed,
            starts=self.solver_starts,
            kinetic=self.solver_kinetic,
        )


# key path -> (attribute, parser, formatter)
def _fmt_plain(v: Any) -> str:
    return str(v)


def _fmt_float(v: float) -> str:
    return repr(float(v))


def _fmt_bool(v: bool) -> str:
    return "true" if v else "false"


def _fmt_floats(v: tuple[float, ...]) -> str:
    return ",".join(repr(float(x)) for x in v)


def _parse_center(key: str, raw: str) -> tuple[float, float, float]:
    vals = _parse_floats(key, raw)
    if len(vals) != 3:
        raise ConfigError(f"{key}: expected three comma-separated numbers, got {raw!r}")
    return (vals[0], vals[1], vals[2])


_SCHEMA: dict[str, tuple[str, Any, Any]] = {
    "grid.L": ("grid_L", _parse_float, _fmt_float),
    "grid.n": ("grid_n", _parse_int, _fmt_plain),
    "grid.staggered": ("grid_staggered", _parse_bool, _fmt_bool),
    "potential.kind": ("potential_kind", lambda k, r: r.strip(), _fmt_plain),
    "potential.V1": ("potential_V1", _parse_float, _fmt_float),
    "potential.lambda": ("potential_lambda", _parse_float, _fmt_float),
    "potential.alpha": ("potential_alpha", _parse_int, _fmt_plain),
    "potential.table_path": ("potential_table_path", lambda k, r: r.strip(), _fmt_plain),
    "solver.p": ("solver_p", _parse_float, _fmt_float),
    "solver.step": ("solver_step", _parse_float, _fmt_float),
    "solver.tol": ("solver_tol", _parse_float, _fmt_float),
    "solver.max_iters": ("solver_max_iters", _parse_int, _fmt_plain),
    "solver.seed": ("solver_seed", _parse_int, _fmt_plain),
    "solver.starts": ("solver_starts", _parse_int, _fmt_plain),
    "solver.kinetic": ("solver_kinetic", lambda k, r: r.strip(), _fmt_plain),
    "solver.init": ("solver_init", lambda k, r: r.strip(), _fmt_plain),
    "solver.init_width": ("solver_init_width", _parse_float, _fmt_float),
    "solver.init_center": ("solver_init_center", _parse_center, _fmt_floats),
    "solver.init_amplitude": ("solver_init_amplitude", _parse_float, _fmt_float),
    "solver.init_path": ("solver_init_path", lambda k, r: r.strip(), _fmt_plain),
    "solver.coercivity_override": ("solver_coercivity_override", _parse_bool, _fmt_bool),
    "mode": ("mode", lambda k, r: r.strip(), _fmt_plain),
    "output_dir": ("output_dir", lambda k, r: r.strip(), _fmt_plain),
    "jobs": ("jobs", _parse_int, _fmt_plain),
    "sweep.lambdas": ("sweep_lambdas", _parse_floats, _fmt_floats),
    "radial.r_max": ("radial_r_max", _parse_float, _fmt_float),
    "radial.n_r": ("radial_n_r", _parse_int, _fmt_plain),
}


def describe_keys() -> list[str]:
    """One help line per key with its default (for --help output)."""
    defaults = RunConfig()
    lines = []
    for key, (attr, _, fmt) in _SCHEMA.items():
        lines.append(f"{key} (default: {fmt(getattr(defaults, attr))})")
    return lines


def apply_assignments(cfg: RunConfig, pairs: list[tuple[str, str]], where: str = "") -> RunConfig:
    """Apply key=value assignments on top of a config; unknown keys error."""
    updates: dict[str, Any] = {}
    for key, raw in pairs:
        if key not in _SCHEMA:
            raise ConfigError(f"unknown key {key!r}{where}")
        attr, parser, _ = _SCHEMA[key]
        updates[attr] = parser(key, raw)
    return replace(cfg, **updates)


#: keys a config file must set explicitly; everything else has a default
REQUIRED_KEYS = ("grid.L", "grid.n", "potential.kind", "potential.V1", "solver.p")


def parse_config(text: str) -> RunConfig:
    """Parse configuration text; returns a validated RunConfig.

    The keys in REQUIRED_KEYS must be present; the rest default.
    """
    pairs: list[tuple[str, str, int]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected `key = value`, got {line.strip()!r}")
        key, raw = stripped.split("=", 1)
        pairs.append((key.strip(), raw.strip(), lineno))

    missing = [k for k in REQUIRED_KEYS if k not in {key for key, _, _ in pairs}]
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(missing)}")

    cfg = RunConfig()
    for key, raw, lineno in pairs:
        try:
            cfg = apply_assignments(cfg, [(key, raw)])
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from None
    cfg.validate()
    return cfg


def canonical_text(cfg: RunConfig) -> str:
    """Emit the full configuration in fixed key order (round-trips exactly)."""
    lines = []
    for key, (attr, _, fmt) in _SCHEMA.items():
        lines.append(f"{key} = {fmt(getattr(cfg, attr))}")
    return "\n".join(lines) + "\n"
