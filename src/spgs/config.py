"""Run configuration: parse, validate, default, and re-emit.

Format: UTF-8 text, one `section.key = value` per line, `#` starts a
comment.  Each key is one `RunConfig` field: the field `solver_init_width`
is the key `solver.init_width` (the first `_` becomes `.` when the prefix
is a section of `_SECTIONS`), and the field's annotation picks the key's
parser and formatter.  Adding a key means adding a field.

Unknown keys and unparsable values are errors that name the key (and the
line when parsing).  `RunConfig.validate` checks the rules that join
several keys itself; the range of each value is checked by the object
that takes it (`GridSpec`, `SolverConfig`, `GaussianBlob`, the
potential), which validate builds, and such a refusal reads
`<section>: <the object's message>`.  `canonical_text` emits the full
configuration in field order so that parse(canonical_text(cfg))
round-trips exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Any

from .errors import ConfigError
from .grid import GridSpec, read_field
from .minimize import GaussianBlob, SolverConfig
from .potential import Constant, CoulombSingular, Potential, Tabulated

MODES = ("solve", "sweep-lambda", "compare-vinf", "validate", "radial-crosscheck")

_POTENTIAL_KINDS = ("constant", "coulomb_singular", "tabulated")
_INIT_KINDS = ("gaussian", "file")
# field-name prefixes that are key sections: grid_n is the key grid.n
_SECTIONS = ("grid", "potential", "solver", "sweep", "radial")


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
    grid_kinetic: str = GridSpec.kinetic

    potential_kind: str = "constant"
    potential_V1: float = 1.0
    potential_lambda: float = 0.0
    potential_alpha: int = 1
    potential_table_path: str = ""

    solver_p: float = SolverConfig.p
    solver_tol: float = SolverConfig.tol_residual
    solver_max_iters: int = SolverConfig.max_iters
    solver_seed: int = SolverConfig.seed
    solver_starts: int = SolverConfig.starts
    solver_init: str = "gaussian"
    solver_init_width: float = 0.0  # 0 means the blob default, minimize.ritz_width
    solver_init_center: tuple[float, float, float] = GaussianBlob.center
    solver_init_path: str = ""
    solver_coercivity_override: bool = SolverConfig.coercivity_override

    mode: str = "solve"
    output_dir: str = "runs"
    sweep_lambdas: tuple[float, ...] = (1.0, 2.0, 4.0)
    radial_r_max: float = 30.0
    radial_n_r: int = 2048

    def validate(self) -> None:
        """Check the rules that join keys, then build the run's objects.

        Each object checks the ranges of the values it takes, and its
        ValueError becomes ConfigError("<section>: <message>").  A tabulated
        potential is not built here, since that reads its file.
        """
        if self.potential_kind not in _POTENTIAL_KINDS:
            raise ConfigError(
                f"potential.kind: must be one of {_POTENTIAL_KINDS}, got {self.potential_kind!r}"
            )
        if self.potential_kind == "tabulated" and not self.potential_table_path:
            raise ConfigError("potential.table_path: required for tabulated potentials")
        if self.solver_init not in _INIT_KINDS:
            raise ConfigError(
                f"solver.init: must be one of {_INIT_KINDS}, got {self.solver_init!r}"
            )
        if self.solver_init == "file" and not self.solver_init_path:
            raise ConfigError("solver.init_path: required when solver.init = file")
        if self.mode not in MODES:
            raise ConfigError(f"mode: must be one of {MODES}, got {self.mode!r}")
        if self.mode == "radial-crosscheck" and self.potential_kind == "tabulated":
            raise ConfigError(
                "potential.kind: radial-crosscheck needs a radially symmetric potential "
                "(constant or coulomb_singular), got 'tabulated'"
            )
        if self.mode == "compare-vinf" and self.solver_init == "file":
            raise ConfigError(
                "solver.init: compare-vinf also solves on a refined grid, which a field dump "
                "does not fit; use solver.init = gaussian"
            )
        if self.mode == "compare-vinf" and self.potential_kind == "tabulated":
            raise ConfigError(
                "potential.kind: compare-vinf also solves on a refined grid, which a table "
                "does not fit; use constant or coulomb_singular"
            )
        if not self.sweep_lambdas:
            raise ConfigError("sweep.lambdas: need at least one value")
        if any(lam <= 0 for lam in self.sweep_lambdas):
            raise ConfigError(f"sweep.lambdas: values must be positive, got {self.sweep_lambdas}")
        if len(set(self.sweep_lambdas)) != len(self.sweep_lambdas):
            raise ConfigError(f"sweep.lambdas: values must be distinct, got {self.sweep_lambdas}")
        # radial_ground_state checks these too, but it sits behind the scipy
        # import, which neither the CLI nor its set-up loads
        if self.radial_r_max <= 0:
            raise ConfigError(f"radial.r_max: must be positive, got {self.radial_r_max}")
        if self.radial_n_r < 16:
            raise ConfigError(f"radial.n_r: must be at least 16, got {self.radial_n_r}")
        builds = [("grid", self.build_grid), ("solver", self.build_solver)]
        if self.potential_kind != "tabulated":
            builds.append(("potential", self.build_potential))
        for section, build in builds:
            try:
                build()
            except ValueError as exc:
                raise ConfigError(f"{section}: {exc}") from None

    # object builders -------------------------------------------------

    def build_grid(self) -> GridSpec:
        return GridSpec(L=self.grid_L, n=self.grid_n, kinetic=self.grid_kinetic)

    def build_potential(self) -> Potential:
        if self.potential_kind == "constant":
            return Constant(self.potential_V1)
        if self.potential_kind == "coulomb_singular":
            return CoulombSingular(self.potential_V1, self.potential_lambda, self.potential_alpha)
        return Tabulated(read_field(self.potential_table_path))

    def build_solver(self) -> SolverConfig:
        if self.solver_init == "gaussian":
            init: Any = GaussianBlob(center=self.solver_init_center, width=self.solver_init_width or None)
        else:
            init = self.solver_init_path
        return SolverConfig(
            p=self.solver_p,
            tol_residual=self.solver_tol,
            max_iters=self.solver_max_iters,
            init=init,
            seed=self.solver_seed,
            starts=self.solver_starts,
            coercivity_override=self.solver_coercivity_override,
        )


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


# a field's annotation -> (parser, formatter) of its key
_CODECS: dict[str, tuple[Any, Any]] = {
    "float": (_parse_float, _fmt_float),
    "int": (_parse_int, _fmt_plain),
    "str": (lambda k, r: r.strip(), _fmt_plain),
    "bool": (_parse_bool, _fmt_bool),
    "tuple[float, float, float]": (_parse_center, _fmt_floats),
    "tuple[float, ...]": (_parse_floats, _fmt_floats),
}


def _key(attr: str) -> str:
    section, _, rest = attr.partition("_")
    return f"{section}.{rest}" if section in _SECTIONS else attr


# key path -> (attribute, parser, formatter), in field order
_SCHEMA: dict[str, tuple[str, Any, Any]] = {
    _key(f.name): (f.name, *_CODECS[f.type]) for f in fields(RunConfig)
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
