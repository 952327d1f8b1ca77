"""Config text: round trip, unknown and missing keys, key help."""

from dataclasses import fields

import pytest

from spgs.config import (
    REQUIRED_KEYS,
    _SCHEMA,
    RunConfig,
    canonical_text,
    describe_keys,
    parse_config,
)
from spgs.errors import ConfigError
from spgs.grid import GridSpec
from spgs.minimize import SolverConfig

# one valid value per schema attribute, each different from its default
NON_DEFAULT = {
    "grid_L": 7.25,
    "grid_n": 24,
    "grid_kinetic": "spectral",
    "potential_kind": "coulomb_singular",
    "potential_V1": 1.5,
    "potential_lambda": 0.375,
    "potential_alpha": 2,
    "potential_table_path": "tables/v.field",
    "solver_p": 3.5,
    "solver_tol": 3e-9,
    "solver_max_iters": 77,
    "solver_seed": 11,
    "solver_starts": 3,
    "solver_init": "file",
    "solver_init_width": 0.625,
    "solver_init_center": (0.5, -0.25, 0.125),
    "solver_init_path": "init/u.field",
    "solver_coercivity_override": True,
    "mode": "radial-crosscheck",
    "output_dir": "out/runs",
    "jobs": 2,
    "sweep_lambdas": (0.5, 3.0),
    "radial_r_max": 20.0,
    "radial_n_r": 4096,
}


def minimal_text(skip=()):
    values = {
        "grid.L": "4.0",
        "grid.n": "16",
        "potential.kind": "constant",
        "potential.V1": "1.0",
        "solver.p": "4.0",
    }
    return "".join(f"{key} = {raw}\n" for key, raw in values.items() if key not in skip)


def test_non_default_config_sets_every_schema_key():
    assert set(NON_DEFAULT) == {attr for attr, _, _ in _SCHEMA.values()}
    assert {f.name for f in fields(RunConfig)} == set(NON_DEFAULT)
    defaults = RunConfig()
    for attr, value in NON_DEFAULT.items():
        assert getattr(defaults, attr) != value, attr


@pytest.mark.parametrize("cfg", [RunConfig(), RunConfig(**NON_DEFAULT)], ids=["defaults", "non-default"])
def test_canonical_text_round_trips(cfg):
    cfg.validate()
    assert parse_config(canonical_text(cfg)) == cfg


def test_unknown_key_is_named_with_its_line():
    text = minimal_text() + "# a comment\nsolver.tolerance = 1e-6\n"
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert "line 7" in str(exc.value)
    assert "'solver.tolerance'" in str(exc.value)


@pytest.mark.parametrize("key", REQUIRED_KEYS)
def test_missing_required_key_is_listed(key):
    with pytest.raises(ConfigError) as exc:
        parse_config(minimal_text(skip=(key,)))
    assert str(exc.value) == f"missing required keys: {key}"


def test_all_missing_required_keys_are_listed():
    with pytest.raises(ConfigError) as exc:
        parse_config("jobs = 2\n")
    assert str(exc.value) == f"missing required keys: {', '.join(REQUIRED_KEYS)}"


def test_describe_keys_gives_one_line_per_schema_key():
    lines = describe_keys()
    assert len(lines) == len(_SCHEMA)
    for line, key in zip(lines, _SCHEMA):
        assert line.startswith(f"{key} (default: ")
        assert "\n" not in line


def test_unused_potential_values_are_not_checked():
    # alpha and lambda belong to the Coulomb kind, and only it checks them
    RunConfig(potential_alpha=3, potential_lambda=-1.0).validate()
    with pytest.raises(ConfigError, match="^potential: "):
        RunConfig(potential_kind="coulomb_singular", potential_alpha=3).validate()


# the default value text of every key, in key order
DEFAULTS = [
    ("grid.L", "12.0"),
    ("grid.n", "32"),
    ("grid.kinetic", "fd"),
    ("potential.kind", "constant"),
    ("potential.V1", "1.0"),
    ("potential.lambda", "0.0"),
    ("potential.alpha", "1"),
    ("potential.table_path", ""),
    ("solver.p", "4.0"),
    ("solver.tol", "1e-07"),
    ("solver.max_iters", "500"),
    ("solver.seed", "0"),
    ("solver.starts", "1"),
    ("solver.init", "gaussian"),
    ("solver.init_width", "0.0"),
    ("solver.init_center", "0.0,0.0,0.0"),
    ("solver.init_path", ""),
    ("solver.coercivity_override", "false"),
    ("mode", "solve"),
    ("output_dir", "runs"),
    ("jobs", "1"),
    ("sweep.lambdas", "1.0,2.0,4.0"),
    ("radial.r_max", "30.0"),
    ("radial.n_r", "2048"),
]


def test_default_text_and_key_help_are_pinned():
    # the schema is derived from the RunConfig fields: this pins its key
    # names, order and value formats
    assert canonical_text(RunConfig()) == "".join(f"{key} = {value}\n" for key, value in DEFAULTS)
    assert describe_keys() == [f"{key} (default: {value})" for key, value in DEFAULTS]


def test_defaults_are_the_objects_own():
    # RunConfig reads its solver and grid defaults from the classes that own them
    assert RunConfig().build_solver() == SolverConfig()
    assert RunConfig(grid_L=4.0, grid_n=16).build_grid() == GridSpec(4.0, 16)
