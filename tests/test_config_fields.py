"""The one schema rule of the config blocks.

Each config dataclass checks its own fields in its constructor with
core.check_fields, which reads each field's annotation: numbers are
refused unless finite (and integral for int fields) and stored as Python
int/float; bool fields hold bools; number tuples take lists, tuples and
1-D arrays; a field annotated ``X | None``, ``tuple[X, ...]`` or
``X | tuple[X, ...]`` holds config blocks X, and a list of them is stored
as a tuple.  Fields of any other annotation are checked by their block.
lab reads config files by the same annotations.
"""

import dataclasses
import math

import numpy as np
import pytest

from flocksim import (
    AdaptationParams,
    ConfigError,
    CuckerSmaleParams,
    EnergyState,
    InteractionParams,
    ObstacleSpec,
    SimConfig,
    SweepSpec,
    TargetSpec,
)

# Every field of the config blocks with its annotation as written; the
# annotations are strings because each module uses
# ``from __future__ import annotations``, and check_fields matches them so.
FIELDS = {
    InteractionParams: dict.fromkeys(
        ("delta", "eta", "alpha", "beta", "radius", "v_max", "t_vmax"), "float"),
    CuckerSmaleParams: dict.fromkeys(("k_gain", "sigma_cs", "gamma"), "float"),
    EnergyState: dict.fromkeys(("initial", "c1", "c2"), "float"),
    AdaptationParams: dict.fromkeys(
        ("delta_min", "delta_max", "eta_min", "eta_max", "k_delta", "k_eta", "e_th"), "float"),
    TargetSpec: {"position": "tuple[float, ...]", "kappa": "float"},
    ObstacleSpec: {"center": "tuple[float, ...]", "radius": "float", "detection": "float",
                   "sigma_o": "float"},
    SweepSpec: {"etas": "tuple[float, ...]", "ns": "tuple[int, ...]",
                "deltas": "tuple[float, ...]", "seeds": "int", "duration": "float",
                "dt": "float", "breakdown_radius": "float"},
    SimConfig: {"n": "int", "duration": "float", "m": "int", "dt": "float", "seed": "int",
                "init_pos_range": "tuple", "init_vel_range": "tuple",
                "params": "InteractionParams | tuple[InteractionParams, ...]",
                "cluttered": "bool", "adaptive": "bool", "target": "TargetSpec | None",
                "obstacles": "tuple[ObstacleSpec, ...]", "energy": "EnergyState | None",
                "adaptation": "AdaptationParams | None",
                "cucker_smale": "CuckerSmaleParams | None", "workers": "int"},
}
# The fields of SimConfig that hold config blocks, with the block they hold.
BLOCKS = {"params": InteractionParams, "target": TargetSpec, "obstacles": ObstacleSpec,
          "energy": EnergyState, "adaptation": AdaptationParams,
          "cucker_smale": CuckerSmaleParams}
# Annotations check_fields handles, and the fields a block checks itself.
CHECKED = {"int", "float", "bool", "tuple[int, ...]", "tuple[float, ...]",
           *(FIELDS[SimConfig][name] for name in BLOCKS)}
SELF_CHECKED = {SimConfig: {"init_pos_range", "init_vel_range"}}
# The smallest valid arguments of each block.
BASE = {
    InteractionParams: {}, CuckerSmaleParams: {}, AdaptationParams: {},
    EnergyState: dict(initial=80.0),
    TargetSpec: dict(position=(1.0, 2.0)),
    ObstacleSpec: dict(center=(0.0, 0.0), radius=1.0, detection=2.0),
    SweepSpec: dict(etas=(3.0,), ns=(5,)),
    SimConfig: dict(n=2, duration=1.0),
}


def _fields(*kinds):
    return [pytest.param(cls, name, kind, id=f"{cls.__name__}.{name}")
            for cls, table in FIELDS.items() for name, kind in table.items() if kind in kinds]


NUMBERS = _fields("int", "float", "tuple[int, ...]", "tuple[float, ...]")
TUPLES = _fields("tuple[int, ...]", "tuple[float, ...]")


def _build(cls, name, kind, value):
    """cls with field ``name`` set to ``value``, or, for a tuple field, with
    its first element set to it."""
    if kind.startswith("tuple"):
        valid = getattr(cls(**BASE[cls]), name)
        value = (value, *valid[1:])
    return cls(**{**BASE[cls], name: value})


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda cls: cls.__name__)
def test_every_field_is_checked_by_annotation_or_by_its_block(cls):
    assert {f.name: f.type for f in dataclasses.fields(cls)} == FIELDS[cls]
    for name, kind in FIELDS[cls].items():
        assert (kind in CHECKED) != (name in SELF_CHECKED.get(cls, ())), name


@pytest.mark.parametrize("cls, name, kind", NUMBERS)
def test_number_fields_refuse_non_numbers(cls, name, kind):
    for bad in (True, False, "1", None, math.nan, math.inf, -math.inf):
        with pytest.raises(ConfigError, match=name):
            _build(cls, name, kind, bad)


@pytest.mark.parametrize("cls, name, kind", NUMBERS)
def test_number_fields_store_numpy_scalars_as_python_numbers(cls, name, kind):
    valid = getattr(cls(**BASE[cls]), name)
    integral = "int" in kind
    want = valid[0] if kind.startswith("tuple") else valid
    scalar = np.int64(want) if integral else np.float32(want)
    stored = getattr(_build(cls, name, kind, scalar), name)
    stored = stored[0] if kind.startswith("tuple") else stored
    assert type(stored) is (int if integral else float)
    assert stored == (int(want) if integral else float(np.float32(want)))


@pytest.mark.parametrize("cls, name, kind", _fields("int", "tuple[int, ...]"))
def test_int_fields_refuse_fractions(cls, name, kind):
    with pytest.raises(ConfigError, match="an integer"):
        _build(cls, name, kind, 2.5)


@pytest.mark.parametrize("cls, name, kind", _fields("bool"))
def test_bool_fields_refuse_non_bools(cls, name, kind):
    for bad in (1, "true", None, np.bool_(False)):
        with pytest.raises(ConfigError, match=name):
            _build(cls, name, kind, bad)


@pytest.mark.parametrize("cls, name, kind", TUPLES)
def test_number_tuples_take_1d_arrays_only(cls, name, kind):
    valid = getattr(cls(**BASE[cls]), name)
    stored = getattr(cls(**{**BASE[cls], name: np.array(valid)}), name)
    assert stored == valid and type(stored) is tuple
    assert [type(x) for x in stored] == [type(x) for x in valid]
    for bad in (np.array(valid)[:, None], np.array(valid[0]), "12", {valid[0]: 1}):
        with pytest.raises(ConfigError, match=name):
            cls(**{**BASE[cls], name: bad})


OUT_OF_RANGE = {
    InteractionParams: dict(radius=0.0), CuckerSmaleParams: dict(gamma=-1.0),
    EnergyState: dict(initial=0.0), AdaptationParams: dict(delta_min=3.0),
    TargetSpec: dict(position=(1.0,)), ObstacleSpec: dict(radius=0.0),
    SweepSpec: dict(breakdown_radius=0.0), SimConfig: dict(n=1),
}


@pytest.mark.parametrize("cls", list(OUT_OF_RANGE), ids=lambda cls: cls.__name__)
def test_range_checks_raise_config_error(cls):
    with pytest.raises(ConfigError):
        cls(**{**BASE[cls], **OUT_OF_RANGE[cls]})


def test_integral_ints_are_stored_as_floats_in_float_fields():
    assert type(InteractionParams(radius=5).radius) is float
    assert TargetSpec(position=[90, 90]).position == (90.0, 90.0)
    assert SweepSpec(etas=[3], ns=[5.0]).etas == (3.0,)
    assert type(SweepSpec(etas=[3], ns=[5.0]).ns[0]) is int


@pytest.mark.parametrize("name", list(BLOCKS))
def test_block_fields_refuse_what_their_annotation_does_not_name(name):
    kind, block = FIELDS[SimConfig][name], BLOCKS[name]
    one = block(**BASE[block])
    other = TargetSpec(position=(1.0, 2.0)) if block is CuckerSmaleParams else CuckerSmaleParams()
    bad = [5, "abc", {}, [{}], other, [other], (one, other), np.array([one, one])]
    if not kind.endswith("| None"):
        bad.append(None)
    if kind.startswith("tuple"):
        bad.append(one)  # one block where a list belongs
    if "tuple[" not in kind:
        bad.append([one, one])  # a list where one block belongs
    for value in bad:
        with pytest.raises(ConfigError, match=f"{name}: expected"):
            SimConfig(**{**BASE[SimConfig], name: value})


def test_block_lists_are_stored_as_tuples():
    obstacle = ObstacleSpec(**BASE[ObstacleSpec])
    cfg = SimConfig(n=2, duration=1.0, params=[InteractionParams(), InteractionParams(eta=5.0)],
                    cluttered=True, obstacles=[obstacle, obstacle])
    assert cfg.params == (InteractionParams(), InteractionParams(eta=5.0))
    assert cfg.obstacles == (obstacle, obstacle)
    assert type(cfg.params) is tuple and type(cfg.obstacles) is tuple
    for optional in ("target", "energy", "adaptation", "cucker_smale"):
        assert getattr(cfg, optional) is None
