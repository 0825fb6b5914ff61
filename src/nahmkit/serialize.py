"""JSON (de)serialization of singularity data and reports.

Complex numbers are [re, im] pairs.  Parse failures raise SpecError with a
path-qualified message.
"""
from __future__ import annotations

from typing import Any

from .moduli import (
    ConnectionData,
    DataError,
    HiggsData,
    InfinityGroup,
    LogPoint,
    SingularityData,
    WeightedEigen,
)


class SpecError(ValueError):
    pass


def _complex_from(obj, path: str) -> complex:
    if (
        not isinstance(obj, (list, tuple))
        or len(obj) != 2
        or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in obj)
    ):
        raise SpecError(f"{path}: expected a [re, im] pair, got {obj!r}")
    return complex(obj[0], obj[1])


def _entry_from(obj, path: str) -> WeightedEigen:
    if not isinstance(obj, dict):
        raise SpecError(f"{path}: expected an object")
    if "value" not in obj or "weight" not in obj:
        raise SpecError(f"{path}: entry needs 'value' and 'weight'")
    w = obj["weight"]
    if not isinstance(w, (int, float)) or isinstance(w, bool):
        raise SpecError(f"{path}.weight: expected a number")
    try:
        return WeightedEigen(_complex_from(obj["value"], f"{path}.value"), float(w))
    except DataError as exc:
        raise SpecError(f"{path}: {exc}") from exc


def data_from_dict(obj: Any, path: str = "$") -> SingularityData:
    if not isinstance(obj, dict):
        raise SpecError(f"{path}: expected an object")
    kind = obj.get("kind")
    if kind not in ("higgs", "connection"):
        raise SpecError(f"{path}.kind: expected 'higgs' or 'connection', got {kind!r}")
    for key in ("rank", "degree"):
        if not isinstance(obj.get(key), int) or isinstance(obj.get(key), bool):
            raise SpecError(f"{path}.{key}: expected an integer")
    log_points = _components_from(obj, path, "log_points", "position", LogPoint)
    inf_groups = _components_from(obj, path, "inf_groups", "xi", InfinityGroup)
    cls = HiggsData if kind == "higgs" else ConnectionData
    try:
        return cls(obj["rank"], obj["degree"], log_points, inf_groups)
    except DataError as exc:
        raise SpecError(f"{path}: {exc}") from exc


def _components_from(obj: dict, path: str, name: str, key: str, cls) -> tuple:
    """Log points (key "position") or infinity groups (key "xi") of a spec."""
    out = []
    for j, c in enumerate(obj.get(name, [])):
        p = f"{path}.{name}[{j}]"
        if not isinstance(c, dict) or key not in c or "entries" not in c:
            raise SpecError(f"{p}: expected an object with '{key}' and 'entries'")
        entries = tuple(_entry_from(e, f"{p}.entries[{k}]") for k, e in enumerate(c["entries"]))
        try:
            out.append(cls(_complex_from(c[key], f"{p}.{key}"), entries))
        except DataError as exc:
            raise SpecError(f"{p}: {exc}") from exc
    return tuple(out)


def _component_to(key: str, at: complex, entries) -> dict:
    values = [{"value": [e.value.real, e.value.imag], "weight": e.weight} for e in entries]
    return {key: [at.real, at.imag], "entries": values}


def data_to_dict(data: SingularityData) -> dict:
    kind = "higgs" if isinstance(data, HiggsData) else "connection"
    return {
        "kind": kind,
        "rank": data.rank,
        "degree": data.degree,
        "log_points": [_component_to("position", lp.position, lp.entries) for lp in data.log_points],
        "inf_groups": [_component_to("xi", g.xi, g.entries) for g in data.inf_groups],
    }


def realization_from_dict(obj: Any, path: str = "$.realization") -> dict:
    """Validated field-realization block: {'mode': 'diagonal'|'random', 'seed': int >= 0}."""
    if obj is None:
        return {"mode": "diagonal", "seed": 0}
    if not isinstance(obj, dict):
        raise SpecError(f"{path}: expected an object")
    mode = obj.get("mode", "diagonal")
    if mode not in ("diagonal", "random"):
        raise SpecError(f"{path}.mode: expected 'diagonal' or 'random', got {mode!r}")
    seed = obj.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise SpecError(f"{path}.seed: expected a non-negative integer")
    return {"mode": mode, "seed": seed}
