"""Reading and writing point configurations as JSON.

The wire format is {"dim": n, "points": [[c1, ..., cn], ...]} with integer
entries only.  Loading is strict: wrong types name the offending field and
duplicated points name the duplicate.
"""

import json
import sys
from pathlib import Path
from typing import Union

from .geometry import PointConfig


class InputFormatError(ValueError):
    """Malformed configuration JSON; the message pinpoints the problem."""


def parse_point_config(text: str, source: str = "<input>") -> PointConfig:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputFormatError(
            f"{source}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise InputFormatError(f"{source}: JSON nested too deeply") from exc
    except ValueError as exc:  # an integer literal past the interpreter's digit limit
        raise InputFormatError(f"{source}: an integer has more than {sys.get_int_max_str_digits()} digits") from exc
    if not isinstance(data, dict):
        raise InputFormatError(f"{source}: top level must be an object")
    if "dim" not in data or "points" not in data:
        raise InputFormatError(f"{source}: need both 'dim' and 'points' fields")
    dim = data["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim not in (1, 2, 3):
        raise InputFormatError(f"{source}: field 'dim' must be 1, 2 or 3, got {dim!r}")
    raw = data["points"]
    if not isinstance(raw, list):
        raise InputFormatError(f"{source}: field 'points' must be a list")
    points = []
    seen = set()
    for i, entry in enumerate(raw):
        if not isinstance(entry, list) or len(entry) != dim:
            raise InputFormatError(
                f"{source}: points[{i}] must be a list of {dim} integers, got {entry!r}"
            )
        for c in entry:
            if not isinstance(c, int) or isinstance(c, bool):
                raise InputFormatError(
                    f"{source}: points[{i}] has non-integer coordinate {c!r}"
                )
        pt = tuple(entry)
        if pt in seen:
            raise InputFormatError(f"{source}: duplicate point {list(pt)} at points[{i}]")
        seen.add(pt)
        points.append(pt)
    return PointConfig.of(points, dim=dim)


def read_point_config(path: Union[str, Path]) -> PointConfig:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InputFormatError(f"{path}: not UTF-8: byte {exc.object[exc.start]:#04x} at offset {exc.start}") from exc
    return parse_point_config(text, source=str(path))


def config_to_json(config: PointConfig) -> dict:
    return {"dim": config.dim, "points": [list(p) for p in config]}


def _is_scalar(value) -> bool:
    return value is None or isinstance(value, (bool, int, float, str))


def _fmt(value, indent: str) -> str:
    if _is_scalar(value):
        return json.dumps(value)
    deeper = indent + "  "
    if isinstance(value, list):
        if all(_is_scalar(v) for v in value):
            return json.dumps(value)
        body = ",\n".join(deeper + _fmt(v, deeper) for v in value)
        return "[\n" + body + "\n" + indent + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        body = ",\n".join(
            f"{deeper}{json.dumps(k)}: {_fmt(v, deeper)}" for k, v in value.items()
        )
        return "{\n" + body + "\n" + indent + "}"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def dumps(payload: dict) -> str:
    """JSON with objects and outer lists indented but point lists kept inline."""
    return _fmt(payload, "") + "\n"
