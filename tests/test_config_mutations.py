"""Property tests of the config reader: shipped configs with one field mutated.

Each base is a shipped config with its grid cut to at most 256 points per
axis, so every mutated run stays cheap.  Replacement values avoid the
dimensions 2 and 3 and integers above 16 for the same reason: a count or grid
size has no upper bound yet, so a huge one asks numpy for terabytes (an open
item in ROADMAP.md).
"""

import copy
import json
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from strichartz_gls.cli import run  # noqa: E402

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def _cheap(cfg: dict) -> dict:
    if "grid" in cfg:
        cfg["grid"]["N"] = min(cfg["grid"]["N"], 256)
    return cfg


BASES = [_cheap(json.loads(p.read_text())) for p in sorted(CONFIG_DIR.glob("*.json"))]

# One replacement per JSON type; a number and "inf" count as one type (real).
RETYPED = {"real": [7.5, 5], "string": ["x"], "bool": [True, False], "null": [None],
           "list": [[], ["x"]], "object": [{}, {"x": 1}]}
ANY = [v for vs in RETYPED.values() for v in vs] + [
    0, -1, 16, 0.5, -2.5, 1e6 + 0.5, "inf", "", [1.5], [1.5, "inf"]]
_DROP = object()

SETTINGS = settings(deadline=None, max_examples=100, derandomize=True)


def _json_type(v) -> str:
    if isinstance(v, bool):
        return "bool"
    if isinstance(v, (int, float)) or isinstance(v, str) and v.lower() in ("inf", "infinity"):
        return "real"
    return {str: "string", type(None): "null", list: "list", dict: "object"}[type(v)]


def _paths(node, prefix=()):
    """Path of every value below ``node``: dict keys and list indices."""
    if isinstance(node, (dict, list)):
        for key in (node if isinstance(node, dict) else range(len(node))):
            yield prefix + (key,)
            yield from _paths(node[key], prefix + (key,))


def _parent(cfg, path):
    for key in path[:-1]:
        cfg = cfg[key]
    return cfg


def _mutate(data, keys_only=False):
    """A copy of a drawn base, the drawn path in it and that path's parent container."""
    cfg = copy.deepcopy(data.draw(st.sampled_from(BASES)))
    paths = [p for p in _paths(cfg) if not keys_only or isinstance(_parent(cfg, p), dict)]
    path = data.draw(st.sampled_from(paths))
    return cfg, path, _parent(cfg, path)


def _run(cfg: dict) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(cfg))
        return run(str(path), str(Path(tmp) / "out"))


@SETTINGS
@given(st.data())
def test_dropped_field_is_optional_or_a_config_error(data):
    cfg, path, parent = _mutate(data, keys_only=True)
    del parent[path[-1]]
    assert _run(cfg) in (0, 1)


@SETTINGS
@given(st.data())
def test_retyped_field_is_a_config_error(data):
    cfg, path, parent = _mutate(data)
    old = _json_type(parent[path[-1]])
    parent[path[-1]] = data.draw(st.sampled_from(
        [v for t, vs in RETYPED.items() if t != old for v in vs]))
    assert _run(cfg) == 1


@SETTINGS
@given(st.data())
def test_any_mutation_returns_an_exit_code(data):
    cfg, path, parent = _mutate(data)
    value = data.draw(st.sampled_from(ANY + [_DROP]))
    if value is _DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = copy.deepcopy(value)
    assert _run(cfg) in (0, 1, 2)
