"""Bundled example walk files."""

import json
from importlib import resources

from ..model import WalkSpec

_SUFFIX = ".json"


def names() -> list[str]:
    """Preset names without the .json suffix, sorted."""
    out = []
    for entry in resources.files(__name__).iterdir():
        if entry.name.endswith(_SUFFIX):
            out.append(entry.name[: -len(_SUFFIX)])
    return sorted(out)


def text(name: str) -> str:
    """Raw JSON text of one preset; accepts the name with or without suffix."""
    if name.endswith(_SUFFIX):
        name = name[: -len(_SUFFIX)]
    if name not in names():
        raise KeyError(f"unknown preset {name!r}, have {names()}")
    return resources.files(__name__).joinpath(name + _SUFFIX).read_text("utf-8")


def load(name: str):
    """Preset as a WalkSpec."""
    return WalkSpec.from_dict(json.loads(text(name)))
