"""Bundled candidate point sets.

Each bundled file is an extremal candidate recovered by this package's own
search (or constructed trivially), re-verified by the exact solver before
shipping. The claimed maximum crossing-family size is recorded in a
``# cf = <value>`` header comment; nothing here is transcribed from
published figures. The verified entries of the extremal library in
:mod:`crossfam.known` are read from these files.
"""

from __future__ import annotations

import re
from importlib import resources

from .errors import ParseError
from .formats import parse_pointset
from .geometry import PointSet

_CF_HEADER = re.compile(r"^#\s*cf\s*=\s*(\d+)\s*$", re.MULTILINE)


def bundled_names() -> tuple[str, ...]:
    root = resources.files(__package__) / "data"
    return tuple(sorted(p.name[:-4] for p in root.iterdir() if p.name.endswith(".txt")))


def load_bundled(name: str) -> tuple[PointSet, int]:
    """A bundled point set and its claimed maximum crossing-family size."""
    path = resources.files(__package__) / "data" / f"{name}.txt"
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise KeyError(f"no bundled set named {name!r}") from None
    match = _CF_HEADER.search(text)
    if match is None:
        raise ParseError(f"bundled set {name!r} lacks a '# cf = <value>' header")
    return parse_pointset(text), int(match.group(1))
