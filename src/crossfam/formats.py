"""Text formats: point sets, witness families, geometric graphs, certificates.

Point-set files are UTF-8 text. Lines starting with '#' are comments, the
first non-comment line is the point count n, and each of the next n lines
holds two whitespace-separated coordinates, either signed integers or
reduced rationals written ``p/q``.
"""

from __future__ import annotations

import dataclasses
import os
import re
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Sequence

from .errors import ParseError
from .geometry import Coord, PointSet, Segment


def _parse_int(token: str) -> int:
    """The integer ``token`` writes as ``[+-]?[0-9]+``, else ``ValueError``.

    ``int`` alone would also read ``1_0`` as 10 and take the digits of
    other scripts; every integer of a file format is read here instead.
    """
    if token.isascii() and (token.isdigit() or token[:1] in "+-" and token[1:].isdigit()):
        return int(token)
    raise ValueError(f"invalid integer {token!r}")


def parse_coord(token: str) -> Coord:
    if "/" in token:
        num, _, den = token.partition("/")
        return Fraction(_parse_int(num), _parse_int(den))
    return _parse_int(token)


def _content_lines(text: str) -> list[tuple[int, str]]:
    """(line number, stripped text) for every non-blank, non-comment line."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            out.append((lineno, line))
    return out


def _parse_point_block(lines: list[tuple[int, str]], start: int) -> tuple[PointSet, int]:
    """Parse n + n coordinate lines beginning at ``lines[start]``."""
    if start >= len(lines):
        raise ParseError("missing point count")
    lineno, head = lines[start]
    if len(head.split()) != 1:
        raise ParseError("expected a single point count", lineno)
    try:
        n = _parse_int(head)
    except ValueError:
        raise ParseError(f"invalid point count {head!r}", lineno) from None
    if n < 0:
        raise ParseError("point count must be non-negative", lineno)
    coords = []
    for i in range(n):
        pos = start + 1 + i
        if pos >= len(lines):
            raise ParseError(f"expected {n} points, found {i}")
        lineno, line = lines[pos]
        fields = line.split()
        if len(fields) != 2:
            raise ParseError(f"expected 2 coordinates, got {len(fields)}", lineno)
        try:
            coords.append((parse_coord(fields[0]), parse_coord(fields[1])))
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad coordinate: {exc}", lineno) from None
    return PointSet.from_coords(coords), start + 1 + n


def parse_pointset(text: str) -> PointSet:
    lines = _content_lines(text)
    S, consumed = _parse_point_block(lines, 0)
    if consumed < len(lines):
        lineno, line = lines[consumed]
        raise ParseError(f"unexpected content after point list: {line!r}", lineno)
    return S


def format_pointset(S: PointSet, comment: str | None = None) -> str:
    out = []
    if comment:
        out.extend(f"# {line}" for line in comment.splitlines())
    out.append(str(len(S)))
    for p in S:
        out.append(f"{p.x} {p.y}")
    return "\n".join(out) + "\n"


def load_pointset(path) -> PointSet:
    return parse_pointset(Path(path).read_text(encoding="utf-8"))


def save_pointset(S: PointSet, path, comment: str | None = None) -> None:
    save_text(path, format_pointset(S, comment))


def write_atomic(out, chunks: Iterable[bytes]) -> None:
    """Write the byte chunks to the file ``out`` so it is never seen half written.

    The chunks go to a temporary file in the target's directory, which is
    flushed to disk and renamed over the target, through any symlinks, only
    once every chunk is written; on any exception, an interrupt included,
    the temporary file is removed and an existing target is left as it was.
    An existing target that is not a regular file, such as ``/dev/stdout``
    or a pipe, is written directly.
    """
    if os.path.exists(out) and not os.path.isfile(out):
        with open(out, "wb") as sink:
            for chunk in chunks:
                sink.write(chunk)
        return
    path = Path(os.path.realpath(out))
    tmp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
    try:
        sink = open(tmp, "xb")
    except OSError as exc:  # name the target, not the temporary file
        raise OSError(exc.errno, exc.strerror, os.fspath(out)) from None
    try:
        with sink:
            for chunk in chunks:
                sink.write(chunk)
            sink.flush()
            os.fsync(sink.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_text(path, text: str) -> None:
    """Replace the file ``path`` with UTF-8 ``text`` through :func:`write_atomic`."""
    write_atomic(path, (text.encode("utf-8"),))


def _parse_segment_line(lineno: int, line: str) -> Segment:
    fields = line.split()
    if len(fields) != 2:
        raise ParseError(f"expected 2 point indices, got {len(fields)}", lineno)
    try:
        a, b = _parse_int(fields[0]), _parse_int(fields[1])
    except ValueError:
        raise ParseError(f"bad point index in {line!r}", lineno) from None
    if a == b:
        raise ParseError(f"degenerate segment {a} {b}", lineno)
    return Segment(a, b)


def parse_witness(text: str) -> tuple[int, tuple[Segment, ...]]:
    """Witness files: a 'k = <value>' line, then one 'a b' segment per line."""
    lines = _content_lines(text)
    if not lines:
        raise ParseError("empty witness file")
    lineno, head = lines[0]
    fields = head.split()
    if len(fields) != 3 or fields[0] != "k" or fields[1] != "=":
        raise ParseError(f"expected 'k = <value>', got {head!r}", lineno)
    try:
        k = _parse_int(fields[2])
    except ValueError:
        raise ParseError(f"bad family size {fields[2]!r}", lineno) from None
    segments = tuple(_parse_segment_line(ln, line) for ln, line in lines[1:])
    return k, segments


def format_witness(k: int, family: Sequence[Segment]) -> str:
    out = [f"k = {k}"]
    out.extend(f"{s.a} {s.b}" for s in family)
    return "\n".join(out) + "\n"


def parse_graph(text: str) -> tuple[PointSet, tuple[Segment, ...]]:
    """Graph files: a point-set block, a line 'edges', then 'a b' lines."""
    lines = _content_lines(text)
    S, pos = _parse_point_block(lines, 0)
    if pos >= len(lines) or lines[pos][1] != "edges":
        where = lines[pos][0] if pos < len(lines) else None
        raise ParseError("expected an 'edges' line after the point block", where)
    edges = []
    for lineno, line in lines[pos + 1:]:
        seg = _parse_segment_line(lineno, line)
        if not (0 <= seg.a < len(S) and 0 <= seg.b < len(S)):
            raise ParseError(f"edge {seg.a} {seg.b} out of range", lineno)
        edges.append(seg)
    return S, tuple(edges)


def format_graph(S: PointSet, edges: Sequence[Segment], comment: str | None = None) -> str:
    out = format_pointset(S, comment)
    lines = ["edges"]
    lines.extend(f"{s.a} {s.b}" for s in sorted(edges))
    return out + "\n".join(lines) + "\n"


def format_certificate(cert) -> str:
    """Replication certificates as 'key: value' lines."""
    lines = [
        f"epsilon: {cert.epsilon}",
        f"m: {cert.m}",
        f"source_n: {cert.source_n}",
        f"cluster_isolation: {'true' if cert.cluster_isolation_ok else 'false'}",
        f"copy_order: {'true' if cert.copy_order_ok else 'false'}",
    ]
    return "\n".join(lines) + "\n"


_FLAGS = {"true": True, "false": False}
_CERTIFICATE_KEYS = ("epsilon", "m", "source_n", "cluster_isolation", "copy_order")


def _key_values(text: str, form: str, what: str, keys: Sequence[str]) -> dict[str, str]:
    """The stripped value of each key of the ``form`` ('key: value', 'key = value') lines."""
    sep = form[len("key"):].split()[0]
    values: dict[str, str] = {}
    for lineno, line in _content_lines(text):
        key, found, value = line.partition(sep)
        if not found:
            raise ParseError(f"expected {form!r}, got {line!r}", lineno)
        key = key.strip()
        if key not in keys:
            raise ParseError(f"unknown {what} {key!r}", lineno)
        if key in values:
            raise ParseError(f"duplicate {what} {key!r}", lineno)
        values[key] = value.strip()
    return values


def parse_certificate(text: str):
    """Replication certificates: each field of :func:`format_certificate` once."""
    from .replication import ReplicationCertificate

    values = _key_values(text, "key: value", "certificate field", _CERTIFICATE_KEYS)

    def field(key, convert, valid=lambda value: True):
        if key not in values:
            raise ParseError(f"missing certificate field {key!r}")
        try:
            value = convert(values[key])
            ok = valid(value)
        except (ValueError, ZeroDivisionError, KeyError):
            ok = False
        if not ok:
            raise ParseError(f"bad certificate field {key!r}: {values[key]!r}")
        return value

    return ReplicationCertificate(
        epsilon=field("epsilon", parse_coord, lambda eps: eps > 0),
        m=field("m", _parse_int, lambda m: m >= 1),
        source_n=field("source_n", _parse_int, lambda n: n >= 0),
        cluster_isolation_ok=field("cluster_isolation", _FLAGS.__getitem__),
        copy_order_ok=field("copy_order", _FLAGS.__getitem__),
    )


_DECIMAL = re.compile(r"[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")


def _parse_decimal(token: str) -> float:
    """The float of an ASCII decimal such as ``str(float)`` writes, else ``ValueError``."""
    if _DECIMAL.fullmatch(token):
        return float(token)
    raise ValueError(f"invalid decimal {token!r}")


def parse_search_config(text: str):
    """Search configs are 'key = value' lines; optional key 'initial' names a point-set file.

    The other keys are the fields of ``SearchConfig``, each an ASCII integer
    or decimal as its type is. Returns (SearchConfig, initial path or None).
    """
    from .search import SearchConfig

    fields = dataclasses.fields(SearchConfig)
    raw = _key_values(text, "key = value", "config key", [f.name for f in fields] + ["initial"])
    kwargs = {}
    for f in fields:
        if f.name in raw:
            try:
                kwargs[f.name] = (_parse_decimal if f.type == "float" else _parse_int)(raw[f.name])
            except ValueError:
                raise ParseError(f"bad value for {f.name!r}: {raw[f.name]!r}") from None
        elif f.default is dataclasses.MISSING:
            raise ParseError(f"missing config key {f.name!r}")
    return SearchConfig(**kwargs), raw.get("initial")


def format_search_config(cfg, initial: str | None = None) -> str:
    lines = [f"{f.name} = {getattr(cfg, f.name)}" for f in dataclasses.fields(cfg)]
    if initial:
        lines.append(f"initial = {initial}")
    return "\n".join(lines) + "\n"


def format_trace_csv(trace: Iterable[tuple[int, float, int, int]]) -> str:
    # ints and floats need no CSV quoting, and str is repr for both
    lines = ["iteration,temperature,current_objective,best_objective"]
    lines.extend(",".join(map(str, row)) for row in trace)
    return "\n".join(lines) + "\n"
