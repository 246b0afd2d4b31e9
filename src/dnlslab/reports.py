"""Report containers and deterministic JSON/CSV emission.

Reports never embed timestamps so identical inputs give byte-identical files.
"""
from __future__ import annotations

import csv
import functools
import itertools
import json
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Sequence

import numpy as np

__version__ = "0.1.0"

EVIDENCE_CAVEAT = (
    "evidence scan: a bounded maximum over random samples supports but does not "
    "prove an inequality"
)


@dataclass(frozen=True)
class ScanReport:
    """Parameter grid mapped to scalar results, with a deterministic summary."""

    name: str
    grid: dict[str, Any]
    values: tuple[float, ...]
    summary: dict[str, Any]
    seed: int | None = None
    caveat: str | None = None

    def to_json_dict(self) -> dict[str, Any]:
        return {**{f.name: getattr(self, f.name) for f in fields(self)}, "version": __version__}


def canonical_json(obj: Any) -> str:
    """Deterministic JSON text: sorted keys, repr-stable floats.  A non-finite
    float raises a ValueError: JSON has no NaN or Infinity."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=_coerce,
                      allow_nan=False)


def _coerce(obj):
    if hasattr(obj, "to_json_dict"):
        return obj.to_json_dict()
    if hasattr(obj, "item"):
        return obj.item()
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    raise TypeError(f"not JSON serializable: {type(obj)}")


def write_json(path: str | Path, obj: Any) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(canonical_json(obj) + "\n")
    return path


def write_csv(path: str | Path, header: Sequence[str], rows: Sequence[Sequence[Any]]) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(v) for v in row])
    return path


def _cell(v) -> str:
    if isinstance(v, float):
        return repr(v)
    if hasattr(v, "item"):
        v = v.item()
        return repr(v) if isinstance(v, float) else str(v)
    return str(v)


# ---------------------------------------------------------------------------
# field / trajectory files: one-line JSON header followed by a CSV body
# ---------------------------------------------------------------------------

def _check_finite(path: str | Path, coeffs: np.ndarray) -> None:
    """The loaders reject a non-finite value, so the writers never produce one."""
    if not np.isfinite(coeffs).all():
        raise ValueError(f"{path}: refusing to write non-finite coefficients")


def save_field(path: str | Path, coeffs: np.ndarray) -> Path:
    _check_finite(path, coeffs)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    head = canonical_json({"kind": "field", "cutoff": len(coeffs) // 2, "version": __version__})
    path.write_text("\n".join([head, "xi,re,im", *_coeff_lines(coeffs)]) + "\n")
    return path


def _coeff_lines(coeffs: np.ndarray) -> list[str]:
    """One CSV line per coefficient: its grid index (k for a trajectory, then
    xi from -cutoff), then the real and imaginary parts as repr floats."""
    cutoff = coeffs.shape[-1] // 2
    index = itertools.product(*(map(str, range(n)) for n in coeffs.shape[:-1]),
                              map(str, range(-cutoff, cutoff + 1)))
    return [",".join(ix) + f",{c.real!r},{c.imag!r}"
            for ix, c in zip(index, coeffs.ravel().tolist())]


def _header(line: str, path: str | Path) -> dict:
    try:
        header = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}:1: unreadable header ({exc})") from None
    if not isinstance(header, dict):
        raise ValueError(f"{path}:1: header is not a JSON object")
    return header


def file_kind(path: str | Path):
    """The "kind" that the header line of a file names; the loaders check it."""
    with open(path) as fh:
        return _header(fh.readline(), path).get("kind")


def _header_value(header: dict, key: str, types: type | tuple[type, ...]):
    """header[key], which must be a JSON value of the given types; a bool is not a number."""
    value = header[key]
    if isinstance(value, bool) or not isinstance(value, types):
        name = "integer" if types is int else "number"
        raise TypeError(f"{key} must be a JSON {name}, got {value!r}")
    return value


def _read_coeffs(path: str | Path, kind: str) -> tuple[dict, np.ndarray]:
    """Header and coefficient array of a field or trajectory file.

    The header fixes the grid: the cutoff, and for a trajectory the steps.
    Every body row must parse, hold a finite value, lie on that grid and
    appear exactly once; otherwise a ValueError names the offending line.
    """
    columns = "k,xi,re,im" if kind == "trajectory" else "xi,re,im"
    lines = Path(path).read_text().rstrip().splitlines()
    header = _header(lines[0] if lines else "", path)
    if header.get("kind") != kind:
        raise ValueError(f"{path} is not a {kind} file")
    try:
        cutoff = _header_value(header, "cutoff", int)
        shape = (2 * cutoff + 1,)
        if kind == "trajectory":
            shape = (_header_value(header, "steps", int) + 1,) + shape
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{path}:1: bad grid in header ({exc!r})") from None
    if cutoff < 0 or (kind == "trajectory" and shape[0] < 2):
        raise ValueError(f"{path}:1: header needs cutoff >= 0 and steps >= 1")
    if lines[1:2] != [columns]:
        raise ValueError(f"{path}:2: expected the column line {columns!r}")
    body = lines[2:]
    ncols = len(shape) + 2
    # numpy's C reader; it skips blank rows, which the shape check below then catches
    parse = functools.partial(np.loadtxt, delimiter=",", comments=None, ndmin=2)
    try:
        table = parse(body) if body else np.empty((0, ncols))
        if table.shape != (len(body), ncols):
            raise ValueError(f"expected {len(body)} rows of {ncols} fields")
    except ValueError:
        for lineno, line in enumerate(body, start=3):
            try:
                if len(line.split(",")) != ncols:
                    raise ValueError(f"expected {ncols} fields")
                parse([line])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: cannot parse {line!r} ({exc})") from None
        raise

    def reject(bad: np.ndarray, problem: str):
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(f"{path}:{i + 3}: {problem} in {body[i]!r}")

    reject(~np.isfinite(table).all(axis=1), "non-finite value")
    index = table[:, :-2].astype(np.int64)
    reject((index != table[:, :-2]).any(axis=1), "non-integer index")
    index[:, -1] += cutoff  # xi = -cutoff sits at column 0
    reject(((index < 0) | (index >= shape)).any(axis=1), "index outside the header's grid")
    flat = np.ravel_multi_index(index.T, shape)
    repeat = np.ones(len(flat), dtype=bool)
    repeat[np.unique(flat, return_index=True)[1]] = False
    reject(repeat, "duplicate row")
    coeffs = np.zeros(shape, dtype=complex)
    if len(flat) != coeffs.size:
        seen = np.zeros(coeffs.size, dtype=bool)
        seen[flat] = True
        *k, j = np.unravel_index(np.argmin(seen), shape)
        at = ",".join(map(str, (*k, j - cutoff)))
        raise ValueError(f"{path}: missing {coeffs.size - len(flat)} of {coeffs.size} rows, "
                         f"the first at {columns.removesuffix(',re,im')}={at}")
    # (re, im) pairs viewed as complex numbers, so every bit, a zero's sign too, survives
    coeffs.flat[flat] = np.ascontiguousarray(table[:, -2:]).view(complex)[:, 0]
    return header, coeffs


def load_field(path: str | Path) -> np.ndarray:
    return _read_coeffs(path, "field")[1]


def save_trajectory(path: str | Path, traj) -> Path:
    _check_finite(path, traj.coeffs)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # the time cutoff is fixed by the window, so the header names no profile
    head = {
        "kind": "trajectory",
        "cutoff": traj.cutoff,
        "window": traj.window,
        "steps": traj.steps,
        "cutoff_profile": None,
        "version": __version__,
    }
    lines = [canonical_json(head), "k,xi,re,im", *_coeff_lines(traj.coeffs)]
    path.write_text("\n".join(lines) + "\n")
    return path


def load_trajectory(path: str | Path):
    """The trajectory in a file.  Its header's cutoff_profile must be null or the
    bump at half the window, the cutoff that Trajectory.windowed() applies."""
    from .fields import Trajectory

    header, coeffs = _read_coeffs(path, "trajectory")
    try:
        window = float(_header_value(header, "window", (int, float)))
        profile = header["cutoff_profile"]
        if profile is not None and (profile != {"kind": "bump", "scale": window / 2.0}
                                    or isinstance(profile["scale"], bool)):
            raise ValueError(f"cutoff profile must be null or the bump at half the window, "
                             f"got {profile!r}")
        return Trajectory(coeffs, window)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{path}:1: bad header ({exc!r})") from None
