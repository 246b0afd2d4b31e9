"""Report containers and deterministic JSON/CSV emission.

Reports never embed timestamps so identical inputs give byte-identical files.
Every float cell of a field or trajectory body is exactly Python's repr text.
A vectorized encoder writes it a block of coefficients at a time; the bytes are
those a repr per float gives.
"""
from __future__ import annotations

import csv
import functools
import json
import math
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
    float raises a ValueError that names its key: JSON has no NaN or Infinity."""
    try:
        return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=_coerce,
                          allow_nan=False)
    except ValueError:
        plain = json.loads(json.dumps(obj, default=_coerce))  # NaN and Infinity let through
        key = next(k for k, v in _leaves(plain) if isinstance(v, float) and not math.isfinite(v))
        raise ValueError(f"{key} is not finite, and JSON has no NaN or Infinity") from None


def _coerce(obj):
    if hasattr(obj, "to_json_dict"):
        return obj.to_json_dict()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _leaves(obj, key="") -> list[tuple]:
    """(dotted key path, value) of every scalar in decoded JSON data, in canonical order."""
    if isinstance(obj, dict):
        return [leaf for k, v in sorted(obj.items())
                for leaf in _leaves(v, f"{key}.{k}" if key else k)]
    if isinstance(obj, list):
        return [leaf for v in obj for leaf in _leaves(v, key)]
    return [(key, obj)]


def write_json(path: str | Path, obj: Any) -> Path:
    text = canonical_json(obj)  # first, so a report that cannot be written makes no directory
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text + "\n")
    return path


def write_csv(path: str | Path, header: Sequence[str], rows: Sequence[Sequence[Any]]) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return path


# ---------------------------------------------------------------------------
# field / trajectory files: one-line JSON header followed by a CSV body
# ---------------------------------------------------------------------------

def save_field(path: str | Path, coeffs: np.ndarray) -> Path:
    head = {"kind": "field", "cutoff": len(coeffs) // 2, "version": __version__}
    return _write_coeffs(path, head, "xi,re,im", coeffs)


def _write_coeffs(path: str | Path, head: dict, columns: str, coeffs: np.ndarray) -> Path:
    # the loaders reject a non-finite value, so the writers never produce one
    if not np.isfinite(coeffs).all():
        raise ValueError(f"{path}: refusing to write non-finite coefficients")
    # the loaders read one index column per axis and 2*cutoff + 1 rows per band
    if coeffs.ndim != columns.count(",") - 1 or coeffs.shape[-1] % 2 == 0:
        raise ValueError(f"{path}: refusing to write coefficients of shape {coeffs.shape} "
                         f"as {columns} rows: they need one axis per index column and a "
                         f"last axis of odd length 2*cutoff + 1")
    text = f"{canonical_json(head)}\n{columns}\n".encode()
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("wb") as fh:
        fh.write(text)
        for block in _coeff_text(coeffs):
            fh.write(block)
    return path


# ---------------------------------------------------------------------------
# CSV body text: every float cell is exactly its repr, made on whole arrays
# ---------------------------------------------------------------------------
# repr prints the shortest decimal that reads back as the same double, and the
# closest one to it when several are that short.  Schubfach (Giulietti 2020)
# finds those digits with a 64x128-bit product per bound; here it runs on
# uint64 arrays, the high words built from 32-bit limbs.  A table of byte
# positions per layout then places sign, digits, point and exponent as repr does.

_U = np.uint64
_M32 = _U(2**32 - 1)
_M63 = _U(2**63 - 1)
_POW10 = np.array([10**j for j in range(18)], dtype=np.uint64)
_BLOCK = 2048  # coefficients encoded at a time: the uint64 temporaries stay in cache
_EXP2, _EXP3 = 20, 21  # layout classes of e-notation; 0..19 are fixed, decpt + 3


@functools.cache
def _schubfach_constants() -> np.ndarray:
    """Four rows with one column per 2*(biased exponent) + irregular, where
    irregular marks a significand of 2**52, whose gap below is half the gap
    above: the low and high words of g, h + 1, and k as uint64 bits.  k is the
    decimal exponent of the digits, g * 4*c*2**h / 2**127 is 4*|x|/10**k, and
    the bounds of the decimals that read back as x lie g * 2**(h+1) from it,
    the lower one half as far when irregular.

    g = floor(10**-k * 2**-r) + 1 with 2**125 <= g < 2**126, for k in [-324, 292].
    """
    rows = []
    for index in range(2 * 2047):
        bq, irregular = divmod(index, 2)
        q = max(bq, 1) - 1075  # value = c * 2**q
        k = (q * 661971961083 - irregular * 274743187321) >> 41  # floor(log10((3/4)**irr * 2**q))
        r = ((-k * 913124641741) >> 38) - 125  # floor(log2(10**-k)) - 125
        g = (10**-k >> r if r >= 0 else 10**-k << -r) if k <= 0 else (1 << -r) // 10**k
        g += 1
        h = q + r + 127
        rows.append((g & (2**64 - 1), g >> 64, h + 1, k % 2**64))
    return np.array(rows, dtype=np.uint64).T.copy()


def _mul_hi(a_hi: np.ndarray, a_lo: np.ndarray, b_hi: np.ndarray, b_lo: np.ndarray):
    """High words of the 128-bit products a*b, from their 32-bit limbs."""
    ll, lh, hl = a_lo * b_lo, a_lo * b_hi, a_hi * b_lo
    mid = (ll >> _U(32)) + (lh & _M32) + (hl & _M32)
    return a_hi * b_hi + (lh >> _U(32)) + (hl >> _U(32)) + (mid >> _U(32))


def _shortest(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(s, k): the shortest s * 10**k that reads back as |x|, the closest to |x|
    among the shortest (ties to even s).  s = 0 for a zero."""
    mag = x.view(np.uint64) & _M63
    bq = mag >> _U(52)
    t = mag & _U(2**52 - 1)
    irregular = (t == 0) & (bq > 1)
    g_lo, g_hi, right, k = np.take(_schubfach_constants(), (bq << _U(1)) + irregular, axis=1)
    c = t | (np.minimum(bq, 1) << _U(52))
    cp = c << (right + _U(1))  # 4*c*2**h
    cp_h, cp_l = cp >> _U(32), cp & _M32
    # p = g * cp in three words, exactly
    lo_hi = _mul_hi(g_lo >> _U(32), g_lo & _M32, cp_h, cp_l)
    hi_lo = g_hi * cp
    p0 = g_lo * cp
    p1 = hi_lo + lo_hi
    p2 = _mul_hi(g_hi >> _U(32), g_hi & _M32, cp_h, cp_l) + (p1 < lo_hi)

    def round_to_odd(w1, w2):
        """floor(w / 2**127), its last bit set when bits 64..126 of w are not
        all zero.  Bits 0..63 are left out, as in the reference implementation:
        g is rounded up, and its excess stays in them, so an exact tie reads as one."""
        return (w2 << _U(1)) | (w1 >> _U(63)) | ((w1 & _M63) != 0)

    def g_shifted(a):  # g * 2**a in three words, 1 <= a <= 5
        return g_lo << a, (g_hi << a) | (g_lo >> (_U(64) - a)), g_hi >> (_U(64) - a)

    d0, d1, d2 = g_shifted(right - irregular)  # the lower bound, half as far when irregular
    w0 = p0 - d0
    borrow = p0 < d0
    w1 = p1 - d1 - borrow
    vbl = round_to_odd(w1, p2 - d2 - ((p1 < d1) | ((p1 == d1) & borrow)))
    vb = round_to_odd(p1, p2)
    d0, d1, d2 = g_shifted(right)  # the upper bound: p + g * 2**(h+1)
    w0 = p0 + d0
    t1 = p1 + d1
    w1 = t1 + (w0 < d0)
    vbr = round_to_odd(w1, p2 + d2 + (t1 < d1) + (w1 < t1))
    odd = c & _U(1)  # an odd c excludes the bounds: they do not read back as x
    lower = vbl + odd
    upper = vbr - odd
    s = vb >> _U(2)
    s1 = s + _U(1)
    # one digit shorter: at most one multiple of 10 lies in the bounds.  Tried for
    # every s >= 10, since repr has no two-digit minimum (8e-323, not 7.9e-323)
    s10 = s // _U(10) * _U(10)
    lower_in = lower <= s10 << _U(2)
    shorter = (s >= _U(10)) & (lower_in != ((s10 << _U(2)) + _U(40) <= upper))
    # otherwise s or s + 1, whichever is in the bounds, or the closer (ties to even)
    mid = (s << _U(2)) + _U(2)
    pick_s = (lower <= s << _U(2)) & (
        ((s1 << _U(2)) > upper) | (vb < mid) | ((vb == mid) & ((s & _U(1)) == 0)))
    digits = np.where(shorter, s10 + _U(10) * ~lower_in, s + ~pick_s)
    digits[mag == 0] = 0
    return digits, k.view(np.int64)


# each float's source row, 32 bytes: digits d1..d16, d0, the constants below,
# and the exponent text ("e-05", "e+308") at bytes 24..28
_DOT, _ZERO, _MINUS, _COMMA, _NEWLINE, _PAD = range(17, 23)
_ROW_CONSTANTS = int.from_bytes(b"\0.0-,\n\0\0", "little")  # byte 16 is d0


@functools.cache
def _layouts() -> tuple[np.ndarray, np.ndarray]:
    """Byte positions in the source row of each repr cell and its terminator,
    indexed by ((negative * 22 + class) * 17 + significant digits - 1) * 2 + imag,
    and the exponent text for each decimal point position decpt in [-323, 309]."""
    digit = [16, *range(16)]
    rows = []
    for negative in (0, 1):
        for cls in range(22):
            for nsig in range(1, 18):
                if cls >= _EXP2:
                    body = digit[:1] + ([_DOT] + digit[1:nsig] if nsig > 1 else [])
                    body += range(24, 28 + (cls == _EXP3))
                elif cls >= 4:  # decpt >= 1: integer digits, point, at least one more
                    decpt = cls - 3
                    body = digit[:decpt] + [_DOT] + digit[decpt:max(nsig, decpt + 1)]
                else:  # decpt <= 0: "0.", -decpt zeros, the digits
                    body = [_ZERO, _DOT] + [_ZERO] * (3 - cls) + digit[:nsig]
                for end in (_COMMA, _NEWLINE):
                    row = [_MINUS] * negative + body + [end]
                    rows.append(row + [_PAD] * (25 - len(row)))
    exponents = [int.from_bytes(f"e{decpt - 1:+03d}".encode(), "little")
                 for decpt in range(-323, 310)]
    return np.array(rows, dtype=np.intp), np.array(exponents, dtype=np.uint64)


def _repr_cells(x: np.ndarray) -> np.ndarray:
    """repr of each float of x, followed by "," at even and "\\n" at odd indices,
    as an array of bytes."""
    n = len(x)
    digits, k = _shortest(x)
    zero = digits == 0
    digits |= zero
    # 17 digits, d0 first: ndig from the bit length, then shifted to the top
    bits = (digits.astype(np.float64).view(np.uint64) >> _U(52)).astype(np.int64) - 1022
    ndig = bits * 1233 >> 12
    ndig += digits >= _POW10[ndig]
    digits *= _POW10[17 - ndig]
    lead = digits // _U(10**16)
    rest = digits - lead * _U(10**16)
    # d1..d8 and d9..d16, one digit per byte (SWAR: 4 + 4, 2 + 2, 1 + 1 lanes)
    words = np.empty((2, n), dtype=np.uint64)
    np.floor_divide(rest, _U(10**8), out=words[0])
    np.subtract(rest, words[0] * _U(10**8), out=words[1])
    high = words // _U(10**4)
    words = high | ((words - high * _U(10**4)) << _U(32))
    high = ((words * _U(5243)) >> _U(19)) & _U(0x0000007F0000007F)
    words = high | ((words - high * _U(100)) << _U(16))
    high = ((words * _U(103)) >> _U(10)) & _U(0x000F000F000F000F)
    words = high | ((words - high * _U(10)) << _U(8))
    # the last nonzero digit: the top nonzero byte, from the float exponent
    top = (words.astype(np.float64).view(np.uint64) >> _U(52)).astype(np.int64)
    last = (top - 1023) >> 3
    nsig = np.where(top[1] > 0, last[1] + 10, np.where(top[0] > 0, last[0] + 2, 1))
    decpt = k + ndig
    fixed = (decpt > -4) & (decpt <= 16)
    cls = np.where(fixed, decpt + 3, _EXP2 + (np.abs(decpt - 1) >= 100))
    cls[zero] = 4  # "0.0"
    nsig[zero] = 1
    positions, exponents = _layouts()
    source = np.empty((n, 4), dtype=np.uint64)
    source[:, 0] = words[0] | _U(0x3030303030303030)
    source[:, 1] = words[1] | _U(0x3030303030303030)
    source[:, 2] = (lead - zero + _U(48)) | _U(_ROW_CONSTANTS)
    source[:, 3] = exponents[decpt + 323]
    negative = (x.view(np.uint64) >> _U(63)).astype(np.intp)
    index = np.take(positions, (((negative * 22 + cls) * 17 + nsig - 1) << 1) | (np.arange(n) & 1),
                    axis=0)
    index += np.arange(0, 32 * n, 32)[:, None]
    return np.take(source.view(np.uint8).ravel(), index).view("S25").ravel()


def _coeff_text(coeffs: np.ndarray):
    """The CSV body in blocks of bytes: one line per coefficient, its grid index
    (k for a trajectory, then xi from -cutoff), then the repr of its real and
    imaginary parts."""
    *steps, size = coeffs.shape
    labels = [np.array([f"{i}," for i in range(n)], dtype="S") for n in steps]
    labels.append(np.array([f"{xi}," for xi in range(-(size // 2), size - size // 2)], dtype="S"))
    # "k,xi," of every coefficient, in the order of the flat array
    prefix = functools.reduce(lambda a, b: np.char.add(a[..., None], b), labels).reshape(-1)
    flat = np.asarray(coeffs, dtype=np.complex128).reshape(-1)
    for start in range(0, flat.size, _BLOCK):
        cells = _repr_cells(flat[start:start + _BLOCK].view(np.float64))
        lines = np.char.add(prefix[start:start + _BLOCK], np.char.add(cells[0::2], cells[1::2]))
        yield b"".join(lines.tolist())


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
    Row i of the body holds grid point i, k major and xi ascending, as the
    writers order them.  A row that does not parse, holds a non-finite value
    or is not the point due on its line, a missing row and an extra row each
    raise a ValueError that names the line, or the first missing point.
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
    size = math.prod(shape)
    if size > np.iinfo(np.intp).max:
        raise ValueError(f"{path}:1: bad grid in header ({size} points, more than an "
                         f"array index can reach)")
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
    names = columns.removesuffix(",re,im")
    due = np.stack(np.unravel_index(np.arange(min(len(body), size)), shape), axis=-1)
    due[:, -1] -= cutoff  # xi = -cutoff sits at column 0
    reject((table[:len(due), :-2] != due).any(axis=1), f"not the {names} due on this line")
    if len(body) < size:
        *k, j = np.unravel_index(len(body), shape)
        at = ",".join(map(str, (*k, j - cutoff)))
        raise ValueError(f"{path}: missing {size - len(body)} of {size} rows, "
                         f"the first at {names}={at}")
    reject(np.arange(len(body)) >= size, "row beyond the header's grid")
    # (re, im) pairs viewed as complex numbers, so every bit, a zero's sign too, survives
    coeffs = np.ascontiguousarray(table[:, -2:]).view(complex).reshape(shape)
    return header, coeffs


def load_field(path: str | Path) -> np.ndarray:
    return _read_coeffs(path, "field")[1]


def save_trajectory(path: str | Path, traj) -> Path:
    # the time cutoff is fixed by the window, so the header's profile is null
    head = {
        "kind": "trajectory",
        "cutoff": traj.cutoff,
        "window": traj.window,
        "steps": traj.steps,
        "cutoff_profile": None,
        "version": __version__,
    }
    return _write_coeffs(path, head, "k,xi,re,im", traj.coeffs)


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
