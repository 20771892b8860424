"""Deterministic CSV/JSON writers.

CSVs are written by columns and newlines are always '\\n', so repeated runs
with the same inputs produce byte-identical files. All float columns of a
table, or a grid, go through one exact vectorized %.17g kernel as one block
(``_grid_csv_body``); int columns are written with ``str``, bool columns as
``true``/``false`` and str columns as they are. The kernel gives the bytes
of ``'%.17g' % v`` for every value. Per value it

* estimates the decimal exponent e = floor(log10|x|) and computes
  |x| * 10**(16 - e) as a double-double product (Dekker's TwoProduct with a
  double-double table of powers of ten built from exact integers), whose
  error is far below 1e-6;
* checks e against that unrounded product, which must lie in
  [1e16, 1e17), and rounds it to the 17-digit integer D, half to even;
* turns D into ASCII through a 10,000-entry table of 4-digit words and
  lays out the %g form (fixed for -4 <= e < 17, else ``e+XX``) in
  little-endian 64-bit words, with the trailing-zero strip, the decimal
  point, prefix and exponent suffix chosen by table lookups on (e, digit
  count, sign); the NUL padding is then deleted.

Values the fast path cannot prove exact go through Python's own %.17g:
non-finite values, |x| outside [1e-280, 1e280] (subnormals included),
products outside [1e16, 1e17) (where log10 missed by one), a rounding that
carries to 1e17, and products within 1e-6 of a rounding tie (exact ties
included).
"""

from __future__ import annotations

import json
import os
from typing import Sequence

import numpy as np


def _write(path: str, header: Sequence[str], body: bytes) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "wb") as f:
        f.write(",".join(header).encode() + b"\n")
        f.write(body)


def write_csv(path: str, header: Sequence[str], columns: Sequence) -> None:
    """CSV of one 1-D column per header name, all columns of one length. The
    float columns are formatted as one block and the other cells spliced in."""
    cols = [np.asarray(c) for c in columns]
    if len(cols) != len(header) or len({c.shape for c in cols}) > 1 or cols[0].ndim != 1:
        raise ValueError(f"{path}: column shapes {[c.shape for c in cols]} for {header}")
    floats = [c for c in cols if c.dtype.kind == "f"]
    cells = (_grid_csv_body(np.column_stack(floats)).replace(b"\n", b",").split(b",")[:-1]
             if floats else [])
    w, rows = 2 * len(cols), len(cols[0])
    out = [b","] * (w * rows)  # per row: cell, ',', cell, ..., cell, '\n'
    out[w - 1::w] = [b"\n"] * rows
    k = 0
    for p, c in enumerate(cols):
        if c.dtype.kind == "f":
            out[2 * p::w] = cells[k::len(floats)]
            k += 1
        elif c.dtype.kind == "c":
            raise TypeError(f"CSV column {header[p]!r} is complex; write re and im columns")
        elif c.dtype.kind == "b":
            out[2 * p::w] = np.where(c, b"true", b"false").tolist()
        else:
            out[2 * p::w] = [str(v).encode() for v in c.tolist()]
    _write(path, header, b"".join(out))


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, float) and not np.isfinite(obj):
        return repr(obj)
    return obj


def write_json(path: str, payload: dict) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", newline="\n") as f:
        json.dump(_jsonable(payload), f, indent=2, sort_keys=True)
        f.write("\n")


def write_grid_csv(path: str, array: np.ndarray) -> None:
    """Matrix-layout CSV of one real nodal field (rows bottom-to-top), in
    the bytes write_csv gives for its columns."""
    _write(path, [f"c{i}" for i in range(array.shape[1])], _grid_csv_body(array))


# ---------------------------------------------------------------------------
# Exact vectorized %.17g (see the module docstring)
# ---------------------------------------------------------------------------

# Values per formatting pass (whole rows; a longer row is a pass of its
# own). 2**13 keeps every float64/int64 temporary at 64 KiB,
# under glibc's default 128 KiB mmap threshold, so temporaries are reused
# from the heap instead of being page-faulted in afresh; passes of 2**16
# values measured 1.3-1.9x slower per value on 161^2 grids.
_BLOCK_VALUES = 1 << 13
_FAST_MIN, _FAST_MAX = 1e-280, 1e280  # |x| range of the fast path
_TIE_BAND = 1e-6    # fractional parts this close to 1/2 go to Python
_S_MIN, _S_MAX = -264, 297   # 10**(16 - e) for floor(log10|x|) of the fast range
_E_MIN, _E_MAX = -300, 300   # exponents the layout tables cover
_SPLIT = 134217729.0         # 2**27 + 1: Veltkamp splitting constant
_TEN16, _TEN17 = 10 ** 16, 10 ** 17


def _words(texts) -> np.ndarray:
    """Each text (<= 8 bytes) as a little-endian uint64, NUL-padded."""
    return np.array([int.from_bytes(t.ljust(8, b"\0"), "little") for t in texts],
                    dtype="<u8")


def _pow10_table() -> tuple[np.ndarray, ...]:
    """10**s = hi + lo for s in [_S_MIN, _S_MAX], from exact integers, with
    hi split into halves hh + hl of 26 bits for TwoProduct."""
    hi = np.empty(_S_MAX - _S_MIN + 1)
    lo = np.empty_like(hi)
    for i, s in enumerate(range(_S_MIN, _S_MAX + 1)):
        num, den = (10 ** s, 1) if s >= 0 else (1, 10 ** -s)
        h = num / den  # int / int is correctly rounded
        h_num, h_den = h.as_integer_ratio()
        hi[i], lo[i] = h, (num * h_den - h_num * den) / (den * h_den)
    c = _SPLIT * hi
    hh = c - (c - hi)
    return hi, hh, hi - hh, lo


def _layout_tables() -> tuple[np.ndarray, ...]:
    """The %g layout as lookups.

    Indexed by 18 * (e - _E_MIN) + nd (nd = significant digits of D):
    the number of digits before the point (all of them for 0.000ddd) and the
    length of digits plus point. Indexed by 2 * (e - _E_MIN) + negative: the
    sign and ``0.000`` prefix. Indexed by e - _E_MIN: the exponent suffix
    and separator, for ``,`` and for ``\\n``.
    """
    e = np.arange(_E_MIN, _E_MAX + 1)
    nd = np.arange(18)
    fixed = (e >= -4) & (e < 17)  # %g: fixed notation when -4 <= e < precision
    small = fixed & (e < 0)
    head = np.where(small[:, None], nd, np.where(fixed, e + 1, 1)[:, None])
    end = np.maximum(nd, head)
    core = end + (end > head)
    prefix = [sign + (b"0." + b"0" * (-k - 1) if s else b"")
              for k, s in zip(e.tolist(), small) for sign in (b"", b"-")]
    suffix = [b"" if f else b"e%+03d" % k for k, f in zip(e.tolist(), fixed)]
    return (head.ravel().astype(np.int8), core.ravel().astype(np.int8), _words(prefix),
            _words([s + b"," for s in suffix]), _words([s + b"\n" for s in suffix]))


def _digit_tables() -> tuple[np.ndarray, list[np.ndarray]]:
    """"%04d" % k as a word, and per chunk c = 0..3 of D the digit count up
    to the last nonzero digit when chunk c holds k (1 when k = 0)."""
    k = np.arange(10000)
    digits = sum((48 + k // 10 ** (3 - i) % 10).astype("<u8") << np.uint64(8 * i)
                 for i in range(4))
    sig = np.where(k > 0, 4 - sum(k % 10 ** i == 0 for i in (1, 2, 3)), 0)
    return digits, [np.where(sig > 0, 1 + 4 * c + sig, 1).astype(np.int8) for c in range(4)]


_P_HI, _P_HH, _P_HL, _P_LO = _pow10_table()
_HEAD, _CORE, _PREFIX, _SUFFIX, _SUFFIX_NL = _layout_tables()
_DIGITS4, _SIG_END = _digit_tables()
# word j of "first c bytes" masks and of a '.' at byte c of the digit words
_KEEP = [_words([b"\xff" * min(max(c - 8 * j, 0), 8) for c in range(25)]) for j in range(3)]
_DOT = [_words([b"\0" * (c - 8 * j) + b"." if 0 <= c - 8 * j < 8 else b""
                for c in range(18)]) for j in range(3)]
_ZERO = _words([b"0"])[0]
_B8, _B16, _B24, _B40, _B56 = (np.uint64(k) for k in (8, 16, 24, 40, 56))


def _scaled(y: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """y * 10**(16 - e) as its integer floor and fractional part, from the
    exact product y * hi (TwoProduct) plus y * lo. Exact in the floor where
    it lies in [1e16, 1e17), where y * hi is an integer double."""
    i = 16 - e - _S_MIN
    hi, hh, hl = _P_HI.take(i), _P_HH.take(i), _P_HL.take(i)
    p = y * hi
    c = _SPLIT * y
    yh = c - (c - y)
    yl = y - yh
    r = (((yh * hh - p) + yh * hl + yl * hh) + yl * hl) + y * _P_LO.take(i)
    fl = np.floor(r)
    return p.astype(np.int64) + fl.astype(np.int64), r - fl


def _format_block(block: np.ndarray) -> bytes:
    """%.17g of a 2-D float64 block, ``,`` between values, ``\\n`` after rows."""
    cols = block.shape[1]
    x = block.ravel()
    mag = np.abs(x)
    fast = (mag >= _FAST_MIN) & (mag <= _FAST_MAX)
    y = np.where(fast, mag, 1.0)
    e = np.floor(np.log10(y)).astype(np.int64)
    whole, frac = _scaled(y, e)
    d = whole + (frac > 0.5)
    # a log10 that missed by one, or a carry to 1e17, puts D outside
    # [1e16, 1e17): Python formats those
    slow = (~fast & (mag != 0) | (np.abs(frac - 0.5) < _TIE_BAND)
            | (whole < _TEN16) | (d >= _TEN17))

    # D = lead, then four 4-digit chunks; digit p of D is byte p of d0|d1|d2
    lead = d // _TEN16
    hi8 = d // 10 ** 8 - lead * 10 ** 8
    lo8 = d - d // 10 ** 8 * 10 ** 8
    c0 = hi8 // 10000
    c1 = hi8 - c0 * 10000
    c2 = lo8 // 10000
    c3 = lo8 - c2 * 10000
    nd = np.maximum(np.maximum(_SIG_END[0].take(c0), _SIG_END[1].take(c1)),
                    np.maximum(_SIG_END[2].take(c2), _SIG_END[3].take(c3)))
    t1, t3 = _DIGITS4.take(c1), _DIGITS4.take(c3)
    d0 = (lead + 48).astype("<u8") | _DIGITS4.take(c0) << _B8 | t1 << _B40
    d1 = t1 >> _B24 | _DIGITS4.take(c2) << _B8 | t3 << _B40
    d2 = t3 >> _B24

    # core = the digits before the point, '.', the digits after it (the
    # upper bytes moved up by one), cut after the last digit kept
    ei = e - _E_MIN
    k = 18 * ei + nd
    head, core = _HEAD.take(k), _CORE.take(k)
    lo0, lo1, lo2 = (d0 & _KEEP[0].take(head), d1 & _KEEP[1].take(head),
                     d2 & _KEEP[2].take(head))
    up0, up1, up2 = d0 ^ lo0, d1 ^ lo1, d2 ^ lo2
    # a value's 32-byte slot: prefix, core bytes 0-7, 8-15, 16-17 and the
    # suffix from byte 2 of the last word (the core is at most 18 bytes)
    suffix = _SUFFIX.take(ei)
    suffix[cols - 1::cols] = _SUFFIX_NL.take(ei[cols - 1::cols])
    out = np.empty((x.size, 4), "<u8")
    out[:, 0] = _PREFIX.take(2 * ei + np.signbit(x))
    out[:, 1] = (lo0 | up0 << _B8 | _DOT[0].take(head)) & _KEEP[0].take(core)
    out[:, 2] = (lo1 | up1 << _B8 | up0 >> _B56 | _DOT[1].take(head)) & _KEEP[1].take(core)
    out[:, 3] = ((lo2 | up2 << _B8 | up1 >> _B56 | _DOT[2].take(head)) & _KEEP[2].take(core)
                 | suffix << _B16)
    zero = np.flatnonzero(mag == 0)
    out[zero, 1] = _ZERO
    out[zero, 2] = 0
    out[zero, 3] = suffix[zero] << _B16
    slots = out.view(np.uint8)
    for i in np.flatnonzero(slow):
        text = b"%.17g" % x[i] + (b"\n" if i % cols == cols - 1 else b",")
        slots[i] = 0
        slots[i, :len(text)] = np.frombuffer(text, np.uint8)
    return slots.tobytes().translate(None, b"\0")


def _grid_csv_body(array: np.ndarray) -> bytes:
    """The rows of a 2-D array as %.17g CSV lines, formatted in row blocks of
    about _BLOCK_VALUES values, so temporaries do not grow with the grid."""
    a = np.asarray(array, dtype=np.float64)
    rows = max(1, _BLOCK_VALUES // a.shape[1])
    with np.errstate(all="raise"):  # the fast path must raise no FP flag
        return b"".join(_format_block(a[i:i + rows]) for i in range(0, a.shape[0], rows))
