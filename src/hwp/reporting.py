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

The kernel formats a grid in blocks of whole rows, about 8,192 values each,
and writes every intermediate array into one workspace of about 800 KiB
(eight 64-KiB word arrays, the block's 32-byte value slots and five byte
arrays) that is built on first use and reused across blocks and calls, so
formatting allocates almost nothing and the same pages serve every grid.
``_workspace.cache_clear()`` releases it (the CLI does so after each
command). The NUL padding is stripped from at most 2,048 slots at a time,
and ``write_grid_csv`` writes each such piece to the file as it is made,
so the memory a grid write uses does not grow with the grid.
"""

from __future__ import annotations

import functools
import json
import math
import os
from typing import Iterable, Iterator, Sequence

import numpy as np


def _write(path: str, header: Sequence[str], pieces: Iterable[bytes]) -> None:
    """The header line, then the pieces; a write that fails partway leaves
    no file at ``path``."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "wb") as f:
        try:
            f.write(",".join(header).encode() + b"\n")
            for piece in pieces:
                f.write(piece)
        except BaseException:
            f.close()
            os.unlink(path)
            raise


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
    _write(path, header, [b"".join(out)])


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, (float, np.floating)):  # non-finite as "nan", "inf", "-inf"
        value = float(obj)
        return value if math.isfinite(value) else repr(value)
    return obj


def write_json(path: str, payload: dict) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", newline="\n") as f:
        json.dump(_jsonable(payload), f, indent=2, sort_keys=True, allow_nan=False)
        f.write("\n")


def write_grid_csv(path: str, array: np.ndarray) -> None:
    """Matrix-layout CSV of one real nodal field (rows bottom-to-top), in
    the bytes write_csv gives for its columns, written block by block."""
    a = np.asarray(array, dtype=np.float64)
    if a.ndim != 2 or a.shape[1] == 0:
        raise ValueError(f"{path}: grid of shape {a.shape}; a grid is 2-D with columns")
    _write(path, [f"c{i}" for i in range(a.shape[1])], _grid_csv_pieces(a))


# ---------------------------------------------------------------------------
# Exact vectorized %.17g (see the module docstring)
# ---------------------------------------------------------------------------

# Values per formatting pass (whole rows; a longer row is a pass of its
# own, with a workspace of its own). 2**13 keeps each workspace row at
# 64 KiB and the whole workspace under 1 MiB; on 161^2 grids (2-core x86-64
# VM) passes of 4,096 values measured 12% slower per value, passes of
# 2**14 values 6% faster at twice the memory.
_BLOCK_VALUES = 1 << 13
# Slots per NUL strip and file write: 64 KiB of slots, and the bytes object
# made from them, stay under glibc's 128-KiB mmap threshold.
_PIECE_VALUES = 1 << 11
_FAST_MIN, _FAST_MAX = 1e-280, 1e280  # |x| range of the fast path
_TIE_BAND = 1e-6    # fractional parts this close to 1/2 go to Python
_S_MIN, _S_MAX = -264, 297   # 10**(16 - e) for floor(log10|x|) of the fast range
_E_MIN, _E_MAX = -300, 300   # exponents the layout tables cover
_SPLIT = 134217729.0         # 2**27 + 1: Veltkamp splitting constant
_TEN8, _TEN16, _TEN17 = 10 ** 8, 10 ** 16, 10 ** 17


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
    length of digits plus point, as intp so they index the word tables with
    no conversion. Indexed by 2 * (e - _E_MIN) + negative: the sign and
    ``0.000`` prefix. Indexed by e - _E_MIN: the exponent suffix and
    separator, for ``,`` and for ``\\n``.
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
    return (head.ravel().astype(np.intp), core.ravel().astype(np.intp), _words(prefix),
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


def _new_workspace(n: int) -> tuple[np.ndarray, ...]:
    """The kernel's arrays for blocks of up to n values: eight rows of n
    words, the (n, 4) words of the 32-byte value slots, three bool rows and
    two int8 rows (101 bytes per value)."""
    return (np.empty((8, n), "<u8"), np.empty((n, 4), "<u8"),
            np.empty((3, n), np.bool_), np.empty((2, n), np.int8))


@functools.cache
def _workspace() -> tuple[np.ndarray, ...]:
    """The workspace of _BLOCK_VALUES-value blocks, shared by every call."""
    return _new_workspace(_BLOCK_VALUES)


def _take(table: np.ndarray, index: np.ndarray, out: np.ndarray) -> np.ndarray:
    # mode="wrap" writes straight into out ("raise" fills a copy of it
    # first); every index is in range by construction
    return np.take(table, index, out=out, mode="wrap")


def _format_block(block: np.ndarray) -> np.ndarray:
    """The %.17g slots of a 2-D float64 block as an (n, 32) uint8 array: per
    value its text, then ``,`` (``\\n`` after a row's last value), then NUL
    padding. The slots live in the workspace: they hold until the next
    block is formatted."""
    cols = block.shape[1]
    x = block.ravel()
    n = x.size
    words, slots, masks, counts = (_workspace() if n <= _BLOCK_VALUES
                                   else _new_workspace(n))
    uw, slots = words[:, :n], slots[:n]
    fw, iw = uw.view(np.float64), uw.view(np.int64)
    spare = slots.reshape(-1)[:n]  # slot memory, unused until the slots are written
    flag, slow, zero = masks[:, :n]
    nd, sig = counts[:, :n]

    # y = |x| on the fast path, 1 for zeros (which take the suffix of e = 0),
    # |x| clamped to [_FAST_MIN, _FAST_MAX] for the rest (NaN to _FAST_MIN),
    # which go to Python; ei = e - _E_MIN for e = floor(log10 y), and
    # ix = 16 - e - _S_MIN indexes 10**(16 - e)
    y, ei, ix = fw[0], iw[1], iw[2]
    np.abs(x, out=y)
    np.equal(y, 0.0, out=zero)
    np.greater_equal(y, _FAST_MIN, out=flag)
    np.less_equal(y, _FAST_MAX, out=slow)
    flag &= slow
    np.logical_or(flag, zero, out=slow)
    np.logical_not(slow, out=slow)
    np.fmax(y, _FAST_MIN, out=y)
    np.fmin(y, _FAST_MAX, out=y)
    y += zero                       # _FAST_MIN + 1 is 1
    e = np.log10(y)
    np.floor(e, out=e)
    np.copyto(ei, e, casting="unsafe")
    ei -= _E_MIN
    np.subtract(16 - _S_MIN - _E_MIN, ei, out=ix)

    # y * 10**(16 - e) = p + r with p = y * hi rounded, r the rest: the
    # exact product y * hi (TwoProduct, hi = hh + hl) plus y * lo, summed
    # as ((((yh*hh - p) + yh*hl) + yl*hh) + yl*hl) + y*lo. Exact in the
    # floor where it lies in [1e16, 1e17), where p is an integer double.
    p, yh, yl, r, t, t2 = fw[3], fw[4], fw[5], fw[6], fw[7], spare.view(np.float64)
    _take(_P_HI, ix, p)
    p *= y
    np.multiply(y, _SPLIT, out=yh)  # c
    np.subtract(yh, y, out=yl)
    np.subtract(yh, yl, out=yh)     # yh = c - (c - y)
    np.subtract(y, yh, out=yl)      # yl = y - yh
    _take(_P_HH, ix, r)
    np.multiply(yl, r, out=t)       # yl * hh
    r *= yh
    r -= p
    _take(_P_HL, ix, t2)
    yh *= t2                        # yh * hl
    r += yh
    r += t
    t2 *= yl                        # yl * hl
    r += t2
    _take(_P_LO, ix, t2)
    t2 *= y
    r += t2

    # D = whole + (frac > 1/2) from whole = p + floor(r), frac = r - floor(r);
    # a log10 that missed by one, or a carry to 1e17, puts D outside
    # [1e16, 1e17): Python formats those, and near-ties
    fl, whole, d = yh, iw[5], iw[2]
    np.floor(r, out=fl)
    np.copyto(whole, p, casting="unsafe")
    np.copyto(iw[7], fl, casting="unsafe")
    whole += iw[7]
    r -= fl                         # frac
    np.greater(r, 0.5, out=flag)
    np.add(whole, flag, out=d)
    np.subtract(r, 0.5, out=fl)
    np.abs(fl, out=fl)
    np.less(fl, _TIE_BAND, out=flag)
    slow |= flag
    np.less(whole, _TEN16, out=flag)
    slow |= flag
    np.greater_equal(d, _TEN17, out=flag)
    slow |= flag

    # D = lead, then four 4-digit chunks c0..c3 of hi8 = c0 c1, lo8 = c2 c3;
    # digit p of D is byte p of d0|d1|d2
    lead, lo8, hi8, c0, c1 = iw[3], iw[4], iw[5], iw[6], iw[7]
    np.floor_divide(d, _TEN16, out=lead)
    np.floor_divide(d, _TEN8, out=lo8)  # d // 10**8 first
    np.multiply(lead, _TEN8, out=hi8)
    np.subtract(lo8, hi8, out=hi8)
    lo8 *= _TEN8
    np.subtract(d, lo8, out=lo8)
    np.floor_divide(hi8, 10000, out=c0)
    np.multiply(c0, 10000, out=c1)
    np.subtract(hi8, c1, out=c1)
    c2, c3 = hi8, lo8
    np.floor_divide(lo8, 10000, out=c2)
    np.multiply(c2, 10000, out=d)
    np.subtract(lo8, d, out=c3)
    _take(_SIG_END[0], c0, nd)
    for table, chunk in zip(_SIG_END[1:], (c1, c2, c3)):
        _take(table, chunk, sig)
        np.maximum(nd, sig, out=nd)
    d0, d1, d2, t = uw[3], uw[0], uw[2], spare
    lead += 48
    _take(_DIGITS4, c1, d1)         # t1
    _take(_DIGITS4, c3, d2)         # t3
    _take(_DIGITS4, c0, t)
    t <<= _B8
    d0 |= t
    np.left_shift(d1, _B40, out=t)
    d0 |= t                         # d0 = lead + 48 | t0 << 8 | t1 << 40
    d1 >>= _B24
    _take(_DIGITS4, c2, t)
    t <<= _B8
    d1 |= t
    np.left_shift(d2, _B40, out=t)
    d1 |= t                         # d1 = t1 >> 24 | t2 << 8 | t3 << 40
    d2 >>= _B24                     # d2 = t3 >> 24

    # a value's 32-byte slot: prefix, core bytes 0-7, 8-15, 16-17 and the
    # suffix from byte 2 of the last word (the core is at most 18 bytes).
    # The core is the digits before the point, '.', the digits after it
    # (the upper bytes moved up by one), cut after the last digit kept.
    k, head, core, lo, t = iw[4], iw[5], iw[6], uw[7], uw[4]
    np.multiply(ei, 18, out=k)
    k += nd
    _take(_HEAD, k, head)
    _take(_CORE, k, core)
    np.signbit(x, out=flag)
    np.multiply(ei, 2, out=k)
    k += flag
    slots[:, 0] = _take(_PREFIX, k, lo)
    up = [d0, d1, d2]
    for j in range(3):
        _take(_KEEP[j], head, lo)
        lo &= up[j]                 # lo_j: the bytes before the point
        up[j] ^= lo                 # up_j: the bytes after it
        np.left_shift(up[j], _B8, out=t)
        lo |= t
        if j:
            up[j - 1] >>= _B56
            lo |= up[j - 1]
        _take(_DOT[j], head, t)
        lo |= t
        _take(_KEEP[j], core, t)
        if j < 2:
            np.bitwise_and(lo, t, out=slots[:, 1 + j])
    lo &= t                         # the last word also holds the suffix
    _take(_SUFFIX, ei, t)
    t[cols - 1::cols] = _SUFFIX_NL.take(ei[cols - 1::cols])
    t <<= _B16
    np.bitwise_or(lo, t, out=slots[:, 3])
    zero = np.flatnonzero(zero)
    slots[zero, 1] = _ZERO
    slots[zero, 2] = 0
    slots[zero, 3] = t[zero]
    slots = slots.view(np.uint8)
    for i in np.flatnonzero(slow):
        text = b"%.17g" % x[i] + (b"\n" if i % cols == cols - 1 else b",")
        slots[i] = 0
        slots[i, :len(text)] = np.frombuffer(text, np.uint8)
    return slots


def _grid_csv_pieces(a: np.ndarray) -> Iterator[bytes]:
    """The rows of a 2-D float64 array as %.17g CSV lines, in pieces of at
    most _PIECE_VALUES values. Rows are formatted in blocks of about
    _BLOCK_VALUES values; the pieces of a block are cut from the shared
    workspace as they are yielded, so one generator runs at a time."""
    rows = max(1, _BLOCK_VALUES // a.shape[1])
    for i in range(0, a.shape[0], rows):
        with np.errstate(all="raise"):  # the fast path must raise no FP flag
            slots = _format_block(a[i:i + rows])
        for j in range(0, len(slots), _PIECE_VALUES):
            yield slots[j:j + _PIECE_VALUES].tobytes().translate(None, b"\0")


def _grid_csv_body(array: np.ndarray) -> bytes:
    """The rows of a 2-D array as %.17g CSV lines (the pieces joined)."""
    return b"".join(_grid_csv_pieces(np.asarray(array, dtype=np.float64)))
