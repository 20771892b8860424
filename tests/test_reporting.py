import json
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from hwp import reporting

from conftest import traced_peak

ROOT = Path(__file__).resolve().parent.parent


def _fmt(value) -> str:
    """The per-cell formatting of the row writer that write_csv replaced."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def _row_writer_bytes(header, rows) -> bytes:
    """Reference: the row-wise writer, one _fmt call per cell."""
    return "".join(",".join(map(_fmt, row)) + "\n" for row in [header, *rows]).encode()


def test_grid_csv_bytes_match_row_writer(tmp_path):
    rng = np.random.default_rng(3)
    array = rng.standard_normal((5, 7))
    array[0, :5] = [-0.0, 5e-324, 1e16, 0.1, -2.5]
    array[4, 6] = -1e-300
    grid_path, row_path = tmp_path / "grid.csv", tmp_path / "rows.csv"
    reporting.write_grid_csv(str(grid_path), array)
    reporting.write_csv(str(row_path), [f"c{i}" for i in range(7)], array.T)
    assert grid_path.read_bytes() == row_path.read_bytes()
    assert grid_path.read_bytes() == _row_writer_bytes([f"c{i}" for i in range(7)], array)
    assert grid_path.read_bytes().startswith(
        b"c0,c1,c2,c3,c4,c5,c6\n-0,4.9406564584124654e-324,10000000000000000,"
        b"0.10000000000000001,-2.5,")


def _percent_g(array):
    """The reference: Python's %.17g per value, ',' between, '\\n' after rows."""
    return "".join(",".join("%.17g" % v for v in row) + "\n" for row in array).encode()


def _powers_of_ten_with_neighbours(exponents):
    values = []
    for k in exponents:
        p = float(f"1e{k}")
        values += [np.nextafter(p, 0.0), p, np.nextafter(p, np.inf)]
    return values


EDGE_VALUES = [
    0.0, -0.0, np.inf, -np.inf, np.nan,
    5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308, 1e-300,
    1e-281, 1e-280, 1e280, 1e281, 1.7976931348623157e308,
    # exact ties at the 17th digit: half to even, so .12/.62 down, .38/.88 up
    125000000000000.125, 125000000000000.375, -125000000000000.625,
    125000000000000.875,
    # a 17-digit rounding that carries through ...99999, and doubles just
    # below a power of ten that round up to it (1e-14 is 1 - 1.2e-18 of 10**-14)
    502.410989417, 8.27959428132e-08, 5.31538976585e+22,
    1e-79, 1e-78, 1e-14, 1e129, 1e153,
    # a log10 estimate one too high: 1e-19 is 9.9999999999999998e-20
    1e-19, 1e23, 0.1, 0.5, 1.0, 2.5, 100.0, 123456.5, 9007199254740993.0,
    *_powers_of_ten_with_neighbours([-6, -5, -4, -3, -1, 0, 1, 15, 16, 17, 18, 22, 100]),
]


def test_grid_csv_body_matches_percent_g_on_random_bit_patterns():
    rng = np.random.default_rng(20240)
    array = rng.integers(0, 2**64, size=(1000, 201), dtype=np.uint64).view(np.float64)
    assert reporting._grid_csv_body(array) == _percent_g(array)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_grid_csv_body_matches_percent_g_on_edge_values(sign):
    array = sign * np.array(EDGE_VALUES).reshape(1, -1)
    assert reporting._grid_csv_body(array) == _percent_g(array)
    assert reporting._grid_csv_body(array.T) == _percent_g(array.T)


@pytest.mark.parametrize("direction", [-np.inf, np.inf], ids=["low", "high"])
def test_grid_csv_body_exact_when_log10_is_one_ulp_off(monkeypatch, direction):
    # a faithful but not correctly rounded log10 may miss floor(log10|x|) by
    # one next to every power of ten; the bytes must not depend on it
    log10 = np.log10

    def off_by_one_ulp(y):
        with np.errstate(under="ignore"):  # log10(1) = 0 steps to a subnormal
            return np.nextafter(log10(y), direction)

    monkeypatch.setattr(np, "log10", off_by_one_ulp)
    array = np.array(EDGE_VALUES + _powers_of_ten_with_neighbours(range(-20, 24))).reshape(1, -1)
    assert reporting._grid_csv_body(array) == _percent_g(array)


@pytest.mark.parametrize("scale", [1e-300, 1e-20, 1e-5, 1e-4, 1.0, 1e16, 1e17, 1e250])
def test_grid_csv_body_matches_percent_g_across_magnitudes(scale):
    array = scale * np.random.default_rng(7).standard_normal((40, 33))
    assert reporting._grid_csv_body(array) == _percent_g(array)


@pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (1, 10000)],
                         ids=["1x1", "1xn", "nx1", "1xn-over-a-block"])
def test_grid_csv_body_small_and_thin_shapes(shape):
    array = np.random.default_rng(11).standard_normal(shape)
    assert reporting._grid_csv_body(array) == _percent_g(array)


def test_grid_csv_body_formats_in_bounded_blocks(monkeypatch):
    cols = 7
    rows = 3 * (reporting._BLOCK_VALUES // cols) + 5
    array = np.random.default_rng(5).standard_normal((rows, cols))
    array[::97] *= 1e-6
    blocks = []
    format_block = reporting._format_block

    def recording(block):
        blocks.append(block.shape)
        return format_block(block)

    monkeypatch.setattr(reporting, "_format_block", recording)
    body = reporting._grid_csv_body(array)
    assert len(blocks) == 4
    assert all(r * c <= reporting._BLOCK_VALUES for r, c in blocks)
    assert sum(r for r, _ in blocks) == rows
    assert body == _percent_g(array)
    # block by block: the same bytes from each block of rows on its own
    step = blocks[0][0]
    assert body == b"".join(reporting._grid_csv_body(array[i:i + step])
                            for i in range(0, rows, step))


def _mixed_columns():
    n = len(EDGE_VALUES)
    ints = np.random.default_rng(2).integers(-2**63, 2**63 - 1, n, dtype=np.int64)
    ints[:3] = [0, -1, np.iinfo(np.int64).min]
    return {
        "k": [i - n // 2 for i in range(n)],                 # Python ints
        "j": ints,                                           # numpy int64
        "flag": np.arange(n) % 3 == 0,                       # numpy bool
        "tag": ["OnGamma" if i % 2 else "OnGammaW" for i in range(n)],
        "x": EDGE_VALUES,                                    # Python floats
        "y": -np.array(EDGE_VALUES)[::-1],                   # numpy float64
    }


@pytest.mark.parametrize("names", [["k", "j", "flag", "tag", "x", "y"], ["x", "y"],
                                   ["tag", "x"], ["k", "flag"], ["x", "tag", "y", "j"]],
                         ids=["mixed", "all-float", "str-float", "int-bool", "interleaved"])
def test_column_writer_matches_row_writer(tmp_path, names):
    columns = [_mixed_columns()[name] for name in names]
    path = tmp_path / "table.csv"
    reporting.write_csv(str(path), names, columns)
    assert path.read_bytes() == _row_writer_bytes(names, zip(*columns))


def test_column_writer_with_no_rows(tmp_path):
    path = tmp_path / "empty.csv"
    reporting.write_csv(str(path), ["k", "tag", "x"],
                        [np.zeros(0, int), np.zeros(0, str), np.zeros(0)])
    assert path.read_bytes() == b"k,tag,x\n"


def test_column_writer_rejects_complex_column_by_name(tmp_path):
    path = tmp_path / "complex.csv"
    with pytest.raises(TypeError, match="'g'"):
        reporting.write_csv(str(path), ["k", "g"], [[1, 2], np.array([1 + 2j, 3j])])
    with pytest.raises(TypeError, match="'g'"):
        reporting.write_csv(str(path), ["g"], [np.array([1 + 2j, 3j])])
    assert not path.exists()


def test_column_writer_rejects_ragged_columns(tmp_path):
    with pytest.raises(ValueError):
        reporting.write_csv(str(tmp_path / "ragged.csv"), ["k", "x"], [[1, 2], [0.5]])
    with pytest.raises(ValueError):
        reporting.write_csv(str(tmp_path / "short.csv"), ["k", "x"], [[1, 2]])


@pytest.mark.parametrize("shape", [(2, 2, 2), (3, 0), (5,)])
def test_grid_csv_rejects_a_shape_that_is_no_grid(tmp_path, shape):
    # (2, 2, 2) used to write a 4-row CSV, (3, 0) to divide by zero
    path = tmp_path / "grid.csv"
    with pytest.raises(ValueError, match=re.escape(f"{path}: grid of shape {shape}")):
        reporting.write_grid_csv(str(path), np.zeros(shape))
    assert not path.exists()


def test_grid_csv_write_failing_partway_leaves_no_file(tmp_path, monkeypatch):
    array = np.random.default_rng(4).standard_normal((3 * reporting._BLOCK_VALUES // 7, 7))
    calls = []
    format_block = reporting._format_block

    def failing_on_the_second_block(block):
        calls.append(block.shape)
        if len(calls) == 2:
            raise RuntimeError("second block")
        return format_block(block)

    monkeypatch.setattr(reporting, "_format_block", failing_on_the_second_block)
    path = tmp_path / "grid.csv"
    path.write_bytes(b"an older file\n")
    with pytest.raises(RuntimeError, match="second block"):
        reporting.write_grid_csv(str(path), array)
    assert len(calls) == 2
    assert not path.exists()


def test_grid_csv_pieces_keep_the_fp_traps_inside_the_kernel():
    array = np.random.default_rng(6).standard_normal((2 * reporting._BLOCK_VALUES // 9, 9))
    outside = np.geterr()
    pieces = []
    for piece in reporting._grid_csv_pieces(array):
        assert np.geterr() == outside
        pieces.append(piece)
    assert len(pieces) > 2
    assert b"".join(pieces) == _percent_g(array)


def test_json_writes_non_finite_numbers_as_strings_at_any_depth(tmp_path):
    # numpy non-finite scalars used to reach json.dump and come out as bare
    # NaN / Infinity, which is not JSON
    payload = {"a": np.float64("nan"),
               "b": [np.float32("inf"), {"c": -np.inf, "d": np.float16("-inf")}],
               "e": (float("nan"), 1.5, np.float32(0.25), np.int64(3)),
               "f": np.array([np.nan, 2.0]), "g": {"h": [[np.float64(np.inf)]]}}
    path = tmp_path / "payload.json"
    reporting.write_json(str(path), payload)

    def no_constant(name):
        raise ValueError(f"bare {name} in the JSON")

    assert json.loads(path.read_text(), parse_constant=no_constant) == {
        "a": "nan", "b": ["inf", {"c": "-inf", "d": "-inf"}], "e": ["nan", 1.5, 0.25, 3],
        "f": ["nan", 2.0], "g": {"h": [["inf"]]}}


def test_grid_csv_working_set_does_not_grow_with_the_grid(tmp_path):
    # the tracemalloc peak, workspace included; the whole-body writer read
    # 2.0, 2.8 and 4.1 MiB
    peaks = []
    for n in (81, 161, 321):
        array = np.random.default_rng(n).standard_normal((n, n))
        reporting._workspace.cache_clear()
        peaks.append(traced_peak(
            lambda: reporting.write_grid_csv(str(tmp_path / f"grid{n}.csv"), array))[0])
        assert (tmp_path / f"grid{n}.csv").read_bytes().endswith(_percent_g(array[-1:]))
    assert max(peaks) - min(peaks) <= 64 * 1024, peaks
    assert max(peaks) <= 1.25 * 2**20, peaks


def test_grid_csv_steady_state_does_not_page_fault(tmp_path):
    # a writer that allocates and frees large temporaries makes glibc hand
    # pages back and fault them in again: about 360 faults per 81^2 grid
    pytest.importorskip("resource")
    script = textwrap.dedent(f"""
        import resource
        import numpy as np
        from hwp import reporting
        array = np.random.default_rng(81).standard_normal((81, 81))
        for _ in range(5):
            reporting.write_grid_csv({str(tmp_path / "grid.csv")!r}, array)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(20):
            reporting.write_grid_csv({str(tmp_path / "grid.csv")!r}, array)
        print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    """)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 40
