import numpy as np

from hwp import reporting


def test_grid_csv_bytes_match_row_writer(tmp_path):
    rng = np.random.default_rng(3)
    array = rng.standard_normal((5, 7))
    array[0, :5] = [-0.0, 5e-324, 1e16, 0.1, -2.5]
    array[4, 6] = -1e-300
    grid_path, row_path = tmp_path / "grid.csv", tmp_path / "rows.csv"
    reporting.write_grid_csv(str(grid_path), array)
    reporting.write_csv(str(row_path), [f"c{i}" for i in range(7)], list(array))
    assert grid_path.read_bytes() == row_path.read_bytes()
    assert grid_path.read_bytes().startswith(
        b"c0,c1,c2,c3,c4,c5,c6\n-0,4.9406564584124654e-324,10000000000000000,"
        b"0.10000000000000001,-2.5,")
