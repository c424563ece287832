"""The vectorized CSV writer against CPython's own ``f"{v:.17g}"``."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rsfield import csvtext
from rsfield.csvtext import write_csv


def kernel_texts(values) -> list:
    """Each value's text from the vectorized kernel, whatever the table size."""
    x = np.asarray(values, dtype=float).reshape(-1, 1)
    return csvtext._lines(x, np.array([False])).decode().split("\n")[:-1]


def assert_exact(values):
    values = np.asarray(values, dtype=float).ravel()
    got = kernel_texts(values)
    want = [f"{v:.17g}" for v in values.tolist()]
    wrong = [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]
    assert len(got) == len(want)
    assert not wrong, wrong[:5]


POWERS = np.array([float(f"1e{j}") for j in range(-300, 301)])


class TestDigits:
    def test_powers_of_ten_and_neighbours(self):
        assert_exact(POWERS)
        assert_exact(np.nextafter(POWERS, 0.0))
        assert_exact(np.nextafter(POWERS, np.inf))
        assert_exact(-POWERS)

    def test_five_and_just_below_powers_of_ten(self):
        assert_exact(5.0 * POWERS)
        assert_exact((1.0 - 2.0**-53) * POWERS)

    def test_exact_ties_round_half_even(self):
        # 100 + 2**-j has 17 significant digits ending in ...5 for some j:
        # only an exact tie test gets those right
        values = [100.0 + 2.0**-j for j in range(1, 60)]
        assert "100.00003051757812" in kernel_texts(values)
        assert_exact(values)

    def test_specials_and_subnormals(self):
        values = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2250738585072014e-308,
                  1e-300, 1.7976931348623157e308, -1.7976931348623157e308]
        assert kernel_texts(values)[:5] == ["0", "-0", "inf", "-inf", "nan"]
        assert_exact(values)

    def test_just_below_a_power_of_ten_keeps_its_exponent(self):
        # the double nearest 1e-6 lies below it; a range check on the rounded
        # mantissa alone would print 1e-06
        assert kernel_texts([1e-6]) == ["9.9999999999999995e-07"]

    def test_layouts_of_g(self):
        values = [1.0, -2.5, 0.1, 1e-5, 1e-4, 123456.0, 1e16, 1e17, 0.5e-4, 1.5e100, 2e-100]
        assert kernel_texts(values) == [
            "1", "-2.5", "0.10000000000000001", "1.0000000000000001e-05",
            "0.0001", "123456", "10000000000000000", "1e+17", "5.0000000000000002e-05",
            "1.4999999999999999e+100", "2e-100",
        ]

    def test_random_bit_patterns(self):
        bits = np.random.default_rng(20240817).integers(0, 2**64, 200_000, dtype=np.uint64)
        assert_exact(bits.view(np.float64))

    def test_random_magnitudes(self):
        rng = np.random.default_rng(7)
        assert_exact(rng.standard_normal(50_000) * 10.0 ** rng.integers(-30, 30, 50_000))

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.floats(), min_size=1, max_size=40))
    def test_hypothesis_floats(self, values):
        assert_exact(values)


class TestWriteCsv:
    @pytest.mark.parametrize("rows", [3, 400])
    def test_column_kinds_select_the_writer(self, tmp_path, monkeypatch, rows):
        # floats and booleans take the kernel at any size; a str or an int
        # column sends the whole table to Python, value by value
        rng = np.random.default_rng(rows)
        cols = {"x": rng.standard_normal(rows), "flag": rng.standard_normal(rows) > 0,
                "y": rng.standard_normal(rows) * 1e-9}
        want = ["x,flag,y", *(
            f"{x:.17g},{'true' if f else 'false'},{y:.17g}"
            for x, f, y in zip(*(np.asarray(c).tolist() for c in cols.values()))
        )]

        def never(*args):
            pytest.fail("the table took the other writer")

        monkeypatch.setattr(csvtext, "_words", never)
        write_csv(tmp_path / "t.csv", cols)
        assert (tmp_path / "t.csv").read_text() == "".join(f"{w}\n" for w in want)
        monkeypatch.undo()
        monkeypatch.setattr(csvtext, "_lines", never)
        for extra in (np.arange(rows), [f"s{i}" for i in range(rows)]):
            write_csv(tmp_path / "t.csv", {**cols, "extra": extra})
            got = (tmp_path / "t.csv").read_text().splitlines()
            assert got == [f"{w},{e}" for w, e in zip(want, ["extra", *map(str, extra)])]

    def test_rows_across_chunks(self, tmp_path, monkeypatch):
        monkeypatch.setattr(csvtext, "CHUNK", 64)
        values = np.random.default_rng(3).standard_normal((301, 5))
        values[7, 2] = np.nan
        values[100, 0] = 0.0
        write_csv(tmp_path / "t.csv", {f"c{i}": values[:, i] for i in range(5)})
        lines = (tmp_path / "t.csv").read_text().split("\n")
        assert lines[0] == "c0,c1,c2,c3,c4" and lines[-1] == ""
        assert lines[1:-1] == [",".join(f"{v:.17g}" for v in row) for row in values.tolist()]

    def test_column_kind_follows_dtype(self, tmp_path):
        # a float column whose first value is integral stays a float column
        cols = {"n": np.arange(300), "x": [1] + [0.1] * 299, "s": ["a"] * 300}
        write_csv(tmp_path / "t.csv", cols)
        lines = (tmp_path / "t.csv").read_text().splitlines()
        assert lines[1:3] == ["0,1,a", "1,0.10000000000000001,a"]

    def test_empty_table_writes_the_header(self, tmp_path):
        write_csv(tmp_path / "t.csv", {"a": [], "b": np.array([])})
        assert (tmp_path / "t.csv").read_text() == "a,b\n"
