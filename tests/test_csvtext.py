"""The array CSV formatter against ``'%.15g'``, the row-template writer it
replaced, and ``csv.writer``."""

import io
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blochpath import csvtext, sweep_phase_profiles
from blochpath.errors import ConfigError, ShapeError
from blochpath.scenarios import write_csv
from csv_reference import csv_module_bytes


def written(columns) -> bytes:
    stream = io.StringIO(newline="")
    write_csv(stream, columns)
    return stream.getvalue().encode("utf-8")


def template_bytes(columns) -> bytes:
    """What the row-template writer rendered: one ``'%.15g'`` or ``'%s'``
    per cell, strings quoted as ``csv.writer`` quotes them."""
    def quote(texts):
        return ['"' + t.replace('"', '""') + '"' if any(c in t for c in ',"\r\n')
                or (len(columns) == 1 and not t) else t for t in texts]

    arrays = [np.array(quote(a.tolist())) if a.dtype.kind == "U" else a
              for a in map(np.asarray, columns.values())]
    row = ",".join("%s" if a.dtype.kind == "U" else "%.15g"
                   for a in arrays) + "\r\n"
    rows = zip(*(a.tolist() for a in arrays))
    text = ",".join(quote(list(columns))) + "\r\n" + "".join(row % r for r in rows)
    return text.encode("utf-8")


def assert_g15(values):
    values = np.asarray(values, dtype=float)
    want = "x\r\n" + "".join("%.15g\r\n" % v for v in values.tolist())
    assert written({"x": values}).decode() == want


def exact_ties(per_scale=40, seed=3):
    """Doubles whose exact decimal expansion has 16 significant digits
    ending in 5: ``t / 2^d`` with ``t`` odd and ``t 5^d`` of 16 digits."""
    rng = np.random.default_rng(seed)
    ties = []
    for d in range(23):
        lo, hi = -(-10**15 // 5**d), (10**16 - 1) // 5**d
        for t in rng.integers(lo, hi, per_scale).tolist():
            t |= 1
            if t * 5**d < 10**16 and t < 2**53:
                ties.append(t / 2**d)
    return np.array(ties)


class TestBoundaries:
    POWERS = np.array([float(f"1e{k}") for k in range(-330, 309)])

    @pytest.mark.parametrize("scale", [1.0, 1.0 - 5e-16])
    def test_neighbours_of_every_power_of_ten(self, scale):
        centre = scale * self.POWERS
        near = np.concatenate([centre, np.nextafter(centre, 0.0),
                               np.nextafter(centre, np.inf)])
        assert_g15(np.concatenate([near, -near]))

    def test_exact_sixteen_digit_ties(self):
        ties = exact_ties()
        assert len(ties) > 500
        assert_g15(np.concatenate([ties, -ties]))

    def test_near_ties_in_every_decade(self):
        # 16-digit integers ending in 5, scaled by 10^j in floating point
        m = np.random.default_rng(5).integers(10**14, 10**15, 200) * 10 + 5
        assert_g15(np.concatenate([m * 10.0**j for j in range(-60, 30)]))

    def test_special_values(self):
        assert_g15([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324,
                    -5e-324, 1e300, 2.2250738585072014e-308, 1.7976931348623157e308,
                    1e-44, np.nextafter(1e-44, 0.0), 1e44, np.nextafter(1e44, 0.0),
                    0.1, 1e14, 1e15, 999999999999999.5, 123456789012345.5,
                    1e-4, 9.99999999999999e-5, 1e-5])

    def test_integer_and_boolean_columns(self):
        columns = {"i": np.array([0, -7, 2**53 + 1, 10**15, 123456789012345678]),
                   "b": np.array([True, False, True, False, True])}
        assert written(columns) == template_bytes(columns)


@given(st.lists(st.tuples(st.floats(1.0, 10.0, exclude_max=True) | st.integers(
    10**14, 10**17).map(float), st.integers(-44, 44), st.booleans()),
    min_size=1, max_size=300))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_fast_path_decades_match_g15(cells):
    values = [(-m if neg else m) * 10.0**k for m, k, neg in cells]
    assert_g15([v for v in values if abs(v) < 1e44])


def test_a_long_table_is_formatted_in_chunks(tmp_path):
    table = sweep_phase_profiles("log", 1.0, 2.0, 1.0, t_end=5.0, n_points=60000)
    path = tmp_path / "long.csv"
    tracemalloc.start()
    try:
        write_csv(path, table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # formatting all 3e5 cells at once would hold more than 8 MB of slots
    assert peak < 2**20
    assert path.read_bytes() == template_bytes(table)


def chunks_of(rows: int, width: int) -> int:
    step = max(1, csvtext._CSV_CELLS // width)
    return -(-rows // step)


def test_a_steady_write_allocates_about_one_page_at_a_time(tmp_path):
    # after a warm-up write the thread's workspace holds every chunk-sized
    # intermediate; what is left is a few pages of text and the output
    table = sweep_phase_profiles("log", 1.0, 2.0, 1.0, t_end=5.0, n_points=60000)
    path = tmp_path / "long.csv"
    write_csv(path, table)
    chunks = chunks_of(60000, len(table))
    assert chunks >= 4
    chunk_bytes = (path.stat().st_size - len(",".join(table)) - 2) / chunks
    tracemalloc.start()
    try:
        write_csv(path, table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * chunk_bytes
    assert path.read_bytes() == template_bytes(table)


def test_a_long_string_cell_is_written_in_bounded_memory(tmp_path):
    # a table with strings is formatted a row at a time and written a
    # chunk's worth of rows at a time, never held whole
    rows = csvtext._CSV_CELLS // 3
    names = np.full(rows, "a", dtype=object)
    names[5] = "é" * 1000
    columns = {"s": names.astype(str), "x": np.arange(rows * 0.5, step=0.5),
               "y": np.ones(rows)}
    path = tmp_path / "t.csv"
    write_csv(path, columns)
    tracemalloc.start()
    try:
        write_csv(path, columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert path.read_bytes() == template_bytes(columns)


def test_a_row_wider_than_a_chunk_leaves_no_workspace_behind(tmp_path):
    # one row is one chunk here, and its workspace is more than a thread keeps
    width = csvtext._CSV_CELLS + 3000
    columns = {f"c{j}": np.array([j * 0.25, -1.0]) for j in range(width)}
    path = tmp_path / "wide.csv"
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        write_csv(path, columns)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < 2**19
    assert path.read_bytes() == template_bytes(columns)


def test_threads_writing_at_once_keep_their_own_tables(tmp_path):
    """More writers than cores, switching often: each thread's workspace is
    its own, so every file holds its own table."""
    rows = 4 * (csvtext._CSV_CELLS // 3) + 17
    assert chunks_of(rows, 3) >= 4
    rng = np.random.default_rng(11)
    tables = [{"a": rng.normal(size=rows) * 10.0**k, "b": rng.uniform(-1e-5, 1e5, rows),
               "c": np.arange(rows) * (k + 1)} for k in range(4)]
    paths = [tmp_path / f"t{k}.csv" for k in range(4)]
    start = threading.Barrier(len(tables))

    def write(k):
        start.wait(timeout=30)
        write_csv(paths[k], tables[k])

    threads = [threading.Thread(target=write, args=(k,)) for k in range(len(tables))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for path, table in zip(paths, tables):
        assert path.read_bytes() == template_bytes(table)


def numeric_table(rows: int) -> dict:
    """Three number columns with cells that need a sign, a ``0.000``
    prefix, an exponent, or the scalar formatter."""
    x = np.linspace(-3e-5, 2e20, rows)
    x[::97] = np.nan
    return {"x": x, "n": np.arange(rows), "y": 1.0 / (np.arange(rows) - 7.5) ** 5}


def test_a_path_and_a_stream_get_the_same_bytes(tmp_path):
    rows = 5 * (3 * csvtext._CSV_CELLS // 10)
    strings = {"name": np.array(["þ", "a\x00b", "", "x,y", "日本"] * (rows // 5)),
               "x": np.linspace(-3e-5, 2e20, rows), "n": np.arange(rows)}
    numbers = numeric_table(rows)
    assert chunks_of(rows, len(numbers)) >= 2
    path = tmp_path / "t.csv"
    for columns in (strings, numbers):
        write_csv(path, columns)
        assert path.read_bytes() == written(columns) == template_bytes(columns)


class TestColumnChecks:
    """A column that is not 1-D numbers or strings is refused, naming it,
    before the file is opened."""

    @pytest.mark.parametrize("column, error", [
        (np.ones((2, 3)), ShapeError),
        (np.float64(1.0), ShapeError),
        ([[1.0, 2.0], [3.0]], ShapeError),
        (np.array([1 + 2j, 3.0]), ConfigError),
        (np.array([None, 1.0], dtype=object), ConfigError),
        ([None, 1.0], ConfigError),
        (np.array([b"ab", b"c"]), ConfigError),
        (np.array(["2024-01-01", "2024-01-02"], dtype="datetime64[D]"), ConfigError),
    ], ids=["two_d", "zero_d", "ragged", "complex", "object", "none_list", "bytes",
            "datetime"])
    @pytest.mark.parametrize("target", ["stream", "path"])
    def test_a_bad_column_is_refused_before_writing(self, tmp_path, column, error, target):
        stream, path = io.StringIO(newline=""), tmp_path / "t.csv"
        with pytest.raises(error, match="column 'bad'"):
            write_csv(stream if target == "stream" else path,
                      {"x": np.array([1.0, 2.0]), "bad": column})
        assert stream.getvalue() == ""
        assert not path.exists()

    @pytest.mark.parametrize("target", ["stream", "path"])
    def test_a_name_that_is_not_a_string_is_refused(self, tmp_path, target):
        stream, path = io.StringIO(newline=""), tmp_path / "t.csv"
        with pytest.raises(ConfigError, match="name 1 is not a string"):
            write_csv(stream if target == "stream" else path, {1: np.array([1.0])})
        assert stream.getvalue() == ""
        assert not path.exists()

    @pytest.mark.parametrize("order", ["=", ">", "<"])
    @pytest.mark.parametrize("rows", [1, 40000])
    def test_a_lone_surrogate_is_refused_for_a_path(self, tmp_path, order, rows):
        path = tmp_path / "t.csv"
        cells = np.full(rows, "abc", f"{order}U3")
        cells[-1] = "a\ud800b"
        with pytest.raises(ConfigError, match="'s'.*surrogate"):
            write_csv(path, {"s": cells, "n": np.ones(rows)})
        assert not path.exists()

    @pytest.mark.parametrize("order", [">", "<"])
    def test_a_byte_swapped_string_column_is_written(self, tmp_path, order):
        columns = {"s": np.array(["a\ue000b", "þ", "x,y"], f"{order}U3"),
                   "n": np.arange(3.0)}
        path = tmp_path / "t.csv"
        write_csv(path, columns)
        assert path.read_bytes() == template_bytes(columns)

    def test_a_lone_surrogate_in_a_name_is_refused_for_a_path(self, tmp_path):
        path = tmp_path / "t.csv"
        with pytest.raises(ConfigError, match="surrogate"):
            write_csv(path, {"s\udfff": np.array([1.0])})
        assert not path.exists()

    @pytest.mark.parametrize("column", [np.array([True, False]), np.array([1, -2]),
                                        np.array([1, 2], np.uint8), [0.5, 1.5], ["a", "b"]])
    def test_numbers_and_strings_are_written(self, column):
        columns = {"c": column}
        assert written(columns) == template_bytes(columns)


#: cells that need the optional places: a sign, a ``0.000`` prefix, an exponent
OPTIONAL = {"sign": -2.5, "prefix": 1.25e-4, "exponent": 3.5e-21}


@given(st.integers(1, 5), st.floats(1.5, 4.0), st.fixed_dictionaries(
    {kind: st.sampled_from(["none", "one", "every"]) for kind in OPTIONAL}),
    st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None, derandomize=True)
def test_optional_places_in_no_one_or_every_chunk(width, chunks, where, seed):
    """Tables of several chunks, with the cells that need a sign, prefix or
    exponent place in no chunk, in one chunk, or in every chunk."""
    step = csvtext._CSV_CELLS // width
    rng = np.random.default_rng(seed)
    table = rng.uniform(1.0, 1000.0, (int(chunks * step), width))
    for kind, value in OPTIONAL.items():
        if where[kind] == "one":
            table[rng.integers(len(table)), rng.integers(width)] = value
        elif where[kind] == "every":
            rows = np.minimum(np.arange(0, len(table), step) + rng.integers(step),
                              len(table) - 1)
            table[rows, rng.integers(width, size=len(rows))] = value
    columns = {f"c{j}": table[:, j] for j in range(width)}
    assert written(columns) == template_bytes(columns)


@pytest.mark.parametrize("cells", [1, 2, 7, 4096, 10**6])
def test_chunk_size_does_not_change_the_bytes(monkeypatch, cells):
    strings = {"name": np.array(["þ", "a\x00b", "", "x,y", "ÿ"] * 40),
               "x": np.linspace(-3e-5, 2e20, 200),
               "y": np.arange(200.0)}
    numbers = numeric_table(3500)
    assert chunks_of(3500, len(numbers)) >= 2
    monkeypatch.setattr(csvtext, "_CSV_CELLS", cells)
    for columns in (strings, numbers):
        assert written(columns) == template_bytes(columns)


def test_a_string_column_does_not_change_the_number_cells():
    """The same numbers written alone, by the numpy formatter, and next to
    a string column, a row at a time, come out byte for byte the same."""
    powers = TestBoundaries.POWERS
    edges = np.array([1e-44, 1e44])
    values = np.concatenate([
        exact_ties(), powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf),
        edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf),
        [0.0, np.nan, np.inf, 5e-324]])
    values = np.concatenate([values, -values])
    alone = written({"x": values}).split(b"\r\n")[1:-1]
    beside = written({"s": np.full(len(values), "a"), "x": values}).split(b"\r\n")[1:-1]
    assert [line.removeprefix(b"a,") for line in beside] == alone


class TestStringCells:
    @pytest.mark.parametrize("columns", [
        {"name": np.array(["θ_ab", "ψ → φ", "naïve,quoted", "日本語", "🙂"]),
         "η": np.array([1.0, 0.5, -2.5e-7, 3e20, np.nan])},
        {"with nul": np.array(["a\x00b", "\x00lead", "x"]),
         "n": np.arange(3.0)},
        {"lone": np.array(["\x00", "", "é"])},
        {"thorn": np.array(["þ", "þ\x00", "aþb"]), "y": np.array(["ÿ", "\x00ÿ", "ÿÿ"]),
         "n": np.array([-1.0, 1e-300, 0.0])},
        {"mixed": np.array(["é\x00þ", "\x00日本", "ÿ\x00\x00", "🙂\x00"]),
         "n": np.arange(4.0)},
        {"lone": np.array(["þ", "ÿ\x00", "\x00é"])},
        {"long": np.array(["ab" * 400] + ["c,d", "é"] * 60), "n": np.arange(121.0)},
    ], ids=["non_ascii", "nul", "lone_column", "thorn_and_y_umlaut",
            "nul_next_to_non_ascii", "lone_non_ascii_column", "long_cell_over_pages"])
    def test_string_cells_match_both_references(self, columns):
        got = written(columns)
        assert got == template_bytes(columns)
        assert got == csv_module_bytes(columns)

    def test_a_lone_surrogate_passes_through_a_text_stream(self):
        stream = io.StringIO(newline="")
        write_csv(stream, {"s": np.array(["a\ud800b"]), "n": np.array([1.0])})
        assert stream.getvalue() == "s,n\r\na\ud800b,1\r\n"

    def test_mixed_table_like_table2(self):
        columns = {
            "scenario": ["example1", "example2", "example3", "example4"],
            "eta_ge_bar": [1.0, 0.999999999999978, 0.866025403784439,
                           0.8660254037844386],
            "eta_se_bar": [1.0, 0.904987562112089, 0.5, 1.0],
            "eta_he": [1.0, 0.904987562112069, 0.433012701892219,
                       0.8660254037844386],
            "classification": ["GeodesicUnwasteful", "GeodesicWasteful",
                               "MoreWastefulThanNongeodesic",
                               "NongeodesicUnwasteful"],
        }
        got = written(columns)
        assert got == template_bytes(columns)
        assert got == csv_module_bytes(columns)
