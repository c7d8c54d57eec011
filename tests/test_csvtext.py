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
    """What the row-template writer rendered: one ``'%.15g'`` per cell."""
    row = ",".join(["%.15g"] * len(columns)) + "\r\n"
    rows = zip(*(np.asarray(c).tolist() for c in columns.values()))
    return (",".join(columns) + "\r\n" + "".join(row % r for r in rows)).encode()


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


def test_a_write_keeps_nothing_behind(tmp_path):
    # each chunk's workspace is freed with the chunk, so neither a thread's
    # first write nor its next one leaves a workspace behind
    table = sweep_phase_profiles("log", 1.0, 2.0, 1.0, t_end=5.0, n_points=60000)
    path = tmp_path / "long.csv"
    kept = []

    def write_twice():
        for _ in range(2):
            before = tracemalloc.get_traced_memory()[0]
            write_csv(path, table)
            kept.append(tracemalloc.get_traced_memory()[0] - before)

    thread = threading.Thread(target=write_twice)
    tracemalloc.start()
    try:
        thread.start()
        thread.join(timeout=120)
    finally:
        tracemalloc.stop()
    assert len(kept) == 2
    assert max(kept) < 2**16
    assert path.read_bytes() == template_bytes(table)


def test_a_write_inside_a_stream_write_keeps_both_tables():
    # the outer table's pages are yielded while its chunk is still being
    # read, so the inner write must not format into the same memory
    inner = {"seven": np.full(20000, 7.0)}
    outer = {"a": np.linspace(-3.0, 5e6, 20000), "b": np.arange(20000) * 0.1}
    inner_streams = []

    class Nested(io.StringIO):
        def write(self, text):
            stream = io.StringIO(newline="")
            write_csv(stream, inner)
            inner_streams.append(stream)
            return super().write(text)

    stream = Nested(newline="")
    write_csv(stream, outer)
    assert stream.getvalue().encode("utf-8") == template_bytes(outer)
    assert all(s.getvalue().encode("utf-8") == template_bytes(inner)
               for s in inner_streams)


def test_a_row_wider_than_a_chunk_leaves_no_workspace_behind(tmp_path):
    # one row is one chunk here, larger than any other test's, and its
    # workspace is freed with it
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
    """More writers than cores, switching often: each chunk's workspace is
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
    columns = numeric_table(rows)
    assert chunks_of(rows, len(columns)) >= 2
    path = tmp_path / "t.csv"
    write_csv(path, columns)
    assert path.read_bytes() == written(columns) == template_bytes(columns)


class TestColumnChecks:
    """A column that is not 1-D numbers is refused, naming it, before the
    file is opened."""

    @pytest.mark.parametrize("column, error", [
        (np.ones((2, 3)), ShapeError),
        (np.float64(1.0), ShapeError),
        ([[1.0, 2.0], [3.0]], ShapeError),
        (np.array([1 + 2j, 3.0]), ConfigError),
        (np.array([None, 1.0], dtype=object), ConfigError),
        ([None, 1.0], ConfigError),
        (np.array([b"ab", b"c"]), ConfigError),
        (np.array(["a", "b"]), ConfigError),
        (np.array(["2024-01-01", "2024-01-02"], dtype="datetime64[D]"), ConfigError),
        (np.array([1, 2], dtype="timedelta64[s]"), ConfigError),
        (np.zeros(2, dtype=[("a", "f8")]), ConfigError),
    ], ids=["two_d", "zero_d", "ragged", "complex", "object", "none_list", "bytes",
            "str", "datetime", "timedelta", "structured"])
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

    def test_a_lone_surrogate_in_a_name_is_refused_for_a_path(self, tmp_path):
        path = tmp_path / "t.csv"
        with pytest.raises(ConfigError, match="surrogate"):
            write_csv(path, {"s\udfff": np.array([1.0])})
        assert not path.exists()

    def test_a_lone_surrogate_in_a_name_passes_through_a_stream(self):
        stream = io.StringIO(newline="")
        write_csv(stream, {"s\udfff": np.array([1.0])})
        assert stream.getvalue() == "s\udfff\r\n1\r\n"

    @pytest.mark.parametrize("column", [np.array([True, False]), np.array([1, -2]),
                                        np.array([1, 2], np.uint8), [0.5, 1.5],
                                        np.array([0.1, -3e20], np.float32),
                                        np.array([0.1, -6e4], np.float16)])
    def test_each_number_kind_is_written(self, column):
        columns = {"c": column}
        assert written(columns) == template_bytes(columns)

    @pytest.mark.parametrize("dtype", ["<f8", ">f8", ">i4", ">u2"])
    def test_a_byte_swapped_number_column_is_written(self, tmp_path, dtype):
        columns = {"s": np.array([1.5, -2.0, 0.1, 7.0]).astype(dtype),
                   "n": np.arange(4.0)}
        path = tmp_path / "t.csv"
        write_csv(path, columns)
        assert path.read_bytes() == template_bytes(columns)


def table_of(names) -> dict:
    return {name: np.linspace(-1.0, 2.0, 3) * k for k, name in enumerate(names)}


class TestNames:
    """The header is ``csv.writer``'s row of the column names, whatever
    code points they hold and however long they are."""

    @pytest.mark.parametrize("names", [
        ["θ_ab", "ψ → φ", "naïve,quoted", "日本語", "🙂"],
        ["þ", "ÿ", "aþb", "ÿÿ"],
        ["ab" * 20000, "c,d", "é"],
        ["é"],
    ], ids=["non_ascii", "thorn_and_y_umlaut", "long_name_over_pages",
            "lone_non_ascii_column"])
    def test_names_match_the_csv_module(self, tmp_path, names):
        columns = table_of(names)
        path = tmp_path / "t.csv"
        write_csv(path, columns)
        assert path.read_bytes() == written(columns) == csv_module_bytes(columns)

    @pytest.mark.parametrize("names", [["a\x00b", "\x00lead"], ["é\x00þ", "\x00日本"]],
                             ids=["nul", "nul_next_to_non_ascii"])
    def test_a_nul_in_a_name_is_written_where_csv_writer_writes_it(self, tmp_path, names):
        # csv.writer refuses a NUL before Python 3.11, and so does the header
        columns = table_of(names)
        stream, path = io.StringIO(newline=""), tmp_path / "t.csv"
        if sys.version_info >= (3, 11):
            write_csv(stream, columns)
            write_csv(path, columns)
            assert path.read_bytes() == stream.getvalue().encode("utf-8") \
                == csv_module_bytes(columns)
        else:
            for target in (stream, path):
                with pytest.raises(ConfigError, match="cannot be written"):
                    write_csv(target, columns)
            assert stream.getvalue() == ""
            assert not path.exists()


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


def test_a_neighbour_column_does_not_change_the_number_cells():
    """The same numbers written alone and next to a column whose every cell
    needs a sign, a ``0.000`` prefix and an exponent come out byte for byte
    the same."""
    powers = TestBoundaries.POWERS
    edges = np.array([1e-44, 1e44])
    values = np.concatenate([
        exact_ties(), powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf),
        edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf),
        [0.0, np.nan, np.inf, 5e-324]])
    values = np.concatenate([values, -values])
    alone = written({"x": values}).split(b"\r\n")[1:-1]
    beside = written({"w": np.full(len(values), -3.5e-21),
                      "x": values}).split(b"\r\n")[1:-1]
    assert [line.removeprefix(b"-3.5e-21,") for line in beside] == alone


def test_the_numbers_of_table2_match_the_csv_module():
    columns = {
        "eta_ge_bar": [1.0, 0.999999999999978, 0.866025403784439, 0.8660254037844386],
        "eta_se_bar": [1.0, 0.904987562112089, 0.5, 1.0],
        "eta_he": [1.0, 0.904987562112069, 0.433012701892219, 0.8660254037844386],
    }
    got = written(columns)
    assert got == template_bytes(columns)
    assert got == csv_module_bytes(columns)


@pytest.mark.parametrize("cells", [1, 2, 7, 4096, 10**6])
def test_chunk_size_does_not_change_the_bytes(monkeypatch, cells):
    columns = numeric_table(3500)
    assert chunks_of(3500, len(columns)) >= 2
    monkeypatch.setattr(csvtext, "_CSV_CELLS", cells)
    assert written(columns) == template_bytes(columns)
