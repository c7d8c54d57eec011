"""The array CSV formatter against ``'%.15g'``, the row-template writer it
replaced, and ``csv.writer``."""

import csv
import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blochpath import scenarios, sweep_phase_profiles
from blochpath.scenarios import write_csv


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


def csv_module_bytes(columns) -> bytes:
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow(list(columns))
    writer.writerows(zip(*(
        [x if isinstance(x, str) else f"{float(x):.15g}" for x in col]
        for col in columns.values())))
    return out.getvalue().encode("utf-8")


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


#: cells that need the optional places: a sign, a ``0.000`` prefix, an exponent
OPTIONAL = {"sign": -2.5, "prefix": 1.25e-4, "exponent": 3.5e-21}


@given(st.integers(1, 5), st.floats(1.5, 4.0), st.fixed_dictionaries(
    {kind: st.sampled_from(["none", "one", "every"]) for kind in OPTIONAL}),
    st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None, derandomize=True)
def test_optional_places_in_no_one_or_every_chunk(width, chunks, where, seed):
    """Tables of several chunks, with the cells that need a sign, prefix or
    exponent place in no chunk, in one chunk, or in every chunk."""
    step = scenarios._CSV_CELLS // width
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
    columns = {"name": np.array(["þ", "a\x00b", "", "x,y", "ÿ"] * 40),
               "x": np.linspace(-3e-5, 2e20, 200),
               "y": np.arange(200.0)}
    monkeypatch.setattr(scenarios, "_CSV_CELLS", cells)
    assert written(columns) == template_bytes(columns)


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
    ], ids=["non_ascii", "nul", "lone_column", "thorn_and_y_umlaut",
            "nul_next_to_non_ascii", "lone_non_ascii_column"])
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
