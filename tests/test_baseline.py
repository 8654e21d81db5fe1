"""Expected-citation table construction, lookup, and CSV round trips."""
from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from citnorm.baseline import (
    BaselineCell,
    BaselineTable,
    compute_baselines,
    expected_citations,
    read_baselines,
    write_baselines,
)
from citnorm.corpus import Corpus
from citnorm.errors import ValidationError
from citnorm.indicators import read_scores, score_units

from conftest import make_corpus, make_pub


def test_cell_mean_and_size():
    corpus = make_corpus([
        make_pub("P1", field="F", year=2005, citations=2),
        make_pub("P2", field="F", year=2005, citations=4),
        make_pub("P3", field="F", year=2005, citations=6),
    ])
    table = compute_baselines(corpus)
    cell = table.cells[("F", 2005)]
    assert cell.mean_citations == 4.0
    assert cell.cell_size == 3


def test_multi_field_publication_feeds_both_cells():
    corpus = make_corpus([make_pub("P1", fields=("F", "G"), year=2005, citations=8)])
    table = compute_baselines(corpus)
    assert table.cells[("F", 2005)] == BaselineCell(8.0, 1)
    assert table.cells[("G", 2005)] == BaselineCell(8.0, 1)


def test_zero_cell_is_retained():
    corpus = make_corpus([
        make_pub("P1", field="F", year=2005, citations=0),
        make_pub("P2", field="F", year=2005, citations=0),
    ])
    table = compute_baselines(corpus)
    assert table.cells[("F", 2005)] == BaselineCell(0.0, 2)


def test_empty_corpus_rejected():
    corpus = Corpus((), census_year=2010)
    with pytest.raises(ValidationError, match="empty"):
        compute_baselines(corpus)


def test_expected_citations_single_field():
    table = BaselineTable({("F", 1994): BaselineCell(6.97, 12)})
    pub = make_pub("P1", field="F", year=1994, citations=6)
    assert expected_citations(table, pub) == 6.97


def test_expected_citations_two_fields_is_mean_of_means():
    table = BaselineTable(
        {("F", 2005): BaselineCell(2.0, 3), ("G", 2005): BaselineCell(4.0, 5)},
    )
    pub = make_pub("P1", fields=("F", "G"), year=2005)
    assert expected_citations(table, pub) == 3.0


def test_missing_cell_names_field_and_year():
    table = BaselineTable({("F", 2005): BaselineCell(1.0, 1)})
    pub = make_pub("P1", field="G", year=2004)
    with pytest.raises(ValidationError, match="no baseline cell.*'G'.*2004"):
        expected_citations(table, pub)


@given(st.lists(st.tuples(st.sampled_from(["F", "G", "H"]),
                          st.integers(2000, 2004),
                          st.integers(0, 50)),
                min_size=1, max_size=40))
@settings(max_examples=60)
def test_single_field_self_consistency(rows):
    # With one field per publication, summed expected counts equal summed
    # actual counts: every cell's members collectively reproduce its mean.
    pubs = [
        make_pub(f"p{i:03d}", field=f, year=y, citations=c)
        for i, (f, y, c) in enumerate(rows)
    ]
    corpus = make_corpus(pubs, census_year=2004)
    table = compute_baselines(corpus)
    total_e = sum(expected_citations(table, p) for p in corpus)
    total_c = sum(p.citations_total for p in corpus)
    assert total_e == pytest.approx(total_c, rel=1e-9)


def test_doubling_citations_doubles_every_mean():
    pubs = [
        make_pub("P1", field="F", year=2005, citations=3),
        make_pub("P2", field="F", year=2005, citations=4),
        make_pub("P3", field="G", year=2006, citations=7),
    ]
    doubled = [
        make_pub(p.id, fields=p.field_ids, year=p.pub_year,
                 citations=2 * p.citations_total)
        for p in pubs
    ]
    table = compute_baselines(make_corpus(pubs))
    table2 = compute_baselines(make_corpus(doubled))
    for key, cell in table.cells.items():
        assert table2.cells[key].mean_citations == 2 * cell.mean_citations
        assert table2.cells[key].cell_size == cell.cell_size


def test_adding_publication_moves_only_its_cell():
    base = [
        make_pub("P1", field="F", year=2005, citations=2),
        make_pub("P2", field="F", year=2005, citations=4),
        make_pub("P3", field="G", year=2006, citations=9),
    ]
    table = compute_baselines(make_corpus(base))
    grown = compute_baselines(make_corpus(base + [
        make_pub("P4", field="F", year=2005, citations=12),
    ]))
    old = table.cells[("F", 2005)].mean_citations
    new = grown.cells[("F", 2005)].mean_citations
    assert old < new <= 12  # moved toward the added value
    assert grown.cells[("G", 2006)] == table.cells[("G", 2006)]


def test_csv_round_trip(tmp_path):
    table = BaselineTable(
        {
            ("F", 2005): BaselineCell(4.5, 2),
            ("F", 2006): BaselineCell(0.0, 3),
            ("G", 2005): BaselineCell(6.125, 8),
        },
    )
    path = tmp_path / "baselines.csv"
    write_baselines(table, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "field_id,pub_year,mean_citations,cell_size"
    assert lines[1] == "F,2005,4.5,2"  # sorted by (field, year), each mean as its repr
    again = read_baselines(path)
    assert again.cells == table.cells


@given(st.lists(st.tuples(st.sampled_from(["F", "G"]), st.integers(2000, 2004),
                          st.integers(0, 2 ** 53 - 1) | st.integers(0, 7)),
                min_size=1, max_size=40))
@example([("F", 2000, 1)] + [("F", 2000, 0)] * 2999)  # 6 decimals read 1/3000 as 0.000333
@settings(max_examples=60)
def test_csv_round_trip_is_exact(tmp_path_factory, rows):
    # means such as 1/3 or 2**53 - 1 over 7 need all 17 significant digits
    corpus = make_corpus([make_pub(f"p{i:03d}", field=f, year=y, citations=c)
                          for i, (f, y, c) in enumerate(rows)],
                         census_year=2004)
    path = tmp_path_factory.mktemp("exact") / "baselines.csv"
    table = compute_baselines(corpus)
    write_baselines(table, path)
    assert read_baselines(path).cells == table.cells


def test_read_rejects_bad_header(tmp_path):
    path = tmp_path / "baselines.csv"
    path.write_text("field,year,mean\n")
    with pytest.raises(ValidationError, match="header"):
        read_baselines(path)


def test_read_rejects_duplicate_cell(tmp_path):
    path = tmp_path / "baselines.csv"
    path.write_text(
        "field_id,pub_year,mean_citations,cell_size\n"
        "F,2005,1.000000,1\n"
        "F,2005,2.000000,1\n"
    )
    with pytest.raises(ValidationError, match="duplicate cell"):
        read_baselines(path)


@pytest.mark.parametrize("mean", ["nan", "inf", "-inf"])
def test_read_rejects_non_finite_mean(tmp_path, mean):
    path = tmp_path / "baselines.csv"
    path.write_text(
        "field_id,pub_year,mean_citations,cell_size\n"
        "F,2005,1.000000,1\n"
        f"F,2006,{mean},1\n"
    )
    with pytest.raises(ValidationError, match="^baseline CSV row 3: invalid cell$"):
        read_baselines(path)


@pytest.mark.parametrize("row", [
    "F,2_000,1.000000,1",  # '_' in an integer
    "F,2006,1.000000,+3",  # a sign on an integer
    "F,２００６,1.000000,1",  # non-ASCII digits
    "F,2006,1.000000, 4",  # whitespace around an integer
    "F,02006,1.000000,1",  # a padded integer
    "F,2006,1_0.5,1",  # '_' in a real
    "F,2006,１.5,1",  # non-ASCII digits in a real
    "F,2006,1.5 ,1",  # whitespace around a real
    "f,2_000,1_0.5,+3",
])
def test_read_rejects_coerced_numerals(tmp_path, row):
    path = tmp_path / "baselines.csv"
    path.write_text(
        "field_id,pub_year,mean_citations,cell_size\n"
        "F,2005,1.000000,1\n"
        f"{row}\n",
        encoding="utf-8",
    )
    with pytest.raises(ValidationError, match="^baseline CSV row 3: malformed values$"):
        read_baselines(path)


def test_expected_count_does_not_depend_on_field_order():
    # cell means 1/6, 1/10 and 6/15: summed one by one in listed order, the two
    # orders below give 0.2222222222222222 and 0.22222222222222224
    corpus = make_corpus([
        make_pub(f"{field}-{k}", field=field, citations=citations if k == 0 else 0)
        for field, size, citations in [("f1", 6, 1), ("f2", 10, 1), ("f3", 15, 6)]
        for k in range(size)
    ])
    table = compute_baselines(corpus)
    first = expected_citations(table, make_pub("X", fields=("f1", "f2", "f3")))
    assert first == expected_citations(table, make_pub("Y", fields=("f3", "f1", "f2")))
    means = [Fraction(table.cells[(f, 2005)].mean_citations) for f in ("f1", "f2", "f3")]
    assert first == float(sum(means)) / 3
    with pytest.raises(ValidationError, match="^no baseline cell for field 'g9', year 2005$"):
        expected_citations(table, make_pub("Z", fields=("f1", "g9", "g1")))


# BaselineCell's range, 0 or [2**-53, 2**53 - 1], is the reader's: 6-decimal means as
# older files hold them, and repr forms of any mean in the range
@pytest.mark.parametrize("mean, accepted", [
    ("0.000000", True), ("0.000001", True), ("9007199254740991.000000", True),
    ("0.0000009", True), ("1e-07", True), ("5e-07", True), (repr(2.0 ** -53), True),
    ("0.0", True), ("9007199254740991.0", True),
    ("9007199254740992", False), ("1e-17", False), ("1e-300", False), ("1e308", False),
    ("nan", False),
])
def test_read_accepts_only_means_compute_baselines_can_write(tmp_path, mean, accepted):
    path = tmp_path / "baselines.csv"
    path.write_text(f"field_id,pub_year,mean_citations,cell_size\nF,2005,{mean},1\n")
    if accepted:
        assert read_baselines(path).cells[("F", 2005)].mean_citations == float(mean)
    else:
        with pytest.raises(ValidationError, match="^baseline CSV row 2: invalid cell$"):
            read_baselines(path)


@pytest.mark.parametrize("reader, header, row, width", [
    (read_baselines, "field_id,pub_year,mean_citations,cell_size", "F,2005,1.0", 4),
    (read_baselines, "field_id,pub_year,mean_citations,cell_size", "F,2005,1.0,1,", 4),
    (read_scores, "unit_id,n_total,n_mncs2,n_excluded_zero_e,cpp_fcsm,mncs1,mncs2",
     "u1,3,3,0,1.0000,1.0000", 7),
    (read_scores, "unit_id,n_total,n_mncs2,n_excluded_zero_e,cpp_fcsm,mncs1,mncs2",
     "u1,3,3,0,1.0000,1.0000,1.0000,1.0000", 7),
], ids=["baselines-short", "baselines-long", "scores-short", "scores-long"])
def test_a_row_of_another_width_is_named(tmp_path, reader, header, row, width):
    path = tmp_path / "table.csv"
    path.write_text(f"{header}\n{row}\n")
    what = "baseline" if reader is read_baselines else "scores"
    with pytest.raises(ValidationError, match=f"^{what} CSV row 2: expected {width} columns$"):
        reader(path)


# mean, cell_size; a comment names what scoring would make of the cell if it were admitted
@pytest.mark.parametrize("mean, size", [
    (1e308, 1),  # OverflowError: intermediate overflow in fsum
    (math.nan, 1),  # cpp_fcsm = nan
    (-1.0, 1),  # cpp_fcsm = -3.0 for 3 citations
    (5e-324, 1),  # cpp_fcsm = inf, which write_scores wrote into the CSV
    (math.inf, 1), (-math.inf, 1), (2.0 ** -54, 1), (2.0 ** 53, 1),
    (1.0, 0), (1.0, -2), (1.0, 1.0), (1.0, True), (1.0, "3"),
    ("3", 1), (None, 1), (1 + 0j, 1),  # before, a TypeError from the range comparison
])
def test_cell_outside_its_range_is_rejected(mean, size):
    with pytest.raises(ValidationError, match="^invalid baseline cell: mean "):
        BaselineCell(mean, size)


@pytest.mark.parametrize("mean, size", [
    (0, 1), (0.0, 3), (2.0 ** -53, 1), (1 / 10 ** 7, 10 ** 7), (1.0, 1), (2.0 ** 53 - 1, 1),
])
def test_cell_admits_every_mean_compute_baselines_makes(mean, size):
    cell = BaselineCell(mean, size)
    assert (cell.mean_citations, cell.cell_size) == (mean, size)


def test_library_scores_stay_finite_at_the_ends_of_the_cell_range():
    top = 2 ** 53 - 1
    corpus = make_corpus([
        make_pub("P1", fields=("F", "G"), citations=top),
        make_pub("P2", field="H", citations=top),
        make_pub("P3", field="H", year=2009, citations=0),
    ])
    table = BaselineTable({
        ("F", 2005): BaselineCell(float(top), 1),
        ("G", 2005): BaselineCell(float(top), 1),
        ("H", 2005): BaselineCell(2.0 ** -53, 1),
        ("H", 2009): BaselineCell(2.0 ** -53, 1),
    })
    (score,) = score_units(corpus, table)
    values = (score.cpp_fcsm, score.mncs1, score.mncs2)
    assert all(math.isfinite(value) for value in values)


@pytest.mark.parametrize("mean", [True, False])
def test_a_bool_is_no_cell_mean(mean):
    with pytest.raises(ValidationError, match="^invalid baseline cell: mean "):
        BaselineCell(mean, 1)
