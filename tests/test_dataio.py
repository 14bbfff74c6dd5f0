import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wassrec import DataError
from wassrec.dataio import (
    FORMATS,
    ColdStartSplit,
    GenomeTable,
    InteractionTable,
    binarize,
    build_cost_matrix,
    cold_start_split,
    filter_catalog,
    load_genome,
    load_interactions,
    read_split_manifest,
    write_split_manifest,
)
from wassrec.dataio import _parse_rating_lines, _unique_inverse

from conftest import traced_peak
from oracles import cost_matrix, load_genome_lines


def outcome(parse, *args):
    """What a parser does with a file: its result and warnings, or its error."""
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = parse(*args)
    except (DataError, ValueError) as err:
        return ("error", type(err).__name__, str(err))
    if isinstance(result, GenomeTable):
        columns = (result.item_ids, result.tag_ids, result.relevance)
    else:
        columns = (result.user_ids, result.item_ids, result.ratings, result.timestamps)
    return ("ok", [(c.dtype.str, c.shape, c.tobytes()) for c in columns],
            [str(w.message) for w in caught])


def with_extra_lines(draw, lines, extra):
    """``lines`` with each of ``extra`` inserted at a drawn position."""
    lines = list(lines)
    for line in extra:
        lines.insert(draw(st.integers(0, len(lines))), line)
    return lines


def write_lines(path, lines, newline):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("".join(line + newline for line in lines))
    return path


# fields of lines the rating budget counts as malformed
MALFORMED_RATINGS = [["7", "300"], ["1", "2", "3", "4", "5"], ["x", "2", "3", "4"],
                     ["1", "2.0", "3", "4"], ["1", "2", "3", "1.5"], ["1", "2", "nan", "4"],
                     ["1", "2", "-inf", "4"], ["1", "2", "3", "4", ""], ["1", "2", "high", "4"],
                     ["   "], ["#1", "2", "3", "4"], ["99999999999999999999", "2", "5", "100"],
                     ["1", "2", "5", "99999999999999999999"]]


@st.composite
def rating_files(draw):
    """Rating logs: repeated pairs with tied timestamps, a few malformed and
    blank lines (under and over the 1% budget), tab or double-colon."""
    fmt = draw(st.sampled_from(sorted(FORMATS)))
    sep = FORMATS[fmt]
    good = draw(st.lists(st.tuples(
        st.integers(1, 6).map(str), st.integers(1, 8).map(str),
        st.sampled_from(["1", "2", "3.5", "4", "5", "0.25", "4.0", " 3", "+2"]),
        st.integers(0, 3).map(str)), max_size=20))
    good *= draw(st.sampled_from([1, 60]))  # long enough for a malformed line in budget
    bad = draw(st.lists(st.sampled_from(MALFORMED_RATINGS), max_size=3))
    lines = with_extra_lines(draw, [sep.join(row) for row in good],
                             [sep.join(row) for row in bad] + [""] * draw(st.integers(0, 2)))
    return fmt, lines, draw(st.sampled_from(["\n", "\r\n"]))


class TestLoadInteractions:
    def test_tab_format(self, tmp_path):
        f = tmp_path / "ratings.tsv"
        f.write_text("1\t20\t4.0\t100\n2\t21\t3\t101\n")
        t = load_interactions(f, fmt="tab")
        assert len(t) == 2
        assert t.user_ids.tolist() == [1, 2]
        assert t.ratings.tolist() == [4.0, 3.0]
        assert t.timestamps.tolist() == [100, 101]

    def test_double_colon_format(self, tmp_path):
        f = tmp_path / "ratings.dat"
        f.write_text("1::20::4.5::100\n1::21::2::101\n")
        t = load_interactions(f, fmt="double-colon")
        assert t.item_ids.tolist() == [20, 21]

    def test_truncated_line_skipped_and_counted(self, tmp_path):
        f = tmp_path / "ratings.tsv"
        lines = ["%d\t%d\t4\t%d" % (u, u + 100, u) for u in range(1, 100)]
        lines.insert(50, "7\t300")  # truncated
        f.write_text("\n".join(lines) + "\n")
        with pytest.warns(UserWarning, match="1 malformed"):
            t = load_interactions(f)
        assert len(t) == 99

    def test_too_many_malformed_lines_reject_the_file(self, tmp_path):
        f = tmp_path / "ratings.tsv"
        good = ["%d\t%d\t4\t%d" % (u, u + 100, u) for u in range(1, 51)]
        f.write_text("\n".join(good + ["junk", "more junk"]) + "\n")
        with pytest.raises(DataError, match="malformed"):
            load_interactions(f)

    def test_non_numeric_and_nan_fields_are_malformed(self, tmp_path):
        f = tmp_path / "ratings.tsv"
        f.write_text("1\t2\tnan\t3\n" + "\n".join(
            "%d\t%d\t4\t%d" % (u, u, u) for u in range(1, 200)) + "\n")
        with pytest.warns(UserWarning):
            t = load_interactions(f)
        assert len(t) == 199

    def test_duplicate_pairs_keep_latest_timestamp(self, tmp_path):
        f = tmp_path / "ratings.tsv"
        f.write_text("1\t5\t2\t300\n1\t5\t4\t100\n1\t6\t3\t50\n")
        t = load_interactions(f)
        assert len(t) == 2
        row = np.flatnonzero(t.item_ids == 5)[0]
        assert t.ratings[row] == 2.0 and t.timestamps[row] == 300

    def test_timestamp_tie_keeps_last_occurrence(self, tmp_path):
        f = tmp_path / "ratings.tsv"
        f.write_text("1\t5\t2\t100\n1\t5\t4\t100\n")
        t = load_interactions(f)
        assert t.ratings.tolist() == [4.0]

    def test_unknown_format_and_empty_file(self, tmp_path):
        f = tmp_path / "ratings.tsv"
        f.write_text("1\t2\t3\t4\n")
        with pytest.raises(DataError, match="format"):
            load_interactions(f, fmt="csv")
        empty = tmp_path / "empty.tsv"
        empty.write_text("")
        with pytest.raises(DataError, match="no records"):
            load_interactions(empty)


class TestLoadInteractionsAgainstLineParser:
    """The array path agrees with the line parser that is its fallback."""

    @settings(max_examples=150, deadline=None)
    @given(rating_files())
    def test_equal_on_generated_files(self, tmp_path_factory, case):
        fmt, lines, newline = case
        path = write_lines(tmp_path_factory.getbasetemp() / "ratings.txt", lines, newline)
        assert outcome(load_interactions, path, fmt) == outcome(
            _parse_rating_lines, path, FORMATS[fmt])

    def test_budget_edges(self, tmp_path):
        good = ["%d\t%d\t4\t%d" % (u, u, u) for u in range(1, 101)]
        under = write_lines(tmp_path / "under.tsv", good + ["1\t2\tnan\t3"], "\n")
        over = write_lines(tmp_path / "over.tsv", good + ["junk", "1\t2"], "\n")
        for path in (under, over):
            assert outcome(load_interactions, path) == outcome(_parse_rating_lines, path, "\t")
        assert outcome(load_interactions, under)[0] == "ok"
        assert outcome(load_interactions, over)[0] == "error"


class TestBinarize:
    def test_threshold_keeps_and_rewrites(self):
        t = InteractionTable([1, 1, 2, 2], [10, 11, 10, 12],
                             [5.0, 3.0, 4.0, 2.0], [0, 1, 2, 3])
        b = binarize(t)
        assert b.item_ids.tolist() == [10, 10]
        assert b.ratings.tolist() == [1.0, 1.0]
        assert b.timestamps.tolist() == [0, 2]

    def test_custom_threshold(self):
        t = InteractionTable([1], [10], [3.0], [0])
        assert len(binarize(t, threshold=3.0)) == 1
        assert len(binarize(t, threshold=3.5)) == 0


class TestLoadGenome:
    def test_fixture_pivots_and_fills_missing(self, fixture_genome):
        with pytest.warns(UserWarning, match="1 \\(movie, tag\\) pair"):
            g = load_genome(fixture_genome)
        assert g.item_ids.tolist() == [1, 2, 3, 4, 5]
        assert g.tag_ids.tolist() == [10, 20, 30, 40]
        np.testing.assert_allclose(g.relevance[0], [0.9, 0.1, 0.0, 0.2])
        assert 6 not in g.item_ids
        assert 3 in g.item_ids

    def test_tab_delimited_header(self, tmp_path):
        f = tmp_path / "genome.tsv"
        f.write_text("movieId\ttagId\trelevance\n1\t7\t0.5\n")
        g = load_genome(f)
        assert g.relevance[0].tolist() == [0.5]

    def test_errors(self, tmp_path):
        bad_header = tmp_path / "a.csv"
        bad_header.write_text("movie,tag,score\n1,2,0.5\n")
        with pytest.raises(DataError, match="header"):
            load_genome(bad_header)
        out_of_range = tmp_path / "b.csv"
        out_of_range.write_text("movieId,tagId,relevance\n1,2,1.5\n")
        with pytest.raises(DataError, match="outside"):
            load_genome(out_of_range)
        dup = tmp_path / "c.csv"
        dup.write_text("movieId,tagId,relevance\n1,2,0.5\n1,2,0.6\n")
        with pytest.raises(DataError, match="duplicate"):
            load_genome(dup)
        malformed = tmp_path / "d.csv"
        malformed.write_text("movieId,tagId,relevance\n1,x,0.5\n")
        with pytest.raises(DataError, match="malformed"):
            load_genome(malformed)
        empty = tmp_path / "e.csv"
        empty.write_text("")
        with pytest.raises(DataError, match="empty genome file"):
            load_genome(empty)


@st.composite
def genome_files(draw):
    """Long-format genomes: reordered or extra columns, comma or tab, missing
    pairs, and at times a repeated pair, a relevance outside [0, 1], a
    malformed row and blank lines, in any order."""
    names = list(draw(st.permutations(["movieId", "tagId", "relevance"])))
    if draw(st.booleans()):
        names.insert(draw(st.integers(0, 3)), "extra")
    delim = draw(st.sampled_from([",", "\t"]))
    movies = draw(st.lists(st.integers(1, 60), max_size=6, unique=True))
    tags = draw(st.lists(st.integers(1, 40), min_size=1, max_size=5, unique=True))
    relevance = st.one_of(st.floats(0.0, 1.0).map(repr),
                          st.sampled_from(["0", "1", "0.5", "1.0", "-0.0", " 0.25", ".75"]))
    rows = [{"movieId": str(m), "tagId": str(t), "relevance": draw(relevance)}
            for m in movies for t in tags if draw(st.integers(0, 4))]
    rows = list(draw(st.permutations(rows)))
    extra = []
    if rows and draw(st.integers(0, 3)) == 0:
        extra.append(dict(draw(st.sampled_from(rows)), relevance=draw(relevance)))
    if draw(st.integers(0, 3)) == 0:
        extra.append({"movieId": "3", "tagId": str(tags[0]),
                      "relevance": draw(st.sampled_from(["1.5", "-0.25", "nan", "inf"]))})
    if draw(st.integers(0, 3)) == 0:
        broken = {"movieId": "x", "tagId": "2.5", "relevance": "high"}
        key = draw(st.sampled_from(sorted(broken)))
        extra.append({"movieId": "4", "tagId": str(tags[0]), "relevance": "0.5",
                      key: broken[key]})
    if draw(st.integers(0, 3)) == 0:
        extra.append(None)  # a row cut short of its last field
    lines = [delim.join(row.get(n, "z") for n in names) if row else
             delim.join(["1"] * (len(names) - 1)) for row in rows + extra]
    lines = with_extra_lines(draw, lines[:len(rows)], lines[len(rows):]
                             + [""] * draw(st.integers(0, 2)))
    return [delim.join(names), *lines], draw(st.sampled_from(["\n", "\r\n"]))


class TestLoadGenomeAgainstLineParser:
    """The array path agrees with the line-by-line parser it replaced."""

    @settings(max_examples=200, deadline=None)
    @given(genome_files())
    def test_equal_on_generated_files(self, tmp_path_factory, case):
        lines, newline = case
        path = write_lines(tmp_path_factory.getbasetemp() / "genome.txt", lines, newline)
        assert outcome(load_genome, path) == outcome(load_genome_lines, path)

    @pytest.mark.parametrize("body, message", [
        (["1,2,0.5", "", "1,3,x", "1,2,1.5"], "line 4 is malformed"),
        (["1,2,0.5", "1,2,0.75", "1,3,x"], "line 3: duplicate pair (1, 2)"),
        (["1,2,0.5", "", "1,3,nan", "1,3,x"], "line 4: relevance nan outside"),
        (["1,2,1.5", "1,2,0.5"], "line 2: relevance 1.5 outside"),
        (["1,2,0.5", "1,2,-1"], "line 3: relevance -1 outside"),
        (["1,2_0,0.5"], None),  # Python's int reads 2_0; the line parser takes it
        (["1,2,0.5", "99999999999999999999,1,0.5"], "line 3 is malformed"),  # beyond int64
    ])
    def test_first_bad_line_is_named(self, tmp_path, body, message):
        path = write_lines(tmp_path / "g.csv", ["movieId,tagId,relevance", *body], "\n")
        got = outcome(load_genome, path)
        assert got == outcome(load_genome_lines, path)
        if message is None:
            assert got[0] == "ok"
        else:
            assert got[0] == "error" and message in got[2]


class TestUniqueInverse:
    @pytest.mark.parametrize("size, high", [(0, 1), (1, 1), (50, 3), (1000, 10**6)])
    def test_equals_np_unique(self, size, high):
        rng = np.random.default_rng(size)
        values = rng.integers(-high, high, size=size) * 2**40
        distinct, index = _unique_inverse(values)
        expected, inverse = np.unique(values, return_inverse=True)
        assert distinct.tobytes() == expected.tobytes()
        assert index.dtype == inverse.dtype and index.tobytes() == inverse.tobytes()


class TestLoadGenomeMemory:
    def test_peak_is_the_rows_plus_two_index_arrays(self, tmp_path):
        # 24 bytes a parsed row, 8 for its cell and 8 for the relevance
        # matrix; two np.unique inverses held about 73 bytes a row
        items, tags = 500, 200
        rng = np.random.default_rng(0)
        cells = rng.permutation(items * tags)  # rows in no particular order
        path = tmp_path / "genome.csv"
        with open(path, "w") as fh:
            fh.write("movieId,tagId,relevance\n")
            fh.writelines("%d,%d,%r\n" % (3 * (c // tags) + 1, 7 * (c % tags) + 2, v)
                          for c, v in zip(cells.tolist(), rng.random(cells.size).tolist()))
        peak = traced_peak(lambda: load_genome(path))
        assert peak <= (24 + 8 + 8) * cells.size + 2**20


class TestTableChecks:
    @pytest.mark.parametrize("make, message", [
        (lambda: InteractionTable([1, 2], [10], [1.0, 1.0], [0, 0]), "aligned 1-D arrays"),
        (lambda: InteractionTable([[1]], [[10]], [[1.0]], [[0]]), "aligned 1-D arrays"),
        (lambda: GenomeTable([1, 2], [7], [[0.5]]),
         r"relevance shape \(1, 1\) does not match 2 items x 1 tags"),
        (lambda: GenomeTable([2, 1], [7], [[0.5], [0.5]]), "strictly increasing"),
        (lambda: GenomeTable([1], [7, 7], [[0.5, 0.5]]), "strictly increasing"),
        (lambda: GenomeTable([1], [7], [[1.5]]), r"must lie in \[0, 1\]"),
        (lambda: GenomeTable([1], [7], [[np.nan]]), r"must lie in \[0, 1\]"),
    ], ids=["ragged-interactions", "2-d-interactions", "relevance-shape", "item-order",
            "repeated-tag", "relevance-above-one", "relevance-nan"])
    def test_rejects_inconsistent_columns(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()


class TestFilterCatalog:
    def test_fixture_counts_by_hand(self, fixture_ratings, fixture_genome):
        t = load_interactions(fixture_ratings)
        with pytest.warns(UserWarning):
            g = load_genome(fixture_genome)
        b = binarize(t)
        assert len(b) == 11
        t2, g2 = filter_catalog(b, g)
        # item 6 has no genome, which also empties user 5
        assert len(t2) == 9
        assert t2.users.tolist() == [1, 2, 3, 4]
        assert t2.items.tolist() == [1, 2, 3, 4, 5]
        assert g2.item_ids.tolist() == [1, 2, 3, 4, 5]

    def test_nothing_survives(self):
        t = InteractionTable([1], [99], [1.0], [0])
        g = GenomeTable([1, 2], [7], np.array([[0.5], [0.5]]))
        with pytest.raises(DataError, match="survive"):
            filter_catalog(t, g)


class TestBuildCostMatrix:
    def test_cosine_values(self, fixture_genome):
        with pytest.warns(UserWarning):
            g = load_genome(fixture_genome)
        costs = build_cost_matrix(g, row_ids=[1, 2], col_ids=[4, 3])
        v1, v3 = g.relevance[0], g.relevance[2]
        expected = 1.0 - float(v1 @ v3) / (np.linalg.norm(v1) * np.linalg.norm(v3))
        assert costs.dtype == np.float64 and costs.shape == (2, 2)
        assert costs[0, 1] == pytest.approx(expected, abs=1e-15)  # in the order asked
        assert costs.min() >= 0.0 and costs.max() <= 2.0

    @pytest.mark.parametrize("items, tags", [(2, 1), (7, 3), (60, 40), (300, 128)])
    def test_bytes_equal_the_whole_array_arithmetic(self, items, tags):
        rng = np.random.default_rng(items)
        rel = rng.random((items, tags)) * (rng.random((items, tags)) < 0.6)
        rel[:, 0] += 0.01  # no all-zero row
        rel[1] = rel[0]  # a cosine of about 1, so the clip at 0 may act
        rel /= rel.max()
        genome = GenomeTable(np.arange(items) * 3 + 1, np.arange(tags), rel)
        ids = rng.permutation(genome.item_ids)
        n = int(rng.integers(1, items))
        got = build_cost_matrix(genome, ids[:n], ids[n:])
        expected = cost_matrix(genome, ids[:n], ids[n:])
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()

    def test_missing_and_zero_genomes_rejected(self):
        g = GenomeTable([1, 2], [7, 8], np.array([[0.5, 0.1], [0.0, 0.0]]))
        with pytest.raises(DataError, match="no genome"):
            build_cost_matrix(g, [1], [9])
        with pytest.raises(DataError, match="all-zero"):
            build_cost_matrix(g, [1], [2])
        with pytest.raises(DataError, match="item 3 has no genome"):  # above every id
            build_cost_matrix(g, [1], [3])
        with pytest.raises(DataError, match="item 2 has an all-zero"):  # rows come first
            build_cost_matrix(g, [1, 2], [9])


def _toy_table(n_items=8, users=4):
    rows = [(u, i) for u in range(1, users + 1) for i in range(1, n_items + 1)]
    u, i = zip(*rows)
    return InteractionTable(np.array(u), np.array(i), np.full(len(u), 1.0),
                            np.arange(len(u), dtype=np.int64))


class TestColdStartSplit:
    def test_three_to_one_partition(self):
        t = _toy_table(8)
        splits = cold_start_split(t, ratio="3:1", seed=0)
        assert len(splits) == 4
        all_cold = []
        for s in splits:
            assert len(s.cold_items) == 2 and len(s.interacted_items) == 6
            assert set(s.cold_items).isdisjoint(s.interacted_items)
            assert set(s.cold_items) | set(s.interacted_items) == set(range(1, 9))
            assert set(s.train.items.tolist()) <= set(s.interacted_items)
            assert set(s.test.items.tolist()) <= set(s.cold_items)
            all_cold.extend(s.cold_items)
        # each item is cold exactly once across the full fold set
        assert sorted(all_cold) == list(range(1, 9))

    def test_one_to_one_and_one_to_three(self):
        t = _toy_table(8)
        for ratio, n_folds, cold_size, multiplicity in (("1:1", 2, 4, 1), ("1:3", 4, 6, 3)):
            splits = cold_start_split(t, ratio=ratio, seed=3)
            assert len(splits) == n_folds
            counts = {}
            for s in splits:
                assert len(s.cold_items) == cold_size
                for i in s.cold_items:
                    counts[i] = counts.get(i, 0) + 1
            assert set(counts.values()) == {multiplicity}
            assert set(counts) == set(range(1, 9))

    def test_same_seed_reproduces_and_seeds_differ(self):
        t = _toy_table(8)
        a = cold_start_split(t, ratio="3:1", seed=7)
        b = cold_start_split(t, ratio="3:1", seed=7)
        assert [s.cold_items for s in a] == [s.cold_items for s in b]
        c = cold_start_split(t, ratio="3:1", seed=8)
        assert [s.cold_items for s in a] != [s.cold_items for s in c]

    def test_fold_count_subset(self):
        t = _toy_table(8)
        splits = cold_start_split(t, ratio="3:1", folds=2, seed=0)
        assert [s.fold for s in splits] == [0, 1]
        full = cold_start_split(t, ratio="3:1", seed=0)
        assert splits[0].cold_items == full[0].cold_items

    def test_errors(self):
        t = _toy_table(3)
        with pytest.raises(DataError, match="subsets"):
            cold_start_split(t, ratio="3:1")
        with pytest.raises(DataError, match="ratio"):
            cold_start_split(_toy_table(8), ratio="2:1")
        with pytest.raises(ValueError, match="folds"):
            cold_start_split(_toy_table(8), ratio="1:1", folds=3)
        with pytest.raises(ValueError):
            ColdStartSplit(0, 0, "3:1", (1, 2), (2, 3),
                           _toy_table(2), _toy_table(2))

    def test_manifest_round_trip(self, tmp_path):
        t = _toy_table(8)
        splits = cold_start_split(t, ratio="3:1", seed=5)
        path = tmp_path / "manifest.json"
        write_split_manifest(splits, path)
        payload = read_split_manifest(path)
        assert payload["ratio"] == "3:1" and payload["seed"] == 5
        assert payload["folds"][2]["cold"] == list(splits[2].cold_items)
        # byte determinism
        path2 = tmp_path / "manifest2.json"
        write_split_manifest(splits, path2)
        assert path.read_bytes() == path2.read_bytes()
        with pytest.raises(DataError):
            bad = tmp_path / "bad.json"
            bad.write_text(json.dumps({"ratio": "3:1"}))
            read_split_manifest(bad)
        for edit, message in [({"folds": {}}, "'folds' is missing or not a list of objects"),
                              ({"folds": []}, "bad.json lists no folds"),
                              ({"ratio": 3}, "'ratio' is missing or not a string"),
                              ({"seed": "x"}, "'seed' is missing or not an int"),
                              ({"seed": True}, "'seed' is missing or not an int")]:
            bad.write_text(json.dumps({**json.loads(path.read_text()), **edit}))
            with pytest.raises(DataError, match=message):
                read_split_manifest(bad)
        with pytest.raises(ValueError, match="no splits to write"):
            write_split_manifest([], tmp_path / "never.json")
        assert not (tmp_path / "never.json").exists()
