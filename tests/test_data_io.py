import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphgp import data_io as D


SCHEMA = D.parse_schema("target=y\nfeatures=a,b\ntask=regression\n")


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestSchema:
    def test_parse(self):
        s = D.parse_schema("# comment\ntarget=y\nfeatures=a, b ,c\ntask=binary\n")
        assert s.target == "y" and s.features == ("a", "b", "c") and s.task == "binary"

    def test_round_trip(self):
        assert D.parse_schema(D.serialize_schema(SCHEMA)) == SCHEMA

    @pytest.mark.parametrize(
        "line", ["features=a#b,c", "target=y # the label", "task=regression#"]
    )
    def test_hash_inside_a_line_is_an_error(self, line):
        # a value used to be cut at its first '#': features=a#b,c read as (a,)
        text = "  # comment\ntarget=y\nfeatures=a,c\ntask=regression\n"
        key = line.split("=")[0]
        text = re.sub(f"^{key}=.*$", line, text, flags=re.M)
        with pytest.raises(D.DataError, match=re.escape(repr(line))):
            D.parse_schema(text)

    def test_missing_keys(self):
        with pytest.raises(D.DataError):
            D.parse_schema("target=y\n")

    def test_byte_order_mark_is_not_part_of_the_first_key(self, tmp_path):
        # it used to fail with "unknown schema key '\ufefftarget'"
        path = tmp_path / "bom.schema"
        path.write_bytes(b"\xef\xbb\xbf" + D.serialize_schema(SCHEMA).encode("utf-8"))
        assert D.load_schema(path) == SCHEMA

    def test_bad_task(self):
        with pytest.raises(D.DataError):
            D.parse_schema("target=y\nfeatures=a\ntask=ranking\n")

    def test_target_not_feature(self):
        with pytest.raises(D.DataError):
            D.parse_schema("target=a\nfeatures=a,b\ntask=regression\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("target=y\ntarget=z\nfeatures=a\ntask=regression\n", "duplicate schema key 'target'"),
            ("target=y\nfeatures=a\nfeatures=b\ntask=regression\n", "duplicate schema key"),
            ("target=y\nfeatures=a\ntask=regression\nweights=w\n", "unknown schema key 'weights'"),
            ("target=y\nfeatures=a,b,a\ntask=regression\n", "a feature column repeats: a,b,a"),
        ],
    )
    def test_ambiguous_schema_is_an_error(self, text, message):
        # each of these used to parse: the last target won, unknown keys were
        # ignored and a repeated feature was read twice
        with pytest.raises(D.DataError, match=message):
            D.parse_schema(text)


class TestLoadCsv:
    def test_well_formed(self, tmp_path):
        path = write(tmp_path, "a,b,y\n1,2,3\n4,5,6\n7,8,9\n")
        ds = D.load_csv(path, SCHEMA)
        assert ds.num_rows == 3 and ds.dropped_rows == 0
        assert np.array_equal(ds.inputs, [[1, 2], [4, 5], [7, 8]])
        assert np.array_equal(ds.targets, [3, 6, 9])

    def test_nan_row_dropped_and_counted(self, tmp_path):
        path = write(tmp_path, "a,b,y\n1,2,3\nNaN,5,6\n7,8,9\n")
        ds = D.load_csv(path, SCHEMA, max_bad_fraction=0.5)
        assert ds.num_rows == 2 and ds.dropped_rows == 1

    def test_wrong_width_row_dropped(self, tmp_path):
        path = write(tmp_path, "a,b,y\n1,2,3\n4,5\n7,8,9\n")
        ds = D.load_csv(path, SCHEMA, max_bad_fraction=0.5)
        assert ds.num_rows == 2 and ds.dropped_rows == 1

    def test_too_many_bad_rows_abort(self, tmp_path):
        path = write(tmp_path, "a,b,y\n1,2,3\nx,5,6\nx,8,9\n")
        with pytest.raises(D.DataError, match="rejected"):
            D.load_csv(path, SCHEMA, max_bad_fraction=0.1)

    def test_missing_column(self, tmp_path):
        path = write(tmp_path, "a,z,y\n1,2,3\n")
        with pytest.raises(D.DataError, match="missing column"):
            D.load_csv(path, SCHEMA)

    def test_deterministic_reload(self, tmp_path):
        path = write(tmp_path, "a,b,y\n1.5,2.25,3\n4,5,6\n")
        first = D.load_csv(path, SCHEMA)
        second = D.load_csv(path, SCHEMA)
        assert np.array_equal(first.inputs, second.inputs)
        assert np.array_equal(first.targets, second.targets)

    def test_binary_targets_validated(self, tmp_path):
        schema = D.parse_schema("target=y\nfeatures=a,b\ntask=binary\n")
        path = write(tmp_path, "a,b,y\n1,2,1\n3,4,0\n5,6,2\n")
        ds = D.load_csv(path, schema, max_bad_fraction=0.5)
        assert ds.num_rows == 2 and ds.dropped_rows == 1

    def test_quoted_fields(self, tmp_path):
        path = write(tmp_path, 'a,b,y\n"1","2","3"\n')
        ds = D.load_csv(path, SCHEMA)
        assert ds.num_rows == 1

    @pytest.mark.parametrize(
        "rows", ["1,2,3\n4,5,6\n", "1,2,3\nx,5,6\n4,5,6\n"], ids=["clean", "dirty"]
    )
    def test_byte_order_mark_is_not_part_of_the_first_column(self, tmp_path, rows):
        # it used to fail with "missing column: 'a' is not in list"
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + f"a,b,y\n{rows}".encode("utf-8"))
        ds = D.load_csv(path, SCHEMA, max_bad_fraction=0.5)
        assert np.array_equal(ds.inputs, [[1, 2], [4, 5]])
        assert np.array_equal(ds.targets, [3, 6])

    @pytest.mark.parametrize("rows", ["1,2,9,3\n", "1,2,9,3\nx,2,9,3\n"], ids=["clean", "dirty"])
    def test_repeated_schema_column_in_header_is_an_error(self, tmp_path, rows):
        # the first 'a' used to be read: row 1,2,9,3 loaded as inputs [1, 2]
        path = write(tmp_path, "a,b,a,y\n" + rows)
        with pytest.raises(D.DataError, match="column 'a' appears 2 times in the header"):
            D.load_csv(path, SCHEMA, max_bad_fraction=1.0)

    def test_repeated_column_the_schema_does_not_use_is_read(self, tmp_path):
        path = write(tmp_path, "z,a,z,b,y\n7,1,8,2,3\n")
        ds = D.load_csv(path, SCHEMA)
        assert np.array_equal(ds.inputs, [[1, 2]]) and np.array_equal(ds.targets, [3])

    @pytest.mark.parametrize(
        "text", ["a,b,y\n", "a,b,y\n\n\r\n"], ids=["header-only", "blank-lines"]
    )
    def test_header_only_file_has_no_data_rows_and_warns_nothing(self, tmp_path, text):
        path = write(tmp_path, text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(D.DataError, match="no data rows"):
                D.load_csv(path, SCHEMA)

    def test_rows_all_wider_than_the_header_are_all_dropped(self, tmp_path):
        # np.loadtxt reads such a table without error; it must not load as 3 columns
        path = write(tmp_path, "a,b,y\n1,2,3,4\n5,6,7,8\n")
        with pytest.raises(D.DataError, match="2/2 rows rejected"):
            D.load_csv(path, SCHEMA)


def per_row_load(path, schema):
    """Reference parse: every cell through ``float``, one row at a time."""
    import csv
    import math

    inputs, targets, dropped = [], [], 0
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        cols = [header.index(c) for c in schema.features] + [header.index(schema.target)]
        for record in reader:
            if not record:
                continue
            try:
                if len(record) != len(header):
                    raise ValueError("width")
                values = [float(record[i]) for i in cols]
                if not all(math.isfinite(v) for v in values):
                    raise ValueError("non-finite")
                if schema.task == "binary" and values[-1] not in (0.0, 1.0):
                    raise ValueError("label")
            except ValueError:
                dropped += 1
                continue
            inputs.append(values[:-1])
            targets.append(values[-1])
    return np.array(inputs), np.array(targets), dropped


CHUNK = D._CHUNK_ROWS
BINARY = D.parse_schema("target=y\nfeatures=a,b\ntask=binary\n")
BAD_LINES = {
    "text": "abc,1,0", "empty": "1,,0", "inf": "1,2,inf", "overflow": "1e400,2,1",
    "short-row": "1,2", "long-row": "1,2,3,4", "label-2": "1,2,2",
}


class TestChunkedLoad:
    """Bad rows at chunk edges reject exactly themselves, as a per-row parse does."""

    N_ROWS = 2 * CHUNK + 37  # two full chunks, then a short one

    def table(self, bad_row, bad_line):
        rng = np.random.default_rng(bad_row)
        lines = ["a,b,y"]
        for i in range(self.N_ROWS):
            if i == bad_row:
                lines.append(bad_line)
            else:
                a, b = rng.standard_normal(2).tolist()
                lines.append(f"{a!r},{b:.6f},{i % 2}")
        return "\n".join(lines) + "\n"

    @pytest.mark.parametrize(
        "bad_row", [CHUNK - 1, CHUNK, N_ROWS - 1], ids=["chunk-end", "chunk-start", "last-row"]
    )
    @pytest.mark.parametrize(
        "bad_line, schema",
        [(line, BINARY if kind == "label-2" else SCHEMA) for kind, line in BAD_LINES.items()],
        ids=list(BAD_LINES),
    )
    def test_bad_row_at_chunk_edge(self, tmp_path, bad_row, bad_line, schema):
        path = write(tmp_path, self.table(bad_row, bad_line))
        ds = D.load_csv(path, schema)
        inputs, targets, dropped = per_row_load(path, schema)
        assert ds.dropped_rows == dropped == 1
        assert ds.num_rows == self.N_ROWS - 1
        assert np.array_equal(ds.inputs, inputs)
        assert np.array_equal(ds.targets, targets)

    def test_chunk_of_unusable_rows_and_blank_lines(self, tmp_path):
        lines = ["a,b,y"] + ["1,2"] * CHUNK + [""] * 10 + ["3,4,5"] * 50
        path = write(tmp_path, "\n".join(lines) + "\n")
        ds = D.load_csv(path, SCHEMA, max_bad_fraction=1.0)
        assert ds.dropped_rows == CHUNK and ds.num_rows == 50
        assert np.array_equal(ds.targets, np.full(50, 5.0))

    def test_quoted_field_with_comma(self, tmp_path):
        path = write(tmp_path, 'a,name,b,y\n1,"x, y",2,3\n"4","p, q","5.5",6\n')
        ds = D.load_csv(path, SCHEMA)
        assert ds.dropped_rows == 0
        assert np.array_equal(ds.inputs, [[1, 2], [4, 5.5]])
        assert np.array_equal(ds.targets, [3, 6])


class TestParsePath:
    """Clean files take the one-call C parse; files it could misread, the chunks."""

    @pytest.fixture
    def chunk_calls(self, monkeypatch):
        calls = []
        parse_rows = D._parse_rows

        def counting(cells, ncols, binary):
            calls.append(len(cells))
            return parse_rows(cells, ncols, binary)

        monkeypatch.setattr(D, "_parse_rows", counting)
        return calls

    @pytest.mark.parametrize(
        "rows, schema",
        [
            ("1,2,3\n4,5,6\n", SCHEMA),
            ("1,2,3\r\n4,5,6\r\n", SCHEMA),
            ("1,2,3\r4,5,6\r", SCHEMA),
            ("1,2,3\n\n4,5,6\n\n", SCHEMA),
            ('"1","2","3"\n4," 5 ",6\n', SCHEMA),
            (" 1 ,2\t, 3\n4,5,6", SCHEMA),
            ("nan,2,3\n4,inf,6\n7,8,-Infinity\n1e400,1,1\n1,2,1\n", SCHEMA),
            ("1,2,2\n1,2,0.5\n1,2,1\n3,4,0\n", BINARY),
        ],
        ids=["lf", "crlf", "cr", "blank-lines", "quoted", "padded", "non-finite", "labels"],
    )
    def test_clean_file_never_enters_the_chunks(self, tmp_path, chunk_calls, rows, schema):
        path = write(tmp_path, "a,b,y\n" + rows)
        ds = D.load_csv(path, schema, max_bad_fraction=1.0)
        inputs, targets, dropped = per_row_load(path, schema)
        assert chunk_calls == []
        assert ds.dropped_rows == dropped
        assert np.array_equal(ds.inputs, inputs) and np.array_equal(ds.targets, targets)

    @pytest.mark.parametrize(
        "bad_line",
        [
            BAD_LINES["text"], BAD_LINES["empty"], BAD_LINES["short-row"], BAD_LINES["long-row"],
            "   ", "1,2,3,", "1_0,2,3", "0x10,2,3", "2#x,2,3", "１,2,3", '1,"2,3"',
        ],
        ids=[
            "text", "empty", "short-row", "long-row", "whitespace-line", "trailing-comma",
            "underscore", "hex", "hash", "fullwidth-digit", "quoted-comma",
        ],
    )
    def test_dirty_file_is_re_read_in_chunks(self, tmp_path, chunk_calls, bad_line):
        path = write(tmp_path, f"a,b,y\n1,2,3\n{bad_line}\n4,5,6\n")
        ds = D.load_csv(path, SCHEMA, max_bad_fraction=1.0)
        inputs, targets, dropped = per_row_load(path, SCHEMA)
        assert chunk_calls != []
        assert ds.dropped_rows == dropped
        assert np.array_equal(ds.inputs, inputs) and np.array_equal(ds.targets, targets)

    def test_text_column_the_schema_does_not_use_goes_to_the_chunks(self, tmp_path, chunk_calls):
        path = write(tmp_path, "name,a,b,y\nfirst,1,2,3\n")
        ds = D.load_csv(path, SCHEMA)
        assert chunk_calls == [1]
        assert np.array_equal(ds.inputs, [[1, 2]]) and np.array_equal(ds.targets, [3])


_VALUES = st.one_of(
    st.floats(),
    st.floats(min_value=-2.3e-308, max_value=2.3e-308),  # subnormals and signed zeros
    st.sampled_from([-0.0, 0.1 + 0.2, 1 / 3, 1.7976931348623157e308, 5e-324, 1e22, 1e-300]),
)


@st.composite
def csv_tables(draw):
    """A file, its schema, and its lines: shuffled columns, quoting, line ends, bad rows."""
    binary = draw(st.booleans())
    schema = BINARY if binary else SCHEMA
    extras = [f"e{i}" for i in range(draw(st.integers(0, 2)))]
    header = draw(st.permutations(["a", "b", "y", *extras]))
    style = draw(st.sampled_from(["repr", "%.10g"]))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    lines = [",".join(header)]
    for _ in range(draw(st.integers(1, 12))):
        if draw(st.integers(0, 5)) == 0:
            lines.append("")
            continue
        cells = {}
        for name in header:
            if name == "y" and binary and draw(st.integers(0, 4)):
                value = float(draw(st.integers(0, 1)))
            else:
                value = draw(_VALUES)
            cells[name] = repr(value) if style == "repr" else f"{value:.10g}"
            if draw(st.integers(0, 3)) == 0:
                cells[name] = f'"{cells[name]}"'
        row = [cells[name] for name in header]
        bad = draw(st.sampled_from([None] * 20 + sorted(BAD_LINES)))
        if bad in ("text", "empty", "inf", "overflow"):
            row[header.index(draw(st.sampled_from(["a", "b", "y"])))] = {
                "text": "abc", "empty": "", "inf": "inf", "overflow": "1e400",
            }[bad]
        elif bad == "short-row":
            row.pop()
        elif bad == "long-row":
            row.append("4")
        elif bad == "label-2":
            row[header.index("y")] = "2"
        lines.append(",".join(row))
    return newline.join(lines) + newline, schema


@given(table=csv_tables())
@settings(max_examples=150, deadline=None)
def test_load_equals_the_per_row_reference(tmp_path_factory, table):
    text, schema = table
    path = tmp_path_factory.mktemp("prop") / "table.csv"
    path.write_bytes(text.encode("utf-8"))
    inputs, targets, dropped = per_row_load(path, schema)
    if targets.size == 0:
        with pytest.raises(D.DataError):
            D.load_csv(path, schema, max_bad_fraction=1.0)
        return
    ds = D.load_csv(path, schema, max_bad_fraction=1.0)
    assert ds.dropped_rows == dropped
    assert ds.inputs.tobytes() == inputs.tobytes()
    assert ds.targets.tobytes() == targets.tobytes()


def make_dataset(n=40, seed=0):
    rng = np.random.default_rng(seed)
    return D.Dataset(
        inputs=rng.standard_normal((n, 3)) * np.array([2.0, 0.5, 7.0]) + 1.0,
        targets=rng.standard_normal(n) * 3.0 + 5.0,
        task="regression",
    )


class TestSplit:
    def test_sizes_and_determinism(self):
        ds = make_dataset(10)
        train1, test1 = D.split(ds, 0.2, seed=3)
        train2, test2 = D.split(ds, 0.2, seed=3)
        assert test1.num_rows == 2 and train1.num_rows == 8
        assert np.array_equal(test1.inputs, test2.inputs)
        assert np.array_equal(train1.targets, train2.targets)

    def test_distinct_seeds_differ(self):
        ds = make_dataset(60)
        tests = [set(map(tuple, D.split(ds, 0.2, seed=s)[1].inputs)) for s in (1, 2, 3)]
        assert tests[0] != tests[1] and tests[1] != tests[2] and tests[0] != tests[2]

    def test_disjoint_and_exhaustive(self):
        ds = make_dataset(31)
        train, test = D.split(ds, 0.25, seed=0)
        all_rows = np.vstack([train.inputs, test.inputs])
        assert all_rows.shape[0] == 31
        assert len(set(map(tuple, all_rows))) == 31

    def test_scalers_fit_on_train_only(self):
        ds = make_dataset(200)
        train, test = D.split(ds, 0.2, seed=0)
        std_train = train.standardized_inputs()
        assert np.max(np.abs(std_train.mean(axis=0))) <= 1e-9
        assert np.max(np.abs(std_train.std(axis=0) - 1.0)) <= 1e-9
        # test side uses the same transform, so its moments are off-center
        std_test = test.standardized_inputs()
        assert np.max(np.abs(std_test.mean(axis=0))) > 1e-9

    def test_target_round_trip(self):
        ds = make_dataset(50)
        train, _ = D.split(ds, 0.2, seed=0)
        y = train.targets
        scaler = train.target_scaler
        back = train.standardized_targets() * scaler.std + scaler.mean
        assert np.max(np.abs(back - y)) <= 1e-12

    def test_empty_split_rejected(self):
        ds = make_dataset(3)
        with pytest.raises(D.DataError):
            D.split(ds, 0.05, seed=0)
        with pytest.raises(D.DataError):
            D.split(ds, 1.5, seed=0)


class TestProjection:
    def test_zero_row_becomes_pole(self):
        batch = D.project_to_sphere(np.zeros((1, 3)), bias=1.0)
        assert np.array_equal(batch.coords[0], [0, 0, 0, 1])

    def test_unit_norm_rows(self):
        rng = np.random.default_rng(0)
        batch = D.project_to_sphere(rng.standard_normal((50, 4)), bias=1.0)
        assert np.max(np.abs(np.linalg.norm(batch.coords, axis=1) - 1.0)) <= 1e-12

    def test_double_projection_guard(self):
        batch = D.project_to_sphere(np.ones((2, 3)), bias=1.0)
        with pytest.raises(TypeError):
            D.project_to_sphere(batch, bias=1.0)

    def test_reprojection_is_not_identity(self):
        rng = np.random.default_rng(1)
        batch = D.project_to_sphere(rng.standard_normal((5, 3)), bias=1.0)
        again = D.project_to_sphere(batch.coords, bias=1.0)
        assert not np.allclose(again.coords[:, :4], batch.coords)

    def test_invalid_bias(self):
        with pytest.raises(ValueError):
            D.project_to_sphere(np.ones((1, 2)), bias=0.0)


class TestMinibatches:
    def test_block_sizes(self):
        blocks = list(D.minibatches(5, 2, epoch_seed=0))
        assert [len(b) for b in blocks] == [2, 2, 1]

    def test_epoch_is_permutation(self):
        blocks = list(D.minibatches(23, 4, epoch_seed=1))
        flat = np.sort(np.concatenate(blocks))
        assert np.array_equal(flat, np.arange(23))

    def test_epoch_seeds_reshuffle(self):
        a = np.concatenate(list(D.minibatches(40, 8, epoch_seed=1)))
        b = np.concatenate(list(D.minibatches(40, 8, epoch_seed=2)))
        assert not np.array_equal(a, b)
        assert np.array_equal(np.sort(a), np.sort(b))

    @given(n=st.integers(1, 200), batch=st.integers(1, 50), seed=st.integers(0, 5))
    @settings(max_examples=50, deadline=None)
    def test_every_index_exactly_once(self, n, batch, seed):
        flat = np.concatenate(list(D.minibatches(n, batch, epoch_seed=seed)))
        assert np.array_equal(np.sort(flat), np.arange(n))

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            list(D.minibatches(5, 0, epoch_seed=0))
