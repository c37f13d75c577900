import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xorland.instances import ParseError, Report, Table, export_cnf, read_instance, write_instance
from xorland.landscape import Instance, energy_table
from xorland.oracles import parse_dimacs, violated_clause_count
from xorland.rng import RngSpec

DATA = Path(__file__).parent / "data"

# strings that stress the writer: quotes, backslashes, raw newlines and other
# control characters, non-ASCII text, and the separators it splits at
_TEXT = st.text(st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é", "€", "😀",
                                 "a", " ", ",", ":", "{", "}", "[", "]"]), max_size=8) | st.text(max_size=8)
_SCALAR = (st.none() | st.booleans() | st.integers() | st.floats() | _TEXT
           | st.sampled_from([-0.0, float("nan"), float("inf"), float("-inf")]))
_VALUE = st.recursive(
    _SCALAR,
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=16,
)
# records as the commands write them: flat rows with varying key sets, and
# lists that also hold empty rows and rows that hold a list
_RECORDS = st.lists(st.dictionaries(_TEXT, _SCALAR, min_size=1, max_size=4), max_size=6) | st.lists(
    st.dictionaries(_TEXT, _SCALAR | st.lists(_SCALAR, max_size=3), max_size=4), max_size=6)
# Table columns: none, one or several, of zero or more rows, each column mixing types
_COLUMNS = st.integers(0, 6).flatmap(lambda rows: st.dictionaries(
    _TEXT, st.lists(_SCALAR, min_size=rows, max_size=rows), max_size=4))


class TestInstanceFiles:
    def test_worked_example_file_content(self, eq1_instance, tmp_path):
        path = tmp_path / "eq1.xnf"
        write_instance(eq1_instance, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "x 3 4"
        assert lines[1:] == ["2 3 4", "1 3 4", "1 2 4", "1 2 3"]

    def test_round_trip(self, eq1_instance, tmp_path):
        path = tmp_path / "eq1.xnf"
        write_instance(eq1_instance, path)
        back = read_instance(path)
        assert back.matrix == eq1_instance.matrix
        assert back.k == eq1_instance.k

    def test_round_trip_preserves_rng_provenance(self, tmp_path):
        inst = Instance.random(3, 12, RngSpec(55, stream=3))
        path = tmp_path / "r.xnf"
        write_instance(inst, path)
        back = read_instance(path)
        assert back.matrix == inst.matrix
        assert back.provenance == RngSpec(55, stream=3)

    def test_round_trip_preserves_src_provenance(self, eq1_instance, tmp_path):
        first, second = tmp_path / "a.xnf", tmp_path / "b.xnf"
        write_instance(Instance(eq1_instance.matrix, provenance="worked example (1)"), first)
        back = read_instance(first)
        assert back.provenance == "worked example (1)"
        write_instance(back, second)
        assert second.read_text() == first.read_text()
        assert first.read_text().splitlines()[1] == "c src worked example (1)"

    def test_repeated_index_names_line(self, tmp_path):
        path = tmp_path / "bad.xnf"
        path.write_text("x 3 4\n2 3 4\n1 3 3\n1 2 4\n1 2 3\n")
        with pytest.raises(ParseError) as err:
            read_instance(path)
        assert err.value.line == 3

    def test_regularity_violation(self, tmp_path):
        path = tmp_path / "bad.xnf"
        # column 1 appears 4 times, column 4 twice
        eqs = "1 2 3\n1 2 4\n1 2 3\n1 3 4\n"
        # the error names the header's line, also after leading blank lines
        for lead, line in (("", 1), ("\n \n", 3)):
            path.write_text(f"{lead}x 3 4\n{eqs}")
            with pytest.raises(ParseError) as err:
                read_instance(path)
            assert str(err.value) == f"line {line}: column 1 appears in 4 equations, expected 3"
            assert err.value.line == line

    def test_wrong_equation_count(self, tmp_path):
        path = tmp_path / "bad.xnf"
        path.write_text("x 3 4\n2 3 4\n1 3 4\n")
        with pytest.raises(ParseError):
            read_instance(path)

    def test_descending_indices_rejected(self, tmp_path):
        path = tmp_path / "bad.xnf"
        path.write_text("x 3 4\n4 3 2\n1 3 4\n1 2 4\n1 2 3\n")
        with pytest.raises(ParseError) as err:
            read_instance(path)
        assert err.value.line == 2

    def test_undecodable_byte_names_line(self, tmp_path):
        path = tmp_path / "bad.xnf"
        path.write_bytes(b"x 3 4\n2 3 4\n1 3 4\n1 2 \xff4\n1 2 3\n")
        with pytest.raises(ParseError, match="can't decode byte 0xff") as err:
            read_instance(path)
        assert err.value.line == 4

    @pytest.mark.parametrize("line", ["c rng philox4x64 abc 0", "c rng mt19937 1 0",
                                      "c rng philox4x64 -1 0", f"c rng philox4x64 0 {1 << 64}"])
    def test_bad_rng_line_names_line(self, line, tmp_path):
        path = tmp_path / "bad.xnf"
        path.write_text(f"x 3 4\n{line}\n2 3 4\n1 3 4\n1 2 4\n1 2 3\n")
        with pytest.raises(ParseError, match="rng") as err:
            read_instance(path)
        assert err.value.line == 2


_EQS = ["2 3 4", "1 3 4", "1 2 4", "1 2 3"]
_NUM = st.sampled_from(["-1", "0", "1", "2", "3", "4", "5", "07", "1.5", "abc", "9" * 20])
_LINE = st.lists(_NUM | st.sampled_from(["x", "c", "rng", "src", "\t"]), max_size=6).map(" ".join)
_RNG = st.tuples(st.sampled_from(["philox4x64", "mt19937"]), _NUM, _NUM).map(
    lambda t: "c rng " + " ".join(t))
_FILES = st.one_of(
    st.lists(_LINE, max_size=8),  # token soup
    st.tuples(st.sampled_from(["x 3 4", "x 3 5", "x 4 4"]) | _LINE,
              st.lists(st.sampled_from([*_EQS, "c src eq1"]) | _RNG | _LINE, max_size=8)
              ).map(lambda t: [t[0], *t[1]]),  # a header, then valid and broken lines
    st.tuples(st.permutations(_EQS), st.lists(_RNG, max_size=2)
              ).map(lambda t: ["x 3 4", *t[1], *t[0]]),  # valid rows, any rng lines
).map("\n".join)


class TestReadInstanceFuzz:
    @given(_FILES)
    @settings(max_examples=300, deadline=None)
    def test_round_trips_or_parse_error(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            src, copy = Path(tmp) / "in.xnf", Path(tmp) / "out.xnf"
            src.write_text(text)
            try:
                inst = read_instance(src)
            except ParseError:
                return
            write_instance(inst, copy)
            assert read_instance(copy) == inst


class TestCnfExport:
    def test_clause_set_for_k3(self, eq1_instance, tmp_path):
        path = tmp_path / "eq1.cnf"
        export_cnf(eq1_instance, path)
        n_vars, clauses = parse_dimacs(path)
        assert n_vars == 4
        assert len(clauses) == 4 * 4  # n * 2^(k-1)
        # last equation is over variables 1,2,3: exactly the four
        # odd-parity-forbidding clauses
        last = {tuple(sorted(c, key=abs)) for c in clauses[12:]}
        assert last == {
            (-1, 2, 3),
            (1, -2, 3),
            (1, 2, -3),
            (-1, -2, -3),
        }

    def test_energy_identity_exhaustive(self, tmp_path):
        for idx, (k, n) in enumerate([(3, 8), (4, 8), (3, 10)]):
            inst = Instance.random(k, n, RngSpec(77).with_stream(idx))
            path = tmp_path / f"i{idx}.cnf"
            export_cnf(inst, path)
            _, clauses = parse_dimacs(path)
            table = energy_table(inst)
            for s in range(1 << n):
                assert violated_clause_count(clauses, s) == int(table[s])

    def test_clause_count_header(self, tmp_path):
        inst = Instance.random(4, 8, RngSpec(79))
        path = tmp_path / "i.cnf"
        export_cnf(inst, path)
        header = path.read_text().splitlines()[0]
        assert header == "p cnf 8 64"


class TestReport:
    def test_json_round_trip_fields(self, tmp_path):
        report = Report(
            experiment="demo",
            parameters={"k": 3, "n": 10},
            rng=RngSpec(1, stream=2),
            records=[{"state": "01", "value": 1}],
            summary={"total": 1},
        )
        path = tmp_path / "r.json"
        report.write_json(path)
        data = json.loads(path.read_text())
        assert data["format_version"] == 1
        assert data["rng"] == {"algorithm": "philox4x64", "seed": 1, "stream": 2}
        assert data["records"][0]["state"] == "01"

    @pytest.mark.parametrize("golden", sorted(DATA.glob("*.json")), ids=lambda p: p.stem)
    def test_golden_rewritten_byte_for_byte(self, golden):
        text = golden.read_text()
        data = json.loads(text)
        rng = RngSpec(**data["rng"]) if data["rng"] else None
        report = Report(data["experiment"], data["parameters"], rng, data["records"], data["summary"])
        assert report.to_json() == text

    @settings(max_examples=200, deadline=None)
    @given(records=_RECORDS, value=_VALUE, params=st.dictionaries(_TEXT, _SCALAR, max_size=4))
    def test_json_matches_indented_dumps(self, records, value, params):
        report = Report("demo", params, None, records=records, summary={"value": value})
        assert report.to_json() == json.dumps(report.to_dict(), indent=2) + "\n"

    @settings(max_examples=200, deadline=None)
    @given(columns=_COLUMNS)
    def test_table_json_matches_indented_dumps(self, columns):
        report = Report("demo", {"k": 3}, None, records=Table(**columns), summary={"rows": 1})
        rows = [dict(zip(columns, row)) for row in zip(*columns.values())]
        assert report.to_dict()["records"] == rows
        assert report.to_json() == json.dumps(report.to_dict(), indent=2) + "\n"

    @settings(max_examples=100, deadline=None)
    @given(columns=_COLUMNS)
    def test_table_csv_is_the_csv_of_its_rows(self, columns):
        table = Table(**columns)
        assert Report("demo", {}, None, records=table).to_csv() == \
            Report("demo", {}, None, records=list(table)).to_csv()

    def test_table_is_a_sequence_of_rows(self):
        table = Table(w=[1, 2, 3], name=["a", "b", "c"])
        rows = [{"w": 1, "name": "a"}, {"w": 2, "name": "b"}, {"w": 3, "name": "c"}]
        assert len(table) == 3 and list(table) == rows
        assert table[-1] == rows[-1] and table[1:] == rows[1:] and table[::-2] == rows[::-2]
        with pytest.raises(IndexError):
            table[3]
        assert len(Table()) == len(Table(w=[])) == 0 and list(Table()) == []

    def test_ragged_table_refused(self):
        with pytest.raises(ValueError, match=r"table columns differ in length: \[1, 2\]"):
            Table(w=[1, 2], name=["a"])

    def test_csv_records(self, tmp_path):
        report = Report("demo", {}, None, records=[{"a": 1, "b": 2}, {"a": 3, "b": 4}])
        path = tmp_path / "r.csv"
        report.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "a,b"
        assert lines[1:] == ["1,2", "3,4"]
