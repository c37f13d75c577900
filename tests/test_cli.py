import argparse
import hashlib
import inspect
import json
import random
import sys
from pathlib import Path

import pytest

from xorland import cli, gf2, landscape
from xorland.cli import main
from xorland.enumerator import kernel_bound_sum, weight_enumerator_table
from xorland.instances import Report, Table, read_instance, write_instance
from xorland.landscape import Instance
from xorland.rng import RngSpec

DATA = Path(__file__).parent / "data"


@pytest.fixture
def eliminations(monkeypatch):
    """The row count of each matrix gf2 eliminates, one entry per elimination."""
    rows, real = [], gf2._reduced_echelon
    monkeypatch.setattr(gf2, "_reduced_echelon",
                        lambda masks, n_rows: rows.append(n_rows) or real(masks, n_rows))
    return rows


@pytest.fixture
def eq1_file(eq1_instance, tmp_path):
    path = tmp_path / "eq1.xnf"
    write_instance(eq1_instance, path)
    return path


class TestGen:
    def test_gen_writes_valid_instance(self, tmp_path):
        out = tmp_path / "g.xnf"
        code = main(["gen", "--k", "3", "--n", "12", "--seed", "5", "--out", str(out)])
        assert code == 0
        inst = read_instance(out)
        assert inst.k == 3 and inst.n == 12
        assert inst.provenance == RngSpec(5)

    def test_gen_deterministic_under_seed(self, tmp_path):
        a, b = tmp_path / "a.xnf", tmp_path / "b.xnf"
        assert main(["gen", "--k", "3", "--n", "10", "--seed", "9", "--out", str(a)]) == 0
        assert main(["gen", "--k", "3", "--n", "10", "--seed", "9", "--out", str(b)]) == 0
        assert a.read_text().replace("a.xnf", "") == b.read_text().replace("b.xnf", "")

    @pytest.mark.parametrize("option,value", [("--seed", "-1"), ("--stream", str(1 << 64))])
    def test_seed_or_stream_outside_64_bits_is_one(self, option, value, tmp_path, capsys):
        out = tmp_path / "g.xnf"
        assert main(["gen", "--k", "3", "--n", "10", option, value, "--out", str(out)]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: seed and stream must be in [0, 2**64)")
        assert not out.exists()

    @pytest.mark.parametrize("k,n,message", [("3", "2", "n must be >= k, got n=2, k=3"),
                                             ("2", "5", "k must be >= 3, got 2")])
    def test_k_or_n_out_of_range_is_one(self, k, n, message, tmp_path, capsys):
        out = tmp_path / "g.xnf"
        assert main(["gen", "--k", k, "--n", n, "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not out.exists()

    def test_huge_k_tries_its_budget_and_is_one(self, tmp_path, capsys):
        # exp((k-1)^2/2) overflows a float from k = 39; the warning must not
        out = tmp_path / "g.xnf"
        assert main(["gen", "--k", "40", "--n", "50", "--max-tries", "5", "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "warning: rejection sampling at k=40 needs ~10^330.3 tries per instance",
            "error: no simple configuration after 5 attempts"]
        assert not out.exists()


class TestKernel:
    def test_kernel_report(self, eq1_file, tmp_path):
        out = tmp_path / "k.json"
        code = main(["kernel", "--in", str(eq1_file), "--json", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["summary"]["rank"] == 4
        assert data["summary"]["kernel_size"] == 1
        assert data["records"][0]["ground_state"] == "0000"

    def test_golden_report_one_elimination(self, eliminations, tmp_path):
        # the basis and the ground states it spans read one stored elimination
        infile, out = DATA / "landscape_k4_n18.xnf", tmp_path / "k.json"
        assert main(["kernel", "--in", str(infile), "--json", str(out)]) == 0
        report = out.read_text().replace(json.dumps(str(infile)), '"<infile>"')
        assert report == (DATA / "kernel_k4_n18.json").read_text()
        assert eliminations == [18]


class TestLandscape:
    def test_worked_example_report(self, eq1_file, tmp_path):
        out = tmp_path / "l.json"
        code = main(["landscape", "--in", str(eq1_file), "--json", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["summary"]["ground_states"] == ["0000"]
        assert data["summary"]["local_minima"] == 4
        states = {rec["state"] for rec in data["records"]}
        assert states == {"1110", "1101", "1011", "0111"}
        assert all(rec["barrier"] == 2 for rec in data["records"])

    def test_csv_output(self, eq1_file, tmp_path):
        out = tmp_path / "l.csv"
        assert main(["landscape", "--in", str(eq1_file), "--csv", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("state,")
        assert len(lines) == 5

    @pytest.mark.parametrize("name", ["landscape_k3_n22", "landscape_k4_n18"])
    def test_golden_no_barriers_report(self, name, tmp_path):
        # recorded from the 2**n table sweep; the row-set enumeration must match it byte for byte
        infile, out = DATA / f"{name}.xnf", tmp_path / "l.json"
        assert main(["landscape", "--in", str(infile), "--no-barriers", "--json", str(out)]) == 0
        report = out.read_text().replace(json.dumps(str(infile)), '"<infile>"')
        assert report == (DATA / f"{name}.json").read_text()

    @pytest.mark.parametrize("source", [
        "x 1 3\n1\n2\n3\n",  # k <= 2: no column takes a violated row
        "x 2 4\n1 2\n1 2\n3 4\n3 4\n",
        ["--k", "3", "--n", "3"],  # generated: three equal rows, so no two rows may join
        ["--k", "4", "--n", "4"],
    ])
    @pytest.mark.parametrize("no_barriers", [[], ["--no-barriers"]])
    def test_no_minima_report(self, source, no_barriers, monkeypatch, tmp_path):
        infile, out = tmp_path / "z.xnf", tmp_path / "l.json"
        if isinstance(source, str):
            infile.write_text(source)
        else:
            assert main(["gen", *source, "--seed", "1", "--out", str(infile)]) == 0

        def refuse(*args, **kwargs):
            raise AssertionError("energy table built")

        monkeypatch.setattr(landscape, "energy_table", refuse)
        assert main(["landscape", "--in", str(infile), *no_barriers, "--json", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["records"] == [] and data["summary"]["local_minima"] == 0
        assert data["summary"]["barriers"] == (None if no_barriers else [])

    def test_scan_report_at_the_cap_pinned(self, tmp_path):
        # the n = 26 benchmark instance, digest recorded from the depth-first row-set search;
        # parameters are left out, since they hold the temporary path
        infile, out = tmp_path / "scan.xnf", tmp_path / "l.json"
        assert main(["gen", "--k", "3", "--n", "26", "--seed", "1000", "--out", str(infile)]) == 0
        assert main(["landscape", "--in", str(infile), "--no-barriers", "--json", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["summary"]["local_minima"] == 8416
        digest = hashlib.sha256(json.dumps([data["records"], data["summary"]]).encode()).hexdigest()
        assert digest == "9fd1f75fe0610858eea1ef1d6eee006be0e7262e8e59758c1231607dfa0ef4e6"

    def test_landscape_report_n17_pinned(self, tmp_path):
        # the first instance of the landscape benchmark, barriers included; digest
        # recorded from the flood that took the frontier one flip at a time
        infile, out = tmp_path / "l.xnf", tmp_path / "l.json"
        assert main(["gen", "--k", "3", "--n", "17", "--seed", "1000", "--out", str(infile)]) == 0
        assert main(["landscape", "--in", str(infile), "--json", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["summary"]["local_minima"] == 246
        digest = hashlib.sha256(json.dumps([data["records"], data["summary"]]).encode()).hexdigest()
        assert digest == "a6f92c0efd0d1d36b2faffb32332854a1fa87b164640e362d611a57639b9f934"

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 26, 63, 64])
    def test_strings_match_to01(self, n):
        rng = random.Random(n)
        bits = [0, (1 << n) - 1, *(rng.getrandbits(n) for _ in range(50))]
        assert cli._to01s(bits, n) == [gf2.BitVector(n, b).to01() for b in bits]
        assert cli._to01s([], n) == []

    def test_above_exhaustive_cap_is_one(self, shifted_instance, tmp_path, capsys):
        infile = tmp_path / "n27.xnf"
        write_instance(shifted_instance(3, 27, 1), infile)
        assert main(["landscape", "--in", str(infile)]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: n=27 exceeds the exhaustive cap 26") and "640 MiB" in line

    def test_cap_option_is_gone(self, eq1_file):
        for command in ("landscape", "kernel"):
            with pytest.raises(SystemExit) as exc:
                main([command, "--in", str(eq1_file), "--cap", "40"])
            assert exc.value.code == 2

    @pytest.mark.parametrize("name", ["landscape_k3_n22", "landscape_k4_n18"])
    def test_golden_barrier_report(self, name, eliminations, tmp_path):
        # recorded while barriers_to_ground still enumerated the kernel to enforce a cap;
        # the ground states and the minima's lifts read one stored elimination
        infile, out = DATA / f"{name}.xnf", tmp_path / "l.json"
        assert main(["landscape", "--in", str(infile), "--json", str(out)]) == 0
        report = out.read_text().replace(json.dumps(str(infile)), '"<infile>"')
        assert report == (DATA / f"{name}_barriers.json").read_text()
        assert eliminations == [read_instance(infile).n]

    @pytest.mark.parametrize("name", ["landscape_k3_n22", "landscape_k4_n18"])
    def test_benchmark_hook_points(self, name, monkeypatch, tmp_path):
        # the benchmark's tracer wraps these two module attributes as the command
        # calls them, counts len() of their arguments and results and reads each
        # result's .height; the report reads only their arrays
        infile, out = DATA / f"{name}.xnf", tmp_path / "l.json"
        calls = []
        for attr in ("enumerate_local_minima", "barriers_to_ground"):
            real = getattr(landscape, attr)
            monkeypatch.setattr(landscape, attr, lambda *args, attr=attr, real=real:
                                calls.append((attr, args, real(*args))) or calls[-1][2])
        assert main(["landscape", "--in", str(infile), "--json", str(out)]) == 0
        data = json.loads(out.read_text())
        (first, _, minima), (second, (_, states), results) = calls
        assert (first, second) == ("enumerate_local_minima", "barriers_to_ground")
        assert len(minima) == len(states) == len(results) == data["summary"]["local_minima"]
        assert max(r.height for r in results) == max(r["height"] for r in data["records"])

        def refuse(self, i):
            raise AssertionError("item built")

        monkeypatch.setattr(landscape.StateArray, "_item", refuse)
        for flags, golden in (([], f"{name}_barriers.json"), (["--no-barriers"], f"{name}.json")):
            calls.clear()
            assert main(["landscape", "--in", str(infile), *flags, "--json", str(out)]) == 0
            report = out.read_text().replace(json.dumps(str(infile)), '"<infile>"')
            assert report == (DATA / golden).read_text()
            assert [c[0] for c in calls] == ["enumerate_local_minima", "barriers_to_ground"][: 2 - len(flags)]
        assert len(calls[0][2]) == data["summary"]["local_minima"]

    @pytest.mark.parametrize("flags", [[], ["--no-barriers"]])
    def test_json_writer_builds_no_rows(self, flags, monkeypatch, tmp_path):
        # the records stay columns down to the JSON text: only the 16 records
        # the command prints are built as dicts, by indexing or iteration
        infile, out = DATA / "landscape_k3_n22.xnf", tmp_path / "l.json"
        built, written = [], []
        row, rows, to_json = Table._row, Table.__iter__, Report.to_json
        monkeypatch.setattr(Table, "_row", lambda self, i: built.append(i) or row(self, i))
        monkeypatch.setattr(Table, "__iter__", lambda self: (built.append(r) or r for r in rows(self)))
        monkeypatch.setattr(Report, "to_json", lambda self: written.append(self) or to_json(self))
        assert main(["landscape", "--in", str(infile), *flags, "--json", str(out)]) == 0
        (report,) = written
        assert isinstance(report.records, Table)
        assert len(report.records) == json.loads(out.read_text())["summary"]["local_minima"] > 16
        assert len(built) == 16


class TestExpand:
    def test_holds_exit_zero(self, eq1_file):
        assert main(["expand", "--in", str(eq1_file), "--omega", "2", "--eta", "1"]) == 0

    def test_violation_exit_one(self, eq1_file):
        assert main(["expand", "--in", str(eq1_file), "--omega", "2", "--eta", "1.6"]) == 1

    def test_sampled_mode(self, eq1_file, tmp_path):
        out = tmp_path / "e.json"
        code = main(["expand", "--in", str(eq1_file), "--omega", "2", "--eta", "1",
                     "--mode", "sampled", "--budget", "20", "--json", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["summary"]["mode"] == "sampled"
        assert "not falsified" in data["summary"]["note"]

    def test_proven_violation_past_budget_reported(self, tmp_path):
        # the lexicographic walk needs 203 sets; the connected phase proves the
        # violation after 10, so a budget of 100 still gives a verdict
        infile, out = tmp_path / "n30.xnf", tmp_path / "e.json"
        write_instance(Instance.random(3, 30, RngSpec(1)), infile)
        assert main(["expand", "--in", str(infile), "--omega", "3", "--eta", "5/3",
                     "--budget", "100", "--json", str(out)]) == 1
        data = json.loads(out.read_text())
        assert data["summary"]["holds"] is False and data["summary"]["subsets_checked"] == 10
        assert data["summary"]["note"].endswith("not the lexicographic first")
        assert data["records"] == [{"witness_cols": [0, 8, 27], "boundary": 3, "required": 5}]

    @pytest.mark.parametrize("mode,budget", [("sampled", "0"), ("exact", "-1")])
    def test_budget_below_one_is_one(self, eq1_file, mode, budget, capsys):
        assert main(["expand", "--in", str(eq1_file), "--omega", "2", "--eta", "1",
                     "--mode", mode, "--budget", budget]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: budget must be >= 1, got {budget}"]

    @pytest.mark.parametrize("name,source,omega,eta,code", [
        ("expand_k3_n22_holds", "landscape_k3_n22", "4", "0.25", 0),
        ("expand_k3_n22_violated", "landscape_k3_n22", "4", "0.5", 1),
        ("expand_k4_n18_violated", "landscape_k4_n18", "4", "1", 1),
    ])
    def test_golden_exact_report(self, name, source, omega, eta, code, tmp_path):
        # subsets_checked and the witness pin the order of the exact subset walk
        infile, out = DATA / f"{source}.xnf", tmp_path / "e.json"
        assert main(["expand", "--in", str(infile), "--omega", omega, "--eta", eta,
                     "--mode", "exact", "--json", str(out)]) == code
        report = out.read_text().replace(json.dumps(str(infile)), '"<infile>"')
        assert report == (DATA / f"{name}.json").read_text()


class TestCoeffs:
    def test_s_table_exact_and_decimal(self, tmp_path):
        out = tmp_path / "s.csv"
        code = main(["coeffs", "--k", "3", "--n", "100", "--table", "S", "--csv", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "n,S_exact,S_decimal,region,partial_decimal"
        first = lines[1].split(",")
        assert first[0] == "100" and "/" in first[1]
        assert abs(float(first[2]) - 2.0577) < 1e-3

    def test_b_table(self, tmp_path):
        out = tmp_path / "b.json"
        assert main(["coeffs", "--k", "3", "--n", "4", "--table", "B", "--json", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["records"][2] == {"w": 2, "B": "108"}

    def test_bounds_table_dominates(self, tmp_path):
        out = tmp_path / "bd.json"
        assert main(["coeffs", "--k", "3", "--n", "30", "--table", "bounds",
                     "--json", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["summary"]["dominated"] is True

    @pytest.mark.parametrize("table", ["B", "S", "bounds"])
    def test_delta_rejected_outside_u_table(self, table, capsys):
        assert main(["coeffs", "--k", "3", "--n", "10", "--table", table, "--delta", "0.3"]) == 2
        assert capsys.readouterr().err.splitlines() == ["error: --delta applies only to --table U"]

    @pytest.mark.parametrize("k", [1, 2])
    def test_s_table_k_below_three_is_one(self, k, capsys):
        # S_k(n) has no finite limit below k = 3 (S_2 grows like sqrt(n)), so no
        # report claims one
        assert main(["coeffs", "--k", str(k), "--n", "50", "--table", "S"]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: k must be >= 3, got {k}"]

    def test_s_table_n_below_k_is_one(self, capsys):
        # the k/n precondition of gen and walk, in the same words
        assert main(["coeffs", "--k", "3", "--n", "2", "--table", "S"]) == 1
        assert capsys.readouterr().err.splitlines() == ["error: n must be >= k, got n=2, k=3"]

    def test_u_table_default_delta(self, tmp_path):
        out = tmp_path / "u.json"
        assert main(["coeffs", "--k", "3", "--n", "10", "--table", "U", "--json", str(out)]) == 0
        assert json.loads(out.read_text())["summary"] == {"delta": "0.5"}

    @pytest.mark.parametrize("k", [3, 4])
    @pytest.mark.parametrize("table", ["S", "B", "bounds"])
    def test_golden_report(self, k, table, tmp_path):
        # recorded with the repeated-squaring engine and per-term binomials
        out = tmp_path / "c.json"
        assert main(["coeffs", "--k", str(k), "--n", "30", "--table", table, "--json", str(out)]) == 0
        assert out.read_text() == (DATA / f"coeffs_{table}_k{k}_n30.json").read_text()

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                        reason="this Python has no int-to-str digit limit")
    @pytest.mark.parametrize("table,n", [("S", 800), ("B", 1500)])
    def test_exact_values_beyond_digit_limit(self, table, n, tmp_path):
        # S_3(800) has a 879-digit numerator and B_3(1500, w) reaches 902 digits
        if table == "S":
            total = kernel_bound_sum(3, n).total
            expected = [f"{total.numerator}/{total.denominator}"]
        else:
            expected = [str(b) for b in weight_enumerator_table(3, n)]
        assert max(len(x) for x in expected) > 640
        out = tmp_path / "c.json"
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            code = main(["coeffs", "--k", "3", "--n", str(n), "--table", table, "--json", str(out)])
            assert sys.get_int_max_str_digits() == 640
        finally:
            sys.set_int_max_str_digits(limit)
        assert code == 0
        records = json.loads(out.read_text())["records"]
        key = "S_exact" if table == "S" else "B"
        assert [r[key] for r in records if key in r] == expected


class TestWalkAndMinima:
    def test_walk_single_instance(self, eq1_file, tmp_path):
        out = tmp_path / "w.json"
        code = main(["walk", "--in", str(eq1_file), "--trials", "2", "--cap", "100000",
                     "--seed", "3", "--json", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["summary"]["success_fraction"] == 1.0

    def test_walk_experiment(self, tmp_path):
        out = tmp_path / "we.json"
        code = main(["walk", "--experiment", "--k", "3", "--n-list", "8,10",
                     "--trials", "2", "--cap", "100000", "--seed", "4", "--json", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert [rec["n"] for rec in data["records"]] == [8, 10]

    @pytest.mark.parametrize("name,argv", [
        ("walk_experiment_k4", ["--experiment", "--k", "4", "--n-list", "14,16,18",
                                "--trials", "4", "--cap", "3000"]),
        ("walk_k3_n22", ["--in", str(DATA / "landscape_k3_n22.xnf"),
                         "--trials", "8", "--cap", "20000"]),
    ])
    def test_golden_walk_report(self, name, argv, tmp_path):
        # recorded with the list-per-step walk; fixed-seed walks must match it byte for byte
        out = tmp_path / "w.json"
        assert main(["walk", *argv, "--seed", "7", "--json", str(out)]) == 0
        infile = json.dumps(str(DATA / "landscape_k3_n22.xnf"))
        report = out.read_text().replace(infile, '"<infile>"')
        assert report == (DATA / f"{name}.json").read_text()

    def test_walk_modes_exclusive(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["walk", "--in", str(tmp_path / "missing.xnf"), "--experiment",
                  "--k", "3", "--n-list", "8", "--trials", "1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert sum("error:" in line for line in err.splitlines()) == 1
        assert "not allowed with argument" in err
        with pytest.raises(SystemExit) as exc:
            main(["walk", "--trials", "1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("extra,named", [
        (["--k", "5"], "--k"),
        (["--n-list", "99", "--max-tries", "1"], "--n-list, --max-tries"),
    ])
    def test_walk_experiment_options_rejected_with_in(self, extra, named, eq1_file, capsys):
        assert main(["walk", "--in", str(eq1_file), "--trials", "1", *extra]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {named} apply only to walk --experiment"]

    def test_walk_experiment_oversized_n_is_one(self, capsys):
        assert main(["walk", "--experiment", "--k", "3", "--n-list", "10,70",
                     "--trials", "1", "--cap", "10"]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ") and "64-bit" in line

    @pytest.mark.parametrize("extra,message", [
        (["--n-list", ""], "n_list must name at least one n"),
        (["--n-list", "12", "--cap", "0"], "cap must be >= 1"),
        (["--n-list", ",".join(["12"] * 1002)], "too many n values for the stream layout"),
        (["--n-list", "12", "--stream", str((1 << 64) // 2_000_003)],
         "stream too large for the stream layout"),  # its window of derived streams passes 2**64
        (["--n-list", "18,2", "--trials", "3"], "n must be >= k, got n=2, k=6"),
        (["--k", "2", "--n-list", "12"], "k must be >= 3, got 2"),
    ], ids=["empty-n-list", "cap-0", "1002-n-values", "top-stream", "second-n-below-k", "k-2"])
    def test_walk_experiment_checks_before_sampling(self, extra, message, monkeypatch, capsys):
        from xorland import ensemble

        def refuse(*args, **kwargs):
            raise AssertionError("an instance was sampled before the arguments were checked")

        monkeypatch.setattr(ensemble, "sample_k_regular", refuse)
        assert main(["walk", "--experiment", "--k", "6", "--trials", "1", *extra]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]

    def test_walk_experiment_huge_k_needs_max_tries(self, capsys):
        assert main(["walk", "--experiment", "--k", "40", "--n-list", "50"]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: k=40:") and "--max-tries" in line

    def test_walk_zero_trials_is_one(self, eq1_file, capsys):
        assert main(["walk", "--in", str(eq1_file), "--trials", "0"]) == 1
        assert capsys.readouterr().err.splitlines() == ["error: trials must be >= 1"]

    def test_walk_zero_cap_is_one_before_reading(self, tmp_path, capsys):
        missing = tmp_path / "missing.xnf"  # reading it would fail with another message
        assert main(["walk", "--in", str(missing), "--trials", "1", "--cap", "0"]) == 1
        assert capsys.readouterr().err.splitlines() == ["error: --cap must be >= 1"]

    def test_walk_top_stream_is_one_before_reading(self, tmp_path, capsys):
        missing = tmp_path / "missing.xnf"  # reading it would fail with another message
        top = str((1 << 64) - 3)  # trial 2 would draw from stream 2**64
        assert main(["walk", "--in", str(missing), "--trials", "3", "--stream", top]) == 1
        assert capsys.readouterr().err.splitlines() == ["error: stream too large for the stream layout"]

    def test_walk_oversized_n_is_one(self, tmp_path, capsys):
        infile = tmp_path / "n70.xnf"
        write_instance(Instance.random(3, 70, RngSpec(1)), infile)
        assert main(["walk", "--in", str(infile), "--trials", "1", "--cap", "10"]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ") and "64-bit" in line

    def test_minima_subcommand(self, tmp_path):
        src = tmp_path / "m.xnf"
        inst = Instance.random(3, 40, RngSpec(7))
        write_instance(inst, src)
        out = tmp_path / "m.json"
        code = main(["minima", "--in", str(src), "--json", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["summary"]["m"] >= 1


    @pytest.mark.parametrize("extra,named", [
        (["--beta", "0.1", "--count", "3"], "--beta, --count"),
        (["--gamma", "0.1"], "--gamma"),
        (["--count", "3"], "--count"),
    ])
    def test_far_minima_options_need_beta_and_gamma(self, extra, named, eq1_file, capsys):
        assert main(["minima", "--in", str(eq1_file), *extra]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {named} need both --beta and --gamma"]

    @pytest.mark.parametrize("name", ["landscape_k3_n22", "landscape_k4_n18"])
    def test_golden_family_report(self, name, tmp_path):
        infile, out = DATA / f"{name}.xnf", tmp_path / "m.json"
        assert main(["minima", "--in", str(infile), "--json", str(out)]) == 0
        report = out.read_text().replace(json.dumps(str(infile)), '"<infile>"')
        assert report == (DATA / f"{name.replace('landscape', 'minima')}.json").read_text()

    def test_golden_far_minima_report(self, eliminations, tmp_path):
        # the instances above are too small for far minima; n = 200 is generated
        infile, out = tmp_path / "far.xnf", tmp_path / "m.json"
        assert main(["gen", "--k", "3", "--n", "200", "--seed", "1", "--out", str(infile)]) == 0
        assert main(["minima", "--in", str(infile), "--beta", "0.1", "--gamma", "0.01",
                     "--count", "3", "--json", str(out)]) == 0
        report = out.read_text().replace(json.dumps(str(infile)), '"<infile>"')
        assert report == (DATA / "minima_far_k3_n200.json").read_text()
        # one elimination of the instance (family and ground states), one of the z vectors
        assert eliminations == [200, json.loads(report)["summary"]["m"] - 1]

    def test_far_minimum_by_pigeonhole_correction(self, tmp_path):
        # the one generator lies within beta*n/2 = 12 of a ground state, so a
        # correction vector is added, which moves the minimum out to distance 30
        infile, out = tmp_path / "p.xnf", tmp_path / "m.json"
        assert main(["gen", "--k", "3", "--n", "60", "--seed", "24", "--out", str(infile)]) == 0
        assert main(["minima", "--in", str(infile), "--beta", "0.4", "--gamma", "1/60",
                     "--count", "1", "--json", str(out)]) == 0
        assert json.loads(out.read_text())["records"] == [{
            "state": "011111011011000111010110111011000101001010111011001001110010",
            "energy": 2, "min_distance_to_ground": 30, "corrected": True}]


class TestCnfCommand:
    def test_cnf_export(self, eq1_file, tmp_path):
        out = tmp_path / "e.cnf"
        assert main(["cnf", "--in", str(eq1_file), "--out", str(out)]) == 0
        assert out.read_text().splitlines()[0] == "p cnf 4 16"


class TestExitCodes:
    def test_usage_error_is_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["landscape"])  # missing --in
        assert exc.value.code == 2

    def test_unknown_subcommand_is_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_file_is_one(self, tmp_path):
        assert main(["kernel", "--in", str(tmp_path / "missing.xnf")]) == 1

    @pytest.mark.parametrize("argv", [
        ["expand", "--in", "{infile}", "--omega", "2", "--eta", "1/0"],
        ["minima", "--in", "{infile}", "--beta", "1/0", "--gamma", "0.1"],
        ["coeffs", "--k", "3", "--n", "10", "--table", "U", "--delta", "1/0"],
    ])
    def test_zero_denominator_is_one(self, argv, eq1_file, capsys):
        assert main([a.format(infile=eq1_file) for a in argv]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line == "error: '1/0' has a zero denominator"

    def test_undecodable_file_names_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.xnf"
        bad.write_bytes(b"x 3 4\n2 3 4\n1 3 4\n\xff1 2 4\n1 2 3\n")
        assert main(["kernel", "--in", str(bad)]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: line 4: 'utf-8' codec can't decode byte 0xff")

    @pytest.mark.parametrize("text,message", [
        ("x 3 four\n", "line 1: k and n must be integers"),
        ("x 3 2\n", "line 1: need n >= k >= 1, got k=3 n=2"),
        ("x 3 4\n2 3 4\n1 3 5\n1 2 4\n1 2 3\n", "line 3: index out of range 1..4"),
    ], ids=["non-integer-header", "n-below-k", "index-above-n"])
    def test_bad_header_or_index_is_one_line(self, text, message, tmp_path, capsys):
        bad = tmp_path / "bad.xnf"
        bad.write_text(text)
        assert main(["kernel", "--in", str(bad)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]

    def test_negative_omega_is_one(self, eq1_file, capsys):
        assert main(["expand", "--in", str(eq1_file), "--omega", "-1", "--eta", "1"]) == 1
        assert capsys.readouterr().err.splitlines() == ["error: omega must be >= 0"]

    def test_malformed_file_is_one(self, tmp_path):
        bad = tmp_path / "bad.xnf"
        bad.write_text("x 3 4\n1 1 2\n1 2 3\n1 2 4\n2 3 4\n")
        assert main(["kernel", "--in", str(bad)]) == 1


class TestVerifySubcommand:
    @pytest.mark.parametrize("only,message", [
        ("11", "no criterion 11: valid numbers are 1-10"),
        ("0,3", "no criterion 0: valid numbers are 1-10"),
        (",", "--only names no criterion: valid numbers are 1-10"),
        ("", "--only names no criterion: valid numbers are 1-10"),
    ], ids=["11", "0,3", "comma", "empty"])
    def test_unknown_criterion_is_one(self, only, message, monkeypatch, capsys, tmp_path):
        from xorland import acceptance

        def refuse(number):
            raise AssertionError(f"criterion {number} ran")

        monkeypatch.setattr(acceptance, "run_criterion", refuse)
        out = tmp_path / "v.json"
        assert main(["verify", "--only", only, "--json", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err.splitlines() == [f"error: {message}"]

    def test_verify_single_criterion(self, tmp_path, capsys):
        out = tmp_path / "v.json"
        code = main(["verify", "--only", "1", "--json", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["records"][0]["criterion"] == 1
        assert data["records"][0]["passed"] is True
        captured = capsys.readouterr()
        assert "criterion 1" in captured.out


def test_every_option_is_read():
    # an option its handler never reads is a dead flag; --json/--csv are read by _finish
    (subparsers,) = [a for a in cli.build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction)]
    for command, parser in subparsers.choices.items():
        source = inspect.getsource(cli._HANDLERS[command])
        for action in parser._actions:
            if action.dest == "help":
                continue
            if action.dest in ("json", "csv"):
                assert "_finish(" in source, (command, action.dest)
            else:
                assert f"args.{action.dest}" in source, (command, action.dest)


def test_one_parser_per_process(tmp_path, capsys):
    # main reuses one parser; no option of one call may reach the next
    assert cli.build_parser() is cli.build_parser()
    infile = tmp_path / "k3n12.xnf"
    write_instance(Instance.random(3, 12, RngSpec(5)), infile)
    out = {name: tmp_path / f"{name}.json" for name in ("first", "walk", "bare", "again")}
    assert main(["landscape", "--in", str(infile), "--json", str(out["first"])]) == 0
    assert main(["walk", "--in", str(infile), "--trials", "2", "--cap", "50", "--seed", "3",
                 "--stream", "4", "--json", str(out["walk"])]) == 0
    assert main(["landscape", "--in", str(infile), "--no-barriers", "--json", str(out["bare"])]) == 0
    assert main(["landscape", "--in", str(infile), "--json", str(out["again"])]) == 0
    assert out["again"].read_bytes() == out["first"].read_bytes()
    assert out["bare"].read_bytes() != out["first"].read_bytes()
    argv = ["walk", "--in", str(infile)]
    assert vars(cli.build_parser().parse_args(argv)) == vars(
        cli.build_parser.__wrapped__().parse_args(argv))
