import json

import pytest

from cantorsum.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestAnalyze:
    def test_base8_example(self, capsys):
        code, out, _ = run(capsys, "analyze", "-n", "8", "-A", "0,2,5,7")
        assert code == 0
        assert "good: true" in out
        assert "typing: LROOLOOO OOOROOLR" in out
        assert "matrix: [[2, 1], [1, 2]]" in out
        assert "dim: 0.5283208336" in out
        assert "very_good: true" in out

    def test_mixed_example(self, capsys):
        code, out, _ = run(capsys, "analyze", "-n", "5", "-A", "0,1,4")
        assert code == 0
        assert "good: false" in out
        assert "structure: Mixed" in out
        assert "dim: 0.4306765581 (L/R-core dimension; a lower bound unless the set is good)" in out

    def test_steinhaus_json(self, capsys):
        code, out, _ = run(capsys, "analyze", "-n", "3", "-A", "0,2", "--json")
        assert code == 0
        obj = json.loads(out)
        assert obj["good"] is True
        assert obj["matrix"] == [[1, 1], [1, 1]]
        assert abs(obj["dim"] - 0.6309297536) < 1e-9

    def test_malformed_digits(self, capsys):
        assert run(capsys, "analyze", "-n", "5", "-A", "0,x,4")[0] == 2

    def test_non_canonical_rejected(self, capsys):
        assert run(capsys, "analyze", "-n", "5", "-A", "0,1,7,8")[0] == 2

    def test_duplicate_digits_rejected(self, capsys):
        assert run(capsys, "analyze", "-n", "5", "-A", "0,2,2,4")[0] == 2


class TestStructureCmd:
    def test_witnesses_json(self, capsys):
        code, out, _ = run(capsys, "structure", "-n", "5", "-A", "0,1,4", "--json")
        assert code == 0
        obj = json.loads(out)
        assert obj["case"] == "Mixed"
        assert obj["gap_witness"]["lo"] == {"num": 7, "den": 5}

    def test_human_output(self, capsys):
        code, out, _ = run(capsys, "structure", "-n", "4", "-A", "0,3")
        assert code == 0
        assert "case: CantorSet" in out

    def test_human_output_mixed_witnesses(self, capsys):
        code, out, _ = run(capsys, "structure", "-n", "5", "-A", "0,1,4")
        assert code == 0
        assert "case: Mixed" in out
        assert "interval_witness: [1, 6/5]" in out
        assert "points_dim_lower_bound: 0.4306765581" in out


class TestSearchCmd:
    def test_table_rows_csv(self, capsys):
        code, out, _ = run(capsys, "search", "-n", "9..10", "--require-very-good")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,digits,good,very_good,a,b,c,d,lambda,dim"
        assert lines[1].startswith("9,0;2;6;8,true,true,")
        assert "0.6309297536" in lines[1]

    def test_infeasible_exit_code(self, capsys):
        assert run(capsys, "search", "-n", "33")[0] == 3

    def test_csv_out_and_manifest_determinism(self, capsys, tmp_path):
        csv1, man1 = tmp_path / "a.csv", tmp_path / "a.json"
        csv2, man2 = tmp_path / "b.csv", tmp_path / "b.json"
        for csv, man in ((csv1, man1), (csv2, man2)):
            code, out, _ = run(capsys, "search", "-n", "9..12",
                               "--require-very-good", "--seed", "7",
                               "--csv-out", str(csv), "--manifest", str(man))
            assert code == 0
            assert csv.read_text() == out
        m1 = json.loads(man1.read_text())
        m2 = json.loads(man2.read_text())
        assert m1["output_digest"] == m2["output_digest"]
        assert m1["command"] == "search"
        assert m1["version"]
        assert csv1.read_text() == csv2.read_text()

    def test_heuristic_deterministic(self, capsys):
        r1 = run(capsys, "search", "-n", "20", "--heuristic", "--budget", "1000",
                 "--seed", "7")
        r2 = run(capsys, "search", "-n", "20", "--heuristic", "--budget", "1000",
                 "--seed", "7")
        assert r1 == r2 and r1[0] == 0


class TestTowerCmd:
    def test_chain_to_458(self, capsys):
        code, out, _ = run(capsys, "tower", "--target", "458")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "step,n,digits,lambda,dim"
        assert lines[-1].startswith("3,458,")
        assert "0.5604799289" in lines[-1]

    def test_base_too_small(self, capsys):
        assert run(capsys, "tower", "--target", "7")[0] == 4

    def test_missing_base_row(self, capsys):
        assert run(capsys, "tower", "--target", "100", "--base-n", "9")[0] == 4

    def test_base_below_table(self, capsys):
        assert run(capsys, "tower", "--target", "100", "--base-n", "8")[0] == 4

    def test_target_in_table(self, capsys):
        code, out, _ = run(capsys, "tower", "--target", "27")
        assert code == 0
        assert len(out.strip().splitlines()) == 2  # header + base row


class TestConstructCmd:
    def test_base_101(self, capsys):
        code, out, _ = run(capsys, "construct", "-n", "101")
        assert code == 0
        assert "good: true" in out
        assert "trivial: true" in out


class TestOracleCmd:
    def test_em_components(self, capsys):
        code, out, _ = run(capsys, "oracle", "-n", "5", "-A", "0,1,7,8",
                           "--em", "--depth", "4")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "depth,start_numerator,end_numerator,denominator"
        assert len(lines) == 4  # three components

    def test_typing_counts(self, capsys):
        code, out, _ = run(capsys, "oracle", "-n", "3", "-A", "0,2",
                           "--typing", "--depth", "2")
        assert code == 0
        assert out.strip() == "L=4, R=4"

    def test_growth_ratio(self, capsys):
        code, out, _ = run(capsys, "oracle", "-n", "8", "-A", "0,2,5,7",
                           "--growth", "--depth", "5")
        assert code == 0
        assert "matrix_power_match: true" in out
        assert "3,27,27" in out  # counts tripling

    def test_growth_of_non_good_set(self, capsys):
        # the counts grow by phi^2 a level, not by the matrix's lambda = 2
        code, out, _ = run(capsys, "oracle", "-n", "7", "-A", "0,1,6",
                           "--growth", "--depth", "7")
        assert code == 0
        assert out.splitlines() == [
            "m,L,R,dim_estimate",
            "1,2,2,0.7124143742",
            "2,5,5,0.5916473312",
            "3,13,13,0.5581101367",
            "4,34,34,0.5420995038",
            "5,89,89,0.5325819954",
            "6,233,233,0.5262478021",
            "7,610,610,0.5217247306",
            "matrix_power_match: false",
            "dim: 0.3562071871",
            "final_estimate_gap: 0.1655175435",
        ]

    @pytest.mark.parametrize("which", ["--em", "--typing", "--growth"])
    def test_depth_zero_exit_code(self, capsys, which):
        code, out, err = run(capsys, "oracle", "-n", "8", "-A", "0,2,5,7",
                             which, "--depth", "0")
        assert code == 2
        assert out == ""
        assert "depth must be >= 1" in err

    @pytest.mark.parametrize("budget", [(), ("--budget", "1e40")])
    def test_depth_beyond_word_range_exit_code(self, capsys, budget):
        # refused for the 64-bit range before the budget is consulted
        code, out, err = run(capsys, "oracle", "-n", "5", "-A", "0,1,4",
                             "--typing", "--depth", "40", *budget)
        assert code == 2
        assert out == ""
        assert "64-bit range" in err

    def test_budget_exit_code(self, capsys):
        code, _, err = run(capsys, "oracle", "-n", "12", "-A", "0,2,3,5,9,11",
                           "--typing", "--depth", "9")
        assert code == 5
        assert "budget" in err


class TestFigureCmd:
    def test_range_sweep(self, capsys):
        code, out, _ = run(capsys, "figure", "-n", "9..10", "--budget", "200")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,best_dim,reference"
        assert len(lines) == 3

    def test_exhaustive_range_first_row(self, capsys):
        code, out, _ = run(capsys, "figure", "-n", "3..5", "--budget", "100")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,best_dim,reference"
        assert lines[1].startswith("3,0.6309297536,0.6309297536")


class TestBaseBelowThree:
    @pytest.mark.parametrize("argv", [
        ("search", "-n", "2"),
        ("search", "-n", "0..3"),
        ("search", "-n", "2", "--heuristic"),
        ("figure", "-n", "2..4"),
    ])
    def test_exits_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == "error: base must be >= 3\n"


class TestSeedOption:
    COMMANDS = {
        "search": ("search", "-n", "20", "--heuristic", "--budget", "200"),
        "figure": ("figure", "-n", "9..10", "--budget", "200"),
    }

    @pytest.mark.parametrize("value", ["-1", "2.5", "nan", "x"])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_bad_seed_exits_2(self, capsys, command, value):
        with pytest.raises(SystemExit) as exc:
            main([*self.COMMANDS[command], "--seed", value])
        assert exc.value.code == 2
        assert "expected a whole number >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("value, seed", [("0", 0), ("7", 7), ("1e3", 1000)])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_whole_seed_parses_to_int(self, command, value, seed):
        args = build_parser().parse_args([*self.COMMANDS[command], "--seed", value])
        assert type(args.seed) is int and args.seed == seed


class TestBudgetOption:
    COMMANDS = {
        "search": ("search", "-n", "20", "--heuristic"),
        "figure": ("figure", "-n", "9..10"),
        "oracle": ("oracle", "-n", "3", "-A", "0,2", "--typing", "--depth", "2"),
    }

    @pytest.mark.parametrize("value", ["nan", "inf", "2.5", "-5", "0"])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_bad_budget_exits_2(self, capsys, command, value):
        with pytest.raises(SystemExit) as exc:
            main([*self.COMMANDS[command], "--budget", value])
        assert exc.value.code == 2
        assert "expected a whole number >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("value, budget", [("1000", 1000), ("1e4", 10_000), ("1e6", 10**6)])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_integral_budget_parses_to_int(self, command, value, budget):
        args = build_parser().parse_args([*self.COMMANDS[command], "--budget", value])
        assert type(args.budget) is int and args.budget == budget
