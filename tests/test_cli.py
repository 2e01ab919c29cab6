import json
import re
from pathlib import Path

import click
import pytest
from click.testing import CliRunner

import families
from families import rule6_instance, stubborn_instance, unrefuted_no_instance
import sfast.cli
import sfast.kernel
import sfast.solver
from sfast.cli import (
    EXIT_INVALID,
    EXIT_NO_SOLUTION,
    EXIT_SCALE,
    EXIT_TRIVIAL_NO,
    EXIT_TRIVIAL_YES,
    main,
)
from sfast.graphs import Instance, Tournament
from sfast.instancefile import parse_instance, parse_solution


@pytest.fixture
def runner():
    return CliRunner()


def combined(result):
    return result.output + result.stderr


def triangle_instance(k=1):
    return Instance(Tournament.from_arcs(3, [(0, 1), (1, 2), (2, 0)]), frozenset({0}), k)


def transitive_instance(n, terminals, k):
    return Instance(Tournament(families.transitive(n)), frozenset(terminals), k)


class TestKernelizeCommand:
    def test_reduced_instance_exits_zero(self, runner, tmp_instance_file):
        path = tmp_instance_file(stubborn_instance())
        result = runner.invoke(main, ["kernelize", path])
        assert result.exit_code == 0
        assert result.output.startswith("reduced:")

    def test_trivial_yes(self, runner, tmp_instance_file):
        path = tmp_instance_file(transitive_instance(4, {0, 2}, 0))
        result = runner.invoke(main, ["kernelize", path])
        assert result.exit_code == EXIT_TRIVIAL_YES
        assert "trivial-yes" in result.output

    def test_trivial_no(self, runner, tmp_instance_file):
        path = tmp_instance_file(triangle_instance(k=0))
        result = runner.invoke(main, ["kernelize", path])
        assert result.exit_code == EXIT_TRIVIAL_NO
        assert "trivial-no" in result.output

    def test_kernel_file_round_trips(self, runner, tmp_instance_file, tmp_path):
        path = tmp_instance_file(stubborn_instance())
        out = tmp_path / "kernel.sfast"
        result = runner.invoke(main, ["kernelize", path, "-o", str(out)])
        assert result.exit_code == 0
        kernel = parse_instance(out.read_text())
        assert kernel.n == stubborn_instance().n
        assert kernel.k == 1

    def test_trace_file_records_the_applied_rules(self, runner, tmp_instance_file, tmp_path):
        path = tmp_instance_file(transitive_instance(6, {0, 3}, 1))
        trace_path = tmp_path / "trace.json"
        result = runner.invoke(main, ["kernelize", path, "--trace", str(trace_path)])
        assert result.exit_code == 0
        trace = [json.loads(line) for line in trace_path.read_text().splitlines()]
        # No vertex of a transitive tournament lies on a cycle, so rule 2
        # deletes all six, and the terminal count drops at 0 and 3 only.
        assert [rec["rule"] for rec in trace] == ["rr2"] * 6
        assert all(rec["status"] == "applied" for rec in trace)
        assert all({"rule", "status", "note", "detail"} <= set(rec) for rec in trace)
        assert [rec["detail"]["deleted"] for rec in trace] == [[v] for v in range(6)]
        assert [rec["detail"]["pre"][1] for rec in trace] == [2, 1, 1, 1, 0, 0]

    def test_trace_file_of_a_rule7_verdict(self, runner, tmp_instance_file, tmp_path):
        # Rule 7 counts the wrong-direction fringe; its record's detail
        # must hold plain integers for the trace to be written.
        path = tmp_instance_file(families.rule7_instance())
        trace_path = tmp_path / "trace.json"
        result = runner.invoke(main, ["kernelize", path, "--trace", str(trace_path)])
        assert result.exit_code == EXIT_TRIVIAL_NO, combined(result)
        trace = [json.loads(line) for line in trace_path.read_text().splitlines()]
        assert [rec["rule"] for rec in trace] == ["rr7"]
        assert trace[-1]["detail"]["r_less_tilde"] > 1 or trace[-1]["detail"]["r_greater_tilde"] > 1

    def test_json_report(self, runner, tmp_instance_file):
        path = tmp_instance_file(stubborn_instance())
        result = runner.invoke(main, ["kernelize", path, "--json"])
        assert result.exit_code == 0
        blob = json.loads(result.output)
        assert blob["status"] == "reduced"
        assert blob["kernel"] == {"n": 5, "terminals": 1, "k": 1}


class TestSolveCommand:
    def test_solves_a_triangle(self, runner, tmp_instance_file, tmp_path):
        path = tmp_instance_file(triangle_instance())
        out = tmp_path / "solution.txt"
        result = runner.invoke(main, ["solve", path, "-o", str(out)])
        assert result.exit_code == 0
        assert "minimum solution: 1 arcs" in result.output
        assert any(line.startswith("r ") for line in result.output.splitlines())
        arcs = parse_solution(out.read_text())
        assert len(arcs) == 1

    def test_solution_file_passes_verify(self, runner, tmp_instance_file, tmp_path):
        path = tmp_instance_file(triangle_instance())
        out = tmp_path / "solution.txt"
        assert runner.invoke(main, ["solve", path, "-o", str(out)]).exit_code == 0
        result = runner.invoke(main, ["verify", path, str(out)])
        assert result.exit_code == 0
        assert "valid: 1 arcs within budget 1" in result.output

    def test_planted_3000_solves_and_verifies(self, runner, tmp_path):
        # The largest instance a test solves: a 50 MB file, generated,
        # solved and checked through the commands.
        path, out = str(tmp_path / "p3000.sfast"), str(tmp_path / "p3000.sol")
        args = ["--n", "3000", "--terminals", "10", "--planted", "3", "--seed", "0"]
        assert runner.invoke(main, ["gen", *args, "-o", path]).exit_code == 0
        result = runner.invoke(main, ["solve", path, "-o", out])
        assert result.exit_code == 0
        assert "minimum solution: 3 arcs after 0 trials" in result.output
        check = runner.invoke(main, ["verify", path, out])
        assert check.exit_code == 0
        assert "valid: 3 arcs within budget 3" in check.output

    def test_kernel_refutation_exits_twenty(self, runner, tmp_instance_file):
        path = tmp_instance_file(rule6_instance())
        result = runner.invoke(main, ["solve", path])
        assert result.exit_code == EXIT_TRIVIAL_NO
        assert "refuted during kernelization" in result.output

    def test_packing_refutation_exits_twenty(self, runner, tmp_instance_file):
        path = tmp_instance_file(stubborn_instance())
        result = runner.invoke(main, ["solve", path])
        assert result.exit_code == EXIT_TRIVIAL_NO
        assert "refuted by a triangle-packing bound above the budget 1" in result.output

    def test_exhausted_trials_exit_thirty(self, runner, tmp_instance_file):
        path = tmp_instance_file(unrefuted_no_instance())
        result = runner.invoke(main, ["solve", path])
        assert result.exit_code == EXIT_NO_SOLUTION
        assert "no solution found in 47 trials" in result.output

    def test_trials_option_caps_the_search(self, runner, tmp_instance_file):
        path = tmp_instance_file(unrefuted_no_instance())
        result = runner.invoke(main, ["solve", path, "--trials", "3"])
        assert result.exit_code == EXIT_NO_SOLUTION
        assert "no solution found in 3 trials" in result.output

    @pytest.mark.parametrize("command", ["solve", "bench"])
    @pytest.mark.parametrize("trials", ["0", "-2"])
    def test_trial_budget_below_one_is_a_usage_error(self, runner, tmp_instance_file, command, trials):
        path = tmp_instance_file(triangle_instance())
        result = runner.invoke(main, [command, path, "--trials", trials])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in combined(result)
        assert "--trials" in result.stderr

    def test_json_report(self, runner, tmp_instance_file):
        path = tmp_instance_file(triangle_instance())
        result = runner.invoke(main, ["solve", path, "--json"])
        assert result.exit_code == 0
        blob = json.loads(result.output)
        assert blob["size"] == 1
        assert blob["certified"] is True
        assert len(blob["arcs"]) == 1
        assert blob["seconds"] >= 0

    @pytest.mark.parametrize("command", ["solve", "bench"])
    def test_scale_limit_exits_fifty(self, runner, tmp_instance_file, monkeypatch, command):
        # No rule fires on this instance and its ordering bound exceeds k,
        # so a trial reaches the prefix DP, whose lattice now exceeds the cap.
        monkeypatch.setattr(sfast.solver, "_LATTICE_CAP", 1)
        path = tmp_instance_file(unrefuted_no_instance())
        result = runner.invoke(main, [command, path])
        assert result.exit_code == EXIT_SCALE
        assert result.exception is None or isinstance(result.exception, SystemExit)
        (line,) = result.stderr.splitlines()
        assert line.startswith(f"{path}: beyond the solver's scale limit: ")

    def test_budget_past_the_trial_count_exits_fifty(self, runner, tmp_instance_file):
        # The default trial count for k = 10**20 overflows a float.
        t = families.random_tournament(30, seed=0)
        path = tmp_instance_file(Instance(t, frozenset(range(5)), 10**20))
        result = runner.invoke(main, ["solve", path])
        assert result.exit_code == EXIT_SCALE
        assert result.exception is None or isinstance(result.exception, SystemExit)
        (line,) = result.stderr.splitlines()
        assert line.startswith(f"{path}: beyond the solver's scale limit: ")

    @pytest.mark.parametrize("k", [2_000_000, 10**20])
    def test_budget_past_the_trial_count_answered_by_the_bounds(self, runner, tmp_instance_file, k):
        # The packing and ordering bounds meet at 1 before any trial, so the
        # trial count, which overflows a float at these budgets, is never
        # computed.
        path = tmp_instance_file(triangle_instance(k=k))
        result = runner.invoke(main, ["solve", path, "--json"])
        assert result.exit_code == 0, result.output
        blob = json.loads(result.output)
        assert blob["size"] == 1
        assert blob["certified"] is True
        assert blob["trials"] == 0

    def test_json_on_refuted_instance(self, runner, tmp_instance_file):
        path = tmp_instance_file(triangle_instance(k=0))
        result = runner.invoke(main, ["solve", path, "--json"])
        assert result.exit_code == EXIT_TRIVIAL_NO
        blob = json.loads(result.output.splitlines()[0])
        assert blob["size"] is None
        assert blob["arcs"] is None

    @pytest.mark.parametrize(
        "builder, code",
        [
            (rule6_instance, EXIT_TRIVIAL_NO),
            (stubborn_instance, EXIT_TRIVIAL_NO),
            (unrefuted_no_instance, EXIT_NO_SOLUTION),
        ],
        ids=["kernel-refuted", "packing-refuted", "trials-exhausted"],
    )
    def test_json_without_a_solution_is_one_document(self, runner, tmp_instance_file, builder, code):
        path = tmp_instance_file(builder())
        result = runner.invoke(main, ["solve", path, "--json"])
        assert result.exit_code == code
        blob = json.loads(result.output)
        assert blob["arcs"] is None


class TestVerifyCommand:
    def test_empty_solution_on_a_triangle_is_invalid(self, runner, tmp_instance_file, tmp_path):
        path = tmp_instance_file(triangle_instance())
        sol = tmp_path / "empty.txt"
        sol.write_text("")
        result = runner.invoke(main, ["verify", path, str(sol)])
        assert result.exit_code == EXIT_INVALID
        assert "invalid" in result.output

    def test_unknown_vertex_is_a_usage_error(self, runner, tmp_instance_file, tmp_path):
        path = tmp_instance_file(triangle_instance())
        sol = tmp_path / "bad.txt"
        sol.write_text("r 99 0\n")
        result = runner.invoke(main, ["verify", path, str(sol)])
        assert result.exit_code == 1
        assert "unknown vertex 99" in combined(result)

    def test_absent_arc_is_a_usage_error(self, runner, tmp_instance_file, tmp_path):
        path = tmp_instance_file(triangle_instance())
        sol = tmp_path / "bad.txt"
        sol.write_text("r 1 0\n")
        result = runner.invoke(main, ["verify", path, str(sol)])
        assert result.exit_code == 1

    def test_mode_flag_changes_the_verdict(self, runner, tmp_instance_file, tmp_path):
        path = tmp_instance_file(transitive_instance(3, {0, 1, 2}, 2))
        sol = tmp_path / "both.txt"
        sol.write_text("r 0 1\nr 1 2\n")
        reversal = runner.invoke(main, ["verify", path, str(sol)])
        assert reversal.exit_code == EXIT_INVALID
        deletion = runner.invoke(main, ["verify", path, str(sol), "--mode", "deletion"])
        assert deletion.exit_code == 0


class TestOracleCommand:
    def test_reports_the_optimum(self, runner, tmp_instance_file):
        path = tmp_instance_file(triangle_instance())
        result = runner.invoke(main, ["oracle", path])
        assert result.exit_code == 0
        assert result.output.strip() == "1"

    def test_budget_too_small_reports_none(self, runner, tmp_instance_file):
        path = tmp_instance_file(triangle_instance())
        result = runner.invoke(main, ["oracle", path, "--kmax", "0"])
        assert result.exit_code == 0
        assert result.output.strip() == "none within 0"

    @pytest.mark.parametrize(
        "k, args",
        [(10**20, []), (1, ["--kmax", "100000000"])],
        ids=["file-budget", "kmax-flag"],
    )
    def test_a_huge_budget_answers_at_once(self, runner, tmp_instance_file, k, args):
        path = tmp_instance_file(triangle_instance(k=k))
        result = runner.invoke(main, ["oracle", path, *args])
        assert result.exit_code == 0
        assert result.output.strip() == "1"

    @pytest.mark.parametrize("seed, optimum", [(1, 5), (2, 4), (3, 6)])
    def test_a_cap_past_the_optimum_answers_as_a_tight_one(self, runner, tmp_path, seed, optimum):
        # At --kmax 28 the subset count and the branching depth would both
        # be out of reach; the S-backward arcs of the score order (8, 5 and
        # 10 here) cap the search first.
        path = tmp_path / "o.sfast"
        args = ["--n", "8", "--terminals", "3", "--k", "3", "--seed", str(seed)]
        assert runner.invoke(main, ["gen", *args, "-o", str(path)]).exit_code == 0
        answers = [runner.invoke(main, ["oracle", "--kmax", cap, str(path)]) for cap in ("28", "12")]
        assert [r.exit_code for r in answers] == [0, 0]
        assert [r.output.strip() for r in answers] == [str(optimum)] * 2

    def test_orderings_method_agrees(self, runner, tmp_instance_file):
        path = tmp_instance_file(stubborn_instance())
        result = runner.invoke(main, ["oracle", path, "--method", "orderings"])
        assert result.exit_code == 0
        assert result.output.strip() == "2"

    def test_orderings_refuses_large_instances(self, runner, tmp_instance_file):
        big = transitive_instance(11, {0}, 1)
        path = tmp_instance_file(big)
        result = runner.invoke(main, ["oracle", path, "--method", "orderings"])
        assert result.exit_code == 1


class TestGenCommand:
    def test_uniform_instance(self, runner, tmp_path):
        out = tmp_path / "random.sfast"
        result = runner.invoke(
            main, ["gen", "--n", "10", "--terminals", "4", "--seed", "3", "--k", "2", "-o", str(out)]
        )
        assert result.exit_code == 0
        assert f"wrote {out}" in result.output
        instance = parse_instance(out.read_text())
        assert instance.n == 10
        assert len(instance.terminals) == 4
        assert instance.k == 2

    def test_generation_is_deterministic(self, runner, tmp_path):
        args = ["gen", "--n", "8", "--terminals", "3", "--seed", "9", "--k", "1"]
        first, second = tmp_path / "a.sfast", tmp_path / "b.sfast"
        runner.invoke(main, args + ["-o", str(first)])
        runner.invoke(main, args + ["-o", str(second)])
        assert first.read_text() == second.read_text()

    def test_planted_sidecar_verifies(self, runner, tmp_path):
        out = tmp_path / "planted.sfast"
        result = runner.invoke(
            main,
            ["gen", "--n", "9", "--terminals", "4", "--seed", "5", "--planted", "2", "-o", str(out)],
        )
        assert result.exit_code == 0
        sidecar = Path(str(out) + ".planted")
        assert sidecar.exists()
        check = runner.invoke(main, ["verify", str(out), str(sidecar)])
        assert check.exit_code == 0

    def test_rejects_both_budget_flavors(self, runner, tmp_path):
        out = tmp_path / "x.sfast"
        result = runner.invoke(
            main,
            ["gen", "--n", "5", "--terminals", "2", "--k", "1", "--planted", "1", "-o", str(out)],
        )
        assert result.exit_code == 1
        assert "exactly one" in combined(result)

    def test_rejects_neither_budget_flavor(self, runner, tmp_path):
        out = tmp_path / "x.sfast"
        result = runner.invoke(main, ["gen", "--n", "5", "--terminals", "2", "-o", str(out)])
        assert result.exit_code == 1

    def test_rejects_impossible_terminal_count(self, runner, tmp_path):
        out = tmp_path / "x.sfast"
        result = runner.invoke(
            main, ["gen", "--n", "4", "--terminals", "9", "--k", "1", "-o", str(out)]
        )
        assert result.exit_code == 1


class TestBenchCommand:
    def test_table_and_csv(self, runner, tmp_instance_file, tmp_path):
        first = tmp_instance_file(triangle_instance(), "one.sfast")
        second = tmp_instance_file(stubborn_instance(), "two.sfast")
        csv_path = tmp_path / "bench.csv"
        result = runner.invoke(main, ["bench", first, second, "--csv", str(csv_path)])
        assert result.exit_code == 0
        header = result.output.splitlines()[0].split()
        assert header == ["instance", "n", "terminals", "k", "kernel_n", "trials", "seconds", "value"]
        lines = csv_path.read_text().splitlines()
        assert len(lines) == 3
        assert lines[1].startswith("one.sfast,3,1,1,")
        assert lines[2].startswith("two.sfast,5,1,1,")
        assert lines[1].rstrip().endswith(",1")
        assert lines[2].endswith(",")


class TestErrorPaths:
    def test_malformed_instance_file(self, runner, tmp_path):
        path = tmp_path / "broken.sfast"
        path.write_text("p wrong 3\n")
        for command in (["kernelize"], ["solve"], ["oracle"]):
            result = runner.invoke(main, command + [str(path)])
            assert result.exit_code == 1
            assert "line 1" in combined(result)

    def test_missing_file_is_a_usage_error(self, runner):
        result = runner.invoke(main, ["kernelize", "nowhere.sfast"])
        assert result.exit_code == 2

    def test_version_flag(self, runner):
        result = runner.invoke(main, ["--version"])
        assert result.exit_code == 0
        assert "0.1.0" in result.output


def readme_usage():
    """(command, option flags) for each `sfast <command>` line of README's ## CLI block."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1]
    block = section.split("```text\n", 1)[1].split("```", 1)[0]
    usage = []
    for line in block.splitlines():
        words = line.split()
        if len(words) >= 2 and words[0] == "sfast":
            usage.append((words[1], set(re.findall(r"(?<![\w-])--?[a-z][\w-]*", line))))
    return usage


def test_readme_usage_matches_the_commands():
    usage = readme_usage()
    assert {name for name, _ in usage} == set(main.commands)
    for name, flags in usage:
        options = [p for p in main.commands[name].params if isinstance(p, click.Option)]
        known = {flag for p in options for flag in p.opts + p.secondary_opts}
        assert flags <= known, f"README names unknown options of {name}: {flags - known}"
        for p in options:
            assert flags & set(p.opts), f"README omits {p.opts} of {name}"


def readme_exit_codes():
    """The codes in the first column of README.md's exit-code table, in order."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("\nExit codes:\n\n", 1)[1].split("\n\n", 1)[0]
    return [int(line.split("|")[1]) for line in table.splitlines()[2:]]


def test_readme_exit_codes_match_the_cli():
    # 0 is success, 1 a ClickException, 2 a click usage error.
    constants = [value for name, value in vars(sfast.cli).items() if name.startswith("EXIT_")]
    assert sorted(readme_exit_codes()) == sorted([0, 1, 2] + constants)


def test_readme_library_example_runs_and_names_root_exports(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Library\n", 1)[1]
    _, block, after = section.split("```", 2)
    block = block.removeprefix("python\n")
    exec(block, {})
    # Each print line's comment starts with what it prints.
    expected = re.findall(r"^print\(.*# (.*?)(?: \(.*)?$", block, re.M)
    assert capsys.readouterr().out.splitlines() == expected
    paragraph = after.strip().split("\n\n", 1)[0]
    root = re.search(r"package root\s+also exports (.*?)\.\s", paragraph, re.S).group(1)
    kernel = re.search(r"\(([^)]*)\)\s+and the other kernel pieces are in", paragraph).group(1)
    assert set(re.findall(r"`(\w+)`", root)) <= set(sfast.__all__)
    assert set(re.findall(r"`(\w+)`", kernel)) <= set(sfast.kernel.__all__)
