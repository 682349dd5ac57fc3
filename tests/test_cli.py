import json
import os
import subprocess
import sys

import pytest

import dyckrnn
from dyckrnn import cli, product, runtime, sampler, verify
from dyckrnn.automaton import Corpus, DyckParams, is_member
from dyckrnn.builders import build_lstm
from dyckrnn.cli import main
from dyckrnn.sampler import parse_corpus
from dyckrnn.verify import check_generation_equivalence, total_string_count
from dyckrnn.weightio import load_weights, save_weights
from conftest import zero_close_rows
from test_verify import spy_graph_walks


PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench")


def run_cli(*argv):
    return main(list(argv))


class TestBuild:
    def test_lstm_binary_unit_count(self, tmp_path, capsys):
        out = tmp_path / "w.json"
        assert run_cli("build", "--arch", "lstm", "--enc", "binary",
                       "-k", "128", "-m", "5", "-o", str(out)) == 0
        assert "hidden_units: 100" in capsys.readouterr().out
        assert load_weights(str(out)).hidden_size == 100

    def test_simple_default_unit_count(self, tmp_path, capsys):
        out = tmp_path / "w.json"
        assert run_cli("build", "--arch", "simple", "-k", "2", "-m", "3",
                       "-o", str(out)) == 0
        assert "hidden_units: 12" in capsys.readouterr().out

    def test_binary_k1_refused(self, tmp_path, capsys):
        code = run_cli("build", "--arch", "simple", "--enc", "binary",
                       "-k", "1", "-m", "2", "-o", str(tmp_path / "w.json"))
        assert code == 2
        assert "k > 1" in capsys.readouterr().err

    def test_invalid_numeric_override_refused(self, tmp_path, capsys):
        code = run_cli("build", "-k", "2", "-m", "2", "--zeta", "1.0",
                       "-o", str(tmp_path / "w.json"))
        assert code == 2
        assert "zeta" in capsys.readouterr().err

    @pytest.mark.parametrize("option", ["--beta", "--lambda", "--zeta"])
    def test_nonfinite_numeric_override_refused(self, tmp_path, capsys, option):
        path = tmp_path / "w.json"
        code = run_cli("build", "-k", "2", "-m", "2", "--arch", "lstm",
                       option, "inf", "-o", str(path))
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not path.exists()
        (line,) = captured.err.splitlines()
        assert line == f"error: {option[2:]} must be finite, got inf"

    def test_naive_budget_guard(self, tmp_path, capsys):
        code = run_cli("build", "--arch", "naive", "-k", "4", "-m", "4",
                       "-o", str(tmp_path / "w.json"))
        assert code == 2
        assert "budget" in capsys.readouterr().err

    def test_allocation_too_large_refused(self, tmp_path, capsys):
        """numpy refuses the 6.94 EiB recurrent matrix at once: one error
        line, no traceback."""
        path = tmp_path / "x.json"
        code = run_cli("build", "-k", "1000000000", "-m", "2", "--arch",
                       "simple", "-o", str(path))
        assert code == 2 and not path.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: Unable to allocate 6.94 EiB")

    def test_naive_with_encoding_refused(self, tmp_path, capsys):
        code = run_cli("build", "--arch", "naive", "--enc", "binary",
                       "-k", "2", "-m", "2", "-o", str(tmp_path / "w.json"))
        assert code == 2
        assert "no slot encoding" in capsys.readouterr().err


class TestSample:
    def test_deterministic_files(self, tmp_path, capsys):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for path in (a, b):
            assert run_cli("sample", "-k", "2", "-m", "3", "--tokens", "2000",
                           "--seed", "7", "-o", str(path)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_default_window_m3(self, tmp_path):
        path = tmp_path / "c.txt"
        run_cli("sample", "-k", "2", "-m", "3", "--tokens", "100",
                "--seed", "1", "-o", str(path))
        assert "min_len=1 max_len=84" in path.read_text().splitlines()[0]

    def test_default_window_m5(self, tmp_path):
        path = tmp_path / "c.txt"
        run_cli("sample", "-k", "2", "-m", "5", "--tokens", "100",
                "--seed", "1", "-o", str(path))
        assert "min_len=1 max_len=180" in path.read_text().splitlines()[0]


    def test_thin_window_writes_strings(self, tmp_path, capsys):
        path = tmp_path / "c.txt"
        assert run_cli("sample", "-k", "2", "-m", "3", "--min-len", "301",
                       "--max-len", "301", "--tokens", "1000",
                       "-o", str(path)) == 0
        assert "window mass: 3.542e-12 " in capsys.readouterr().out
        _, strings = parse_corpus(path.read_text())
        assert len(strings) == 4
        assert all(len(s) == 301 and is_member(DyckParams(2, 3), s)
                   for s in strings)

    def test_window_mass_printed(self, tmp_path, capsys):
        assert run_cli("sample", "-k", "1", "-m", "1", "--min-len", "1",
                       "--max-len", "3", "--tokens", "10",
                       "-o", str(tmp_path / "c.txt")) == 0
        assert ("window mass: 7.500e-01 (share of unconditioned walks ending "
                "with a length in [1, 3])") in capsys.readouterr().out.splitlines()

    def test_empty_window_refused(self, tmp_path, capsys):
        path = tmp_path / "c.txt"
        assert run_cli("sample", "-k", "1", "-m", "1", "--min-len", "2",
                       "--max-len", "2", "--tokens", "10", "-o", str(path)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error:") and "[2, 2]" in line
        assert not path.exists()


@pytest.mark.parametrize("argv", [
    ("sample", "-k", "2", "-m", "2", "--tokens", "10", "-o", "c.txt"),
    ("verify", "-k", "2", "-m", "2", "--suite", "stack", "--strings", "3")],
    ids=["sample", "verify"])
def test_negative_seed_refused(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert run_cli(*argv, "--seed", "-1") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: seed must be >= 0, got -1"]
    assert os.listdir(tmp_path) == []


class TestCheck:
    def test_member(self, capsys):
        assert run_cli("check", "-k", "1", "-m", "1", "(1 )1 $") == 0
        assert capsys.readouterr().out.strip() == "true"

    def test_depth_bound_position(self, capsys):
        assert run_cli("check", "-k", "1", "-m", "1", "(1 (1 )1 )1 $") == 1
        assert "false at position 2" in capsys.readouterr().out

    def test_mismatch_position(self, capsys):
        assert run_cli("check", "-k", "2", "-m", "2", "(1 )2 $") == 1
        assert "false at position 2" in capsys.readouterr().out

    def test_missing_end(self, capsys):
        assert run_cli("check", "-k", "1", "-m", "1", "(1 )1") == 1
        assert "no end-of-string" in capsys.readouterr().out

    def test_parse_error(self, capsys):
        assert run_cli("check", "-k", "1", "-m", "1", "(1 huh $") == 2
        assert "position 2" in capsys.readouterr().err


class TestVerify:
    def test_full_suite_all_constructions(self, tmp_path, capsys):
        text = tmp_path / "report.txt"
        js = tmp_path / "report.json"
        code = run_cli("verify", "-k", "2", "-m", "2", "--strings", "60",
                       "--text-report", str(text), "--json-report", str(js))
        assert code == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out
        reports = json.loads(js.read_text())
        assert all(r["passed"] for r in reports)
        assert text.read_text().count("PASS") == len(reports)

    def test_collision_suite(self, tmp_path, capsys):
        js = tmp_path / "report.json"
        code = run_cli("verify", "--suite", "collide", "-d", "1", "-p", "1",
                       "-k", "2", "-m", "2", "--json-report", str(js))
        assert code == 0
        (report,) = json.loads(js.read_text())
        assert report["details"]["collision"] is not None

    def test_collision_table_too_large_is_refused_before_the_power(self, capsys):
        code = run_cli("verify", "--suite", "collide", "-d", "100000", "-p",
                       "64", "-k", "2", "-m", "2")
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: table encoder with 2^6400000 states is too large "
            "(at most 2^20)"]

    def test_collision_suite_leaves_numpy_random_unloaded(self):
        script = ("import sys\n"
                  "from dyckrnn.cli import main\n"
                  "code = main(['verify', '--suite', 'collide', '-d', '1', "
                  "'-p', '1', '-k', '2', '-m', '2'])\n"
                  "print(code, 'numpy.random' in sys.modules)\n")
        src = os.path.dirname(os.path.dirname(os.path.abspath(dyckrnn.__file__)))
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, check=True)
        assert done.stdout.splitlines()[-1] == "0 False"

    def test_equivalence_and_cross_enumerate_each_set_once(self, monkeypatch,
                                                           capsys):
        calls = spy_graph_walks(monkeypatch)
        rows = []
        for module in (product, runtime):
            def counting_step_rows(paramset, h, c, cols,
                                   real=module.step_rows):
                rows.append(len(cols))
                return real(paramset, h, c, cols)

            monkeypatch.setattr(module, "step_rows", counting_step_rows)
        code = run_cli("verify", "-k", "2", "-m", "3", "--suite",
                       "equivalence", "--suite", "cross")
        assert code == 0
        assert capsys.readouterr().out.count("PASS") == 6
        # one walk of the automaton beside every construction, read by both
        # suites
        ((language, *nets),) = calls
        assert language == DyckParams(2, 3) and len(set(nets)) == len(nets) == 5
        assert max(rows) <= product.TREE_BLOCK_ROWS

    def test_distinct_walks_without_scalar_steps(self, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("scalar step")

        for name, module in list(sys.modules.items()):
            if name == "dyckrnn" or name.startswith("dyckrnn."):
                for attr, value in list(vars(module).items()):
                    if value is runtime.step:
                        monkeypatch.setattr(module, attr, refuse)
        rows = []

        def counting_step_rows(paramset, h, c, cols, real=runtime.step_rows):
            rows.append(len(cols))
            return real(paramset, h, c, cols)

        monkeypatch.setattr(runtime, "step_rows", counting_step_rows)
        code = run_cli("verify", "-k", "8", "-m", "3", "--suite", "distinct",
                       "--arch", "lstm")
        assert code == 0
        assert capsys.readouterr().out.count("PASS full_depth_distinctness") == 2
        # 512 strings: 4 blocks of 128, 3 steps each, for each encoding
        assert rows == [runtime.BLOCK_ROWS] * 24

    @pytest.mark.parametrize("argv,message", [
        (("--suite", "equivalence", "--max-len", "0"), "max_len must be at least 1"),
        (("--suite", "cross", "--max-len", "-2"), "max_len must be at least 1"),
        (("--suite", "margins", "--epsilon", "nan"), "epsilon must lie in (0, 1)"),
        (("--suite", "margins", "--epsilon", "0"), "epsilon must lie in (0, 1)"),
        (("--suite", "collide", "-d", "-1"), "d=-1, p=1"),
        (("--suite", "collide", "-p", "-1"), "d=1, p=-1"),
        (("--suite", "margins", "--arch", "simple", "--enc", "onehot",
          "--zeta", "inf"), "zeta must be finite, got inf"),
        (("--suite", "collide", "--lambda", "inf"), "lambda must be finite"),
        (("--suite", "collide", "--beta", "-1"), "beta must be positive")])
    def test_out_of_range_option_refused(self, capsys, argv, message):
        code = run_cli("verify", "-k", "2", "-m", "2", "--strings", "20", *argv)
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error:") and message in line

    def test_corrupted_weight_file_fails(self, tmp_path, capsys):
        path = tmp_path / "w.json"
        assert run_cli("build", "--arch", "simple", "-k", "2", "-m", "2",
                       "-o", str(path)) == 0
        doc = json.loads(path.read_text())
        # zero the close-bracket readout rows
        V = doc["matrices"]["V"]
        rows, cols = V["shape"]
        for r in range(2, 4):
            for c in range(cols):
                V["data"][r * cols + c] = 0.0
        path.write_text(json.dumps(doc))
        code = run_cli("verify", "-k", "2", "-m", "2", "--weights", str(path),
                       "--suite", "equivalence", "--strings", "20")
        assert code == 1
        assert "counterexample" in capsys.readouterr().out

    def test_weight_file_for_other_language_refused(self, tmp_path, capsys):
        path = tmp_path / "w.json"
        assert run_cli("build", "-k", "2", "-m", "2", "-o", str(path)) == 0
        capsys.readouterr()
        code = run_cli("verify", "-k", "3", "-m", "3", "--weights", str(path),
                       "--suite", "stack", "--strings", "20")
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error:") and "k=2, m=2" in line

    @pytest.mark.parametrize("suite", ["cross", "collide"])
    def test_weight_file_read_whatever_the_suites(self, tmp_path, capsys, suite):
        """A --weights file is read and checked even when no requested
        suite reads it."""
        path = tmp_path / "w.json"
        assert run_cli("build", "-k", "2", "-m", "2", "-o", str(path)) == 0
        for weights, k, message in ((tmp_path / "none.json", "2",
                                     "No such file or directory"),
                                    (path, "3", "k=2, m=2 but -k 3 -m 2")):
            capsys.readouterr()
            code = run_cli("verify", "-k", k, "-m", "2", "--suite", suite,
                           "--weights", str(weights))
            assert code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            (line,) = captured.err.splitlines()
            assert line.startswith("error:") and message in line

    def test_cross_compares_the_weight_file(self, tmp_path, capsys):
        """Under --weights, cross compares the file's network in place of
        the default construction of its architecture and encoding."""
        path = tmp_path / "w.json"
        save_weights(str(path), zero_close_rows(build_lstm(DyckParams(2, 2),
                                                           "binary")))
        argv = ("verify", "-k", "2", "-m", "2", "--weights", str(path))
        assert run_cli(*argv, "--suite", "equivalence") == 1
        assert ("counterexample='(1 (1 $ (support-only)'"
                in capsys.readouterr().out)
        assert run_cli(*argv, "--suite", "cross") == 1
        out = capsys.readouterr().out
        assert out.startswith("FAIL cross_construction_agreement")
        assert "counterexample='simple/onehot vs lstm/binary: (1 (1 $'" in out

    def test_cross_with_a_default_weight_file_unchanged(self, tmp_path, capsys):
        """A file saved from the default construction gives the cross
        report of the command without --weights, byte for byte."""
        path = tmp_path / "w.json"
        assert run_cli("build", "-k", "2", "-m", "3", "--arch", "lstm",
                       "--enc", "binary", "-o", str(path)) == 0
        capsys.readouterr()
        outputs = []
        for weights in ((), ("--weights", str(path))):
            js = tmp_path / f"report{len(outputs)}.json"
            assert run_cli("verify", "-k", "2", "-m", "3", "--suite", "cross",
                           "--max-len", "7", "--json-report", str(js),
                           *weights) == 0
            outputs.append((capsys.readouterr(), js.read_bytes()))
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("json_report", [False, True])
    @pytest.mark.parametrize("suite", ["equivalence", "cross"])
    @pytest.mark.parametrize("k,m,max_len", [(8, 1, 3572), (2, 2, 100000),
                                             (2, 2, 10000000)])
    def test_max_len_too_large_to_report_refused(self, tmp_path, capsys, suite,
                                                 json_report, k, m, max_len):
        """A max_len whose reports would count the strings checked in more
        digits than an int prints (4,300) is refused before any walk: at
        k=8, 3572 is the first such length, as cross over the five
        constructions would check 5 * total_string_count(8, 3572) >=
        10^4300 strings."""
        js = tmp_path / "report.json"
        report = ("--json-report", str(js)) if json_report else ()
        code = run_cli("verify", "-k", str(k), "-m", str(m), "--suite", suite,
                       "--arch", "simple", "--enc", "onehot",
                       "--max-len", str(max_len), *report)
        assert code == 2 and not js.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith(f"error: max_len={max_len} is too large")
        if max_len == 3572:
            assert 5 * total_string_count(8, 3572) >= 10**4300

    def test_last_reportable_max_len(self, tmp_path, capsys):
        """At k=8 the longest max_len accepted, 3571, prints every report,
        summary line and JSON, whose `checked` has up to 4,300 digits (the
        JSON report writes each count the summary prints)."""
        js = tmp_path / "report.json"
        for suite, constructions, digits in (("equivalence", 1, 4299),
                                             ("cross", 5, 4300)):
            assert run_cli("verify", "-k", "8", "-m", "1", "--suite", suite,
                           "--arch", "simple", "--enc", "onehot",
                           "--max-len", "3571", "--json-report", str(js)) == 0
            checked = constructions * total_string_count(8, 3571)
            (report,) = json.loads(js.read_text())
            assert report["checked"] == checked and report["passed"]
            assert len(str(checked)) == digits
            assert f"checked={checked}" in capsys.readouterr().out

    @pytest.mark.parametrize("overrides,named", [
        (("--beta", "0.5"), "--beta"),
        (("--lambda", "90"), "--lambda"),
        (("--zeta", "inf", "--beta", "0.5"), "--beta, --zeta"),
        (("--beta", "20", "--lambda", "90", "--zeta", "3"),
         "--beta, --lambda, --zeta")])
    @pytest.mark.parametrize("suite", ["margins", "cross"])
    def test_numeric_override_with_weights_refused(self, tmp_path, capsys,
                                                   overrides, named, suite):
        """The file's constants are the ones verified, so an override that
        would not be applied is refused rather than dropped."""
        path = tmp_path / "w.json"
        assert run_cli("build", "--arch", "lstm", "-k", "2", "-m", "2",
                       "-o", str(path)) == 0
        capsys.readouterr()
        code = run_cli("verify", "-k", "2", "-m", "2", "--weights", str(path),
                       "--suite", suite, "--strings", "20", *overrides)
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: {named} cannot be given with --weights: the weight file "
            f"holds its own constants"]

    @pytest.mark.parametrize("strings", ["0", "-1"])
    def test_empty_corpus_refused(self, capsys, strings):
        code = run_cli("verify", "-k", "2", "-m", "2", "--suite", "stack",
                       "--strings", strings)
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error:") and "n_strings" in line

    def test_cross_honours_naive_budget(self, tmp_path, capsys):
        """Over the budget, cross leaves the naive network out and names
        it; under a larger one it compares it."""
        js = tmp_path / "report.json"
        argv = ("verify", "-k", "4", "-m", "3", "--suite", "cross",
                "--max-len", "4", "--json-report", str(js))
        assert run_cli(*argv) == 0
        assert capsys.readouterr().out.startswith("PASS cross_construction_agreement")
        (report,) = json.loads(js.read_text())
        assert "naive" not in report["details"]["constructions"]
        assert list(report["details"]["left_out"]) == ["naive"]
        assert "over the budget of 100000" in report["details"]["left_out"]["naive"]
        assert run_cli(*argv, "--naive-budget", "500000") == 0
        assert capsys.readouterr().out.startswith("PASS cross_construction_agreement")
        (report,) = json.loads(js.read_text())
        assert report["details"]["constructions"][-1] == "naive"
        assert "left_out" not in report["details"]

    @pytest.mark.parametrize("arch", ["simple", "lstm"])
    def test_every_suite_at_k8_m3_reports(self, tmp_path, capsys, arch):
        """The naive network at (8, 3) is over the default budget: a
        command that does not verify it ends with reports, cross leaving it
        out."""
        js = tmp_path / "report.json"
        code = run_cli("verify", "-k", "8", "-m", "3", "--arch", arch,
                       "--strings", "50", "--json-report", str(js))
        assert code == 0
        reports = json.loads(js.read_text())
        assert capsys.readouterr().out.count("PASS") == len(reports) == 12
        (cross,) = [r for r in reports
                    if r["suite"] == "cross_construction_agreement"]
        assert cross["details"]["constructions"] == [
            "simple/onehot", "simple/binary", "lstm/onehot", "lstm/binary"]
        assert list(cross["details"]["left_out"]) == ["naive"]
        assert "9392 units" in cross["details"]["left_out"]["naive"]

    def test_walk_refused_from_the_language_count(self, monkeypatch, capsys):
        """The LSTM/binary walk at (16, 5) up to length 8 is refused before
        any node of depth 4 is stepped: depth 5 holds a node per stack, at
        least 1,052,688, and with the 70,179 nodes of depths 0-4 that is
        over the budget."""
        rows = []

        def counting_step_rows(paramset, h, c, cols, real=product.step_rows):
            rows.append(len(cols))
            return real(paramset, h, c, cols)

        monkeypatch.setattr(product, "step_rows", counting_step_rows)
        assert run_cli("verify", "-k", "16", "-m", "5", "--suite", "equivalence",
                       "--max-len", "8", "--arch", "lstm", "--enc", "binary") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: the product graph walk up to max_len=8 exceeded the node "
            "budget of 1000000"]
        # the edges out of depths 0-3, each stepped once: out of each stack
        # of height d < 4, the k opens and, above 0, the close
        k = 16
        assert sum(rows) == sum(k**d * (k + (d > 0)) for d in range(4))

    def test_enumerate_workload_walks_once_per_command(self, monkeypatch, capsys,
                                                       tmp_path):
        """Each verify command of the enumerate benchmark walks the language
        and every construction it reads in one product graph walk."""
        monkeypatch.syspath_prepend(PERFBENCH)
        from workloads import ENUMERATE_COMMANDS
        calls = spy_graph_walks(monkeypatch)
        for label, args, expected in ENUMERATE_COMMANDS:
            calls.clear()
            report = tmp_path / f"{label}.json"
            assert run_cli("verify", *args, "--json-report", str(report)) == 0
            walked = {entry["architecture"] + "/" + str(entry["encoding"])
                      for entry in expected if "architecture" in entry}
            ((language, *nets),) = calls
            assert language == DyckParams(*map(int, args[1:4:2]))
            assert len(nets) == len(walked), label


    def test_budget_refusal_before_any_suite(self, monkeypatch, capsys):
        """A construction the suites verify is refused before the first
        suite runs."""
        def refuse(*args, **kwargs):
            raise AssertionError("a suite ran")

        for name in ("walk_graph", "check_corpus_suites"):
            monkeypatch.setattr(verify, name, refuse)
        monkeypatch.setattr(cli, "check_corpus_suites", refuse)
        monkeypatch.setattr(cli, "sample_strings", refuse)
        assert run_cli("verify", "-k", "8", "-m", "3") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: naive automaton network needs 9392 units")

    def test_corpus_counted_once_per_command(self, monkeypatch, capsys):
        """Every construction's corpus suites read one sampled Corpus, whose
        counts are each taken once."""
        counted = []
        for name in ("_consumed", "_rejections", "_stacks"):
            def spy(corpus, *args, real=getattr(Corpus, name), name=name):
                counted.append((name, id(corpus)))
                return real(corpus, *args)

            monkeypatch.setattr(Corpus, name, spy)
        assert run_cli("verify", "-k", "2", "-m", "3", "--suite", "stack",
                       "--suite", "margins", "--suite", "saturation",
                       "--strings", "40") == 0
        assert capsys.readouterr().out.count("PASS") == 15
        assert sorted(name for name, _ in counted) == [
            "_consumed", "_rejections", "_stacks"]
        assert len({corpus for _, corpus in counted}) == 1

    def test_empty_construction_selection_refused(self, capsys):
        code = run_cli("verify", "-k", "1", "-m", "2", "--arch", "simple",
                       "--enc", "binary", "--suite", "stack")
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error:") and "--arch simple --enc binary" in line

    def test_round_trip_matches_in_memory(self, tmp_path):
        from dyckrnn.automaton import DyckParams
        from dyckrnn.builders import build_simple_rnn
        path = tmp_path / "w.json"
        assert run_cli("build", "--arch", "simple", "-k", "2", "-m", "2",
                       "-o", str(path)) == 0
        in_memory = check_generation_equivalence(
            build_simple_rnn(DyckParams(2, 2)), max_len=8)
        from_file = check_generation_equivalence(load_weights(str(path)),
                                                 max_len=8)
        assert in_memory.passed == from_file.passed
        assert in_memory.details == from_file.details


class TestParser:
    def test_repeated_calls_leak_no_arguments(self, monkeypatch):
        """main builds its parser once; each call still starts from the
        defaults, with no --suite appended by an earlier call."""
        seen = []
        monkeypatch.setattr(cli, "cmd_verify",
                            lambda args: seen.append(vars(args).copy()) or 0)
        base = ["verify", "-k", "2", "-m", "2"]
        assert main(base + ["--suite", "stack", "--suite", "margins",
                            "--beta", "0.5", "--arch", "lstm"]) == 0
        assert main(base + ["--suite", "cross"]) == 0
        assert main(base) == 0
        assert [s["suite"] for s in seen] == [["stack", "margins"], ["cross"],
                                              None]
        assert [s["beta"] for s in seen] == [0.5, None, None]
        assert [s["arch"] for s in seen] == ["lstm", "all", "all"]
        assert seen[2] == vars(cli.build_parser().parse_args(base))
        assert cli._parser() is cli._parser()


class TestMetric:
    @pytest.fixture
    def weights_and_corpus(self, tmp_path):
        w = tmp_path / "w.json"
        c = tmp_path / "c.txt"
        assert run_cli("build", "--arch", "lstm", "--enc", "binary",
                       "-k", "8", "-m", "3", "-o", str(w)) == 0
        assert run_cli("sample", "-k", "8", "-m", "3", "--tokens", "3000",
                       "--seed", "5", "-o", str(c)) == 0
        return w, c

    def test_constructed_network_scores_one(self, weights_and_corpus, capsys):
        w, c = weights_and_corpus
        assert run_cli("metric", "--weights", str(w), "--corpus", str(c)) == 0
        out = capsys.readouterr().out
        assert "mean_p: 1.0" in out
        assert "separation" in out

    def test_uniform_baseline_scores_zero(self, weights_and_corpus, capsys):
        w, c = weights_and_corpus
        assert run_cli("metric", "--weights", str(w), "--corpus", str(c),
                       "--uniform-baseline") == 0
        assert "mean_p: 0.0" in capsys.readouterr().out

    def test_readout_rows_are_counted(self, weights_and_corpus, capsys):
        """The exact LSTM's h exposes only the top slot, so the closes of
        the (8, 3) corpus are read out from m*k = 24 distinct rows; the
        uniform baseline reads none out and prints no such line."""
        w, c = weights_and_corpus
        closes = c.read_text().count(")")
        assert run_cli("metric", "--weights", str(w), "--corpus", str(c)) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-2:] == [f"readout rows: 24 for {closes} closes",
                              "mean_p: 1.0"]
        assert run_cli("metric", "--weights", str(w), "--corpus", str(c),
                       "--uniform-baseline") == 0
        assert "readout rows" not in capsys.readouterr().out

    @pytest.mark.parametrize("baseline", [(), ("--uniform-baseline",)])
    def test_corpus_opens_are_sorted_once(self, weights_and_corpus,
                                          monkeypatch, baseline):
        """The refusal of strings outside the language and the separations
        read one match array: each metric mode sorts the corpus once."""
        w, c = weights_and_corpus
        sorts, real = [], Corpus._matches
        monkeypatch.setattr(Corpus, "_matches", lambda self, depth: (
            sorts.append(len(self)) or real(self, depth)))
        assert run_cli("metric", "--weights", str(w), "--corpus", str(c),
                       *baseline) == 0
        assert len(sorts) == 1

    @pytest.mark.parametrize("baseline", [(), ("--uniform-baseline",)])
    @pytest.mark.parametrize("threshold", ["nan", "1", "-0.5"])
    def test_threshold_outside_unit_interval_refused(self, weights_and_corpus,
                                                     capsys, threshold, baseline):
        w, c = weights_and_corpus
        capsys.readouterr()
        assert run_cli("metric", "--weights", str(w), "--corpus", str(c),
                       "--threshold", threshold, *baseline) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: threshold must lie in [0, 1)")

    def test_mismatched_corpus_refused(self, tmp_path, weights_and_corpus, capsys):
        w, _ = weights_and_corpus
        other = tmp_path / "other.txt"
        run_cli("sample", "-k", "2", "-m", "3", "--tokens", "200",
                "--seed", "1", "-o", str(other))
        assert run_cli("metric", "--weights", str(w),
                       "--corpus", str(other)) == 2


class TestMetricInputErrors:
    """Malformed metric inputs exit 2 with one stderr line, no traceback."""

    @pytest.fixture
    def files(self, tmp_path):
        w = tmp_path / "w.json"
        c = tmp_path / "c.txt"
        assert run_cli("build", "-k", "2", "-m", "2", "-o", str(w)) == 0
        c.write_text("# dyckrnn-corpus schema=1 k=2 m=2 seed=0 min_len=1 "
                     "max_len=120 prng=numpy-pcg64\n(1 )1 $\n")
        return w, c

    def assert_refused(self, capsys, *argv):
        capsys.readouterr()
        assert run_cli("metric", *argv) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error:")
        return line

    @pytest.mark.parametrize("baseline", [(), ("--uniform-baseline",)])
    def test_close_with_nothing_open(self, files, capsys, baseline):
        w, c = files
        c.write_text(c.read_text() + ")1 $\n")
        line = self.assert_refused(capsys, "--weights", str(w),
                                   "--corpus", str(c), *baseline)
        assert "not well nested" in line

    @pytest.mark.parametrize("baseline", [(), ("--uniform-baseline",)])
    @pytest.mark.parametrize("text,message", [
        ("(1 (1 (1 )1 )1 )1 $", "corpus string is deeper than m=2 at token 3: "
                                "(1 (1 (1 )1 )1 )1 $"),
        ("(1 )1", "corpus string has no end mark: (1 )1"),
        ("(2 $", "corpus string ends at depth 1: (2 $"),
        ("(1 )2 $", "corpus string is not well nested at token 2: (1 )2 $"),
        ("(3 )3 $", "corpus line 3: bracket index 3 is out of range for k=2"),
    ], ids=["depth", "end-mark", "open-at-end", "mismatch", "index"])
    def test_string_outside_the_language(self, files, capsys, baseline, text,
                                         message):
        w, c = files
        c.write_text(c.read_text() + text + "\n(2 )2 $\n")
        capsys.readouterr()
        assert run_cli("metric", "--weights", str(w), "--corpus", str(c),
                       *baseline) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {message}"]

    @pytest.mark.parametrize("baseline", [(), ("--uniform-baseline",)])
    def test_first_string_outside_is_named(self, files, capsys, baseline):
        w, c = files
        c.write_text(c.read_text() + "(1 )1\n(1 (1 (1 )1 )1 )1 $\n)2 $\n")
        line = self.assert_refused(capsys, "--weights", str(w), "--corpus",
                                   str(c), *baseline)
        assert line == "error: corpus string has no end mark: (1 )1"

    @pytest.mark.parametrize("baseline", [(), ("--uniform-baseline",)])
    @pytest.mark.parametrize("strings", ["", "(1 )1 $\n"], ids=["empty", "string"])
    def test_header_checked_before_its_language_is_built(
            self, files, capsys, monkeypatch, baseline, strings):
        """A header for another k is refused before anything is sized by
        its k, so a huge k in a header cannot exhaust memory."""
        w, c = files
        c.write_text(c.read_text().splitlines()[0].replace("k=2", "k=1000")
                     + "\n" + strings)
        real = sampler.vocabulary

        def vocabulary(k):
            assert k != 1000, "the vocabulary was built for the header's k"
            return real(k)

        monkeypatch.setattr(sampler, "vocabulary", vocabulary)
        line = self.assert_refused(capsys, "--weights", str(w), "--corpus",
                                   str(c), *baseline)
        assert line == ("error: corpus is for k=1000, m=2 but weights are for "
                        "k=2, m=2")

    @pytest.mark.parametrize("field", ["k", "m"])
    def test_header_without_language(self, files, capsys, field):
        w, c = files
        lines = c.read_text().splitlines()
        lines[0] = lines[0].replace(f" {field}=2", "")
        c.write_text("\n".join(lines) + "\n")
        line = self.assert_refused(capsys, "--weights", str(w), "--corpus", str(c))
        assert f"{field}=" in line

    @pytest.mark.parametrize("old,new", [("k=2", "k=abc"), ("seed=0", "seed=x"),
                                         ("seed=0", "seed=0 foo")],
                             ids=["k", "seed", "bare-word"])
    def test_header_field_not_an_integer(self, files, capsys, old, new):
        w, c = files
        c.write_text(c.read_text().replace(old, new, 1))
        line = self.assert_refused(capsys, "--weights", str(w), "--corpus", str(c))
        field = new.split()[-1]
        assert line == f"error: corpus header field {field} is not an integer"

    @pytest.mark.parametrize("path", [("numeric_config",), ("matrices",),
                                      ("matrices", "W")])
    def test_weight_document_without_field(self, files, capsys, path):
        w, c = files
        doc = json.loads(w.read_text())
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        del parent[path[-1]]
        w.write_text(json.dumps(doc))
        line = self.assert_refused(capsys, "--weights", str(w), "--corpus", str(c))
        assert repr(path[-1]) in line

    @pytest.mark.parametrize("content", [
        "# dyckrnn-corpus schema=1 k=2 m=2\n(1 )1 $\n".encode(), b"",
        b"\xff\xfe\x00", b'{"schema_version": 2,'],
        ids=["corpus", "empty", "not-text", "truncated"])
    @pytest.mark.parametrize("command", ["metric", "verify"])
    def test_weight_file_not_json_is_named(self, files, capsys, content,
                                           command):
        w, c = files
        w.write_bytes(content)
        capsys.readouterr()
        argv = (["metric", "--weights", str(w), "--corpus", str(c)]
                if command == "metric" else
                ["verify", "-k", "2", "-m", "2", "--weights", str(w)])
        assert run_cli(*argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith(f"error: {w} is not a JSON weight file: ")

    @pytest.mark.parametrize("edit,message", [
        (lambda doc: [], "weight document is a JSON list"),
        (lambda doc: doc["matrices"]["W"].update(shape=5), "matrix W has shape 5"),
        (lambda doc: doc.update(matrices=[]), "matrices is a JSON list"),
        (lambda doc: doc.update(numeric_config=[1]), "numeric_config is a JSON list"),
        (lambda doc: doc.update(k=2.9), "weight document k is 2.9, not an integer"),
        (lambda doc: doc.update(m=True), "weight document m is true, not an integer"),
        (lambda doc: doc["matrices"]["b_v"]["data"].__setitem__(0, float("nan")),
         "matrix b_v holds a value that is not finite"),
        (lambda doc: doc["matrices"]["W"]["data"].__setitem__(3, float("-inf")),
         "matrix W holds a value that is not finite"),
        (lambda doc: doc["numeric_config"].update(zeta=float("inf")),
         "zeta must be finite, got inf"),
    ], ids=["not-an-object", "shape-not-a-list", "matrices-list",
            "numeric-config-list", "fractional-k", "boolean-m", "nan-entry",
            "infinite-entry", "infinite-zeta"])
    @pytest.mark.parametrize("command", ["metric", "verify"])
    def test_malformed_weight_document(self, files, capsys, edit, message,
                                       command):
        w, c = files
        doc = json.loads(w.read_text())
        edited = edit(doc)
        w.write_text(json.dumps(doc if edited is None else edited))
        capsys.readouterr()
        if command == "metric":
            line = self.assert_refused(capsys, "--weights", str(w),
                                       "--corpus", str(c))
        else:
            assert run_cli("verify", "-k", "2", "-m", "2", "--weights", str(w),
                           "--suite", "stack", "--strings", "5") == 2
            (line,) = capsys.readouterr().err.splitlines()
            assert line.startswith("error:")
        assert message in line

    def metric_run(self, capsys, w, c, *baseline):
        capsys.readouterr()
        code = run_cli("metric", "--weights", str(w), "--corpus", str(c),
                       *baseline)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    @staticmethod
    def edited(edit):
        def damage(text):
            doc = json.loads(text)
            edit(doc)
            return json.dumps(doc)

        return damage

    @pytest.mark.parametrize("damage,message", [
        (edited(lambda doc: doc["matrices"]["b_v"]["data"].__setitem__(
            0, float("nan"))), "matrix b_v holds a value that is not finite"),
        (edited(lambda doc: doc["matrices"]["W"]["data"].__setitem__(
            3, float("-inf"))), "matrix W holds a value that is not finite"),
        (edited(lambda doc: doc["matrices"]["W"].update(shape=5)),
         "matrix W has shape 5"),
        (edited(lambda doc: doc["matrices"]["W"]["data"].pop()),
         "matrix W has shape (8, 8) with 63 values"),
    ], ids=["nan-entry", "infinite-entry", "shape-not-a-list", "short-W"])
    def test_baseline_reads_no_matrix(self, files, capsys, damage, message):
        """The baseline reads only the header: a damaged matrix, which
        plain metric refuses, leaves its report as the intact file's."""
        w, c = files
        intact = self.metric_run(capsys, w, c, "--uniform-baseline")
        assert intact[0] == 0 and intact[1].endswith("mean_p: 0.0\n")
        w.write_text(damage(w.read_text()))
        code, out, err = self.metric_run(capsys, w, c)
        assert (code, out) == (2, "") and message in err
        assert self.metric_run(capsys, w, c, "--uniform-baseline") == intact

    @pytest.mark.parametrize("build", [("-k", "2", "-m", "2"),
                                       ("--arch", "lstm", "-k", "8", "-m", "3")],
                             ids=["small", "large"])
    @pytest.mark.parametrize("layout,refused", [
        (lambda text: text[:len(text) // 2], "is not a JSON weight file"),
        (lambda text: "{" + " " * 5000 + text[1:], None),
        (lambda text: json.dumps({"matrices": json.loads(text)["matrices"],
                                  **json.loads(text)}), None),
    ], ids=["cut-in-matrices", "long-header", "matrices-first"])
    def test_baseline_reads_any_layout(self, tmp_path, capsys, build, layout,
                                       refused):
        """The baseline reads the header from the file's first characters
        (the small file lies in them whole, the large one does not), or
        parses the file whole when they do not hold it, decoding past
        matrices that come first; plain metric reads every layout but the
        cut one."""
        w, c = tmp_path / "w.json", tmp_path / "c.txt"
        language = build[-4:]
        assert run_cli("build", *build, "-o", str(w)) == 0
        assert run_cli("sample", *language, "--tokens", "300", "-o", str(c)) == 0
        want = [self.metric_run(capsys, w, c, *baseline)
                for baseline in ((), ("--uniform-baseline",))]
        w.write_text(layout(w.read_text()))
        code, out, err = plain = self.metric_run(capsys, w, c)
        if refused:
            assert (code, out) == (2, "") and refused in err
        else:
            assert plain == want[0]
        assert self.metric_run(capsys, w, c, "--uniform-baseline") == want[1]

    @pytest.mark.parametrize("damage", [
        lambda text: "# dyckrnn-corpus schema=1 k=2 m=2\n(1 )1 $\n",
        lambda text: "",
        lambda text: b"\xff\xfe\x00",
        lambda text: '{"schema_version": 2,',
        lambda text: text[:text.index('"matrices"') - 3],
        lambda text: text.replace('"k": 2', '"k": 2.5', 1),
        lambda text: text.replace('"m": 2', '"m": true', 1),
        lambda text: text.replace('"k": 2', '"k": 0', 1),
        lambda text: text.replace('"schema_version": 2', '"schema_version": 9', 1),
        lambda text: text.replace('"zeta": ', '"zeta": 1e999, "z": ', 1),
        lambda text: "[]",
    ], ids=["corpus", "empty", "not-text", "truncated", "cut-before-matrices",
            "fractional-k", "boolean-m", "k-zero", "unknown-schema",
            "infinite-zeta", "not-an-object"])
    def test_header_fault_reads_the_same_in_both_modes(self, files, capsys,
                                                       damage):
        w, c = files
        damaged = damage(w.read_text())
        if isinstance(damaged, bytes):
            w.write_bytes(damaged)
        else:
            w.write_text(damaged)
        plain = self.metric_run(capsys, w, c)
        assert plain[0] == 2 and plain[1] == ""
        (line,) = plain[2].splitlines()
        assert line.startswith("error:")
        assert self.metric_run(capsys, w, c, "--uniform-baseline") == plain

    @pytest.mark.parametrize("language", [("-k", "3", "-m", "2"),
                                          ("-k", "2", "-m", "3")])
    def test_other_language_reads_the_same_in_both_modes(self, files, capsys,
                                                         language):
        w, c = files
        assert run_cli("build", *language, "-o", str(w)) == 0
        plain = self.metric_run(capsys, w, c)
        assert plain[0] == 2 and plain[2].startswith(
            "error: corpus is for k=2, m=2 but weights are for")
        assert self.metric_run(capsys, w, c, "--uniform-baseline") == plain

    @pytest.mark.parametrize("field,value", [("k", -1), ("k", 0), ("m", 0)])
    @pytest.mark.parametrize("enc", ["onehot", "binary"])
    @pytest.mark.parametrize("command", ["metric", "verify"])
    def test_weight_file_language_below_one(self, files, capsys, field, value,
                                            enc, command):
        w, c = files
        assert run_cli("build", "--arch", "lstm", "--enc", enc, "-k", "2",
                       "-m", "2", "-o", str(w)) == 0
        doc = json.loads(w.read_text())
        doc[field] = value
        w.write_text(json.dumps(doc))
        capsys.readouterr()
        argv = (["metric", "--weights", str(w), "--corpus", str(c)]
                if command == "metric" else
                ["verify", "-k", "2", "-m", "2", "--weights", str(w)])
        assert run_cli(*argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: {field} must be >= 1, got {value}"]


WRITING_COMMANDS = pytest.mark.parametrize("argv", [
    ("build", "--arch", "lstm", "--enc", "binary", "-k", "2", "-m", "2", "-o"),
    ("sample", "-k", "2", "-m", "2", "--tokens", "10", "-o"),
    ("verify", "-k", "2", "-m", "2", "--suite", "stack", "--strings", "3",
     "--json-report")], ids=["build", "sample", "verify-report"])


@WRITING_COMMANDS
def test_failed_write_names_the_requested_path(tmp_path, capsys, argv):
    target = tmp_path / "missing" / "out.txt"
    assert run_cli(*argv, str(target)) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line == f"error: cannot write {target}: No such file or directory"
    assert not (tmp_path / "missing").exists()


@WRITING_COMMANDS
def test_failed_rename_names_the_requested_path(tmp_path, capsys, argv):
    target = tmp_path / "out"
    target.mkdir()
    assert run_cli(*argv, str(target)) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line == f"error: cannot write {target}: Is a directory"
    assert os.listdir(tmp_path) == ["out"] and os.listdir(target) == []
