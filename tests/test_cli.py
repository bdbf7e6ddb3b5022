import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import curveobs
from curveobs import cli, obstruction, selftest, twist_consistency
from curveobs.cli import _build_parser, main
from curveobs.words import MAX_GENUS, MAX_LETTERS, MAX_NESTING


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_paper_pair_json(self, capsys):
        code, out, _ = run(capsys, "analyze", "--genus", "2",
                           "--a", "x1 x2 y2 x2^-1", "--b", "y2 x1^-1",
                           "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["verdict"] == "certified_positive_theorem"
        assert data["obstruction"] == {"X1": "1"}

    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "analyze", "--genus", "2",
                           "--a", "x1 x2 y2 x2^-1", "--b", "y2 x1^-1")
        assert code == 0
        assert "certified_positive_theorem" in out
        assert "NOT in Z|a| + Z|b|" in out

    def test_dependent_pair(self, capsys):
        code, out, _ = run(capsys, "analyze", "--genus", "2",
                           "--a", "x1", "--b", "x1", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["iA"] == 0
        assert data["lattice"]["member"] is True
        assert data["verdict"] == "inconclusive"

    def test_json_roundtrip(self, capsys):
        code, out, _ = run(capsys, "analyze", "--genus", "2",
                           "--a", "x1 (x2 y2)^2 x2^-1", "--b", "zeta y2 x1^-1",
                           "--format", "json")
        assert code == 0
        data = json.loads(out)
        code2, out2, _ = run(capsys, "analyze", "--genus", str(data["genus"]),
                             "--a", data["a"], "--b", data["b"],
                             "--format", "json")
        assert code2 == 0 and json.loads(out2) == data

    def test_batch_pairs(self, capsys, tmp_path):
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("2\tx1 x2 y2 x2^-1\ty2 x1^-1\n"
                         "1\tx1\ty1\n"
                         "2\tx1\tx2^-1 [y1,zeta] zeta\n")
        code, out, _ = run(capsys, "analyze", "--pairs", str(pairs))
        assert code == 0
        lines = [json.loads(l) for l in out.strip().splitlines()]
        assert [l["verdict"] for l in lines] == [
            "certified_positive_theorem",
            "certified_positive_homological",
            "inconclusive",
        ]

    def test_batch_reports_a_bad_line_and_continues(self, capsys, tmp_path):
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("2\tx1 x2 y2 x2^-1\ty2 x1^-1\n"
                         "\n"
                         "1\tx1\tx7\n"
                         "1\tx1\ty1\n"
                         "2\tx1 x2\n"
                         "1\tx1\ty1\n")
        code, out, _ = run(capsys, "analyze", "--pairs", str(pairs))
        assert code == 1
        lines = [json.loads(l) for l in out.strip().splitlines()]
        assert len(lines) == 5
        assert lines[0]["verdict"] == "certified_positive_theorem"
        assert lines[1]["line"] == 2 and "x7" in lines[1]["error"]
        assert set(lines[1]) == {"line", "error"}
        assert lines[2]["verdict"] == "certified_positive_homological"
        # a line without three fields
        assert lines[3] == {"line": 4, "error": "bad batch line (need "
                            "genus<TAB>a<TAB>b): '2\\tx1 x2'"}
        assert lines[4]["verdict"] == "certified_positive_homological"

    def test_batch_non_utf8_line_is_one_error(self, capsys, tmp_path):
        # the bad byte sits past the decoder's first chunk: every line before
        # it, and none after, was lost when the file was decoded as a whole
        pairs = tmp_path / "pairs.tsv"
        pairs.write_bytes(b"1\tx1\ty1\n" * 2000 + b"1\tx1\txx\xff1\n")
        code, out, _ = run(capsys, "analyze", "--pairs", str(pairs))
        assert code == 1
        lines = [json.loads(l) for l in out.splitlines()]
        assert len(lines) == 2001
        assert all(l["verdict"] == "certified_positive_homological"
                   for l in lines[:2000])
        assert lines[2000] == {"line": 2001, "error": "'utf-8' codec can't "
                               "decode byte 0xff in position 7: invalid start byte"}

    def test_batch_non_utf8_lines_keep_the_numbering(self, capsys, tmp_path):
        pairs = tmp_path / "pairs.tsv"
        pairs.write_bytes(b"1\tx1\ty1\r\n\xff\xfe\r\n\r\n"
                          b"1\tx1 \xed\xa0\x80\tx1\n1\tx1\t\xc3\xa9\n2\tx1\tx2\n")
        code, out, _ = run(capsys, "analyze", "--pairs", str(pairs))
        assert code == 1
        lines = [json.loads(l) for l in out.splitlines()]
        assert [l.get("line") for l in lines] == [None, 2, 3, 4, None]
        assert "byte 0xff in position 0" in lines[1]["error"]
        assert "byte 0xed in position 5" in lines[2]["error"]
        assert lines[3]["error"] == "unknown token at '\u00e9'"
        assert lines[4]["verdict"] == "inconclusive"

    def test_batch_file_may_start_with_a_byte_order_mark(self, capsys, tmp_path):
        # editors on Windows write one; it is dropped at the start of the
        # file only, so a mark inside a later line still fails that line
        pairs = tmp_path / "pairs.tsv"
        pairs.write_bytes(b"\xef\xbb\xbf1\tx1\ty1\n\xef\xbb\xbf1\tx1\ty1\n")
        code, out, _ = run(capsys, "analyze", "--pairs", str(pairs))
        assert code == 1
        lines = [json.loads(l) for l in out.splitlines()]
        assert lines[0]["verdict"] == "certified_positive_homological"
        assert lines[1] == {"line": 2,
                            "error": "genus '\\ufeff1' is not an integer"}

    def test_batch_line_endings_keep_the_output(self, capsys, tmp_path):
        text = "2\tx1 x2 y2 x2^-1\ty2 x1^-1\n\n1\tx1\ty1\n2\tx1\tx1\n"
        outs = []
        for newline in ("\n", "\r\n", "\r"):
            pairs = tmp_path / "pairs.tsv"
            pairs.write_bytes(text.replace("\n", newline).encode())
            outs.append(run(capsys, "analyze", "--pairs", str(pairs)))
        assert outs[0][0] == 0 and len(outs[0][1].splitlines()) == 3
        assert outs[1] == outs[2] == outs[0]

    @pytest.mark.parametrize("extra", [
        ["--format", "text"], ["--format", "json"], ["--genus", "7"],
        ["--a", "zzz"], ["--b", "x1"]], ids=lambda e: " ".join(e))
    def test_batch_takes_no_other_option(self, capsys, tmp_path, extra):
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("1\tx1\ty1\n")
        code, out, err = run(capsys, "analyze", "--pairs", str(pairs), *extra)
        assert code == 1 and out == ""
        assert err == f"error: analyze --pairs takes no {extra[0]}\n"

    def test_parse_error_exit_code(self, capsys):
        code, _, err = run(capsys, "analyze", "--genus", "2",
                           "--a", "x9", "--b", "y1")
        assert code == 1
        assert "x9" in err

    def test_bad_token_named(self, capsys):
        code, _, err = run(capsys, "eval", "--genus", "1", "x1 & y1")
        assert code == 1
        assert "&" in err

    def test_missing_words(self, capsys):
        code, _, err = run(capsys, "analyze", "--genus", "2")
        assert code == 1

    def test_missing_genus(self, capsys):
        code, out, err = run(capsys, "analyze", "--a", "x1", "--b", "x2")
        assert code == 1 and out == ""
        assert err == "error: analyze needs --genus\n"

    def test_internal_error_exits_2(self, capsys, monkeypatch):
        def broken(genus, a, b):
            raise AssertionError("invariant broken")

        monkeypatch.setattr(cli, "analyze", broken)
        code, out, err = run(capsys, "analyze", "--genus", "1",
                             "--a", "x1", "--b", "y1")
        assert code == 2 and out == ""
        assert err == "internal error: invariant broken\n"


class TestUsageErrors:
    """argparse's own exit 2 would read as an internal invariant violation;
    usage errors are input errors and exit 1."""

    @pytest.mark.parametrize("argv", [
        ["analyze", "--format", "xml"],
        ["eval", "--genus", "two", "x1"],
        ["twist-check", "--genus", "1", "--a", "x1"],
        [],
    ], ids=["bad_choice", "bad_int", "missing_required", "no_subcommand"])
    def test_usage_error_exits_1(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert "usage:" in capsys.readouterr().err

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "usage:" in capsys.readouterr().out

    def test_version_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == f"curveobs {curveobs.__version__}\n"
        assert curveobs.__version__ == "0.1.0"


class TestInputLimits:
    def test_deep_nesting_is_an_input_error(self, capsys):
        code, _, err = run(capsys, "eval", "--genus", "1",
                           "(" * 3000 + "x1" + ")" * 3000)
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_nesting_up_to_the_limit_parses(self, capsys):
        depth = MAX_NESTING
        code, out, _ = run(capsys, "eval", "--genus", "1",
                           "(" * depth + "x1" + ")" * depth)
        assert code == 0
        assert "word : x1" in out

    @pytest.mark.parametrize("word", ["(x1 y1)^400000000",
                                      "[(x1)^600000, y1]",
                                      "x1^999999 y1^999999"])
    def test_oversized_expansion_fails_fast(self, capsys, word):
        code, _, err = run(capsys, "eval", "--genus", "1", word)
        assert code == 1
        assert err.startswith("error:") and str(MAX_LETTERS) in err

    def test_genus_past_the_limit_is_an_input_error(self, capsys):
        code, _, err = run(capsys, "eval", "--genus", str(MAX_GENUS + 1), "x1")
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1
        assert str(MAX_GENUS) in err

    def test_genus_at_the_limit_is_accepted(self, capsys):
        code, out, _ = run(capsys, "eval", "--genus", str(MAX_GENUS), "x1")
        assert code == 0
        assert "word : x1" in out

    def test_batch_line_past_the_genus_limit_continues(self, capsys, tmp_path):
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text(f"{MAX_GENUS + 1}\tx1\ty1\n"
                         "1\tx1\ty1\n")
        code, out, _ = run(capsys, "analyze", "--pairs", str(pairs))
        assert code == 1
        lines = [json.loads(l) for l in out.strip().splitlines()]
        assert lines[0] == {"line": 1,
                            "error": f"genus must be <= {MAX_GENUS}, "
                                     f"got {MAX_GENUS + 1}"}
        assert lines[1]["verdict"] == "certified_positive_homological"

    # past Python's 4300-digit int() limit, whose error names no token
    LONG = 5000

    @pytest.mark.parametrize("prefix,token,named", [
        ("", "x" + "1" * LONG, "out of range 1..1"),
        ("x1^", "9" * LONG, str(MAX_LETTERS)),
        ("x1^", "-" + "9" * LONG, str(MAX_LETTERS)),
    ], ids=["index", "exponent", "negative-exponent"])
    def test_overlong_number_token_is_named(self, capsys, prefix, token, named):
        code, _, err = run(capsys, "eval", "--genus", "1", prefix + token)
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1
        assert named in err and repr(token[:12]) in err
        assert "4300" not in err

    @pytest.mark.parametrize("word,expect", [
        ("1^" + "9" * LONG, "word : 1"),
        ("x" + "0" * LONG + "1", "word : x1"),
        ("x1^-" + "0" * LONG + "2", "word : x1^-2"),
    ], ids=["identity-power", "zero-padded-index", "zero-padded-exponent"])
    def test_overlong_number_with_a_small_value(self, capsys, word, expect):
        code, out, _ = run(capsys, "eval", "--genus", "1", word)
        assert code == 0
        assert expect in out

    def test_overlong_batch_genus_is_named(self, capsys, tmp_path):
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("1" * self.LONG + "\tx1\ty1\n"
                         "1\tx1\ty1\n")
        code, out, _ = run(capsys, "analyze", "--pairs", str(pairs))
        assert code == 1
        lines = [json.loads(l) for l in out.strip().splitlines()]
        assert lines[0]["line"] == 1 and set(lines[0]) == {"line", "error"}
        assert repr("1" * 12) in lines[0]["error"]
        assert str(MAX_GENUS) in lines[0]["error"]
        assert "4300" not in lines[0]["error"]
        assert lines[1]["verdict"] == "certified_positive_homological"

    # int() reads '_' separators and the digits of other scripts; a genus
    # field takes ASCII digits with an optional sign only
    NOT_ASCII_INTS = ["1_0", "\uff13", "\u0663", "+-3", "-"]

    @pytest.mark.parametrize("genus", NOT_ASCII_INTS)
    def test_genus_option_takes_ascii_digits_only(self, capsys, genus):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--genus", genus, "x1"])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert "usage:" in err
        assert f"argument --genus: genus {genus!r} is not an integer" in err

    @pytest.mark.parametrize("command", [
        ["eval", "x1"], ["analyze", "--a", "x1", "--b", "y1"],
        ["twist-check", "--a", "x1", "--b", "x1"]])
    def test_every_genus_option_is_parsed_alike(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command[0], "--genus", "1_0", *command[1:]])
        assert exc.value.code == 1
        assert "'1_0'" in capsys.readouterr().err
        assert run(capsys, command[0], "--genus", "+2", *command[1:])[0] == 0

    def test_batch_genus_takes_ascii_digits_only(self, capsys, tmp_path):
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("".join(f"{g}\tx1\ty1\n" for g in self.NOT_ASCII_INTS)
                         + "1\tx1\ty1\n", encoding="utf-8")
        code, out, _ = run(capsys, "analyze", "--pairs", str(pairs))
        assert code == 1
        lines = [json.loads(l) for l in out.strip().splitlines()]
        for n, (genus, line) in enumerate(zip(self.NOT_ASCII_INTS, lines), 1):
            assert line == {"line": n,
                            "error": f"genus {genus!r} is not an integer"}
        assert len(lines) == len(self.NOT_ASCII_INTS) + 1
        assert lines[-1]["verdict"] == "certified_positive_homological"


class TestTwistCheck:
    def test_consistent_pair(self, capsys):
        code, out, _ = run(capsys, "twist-check", "--genus", "2",
                           "--a", "x1 x2 y2 x2^-1", "--b", "y2 x1^-1")
        assert code == 0
        assert "True" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "twist-check", "--genus", "2",
                           "--a", "x1", "--b", "x2", "--format", "json")
        assert code == 0
        assert json.loads(out)["consistent"] is True

    def test_inconsistent_pair_exits_2(self, capsys, monkeypatch):
        # both sides are printed when the identity fails, each in the form
        # of the degree-2 tensor it is, its terms in the order computed
        def inconsistent(genus, a, b):
            ok, lhs, rhs = twist_consistency(genus, a, b)
            return False, lhs, rhs

        monkeypatch.setattr(cli, "twist_consistency", inconsistent)
        code, out, _ = run(capsys, "twist-check", "--genus", "2",
                           "--a", "x1 x2 y2 x2^-1", "--b", "y2 x1^-1")
        assert code == 2
        side = ("TruncTensor(genus=2, maxdeg=2, terms={(3, 0): Fraction(1, 1), "
                "(0, 3): Fraction(-1, 1)})")
        assert out.splitlines() == [
            "twist identity holds: False",
            f"derivation-exponential side: {side}",
            f"closed-form side:            {side}",
        ]

    def test_nonzero_intersection_rejected(self, capsys):
        code, _, err = run(capsys, "twist-check", "--genus", "1",
                           "--a", "x1", "--b", "y1")
        assert code == 1

    def test_one_step_guard_is_an_internal_error(self, capsys, monkeypatch):
        # past a pairing check that reads 0, a pair with i_A != 0 reaches the
        # twist, whose one-step guard (sigma = 0) fails
        monkeypatch.setattr(obstruction, "_pairing", lambda za, zb: 0)
        code, out, err = run(capsys, "twist-check", "--genus", "1",
                             "--a", "x1", "--b", "y1")
        assert code == 2 and out == ""
        assert err.startswith("internal error: ") and "one-step twist" in err


class TestEval:
    def test_zeta(self, capsys):
        code, out, _ = run(capsys, "eval", "--genus", "2", "zeta",
                           "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["abs"] == {}
        assert data["ell"] == [
            {"basis": "X1^Y1", "coeff": "1"},
            {"basis": "X2^Y2", "coeff": "1"},
        ]

    def test_text(self, capsys):
        code, out, _ = run(capsys, "eval", "--genus", "2", "x1 x2 y2 x2^-1")
        assert code == 0
        assert "X1 + Y2" in out


class TestSelftest:
    def test_deterministic_and_green(self, capsys):
        code1, out1, _ = run(capsys, "selftest", "--seed", "5")
        code2, out2, _ = run(capsys, "selftest", "--seed", "5")
        assert code1 == code2 == 0
        assert out1 == out2
        assert "FAIL" not in out1

    def test_bad_iterations(self, capsys):
        code, _, err = run(capsys, "selftest", "--iterations", "0")
        assert code == 1

    # --seed and --iterations are read as a genus field is: int() would take
    # '1_0' as 10 and the digits of other scripts
    @pytest.mark.parametrize("option", ["--seed", "--iterations"])
    @pytest.mark.parametrize("token", ["1_0", "\uff13", "\u0663"])
    def test_int_options_take_ascii_digits_only(self, capsys, option, token):
        with pytest.raises(SystemExit) as exc:
            main(["selftest", option, token])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert "usage:" in err
        name = option[2:]
        assert f"argument {option}: {name} {token!r} is not an integer" in err

    def test_int_options_past_their_bound_are_named(self, capsys):
        token = "9" * 5000  # int() errs past 4300 digits, naming no token
        with pytest.raises(SystemExit) as exc:
            main(["selftest", "--seed", token])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert "argument --seed: seed '999999999999'... (5000 characters) " \
            "out of range" in err

    def test_int_options_read_sign_and_leading_zeros(self):
        args = _build_parser().parse_args(
            ["selftest", "--seed", "-0012", "--iterations", "+3"])
        assert (args.seed, args.iterations) == (-12, 3)

    def test_failing_criterion_exits_2(self, capsys, monkeypatch):
        def broken(rng, n):
            raise selftest.SelfTestFailure("a = x1, b = y1")

        criteria = list(selftest.CRITERIA)
        name, _, count = criteria[4]
        criteria[4] = (name, broken, count)
        monkeypatch.setattr(selftest, "CRITERIA", criteria)
        code, out, _ = run(capsys, "selftest", "--seed", "7")
        assert code == 2
        lines = out.splitlines()
        assert f"FAIL {name}: a = x1, b = y1" in lines
        assert sum(l.startswith("PASS ") for l in lines) == len(criteria) - 1
        assert lines[-1].startswith(f"{len(criteria) - 1}/{len(criteria)} ")


class TestImportFootprint:
    """Each CLI run is a fresh process, so the import is on every batch's
    critical path. `-S` keeps the interpreter's site imports out of sight."""

    HEAVY = ("dataclasses", "inspect", "ast", "typing", "random",
             "importlib.metadata", "curveobs.selftest")

    @staticmethod
    def python(*args):
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.run([sys.executable, "-S", *args], env=env,
                              capture_output=True, text=True, timeout=120)

    def test_cli_import_leaves_heavy_modules_unloaded(self):
        proc = self.python("-c", "import sys, curveobs.cli; print(sorted("
                           f"m for m in {self.HEAVY!r} if m in sys.modules))")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    # the twist path and the reference algebra: `analyze` needs none of them
    TWIST = ("curveobs.expansion", "curveobs.reference")

    def loaded_after(self, *argv):
        """The TWIST modules loaded by a fresh process that runs the CLI
        with argv, after its exit code."""
        proc = self.python("-c", (
            "import contextlib, io, sys\n"
            "from curveobs.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = main(sys.argv[1:])\n"
            f"print(code, sorted(m for m in {self.TWIST!r} if m in sys.modules))"),
            *argv)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    def test_cli_import_leaves_twist_and_reference_unloaded(self):
        proc = self.python("-c", "import sys, curveobs.cli; print(sorted("
                           f"m for m in {self.TWIST!r} if m in sys.modules))")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_analyze_loads_no_twist_or_reference_module(self, tmp_path):
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("2\tx1 x2 y2 x2^-1\ty2 x1^-1\n2\tx1\tx1 [y1,x2]\n")
        assert self.loaded_after("analyze", "--pairs", str(pairs)) == "0 []\n"
        assert self.loaded_after("analyze", "--genus", "2", "--a", "x1",
                                 "--b", "x2") == "0 []\n"

    def test_twist_check_loads_expansion_only(self):
        assert self.loaded_after(
            "twist-check", "--genus", "2", "--a", "x1 x2 y2 x2^-1",
            "--b", "y2 x1^-1") == "0 ['curveobs.expansion']\n"

    def test_expansion_loads_no_tensor_code(self):
        proc = self.python("-c", "import sys, curveobs.expansion; print(sorted("
                           f"m for m in {self.TWIST!r} if m in sys.modules))")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "['curveobs.expansion']\n"

    def test_reference_loads_no_expansion(self):
        # the reference twist sums its own series; the one-step production
        # twist is not among its dependencies
        proc = self.python("-c", "import sys, curveobs.reference; print(sorted("
                           f"m for m in {self.TWIST!r} if m in sys.modules))")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "['curveobs.reference']\n"

    def test_star_import_resolves_every_exported_name(self):
        proc = self.python("-c", "from curveobs import *\nimport curveobs\n"
                           "print([n for n in curveobs.__all__ if n not in globals()])")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_selftest_loads_on_demand(self):
        proc = self.python("-m", "curveobs.cli", "selftest", "--seed", "7")
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert sum(l.startswith("PASS ") for l in lines) == 10
        assert lines[-1] == "10/10 suites passed (seed=7, iterations=1)"
