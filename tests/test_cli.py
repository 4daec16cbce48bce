"""Command-line interface: commands, output shapes, exit codes."""

from __future__ import annotations

import subprocess
import sys

import pytest

from metaterm.cli import (
    EXIT_FAILURE,
    EXIT_OK,
    EXIT_UNDETERMINED,
    EXIT_USAGE,
    main,
)


def run(argv, capsys, stdin=None, monkeypatch=None):
    if stdin is not None:
        assert monkeypatch is not None
        import io

        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestReduce:
    def test_beta(self, capsys):
        code, out, _ = run(["reduce", r"(\x. x) a"], capsys)
        assert code == EXIT_OK and out.strip() == "a"

    def test_weak_head_only(self, capsys):
        code, out, _ = run(["reduce", r"\x. (\y. y) x"], capsys)
        assert code == EXIT_OK
        assert "\\" in out  # the lambda body is left untouched

    def test_projection_stlc(self, capsys):
        code, out, _ = run(["--lang", "stlc", "reduce", "first <a, b>"], capsys)
        assert code == EXIT_OK and out.strip() == "a"

    def test_j_on_refl(self, capsys):
        code, out, _ = run(
            ["--lang", "mltt", "reduce", r"J(A, a, \y. \q. C, d, a, refl a)"],
            capsys,
        )
        assert code == EXIT_OK and out.strip() == "d"

    def test_nontermination_is_undetermined(self, capsys):
        code, _, err = run(["reduce", r"(\x. x x) (\x. x x)"], capsys)
        assert code == EXIT_UNDETERMINED
        assert "undetermined" in err

    def test_ast_output(self, capsys):
        code, out, _ = run(["--output", "ast", "reduce", "a"], capsys)
        assert code == EXIT_OK and out.strip() == "Free(name='a')"

    @pytest.mark.parametrize("fuel", ["-3", "0"])
    def test_non_positive_budget_is_usage(self, fuel, capsys):
        code, out, err = run(["--reduce-fuel", fuel, "reduce", r"(\x. x) a"], capsys)
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "error: all search budgets must be positive\n"


class TestUnify:
    def test_stdin_projection(self, capsys, monkeypatch):
        code, out, _ = run(
            ["--lang", "stlc", "unify", "-"],
            capsys,
            stdin="?m[<t1, t2>] =?= t1\n",
            monkeypatch=monkeypatch,
        )
        assert code == EXIT_OK
        assert out.strip() == "?m[x1] := first x1"

    def test_file_input(self, capsys, tmp_path):
        problem = tmp_path / "problem.txt"
        problem.write_text(
            "# comment lines and blanks are skipped\n"
            "\n"
            "forall f. forall x. ?m[f x] =?= f x\n"
        )
        code, out, _ = run(["unify", str(problem)], capsys)
        assert code == EXIT_OK
        assert out.strip() == "?m[x1] := x1"

    def test_flex_flex_residual(self, capsys, monkeypatch):
        code, out, _ = run(
            ["unify"], capsys, stdin="?m1[] =?= ?m2[]\n", monkeypatch=monkeypatch
        )
        assert code == EXIT_OK
        assert out.strip() == "?m1[] =?= ?m2[]"

    def test_residuals_equal_up_to_binder_names_print_once(self, capsys, monkeypatch):
        stdin = "forall x. ?m[x] =?= ?n[x]\nforall y. ?m[y] =?= ?n[y]\n"
        code, out, _ = run(["unify"], capsys, stdin=stdin, monkeypatch=monkeypatch)
        assert code == EXIT_OK
        assert out.splitlines() == ["forall x. ?m[x] =?= ?n[x]"]

    def test_clash_exits_1(self, capsys, monkeypatch):
        code, _, err = run(
            ["unify"], capsys, stdin="f a =?= g a\n", monkeypatch=monkeypatch
        )
        assert code == EXIT_FAILURE
        assert "no solution" in err

    def test_escaping_binder_exits_1(self, capsys, monkeypatch):
        code, _, err = run(
            ["unify"], capsys, stdin="forall y. ?m[] =?= f y\n", monkeypatch=monkeypatch
        )
        assert code == EXIT_FAILURE

    def test_guess_loop_exits_2(self, capsys, monkeypatch):
        code, _, err = run(
            ["unify"], capsys, stdin="?m[] =?= c (?m[])\n", monkeypatch=monkeypatch
        )
        assert code == EXIT_UNDETERMINED
        assert "undetermined" in err

    def test_tiny_fuel_exits_2(self, capsys, monkeypatch):
        code, _, _ = run(
            ["--fuel", "1", "unify"],
            capsys,
            stdin=r"?m[] a =?= a (a (a a))" + "\n",
            monkeypatch=monkeypatch,
        )
        assert code == EXIT_UNDETERMINED

    def test_deterministic_output(self, capsys, monkeypatch):
        outputs = set()
        for _ in range(3):
            _, out, _ = run(
                ["--lang", "stlc", "unify", "-"],
                capsys,
                stdin="?m[<t1, t2>] =?= t2\n",
                monkeypatch=monkeypatch,
            )
            outputs.add(out)
        assert len(outputs) == 1

    def test_missing_file_is_usage_error(self, capsys):
        code, _, err = run(["unify", "/nonexistent/path"], capsys)
        assert code == EXIT_USAGE

    @pytest.mark.parametrize(
        "problem", ["?m[a] =?= ?m[a, b]\n", "?m[a] =?= ?m[a, b]\n?m[a, b] =?= f\n"]
    )
    def test_one_arity_per_metavariable(self, problem, capsys, monkeypatch):
        code, out, err = run(["unify"], capsys, stdin=problem, monkeypatch=monkeypatch)
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "error: metavariable ?m is applied to 1 and to 2 arguments\n"

    def test_ast_output(self, capsys, monkeypatch):
        problem = "forall x. ?m[x] =?= f x\n?a[] =?= ?b[]\n"
        argv = ["--output", "ast", "unify", "-"]
        code, out, _ = run(argv, capsys, stdin=problem, monkeypatch=monkeypatch)
        assert code == EXIT_OK
        assert out == (
            "?m := MetaAbs(arity=1, body=Op(tag='App',"
            " children=(Free(name='f'), Hole(index=0)), ann=None))\n"
            "<MetaApp(meta='a', args=()) =?= MetaApp(meta='b', args=())>\n"
        )


class TestInfer:
    def test_stlc_constant_function(self, capsys):
        code, out, _ = run(["--lang", "stlc", "infer", r"\x. \y. y"], capsys)
        assert code == EXIT_OK
        # ?a[] -> ?b[] -> ?b[] up to meta naming
        head, _, tail = out.strip().partition(" -> ")
        assert tail.count(head.strip()) == 0 and "->" in tail

    def test_mltt_identity_type(self, capsys):
        code, out, _ = run(["--lang", "mltt", "infer", "refl a"], capsys)
        assert code == EXIT_OK and out.strip() == "a = a"

    def test_one_arity_per_metavariable(self, capsys):
        code, out, err = run(["--lang", "mltt", "infer", "J(a, b, ?m[?m[]], a, a, a)"], capsys)
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "error: metavariable ?m is applied to 1 and to 0 arguments\n"

    def test_fresh_type_metas_avoid_input_names(self, capsys):
        code, out, _ = run(["--lang", "stlc", "infer", r"\x. ?t1[]"], capsys)
        assert (code, out) == (EXIT_OK, "?t2[] -> ?t3[]\n")

    def test_ast_output_shows_residuals_as_ast(self, capsys):
        argv = ["--lang", "stlc", "--output", "ast", "infer", r"\f. \x. f (f x)"]
        code, out, _ = run(argv, capsys)
        assert code == EXIT_OK
        assert out.splitlines()[1:] == [
            "<forall^2. MetaApp(meta='t3', args=()) =?= MetaApp(meta='t2', args=())>"
        ]

    def test_ulc_has_no_types(self, capsys):
        code, _, err = run(["infer", r"\x. x"], capsys)
        assert code == EXIT_USAGE
        assert "no type system" in err

    def test_head_steps_running_out_in_the_shown_type_is_undetermined(self, capsys):
        # Inference succeeds; normalising the inferred type for display
        # needs two head steps.
        argv = ["--lang", "stlc", "--reduce-fuel", "1", "infer", r"\(x : (\y. \z. y) A B). x"]
        code, out, err = run(argv, capsys)
        assert (code, out, err) == (
            EXIT_UNDETERMINED, "", "undetermined: no WHNF within 1 head steps\n"
        )

    def test_candidates_running_out_in_inference_is_undetermined(self, capsys):
        argv = ["--lang", "mltt", "--fuel", "20", "infer", r"J(?m[\x. first x], a, a, c, b, a)"]
        code, out, err = run(argv, capsys)
        assert (code, out, err) == (
            EXIT_UNDETERMINED, "", "undetermined: candidate budget (20) exhausted\n"
        )


class TestCheck:
    def test_mltt_polymorphic_identity(self, capsys):
        code, out, _ = run(
            ["--lang", "mltt", "check", r"\A. \x. x", ":", "(A : U) -> (x : A) -> A"],
            capsys,
        )
        assert code == EXIT_OK
        assert out.strip() == "(x : U) -> x -> x"

    def test_stlc_rejects_dependency(self, capsys):
        code, _, err = run(
            ["--lang", "stlc", "check", r"\A. \(x : A). x", ":", "?t[]"], capsys
        )
        assert code == EXIT_FAILURE
        assert "depends on its bound variable" in err

    def test_fresh_type_metas_avoid_expected_type_names(self, capsys):
        code, out, _ = run(
            ["--lang", "stlc", "check", r"\x. x", ":", "?t1[] -> ?t2[]"], capsys
        )
        assert (code, out) == (EXIT_OK, "?t5[] -> ?t5[]\n?t5[] =?= ?t1[]\n?t5[] =?= ?t2[]\n")

    def test_bad_colon_is_usage(self, capsys):
        code, _, _ = run(["--lang", "stlc", "check", "a", "::", "A"], capsys)
        assert code == EXIT_USAGE


class TestUsage:
    def test_no_command(self, capsys):
        assert run([], capsys)[0] == EXIT_USAGE

    def test_unknown_language(self, capsys):
        assert run(["--lang", "nope", "reduce", "a"], capsys)[0] == EXIT_USAGE

    def test_syntax_error(self, capsys):
        code, _, err = run(["reduce", "f ("], capsys)
        assert code == EXIT_USAGE
        assert "syntax error" in err

    def test_unknown_construct(self, capsys):
        code, _, err = run(["reduce", "first t"], capsys)
        assert code == EXIT_USAGE
        assert "not part of language" in err

    def test_help_exits_0(self, capsys):
        assert run(["--help"], capsys)[0] == 0


def test_console_script_round_trip():
    """The installed entry point behaves like main()."""
    done = subprocess.run(
        [sys.executable, "-m", "metaterm", "--lang", "stlc", "unify", "-"],
        input="?m[<t1, t2>] =?= t1\n",
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0
    assert done.stdout.strip() == "?m[x1] := first x1"


def test_console_script_exit_codes():
    cases = [
        ("f a =?= g a\n", 1),
        ("?m[] =?= c (?m[])\n", 2),
        ("f a =?=\n", 64),
    ]
    for stdin, expected in cases:
        done = subprocess.run(
            [sys.executable, "-m", "metaterm", "unify", "-"],
            input=stdin,
            capture_output=True,
            text=True,
        )
        assert done.returncode == expected, (stdin, done.stderr)
