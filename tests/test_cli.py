import json
import os
import re
import shutil
import subprocess
import sys
import time
from importlib.metadata import EntryPoint, entry_points
from pathlib import Path

import pytest

from arithver.cli import main, tree_json
from arithver.terms import (Add, And, BExists, BForall, Eq, Exists, FalseC,
                            Forall, Iff, Implies, Lit, Lt, Mul, Not, Or,
                            TrueC, Var)
from arithver.whilelang import Assign, If, Seq, While

COUNT = "y:=0; while y<x do y:=y+1 od"


def run_cli(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--json")
    return code, json.loads(out)


def test_parse_formula(capsys):
    code, out, _ = run_cli(capsys, "parse-formula", "exists y. y*y = 49")
    assert code == 0
    assert out.strip() == "(exists y . (y * y) = 49)"


def test_parse_formula_json(capsys):
    code, tree = run_json(capsys, "parse-formula", "x < 3 -> x < 4")
    assert code == 0
    assert tree["kind"] == "implies"
    assert tree["left"] == {"kind": "lt", "left": {"kind": "var", "name": "x"},
                            "right": {"kind": "lit", "value": 3}}


def _v(name):
    return {"kind": "var", "name": name}


def test_tree_json_every_kind():
    x, y, z, w = Var("x"), Var("y"), Var("z"), Var("w")
    f = And(Or(TrueC(), FalseC()),
            Implies(Not(Eq(Lit(0), Lit(1))),
                    Iff(Forall(x, Lt(x, Lit(2))),
                        Exists(y, BForall(z, Add(x, Mul(y, Lit(3))),
                                          BExists(w, z, Eq(w, z)))))))
    p = Seq(Assign(x, Add(Lit(0), Lit(1))),
            If(Implies(Lt(x, Lit(1)), Not(Lt(y, Lit(2)))),
               Assign(x, Lit(0)),
               While(Lt(y, x), Assign(y, Mul(y, Lit(1))))))
    want_f = {"kind": "and",
              "left": {"kind": "or", "left": {"kind": "true"},
                       "right": {"kind": "false"}},
              "right": {"kind": "implies",
                        "left": {"kind": "not",
                                 "body": {"kind": "eq",
                                          "left": {"kind": "lit", "value": 0},
                                          "right": {"kind": "lit", "value": 1}}},
                        "right": {
                            "kind": "iff",
                            "left": {"kind": "forall", "var": "x",
                                     "body": {"kind": "lt", "left": _v("x"),
                                              "right": {"kind": "lit",
                                                        "value": 2}}},
                            "right": {
                                "kind": "exists", "var": "y",
                                "body": {
                                    "kind": "bforall", "var": "z",
                                    "bound": {"kind": "add", "left": _v("x"),
                                              "right": {"kind": "mul",
                                                        "left": _v("y"),
                                                        "right": {"kind": "lit",
                                                                  "value": 3}}},
                                    "body": {"kind": "bexists", "var": "w",
                                             "bound": _v("z"),
                                             "body": {"kind": "eq",
                                                      "left": _v("w"),
                                                      "right": _v("z")}}}}}}}
    want_p = {"kind": "seq", "statements": [
        {"kind": "assign", "var": "x",
         "expr": {"kind": "add", "left": {"kind": "lit", "value": 0},
                  "right": {"kind": "lit", "value": 1}}},
        {"kind": "if",
         "guard": {"kind": "implies",
                   "left": {"kind": "lt", "left": _v("x"),
                            "right": {"kind": "lit", "value": 1}},
                   "right": {"kind": "not",
                             "body": {"kind": "lt", "left": _v("y"),
                                      "right": {"kind": "lit", "value": 2}}}},
         "then": {"kind": "assign", "var": "x",
                  "expr": {"kind": "lit", "value": 0}},
         "else": {"kind": "while",
                  "guard": {"kind": "lt", "left": _v("y"), "right": _v("x")},
                  "body": {"kind": "assign", "var": "y",
                           "expr": {"kind": "mul", "left": _v("y"),
                                    "right": {"kind": "lit", "value": 1}}}}}]}
    # dumps compares key order too: kind first, then the fields in order
    assert json.dumps(tree_json(f)) == json.dumps(want_f)
    assert json.dumps(tree_json(p)) == json.dumps(want_p)


def test_parse_error_exit_code(capsys):
    code, out, err = run_cli(capsys, "parse-formula", "x + = 1")
    assert code == 3
    assert "parse error" in err and "bytes" in err


def test_usage_error_exit_code(capsys):
    assert main(["no-such-command"]) == 3


def test_parse_program_json(capsys):
    code, tree = run_json(capsys, "parse-program", COUNT)
    assert code == 0
    assert tree["kind"] == "seq"
    first, loop = tree["statements"]
    assert first["kind"] == "assign" and loop["kind"] == "while"
    # a guard is a formula, so it prints with the formula kinds
    assert loop["guard"] == {"kind": "lt", "left": _v("y"), "right": _v("x")}


def _json_depth(tree):
    todo, deepest = [(tree, 1)], 0
    while todo:
        v, d = todo.pop()
        deepest = max(deepest, d)
        kids = v.values() if isinstance(v, dict) else v
        todo += [(k, d + 1) for k in kids if isinstance(k, (dict, list))]
    return deepest


def test_seq_chain_json_is_one_node():
    """A `;` chain prints as one seq node listing its statements, whichever
    way it nests."""
    a, b, c = (Assign(Var(v), Lit(1)) for v in "xyz")
    assert tree_json(Seq(Seq(a, b), c)) == tree_json(Seq(a, Seq(b, c))) \
        == {"kind": "seq", "statements": [tree_json(s) for s in (a, b, c)]}


def test_compiled_program_json(capsys):
    """Compiled programs splice every part's chain into one `;` chain per
    block; their --json stays as shallow as their if and while nesting."""
    psi = ("(y < 3 -> y * y < 9) /\\ (y < 4 \\/ 5 < y) /\\ ~(y = 7) /\\ "
           "y + y < 30 /\\ ~(y = 9) /\\ (y < 2 \\/ 3 < y)")
    code, tree = run_json(capsys, "pi1-program", psi, "--var", "y")
    assert code == 0 and tree["kind"] == "compiled"
    assert tree["program"]["kind"] == "seq"
    assert _json_depth(tree) < 200
    chain = "; ".join(["x := 1"] * 3000)
    code, tree = run_json(capsys, "parse-program", chain)
    assert code == 0 and len(tree["statements"]) == 3000


def test_run(capsys):
    code, out, _ = run_cli(capsys, "run", COUNT, "--input", "x=5", "--fuel", "100")
    assert code == 0
    assert "terminated" in out and "y=5" in out


def test_run_fuel_exhaustion_exit_2(capsys):
    code, tree = run_json(capsys, "run", "while 0<1 do x:=x od",
                          "--input", "", "--fuel", "9")
    assert code == 2
    assert tree["terminated"] is False and tree["steps"] == 9


def test_run_deep_sequence(capsys):
    # the parser reads `;` chains with a loop and the interpreter walks
    # their right spine with one, so 3,000 statements do not recurse
    prog = "; ".join(["y:=y+1"] * 3000)
    code, tree = run_json(capsys, "run", prog, "--fuel", "10000")
    assert code == 0
    assert tree["terminated"] is True and tree["steps"] == 3000
    assert tree["state"] == {"y": 3000}


def test_parse_program_deep_sequence(capsys):
    # the printer walks the `;` chain by an explicit stack
    prog = "; ".join(["y:=y+1"] * 3000)
    code, out, _ = run_cli(capsys, "parse-program", prog)
    assert code == 0
    assert out.strip() == "; ".join(["y := (y + 1)"] * 3000)


@pytest.mark.parametrize("op", ["/\\", "\\/"], ids=["and", "or"])
@pytest.mark.parametrize("cmd", ["eval", "parse-formula", "classify"])
def test_deep_chain(cmd, op, capsys):
    # the parser nests the chain to the left; evaluation and classification
    # read it flat, and the printer walks it by a stack
    f = f" {op} ".join(["x = 1"] * 3000)
    out = {"eval": "true", "classify": "Sigma_0 (strict, also dual)",
           "parse-formula": "(" * 2999 + "x = 1" + f" {op} x = 1)" * 2999}
    assign = ["--assign", "x=1"] if cmd == "eval" else []
    assert run_cli(capsys, cmd, f, *assign) == (0, out[cmd] + "\n", "")


VERIFIED = "verified (grid 1, fuel 10000)\n"


@pytest.mark.parametrize("cmd, argv, code, out", [
    ("eval", ["x = SUM", "--assign", "x=3000"], 0, "true\n"),
    ("run", ["x := SUM"], 0, "terminated after 1 steps: x=3000\n"),
    ("check-triple", ["--pre", "true", "--post", "x = 3000", "--grid", "1",
                      "x := SUM"], 0, VERIFIED),
    ("check-triple", ["--pre", "x = SUM", "--post", "x = 3000", "--grid",
                      "1", "x := x"], 0, VERIFIED),
    # compile-on-repeat compiles the body at the second value
    ("eval", ["--qbound", "4", "exists y. y = SUM"], 2,
     "unknown (no witness <= 4)\n"),
    ("eval", ["x = PRODUCT", "--assign", "x=1"], 0, "true\n"),
    ("run", ["x := PRODUCT"], 0, "terminated after 1 steps: x=1\n"),
    ("check-triple", ["--pre", "true", "--post", "x = 1", "--grid", "1",
                      "x := PRODUCT"], 0, VERIFIED),
    # subst_term and term_vars walk the spines by a stack
    ("prenex", ["x = SUM"], 0, "x = SUM\n"),
    ("encode-alpha", ["x := SUM"], 0, "vars: x\nout vars: x'\nx' = SUM\n"),
    ("vc", ["x := SUM", "--pre", "true", "--post", "x = 1"], 0,
     "(forall x . (forall x' . ((true /\\ x' = SUM) -> x' = 1)))\n"),
    ("prenex", ["x = PRODUCT"], 0, "x = PRODUCT\n"),
    ("encode-alpha", ["x := PRODUCT"], 0,
     "vars: x\nout vars: x'\nx' = PRODUCT\n"),
    ("vc", ["x := PRODUCT", "--pre", "true", "--post", "x = 1"], 0,
     "(forall x . (forall x' . ((true /\\ x' = PRODUCT) -> x' = 1)))\n")],
    ids=["eval", "run", "check-triple-program", "check-triple-pre",
         "eval-search", "eval-product", "run-product",
         "check-triple-product", "prenex", "encode-alpha", "vc",
         "prenex-product", "encode-alpha-product", "vc-product"])
def test_long_sum(capsys, cmd, argv, code, out):
    # the parser nests `+` and `*` to the left, and eval_term and
    # compile_term walk those spines by a loop
    total, product = "+".join(["1"] * 3000), "*".join(["1"] * 3000)
    argv = [a.replace("SUM", total).replace("PRODUCT", product) for a in argv]
    # printed, each nests to the left in parentheses
    out = out.replace("SUM", "(" * 2999 + "1" + " + 1)" * 2999)
    out = out.replace("PRODUCT", "(" * 2999 + "1" + " * 1)" * 2999)
    assert run_cli(capsys, cmd, *argv) == (code, out, "")


@pytest.mark.parametrize("f", [
    "forall y1 . forall y2 . forall y3 . forall y4 . forall y5 . "
    "y1+y2+y3+y4+y5+0 < y1+y2+y3+y4+y5+1",
    "".join(f"exists y{i} . " for i in range(18)) + "x = 1"],
    ids=["forall-5", "exists-18"])
def test_eval_ends_within_the_search_budget(capsys, f):
    # nested searches share one budget per evaluation, so these end in
    # about a second where 65 ** 5 and 65 ** 16 bodies would not
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "eval", f, "--assign", "x=1")
    assert time.perf_counter() - start < 5
    assert (code, err) == (2, "")
    assert re.fullmatch(r"unknown \(search budget spent at y\d+\)\n", out)


def test_crash_is_internal_error_not_verdict(capsys, monkeypatch):
    # a crash, forced here so that no input need still cause one, must not
    # read as the verdict "false" (exit 1)
    def crash(*args):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr("arithver.cli.eval_formula", crash)
    code, out, err = run_cli(capsys, "eval", "x = 1", "--assign", "x=1")
    assert (code, out) == (4, "")
    assert err.startswith("internal error: RecursionError: ")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("cmd, out", [
    ("eval", "true"), ("parse-formula", "x = 1"),
    ("classify", "Sigma_0 (strict, also dual)")],
    ids=["eval", "parse-formula", "classify"])
def test_deep_parentheses(capsys, cmd, out):
    # the parser keeps each open `(` as a frame on its stack
    f = "(" * 3000 + "x = 1" + ")" * 3000
    assign = ["--assign", "x=1"] if cmd == "eval" else []
    assert run_cli(capsys, cmd, f, *assign) == (0, out + "\n", "")


def test_check_proof_deep_nesting(tmp_path, capsys):
    # the parser reads nested premises by a stack of frames
    pf = "assign { conclusion: {0 = 0} x := 0 {x = 0} }"
    for _ in range(1000):
        pf = f"conseq {{ inner: {pf} conclusion: {{0 = 0}} x := 0 {{x = 0}} }}"
    path = tmp_path / "deep.prf"
    path.write_text(pf)
    code, out, err = run_cli(capsys, "check-proof", str(path), "--grid", "1")
    assert (code, err) == (0, "") and out.startswith("accepted")


def test_check_proof_long_sequence(tmp_path, capsys):
    # the checker compares the premise's 1,500-statement program with the
    # conclusion's by one loop, then rejects the rule on its class
    prog = "; ".join(["x := x"] * 1500)
    path = tmp_path / "long.prf"
    path.write_text(f"conseq {{ inner: assign {{ conclusion: {{true}} {prog} "
                    f"{{true}} }} conclusion: {{true}} {prog} {{true}} }}")
    code, out, err = run_cli(capsys, "check-proof", str(path))
    assert (code, err) == (1, "")
    assert out == ("rejected (grid 5)\nroot.inner: rejected — assignment "
                   "axiom applied to a non-assignment\n")


def test_long_conjunction_post(tmp_path, capsys):
    # substitution rebuilds a `/\` chain by a stack, for the vc and for
    # the assignment axiom's check alike
    post, pre = (" /\\ ".join([atom] * 3000) for atom in ("x = 1", "1 = 1"))
    code, out, err = run_cli(capsys, "vc", "x := 1", "--pre", "true",
                             "--post", post)
    assert (code, err) == (0, "")
    assert out.startswith("(forall x . (forall x' . ((true /\\ x' = 1) -> ")
    path = tmp_path / "assign.prf"
    path.write_text(f"assign {{ conclusion: {{{pre}}} x := 1 {{{post}}} }}")
    code, out, err = run_cli(capsys, "check-proof", str(path), "--grid", "1")
    assert (code, err) == (0, "") and out.startswith("accepted")


@pytest.mark.parametrize("cmd, flags, blocks", [
    ("encode-alpha", [], 2999),
    ("vc", ["--pre", "true", "--post", "y = 3000"], 2999),
    # alpha_S^(1) closes off the output too, and its fresh result name
    # needs no walk of alpha
    ("encode-alpha", ["--out-index", "1", "--inputs", "y"], 3000)],
    ids=["encode-alpha", "vc", "encode-alpha-out-index"])
def test_alpha_of_deep_sequence(capsys, cmd, flags, blocks):
    # alpha walks the right spine of a `;` chain by a loop
    prog = "; ".join(["y:=y+1"] * 3000)
    code, out, err = run_cli(capsys, cmd, prog, *flags)
    assert (code, err) == (0, "")
    assert out.count("(exists ") == blocks


@pytest.mark.parametrize("argv, word, span", [
    (["parse-formula", "exists true . true"], "true", "7..11"),
    (["vc", "x := 1", "--pre", "true", "--post", "x = 1", "--params", "forall"],
     "forall", None),
    (["eval", "x = 1", "--assign", "true=3"], "true", None)],
    ids=["binder", "params", "assign"])
def test_keyword_is_not_a_variable(capsys, argv, word, span):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (3, "")
    assert f"keyword {word!r} is not a variable" in err
    if span:  # a parse error, at the binder
        assert err.startswith("parse error: ") and f"(bytes {span})" in err


@pytest.mark.parametrize("n, code, out", [(3000, 0, "true\n"),
                                          (3001, 1, "false\n")],
                         ids=["3000", "3001"])
def test_deep_not_chain_evaluates(capsys, n, code, out):
    # a run of `~` is read and evaluated by loops
    f = "~" * n + "x = 1"
    assert run_cli(capsys, "eval", f, "--assign", "x=1") == (code, out, "")


@pytest.mark.parametrize("cmd, out", [
    ("classify", "Sigma_0 (strict, also dual)\n"), ("prenex", "x = 1\n"),
    pytest.param("parse-formula", "~(" * 3000 + "x = 1" + ")" * 3000 + "\n",
                 id="parse-formula")])
def test_deep_not_chain_classifies_and_prenexes(capsys, cmd, out):
    # _levels and nnf walk a run of `~` by loops, the printer by its stack
    assert run_cli(capsys, cmd, "~" * 3000 + "x = 1") == (0, out, "")


def test_classify_iff_chain_in_linear_time():
    # 30 chained `<->`: a walk that reads each side in both polarities
    # takes 2**30 steps, so it fails by the timeout
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-m", "arithver.cli", "classify",
         " <-> ".join(["x = 1"] * 31)],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=10)
    assert (done.returncode, done.stdout) == (0, "Sigma_0 (strict, also dual)\n")


@pytest.mark.parametrize("argv", [
    ["vc", "x := x + p; y := y + q; z := x + y", "--pre", "p < q /\\ r < s",
     "--post", "z = x + y \\/ r < p", "--params", "p,q,r,s"],
    ["prenex", "(exists a. a = p + q) /\\ "
               "(forall b. b < r + s \\/ (exists c. c = t + u))"]],
    ids=["vc", "prenex"])
def test_output_does_not_depend_on_hash_seed(argv):
    # a Var hashes by its address and a str by a per-process seed, so a
    # set of variables may iterate in another order in another process;
    # no printed output may follow that order
    src = Path(__file__).resolve().parents[1] / "src"
    outs = [subprocess.run(
        [sys.executable, "-m", "arithver.cli", *argv],
        env={**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": seed},
        capture_output=True, timeout=30) for seed in ("0", "1")]
    assert [o.returncode for o in outs] == [0, 0]
    assert outs[0].stdout == outs[1].stdout and outs[0].stdout.count(b" . ") >= 3


def test_run_bad_input_assignment(capsys):
    code, _, err = run_cli(capsys, "run", COUNT, "--input", "x:oops")
    assert code == 3


@pytest.mark.parametrize("argv", [
    ["eval", "x < 0", "--assign", "x=-1"],
    ["run", COUNT, "--input", "x=-4"],
    ["xrec", "eval", "--schema", "SCHEMA", "--args=-3,-2"],
], ids=["eval", "run", "xrec-eval"])
def test_negative_input_rejected(argv, tmp_path, capsys):
    # values range over N: a negative one is a usage error, not a verdict
    sch = tmp_path / "monus.sch"
    sch.write_text("monus")
    code, out, err = run_cli(capsys, *[str(sch) if a == "SCHEMA" else a
                                       for a in argv])
    assert (code, out) == (3, "")
    assert "naturals" in err


@pytest.mark.parametrize("argv", [
    ["eval", "x = 1", "--assign", "x=1,x=2"],
    ["run", COUNT, "--input", "x=1,x=5"],
    ["check-triple", COUNT, "--pre", "x = n", "--post", "y = n",
     "--grid", "3", "--params", "n,n"],
    ["vc", COUNT, "--pre", "x = n", "--post", "y = n", "--params", "n, n"],
    ["encode-alpha", "y := x", "--out-index", "1", "--inputs", "y,y"],
], ids=["eval", "run", "check-triple-params", "vc-params",
        "encode-alpha-inputs"])
def test_repeated_variable_rejected(argv, capsys):
    # an input that names a variable twice is ambiguous: a usage error
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (3, "")
    assert "repeated" in err


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_run_prints_result_past_str_digit_limit(as_json, capsys):
    # x = 2^(2^14) has 4,933 digits, past int's default 4,300-digit limit
    # on str conversion; main lifts the limit and restores it afterwards
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)
    before = limit()
    prog = "x := 2; while y < 14 do x := x * x; y := y + 1 od"
    code, out, err = run_cli(capsys, "run", prog, *(["--json"] * as_json))
    assert (code, err) == (0, "")
    if as_json:
        digits = json.loads(out, parse_int=str)["state"]["x"]
    else:
        digits = re.search(r"x=(\d+)", out).group(1)
    assert len(digits) == 4933
    assert digits.startswith("118973149535723176")
    assert int(digits[-30:]) == pow(2, 2 ** 14, 10 ** 30)
    assert limit() == before


def test_eval_literal_past_str_digit_limit(capsys):
    big = "7" * 5000
    code, out, _ = run_cli(capsys, "eval", f"{big} = {big}")
    assert (code, out.strip()) == (0, "true")


def test_encode_alpha(capsys):
    code, tree = run_json(capsys, "encode-alpha", COUNT)
    assert code == 0
    assert tree["vars"] == ["y", "x"]
    assert tree["out_vars"] == ["y'", "x'"]
    assert tree["formula"]["kind"] == "exists"


def test_encode_alpha_out(capsys):
    code, tree = run_json(capsys, "encode-alpha", COUNT,
                          "--out-index", "1", "--inputs", "x")
    assert code == 0
    assert tree["kind"] == "alpha-out"
    assert tree["inputs"] == ["x"]


@pytest.mark.parametrize("argv, schema, head, keys", [
    (["encode-alpha", COUNT, "--out-index", "1", "--inputs", "x"], None,
     "inputs: x\nresult: y''", ["kind", "formula", "inputs", "result"]),
    (["encode-alpha", "x := 1", "--out-index", "1"], None,
     "inputs: (none)\nresult: y", ["kind", "formula", "inputs", "result"]),
    (["xrec", "gamma"], "pred", "inputs: x1\nresult: y",
     ["kind", "formula", "inputs", "result"]),
    (["xrec", "gamma"], "const(3,0)", "inputs: (none)\nresult: y",
     ["kind", "formula", "inputs", "result"]),
    (["xrec", "compile"], "max", "inputs: p1, p2\nresult: res",
     ["kind", "program", "inputs", "result"]),
    (["xrec", "compile"], "const(3,0)", "inputs: (none)\nresult: res",
     ["kind", "program", "inputs", "result"]),
    (["sigma1-compile", "exists z. (z = x /\\ y = z + z)", "--result", "y"],
     None, "formula inputs: x\nprogram inputs: p1\nresult: res",
     ["kind", "program", "formula_inputs", "inputs", "result"]),
    (["sigma1-compile", "y = 3", "--result", "y"], None,
     "formula inputs: (none)\nprogram inputs: (none)\nresult: res",
     ["kind", "program", "formula_inputs", "inputs", "result"]),
    (["pi1-program", "y < 5", "--var", "y"], None,
     "program inputs: p1\nresult: res",
     ["kind", "program", "inputs", "result"])],
    ids=["encode-alpha-out-index", "encode-alpha-out-index-no-inputs",
         "xrec-gamma", "xrec-gamma-no-inputs", "xrec-compile",
         "xrec-compile-no-inputs", "sigma1-compile", "sigma1-compile-closed",
         "pi1-program"])
def test_head_lines(tmp_path, capsys, argv, schema, head, keys):
    # the text output is one line per name, then the tree on one line;
    # --json puts the same names after the tree, in the same order
    if schema is not None:
        path = tmp_path / "h.sch"
        path.write_text(schema)
        argv = argv + ["--schema", str(path)]
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    lines = out.split("\n")
    assert "\n".join(lines[:-2]) == head and lines[-1] == ""
    code, tree = run_json(capsys, *argv)
    assert code == 0 and list(tree) == keys


def test_encode_alpha_out_bad_index(capsys):
    code, _, err = run_cli(capsys, "encode-alpha", COUNT, "--out-index", "9")
    assert code == 3


def test_classify(capsys):
    code, tree = run_json(capsys, "classify", "forall x. exists y. y = x + 1")
    assert code == 0
    assert (tree["class"], tree["n"], tree["strict"]) == ("pi", 2, True)


def test_prenex(capsys):
    code, out, _ = run_cli(capsys, "prenex",
                           "(exists y. y = x) /\\ (exists z. z = x)")
    assert code == 0
    assert out.strip().startswith("(exists")


def test_eval_exit_codes(capsys):
    assert run_cli(capsys, "eval", "1 < 2")[0] == 0
    assert run_cli(capsys, "eval", "2 < 1")[0] == 1
    code, out, _ = run_cli(capsys, "eval", "exists y. y = 99", "--qbound", "5")
    assert code == 2
    assert "unknown" in out


@pytest.mark.parametrize("exact", ["1 = 1", "1 = 0"])
def test_eval_iff_with_an_unknown_side_is_unknown(capsys, exact):
    for text in (f"(exists y. y + y = 1) <-> ({exact})",
                 f"({exact}) <-> (exists y. y + y = 1)"):
        assert run_cli(capsys, "eval", text) == (
            2, "unknown (no witness <= 64)\n", "")


def test_eval_assignment(capsys):
    code, tree = run_json(capsys, "eval", "x + y = 7", "--assign", "x=3,y=4")
    assert code == 0 and tree["value"] == "true"


def test_vc(capsys):
    code, tree = run_json(capsys, "vc", COUNT, "--pre", "true",
                          "--post", "~(y<x)")
    assert code == 0
    assert tree["kind"] == "forall"


def test_check_triple_verified(capsys):
    code, tree = run_json(capsys, "check-triple", COUNT, "--pre", "true",
                          "--post", "~(y<x)", "--grid", "4", "--fuel", "500")
    assert code == 0
    assert tree["status"] == "verified"


def test_check_triple_counterexample(capsys):
    code, tree = run_json(capsys, "check-triple", "x:=x", "--pre", "true",
                          "--post", "x<0", "--grid", "2", "--fuel", "10")
    assert code == 1
    assert tree["status"] == "counterexample"
    assert tree["input"] == {"x": 0}


def test_check_triple_params(capsys):
    code, tree = run_json(capsys, "check-triple", COUNT, "--pre", "x = n",
                          "--post", "y = n", "--grid", "3", "--fuel", "500",
                          "--params", "n")
    assert code == 0 and tree["status"] == "verified"


def test_vc_binds_a_param_that_is_a_program_variable_once(capsys):
    code, out, err = run_cli(capsys, "vc", "y := x", "--pre", "true",
                             "--post", "y = x", "--params", "x")
    assert (code, err) == (0, "")
    assert out.count("forall x .") == 1


def test_vc_names_outputs_apart_from_params(capsys):
    code, out, err = run_cli(capsys, "vc", "x := x + 1", "--pre", "x' = 0",
                             "--post", "x = x'", "--params", "x'")
    assert (code, err) == (0, "")
    assert out.strip() == ("(forall x' . (forall x . (forall x'' . "
                           "((x' = 0 /\\ x'' = (x + 1)) -> x'' = x'))))")
    code, out, _ = run_cli(capsys, "eval", out.strip(), "--qbound", "2")
    assert (code, out.strip()) == (1, "false")


def test_xrec_eval(tmp_path, capsys):
    f = tmp_path / "monus.sch"
    f.write_text("pr(proj(1,1); cn(pred; proj(3,3)))")
    code, out, _ = run_cli(capsys, "xrec", "eval", "--schema", str(f),
                           "--args", "9,3")
    assert code == 0 and out.strip() == "6"


def test_xrec_eval_divergence(tmp_path, capsys):
    f = tmp_path / "diverge.sch"
    f.write_text("mn(const(1,1))")
    code, tree = run_json(capsys, "xrec", "eval", "--schema", str(f),
                          "--fuel", "500")
    assert code == 2 and tree["diverged"] is True


def test_xrec_gamma(tmp_path, capsys):
    f = tmp_path / "pred.sch"
    f.write_text("pred")
    code, tree = run_json(capsys, "xrec", "gamma", "--schema", str(f))
    assert code == 0
    assert tree["inputs"] == ["x1"] and tree["result"] == "y"


def test_xrec_compile(tmp_path, capsys):
    f = tmp_path / "max.sch"
    f.write_text("max")
    code, tree = run_json(capsys, "xrec", "compile", "--schema", str(f))
    assert code == 0
    assert tree["result"] == "res" and len(tree["inputs"]) == 2


def test_xrec_missing_file(capsys):
    code, _, err = run_cli(capsys, "xrec", "eval", "--schema", "/no/such/file")
    assert code == 3


def test_sigma1_compile(capsys):
    code, tree = run_json(capsys, "sigma1-compile",
                          "exists z. (z = x /\\ y = z + z)", "--result", "y")
    assert code == 0
    assert tree["formula_inputs"] == ["x"]


def test_sigma1_compile_nonfunctional(capsys):
    code, _, err = run_cli(capsys, "sigma1-compile",
                           "y = x \\/ y = x + 1", "--result", "y")
    assert code == 3
    assert "two results" in err


@pytest.mark.parametrize("argv,message", [
    (["pi1-program", "exists z. z = y", "--var", "y"], "psi must be level 0"),
    (["pi1-program", "x < 5", "--var", "y"], "psi may mention only y"),
    (["sigma1-compile", "x = 1", "--result", "y"],
     "result variable y is not free"),
    (["sigma1-compile", "forall z. y = z", "--result", "y"],
     "matrix is not level 0")],
    ids=["pi1-level", "pi1-free", "sigma1-result", "sigma1-level"])
def test_shape_error_is_usage_error(capsys, argv, message):
    # xrec.ShapeError is a ValueError, so the command line reports it
    # without loading xrec for every command
    code, _, err = run_cli(capsys, *argv)
    assert code == 3
    assert err.startswith(f"error: {message}")


def test_pi1_program(capsys):
    code, tree = run_json(capsys, "pi1-program", "y < 5", "--var", "y")
    assert code == 0
    assert tree["kind"] == "compiled"


def test_json_is_one_compact_line(capsys):
    # the tree of a compiled program is large: indented, it ran to 960 kB
    code, out, _ = run_cli(capsys, "pi1-program", "y < 7", "--var", "y",
                           "--json")
    assert code == 0
    assert out.count("\n") == 1 and out.endswith("\n")
    assert len(out.encode()) < 200_000
    assert json.loads(out)["kind"] == "compiled"


def test_check_proof(tmp_path, capsys):
    good = tmp_path / "good.prf"
    good.write_text("""
    conseq {
      inner: assign { conclusion: {0 = 0} x := 0 {x = 0} }
      conclusion: {true} x := 0 {x = 0}
    }
    """)
    code, tree = run_json(capsys, "check-proof", str(good), "--grid", "3")
    assert code == 0 and tree["accepted"] is True

    bad = tmp_path / "bad.prf"
    bad.write_text("""
    conseq {
      inner: assign { conclusion: {0 = 0} x := 0 {x = 0} }
      conclusion: {true} x := 0 {x = 1}
    }
    """)
    code, tree = run_json(capsys, "check-proof", str(bad), "--grid", "3")
    assert code == 1 and tree["accepted"] is False


def test_check_proof_unknown_side_condition(tmp_path, capsys):
    f = tmp_path / "unk.prf"
    f.write_text("""
    conseq {
      inner: assign { conclusion: {exists z. z = y + 6} x := 0 {exists z. z = y + 6} }
      conclusion: {true} x := 0 {exists z. z = y + 6}
    }
    """)
    code, tree = run_json(capsys, "check-proof", str(f), "--grid", "2",
                          "--qbound", "3")
    assert code == 2 and tree["accepted"] is True


def test_console_script_installed(monkeypatch, capsys):
    """The `arithver` command the README uses is the one pyproject.toml
    declares, and it works. The declared entry point is always loaded
    and called as a console script calls it; wherever an install exists
    (its own metadata says so), the script on PATH is run as well."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as f:
        declared = tomllib.load(f)["project"]["scripts"]["arithver"]
    argv = ["parse-formula", "exists y. y*y = 49"]
    expected = "(exists y . (y * y) = 49)\n"

    console_main = EntryPoint("arithver", declared, "console_scripts").load()
    monkeypatch.setattr(sys, "argv", ["arithver", *argv])
    assert console_main() == 0
    assert capsys.readouterr().out == expected

    installed = entry_points(group="console_scripts", name="arithver")
    for ep in installed:
        assert ep.value == declared
        assert ep.dist.name == "arithver"
    if installed:
        script = shutil.which("arithver")
        assert script, "arithver is installed but not on PATH"
        done = subprocess.run([script, *argv], capture_output=True,
                              text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout == expected


def test_vc_renames_binder_apart_from_substituted_names(capsys):
    # the post's binder x' is renamed to x'' because x becomes x'; the
    # renamed body must still say x'' = x', not read a later target
    code, out, err = run_cli(capsys, "vc", "x := x; x'' := 0", "--pre", "true",
                             "--post", "exists x' < 3 . x' = x")
    assert (code, err) == (0, "")
    assert out.strip().endswith("-> (exists x'' < 3 . x'' = x'))))))")


def test_vc_renames_binder_its_bound_would_mention(capsys):
    code, out, err = run_cli(capsys, "vc", "x := x", "--pre", "true",
                             "--post", "forall x' < x . 0 < 1")
    assert (code, err) == (0, "")
    assert out.strip() == ("(forall x . (forall x' . ((true /\\ x' = x) -> "
                           "(forall x'' < x' . 0 < 1))))")


def test_check_proof_assign_axiom_with_renamed_bounded_binder(tmp_path, capsys):
    # [c/x] into forall c < x must rename c, whose bound becomes c
    proof = tmp_path / "ax.proof"
    proof.write_text("assign { conclusion: { forall d < c . 0 < 1 } x := c "
                     "{ forall c < x . 0 < 1 } }")
    code, out, err = run_cli(capsys, "check-proof", str(proof))
    assert (code, err) == (0, "")
    assert out.startswith("accepted")
