"""Print the deep-input matrix: the exit code of each CLI command on each
deep shape, one `cli.main` call per cell, at the default recursion limit.

Exit 4 is an internal error, such as a RecursionError; 0-3 are the CLI's
own verdicts and errors.  Not collected by pytest (no `test_` prefix).
Run from the repository root:

    PYTHONPATH=src python tests/deep_matrix.py [depth]

The depth defaults to 3,000.
"""

import contextlib
import io
import os
import sys
import tempfile

from arithver.cli import main


def formulas(n):
    return [
        ("`x = 1+…+1`", "x = " + " + ".join(["1"] * n)),
        ("`x = 1*…*1`", "x = " + " * ".join(["1"] * n)),
        ("`~…~ x = 1`", "~" * n + "x = 1"),
        ("`x = 1 /\\ …` chain", " /\\ ".join(["x = 1"] * n)),
        ("`x = 1 \\/ …` chain", " \\/ ".join(["x = 1"] * n)),
        ("`x = 1 -> x = 1 -> …`", " -> ".join(["x = 1"] * n)),
        ("nested `exists yi .`",
         "".join(f"exists y{i} . " for i in range(n)) + "x = 1"),
        ("nested `exists yi < 2 .`",
         "".join(f"exists y{i} < 2 . " for i in range(n)) + "x = 1"),
        ("nested parentheses", "(" * n + "x = 1" + ")" * n)]


FORMULA_COMMANDS = [
    ("parse", ["parse-formula"]),
    ("parse `--json`", ["parse-formula", "--json"]),
    ("classify", ["classify"]), ("prenex", ["prenex"]),
    ("eval", ["eval", "--assign", "x=1"])]


def programs(n):
    return [
        ("`y := y + 1` chain", "; ".join(["y := y + 1"] * n)),
        ("`x := 1+…+1`", "x := " + " + ".join(["1"] * n)),
        ("`x := 1*…*1`", "x := " + " * ".join(["1"] * n)),
        ("nested `if`", "if 0 < 1 then " * n + "x := 1"
         + " else x := 0 fi" * n),
        ("nested `while`", "while x < 1 do " * n + "x := x + 1" + " od" * n)]


TRIPLE = ["--pre", "true", "--post", "true"]
PROGRAM_COMMANDS = [
    ("parse", ["parse-program"]),
    ("parse `--json`", ["parse-program", "--json"]),
    ("run", ["run"]), ("encode-alpha", ["encode-alpha"]),
    ("vc", ["vc", *TRIPLE]), ("check-triple", ["check-triple", *TRIPLE])]


def exit_code(argv):
    """main's exit code on argv, with its output thrown away."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


def table(title, rows, commands):
    print(f"| {title} | " + " | ".join(c for c, _ in commands) + " |")
    print("|---" * (len(commands) + 1) + "|")
    for label, text in rows:
        codes = [exit_code([cmd[0], text, *cmd[1:]]) for _, cmd in commands]
        print(f"| {label} | " + " | ".join(map(str, codes)) + " |", flush=True)


def check_proof(text, directory):
    """check-proof's exit code on the proof text."""
    path = os.path.join(directory, "proof.prf")
    with open(path, "w") as fh:
        fh.write(text)
    return exit_code(["check-proof", path])


def proof_tables(n, directory):
    """The conseq proof over n `x := x` statements whose premise applies
    the assignment axiom to the whole chain: a correct rejection exits 1.
    Then a post of n conjuncts: its vc after `x := 1` from `true`, and the
    assignment axiom's proof for it."""
    prog = "; ".join(["x := x"] * n)
    conseq = check_proof(f"conseq {{ inner: assign {{ conclusion: {{true}} "
                         f"{prog} {{true}} }} conclusion: {{true}} {prog} "
                         f"{{true}} }}", directory)
    print(f"| proof | check-proof |\n|---|---|\n"
          f"| conseq over `x := x` chain | {conseq} |\n")
    post, pre = (" /\\ ".join([atom] * n) for atom in ("x = 1", "1 = 1"))
    vc = exit_code(["vc", "x := 1", "--pre", "true", "--post", post])
    assign = check_proof(f"assign {{ conclusion: {{{pre}}} x := 1 "
                         f"{{{post}}} }}", directory)
    print(f"| post | vc | check-proof |\n|---|---|---|\n"
          f"| `x = 1 /\\ …` chain | {vc} | {assign} |")


def run(n):
    print(f"depth {n:,}\n")
    table("formula", formulas(n), FORMULA_COMMANDS)
    print()
    table("program", programs(n), PROGRAM_COMMANDS)
    print()
    with tempfile.TemporaryDirectory() as directory:
        proof_tables(n, directory)


if __name__ == "__main__":
    run(int(sys.argv[1]) if len(sys.argv) > 1 else 3000)
