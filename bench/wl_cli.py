"""cli: README's quick tour as a user runs it.

Each command runs as its own child process with --json, one at a time,
and its exit code and JSON fields are checked against README's contract.
This is the only workload that pays interpreter start, import, argparse,
the syntax layer and JSON rendering on every verdict.  One deep input, a
3,000-statement `;` chain, is run every round: its right answer is exit 0
with the final state.

The traced run replays the same commands in-process through cli.main.
"""

import io
import json
import os
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

from hierarchy_fixtures import FIXTURES

from common import (OUT, PROOF_TEXTS, STDLIB_ARITY, STDLIB_ORACLES, Crashed,
                    Op, child_env, expect, round_rng)

TRACE_ROUNDS = 2
DEEP_STATEMENTS = 3000
# each quick-tour command runs this often per round; the two compilers,
# which take seconds, and the deep input run once
QUICK_REPEATS = 3
# what the console script does, without needing it installed
CONSOLE = "import sys; from arithver.cli import main; sys.exit(main())"
NAMES = ("y", "z", "w", "u", "c", "k")
OK, FALSIFIED = 0, 1


def _crash_class(stderr):
    """The exception class of a traceback on stderr, or None."""
    if "Traceback (most recent call last)" not in stderr:
        return None
    last = stderr.strip().splitlines()[-1]
    return last.split(":", 1)[0].rsplit(".", 1)[-1].strip() or "Traceback"


class Inputs:
    def __init__(self, seed):
        self.seed = seed
        self.workdir = OUT / f"cli-work-{os.getpid()}"
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.files = {}  # file name -> absolute path
        for name in STDLIB_ORACLES:
            self._write(f"{name}.sch", name + "\n")
        for name, text in PROOF_TEXTS.items():
            self._write(f"{name}.prf", text)

    def _write(self, fname, text):
        path = self.workdir / fname
        path.write_text(text)
        self.files[fname] = str(path)

    def describe(self):
        return [f"{name}: {(self.workdir / name).read_text()}"
                for name in sorted(self.files)]

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


def setup(seed):
    return Inputs(seed)


def _count_text(c, b):
    return f"{c}:=0; while {c}<{b} do {c}:={c}+1 od"


def tour(rng):
    """(argv, check) pairs; check(exit code, JSON tree) -> decided.

    Files are named relative to the work directory, as in README.
    """
    out = []
    for _ in range(QUICK_REPEATS):
        c, b, a, r = rng.sample(NAMES, 4)
        count = _count_text(c, b)
        k = rng.randint(2, 30)
        out.append((["parse-formula", f"exists y. y*y = {k * k}"],
                    lambda code, t, k=k: code == OK and t["kind"] == "exists"
                    and t["var"] == "y" and t["body"]["kind"] == "eq"
                    and t["body"]["right"] == {"kind": "lit", "value": k * k}))
        n = rng.randint(0, 40)
        out.append((["run", count, "--input", f"{b}={n}", "--fuel", "10000"],
                    lambda code, t, n=n, c=c, b=b: code == OK
                    and t["terminated"] and t["steps"] == 2 * n + 2
                    and t["state"] == {c: n, b: n}))
        out.append((["encode-alpha", count],
                    lambda code, t, c=c, b=b: code == OK
                    and t["kind"] == "alpha" and t["vars"] == [c, b]
                    and t["out_vars"] == [c + "'", b + "'"]))
        src, kind, lvl, strict, both = rng.choice(FIXTURES)
        out.append((["classify", src],
                    lambda code, t, want=(kind, lvl, strict, both): code == OK
                    and (t["class"], t["n"], t["strict"], t["both"]) == want))
        out.append((["prenex", f"(exists {a}. {a} = x) /\\ "
                               f"(exists {r}. {r} = x + {k})"],
                    lambda code, t: code == OK and t["kind"] == "exists"
                    and t["body"]["kind"] == "exists"
                    and t["body"]["body"]["kind"] == "and"))
        u = rng.randint(0, 7)
        v = 7 - u if rng.random() < 0.5 else rng.randint(0, 7)
        truth = u + v == 7
        out.append((["eval", "x + y = 7", "--assign", f"x={u},y={v}"],
                    lambda code, t, truth=truth:
                    code == (OK if truth else FALSIFIED)
                    and t["value"] == ("true" if truth else "false")))
        out.append((["vc", count, "--pre", "true", "--post", f"~({c}<{b})"],
                    lambda code, t: code == OK and t["kind"] == "forall"))
        g = rng.randint(3, 6)
        out.append((["check-triple", count, "--pre", f"{b} = n", "--post",
                     f"{c} = n", "--params", "n", "--grid", str(g),
                     "--fuel", "500"],
                    lambda code, t, g=g: code == OK and t["status"] == "verified"
                    and t["grid"] == g and t["caveats"] == []))
        name = rng.choice(sorted(STDLIB_ORACLES))
        sch = f"{name}.sch"
        args = [rng.randint(0, 30) for _ in range(STDLIB_ARITY[name])]
        want = STDLIB_ORACLES[name](*args)
        out.append((["xrec", "eval", "--schema", sch,
                     "--args", ",".join(map(str, args))],
                    lambda code, t, want=want: code == OK and t["value"] == want))
        arity = STDLIB_ARITY[name]
        out.append((["xrec", "gamma", "--schema", sch],
                    lambda code, t, arity=arity: code == OK
                    and t["kind"] == "gamma" and t["result"] == "y"
                    and t["inputs"] == [f"x{i}" for i in range(1, arity + 1)]))
        out.append((["xrec", "compile", "--schema", sch],
                    lambda code, t, arity=arity: code == OK
                    and t["kind"] == "compiled" and t["result"] == "res"
                    and t["inputs"] == [f"p{i}" for i in range(1, arity + 1)]))
    for name, accepted in (("count", True), ("lie", False)):
        g = rng.randint(3, 6)
        out.append((["check-proof", f"{name}.prf", "--grid", str(g)],
                    lambda code, t, ok=accepted, g=g:
                    code == (OK if ok else FALSIFIED)
                    and t["accepted"] is ok and t["grid"] == g))
    out.append((["pi1-program", f"y < {rng.randint(2, 9)}", "--var", "y"],
                lambda code, t: code == OK and t["kind"] == "compiled"))
    a, r = rng.sample([n for n in NAMES if n != "z"], 2)
    out.append((["sigma1-compile", f"exists z. (z = {a} /\\ {r} = z + z)",
                 "--result", r],
                lambda code, t, a=a: code == OK and t["kind"] == "compiled"
                and t["formula_inputs"] == [a]))
    v = rng.choice(NAMES)
    deep = "; ".join([f"{v}:={v}+1"] * DEEP_STATEMENTS)
    out.append((["run", deep, "--fuel", "10000"],
                lambda code, t, v=v: code == OK and t["terminated"]
                and t["steps"] == DEEP_STATEMENTS
                and t["state"] == {v: DEEP_STATEMENTS}))
    return [(argv + ["--json"], check) for argv, check in out]


def _child_op(ctx, argv, check):
    desc = " ".join(argv)

    def fn():
        p = subprocess.run([sys.executable, "-c", CONSOLE, *argv],
                           stdin=subprocess.DEVNULL, capture_output=True,
                           text=True, env=child_env(),
                           cwd=ctx.workdir, timeout=120)
        cls = _crash_class(p.stderr)
        if cls:
            raise Crashed(cls)
        return _judge(desc, p.returncode, p.stdout, check)
    return Op(argv[0], desc, fn)


def _inprocess_op(ctx, argv, check):
    from arithver import cli
    desc = " ".join(argv)
    argv = [ctx.files.get(a, a) for a in argv]

    def fn():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        return _judge(desc, code, out.getvalue(), check)
    return Op(argv[0], desc, fn)


def _judge(desc, code, stdout, check):
    try:
        tree = json.loads(stdout)
    except ValueError:
        tree = None
    ok = tree is not None
    try:
        ok = ok and check(code, tree)
    except (KeyError, TypeError):
        ok = False
    expect(ok, f"{desc}: exit {code}, output {stdout[:300]!r}")
    return code in (OK, FALSIFIED)


def round_ops(ctx, i):
    return [_child_op(ctx, argv, check)
            for argv, check in tour(round_rng(ctx.seed, i))]


def inprocess_round_ops(ctx, i):
    return [_inprocess_op(ctx, argv, check)
            for argv, check in tour(round_rng(ctx.seed, i))]
