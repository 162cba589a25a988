"""Pieces the workloads share: operations, verdict errors and oracles.

Known answers never come from arithver.  They come from Python
arithmetic, from the hand-derived levels in tests/hierarchy_fixtures.py,
from outcomes known by hand, and from the exit codes and --json fields
that README.md documents.
"""

import os
import random
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
OUT = Path(__file__).resolve().parent / "out"


def child_env():
    """Environment for child processes: this checkout's sources, and a
    fixed hash seed so that set order, and every count, repeats."""
    return dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")


class WrongVerdict(Exception):
    """A verdict that completed but differs from its known answer."""


class Crashed(Exception):
    """A CLI child that died with a Python traceback."""

    def __init__(self, cls):
        super().__init__(cls)
        self.cls = cls


class Op:
    """One verdict: fn() returns True when decided, False when not.

    fn raises WrongVerdict when the verdict contradicts its known answer;
    any other exception is a failed operation.
    """

    __slots__ = ("kind", "desc", "fn")

    def __init__(self, kind, desc, fn):
        self.kind, self.desc, self.fn = kind, desc, fn


def expect(ok, what):
    if not ok:
        raise WrongVerdict(what)


def round_rng(seed, i):
    """The generator for round i: rounds are reproducible one by one."""
    return random.Random(f"{seed}/{i}")


# the stdlib schemas' functions, straight from their definitions
STDLIB_ORACLES = {
    "pred": lambda a: max(a - 1, 0),
    "monus": lambda a, b: max(a - b, 0),
    "sg": lambda a: min(a, 1),
    "sgbar": lambda a: 1 - min(a, 1),
    "chi_eq": lambda a, b: int(a == b),
    "chi_lt": lambda a, b: int(a < b),
    "max": max,
    "min": min,
}
STDLIB_ARITY = {"pred": 1, "monus": 2, "sg": 1, "sgbar": 1, "chi_eq": 2,
                "chi_lt": 2, "max": 2, "min": 2}


_COUNT_PROOF = """
conseq {
  inner: seq {
    left: assign { conclusion: {true} y := 0 {true} }
    right: loop {
      invariant: true
      body: conseq {
        inner: assign { conclusion: {true} y := y + 1 {true} }
        conclusion: {true /\\ y < x} y := y + 1 {true}
      }
      conclusion: {true} while y < x do y := y + 1 od {true /\\ ~(y < x)}
    }
    conclusion: {true} y := 0; while y < x do y := y + 1 od {true /\\ ~(y < x)}
  }
  conclusion: {true} y := 0; while y < x do y := y + 1 od {%s}
}
"""
# proof files: the counting loop, the same proof of a lie, and one whose
# side condition the bounded evaluator cannot settle at q_bound 3
PROOF_TEXTS = {
    "count": _COUNT_PROOF % "~(y < x)",
    "lie": _COUNT_PROOF % "false",
    "unsettled": """
conseq {
  inner: assign { conclusion: {exists z. z = y + 6} x := 0 {exists z. z = y + 6} }
  conclusion: {true} x := 0 {exists z. z = y + 6}
}
""",
}
