"""Source hygiene: no module imports a name it never uses, none imports
another module's private (underscored) name, the while language has one
syntax tree, whose guards are formulas, and one builder of `;` chains,
every proof rule is declared in the one rule table, every schema
constructor in the one schema table, no syntax node prints itself but
through the one printer in syntax, every node class names all its
fields in __match_args__, which the source reads instead of
dataclasses.fields, the command line loads neither xrec nor hierarchy
until a command runs them, and the package exports the same names it
always has."""

import ast
import dataclasses
import importlib
import inspect
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

from arithver import proofs, terms, whilelang, xrec

SRC = Path(__file__).resolve().parent.parent / "src" / "arithver"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imports(tree):
    """(bound name, imported name) for every import in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                yield (a.asname or a.name).split(".")[0], a.name
        elif isinstance(node, ast.ImportFrom):
            for a in node.names:
                yield a.asname or a.name, a.name


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = sorted(bound for bound, _ in _imports(tree) if bound not in used)
    assert not unused, f"{path.name} imports unused names: {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_imports(path):
    tree = ast.parse(path.read_text())
    private = sorted(name for _, name in _imports(tree)
                     if name.rsplit(".", 1)[-1].startswith("_"))
    assert not private, f"{path.name} imports private names: {private}"


def _sibling_imports(path):
    """The package modules a module imports from."""
    tree = ast.parse(path.read_text())
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                out.add(node.module)
            else:
                out.update(a.name for a in node.names)
    return out


def test_coding_needs_only_terms():
    assert _sibling_imports(SRC / "coding.py") == {"terms"}


def test_xrec_does_not_import_alpha():
    assert "alpha" not in _sibling_imports(SRC / "xrec.py")


def test_whilelang_nodes_are_programs():
    # guards are formulas from terms, so every syntax node that whilelang
    # itself defines is a statement; RunOutcome is a result record
    nodes = [c for _, c in inspect.getmembers(whilelang, inspect.isclass)
             if c.__module__ == whilelang.__name__
             and dataclasses.is_dataclass(c) and c is not whilelang.RunOutcome]
    assert nodes
    assert all(issubclass(c, whilelang.Program) for c in nodes), nodes


def _seq_calls(tree):
    return [n for n in ast.walk(tree) if isinstance(n, ast.Call)
            and isinstance(n.func, ast.Name) and n.func.id == "Seq"]


def test_only_seq_builds_seq_nodes():
    # whilelang.seq nests `;` as the parser reads it, so every program the
    # library builds prints a text that reads back as the same tree
    for path in MODULES:
        tree = ast.parse(path.read_text())
        calls = set(_seq_calls(tree))
        if path.name == "whilelang.py":
            builder, = (f for f in tree.body if isinstance(f, ast.FunctionDef)
                        and f.name == "seq")
            calls -= set(_seq_calls(builder))
        assert not calls, path.name


NODE_BASES = (terms.Term, terms.Formula, whilelang.Program)
TREE_NODES = {c for m in (terms, whilelang)
              for _, c in inspect.getmembers(m, inspect.isclass)
              if c.__module__ == m.__name__ and issubclass(c, NODE_BASES)}


def test_only_the_base_classes_print():
    # syntax prints every term, formula and program by one walk; a node
    # class reaches it through its base class's __str__, which is its
    # __repr__ too, and restates no concrete syntax of its own
    assert len(TREE_NODES) == 24
    for name in ("__str__", "__repr__"):
        printing = {c for c in TREE_NODES if name in vars(c)}
        assert printing == set(NODE_BASES), name
    for c in NODE_BASES:
        assert c.__repr__ is c.__str__, c


def test_tree_nodes_compare_by_identity():
    # trees compare by structure through terms.alpha_equal alone: no node
    # class defines == or hash of its own, so both are object's
    for c in TREE_NODES:
        assert not {"__eq__", "__ne__", "__hash__"} & set(vars(c)), c
        assert c.__eq__ is object.__eq__ and c.__hash__ is object.__hash__, c


def test_every_proof_rule_is_in_the_rule_table():
    # the parser, the printer and the checker read proofs.RULES, so a
    # rule must be declared there, with one label per field before its
    # conclusion, or not at all
    rules = [c for _, c in inspect.getmembers(proofs, inspect.isclass)
             if c.__module__ == proofs.__name__
             and issubclass(c, proofs.ProofNode) and c is not proofs.ProofNode]
    assert rules
    assert set(rules) == set(proofs.RULES)
    for rule in rules:
        names = [f.name for f in dataclasses.fields(rule)]
        assert names[-1] == "conclusion", rule
        assert len(proofs.RULES[rule][1]) == len(names) - 1, rule
    keywords = [kw for kw, _ in proofs.RULES.values()]
    assert len(set(keywords)) == len(keywords)


def test_every_schema_is_in_the_schema_table():
    # the parser and the printer read xrec.SCHEMAS, so a schema class must
    # be declared there, listing only fields it has
    schemas = [c for _, c in inspect.getmembers(xrec, inspect.isclass)
               if c.__module__ == xrec.__name__
               and issubclass(c, xrec.XRecSchema) and c is not xrec.XRecSchema]
    assert schemas
    assert set(schemas) == set(xrec.SCHEMAS)
    for schema in schemas:
        names = {f.name for f in dataclasses.fields(schema)}
        assert set(xrec.SCHEMAS[schema][1]) <= names, schema
    keywords = [kw for kw, _ in xrec.SCHEMAS.values()]
    assert len(set(keywords)) == len(keywords)
    assert not set(keywords) & (set(xrec.STDLIB) | set(xrec.STDLIB_COMBINATORS))


def test_node_classes_match_their_fields():
    # terms.variables, alpha_equal and operands, the printer and the
    # checker walk a node by __match_args__, so it must name every field
    bases = (terms.Term, terms.Formula, whilelang.Program, proofs.ProofNode,
             xrec.XRecSchema)
    nodes = [c for m in (terms, whilelang, proofs, xrec)
             for _, c in inspect.getmembers(m, inspect.isclass)
             if c.__module__ == m.__name__ and issubclass(c, bases)
             and c not in bases]
    assert len(nodes) == 35
    for c in nodes:
        assert c.__match_args__ == tuple(
            f.name for f in dataclasses.fields(c)), c


def test_no_module_reads_dataclass_fields():
    # the source reads a node's fields by __match_args__, which a class
    # that is no dataclass can have too
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text())
        imported = [a.name for n in ast.walk(tree)
                    if isinstance(n, ast.ImportFrom) and n.module == "dataclasses"
                    for a in n.names]
        read = [n for n in ast.walk(tree)
                if isinstance(n, ast.Attribute) and n.attr == "fields"
                and isinstance(n.value, ast.Name) and n.value.id == "dataclasses"]
        assert "fields" not in imported and not read, path.name


def test_cli_import_loads_neither_xrec_nor_hierarchy():
    # in a fresh interpreter, as each command-line call is.  The other
    # modules stay eager: bench/tracing.py finds every module it wraps in
    # sys.modules once arithver.cli is imported and the workload has run
    out = subprocess.run(
        [sys.executable, "-c", "import sys, arithver.cli; print(' '.join("
         "sorted(m for m in sys.modules if m.startswith('arithver'))))"],
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
        capture_output=True, text=True, check=True).stdout.split()
    assert out == ["arithver", "arithver.alpha", "arithver.cli",
                   "arithver.coding", "arithver.evaluator", "arithver.proofs",
                   "arithver.syntax", "arithver.terms", "arithver.whilelang"]


# the names `from arithver import *` binds, by the module that defines
# each, and the modules themselves
EXPORTS = {
    "terms": "Add And BExists BForall Eq Exists FalseC Forall Iff Implies Lit "
             "Lt Mul Not Or TrueC Var alpha_equal free_vars substitute "
             "substitute_simultaneous",
    "coding": "beta beta_index pair seq_encode split tuple_decode tuple_encode",
    "evaluator": "FALSE TRUE Budget TriState WitnessSearchError eval_formula "
                 "eval_term find_witnesses unknown",
    "whilelang": "Assign If RunOutcome Seq While program_vars run",
    "hierarchy": "HierarchyLevel classify prenexify",
    "alpha": "HoareTriple Verdict check_triple encode_alpha encode_alpha_out "
             "instantiate_alpha vc vc_instance",
    "xrec": "AddF Cn Const Mn MulF Pr Proj bexists bforall cases "
            "compile_to_while gamma gamma_instance pi1_counterexample_program "
            "prod_of sigma0_char sigma1_to_program sigma1_to_xrec stdlib "
            "sum_of xrec_eval",
    "proofs": "AssignAxiom CheckReport CondRule ConseqRule ProofNode SeqRule "
              "WhileRule check_proof",
    "syntax": "ParseError SourceSpan format_formula format_program "
              "format_proof format_schema parse_formula parse_program "
              "parse_proof parse_schema parse_triple",
}


def test_star_import_binds_the_same_names():
    ns = {}
    exec("from arithver import *", ns)
    del ns["__builtins__"]
    want = {name: module for module, names in EXPORTS.items()
            for name in names.split()}
    assert len(ns) == 104
    assert set(ns) == set(want) | set(EXPORTS)
    assert {n for n, v in ns.items() if isinstance(v, types.ModuleType)} == set(EXPORTS)
    for name, value in ns.items():
        module = importlib.import_module(f"arithver.{want.get(name, name)}")
        assert value is (module if name in EXPORTS else getattr(module, name)), name
    arithver = importlib.import_module("arithver")
    assert not hasattr(arithver, "no_such_name")
