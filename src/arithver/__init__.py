"""Executable first-order arithmetic over N: terms and formulas, sequence
coding, a fuel-bounded while-language, hierarchy classification, the
Sigma_1 program-encoding formula, an X-recursive function calculus with
compilation to while-programs, and a Hoare proof checker.

The public names below, and the modules that define them, are imported on
first access (PEP 562), so a program pays only for the modules it uses;
`from arithver import *` binds them all, as before.
"""

import importlib

# each module and the public names it exports
_EXPORTS = {
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
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names.split()}

__all__ = [*_EXPORTS, *_HOME]
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
