"""Executable first-order arithmetic over N: terms and formulas, sequence
coding, a fuel-bounded while-language, hierarchy classification, the
Sigma_1 program-encoding formula, an X-recursive function calculus with
compilation to while-programs, and a Hoare proof checker.
"""

from .terms import (Add, And, BExists, BForall, Eq, Exists, FalseC, Forall,
                    Iff, Implies, Lit, Lt, Mul, Not, One, Or, TrueC, Var,
                    Zero, alpha_equal, expand_to_core, free_vars, mk_numeral,
                    substitute, substitute_simultaneous)
from .coding import beta, beta_index, pair, seq_encode, split, tuple_decode, tuple_encode
from .evaluator import (FALSE, TRUE, Budget, TriState, WitnessSearchError,
                        eval_formula, eval_term, find_witnesses, unknown)
from .whilelang import (Assign, If, RunOutcome, Seq, While, program_vars,
                        run)
from .hierarchy import HierarchyLevel, classify, prenexify
from .alpha import (HoareTriple, Verdict, check_triple, encode_alpha,
                    encode_alpha_out, instantiate_alpha, vc, vc_instance)
from .xrec import (AddF, Cn, Const, Mn, MulF, Pr, Proj, bexists, bforall,
                   cases, compile_to_while, gamma, gamma_instance,
                   pi1_counterexample_program, prod_of, sigma0_char,
                   sigma1_to_program, sigma1_to_xrec, stdlib, sum_of,
                   xrec_eval)
from .proofs import (AssignAxiom, CheckReport, CondRule, ConseqRule,
                     ProofNode, SeqRule, WhileRule, check_proof)
from .syntax import (ParseError, SourceSpan, format_formula, format_program,
                     format_proof, format_schema, parse_formula,
                     parse_program, parse_proof, parse_schema, parse_triple)

__version__ = "0.1.0"
