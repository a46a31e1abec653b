"""cslcheck: a proof checker and exact desk-scale semantics for a
probabilistic separation logic over bitstring programs.

The package splits along the usual phases: syntax (parsing and ASTs), types
(judgments and environment algebra), dist (exact rational distributions and
stores), semantics (program execution and the store algebra), logic (formula
satisfaction, axiom schemas, entailment certificates), hoare (the triple
checker, validation, and fuzzing), and cli (the command-line driver).
"""

from .dist import FinDist, Store, memory, stat_dist, uniform_store, zero_store
from .hoare import (
    FuzzReport,
    ProofError,
    ValidationReport,
    check_triple,
    fuzz_rule_soundness,
    validate_triple,
)
from .logic import (
    CertError,
    SchemaError,
    check_hilbert,
    load_registry,
    match_axiom,
    sat_atom,
    sat_bi,
    sat_formula,
    search_annotation,
)
from .semantics import (
    BitBudgetError,
    DEFAULT_MAX_BITS,
    UninterpretedSymbolError,
    bind_stub,
    eval_det,
    eval_expr,
    run,
    run_kozen,
    run_store,
)
from .syntax import (
    EntailmentCert,
    Env,
    Formula,
    HoareTriple,
    NO_SYMBOLS,
    ParseError,
    ProofTree,
    SymbolTable,
    parse_cert,
    parse_decls,
    parse_env,
    parse_expr,
    parse_formula,
    parse_poly,
    parse_proof,
    parse_program,
    parse_type,
)
from .types import (
    TypeCheckError,
    classify_approx,
    classify_exact,
    env_ext,
    env_join,
    type_expr,
    type_program,
    wf_formula,
)

__version__ = "0.1.0"

__all__ = [
    "BitBudgetError",
    "CertError",
    "DEFAULT_MAX_BITS",
    "EntailmentCert",
    "Env",
    "FinDist",
    "Formula",
    "FuzzReport",
    "HoareTriple",
    "NO_SYMBOLS",
    "ParseError",
    "ProofError",
    "ProofTree",
    "SchemaError",
    "Store",
    "SymbolTable",
    "TypeCheckError",
    "UninterpretedSymbolError",
    "ValidationReport",
    "bind_stub",
    "check_hilbert",
    "check_triple",
    "classify_approx",
    "classify_exact",
    "env_ext",
    "env_join",
    "eval_det",
    "eval_expr",
    "fuzz_rule_soundness",
    "load_registry",
    "match_axiom",
    "memory",
    "parse_cert",
    "parse_decls",
    "parse_env",
    "parse_expr",
    "parse_formula",
    "parse_poly",
    "parse_proof",
    "parse_program",
    "parse_type",
    "run",
    "run_kozen",
    "run_store",
    "sat_atom",
    "sat_bi",
    "sat_formula",
    "search_annotation",
    "stat_dist",
    "type_expr",
    "type_program",
    "uniform_store",
    "validate_triple",
    "wf_formula",
    "zero_store",
]
