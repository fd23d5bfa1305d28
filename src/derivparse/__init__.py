"""Context-free parsing by repeated grammar derivatives.

A grammar is a cyclic graph of six expression forms.  Consuming a token means
taking the derivative of the whole graph with respect to that token; after the
last token, every parse tree of the input is read out of the nodes that match
the empty word.  Construction-time compaction, a generation-labelled
nullability fixed point, and a derivative cache that keeps every token's
result per node (one slot first, a map only from a second token) keep the
node count cubic in the input length and the practical cost close to
linear.

The oracle module carries an independent Earley recognizer/counter and a
brute-force language enumerator for cross-checking; they share no code with
the derivative engine, only its Infinite and wildcard constants.
"""

from .grammar import (
    ALT, EMPTY, EPSILON, RED, SEQ, TOKEN, WILDCARD,
    Context, Grammar, GrammarNode, ParserSettings,
    become_node, describe_node,
    mk_alt, mk_empty, mk_eps, mk_red, mk_seq, mk_token,
    normalize_grammar, reachable_nodes, use_context,
)
from .reductions import (
    Reduction, compose, lift_left, lift_right,
    pair_left, pair_left_null, pair_right, production, reassociate,
)
from .forest import (
    EMPTY_SET, FNode, ForestSet, INFINITE, Leaf, Pair, Prod,
    count_parses, enumerate_trees, forest_to_json, parse_null, tree_text,
)
from .nullability import is_nullable, is_nullable_naive
from .derivation import derive, parse, recognize
from .oracle import (
    BnfGrammar, Ref, Term, earley_count, earley_recognize, enumerate_language,
)
from .loader import (
    GrammarError, build_graph, load_bnf, load_grammar, load_grammar_file,
    parse_source,
)
from .instrumentation import (
    CSV_FIELDS, Counters, NamingError, NodeName, emit, fresh_name, name_node,
)

__version__ = "0.1.0"

__all__ = [
    "ALT", "EMPTY", "EPSILON", "RED", "SEQ", "TOKEN", "WILDCARD",
    "Context", "Grammar", "GrammarNode", "ParserSettings",
    "become_node", "describe_node",
    "mk_alt", "mk_empty", "mk_eps", "mk_red", "mk_seq", "mk_token",
    "normalize_grammar", "reachable_nodes", "use_context",
    "Reduction", "compose", "lift_left", "lift_right",
    "pair_left", "pair_left_null", "pair_right", "production", "reassociate",
    "EMPTY_SET", "FNode", "ForestSet", "INFINITE", "Leaf", "Pair", "Prod",
    "count_parses", "enumerate_trees", "forest_to_json", "parse_null",
    "tree_text",
    "is_nullable", "is_nullable_naive",
    "derive", "parse", "recognize",
    "BnfGrammar", "Ref", "Term",
    "earley_count", "earley_recognize", "enumerate_language",
    "GrammarError", "build_graph", "load_bnf", "load_grammar",
    "load_grammar_file", "parse_source",
    "CSV_FIELDS", "Counters", "NamingError", "NodeName", "emit",
    "fresh_name", "name_node",
]
