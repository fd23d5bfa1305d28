"""Context-free parsing by repeated grammar derivatives.

A grammar is a cyclic graph of six expression forms.  Consuming a token means
taking the derivative of the whole graph with respect to that token; after the
last token, every parse tree of the input is read out of the nodes that match
the empty word.  Construction-time compaction, a nullability fixed point
whose verdicts are final once decided, and a derivative cache that keeps
every token's result per node (one slot first, a map only from a second token) keep the
node count cubic in the input length and the practical cost close to
linear.

The exports are grouped as in the README's Python API section: parsing
(load_grammar, which raises GrammarError with the line:col of a bad source,
then recognize, parse, and the forest consumers count_parses,
enumerate_trees, tree_text and forest_to_json); the reference oracles
(load_bnf, earley_recognize, earley_count, enumerate_language), which share
no code with the derivative engine, only its Infinite and wildcard
constants; NamingError, an engine bug that debug names catch; and the layer
entry points that the traced benchmark calls one at a time.  Engine
internals are imported from the module that defines them.
"""

from .grammar import (
    Context, Grammar, normalize_grammar, reachable_nodes, use_context,
)
from .forest import (
    INFINITE, Leaf, Pair, Prod,
    count_parses, enumerate_trees, forest_to_json, parse_null, tree_text,
)
from .nullability import is_nullable
from .derivation import derive, parse, recognize
from .oracle import (
    BnfGrammar, earley_count, earley_recognize, enumerate_language,
)
from .loader import GrammarError, build_graph, load_bnf, load_grammar
from .instrumentation import NamingError

__version__ = "0.1.0"

__all__ = [
    "load_grammar", "recognize", "parse",
    "count_parses", "enumerate_trees", "tree_text", "forest_to_json",
    "load_bnf", "earley_recognize", "earley_count", "enumerate_language",
    "GrammarError", "NamingError",
    "INFINITE", "Leaf", "Pair", "Prod", "BnfGrammar",
    "Context", "Grammar", "build_graph", "derive", "is_nullable",
    "normalize_grammar", "parse_null", "reachable_nodes", "use_context",
]
