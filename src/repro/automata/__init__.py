"""Automata and formal-language toolkit.

Two layers live here:

* a classical substrate — DFA/NFA, regular expressions, boolean
  operations, Hopcroft minimization, equivalence checking — built from
  scratch because Theorem 2.2 identifies ``L_wait`` with the *regular*
  languages and we need that comparator class as executable code; and

* the paper's object of study — the :class:`TVGAutomaton` reading words
  along journeys of a time-varying graph, together with the
  wait-language extractor that turns periodic/finite TVGs into honest
  finite automata.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.automata.alphabet": ("Alphabet",),
    "repro.automata.dfa": ("DFA",),
    "repro.automata.enumeration": (
        "count_words_by_length",
        "enumerate_language",
        "language_upto",
    ),
    "repro.automata.equivalence": (
        "equivalent",
        "find_distinguishing_word",
        "is_subset",
    ),
    "repro.automata.grammars": (
        "ContextFreeGrammar",
        "cfg_anbn",
        "cfg_balanced",
        "cfg_palindromes",
    ),
    "repro.automata.language_compute": (
        "bounded_wait_language_automaton",
        "count_words",
        "nowait_language_automaton",
        "wait_language_automaton",
    ),
    "repro.automata.nfa": ("NFA",),
    "repro.automata.operations": (
        "complement",
        "complete",
        "difference",
        "intersect",
        "minimize",
        "reverse_dfa",
        "union",
    ),
    "repro.automata.pumping": (
        "find_pumping_counterexample",
        "refuted_state_bound",
        "regularity_refutation_ladder",
    ),
    "repro.automata.regex": ("parse_regex", "regex_to_nfa"),
    "repro.automata.tvg_automaton": ("TVGAutomaton",),
    "repro.automata.wqo": ("downward_closure", "is_subword", "upward_closure"),
})
