"""repro — reproduction of "Waiting in Dynamic Networks" (PODC 2012).

Casteigts, Flocchini, Godard, Santoro, Yamashita: *Brief Announcement:
Waiting in Dynamic Networks* (full version: "Expressivity of
time-varying graphs and the power of waiting in dynamic networks",
arXiv:1205.1975).

The library implements the paper's model and all three theorems as
executable constructions:

* time-varying graphs, journeys, and the three waiting semantics
  (:mod:`repro.core`);
* TVG-automata and the classical automata toolkit they are compared
  against (:mod:`repro.automata`);
* the computability substrate supplying "any computable language"
  (:mod:`repro.machines`);
* the paper's constructions — Figure 1, the Theorem 2.1 universal
  no-wait graph, the regular embedding, the Theorem 2.3 dilation
  (:mod:`repro.constructions`);
* a store-carry-forward network simulator grounding the theory in the
  DTN setting the paper motivates (:mod:`repro.dynamics`);
* reachability / connectivity / expressivity analyses
  (:mod:`repro.analysis`).

Quickstart::

    from repro import figure1_automaton, NO_WAIT, WAIT

    fig1 = figure1_automaton()
    assert fig1.accepts("aabb", NO_WAIT)          # a^n b^n accepted
    assert not fig1.accepts("aab", NO_WAIT)
    assert fig1.accepts("b", WAIT, horizon=64)    # waiting changes the language
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

# Resolved on first access, so importing one submodule (the server, the
# CLI) does not load the theory packages or networkx.
__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.automata": (
        "DFA",
        "NFA",
        "TVGAutomaton",
        "bounded_wait_language_automaton",
        "nowait_language_automaton",
        "wait_language_automaton",
    ),
    "repro.constructions": (
        "compile_bounded_wait",
        "expand_for_bounded_wait",
        "figure1_automaton",
        "figure1_graph",
        "nowait_automaton_for",
        "regex_to_tvg",
    ),
    "repro.core": (
        "BOUNDED_WAIT",
        "NO_WAIT",
        "UNREACHED",
        "WAIT",
        "CompiledTVG",
        "Edge",
        "Hop",
        "Journey",
        "LazyContactCache",
        "Lifetime",
        "TemporalEngine",
        "TimeVaryingGraph",
        "TVGBuilder",
        "WaitingSemantics",
        "bounded_wait",
    ),
    "repro.machines": ("Decider", "TuringMachine", "predicate_decider", "tm_decider"),
    "repro.service": ("QueryCache", "ServiceClient", "TVGService"),
})
__all__.append("__version__")
