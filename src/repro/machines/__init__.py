"""Computability substrate: Turing machines, counter machines, deciders.

Theorem 2.1 quantifies over *computable languages*, so the reproduction
needs a stock of decision procedures that are visibly Turing-complete
computations rather than automata in disguise.  This package provides a
deterministic Turing machine simulator, a library of machines for the
classic non-regular and non-context-free languages, Minsky counter
machines, and the :class:`Decider` wrapper that gives all of them (and
plain Python predicates) one interface with an explicit step budget.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.machines.counter": ("CounterMachine",),
    "repro.machines.decider": ("Decider", "predicate_decider", "tm_decider"),
    "repro.machines.programs": ("programs",),
    "repro.machines.tape": ("Tape",),
    "repro.machines.turing": (
        "ACCEPT",
        "REJECT",
        "HaltReason",
        "TMResult",
        "TuringMachine",
    ),
})
