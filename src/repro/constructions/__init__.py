"""The paper's constructive proofs, as executable code.

* :mod:`repro.constructions.figure1` — the exact TVG-automaton of
  Figure 1 / Table 1 whose no-wait language is ``a^n b^n``;
* :mod:`repro.constructions.godel` — word-in-clock prime encodings, the
  arithmetic trick Table 1 is a special case of;
* :mod:`repro.constructions.nowait_universal` — Theorem 2.1: a TVG whose
  no-wait language equals any given computable language;
* :mod:`repro.constructions.wait_regular` — Theorem 2.2 (easy
  direction): every regular language as a wait language;
* :mod:`repro.constructions.bounded_wait` — Theorem 2.3: the time
  dilation making ``wait[d]`` no stronger than no-wait.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.constructions.bounded_wait": (
        "compile_bounded_wait",
        "expand_for_bounded_wait",
    ),
    "repro.constructions.figure1": ("figure1_automaton", "figure1_graph"),
    "repro.constructions.godel": ("GodelEncoding", "nth_prime", "primes"),
    "repro.constructions.nowait_universal": ("nowait_automaton_for",),
    "repro.constructions.wait_regular": ("automaton_to_tvg", "regex_to_tvg"),
})
