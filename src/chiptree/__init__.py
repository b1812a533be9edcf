"""Chip-firing divisors, monotone search strategies and tree decompositions.

A positive-rank effective divisor of degree k yields a monotone search
strategy for k+1 searchers and from it a tree decomposition of width at
most k.  Harmonic morphisms to trees give decompositions the same way, and
a brute-force gonality search covers desk-scale instances.

Public names load lazily (PEP 562): ``import chiptree`` imports no submodule;
the first access to a name imports its home module and caches it here.
"""

__version__ = "0.1.0"

# home module -> the public names it defines
_EXPORTS = {
    "divisors": "Divisor FiringScript apply_script dhar dist fire_set is_fireable "
                "is_q_reduced level_set_chain q_reduce script_between",
    "errors": "BudgetError ChipTreeError DomainError FormatError GraphError "
              "InternalError NotFireableError",
    "gonality": "GonalityResult dgon_bruteforce effective_divisors has_positive_rank",
    "graph": "MultiGraph",
    "morphism": "FiniteMorphism HarmonicCertificate check_morphism "
                "harmonic_certificate is_tree morphism_to_treedec stable_treedec",
    "strategy": "MssTree Position build_mss good_firing_set validate_mss",
    "treedec": "RefinementMap TreeDecomposition contract_refinement mss_to_treedec "
               "treedec_by_elimination treewidth_bruteforce validate_treedec",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_HOME)


def __getattr__(name):
    from importlib import import_module

    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
