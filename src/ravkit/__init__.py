"""ravkit: exact numeric and symbolic engine for the OSSTMM v3 rav metric
and Trust Rule calculus, with an executable critique suite.

The package computes Actual Security in exact rational arithmetic
(:mod:`ravkit.metrics`), rebuilds the same pipeline as a symbolic
expression over formal unit variables (:mod:`ravkit.symbolic`), scores
applicant records with the quoted Trust Rules (:mod:`ravkit.trust`),
parses scope files, scanner XML and applicant CSVs (:mod:`ravkit.ingest`),
renders deterministic reports (:mod:`ravkit.report`), and packages the
known weaknesses of the metric as reproducible findings
(:mod:`ravkit.critique`).

``import ravkit`` loads none of these modules.  Each public name in
``__all__`` is looked up in its submodule the first time it is read
(PEP 562), so ``from ravkit import actual_security`` loads ``metrics``
and ``errors`` only, and ``from ravkit import *`` loads every layer.
The submodules themselves import what they use directly, never through
the package.
"""

__version__ = "0.1.0"

#: Public name -> the submodule that defines it.
_SOURCES = {
    "errors": (
        "CsvFormatError",
        "DomainError",
        "InputError",
        "RavkitError",
        "ScanFormatError",
        "ScopeFormatError",
        "UndefinedTrustError",
        "UndefinedWeightError",
        "UnassignedVariableError",
        "ZeroDenominatorError",
    ),
    "metrics": (
        "AGGREGATE_CHANNEL",
        "CHANNELS",
        "LIMITATION_CATEGORIES",
        "META_CLASS_A",
        "META_CLASS_B",
        "ControlClass",
        "ControlCounts",
        "LimitationCounts",
        "PorosityCounts",
        "RavBreakdown",
        "Scope",
        "Weights",
        "actual_security",
        "aggregate_scopes",
        "toy_scope",
    ),
    "polynomial": ("Polynomial", "divide_exact", "polynomial_gcd"),
    "ratfun": ("RationalFunction",),
    "symbolic": (
        "EquivalenceResult",
        "LogSquareAtom",
        "SymbolicBreakdown",
        "SymbolicScore",
        "equivalent",
        "symbolic_breakdown",
        "symbolic_rav",
    ),
    "trust": (
        "ApplicantRecord",
        "RuleResult",
        "TrustProperty",
        "TrustScore",
        "consistency_ratios",
        "consistency_score",
        "porosity_rule",
        "ratios_equal",
        "score_applicant",
        "unmonitored_hours_rule",
    ),
    "ingest": (
        "ScanReport",
        "ScopeDocument",
        "ScopeEntry",
        "import_scan_report",
        "merge_scan_into_scope",
        "parse_applicants_csv",
        "parse_scope_document",
        "parse_scope_file",
        "render_scope_document",
    ),
    "report": ("parse_report", "render_findings", "render_report", "render_trust_report"),
    "critique": (
        "CollisionBounds",
        "CritiqueFinding",
        "collision_search",
        "cross_class_counterexample",
        "formula_discrepancy_demo",
        "permutation_demo",
        "prose_actual_security",
        "trust_aggregation_demo",
        "trust_equivalence_demo",
    ),
}
_SOURCE_OF = {name: module for module, names in _SOURCES.items() for name in names}

__all__ = list(_SOURCE_OF)


def __getattr__(name: str):
    module = _SOURCE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later reads skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
