"""Exact-arithmetic cylinder-set measures and extension checks on regular trees.

A module of the package loads when one of its names is first read (PEP 562):
a process that only values events never compiles the spec language or the
σ-finite layer.  The first read binds the name here, so later reads find
it without a call.
"""

import importlib

# module -> the public names it defines
_NAMES = {
    "cylinder": """Configuration Context CylinderSet Rectangle SiteConstraint SpinSet
        agreement_cylinder constraint_in constraint_not_in empty_set from_configuration
        from_constraints generator_decomposition make_rectangle omega random_cylinder rho
        single_site""",
    "errors": """BudgetError ContextMismatchError CoverError DepthLimitError
        DisjointnessError FamilyDepthError MassError NestingError SpecError
        SpecSemanticError SpecSyntaxError SpinRangeError TreeMeasureError
        VerificationError""",
    "extension": """ExtensionHandle additivity_check continuity_probe
        inner_compact_approx uniqueness_crosscheck""",
    "measure": """INFINITE ConsistencyReport MeasureFamily NatSeq TransitionKernel
        Violation VolumeMeasure check_consistency marginal_table markov_family
        product_family random_consistent_family render_value scale table_family
        value_add value_mul value_pow value_sub""",
    "sigma_finite": """ConditionalExtension Cover NormalizedExtension
        SigmaFiniteExtension SigmaValue conditional_family cover_independence
        cover_sum_check finite_cover fixed_level_cover normalized_extension
        restriction_identity_check sigma_extension slice_cover""",
    "specdsl": """BuiltSpec EventAnd EventAtom EventNot EventOr SpecDocument
        build_document compile_event load_spec lower_event parse_document parse_event
        render_document render_event""",
    "tree": "TreeGeometry",
}
_OWNER = {name: module for module, names in _NAMES.items() for name in names.split()}

__all__ = sorted([*_OWNER, *_NAMES])


def __getattr__(name):
    if name in _NAMES:  # importing a submodule binds it here
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
