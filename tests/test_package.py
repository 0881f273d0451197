"""The package namespace: every public name, each resolved from its module
on first use."""

import importlib

import pytest

import treemeasure

PUBLIC = [
    "BudgetError", "BuiltSpec", "ConditionalExtension", "Configuration",
    "ConsistencyReport", "Context", "ContextMismatchError", "Cover", "CoverError",
    "CylinderSet", "DepthLimitError", "DisjointnessError", "EventAnd", "EventAtom",
    "EventNot", "EventOr", "ExtensionHandle", "FamilyDepthError", "INFINITE",
    "MassError", "MeasureFamily", "NatSeq", "NestingError", "NormalizedExtension",
    "Rectangle", "SigmaFiniteExtension", "SigmaValue", "SiteConstraint",
    "SpecDocument", "SpecError", "SpecSemanticError", "SpecSyntaxError",
    "SpinRangeError", "SpinSet", "TransitionKernel", "TreeGeometry",
    "TreeMeasureError", "VerificationError", "Violation", "VolumeMeasure",
    "additivity_check", "agreement_cylinder", "build_document", "check_consistency",
    "compile_event", "conditional_family", "constraint_in", "constraint_not_in",
    "continuity_probe", "cover_independence", "cover_sum_check", "cylinder",
    "empty_set", "errors", "extension", "finite_cover", "fixed_level_cover",
    "from_configuration", "from_constraints", "generator_decomposition",
    "inner_compact_approx", "load_spec", "lower_event", "make_rectangle",
    "marginal_table", "markov_family", "measure", "normalized_extension", "omega",
    "parse_document", "parse_event", "product_family", "random_consistent_family",
    "random_cylinder", "render_document", "render_event", "render_value",
    "restriction_identity_check", "rho", "scale", "sigma_extension", "sigma_finite",
    "single_site", "slice_cover", "specdsl", "table_family", "tree",
    "uniqueness_crosscheck", "value_add", "value_mul", "value_pow", "value_sub",
]
SUBMODULES = ["cylinder", "errors", "extension", "measure", "sigma_finite", "specdsl", "tree"]


def test_all_lists_the_public_names():
    assert treemeasure.__all__ == PUBLIC


@pytest.mark.parametrize("module", SUBMODULES)
def test_each_submodule_name_resolves_to_the_module(module, monkeypatch):
    # unbound, as before the module's first import, the name goes through
    # the module __getattr__
    monkeypatch.delattr(treemeasure, module, raising=False)
    assert getattr(treemeasure, module) is importlib.import_module(f"treemeasure.{module}")


def test_each_exported_name_is_the_object_in_its_module(monkeypatch):
    for name in sorted(set(PUBLIC) - set(SUBMODULES)):
        monkeypatch.delattr(treemeasure, name, raising=False)
        module = importlib.import_module(f"treemeasure.{treemeasure._OWNER[name]}")
        assert getattr(treemeasure, name) is getattr(module, name), name
        assert vars(treemeasure)[name] is getattr(module, name)  # bound by the first read


def test_star_import_binds_every_name():
    namespace = {}
    exec("from treemeasure import *", namespace)
    assert set(PUBLIC) <= set(namespace)
    assert namespace["load_spec"] is treemeasure.specdsl.load_spec


def test_dir_lists_every_public_name():
    listed = dir(treemeasure)
    assert set(PUBLIC) <= set(listed)
    assert listed == sorted(listed)


def test_an_unknown_name_raises_the_standard_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'treemeasure' has no attribute 'nope'$"):
        treemeasure.nope
    assert not hasattr(treemeasure, "cli_main")
