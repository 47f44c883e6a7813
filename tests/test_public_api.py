"""Public-API surface tests.

Every name a package advertises in ``__all__`` must resolve, and the
top-level package must re-export the documented core surface.  This
catches broken re-exports during refactors before any functional test
runs.
"""

from __future__ import annotations

import importlib

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.core",
    "repro.mechanisms",
    "repro.optim",
    "repro.estimation",
    "repro.simulation",
    "repro.kernels",
    "repro.pipeline",
    "repro.pipeline.collect",
    "repro.pipeline.service",
    "repro.datasets",
    "repro.audit",
    "repro.experiments",
    "repro.extensions",
    "repro.io",
]


@pytest.mark.parametrize("package", PACKAGES)
def test_all_names_resolve(package):
    module = importlib.import_module(package)
    assert hasattr(module, "__all__"), f"{package} has no __all__"
    for name in module.__all__:
        assert hasattr(module, name), f"{package}.{name} in __all__ but missing"


@pytest.mark.parametrize("package", PACKAGES)
def test_all_public_names_documented(package):
    """Every __all__ symbol carries a docstring (class/function/module)."""
    module = importlib.import_module(package)
    for name in module.__all__:
        obj = getattr(module, name)
        if isinstance(obj, (int, float, str, tuple, dict)):
            continue  # constants (MODELS, DEFAULT_*) documented at module level
        doc = getattr(obj, "__doc__", None)
        assert doc and doc.strip(), f"{package}.{name} lacks a docstring"


def test_top_level_exports_core_workflow():
    """The README's import lines must keep working."""
    for name in (
        "BudgetSpec",
        "IDUE",
        "IDUEPS",
        "FrequencyEstimator",
        "Aggregator",
        "PolicyGraph",
        "CompositionAccountant",
        "LDP",
        "IDLDP",
        "MIN",
        "AVG",
        "solve",
        "itemset_budget",
        "CountAccumulator",
        "ShardedRunner",
        "stream_counts",
    ):
        assert hasattr(repro, name), f"repro.{name} missing from top level"


def test_version_string():
    assert isinstance(repro.__version__, str)
    assert repro.__version__.count(".") == 2


def test_exception_hierarchy():
    """All library exceptions derive from ReproError (catchable at once)."""
    from repro import (
        BudgetError,
        DatasetError,
        EstimationError,
        InfeasibleError,
        PrivacyViolationError,
        ReproError,
        SolverError,
        ValidationError,
    )

    for exc in (
        ValidationError,
        BudgetError,
        InfeasibleError,
        SolverError,
        PrivacyViolationError,
        DatasetError,
        EstimationError,
    ):
        assert issubclass(exc, ReproError)
    assert issubclass(ValidationError, ValueError)  # plays well with stdlib
