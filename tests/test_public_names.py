"""The package's public names: each module declares its own, the package
republishes their union."""

import ast
import importlib
from pathlib import Path

import apportion

MODULES = ("methods", "oracle", "serialize", "types")
PACKAGE = Path(apportion.__file__).parent

# The public interface, in the order ``apportion.__all__`` lists it.
PUBLIC = [
    "Allocation", "AwardLog", "DHONDT", "EnumerationGuardError", "HARE", "InputError",
    "InstanceSpace", "IterationGuardError", "METHODS", "QuotaReport", "SAINTE_LAGUE",
    "STOP_CAP", "STOP_FIXED", "STOP_RESIDUAL", "SeedDistribution", "SeededRun",
    "SuiteReport", "TieEvent", "TiePolicy", "TraceTable", "VoteTally",
    "allocation_from_json", "bias_montecarlo", "check_quota_property", "compute_quotas",
    "dumps", "enumerate_allocations", "equivalence_suite",
    "find_house_monotonicity_violation", "find_quota_violation", "hare_niemeyer",
    "highest_averages", "jsonify", "jump_allocation", "multiplicative",
    "quota_report_from_json", "seats_at_multiplier", "seeded_divisor",
    "seeded_run_from_json", "seeded_sequential_hare", "sequential_hare",
    "tally_from_json", "trace_from_json",
]


def _defined_at_top_level(path):
    """Names a module binds by a top-level ``class``, ``def`` or assignment."""
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def test_each_module_lists_only_names_it_defines():
    for name in MODULES:
        module = importlib.import_module(f"apportion.{name}")
        defined = _defined_at_top_level(PACKAGE / f"{name}.py")
        assert set(module.__all__) <= defined, name
        assert len(set(module.__all__)) == len(module.__all__), name
        assert all(hasattr(module, public) for public in module.__all__), name


def test_the_package_exports_the_sorted_union_of_the_modules():
    union = [n for name in MODULES for n in importlib.import_module(f"apportion.{name}").__all__]
    assert len(set(union)) == len(union)  # no name is declared twice
    assert apportion.__all__ == sorted(union) == PUBLIC


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from apportion import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == PUBLIC
    assert all(namespace[name] is getattr(apportion, name) for name in PUBLIC)


def test_the_package_init_spells_out_no_public_name():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    spelled = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    spelled |= {node.value for node in ast.walk(tree)
                if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    spelled |= {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert spelled & set(PUBLIC) == set()


def _imported(path):
    """The dotted names that the imports of a package module name, each
    relative one resolved against the package."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["apportion" if node.level else "", node.module]))
            yield base
            yield from (f"{base}.{alias.name}" for alias in node.names)


def test_no_module_of_the_package_imports_the_cli():
    assert "apportion.tracetext" in set(_imported(PACKAGE / "cli.py"))
    for path in sorted(PACKAGE.glob("*.py")):
        names = [n for n in _imported(path) if f"{n}.".startswith("apportion.cli.")]
        assert names == [], path.name
