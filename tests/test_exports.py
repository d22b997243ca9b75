"""Every ``__all__`` under ``repro`` names something its module defines,
every definition in ``repro`` has a caller outside the tests, and every
import in ``repro`` is used."""

import ast
import importlib
import pkgutil
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parents[1]

#: The code whose references count as callers: the package itself, the
#: paper benches, the examples and the reference-day benchmark.
CALLER_DIRS = ("src", "benchmarks", "examples", "daybench")

#: Definitions nothing in :data:`CALLER_DIRS` names that stay anyway.
KEEP = {
    # Sensitivity functions repro.cluster exports for custom workloads.
    "repro.cluster.contention.LinearSensitivity":
        "sensitivity of the synthetic test workloads (tests/_synthetic.py)",
    "repro.cluster.contention.FlatSensitivity":
        "sensitivity of a workload that ignores memory pressure",
    # The reference oracle.
    "repro.placement.search.exhaustive_best":
        "exact optimum the annealing and greedy placers are tested against",
    # Documented API and registrations.
    "repro.obs.recorder.recording":
        "library tracing entry point shown in docs/observability.md",
    "repro.core.multiway.relaxed_cluster_spec":
        "the >2-way co-location spec docs/extending.md tells users to build",
    "repro.sim.metrics.slowdown_breakdown":
        "phase diagnostic docs/paper_mapping.md §4.4 points at",
    "repro.sim.metrics.all_stage_stats":
        "trace diagnostic of sim/metrics.py (docs/paper_mapping.md §4.4)",
    "repro.sim.metrics.StageStats.straggler_ratio":
        "barrier-stall signal of sim/metrics.py (docs/paper_mapping.md §4.4)",
    # Paper-table data.
    "repro.experiments.table5_mixes.mix_by_name":
        "Table 5 lookup by the paper's mix names",
    "repro.experiments.table5_mixes.workload_pool":
        "the workloads Table 5's mixes draw from",
    "repro.experiments.registry.all_experiment_ids":
        "every registered paper experiment id",
    "repro.experiments.fig11_performance.Fig11Result.measured_bands":
        "Figure 11 mixes re-banded by measured difference (EXPERIMENTS.md)",
    # Hooks that tests read to check code that stays.
    "repro.obs.recorder.TraceRecorder.spans_named":
        "tests read recorded spans by name",
    "repro.service.loop.ConsolidationService.cancelled_total":
        "tests count cancellations the service honoured",
    "repro.scale.service.ShardedConsolidationService.cell_migrations_total":
        "tests count the coordinator's cross-cell moves",
    "repro.sim.runner.ClusterRunner.total_measurement_count":
        "tests check the runner's measurement accounting",
    "repro.core.profiling.plan.MeasurementOracle.distinct_settings_measured":
        "tests check profiling cost accounting",
    "repro.daemon.executor.ExecutorPool.idle_count":
        "tests check that crashed workers are respawned",
    "repro.sim.pressure.PressureField.is_active":
        "tests check which co-runners the simulator counts",
    "repro.sim.pressure.PressureField.generated_on":
        "tests check the pressure the simulator sums on a node",
    "repro.placement.qos.QoSPlacementResult.predicted_feasible":
        "tests check the QoS placer's predicted feasibility",
}


def test_every_exported_name_resolves():
    names = ["repro"] + [
        info.name
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        # A ``__main__`` module runs the CLI when imported.
        if info.name.rsplit(".", 1)[-1] != "__main__"
    ]
    missing = []
    for name in names:
        module = importlib.import_module(name)
        missing += [
            f"{name}.{export}"
            for export in getattr(module, "__all__", ())
            if not hasattr(module, export)
        ]
    assert "repro.cluster.cluster" in names
    assert missing == []


def _all_nodes(tree):
    """The nodes inside ``__all__ = [...]``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            yield from ast.walk(node.value)


def _all_constants(tree):
    """Ids of the string constants inside ``__all__ = [...]``."""
    return {id(node) for node in _all_nodes(tree)}


def _used_names(trees):
    """``(bare, attributes)``: every name a ``Name`` mentions, and every
    name an ``Attribute`` or an identifier string (a ``getattr`` name, a
    daybench layer target) mentions."""
    bare, attributes = set(), set()
    for tree in trees:
        exported = _all_constants(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                bare.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and node.value.isidentifier()
                and id(node) not in exported
            ):
                attributes.add(node.value)
    return bare, attributes


def _definitions(module, tree):
    """``(qualified name, bare name, is a class member)`` of module- and
    class-level defs."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, kinds):
            yield f"{module}.{node.name}", node.name, False
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, kinds):
                        yield (
                            f"{module}.{node.name}.{member.name}",
                            member.name,
                            True,
                        )


def test_every_definition_has_a_non_test_caller():
    trees = {}
    for directory in CALLER_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            trees[path] = ast.parse(path.read_text(encoding="utf-8"))
    bare, attributes = _used_names(trees.values())
    package = ROOT / "src" / "repro"
    unused = set()
    for path, tree in trees.items():
        if package not in path.parents:
            continue
        module = ".".join(path.relative_to(ROOT / "src").with_suffix("").parts)
        for qualified, name, member in _definitions(module, tree):
            dunder = name.startswith("__") and name.endswith("__")
            # A member is reached through an attribute or by name in a
            # string; a local variable sharing its name is no caller.
            used = attributes if member else bare | attributes
            if not dunder and name not in used:
                unused.add(qualified)
    orphans = sorted(unused - set(KEEP))
    assert not orphans, (
        "only tests reach these; delete them or give them a reason in "
        "KEEP:\n  " + "\n  ".join(orphans)
    )
    stale = sorted(set(KEEP) - unused)
    assert not stale, (
        "these KEEP entries are gone or now have a caller; drop them:\n  "
        + "\n  ".join(stale)
    )


def _string_annotation_names(tree):
    """Names mentioned inside string annotations (``-> "Placement"``)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            annotation = node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotation = node.returns
        else:
            continue
        if annotation is None:
            continue
        for part in ast.walk(annotation):
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                parsed = ast.parse(part.value, mode="eval")
                names.update(
                    name.id for name in ast.walk(parsed)
                    if isinstance(name, ast.Name)
                )
    return names


def test_every_import_is_used():
    package = ROOT / "src" / "repro"
    unused = []
    for path in sorted(package.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {
            node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
        }
        used |= {
            node.value for node in _all_nodes(tree)
            if isinstance(node, ast.Constant)
        }
        used |= _string_annotation_names(tree)
        module = ".".join(path.relative_to(ROOT / "src").with_suffix("").parts)
        for node in tree.body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used:
                    unused.append(f"{module}: {bound}")
    assert not unused, (
        "these imports are never used; delete them:\n  "
        + "\n  ".join(unused)
    )
