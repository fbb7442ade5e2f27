"""The benchmark tracer's patch sites and the workloads' call sites exist
in the package.

`perfbench/spans.py` swaps traced wrappers in at the names where callers
look functions up.  A refactor that moves or renames one of them breaks
the tracer with a KeyError, which only the slow `python3 -m pytest
perfbench` run would otherwise show.  The file is loaded by path, as is.
`perfbench/workloads.py` calls the package through module aliases; its
syntax tree is read for them, without running it.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SPANS = PERFBENCH / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_module_patch_sites_are_module_attributes():
    missing = [f"{span}: {module_name}.{attr}"
               for span, sites in _spans().MODULE_PATCHES.items()
               for module_name, attr in sites
               if not callable(vars(importlib.import_module(module_name)).get(attr))]
    assert not missing, f"tracer patch sites gone: {missing}"


def test_class_patch_sites_are_defined_on_their_classes():
    from polysafe.cbf import ExtendedCbf
    from polysafe.plant import ArmParams
    from polysafe.qp import SafeguardAssembler

    assert callable(ExtendedCbf.__dict__["term_rows"])
    assert isinstance(ArmParams.__dict__["coefficients"], property)
    assert callable(SafeguardAssembler.__dict__["solve"])


def test_estimate_constants_calls_g2_at_every_grid_point():
    # the benchmark samples machine speed from the G2 calls of this scan
    import dataclasses

    from polysafe import plant as pplant
    from polysafe.polytope import hexagon_spec, position_bounding_box

    spec = hexagon_spec()
    arm = pplant.two_link_arm(pplant.ArmParams(gravity=True))
    calls = []

    def counting_G2(x1):
        calls.append(1)
        return arm.G2(x1)

    pplant.estimate_constants(dataclasses.replace(arm, G2=counting_G2), spec,
                              resolution=20)
    grid = pplant._position_grid(spec, *position_bounding_box(spec), 20)
    assert len(calls) >= len(grid) > 0


def test_workload_call_sites_are_package_attributes():
    # workloads.py imports `from polysafe import cbf as pcbf`, ...: every
    # attribute it reads through such an alias must still exist
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    aliases = {a.asname or a.name: f"{node.module}.{a.name}"
               for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               and node.module == "polysafe" for a in node.names}
    used = {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in aliases}
    assert {alias for alias, _ in used} == {"pcbf", "pplant", "ppoly", "pqp", "psim"}
    missing = sorted(f"{aliases[alias]}.{attr}" for alias, attr in used
                     if not hasattr(importlib.import_module(aliases[alias]), attr))
    assert not missing, f"workload call sites gone: {missing}"
