"""The benchmark tracer's patch sites exist in the package.

`perfbench/spans.py` swaps traced wrappers in at the names where callers
look functions up.  A refactor that moves or renames one of them breaks
the tracer with a KeyError, which only the slow `python3 -m pytest
perfbench` run would otherwise show.  The file is loaded by path, as is.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


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
