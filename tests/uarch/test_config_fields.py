"""Every configuration field is read by the model.

A field that no code reads can be set but changes nothing, so a sweep
over it would report a flat line as a finding.  Each field of the
config dataclasses below must be read as an attribute (``cfg.<field>``)
somewhere in ``src/repro`` outside its own class body.
"""

import ast
import dataclasses
from pathlib import Path

import pytest

from repro.mem.mt import MtConfig
from repro.mem.sysmem import SysMemConfig
from repro.uarch.config import PredictorConfig, TripsConfig

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def _attribute_reads():
    """Attribute names read anywhere in the package, per enclosing
    class: ``{class name or None: {attr, ...}}``."""
    reads = {}

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Attribute) \
                    and isinstance(child.ctx, ast.Load):
                reads.setdefault(owner, set()).add(child.attr)
            visit(child, owner)

    for path in sorted(SRC.rglob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), None)
    return reads


READS = _attribute_reads()


@pytest.mark.parametrize("cls", [TripsConfig, PredictorConfig, MtConfig,
                                 SysMemConfig], ids=lambda cls: cls.__name__)
def test_every_field_is_read(cls):
    outside = set().union(*(names for owner, names in READS.items()
                            if owner != cls.__name__))
    unread = [f.name for f in dataclasses.fields(cls)
              if f.name not in outside]
    assert unread == [], f"{cls.__name__} fields nothing reads: {unread}"
