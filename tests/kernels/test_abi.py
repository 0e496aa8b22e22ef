"""The kernel interface holds only primitives that production code calls.

Two static guards over the ``repro`` sources:

* every public :class:`~repro.kernels.base.KernelBackend` method is
  reached through a kernel handle (a name ending in ``kernel``) from a
  module outside ``repro.kernels``, ``repro.obs`` and ``repro.bench`` —
  a primitive only a benchmark or the instrumentation touches is dead
  weight, and gets deleted instead;
* no module outside ``repro.kernels`` reads ``.vectorized`` — each miner
  has one code path, whatever backend runs it.  The one exception is
  the instrumentation proxy, which stands in for a backend and mirrors
  the attribute onto itself without branching on it.
"""

import ast
from pathlib import Path

import repro
from repro.kernels.base import KernelBackend

PACKAGE = Path(repro.__file__).parent
#: Packages whose calls do not count as production callers.
NOT_PRODUCTION = ("kernels", "obs", "bench")
#: The proxy's mirror of the descriptive attribute (see module docstring).
VECTORIZED_MIRRORS = {"obs/kernel_proxy.py"}


def _modules(skip):
    for path in sorted(PACKAGE.rglob("*.py")):
        relative = path.relative_to(PACKAGE)
        if relative.parts[0] not in skip:
            yield relative.as_posix(), ast.parse(path.read_text(encoding="utf-8"))


def _receiver_name(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return ""


def test_every_primitive_has_a_production_caller():
    primitives = {
        name
        for name, attr in vars(KernelBackend).items()
        if not name.startswith("_") and callable(attr)
    }
    reached = set()
    for _, tree in _modules(NOT_PRODUCTION):
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and node.attr in primitives
                and _receiver_name(node.value).endswith("kernel")
            ):
                reached.add(node.attr)
    assert sorted(primitives - reached) == []


def test_no_module_outside_kernels_reads_vectorized():
    readers = [
        name
        for name, tree in _modules(("kernels",))
        if name not in VECTORIZED_MIRRORS
        and any(
            isinstance(node, ast.Attribute)
            and node.attr == "vectorized"
            and isinstance(node.ctx, ast.Load)
            for node in ast.walk(tree)
        )
    ]
    assert readers == []
