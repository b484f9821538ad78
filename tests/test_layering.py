"""The import layering of ``src/repro``, pinned.

Every module belongs to one layer, bottom up:

1. the graph substrate (``graphs``, ``exceptions``, ``ranking``);
2. the SLING index and the baseline methods (``sling``, ``baselines``);
3. the query engine (``engine``);
4. the service core (the session facade, wire codec, envelopes, control
   requests, executor, mutations, WAL and query dataclasses);
5. the transports (``service/net`` and ``client.py``);
6. the experiment drivers (``evaluation``);
7. the command line (``cli``).

A module may import its own layer and the layers below it, never one above:
an upward import is a cycle waiting to happen and makes the stack harder to
read from the bottom.  With the experiment drivers at layer 6, only the
command line may import them.  Package ``__init__`` modules only re-export
their members, so they are exempt as importers.  The walk uses ``ast`` alone
(nothing is imported), so it also runs without the numeric dependencies.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: Module-name prefix -> layer; the longest matching prefix wins.
LAYERS = {
    "repro.exceptions": 1,
    "repro.ranking": 1,
    "repro.graphs": 1,
    "repro.sling": 2,
    "repro.baselines": 2,
    "repro.engine": 3,
    **{
        f"repro.service.{name}": 4
        for name in (
            "service", "wire", "results", "control", "parallel",
            "mutations", "wal", "queries",
        )
    },
    # The service package re-exports the transports, so importing it as a
    # whole reaches layer 5.
    "repro.service": 5,
    "repro.service.net": 5,
    "repro.service.client": 5,
    "repro.evaluation": 6,
    "repro.cli": 7,
}


def layer_of(module: str) -> int:
    """The layer of a dotted ``repro`` module name."""
    parts = module.split(".")
    for end in range(len(parts), 0, -1):
        layer = LAYERS.get(".".join(parts[:end]))
        if layer is not None:
            return layer
    raise AssertionError(f"{module} belongs to no layer; add it to LAYERS")


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _is_module(name: str) -> bool:
    base = SRC.joinpath(*name.split("."))
    return base.with_suffix(".py").is_file() or (base / "__init__.py").is_file()


def imported_modules(path: Path) -> set[str]:
    """Every ``repro`` module ``path`` imports, at any depth of its code."""
    module = _module_name(path)
    package = module if path.name == "__init__.py" else module.rpartition(".")[0]
    found: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                anchor = package.split(".")[: len(package.split(".")) - node.level + 1]
                base = ".".join(anchor + ([node.module] if node.module else []))
            else:
                base = node.module or ""
            # ``from pkg import submodule`` imports the submodule itself.
            for alias in node.names:
                candidate = f"{base}.{alias.name}"
                found.add(candidate if _is_module(candidate) else base)
    return {name for name in found if name == "repro" or name.startswith("repro.")}


def _sources() -> list[Path]:
    return sorted((SRC / "repro").rglob("*.py"))


def test_every_module_has_a_layer():
    for path in _sources():
        if path.name != "__init__.py":
            layer_of(_module_name(path))


def test_no_module_imports_a_layer_above_its_own():
    upward = []
    for path in _sources():
        if path.name == "__init__.py":
            continue
        module = _module_name(path)
        for target in sorted(imported_modules(path)):
            if layer_of(target) > layer_of(module):
                upward.append(
                    f"{module} (layer {layer_of(module)}) imports "
                    f"{target} (layer {layer_of(target)})"
                )
    assert not upward, "upward imports:\n" + "\n".join(upward)


def test_the_walk_sees_relative_and_lazy_imports():
    # service.py imports mutations both at module level and lazily inside
    # open_dataset; the engine reaches the backends through a relative import.
    assert "repro.service.mutations" in imported_modules(
        SRC / "repro" / "service" / "service.py"
    )
    assert "repro.engine.backends" in imported_modules(
        SRC / "repro" / "engine" / "engine.py"
    )
    assert layer_of("repro.service.net.router") == 5
    assert layer_of("repro.service.wire") == 4
