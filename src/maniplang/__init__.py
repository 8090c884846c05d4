"""maniplang: a typed cost-expression language for robot manipulation.

An instruction becomes a small expression over a fixed vocabulary (axis and
centroid getters, alignment and distance costs, gripper actions); the
expression is grammar-checked, evaluated geometrically against a point-cloud
scene, and minimized over the gripper's SE(3) pose to produce a target
motion. Retrieval, representation metrics, and a mock-translated task
pipeline round out the desk-scale toolkit.

The public names and submodules below are imported on first use (PEP 562),
for start-up time, not to break an import cycle: `import maniplang` loads
nothing else, so a command that never touches numpy does not pay for it.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {  # module -> the public names it supplies
    "costs": ("EvalContext", "evaluate"),
    "errors": ("ManiplangError",),
    "language": ("default_grammar", "default_vocabulary", "parse", "type_check", "validate_program", "vocabulary_size"),
    "scene": ("Scene", "load_scene", "save_scene"),
    "solver": ("SolveConfig", "SolveResult", "solve"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}
_PUBLIC_MODULES = ("costs", "fixtures", "geometry", "metrics", "pipeline", "retrieval", "scene", "solver")
_SUBMODULES = {*_PUBLIC_MODULES, "errors", "files", "language"}

__all__ = sorted([*_SOURCE, *_PUBLIC_MODULES])


def __getattr__(name: str):
    if name in _SOURCE:
        value = getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later lookups are plain attribute reads
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
