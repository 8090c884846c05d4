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


def _lazy_exports(package: str, exports: dict[str, tuple[str, ...]], submodules: tuple[str, ...] = ()):
    """PEP 562 hooks for `package`: (__getattr__, __dir__, sorted public names).

    `exports` maps each submodule to the public names it supplies; those
    submodules and `submodules` resolve as attributes too. Each is imported
    on first access and stored in the package, so later lookups are plain
    attribute reads."""
    source = {name: module for module, names in exports.items() for name in names}
    modules = {*exports, *submodules}
    namespace = vars(importlib.import_module(package))  # the package being initialised

    def __getattr__(name: str):
        if name in source:
            value = getattr(importlib.import_module(f".{source[name]}", package), name)
        elif name in modules:
            value = importlib.import_module(f".{name}", package)
        else:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *source, *modules})

    return __getattr__, __dir__, sorted(source)


_PUBLIC_MODULES = ("costs", "fixtures", "geometry", "metrics", "pipeline", "retrieval", "scene", "solver")
__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "costs": ("EvalContext", "evaluate"),
    "errors": ("ManiplangError",),
    "language": ("default_grammar", "default_vocabulary", "parse", "type_check", "validate_program", "vocabulary_size"),
    "scene": ("Scene", "load_scene", "save_scene"),
    "solver": ("SolveConfig", "SolveResult", "solve"),
}, (*_PUBLIC_MODULES, "files"))
__all__ = sorted([*__all__, *_PUBLIC_MODULES])
