"""Tests that the benchmark's tracer still finds every name it wraps.

``perfbench/tracing.py`` wraps program functions by module and attribute
name. A rename in the program would otherwise surface only when the traced
benchmark runs; here it fails the test suite.
"""

from __future__ import annotations

import importlib
import importlib.util
import pathlib
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(module_name: str, attr: str):
    owner = importlib.import_module(module_name)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return getattr(owner, leaf)


def test_install_wraps_every_target_and_uninstall_restores_it():
    tracing = load_tracing()
    registry = importlib.import_module("loginwatch.registry")
    originals = {
        (module_name, attr): resolve(module_name, attr)
        for _, module_name, attr, _ in tracing.TARGETS
    }
    read_bytes = pathlib.Path.read_bytes
    atomic_write = registry._atomic_write

    uninstall = tracing.Tracer().install()  # AttributeError on a missing target
    try:
        for (module_name, attr), original in originals.items():
            wrapped = resolve(module_name, attr)
            assert wrapped is not original, f"{module_name}.{attr} not wrapped"
            assert wrapped.__wrapped__ is original
        assert pathlib.Path.read_bytes is not read_bytes
        assert registry._atomic_write is not atomic_write
    finally:
        uninstall()

    for (module_name, attr), original in originals.items():
        assert resolve(module_name, attr) is original, f"{module_name}.{attr} not restored"
    assert pathlib.Path.read_bytes is read_bytes
    assert registry._atomic_write is atomic_write
