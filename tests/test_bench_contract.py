"""The benchmark tracer patches package functions by name; keep them bound."""

import importlib
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def tracer_patches():
    sys.path.insert(0, str(BENCH))
    try:
        from tracing import PATCHES
    finally:
        sys.path.remove(str(BENCH))
    return PATCHES


def test_every_patch_place_resolves():
    # resolved the way Tracer.install does: the leaf must be in its owner's __dict__
    missing = []
    for places in tracer_patches().values():
        for place in places:
            mod_name, attr = place.split(":")
            owner = importlib.import_module(f"equiflow.{mod_name}")
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            if leaf not in getattr(owner, "__dict__", {}):
                missing.append(place)
    assert not missing, f"bench/tracing.py patches unbound names: {missing}"
