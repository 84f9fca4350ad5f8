"""Synthetic heterogeneous education-data generator."""

from .archetypes import ArchetypeSpec, GenConfig, build_archetypes
from .generate import PRESETS, generate, preset

__all__ = [
    "ArchetypeSpec",
    "GenConfig",
    "PRESETS",
    "build_archetypes",
    "generate",
    "preset",
]
