"""Synthetic heterogeneous education-data generator."""

# the benchmark's set-up calls hierfed.synth.generate
from .generate import generate
