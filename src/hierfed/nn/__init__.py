"""Numpy kernels: parameter sets, recurrent layers and attention pooling."""
