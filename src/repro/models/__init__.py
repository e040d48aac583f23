"""Numerically real models served through the attention engine."""

from repro.models.transformer import TinyConfig, TinyTransformer

__all__ = [
    "TinyConfig",
    "TinyTransformer",
]
