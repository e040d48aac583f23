"""Numerically real models served through the attention engine."""

from repro.models.transformer import GenerationSession, TinyConfig, TinyTransformer

__all__ = [
    "GenerationSession",
    "TinyConfig",
    "TinyTransformer",
]
