"""Conditional polynomial trajectory prediction with a desk-scale 2D
driving simulator, label augmentation, and a closed-loop benchmark."""

__version__ = "0.1.0"
__all__ = ["__version__"]
