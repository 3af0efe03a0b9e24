"""Numerical certificates for circle-averaging operators on the sphere,
Schatten and mixed-norm bounds, and the 3x3 special-linear geometry that
turns them into matrix-coefficient decay estimates.

Names are imported from their modules (circleops.sphere, circleops.sl3, ...);
importing the package alone loads none of them."""

__version__ = "0.1.0"
