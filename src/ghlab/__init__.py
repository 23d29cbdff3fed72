"""ghlab: a numerical laboratory for generalized Gibbons-Hawking metrics.

The package constructs the explicit local Calabi-Yau model metrics (flat
toric, Taub-NUT, semi-flat, periodic Fourier-Bessel), verifies their defining
identities with independent finite-difference and quadrature checks, computes
Ronkin functions and tropical limits of Laurent polynomials, performs partial
Legendre transforms to Monge-Ampere potentials, and measures large-scale
collapse behavior of the periodic families.
"""

__version__ = "0.1.0"

GHLAB_SEED = 20210817


class GHLabError(Exception):
    """An error that an input or the numerics cause; any other exception
    is a program fault.

    ``fault`` names its class: "domain" (an input outside the region where
    a construction or check is defined; the command line exits 2) or
    "numerical" (a result that could not be reached to its precision;
    exit 1, as for a failed check).
    """

    fault = "domain"


class NotPositive(GHLabError):
    """A quantity that must be positive (V, a Hessian block) is not."""


class QuadratureFailure(GHLabError):
    """A quadrature met a non-finite integrand or did not converge."""

    fault = "numerical"
