"""hyperclass: the five hypergeometric-class equations and their identity web.

Exact operator algebra over Gaussian rationals, numeric evaluation of the
standard solutions, contour quadrature of the integral representations, and
verification suites tying it all together.  Standard library only.
"""

__version__ = "0.1.0"
