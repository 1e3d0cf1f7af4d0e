"""Exact fusion data for 2-permutation orbifolds of lattice vertex operator algebras.

Given the Gram matrix of a positive-definite even lattice, permorb
classifies the irreducible modules of the corresponding 2-permutation
orbifold algebra, computes their quantum dimensions and fusion products in
exact arithmetic, decomposes them over the product subalgebra, and runs a
machine-checkable verification suite for the fusion-ring axioms.

The package exports the three names of the README example; every other
name is imported from the submodule that defines it.
"""

from .lattice import validate_lattice
from .orbifold import enumerate_modules, fuse_orbifold

__version__ = "0.1.0"
