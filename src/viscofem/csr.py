"""Sparse matrices in CSR storage, their products through scipy's compiled
kernels, and the loader of scipy's private extension modules.

Every sparse product of a run is one call of a kernel of
scipy.sparse._sparsetools on the CSR arrays (indptr, indices, data) of a
matrix A with int32 indices:

    A x     csr_matvec: per row, sum = 0, then sum += data[k] * x[indices[k]]
            over the row's stored entries in storage order
    A^T w   csc_matvec on the same arrays, which are the CSC arrays of A^T:
            per row j of A in order, y[indices[k]] += data[k] * w[j] over
            the row's stored entries in storage order

so both accumulate in storage order, one rounding per multiply and add.
The kernels index the arrays without bounds checks, so a CSR checks its
arrays when it is made, and CSR.matvec and CSR.rmatvec check the vector's
length and pass it on as a contiguous float array; an integer or strided
vector gives the result of its contiguous float copy.

The extensions are loaded by their file locations (load_extension), not as
submodules of scipy.sparse, whose package __init__ imports most of
scipy.sparse and its dependencies; no module of the package imports
scipy.sparse or scipy.linalg. The extensions are private scipy API, so the
loader raises ImportError naming the installed scipy version when one is
missing or lacks a function the package calls.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
from dataclasses import dataclass

import numpy as np

_SPARSETOOLS = "scipy.sparse._sparsetools"


def _scipy_version() -> str:
    from importlib.metadata import PackageNotFoundError, version

    try:
        return version("scipy")
    except PackageNotFoundError:
        return "not installed"


def load_extension(name: str, *functions: str):
    """The scipy extension module name (dotted, from "scipy"), loaded by its
    file location; ImportError if it or one of functions is missing."""
    scipy = importlib.util.find_spec("scipy")
    where = [os.path.join(d, *name.split(".")[1:-1])
             for d in (scipy.submodule_search_locations if scipy else ())]
    spec = importlib.machinery.PathFinder.find_spec(name, where)
    if spec is None:
        raise ImportError(f"no extension {name} in scipy {_scipy_version()}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    missing = [f for f in functions if not hasattr(module, f)]
    if missing:
        raise ImportError(f"the extension {name} of scipy {_scipy_version()} "
                          f"has no {', '.join(missing)}")
    return module


_sparsetools = load_extension(_SPARSETOOLS, "csr_matvec", "csc_matvec")


@dataclass(frozen=True)
class CSR:
    """A sparse matrix with n_cols columns in CSR storage: indptr and
    indices int32, data float, column indices below n_cols."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    n_cols: int

    def __post_init__(self):
        # the kernels read data and indices between indptr's entries, and x
        # at the indices, without bounds checks
        indptr, indices = self.indptr, self.indices
        if (len(indptr) == 0 or indptr[0] != 0 or indptr[-1] != len(indices)
                or len(self.data) != len(indices) or np.any(np.diff(indptr) < 0)
                or (len(indices) and not 0 <= indices.min() <= indices.max() < self.n_cols)):
            raise ValueError(f"malformed CSR arrays for {self.n_cols} columns")

    @property
    def n_rows(self) -> int:
        return len(self.indptr) - 1

    def matvec(self, x) -> np.ndarray:
        """A x, for x with one entry per column."""
        x = _vector(x, self.n_cols, "columns")
        y = np.zeros(self.n_rows)
        _sparsetools.csr_matvec(self.n_rows, self.n_cols, self.indptr, self.indices, self.data,
                                x, y)
        return y

    def rmatvec(self, w) -> np.ndarray:
        """A^T w, for w with one entry per row."""
        w = _vector(w, self.n_rows, "rows")
        y = np.zeros(self.n_cols)
        _sparsetools.csc_matvec(self.n_cols, self.n_rows, self.indptr, self.indices, self.data,
                                w, y)
        return y


def _vector(x, n: int, what: str) -> np.ndarray:
    """x as a contiguous float vector of length n, the kernels' input."""
    x = np.ascontiguousarray(x, dtype=float)
    if x.shape != (n,):
        raise ValueError(f"vector of shape {x.shape} does not match the matrix's {n} {what}")
    return x
