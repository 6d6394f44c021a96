"""pytest hooks for the whole repository.

The report header names the BLAS build and the kernel that ran the tests:
float64 BLAS and LAPACK calls decide the last bits of some outputs, so the
golden digests hold on one kernel only, and a failing digest needs the
kernel that produced it.
"""

import ctypes
import os

import numpy as np


def _blas_name() -> str:
    """The BLAS numpy was built against, with its version."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except Exception:  # an older numpy, or another config layout
        return "unknown"


def _openblas_core() -> str:
    """The core that numpy's bundled OpenBLAS picked at run time."""
    try:
        with open("/proc/self/maps") as f:  # the library numpy has loaded
            path = next(line.split()[-1] for line in f if "libscipy_openblas64_" in line)
        corename = ctypes.CDLL(path).scipy_openblas_get_corename64_
        corename.restype = ctypes.c_char_p
        return corename().decode()
    except Exception:  # not Linux, another BLAS, or no such symbol
        return "unknown"


def pytest_report_header(config):
    coretype = os.environ.get("OPENBLAS_CORETYPE", "unset")
    return (f"numpy {np.__version__}, BLAS {_blas_name()}, "
            f"OPENBLAS_CORETYPE={coretype}, OpenBLAS core {_openblas_core()}")
