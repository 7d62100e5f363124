"""Shared pytest wiring: replay summary lines after the run, and set the
bundled OpenBLAS's thread count."""
import ctypes
import glob
import os

import numpy as np
import pytest

# section title -> lines, printed in the order first recorded
SUMMARY = {}


def record(section: str, line: str) -> None:
    SUMMARY.setdefault(section, []).append(line)


def pytest_terminal_summary(terminalreporter):
    for section, lines in SUMMARY.items():
        terminalreporter.section(section)
        for line in lines:
            terminalreporter.write_line(line)


@pytest.fixture
def set_blas_threads():
    """Sets the thread count of the OpenBLAS bundled with numpy; restores it
    afterwards.  Skips when numpy bundles no scipy_openblas64."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas*"))
    lib = ctypes.CDLL(libs[0]) if libs else None
    if lib is None or not hasattr(lib, "scipy_openblas_set_num_threads64_"):
        pytest.skip("numpy does not bundle scipy_openblas64")
    before = lib.scipy_openblas_get_num_threads64_()
    try:
        yield lib.scipy_openblas_set_num_threads64_
    finally:
        lib.scipy_openblas_set_num_threads64_(before)
