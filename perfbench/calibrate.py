"""Machine-speed calibration timed alongside the workload.

On a shared virtual machine the same code runs up to 2x slower for stretches
of seconds to minutes. The worker times ``kernel`` right after every
``sqzmirror run`` invocation, in the same process and thread, and reports
each invocation's time as ``REFERENCE_S * invocation time / kernel time``:
the time the run would take on the machine at reference speed. The kernel
uses no sqzmirror code, so a change to the package cannot move it; it mixes
what the package spends its time on: small LAPACK solves and eigenvalue
calls, small matrix products, and interpreter work on lists, dicts and
strings.

Set-up (importing the package in a fresh interpreter) is mostly reading and
executing compiled modules, which the slow stretches hit less than the
kernel. It is scaled instead by ``import_time``: importing a fixed set of
standard-library modules in another fresh interpreter, started right after.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

# About the kernel's time on the 2-vCPU Xeon VM the benchmark was written on,
# in its fast state, with BLAS pinned to one thread.
REFERENCE_S = 0.012

# About import_time() on the same VM in its fast state.
IMPORT_REFERENCE_S = 0.075
IMPORT_MODULES = ("argparse", "csv", "decimal", "email.mime.multipart",
                  "email.parser", "http.client", "logging.handlers", "pydoc",
                  "sqlite3", "tarfile", "unittest", "xml.dom.minidom", "zipfile")

# fixed operands (not from numpy.random, whose import alone adds ~6 MB to the
# peak RSS the benchmark reports)
_M16 = np.sin(np.arange(256.0)).reshape(16, 16) + 16.0 * np.eye(16)
_V16 = np.cos(np.arange(16.0))
_A6 = np.sin(0.7 * np.arange(36.0)).reshape(6, 6)
_B3 = np.cos(1.3 * np.arange(9.0)).reshape(3, 3)
_EYE2 = np.eye(2)


def kernel(n: int = 300) -> float:
    """A fixed mix of small numpy calls and interpreter work."""
    acc = 0.0
    rows = []
    for k in range(n):
        x = np.linalg.solve(_M16, _V16 * (1.0 + k * 1e-3))
        y = _A6 @ _A6.T + np.kron(_B3, _EYE2)
        w = np.linalg.eigvalsh(y + y.T)
        acc += float(x[0]) + float(w[-1])
        rows.append((k, acc, f"{acc:.6f}"))
        fields = {"k": k, "acc": acc}
        acc += sum(fields.values()) * 1e-9
    return acc + len(rows)


def timed() -> float:
    """Wall time of one kernel call."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def import_time() -> float:
    """Time to import IMPORT_MODULES in a fresh interpreter."""
    code = ("import time; t0 = time.perf_counter(); import "
            + ", ".join(IMPORT_MODULES) + "; print(time.perf_counter() - t0)")
    proc = subprocess.run([sys.executable, "-c", code], stdout=subprocess.PIPE,
                          text=True, check=True, timeout=60)
    return float(proc.stdout)
