"""Machine provenance for benchmark results.

`summary()` is what every benchmark run prints: CPUs available to this
process, Python and numpy versions, numpy's BLAS and its thread count.
Run as a script, it also reads the CPU cache sizes from sysfs and prints
the whole record as JSON (perfbench/MACHINE.json was made this way):

    python3 perfbench/machine.py > perfbench/MACHINE.json
"""

from __future__ import annotations

import ctypes
import glob
import json
import os
import platform
import sys


def _blas_threads():
    """Thread count reported by the OpenBLAS that ships with numpy, or None."""
    import numpy
    libdir = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)),
                          "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return None


def summary() -> dict:
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


def _cache_sizes() -> list:
    out = []
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        fields = {}
        for key in ("level", "type", "size"):
            with open(os.path.join(index, key), encoding="ascii") as fh:
                fields[key] = fh.read().strip()
        out.append(f"L{fields['level']} {fields['type']} {fields['size']}")
    return out


def provenance() -> dict:
    info = summary()
    info["machine"] = platform.machine()
    info["cpu_caches"] = _cache_sizes()
    return info


if __name__ == "__main__":
    json.dump(provenance(), sys.stdout, indent=2)
    sys.stdout.write("\n")
