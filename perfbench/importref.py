"""Reference import: times, in a fresh interpreter, the import of a fixed set
of modules that hold no todalab code, and prints the importing thread's CPU
time in seconds.

How long an interpreter takes to import varies by tens of percent for
minutes at a time on a shared host, far more than its speed at running code.
``run.py`` runs this between the passes that time todalab's set-up and
scales that set-up to a host that runs this import in a fixed time.

Usage: python3 perfbench/importref.py
"""

import importlib
from time import thread_time

# numpy and scipy.linalg make up most of what todalab's set-up imports, but
# do not change with todalab's code.
MODULES = ("numpy", "scipy.linalg")


def main() -> None:
    start = thread_time()
    for name in MODULES:
        importlib.import_module(name)
    print(repr(thread_time() - start))


if __name__ == "__main__":
    main()
