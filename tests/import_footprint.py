"""Import-footprint check: which unused standard-library modules does
importing a lerchphi module load?

    python tests/import_footprint.py lerchphi.engines

imports the named module in this (fresh) interpreter and exits 1 if that
import newly loaded any module in UNUSED.  Modules the interpreter had
already loaded at start-up (some environments preload typing) do not
count.  It prints where the package came from, so the same script checks
a source tree (PYTHONPATH=src) or an installed package.
"""

import sys

# the numerics use none of these; dataclasses pulls in inspect, and
# fractions pulls in decimal
UNUSED = ("dataclasses", "decimal", "fractions", "inspect", "mpmath",
          "typing")


def main(module):
    before = set(sys.modules)
    __import__(module)
    loaded = [name for name in UNUSED
              if name in sys.modules and name not in before]
    print(f"{module} ({sys.modules[module].__file__}) loaded "
          f"{', '.join(loaded) or 'none'} of {', '.join(UNUSED)}")
    return 1 if loaded else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
