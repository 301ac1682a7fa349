"""``python -m bgnf <verb>``: the command line of :mod:`bgnf.cli`."""
from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
