"""``python -m dpsmap``: the same entry point as the ``dpsmap`` console script."""
from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
