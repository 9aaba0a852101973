"""``python -m mixtv ...``: the same entry point as the ``mixtv`` console script."""

from .cli import main

if __name__ == "__main__":
    main()
