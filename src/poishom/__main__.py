"""``python -m poishom``: the ``poishom`` command line (see ``poishom.cli``)."""

from .cli import main

if __name__ == "__main__":
    main()
