"""`python -m amalgrowth ...` runs the command line, as the installed
`amalgrowth` script does."""
import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
