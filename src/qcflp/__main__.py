"""`python -m qcflp ...` runs the command-line front end."""

from .cli import entry

if __name__ == "__main__":
    entry()
