"""The ``chainrec`` program: ``python -m chainrec`` and the installed script.

One launch runs one command, so the cyclic garbage collector is off from
before the first import to exit.  Reference counting still frees every
acyclic object at once, and the objects a command leaves in reference
cycles are a fixed set (under 800, imports included) whatever its sample
size or worker count.  Before exit every object left is frozen, so
interpreter shutdown does not walk them again.  The library entry
:func:`chainrec.cli.main` leaves the collector alone.
"""

import gc
import sys


def main() -> int:
    """Run the command in ``sys.argv`` with the cyclic collector off; its exit code."""
    gc.disable()
    try:
        from chainrec import cli

        return cli.main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(main())
