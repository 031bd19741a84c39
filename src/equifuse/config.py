"""Runtime configuration: enumeration caps.

Caps are read from the environment on every call so tests and CLI users can
adjust them without re-importing.
"""

import os

DEFAULT_ORDER_CAP = 2000
DEFAULT_LATTICE_CAP = 200


def order_cap() -> int:
    return int(os.environ.get("EQUIFUSE_CAP_ORDER", DEFAULT_ORDER_CAP))


def lattice_cap() -> int:
    return int(os.environ.get("EQUIFUSE_CAP_LATTICE", DEFAULT_LATTICE_CAP))

