"""Luce permutation models, top/bottom-of-deck analysis, chamber walks.

The package exports what each module lists in its ``__all__``: that list is
the one place a public name is declared.
"""

__version__ = "0.1.0"

from .core import *  # noqa: F401,F403
from .exceptions import *  # noqa: F401,F403
from .topk import *  # noqa: F401,F403
from .bottomk import *  # noqa: F401,F403
from .arrangements import *  # noqa: F401,F403
