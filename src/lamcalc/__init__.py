"""Reference kernel for a small lambda calculus with environment entries.

The package implements the judgments of the calculus as executable
deciders and enumerators (reduction, static types, degrees, arities,
validity), together with graph traversals that certify strong
normalization, and exhaustive property suites over a bounded universe of
closures.  Memo tables, certificates included, are shared by every call
in a process; ``clear_caches`` empties them all.
"""

from __future__ import annotations

# Each module's ``__all__`` is the one list of what the package exports
# from it.
from .errors import *
from .terms import *
from .sexpr import *
from .universe import *
from .relocation import *
from .reduction import *
from .statics import *
from .arity import *
from .traversal import *
from .extended import *
from .bigtree import *
from .validity import *
from .props import *
from .memo import *
from . import (
    errors, terms, sexpr, universe, relocation, reduction, statics,
    arity, traversal, extended, bigtree, validity, props, memo,
)

__all__ = []
__all__ += errors.__all__
__all__ += terms.__all__
__all__ += sexpr.__all__
__all__ += universe.__all__
__all__ += relocation.__all__
__all__ += reduction.__all__
__all__ += statics.__all__
__all__ += arity.__all__
__all__ += traversal.__all__
__all__ += extended.__all__
__all__ += bigtree.__all__
__all__ += validity.__all__
__all__ += props.__all__
__all__ += memo.__all__
