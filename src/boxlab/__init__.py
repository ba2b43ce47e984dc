"""Box spaces of quotient chains, coarse and fibred coarse embeddings into
l^p, cocycle localization, and spectral gap diagnostics."""

import gc as _gc

# Importing numpy and the package allocates tens of thousands of container
# objects that live as long as the process; the cyclic collector would make
# some thirty passes over them and find next to no garbage.  The imports run
# with it paused.  freeze() then unfreeze() moves every tracked object to the
# oldest generation and empties the young ones, so the next young collection
# does not walk the import's objects either (the tuples a young pass would
# have untracked stay tracked until the first full collection, which only long
# runs reach, unless ``cli.run`` freezes them).  A caller that froze objects
# of its own keeps them frozen, and the caller's collector is re-enabled only
# if it was enabled, after a failed import too.
_gc_enabled, _gc_frozen = _gc.isenabled(), _gc.get_freeze_count()
_gc.disable()
try:
    from .boxspace import *
    from .chainspec import *
    from .cocycles import *
    from .embedding import *
    from .errors import *
    from .fibration import *
    from .groups import *
    from .lpspace import *
    from .spectral import *
finally:
    if not _gc_frozen:
        _gc.freeze()
        _gc.unfreeze()
    if _gc_enabled:
        _gc.enable()
del _gc, _gc_enabled, _gc_frozen

__version__ = "0.1.0"

# each star import bound its module's name, whose __all__ lists its public names
__all__ = [
    name
    for module in (boxspace, chainspec, cocycles, embedding, errors, fibration, groups, lpspace, spectral)
    for name in module.__all__
]
