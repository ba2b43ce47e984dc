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
    from .boxspace import (
        BoxPoint,
        BoxSpace,
        assemble_box_space,
        box_distance,
        format_point,
        parse_point,
    )
    from .chainspec import load_chain, parse_chain
    from .cocycles import (
        CocycleFamily,
        CocycleReport,
        LiftedCocycle,
        LocalCocycle,
        LocalRepresentation,
        QuotientCarrier,
        UltraReport,
        averaged_cocycle,
        family_from_fce,
        lift_to_group,
        local_cocycle_from_fce,
        ultraproduct_hypothesis_check,
        verify_local_action,
    )
    from .embedding import (
        CoarseEmbeddingMap,
        CoarseReport,
        ControlPair,
        PnormReport,
        cycle_plane_embedding,
        identity_controls,
        linf_embedding,
        norm_equivalence_controls,
        pnorm_power_check,
        profile,
        torus_coordinate_embedding,
        verify_coarse,
    )
    from .errors import (
        ActionCheckError,
        BoxlabError,
        ChainExhaustedError,
        ChainValidationError,
        ControlSampleError,
        InvalidArgumentError,
        InvalidGroupError,
        MissingTrivializationError,
        NonStabilizedLengthError,
        SpecFormatError,
    )
    from .fibration import (
        FceReport,
        FibredEmbedding,
        ProperAction,
        from_proper_action,
        translation_action,
        trivial_fibration,
        verify_fce,
    )
    from .groups import (
        AmbientGroup,
        CyclicQuotient,
        GroupChain,
        MarkedQuotient,
        TableQuotient,
        ambient_sphere,
        ambient_word_length,
        build_chain,
        build_quotient,
        project_to_level,
        r_isometric_radius,
        select_level_for_r,
    )
    from .lpspace import IsometryStack, lp_norm
    from .spectral import (
        DENSE_LIMIT,
        SpectralScan,
        averaging_matrix,
        expander_scan,
        laplacian_gap,
        write_gap_csv,
    )
finally:
    if not _gc_frozen:
        _gc.freeze()
        _gc.unfreeze()
    if _gc_enabled:
        _gc.enable()
del _gc, _gc_enabled, _gc_frozen

__version__ = "0.1.0"

__all__ = [
    "AmbientGroup",
    "BoxPoint",
    "BoxSpace",
    "CoarseEmbeddingMap",
    "CoarseReport",
    "CocycleFamily",
    "CocycleReport",
    "ControlPair",
    "CyclicQuotient",
    "DENSE_LIMIT",
    "FceReport",
    "FibredEmbedding",
    "GroupChain",
    "IsometryStack",
    "LiftedCocycle",
    "LocalCocycle",
    "LocalRepresentation",
    "MarkedQuotient",
    "PnormReport",
    "ProperAction",
    "QuotientCarrier",
    "SpectralScan",
    "TableQuotient",
    "UltraReport",
    "ActionCheckError",
    "BoxlabError",
    "ChainExhaustedError",
    "ChainValidationError",
    "ControlSampleError",
    "InvalidArgumentError",
    "InvalidGroupError",
    "MissingTrivializationError",
    "NonStabilizedLengthError",
    "SpecFormatError",
    "assemble_box_space",
    "averaged_cocycle",
    "ambient_sphere",
    "ambient_word_length",
    "averaging_matrix",
    "box_distance",
    "build_chain",
    "build_quotient",
    "cycle_plane_embedding",
    "expander_scan",
    "family_from_fce",
    "format_point",
    "from_proper_action",
    "identity_controls",
    "laplacian_gap",
    "lift_to_group",
    "linf_embedding",
    "load_chain",
    "local_cocycle_from_fce",
    "lp_norm",
    "norm_equivalence_controls",
    "parse_chain",
    "parse_point",
    "pnorm_power_check",
    "profile",
    "project_to_level",
    "r_isometric_radius",
    "select_level_for_r",
    "torus_coordinate_embedding",
    "translation_action",
    "trivial_fibration",
    "ultraproduct_hypothesis_check",
    "verify_coarse",
    "verify_fce",
    "verify_local_action",
    "write_gap_csv",
]
