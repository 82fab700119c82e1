"""Segment-mask feature extraction on shared convolutional maps.

Compute an image's convolutional features once, project binary segment
proposals into feature coordinates, pool masked or unmasked windows into
fixed-length pyramid vectors, train linear classifiers on them, select
compact stuff covers by segment pursuit, and paste scored regions into a
pixel labeling.
"""

from .core import (
    BinaryMask,
    FeatureMap,
    InstanceSegment,
    LabelMap,
    PixelBox,
    SegmentProposal,
    ValidationError,
    bbox_of,
    mask_iou,
    proposal_from_mask,
    suppress,
)
from .formats import FormatError
from .masking import apply_mask, brute_force_project, project_mask
from .netgeom import (
    LayerSpec,
    NetGeometry,
    brute_force_geometry,
    compose_geometry,
    feature_extent,
)
from .pooling import (
    PooledFeature,
    PyramidSpec,
    bin_boundaries,
    design_a_features,
    design_b_features,
    downsample_mask_to_grid,
    spp_pool,
)
from .pipeline import (
    BenchmarkReport,
    FeatureCache,
    PipelineConfig,
    ScoredRegion,
    assign_scale,
    benchmark,
    mean_iou,
    paste,
    score_proposals,
)
from .pursuit import (
    Candidate,
    PursuitConfig,
    candidate_set,
    deterministic_pursuit,
    label_object_samples,
    purity,
    stochastic_pursuit,
    stuff_samples,
)
from .classify import LinearModel, hinge_objective, score, train_svm

__version__ = "0.1.0"
