import numpy as np
import pytest

from cfmseg.core import BinaryMask, FeatureMap, PixelBox
from cfmseg.masking import project_mask, scaled_boxes
from cfmseg.netgeom import feature_extent
from cfmseg.pipeline import scale_proposal
from cfmseg.synth import derive_seed, random_scene_spec


@pytest.fixture
def rng():
    return np.random.default_rng(20240901)


def make_corpus(cfg, n_scenes: int, master_seed: int) -> list:
    """A corpus's scene specs: scene i is seeded by derive_seed(master_seed, i)."""
    return [random_scene_spec(cfg, derive_seed(master_seed, i)) for i in range(n_scenes)]


def random_mask(rng, h, w, density=0.5) -> BinaryMask:
    return BinaryMask(rng.random((h, w)) < density)


def random_map(rng, c, h, w) -> FeatureMap:
    return FeatureMap(rng.standard_normal((c, h, w)).astype(np.float32))


def rect_mask(h, w, y0, y1, x0, x1) -> BinaryMask:
    bits = np.zeros((h, w), dtype=bool)
    bits[y0 : y1 + 1, x0 : x1 + 1] = True
    return BinaryMask(bits)


def project_one(g, mask: BinaryMask, fh: int, fw: int, origin=(0, 0),
                frame=None, scaled=None) -> BinaryMask:
    """`project_mask` on a batch of one block, at `origin` of `frame` (default: the
    mask's own shape) resized to `scaled` (default: the frame itself), its vote
    cropped to the whole fh x fw grid."""
    whole = (0, 0, fh - 1, fw - 1)
    frame = frame or mask.bits.shape
    scaled = scaled or frame
    (bits,) = project_mask(g, [mask.bits], [origin], frame, scaled, fh, fw, [whole],
                           scaled_boxes([mask.bits], [origin], frame, scaled))
    return BinaryMask(bits)


def own_scale(proposals) -> tuple:
    """The (proposals, boxes, scaled frame) arguments of a design call on a map of
    the proposals' own frame: the identity resize."""
    frame = proposals[0].frame
    return proposals, scale_proposal(proposals, frame, frame), frame


def extent_one(g, box: PixelBox, fh: int, fw: int) -> PixelBox:
    """`feature_extent` on a batch of one box."""
    corners = np.array([(box.y0, box.x0, box.y1, box.x1)])
    ((y0, x0, y1, x1),) = feature_extent(g, corners, fh, fw).tolist()
    return PixelBox(x0, y0, x1, y1)


def full_frame_iou(a: np.ndarray, b: np.ndarray) -> float:
    """Oracle: IoU counted over two whole frames, as before masks went box-local."""
    union = np.count_nonzero(a | b)
    return np.count_nonzero(a & b) / union if union else 0.0


def full_frame_paste(scored, height: int, width: int, inhibit: float) -> np.ndarray:
    """Oracle: greedy paste over whole-frame masks (best score first, overlap
    inhibition, first write wins), as before masks went box-local."""
    queue = sorted(
        (r for r in scored if r.score > 0),
        key=lambda r: (-r.score, r.proposal.id, r.category),
    )
    masks = [r.proposal.mask.bits for r in queue]
    labels = np.zeros((height, width), dtype=np.uint16)
    remaining = list(range(len(queue)))
    while remaining:
        top = remaining[0]
        labels[masks[top] & (labels == 0)] = queue[top].category
        remaining = [
            i for i in remaining[1:] if full_frame_iou(masks[i], masks[top]) <= inhibit
        ]
    return labels
