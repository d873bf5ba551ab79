"""Pinned bytes of loop-inserted scenes and of merge perturbations.

Loop insertion and ``perturb_merge`` draw random bridges and keep the first
one whose recounted topology passes. A change to the draw order, to the
tube rasteriser or to the acceptance test moves a digest here, even where
the scenes still have the requested topology.
"""

import hashlib

import numpy as np
import pytest

from vesseltopo import synth
from vesseltopo.errors import InsufficientStructure
from vesseltopo.synth import VesselParams, generate_vessel, perturb_merge

# sha256 over ten seeds (0-9) of image, mask and summary, per
# (size, n_trees, n_loops)
SCENES = {
    (48, 1, 1): "93f7c8e2135623f8968b72082817f8c21573c5b8947c3090f69c35517243311c",
    (48, 1, 2): "6b34aa3f6a377fbe292a1fbead7262b7cac1b5016ba644a8925e1044e571a46e",
    (48, 1, 3): "27f65ad6e6846d30ee9f14da6a7122a0308916528da53b827ec40558818c4b67",
    (48, 2, 1): "c21167ab6ffdc7ddc5189245fef97741023a94935b1fe0483a71d94c02bb60c0",
    (48, 2, 2): "64e489da2a1cbbc8789f1a5e397037f0a4db6998f3ddb958fa1fe72dd0c2ea8b",
    (48, 2, 3): "18e282160b6c3f046d8bc171c83c7094eab1d6a8814b759a3f3c3331271662a2",
    (64, 1, 1): "5199c791985b5a6223b13ce165da116c23f25eb1c0abe6add5758c0cf152aeef",
    (64, 1, 2): "f71e06ccc6de9ec0f33171c5c758e9ad1fcf7271759dbcc4f6116ca25eeeb5fb",
    (64, 1, 3): "17d05d7884ced2eafed9a534d4c0da20d51b4df8d588cad94d771938f1b6b0b7",
    (64, 2, 1): "9dd92f74c8cb22167646aa6e1ed0ac2146cda4bd663279e29dea7a4294288dc5",
    (64, 2, 2): "be96cd94cfeff0745b4c9aadbd3da363b91650c7b19b151729dd46b83a8baf05",
    (64, 2, 3): "b266123165864a4fcbfb6c73bb46d0a3cd4295c042594046edade715067e78b7",
    (96, 1, 1): "98b16908fe8e5e7252fb2125b0c18b463ffe6ca802b4127fc95e48c7c7314d4d",
    (96, 1, 2): "394339f09d9cee79c7f6fc389715cbd682796b84f66b2f243d78ddb122629273",
    (96, 1, 3): "141e4c6fa9bb8d2a504439fef5446932089b5a58c9f6b3ad5d8b6e8a8f36377c",
    (96, 2, 1): "4689b29ae1c63ad0bf978045fc0c592d2dc1b3866f2f96d98d4bfdba1ec3d91e",
    (96, 2, 2): "6723dce118571276891eaa68fdf1481275809cee3f036208038dace1129edc06",
    (96, 2, 3): "c51c923e32600e98b0ca607e7e1f8a507a0974c182bda00d7a0c15d7514a0115",
}

# sha256 of every merged mask and log, or of the message raised, at k = 1-3
# on 2-tree 64x64 scenes of seeds 0-5 (merge seed = scene seed + 50)
MERGE_RAISED = {
    (3, 3): "could not place bridge 3 of 3 after 1000 attempts",
    (5, 3): "could not place bridge 3 of 3 after 1000 attempts",
}
MERGE_DIGEST = "889bda6f9de063119990d058e87584dc2edb484aac11a746d525ef1ed5b0afc2"

# the same scenes with a budget of 20 attempts
SMALL_BUDGET_RAISED = {
    (3, 1): "could not place bridge 1 of 1 after 20 attempts",
    (3, 2): "could not place bridge 1 of 2 after 20 attempts",
    (3, 3): "could not place bridge 1 of 3 after 20 attempts",
    (4, 3): "could not place bridge 3 of 3 after 20 attempts",
    (5, 2): "could not place bridge 2 of 2 after 20 attempts",
    (5, 3): "could not place bridge 2 of 3 after 20 attempts",
}
SMALL_BUDGET_DIGEST = "c16c069d8f4ed862d53cc65d39713fb00f06531cf2924eba0966f32769381b11"


def _scene_digest(size, n_trees, n_loops):
    h = hashlib.sha256()
    for seed in range(10):
        image, mask, summary = generate_vessel(VesselParams(
            width=size, height=size, n_trees=n_trees, n_loops=n_loops, seed=seed))
        h.update(image.tobytes())
        h.update(mask.tobytes())
        h.update(repr(summary).encode())
    return h.hexdigest()


@pytest.mark.parametrize("size, n_trees, n_loops", sorted(SCENES))
def test_looped_scenes_are_pinned(size, n_trees, n_loops):
    assert _scene_digest(size, n_trees, n_loops) == SCENES[size, n_trees, n_loops]


def _merge_gt(seed):
    return generate_vessel(VesselParams(width=64, height=64, n_trees=2,
                                        radius_root=2.0, seed=seed))[1]


def _merge_outcomes(seeds, ks):
    """Digest of every merged mask and log, and the messages of the raises."""
    h = hashlib.sha256()
    raised = {}
    for seed in seeds:
        gt = _merge_gt(seed)
        for k in ks:
            try:
                out, log = perturb_merge(gt, k, seed=seed + 50)
            except InsufficientStructure as exc:
                raised[seed, k] = str(exc)
                h.update(str(exc).encode())
                continue
            h.update(np.packbits(out).tobytes())
            h.update(repr(log).encode())
    return h.hexdigest(), raised


def test_merges_are_pinned():
    digest, raised = _merge_outcomes(range(6), (1, 2, 3))
    assert raised == MERGE_RAISED
    assert digest == MERGE_DIGEST


def test_merges_on_a_small_budget_are_pinned(monkeypatch):
    # a budget of 20 bridge attempts fails at different edits per scene
    monkeypatch.setattr(synth, "_MAX_SITE_ATTEMPTS", 20)
    digest, raised = _merge_outcomes((3, 4, 5), (1, 2, 3))
    assert raised == SMALL_BUDGET_RAISED
    assert digest == SMALL_BUDGET_DIGEST
