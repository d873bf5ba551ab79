import hashlib
import json
import re
from collections import Counter

import numpy as np
import pytest

from vesseltopo.errors import DegenerateInput, DimensionMismatch, RejectedTie
from vesseltopo.maskio import load_image, load_mask
from vesseltopo.synth import VesselParams, generate_vessel, perturb_disconnect, perturb_holes
from vesseltopo.taskgen import (
    TASK_KINDS,
    TEMPLATES,
    DatasetConfig,
    build_dataset,
    gen_choice,
    gen_counting,
    gen_judgement,
    gen_quality,
    gen_refinement,
    prompt_is_well_formed,
    topology_choice_score,
    verify_answers,
)
from vesseltopo.topology import beta0_matching_error

from tests.oracles import bounded_background_components, naive_flood_labels


def gray_for(mask):
    img = np.full(mask.shape, 0.15)
    img[mask] = 0.85
    return img


@pytest.fixture(scope="module")
def scene():
    img, gt, s = generate_vessel(VesselParams(width=64, height=64,
                                              radius_root=2.0, seed=77))
    return img, gt, s


# ------------------------------ judgement -------------------------------- #

def test_judgement_tree_has_no_loop(tree_mask):
    rec = gen_judgement(gray_for(tree_mask), tree_mask, "loop", seed=0)
    assert rec.answer == "no"
    assert rec.task_kind == "structure_judgement"
    pool, idx = rec.provenance["template"]
    assert prompt_is_well_formed(pool, rec.prompt, idx)


def test_judgement_two_trees(tree_mask):
    two = np.zeros((9, 20), dtype=bool)
    two[:, :9] = tree_mask
    two[:, 11:] = tree_mask
    rec = gen_judgement(gray_for(two), two, "component>1", seed=1)
    assert rec.answer == "yes"


def test_judgement_ring_has_loop(ring_mask):
    rec = gen_judgement(gray_for(ring_mask), ring_mask, "loop", seed=2)
    assert rec.answer == "yes"


def test_judgement_single_component_says_no(ring_mask):
    rec = gen_judgement(gray_for(ring_mask), ring_mask, "component>1", seed=3)
    assert rec.answer == "no"


def test_judgement_shape_and_structure_checks(ring_mask):
    with pytest.raises(DimensionMismatch):
        gen_judgement(np.zeros((3, 3)), ring_mask, "loop", seed=0)
    with pytest.raises(ValueError):
        gen_judgement(gray_for(ring_mask), ring_mask, "spiral", seed=0)


# ------------------------------ counting --------------------------------- #

def test_counting_three_trees():
    _, gt, s = generate_vessel(VesselParams(n_trees=3, seed=10))
    rec = gen_counting(gray_for(gt), gt, "components", seed=0)
    assert rec.answer == "3" == str(s.beta0)


def test_counting_empty_mask():
    empty = np.zeros((8, 8), dtype=bool)
    rec = gen_counting(gray_for(empty), empty, "components", seed=0)
    assert rec.answer == "0"


def test_counting_two_loops():
    _, gt, s = generate_vessel(VesselParams(n_loops=2, seed=12))
    rec = gen_counting(gray_for(gt), gt, "loops", seed=0)
    assert rec.answer == "2" == str(s.beta1)


# ------------------------------- quality --------------------------------- #

def test_quality_identical_is_good(scene):
    img, gt, _ = scene
    rec = gen_quality(img, gt, gt, seed=0)
    assert rec.answer == "good"


def test_quality_disconnected_is_poor(scene):
    img, gt, _ = scene
    bad, _ = perturb_disconnect(gt, 2, seed=1)
    rec = gen_quality(img, gt, bad, seed=0)
    assert rec.answer == "poor"


def test_quality_translation_with_same_topology_is_good(scene):
    img, gt, _ = scene
    shifted = np.roll(gt, 1, axis=1)
    shifted[:, 0] = False
    from vesseltopo.topology import betti_numbers
    if betti_numbers(shifted) == betti_numbers(gt):
        rec = gen_quality(img, gt, shifted, seed=0)
        assert rec.answer == "good"  # dice < 1 is irrelevant to the criterion


def test_quality_prompt_embeds_criterion_and_counts(scene):
    img, gt, s = scene
    rec = gen_quality(img, gt, gt, seed=4)
    assert "otherwise it is poor" in rec.prompt
    assert f"{s.beta0} connected component" in rec.prompt


# ------------------------------- choice ---------------------------------- #

def test_choice_gt_beats_perturbed(scene):
    img, gt, _ = scene
    bad, _ = perturb_disconnect(gt, 2, seed=2)
    rec = gen_choice(img, gt, bad, gt, seed=0)
    # the answer must point at the slot where gt was presented
    slot_of_gt = "A" if rec.provenance["order"] == "ab" else "B"
    assert rec.answer == slot_of_gt


def test_choice_fewer_cuts_win(scene):
    img, gt, _ = scene
    light, _ = perturb_disconnect(gt, 2, seed=3)
    heavy, _ = perturb_disconnect(gt, 5, seed=4)
    assert topology_choice_score(light, gt) < topology_choice_score(heavy, gt)
    rec = gen_choice(img, light, heavy, gt, seed=1)
    slot_of_light = "A" if rec.provenance["order"] == "ab" else "B"
    assert rec.answer == slot_of_light


def test_choice_tie_rejected(scene):
    img, gt, _ = scene
    with pytest.raises(RejectedTie):
        gen_choice(img, gt, gt, gt, seed=0)


# ----------------------------- refinement -------------------------------- #

def test_refinement_prompt_embeds_gt_counts(scene):
    img, gt, s = scene
    bad, _ = perturb_disconnect(gt, 1, seed=5)
    rec = gen_refinement(img, bad, gt, seed=0,
                         gt_path="ref_gt.pgm")
    assert "1 connected component" in rec.prompt
    assert "0 loops" in rec.prompt
    assert rec.target == "ref_gt.pgm" == rec.answer
    assert rec.image_paths == ("image.pgm", "imperfect.pgm")


def test_refinement_two_components_plural():
    img, gt, s = generate_vessel(VesselParams(n_trees=2, seed=30))
    bad, _ = perturb_disconnect(gt, 1, seed=6)
    rec = gen_refinement(img, bad, gt, seed=1)
    assert "2 connected components" in rec.prompt


def test_refinement_degenerate(scene):
    img, gt, _ = scene
    with pytest.raises(DegenerateInput):
        gen_refinement(img, gt, gt, seed=0)


# ---------------------------- templates ---------------------------------- #

def test_template_pools_have_paraphrases():
    for pool, templates in TEMPLATES.items():
        assert len(templates) >= 3, pool


def test_prompt_hygiene_rejects_unfilled_template():
    raw = TEMPLATES["judgement_loop"][0]  # placeholders not substituted
    assert not prompt_is_well_formed("judgement_loop", raw, 0)


# --------------------------- whole records ------------------------------- #

# SHA-256 of ``to_json()`` of one record of each kind: prompt text, image
# path order, answer, target and provenance keys are pinned together.
_RECORD_SHA256 = {
    "structure_judgement": "b50d680940222d868011cbbbc5022666cbbfc605ea39115d1fb073d8f16f27f1",
    "structure_counting": "510d3e51302e2676991ad364ab83098a6cc27c9f7420d31860b3d327c25d6147",
    "quality_judgement": "578b92d4e71389a33a1c3223aadb82520783510486205e2096fc4b83c1088413",
    "better_choice": "06a4c690a85a93fbfed09dfe981db05e942ebf0686d43db3735e45dc1983c4f6",
    "refinement": "0c3948b3be97ce3f3d4453c9c9c34b6813e33c32df643056b9b8c51d0419eafb",
}


def test_records_are_pinned_whole(scene, ring_mask, tree_mask):
    img, gt, _ = scene
    bad, _ = perturb_disconnect(gt, 2, seed=1)
    records = [
        gen_judgement(gray_for(ring_mask), ring_mask, "loop", seed=2),
        gen_counting(gray_for(tree_mask), tree_mask, "components", seed=0),
        gen_quality(img, gt, bad, seed=4),
        # seed 0 presents the candidates swapped, as B then A
        gen_choice(img, gt, bad, gt, seed=0, path_a="a.pgm", path_b="b.pgm",
                   gt_path="ref.pgm"),
        gen_refinement(img, bad, gt, seed=1, gt_path="ref.pgm"),
    ]
    for rec in records:
        text = rec.to_json()
        assert hashlib.sha256(text.encode()).hexdigest() == _RECORD_SHA256[rec.task_kind], text


# --------------------------- dataset builder ------------------------------ #

@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("ds")
    cfg = DatasetConfig(out_dir=str(out), per_kind={k: 4 for k in TASK_KINDS},
                        seed=5)
    return build_dataset(cfg), out


def test_build_dataset_counts_and_verification(small_dataset):
    manifest, _ = small_dataset
    records = [json.loads(line) for line in open(manifest)]
    assert len(records) == 20
    report = verify_answers(manifest)
    assert report.total == 20
    assert report.mismatch_count == 0
    assert report.per_kind == {k: 4 for k in TASK_KINDS}


def test_build_dataset_is_reproducible(small_dataset, tmp_path):
    manifest, _ = small_dataset
    cfg = DatasetConfig(out_dir=str(tmp_path / "again"),
                        per_kind={k: 4 for k in TASK_KINDS}, seed=5)
    again = build_dataset(cfg)
    assert open(manifest).read() == open(again).read()


def test_build_dataset_manifest_is_pinned(small_dataset):
    manifest, _ = small_dataset
    digest = hashlib.sha256(open(manifest, "rb").read()).hexdigest()
    assert digest == "5c9451231346f722a4e533cbdc95f312c13b1150dace874e49c401445b6675e3"


def test_build_dataset_balance_and_prompts(small_dataset):
    manifest, _ = small_dataset
    records = [json.loads(line) for line in open(manifest)]
    for kind, classes in (("structure_judgement", ("yes", "no")),
                          ("quality_judgement", ("good", "poor")),
                          ("better_choice", ("A", "B"))):
        answers = Counter(r["answer"] for r in records if r["task_kind"] == kind)
        assert answers[classes[0]] == answers[classes[1]] == 2
    for r in records:
        pool, idx = r["provenance"]["template"]
        assert prompt_is_well_formed(pool, r["prompt"], idx)
        assert r["provenance"]["split"] in ("train", "test")


def test_build_dataset_split_uses_disjoint_params(small_dataset):
    manifest, _ = small_dataset
    records = [json.loads(line) for line in open(manifest)]
    train_depths = {r["provenance"]["scene"]["branch_depth"]
                    for r in records if r["provenance"]["split"] == "train"}
    test_depths = {r["provenance"]["scene"]["branch_depth"]
                   for r in records if r["provenance"]["split"] == "test"}
    assert train_depths and test_depths
    assert not (train_depths & test_depths)


def test_verify_catches_flipped_answer(small_dataset, tmp_path):
    manifest, src = small_dataset
    records = [json.loads(line) for line in open(manifest)]
    flip = next(i for i, r in enumerate(records)
                if r["task_kind"] == "structure_judgement")
    records[flip]["answer"] = "yes" if records[flip]["answer"] == "no" else "no"
    report = verify_answers(_rewritten(src, records, tmp_path / "flipped"))
    assert report.mismatch_count == 1
    assert report.mismatch_records == (flip,)


def _rewritten(src, records, dest):
    """A copy of the dataset at ``src`` whose manifest holds ``records``."""
    dest.mkdir()
    for f in src.iterdir():
        if f.suffix == ".pgm":
            (dest / f.name).write_bytes(f.read_bytes())
    manifest = dest / "manifest.jsonl"
    manifest.write_text("\n".join(json.dumps(r, sort_keys=True)
                                  for r in records) + "\n")
    return manifest


@pytest.mark.parametrize("kind,edited", [("refinement", "11 connected components"),
                                         ("quality_judgement", "7 connected components")])
def test_verify_catches_edited_component_count(small_dataset, tmp_path, kind, edited):
    """A stated count is compared as a whole number, not as a substring."""
    manifest, src = small_dataset
    records = [json.loads(line) for line in open(manifest)]
    stated = re.compile(r"\b1 connected component\b")
    edit = next(i for i, r in enumerate(records)
                if r["task_kind"] == kind and stated.search(r["prompt"]))
    records[edit]["prompt"] = stated.sub(edited, records[edit]["prompt"])
    report = verify_answers(_rewritten(src, records, tmp_path / "edited"))
    assert report.mismatch_records == (edit,)


def test_verify_missing_image_names_record(small_dataset, tmp_path):
    manifest, src = small_dataset
    records = [json.loads(line) for line in open(manifest)]
    broken = tmp_path / "broken"
    broken.mkdir()
    skip = records[0]["images"][0]
    for f in src.iterdir():
        if f.suffix == ".pgm" and f.name != skip:
            (broken / f.name).write_bytes(f.read_bytes())
    bad_manifest = broken / "manifest.jsonl"
    bad_manifest.write_text("\n".join(json.dumps(r, sort_keys=True)
                                      for r in records) + "\n")
    with pytest.raises(OSError, match="record 0"):
        verify_answers(bad_manifest)


def _oracle_betti(mask):
    return naive_flood_labels(mask, 8)[1], bounded_background_components(mask)


def _stated_counts(prompt):
    """The (components, loops) a prompt states, each with a correct plural."""
    counts = []
    for noun in ("connected component", "loop"):
        (n, plural), = re.findall(rf"(\d+) {noun}(s?)\b", prompt)
        assert plural == ("" if n == "1" else "s"), prompt
        counts.append(int(n))
    return tuple(counts)


def test_every_answer_matches_the_oracles(small_dataset):
    """Re-derive each stored answer with the brute-force oracles.

    The audit shares the generators' rules, so it cannot see a wrong rule;
    this test can. Quality candidates in the dataset all differ from their
    gt in component count, so each gt is also judged against itself with a
    hole punched, where only the loop count differs.
    """
    manifest, base = small_dataset
    records = [json.loads(line) for line in open(manifest)]
    for r in records:
        kind, prov = r["task_kind"], r["provenance"]
        masks = [load_mask(base / rel) for rel in r["images"][1:]]
        if kind == "structure_judgement":
            b0, b1 = _oracle_betti(masks[0])
            want = "yes" if (b1 > 0 if prov["structure"] == "loop" else b0 > 1) else "no"
        elif kind == "structure_counting":
            want = str(_oracle_betti(masks[0])[prov["structure"] == "loops"])
        elif kind == "quality_judgement":
            gt = load_mask(base / prov["gt"])
            assert _stated_counts(r["prompt"]) == _oracle_betti(gt)
            want = "good" if _oracle_betti(masks[0]) == _oracle_betti(gt) else "poor"
            holed, _ = perturb_holes(gt, 1, seed=0)
            assert _oracle_betti(holed)[0] == _oracle_betti(gt)[0]
            image = load_image(base / r["images"][0])
            assert gen_quality(image, gt, holed, seed=0).answer == "poor"
        elif kind == "better_choice":
            gt = load_mask(base / prov["gt"])
            scores = [beta0_matching_error(m, gt)
                      + abs(_oracle_betti(m)[1] - _oracle_betti(gt)[1]) for m in masks]
            assert prov["scores"] == scores and scores[0] != scores[1]
            want = "A" if scores[0] < scores[1] else "B"
        else:
            gt = load_mask(base / r["target"])
            assert _stated_counts(r["prompt"]) == _oracle_betti(gt)
            want = r["target"]
        assert r["answer"] == want, (kind, r["prompt"])
