"""Topology-centric task records with rule-derived ground-truth answers.

Five task kinds over synthetic vessel scenes:

* ``refinement``          - image + imperfect mask in, target mask out
* ``structure_judgement`` - yes/no existence of loops or of multiple components
* ``structure_counting``  - count components or loops
* ``quality_judgement``   - good/poor verdict for a candidate mask
* ``better_choice``       - pick the candidate mask with better topology

Every prompt embeds the definition of each topological term it queries plus,
where applicable, the verbatim scoring rule, so records are self-describing.
All answers are derived by the topology rule engine and can be re-derived
from the stored pixels; ``verify_answers`` is that audit.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import (
    DegenerateInput,
    InsufficientStructure,
    InvalidConfig,
    RejectedTie,
)
from .maskio import (
    BinaryMask,
    GrayImage,
    as_gray,
    as_mask,
    check_same_shape,
    load_mask,
    save_image,
    save_mask,
    write_atomic,
)
from .synth import (
    VesselParams,
    generate_vessel,
    perturb_dilate_noise,
    perturb_disconnect,
    perturb_holes,
    perturb_merge,
)
from .topology import beta0_matching_error, betti_numbers, count_loops

TASK_KINDS = (
    "refinement",
    "structure_judgement",
    "structure_counting",
    "quality_judgement",
    "better_choice",
)

MODALITY_TAG = "synthetic grayscale vessel map"

DEF_COMPONENT = (
    "A connected component is a maximal set of foreground pixels joined "
    "through 8-neighborhood adjacency."
)
DEF_LOOP = (
    "A loop is an independent closed cycle of the foreground, equivalently a "
    "bounded background region completely enclosed by foreground pixels."
)
QUALITY_CRITERION = (
    "The mask is good exactly when its connected-component count equals the "
    "reference component count and its loop count equals the reference loop "
    "count; otherwise it is poor."
)
CHOICE_CRITERION = (
    "The better mask is the one with the strictly lower score, where the "
    "score is the number of components left unmatched by a maximum overlap "
    "matching against the reference mask plus the absolute difference in "
    "loop counts."
)

TEMPLATES: dict[str, list[str]] = {
    "judgement_loop": [
        "This is a {modality} with its vessel mask. {definition} Question: "
        "does the vascular structure contain at least one loop? Answer yes or no.",
        "You are shown a {modality} and the corresponding vessel mask. "
        "{definition} State whether any loop is present. Reply yes or no.",
        "Inspect the vessel mask of this {modality}. {definition} Is there a "
        "loop anywhere in the structure? Respond with yes or no.",
    ],
    "judgement_components": [
        "This is a {modality} with its vessel mask. {definition} Question: "
        "does the mask contain more than one connected component? Answer yes or no.",
        "You are shown a {modality} and the corresponding vessel mask. "
        "{definition} State whether the foreground splits into more than one "
        "connected component. Reply yes or no.",
        "Inspect the vessel mask of this {modality}. {definition} Are there "
        "two or more connected components? Respond with yes or no.",
    ],
    "counting_components": [
        "This is a {modality} with its vessel mask. {definition} Count the "
        "connected components and answer with a single integer.",
        "You are shown a {modality} and the corresponding vessel mask. "
        "{definition} How many connected components does the mask contain? "
        "Answer with one integer.",
        "Inspect the vessel mask of this {modality}. {definition} Report the "
        "number of connected components as a decimal integer.",
    ],
    "counting_loops": [
        "This is a {modality} with its vessel mask. {definition} Count the "
        "loops and answer with a single integer.",
        "You are shown a {modality} and the corresponding vessel mask. "
        "{definition} How many loops does the mask contain? Answer with one "
        "integer.",
        "Inspect the vessel mask of this {modality}. {definition} Report the "
        "number of loops as a decimal integer.",
    ],
    "quality": [
        "This is a {modality} with a candidate vessel mask. {def_component} "
        "{def_loop} The reference structure has {ref_components} and "
        "{ref_loops}. {criterion} Answer good or poor.",
        "You are shown a {modality} and a candidate segmentation mask. "
        "{def_component} {def_loop} Reference topology: {ref_components}, "
        "{ref_loops}. {criterion} Reply good or poor.",
        "Judge the candidate vessel mask of this {modality}. {def_component} "
        "{def_loop} The reference contains {ref_components} and {ref_loops}. "
        "{criterion} Respond with good or poor.",
    ],
    "choice": [
        "This is a {modality} with two candidate vessel masks, shown as mask "
        "A then mask B. {def_component} {def_loop} {criterion} Which mask has "
        "the better topology? Answer A or B.",
        "You are shown a {modality} followed by candidate masks A and B. "
        "{def_component} {def_loop} {criterion} Select the topologically "
        "better mask. Reply A or B.",
        "Compare the two candidate masks, A then B, for this {modality}. "
        "{def_component} {def_loop} {criterion} Name the better mask: A or B.",
    ],
    "refinement": [
        "This is a {modality} with a preliminary vessel mask that has "
        "imperfect topology. {def_component} {def_loop} Produce a refined "
        "mask with exactly {components_phrase} and {loops_phrase}.",
        "You are shown a {modality} and a rough vessel mask. {def_component} "
        "{def_loop} Generate a corrected mask containing {components_phrase} "
        "and {loops_phrase}.",
        "Refine the preliminary mask of this {modality}. {def_component} "
        "{def_loop} The corrected segmentation must have {components_phrase} "
        "and {loops_phrase}.",
    ],
}

_PLACEHOLDER = re.compile(r"\\\{[a-z_]+\\\}")


def template_regex(template: str) -> re.Pattern:
    """Full-match regex accepting the template with all placeholders filled.

    Filled text may not contain braces, so a prompt built from an unfilled
    template does not count as well formed.
    """
    return re.compile(_PLACEHOLDER.sub("([^{}]+?)", re.escape(template)) + r"\Z")


def prompt_is_well_formed(pool: str, prompt: str, index: int | None = None) -> bool:
    """Check a prompt against one template or against its whole pool."""
    templates = TEMPLATES[pool]
    if index is not None:
        return template_regex(templates[index]).match(prompt) is not None
    return any(template_regex(t).match(prompt) for t in templates)


def _plural(n: int, noun: str) -> str:
    return f"{n} {noun}" if n == 1 else f"{n} {noun}s"


def topology_choice_score(mask: BinaryMask, gt: BinaryMask) -> int:
    """Unmatched components against gt plus the absolute loop-count gap."""
    return beta0_matching_error(mask, gt) + abs(count_loops(mask) - count_loops(gt))


@dataclass(frozen=True)
class TaskRecord:
    task_kind: str
    image_paths: tuple[str, ...]
    prompt: str
    answer: str
    target: str | None
    provenance: dict

    def to_json(self) -> str:
        return json.dumps(
            {
                "task_kind": self.task_kind,
                "images": list(self.image_paths),
                "prompt": self.prompt,
                "answer": self.answer,
                "target": self.target,
                "provenance": self.provenance,
            },
            sort_keys=True,
        )


def _pick(pool: str, rng: np.random.Generator) -> tuple[int, str]:
    idx = int(rng.integers(len(TEMPLATES[pool])))
    return idx, TEMPLATES[pool][idx]


def gen_judgement(image: GrayImage, mask: BinaryMask, structure: str, seed: int,
                  image_path: str = "image.pgm",
                  mask_path: str = "mask.pgm") -> TaskRecord:
    """Yes/no judgement: 'loop' asks beta1 > 0, 'component>1' asks beta0 > 1."""
    img = as_gray(image)
    m = as_mask(mask)
    check_same_shape(img, m)
    rng = np.random.default_rng(seed)
    summary = betti_numbers(m)
    if structure == "loop":
        pool, definition = "judgement_loop", DEF_LOOP
        answer = "yes" if summary.beta1 > 0 else "no"
    elif structure == "component>1":
        pool, definition = "judgement_components", DEF_COMPONENT
        answer = "yes" if summary.beta0 > 1 else "no"
    else:
        raise ValueError(f"unknown structure {structure!r}")
    idx, template = _pick(pool, rng)
    prompt = template.format(modality=MODALITY_TAG, definition=definition)
    return TaskRecord(
        task_kind="structure_judgement",
        image_paths=(image_path, mask_path),
        prompt=prompt,
        answer=answer,
        target=None,
        provenance={"seed": seed, "template": [pool, idx], "structure": structure},
    )


def gen_counting(image: GrayImage, mask: BinaryMask, structure: str, seed: int,
                 image_path: str = "image.pgm",
                 mask_path: str = "mask.pgm") -> TaskRecord:
    """Counting: answer is beta0 ('components') or beta1 ('loops') in decimal."""
    img = as_gray(image)
    m = as_mask(mask)
    check_same_shape(img, m)
    rng = np.random.default_rng(seed)
    summary = betti_numbers(m)
    if structure == "components":
        pool, definition, value = "counting_components", DEF_COMPONENT, summary.beta0
    elif structure == "loops":
        pool, definition, value = "counting_loops", DEF_LOOP, summary.beta1
    else:
        raise ValueError(f"unknown structure {structure!r}")
    idx, template = _pick(pool, rng)
    prompt = template.format(modality=MODALITY_TAG, definition=definition)
    return TaskRecord(
        task_kind="structure_counting",
        image_paths=(image_path, mask_path),
        prompt=prompt,
        answer=str(value),
        target=None,
        provenance={"seed": seed, "template": [pool, idx], "structure": structure},
    )


def gen_quality(image: GrayImage, gt_mask: BinaryMask, candidate_mask: BinaryMask,
                seed: int, image_path: str = "image.pgm",
                candidate_path: str = "candidate.pgm",
                gt_path: str = "gt.pgm") -> TaskRecord:
    """Good/poor verdict; good iff component and loop counts both match gt."""
    img = as_gray(image)
    gt = as_mask(gt_mask)
    cand = as_mask(candidate_mask)
    check_same_shape(img, gt)
    check_same_shape(gt, cand)
    rng = np.random.default_rng(seed)
    ref = betti_numbers(gt)
    got = betti_numbers(cand)
    good = got.beta0 == ref.beta0 and got.beta1 == ref.beta1
    idx, template = _pick("quality", rng)
    prompt = template.format(
        modality=MODALITY_TAG,
        def_component=DEF_COMPONENT,
        def_loop=DEF_LOOP,
        criterion=QUALITY_CRITERION,
        ref_components=_plural(ref.beta0, "connected component"),
        ref_loops=_plural(ref.beta1, "loop"),
    )
    return TaskRecord(
        task_kind="quality_judgement",
        image_paths=(image_path, candidate_path),
        prompt=prompt,
        answer="good" if good else "poor",
        target=None,
        provenance={"seed": seed, "template": ["quality", idx], "gt": gt_path},
    )


def gen_choice(image: GrayImage, mask_a: BinaryMask, mask_b: BinaryMask,
               gt: BinaryMask, seed: int, image_path: str = "image.pgm",
               path_a: str = "mask_a.pgm", path_b: str = "mask_b.pgm",
               gt_path: str = "gt.pgm") -> TaskRecord:
    """Pick the candidate with strictly lower topology score; ties rejected.

    The two candidates are presented as A/B in an order randomized from the
    seed and recorded in provenance.
    """
    img = as_gray(image)
    ma = as_mask(mask_a)
    mb = as_mask(mask_b)
    g = as_mask(gt)
    for other in (ma, mb, g):
        check_same_shape(img, other)
    rng = np.random.default_rng(seed)
    swap = bool(rng.integers(2))
    first, second = (mb, ma) if swap else (ma, mb)
    first_path, second_path = (path_b, path_a) if swap else (path_a, path_b)
    s_first = topology_choice_score(first, g)
    s_second = topology_choice_score(second, g)
    if s_first == s_second:
        raise RejectedTie(f"both candidates score {s_first}")
    idx, template = _pick("choice", rng)
    prompt = template.format(
        modality=MODALITY_TAG,
        def_component=DEF_COMPONENT,
        def_loop=DEF_LOOP,
        criterion=CHOICE_CRITERION,
    )
    return TaskRecord(
        task_kind="better_choice",
        image_paths=(image_path, first_path, second_path),
        prompt=prompt,
        answer="A" if s_first < s_second else "B",
        target=None,
        provenance={
            "seed": seed,
            "template": ["choice", idx],
            "gt": gt_path,
            "order": "ba" if swap else "ab",
            "scores": [s_first, s_second],
        },
    )


def gen_refinement(image: GrayImage, imperfect_mask: BinaryMask,
                   gt_mask: BinaryMask, seed: int,
                   image_path: str = "image.pgm",
                   imperfect_path: str = "imperfect.pgm",
                   gt_path: str = "gt.pgm") -> TaskRecord:
    """Refinement record: inputs image + imperfect mask, target is the gt mask.

    The prompt states the expected component and loop counts of the target.
    """
    img = as_gray(image)
    imperfect = as_mask(imperfect_mask)
    gt = as_mask(gt_mask)
    check_same_shape(img, imperfect)
    check_same_shape(imperfect, gt)
    if (imperfect == gt).all():
        raise DegenerateInput("imperfect mask is identical to the ground truth")
    rng = np.random.default_rng(seed)
    ref = betti_numbers(gt)
    idx, template = _pick("refinement", rng)
    prompt = template.format(
        modality=MODALITY_TAG,
        def_component=DEF_COMPONENT,
        def_loop=DEF_LOOP,
        components_phrase=_plural(ref.beta0, "connected component"),
        loops_phrase=_plural(ref.beta1, "loop"),
    )
    return TaskRecord(
        task_kind="refinement",
        image_paths=(image_path, imperfect_path),
        prompt=prompt,
        answer=gt_path,
        target=gt_path,
        provenance={"seed": seed, "template": ["refinement", idx]},
    )


@dataclass(frozen=True)
class DatasetConfig:
    out_dir: str
    per_kind: dict[str, int] = field(
        default_factory=lambda: {kind: 10 for kind in TASK_KINDS}
    )
    width: int = 64
    height: int = 64
    seed: int = 0
    test_fraction: float = 0.2
    noise_sigma: float = 0.04

    def validate(self) -> None:
        unknown = set(self.per_kind) - set(TASK_KINDS)
        if unknown:
            raise InvalidConfig(f"unknown task kinds: {sorted(unknown)}")
        if any(n < 0 for n in self.per_kind.values()):
            raise InvalidConfig("per-kind counts must be >= 0")
        if not 0.0 <= self.test_fraction <= 1.0:
            raise InvalidConfig("test_fraction must be in [0, 1]")
        if min(self.width, self.height) < 32:
            raise InvalidConfig("canvas must be at least 32x32")


# Disjoint generator parameter ranges per split, on top of disjoint seed
# streams, so the test split is out-of-distribution at the level we control.
_SPLIT_PARAMS = {
    "train": {"branch_depth": 4, "radius_root": 2.0},
    "test": {"branch_depth": 3, "radius_root": 2.4},
}


def _scene(cfg: DatasetConfig, split: str, seed: int, n_trees: int,
           n_loops: int):
    params = VesselParams(
        width=cfg.width,
        height=cfg.height,
        n_trees=n_trees,
        n_loops=n_loops,
        background_noise_sigma=cfg.noise_sigma,
        seed=seed,
        **_SPLIT_PARAMS[split],
    )
    return generate_vessel(params), params


def _perturb_any(gt: BinaryMask, k: int, seed: int,
                 preferred: str) -> tuple[BinaryMask, str]:
    """Apply the preferred perturbation family, falling back to the others."""
    families = {
        "disconnect": perturb_disconnect,
        "merge": perturb_merge,
        "hole": perturb_holes,
    }
    order = [preferred] + sorted(set(families) - {preferred})
    for name in order:
        try:
            bad, _ = families[name](gt, k, seed)
            return bad, name
        except InsufficientStructure:
            continue
    raise InsufficientStructure(f"no perturbation family applicable (k={k})")


def _spawned_ints(ss: np.random.SeedSequence, n: int) -> list[int]:
    return [int(s.generate_state(1)[0]) for s in ss.spawn(n)]


def build_dataset(config: DatasetConfig) -> str:
    """Generate scenes, emit PGM files and a JSONL manifest; return its path.

    Records are grouped by task kind; within a kind, binary answer classes
    follow an alternating schedule and candidates are resampled until the
    scheduled class is hit, which pins class balance at 50% (+/- one record).
    Train and test records draw from disjoint seed streams and disjoint
    generator parameter ranges; the split is recorded in provenance.
    """
    config.validate()
    os.makedirs(config.out_dir, exist_ok=True)
    train_ss, test_ss = np.random.SeedSequence(config.seed).spawn(2)
    records: list[TaskRecord] = []
    index = 0
    for kind in TASK_KINDS:
        n_total = config.per_kind.get(kind, 0)
        n_test = int(round(n_total * config.test_fraction))
        for i in range(n_total):
            split = "test" if i < n_test else "train"
            branch_ss = (test_ss if split == "test" else train_ss).spawn(1)[0]
            record = _build_record(config, kind, split, i, index, branch_ss)
            records.append(record)
            index += 1
    manifest_path = os.path.join(config.out_dir, "manifest.jsonl")
    lines = "".join(record.to_json() + "\n" for record in records)
    write_atomic(manifest_path, lines.encode("utf-8"))
    return manifest_path


def _build_record(cfg: DatasetConfig, kind: str, split: str, i: int,
                  index: int, branch_ss: np.random.SeedSequence) -> TaskRecord:
    sid = f"{index:05d}"
    out = cfg.out_dir

    def img_path(name):
        return f"{sid}_{name}.pgm"

    for _ in range(30):
        attempt_ss = branch_ss.spawn(1)[0]
        seeds = _spawned_ints(attempt_ss, 8)
        rng = np.random.default_rng(seeds[0])
        extra = {}  # masks saved beside the image and the gt
        try:
            if kind == "structure_judgement":
                structure = ("loop", "component>1")[(i // 2) % 2]
                want_yes = i % 2 == 0
                if structure == "loop":
                    n_trees, n_loops = 1, int(rng.integers(1, 3)) if want_yes else 0
                else:
                    n_trees, n_loops = (int(rng.integers(2, 4)) if want_yes else 1), 0
                (image, gt, _), params = _scene(cfg, split, seeds[1], n_trees, n_loops)
                record = gen_judgement(image, gt, structure, seeds[2],
                                       img_path("img"), img_path("gt"))
            elif kind == "structure_counting":
                structure = ("components", "loops")[i % 2]
                if structure == "components":
                    n_trees, n_loops = int(rng.integers(1, 5)), 0
                else:
                    n_trees, n_loops = 1, int(rng.integers(0, 4))
                (image, gt, _), params = _scene(cfg, split, seeds[1], n_trees, n_loops)
                record = gen_counting(image, gt, structure, seeds[2],
                                      img_path("img"), img_path("gt"))
            elif kind == "quality_judgement":
                want_good = i % 2 == 0
                (image, gt, _), params = _scene(cfg, split, seeds[1],
                                                1, int(rng.integers(0, 2)))
                if want_good:
                    cand, _ = perturb_dilate_noise(gt, seeds[3])
                else:
                    cand, _ = _perturb_any(gt, int(rng.integers(1, 3)), seeds[3],
                                           preferred="disconnect")
                record = gen_quality(image, gt, cand, seeds[2],
                                     img_path("img"), img_path("cand"),
                                     img_path("gt"))
                if record.answer != ("good" if want_good else "poor"):
                    continue
                extra = {"cand": cand}
            elif kind == "better_choice":
                want = "AB"[i % 2]
                (image, gt, _), params = _scene(cfg, split, seeds[1], 1, 0)
                cand1, _ = _perturb_any(gt, 1, seeds[3], preferred="disconnect")
                cand2, _ = _perturb_any(gt, int(rng.integers(2, 4)), seeds[4],
                                        preferred="disconnect")
                # storage names are neutral; the A/B presentation order is
                # carried by the record's image path order
                record = gen_choice(image, cand1, cand2, gt, seeds[2],
                                    img_path("img"), img_path("cand0"),
                                    img_path("cand1"), img_path("gt"))
                if record.answer != want:
                    continue
                extra = {"cand0": cand1, "cand1": cand2}
            elif kind == "refinement":
                (image, gt, _), params = _scene(cfg, split, seeds[1],
                                                int(rng.integers(1, 3)),
                                                int(rng.integers(0, 2)))
                bad, _ = _perturb_any(gt, int(rng.integers(1, 4)), seeds[3],
                                      preferred="disconnect")
                record = gen_refinement(image, bad, gt, seeds[2],
                                        img_path("img"), img_path("bad"),
                                        img_path("gt"))
                extra = {"bad": bad}
            else:
                raise InvalidConfig(f"unknown task kind {kind!r}")
        except (InsufficientStructure, RejectedTie, DegenerateInput):
            continue
        save_image(image, os.path.join(out, img_path("img")))
        for name, m in {"gt": gt, **extra}.items():
            save_mask(m, os.path.join(out, img_path(name)))
        provenance = dict(record.provenance)
        provenance.update({"split": split, "scene": asdict(params)})
        return TaskRecord(record.task_kind, record.image_paths, record.prompt,
                          record.answer, record.target, provenance)
    raise InvalidConfig(
        f"could not build a valid {kind} record (index {index}) in 30 attempts"
    )


@dataclass(frozen=True)
class VerificationReport:
    total: int
    mismatch_count: int
    mismatch_records: tuple[int, ...]
    per_kind: dict[str, int]


def _paths_of(record: dict, base: str) -> list[str]:
    return [os.path.join(base, p) for p in record["images"]]


def _recompute_answer(record: dict, base: str) -> str:
    """Re-derive a record's answer from pixels alone."""
    kind = record["task_kind"]
    paths = _paths_of(record, base)
    if kind == "structure_judgement":
        mask = load_mask(paths[-1])
        summary = betti_numbers(mask)
        if record["provenance"]["structure"] == "loop":
            return "yes" if summary.beta1 > 0 else "no"
        return "yes" if summary.beta0 > 1 else "no"
    if kind == "structure_counting":
        mask = load_mask(paths[-1])
        summary = betti_numbers(mask)
        if record["provenance"]["structure"] == "components":
            return str(summary.beta0)
        return str(summary.beta1)
    if kind == "quality_judgement":
        cand = load_mask(paths[-1])
        gt = load_mask(os.path.join(base, record["provenance"]["gt"]))
        ref, got = betti_numbers(gt), betti_numbers(cand)
        good = got.beta0 == ref.beta0 and got.beta1 == ref.beta1
        return "good" if good else "poor"
    if kind == "better_choice":
        first = load_mask(paths[1])
        second = load_mask(paths[2])
        gt = load_mask(os.path.join(base, record["provenance"]["gt"]))
        s_first = topology_choice_score(first, gt)
        s_second = topology_choice_score(second, gt)
        if s_first == s_second:
            return "<tie>"
        return "A" if s_first < s_second else "B"
    if kind == "refinement":
        gt = load_mask(os.path.join(base, record["target"]))
        ref = betti_numbers(gt)
        comp_ok = _plural(ref.beta0, "connected component") in record["prompt"]
        loop_ok = _plural(ref.beta1, "loop") in record["prompt"]
        return record["target"] if comp_ok and loop_ok else "<bad-constraint>"
    raise InvalidConfig(f"unknown task kind {kind!r}")


def verify_answers(manifest_path) -> VerificationReport:
    """Recompute every answer from stored pixels and tally mismatches.

    Raises OSError naming the record when a referenced file is missing and
    FormatError when a referenced file is not a valid PGM.
    """
    base = os.path.dirname(os.path.abspath(manifest_path))
    with open(manifest_path, "r", encoding="utf-8") as fh:
        lines = [line for line in fh.read().splitlines() if line.strip()]
    per_kind: dict[str, int] = {}
    mismatches: list[int] = []
    for i, line in enumerate(lines):
        record = json.loads(line)
        per_kind[record["task_kind"]] = per_kind.get(record["task_kind"], 0) + 1
        referenced = list(record["images"])
        if record.get("target"):
            referenced.append(record["target"])
        if "gt" in record.get("provenance", {}):
            referenced.append(record["provenance"]["gt"])
        for rel in referenced:
            if not os.path.exists(os.path.join(base, rel)):
                raise OSError(f"record {i}: missing file {rel}")
        recomputed = _recompute_answer(record, base)
        if recomputed != record["answer"]:
            mismatches.append(i)
    return VerificationReport(
        total=len(lines),
        mismatch_count=len(mismatches),
        mismatch_records=tuple(mismatches),
        per_kind=per_kind,
    )
