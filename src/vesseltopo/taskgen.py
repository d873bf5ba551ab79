"""Topology-centric task records with rule-derived ground-truth answers.

Five task kinds over synthetic vessel scenes:

* ``refinement``          - image + imperfect mask in, target mask out
* ``structure_judgement`` - yes/no existence of loops or of multiple components
* ``structure_counting``  - count components or loops
* ``quality_judgement``   - good/poor verdict for a candidate mask
* ``better_choice``       - pick the candidate mask with better topology

Every prompt embeds the definition of each topological term it queries plus,
where applicable, the verbatim scoring rule, so records are self-describing.
Prompts and records are assembled in one place: each generator validates its
masks, computes its answer and hands it to one constructor, which draws and
fills the template and stamps it into provenance. Each answer rule is
written once, for the generators and for ``verify_answers``, the audit that
re-derives every answer from the stored pixels. The audit catches a record
that disagrees with its files: stored pixels, image path order, provenance,
or the counts a refinement or quality prompt states. The rules themselves
are pinned by an oracle test in the test suite.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .errors import (DegenerateInput, InsufficientStructure, InvalidConfig,
                     RejectedTie)
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
    perturb_first,
    perturb_holes,
    perturb_merge,
)
from .topology import (TopologySummary, beta0_matching_error, betti_numbers,
                       count_loops)

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
        record = asdict(self)
        record["images"] = record.pop("image_paths")
        return json.dumps(record, sort_keys=True)


def _masks(image: GrayImage, *masks: BinaryMask) -> list[BinaryMask]:
    """Validate the image and the masks; every mask must share its shape."""
    img = as_gray(image)
    out = [as_mask(m) for m in masks]
    for m in out:
        check_same_shape(img, m)
    return out


# The answer rule of each structure question, for the generators and the audit
# alike: structure -> (task kind, template pool, definition, rule on the Betti
# summary of the mask).
_STRUCTURES = {
    "loop": ("structure_judgement", "judgement_loop", DEF_LOOP,
             lambda s: "yes" if s.beta1 > 0 else "no"),
    "component>1": ("structure_judgement", "judgement_components", DEF_COMPONENT,
                    lambda s: "yes" if s.beta0 > 1 else "no"),
    "components": ("structure_counting", "counting_components", DEF_COMPONENT,
                   lambda s: str(s.beta0)),
    "loops": ("structure_counting", "counting_loops", DEF_LOOP,
              lambda s: str(s.beta1)),
}


def _structure_rule(kind: str, structure: str):
    """(template pool, definition, rule) of a structure question of this kind."""
    entry = _STRUCTURES.get(structure)
    if entry is None or entry[0] != kind:
        raise ValueError(f"unknown structure {structure!r}")
    return entry[1:]


def _quality_answer(ref: TopologySummary, got: TopologySummary) -> str:
    return "good" if (got.beta0, got.beta1) == (ref.beta0, ref.beta1) else "poor"


def _choice_answer(first: BinaryMask, second: BinaryMask,
                   gt: BinaryMask) -> tuple[str | None, list[int]]:
    """The slot, A or B, of the strictly lower score (None on a tie); the scores."""
    scores = [topology_choice_score(first, gt), topology_choice_score(second, gt)]
    if scores[0] == scores[1]:
        return None, scores
    return ("A" if scores[0] < scores[1] else "B"), scores


def _count_phrases(ref: TopologySummary) -> tuple[str, str]:
    """How a prompt states the reference component and loop counts."""
    return _plural(ref.beta0, "connected component"), _plural(ref.beta1, "loop")


_COUNT_STATEMENT = re.compile(r"\d+ (?:connected component|loop)s?\b")


def _states_counts(prompt: str, ref: TopologySummary) -> bool:
    """Whether the prompt states the reference counts, and no other counts.

    Numbers compare whole: "1 connected component" does not match inside
    "11 connected components".
    """
    return _COUNT_STATEMENT.findall(prompt) == list(_count_phrases(ref))


def _record(kind: str, pool: str, rng: np.random.Generator,
            image_paths: tuple[str, ...], answer: str, target: str | None,
            provenance: dict, **fill: str) -> TaskRecord:
    """The one constructor of a task record.

    Draws a template of ``pool`` from ``rng``, fills it with the modality tag,
    both definitions and the caller's own fields (a template ignores fields
    it does not name), and stamps ``[pool, index]`` into the provenance.
    """
    idx = int(rng.integers(len(TEMPLATES[pool])))
    prompt = TEMPLATES[pool][idx].format(modality=MODALITY_TAG,
                                         def_component=DEF_COMPONENT,
                                         def_loop=DEF_LOOP, **fill)
    return TaskRecord(kind, image_paths, prompt, answer, target,
                      {**provenance, "template": [pool, idx]})


def _structure_record(kind: str, image: GrayImage, mask: BinaryMask,
                      structure: str, seed: int, image_path: str,
                      mask_path: str) -> TaskRecord:
    (m,) = _masks(image, mask)
    pool, definition, rule = _structure_rule(kind, structure)
    return _record(kind, pool, np.random.default_rng(seed), (image_path, mask_path),
                   rule(betti_numbers(m)), None,
                   {"seed": seed, "structure": structure}, definition=definition)


def gen_judgement(image: GrayImage, mask: BinaryMask, structure: str, seed: int,
                  image_path: str = "image.pgm",
                  mask_path: str = "mask.pgm") -> TaskRecord:
    """Yes/no judgement: 'loop' asks beta1 > 0, 'component>1' asks beta0 > 1."""
    return _structure_record("structure_judgement", image, mask, structure, seed,
                             image_path, mask_path)


def gen_counting(image: GrayImage, mask: BinaryMask, structure: str, seed: int,
                 image_path: str = "image.pgm",
                 mask_path: str = "mask.pgm") -> TaskRecord:
    """Counting: answer is beta0 ('components') or beta1 ('loops') in decimal."""
    return _structure_record("structure_counting", image, mask, structure, seed,
                             image_path, mask_path)


def gen_quality(image: GrayImage, gt_mask: BinaryMask, candidate_mask: BinaryMask,
                seed: int, image_path: str = "image.pgm",
                candidate_path: str = "candidate.pgm",
                gt_path: str = "gt.pgm") -> TaskRecord:
    """Good/poor verdict; good iff component and loop counts both match gt."""
    gt, cand = _masks(image, gt_mask, candidate_mask)
    ref = betti_numbers(gt)
    ref_components, ref_loops = _count_phrases(ref)
    return _record("quality_judgement", "quality", np.random.default_rng(seed),
                   (image_path, candidate_path),
                   _quality_answer(ref, betti_numbers(cand)), None,
                   {"seed": seed, "gt": gt_path}, criterion=QUALITY_CRITERION,
                   ref_components=ref_components, ref_loops=ref_loops)


def gen_choice(image: GrayImage, mask_a: BinaryMask, mask_b: BinaryMask,
               gt: BinaryMask, seed: int, image_path: str = "image.pgm",
               path_a: str = "mask_a.pgm", path_b: str = "mask_b.pgm",
               gt_path: str = "gt.pgm") -> TaskRecord:
    """Pick the candidate with strictly lower topology score; ties rejected.

    The two candidates are presented as A/B in an order randomized from the
    seed and recorded in provenance.
    """
    ma, mb, g = _masks(image, mask_a, mask_b, gt)
    rng = np.random.default_rng(seed)
    swap = bool(rng.integers(2))
    first, second = (mb, ma) if swap else (ma, mb)
    first_path, second_path = (path_b, path_a) if swap else (path_a, path_b)
    answer, scores = _choice_answer(first, second, g)
    if answer is None:
        raise RejectedTie(f"both candidates score {scores[0]}")
    return _record("better_choice", "choice", rng,
                   (image_path, first_path, second_path), answer, None,
                   {"seed": seed, "gt": gt_path, "order": "ba" if swap else "ab",
                    "scores": scores}, criterion=CHOICE_CRITERION)


def gen_refinement(image: GrayImage, imperfect_mask: BinaryMask,
                   gt_mask: BinaryMask, seed: int,
                   image_path: str = "image.pgm",
                   imperfect_path: str = "imperfect.pgm",
                   gt_path: str = "gt.pgm") -> TaskRecord:
    """Refinement record: inputs image + imperfect mask, target is the gt mask.

    The prompt states the expected component and loop counts of the target.
    """
    imperfect, gt = _masks(image, imperfect_mask, gt_mask)
    if (imperfect == gt).all():
        raise DegenerateInput("imperfect mask is identical to the ground truth")
    components_phrase, loops_phrase = _count_phrases(betti_numbers(gt))
    return _record("refinement", "refinement", np.random.default_rng(seed),
                   (image_path, imperfect_path), gt_path, gt_path, {"seed": seed},
                   components_phrase=components_phrase, loops_phrase=loops_phrase)


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


def _perturb_any(gt: BinaryMask, k: int, seed: int) -> BinaryMask:
    """Cut k gaps, or failing that punch k holes, or draw k bridges."""
    return perturb_first((perturb_disconnect, perturb_holes, perturb_merge),
                         gt, k, seed)[0]


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
                    cand = _perturb_any(gt, int(rng.integers(1, 3)), seeds[3])
                record = gen_quality(image, gt, cand, seeds[2],
                                     img_path("img"), img_path("cand"),
                                     img_path("gt"))
                if record.answer != ("good" if want_good else "poor"):
                    continue
                extra = {"cand": cand}
            elif kind == "better_choice":
                want = "AB"[i % 2]
                (image, gt, _), params = _scene(cfg, split, seeds[1], 1, 0)
                cand1 = _perturb_any(gt, 1, seeds[3])
                cand2 = _perturb_any(gt, int(rng.integers(2, 4)), seeds[4])
                # storage names are neutral; the A/B presentation order is
                # carried by the record's image path order
                record = gen_choice(image, cand1, cand2, gt, seeds[2],
                                    img_path("img"), img_path("cand0"),
                                    img_path("cand1"), img_path("gt"))
                if record.answer != want:
                    continue
                extra = {"cand0": cand1, "cand1": cand2}
            else:  # refinement, the last of TASK_KINDS
                (image, gt, _), params = _scene(cfg, split, seeds[1],
                                                int(rng.integers(1, 3)),
                                                int(rng.integers(0, 2)))
                bad = _perturb_any(gt, int(rng.integers(1, 4)), seeds[3])
                record = gen_refinement(image, bad, gt, seeds[2],
                                        img_path("img"), img_path("bad"),
                                        img_path("gt"))
                extra = {"bad": bad}
        except (InsufficientStructure, RejectedTie, DegenerateInput):
            continue
        save_image(image, os.path.join(out, img_path("img")))
        for name, m in {"gt": gt, **extra}.items():
            save_mask(m, os.path.join(out, img_path(name)))
        return replace(record, provenance={**record.provenance, "split": split,
                                           "scene": asdict(params)})
    raise InvalidConfig(
        f"could not build a valid {kind} record (index {index}) in 30 attempts"
    )


@dataclass(frozen=True)
class VerificationReport:
    total: int
    mismatch_count: int
    mismatch_records: tuple[int, ...]
    per_kind: dict[str, int]


def _recompute_answer(record: dict, base: str) -> str:
    """Re-derive a record's answer from pixels, by the generators' own rules."""
    kind = record["task_kind"]
    paths = [os.path.join(base, p) for p in record["images"]]
    if kind in ("structure_judgement", "structure_counting"):
        _, _, rule = _structure_rule(kind, record["provenance"]["structure"])
        return rule(betti_numbers(load_mask(paths[-1])))
    if kind == "quality_judgement":
        cand = load_mask(paths[-1])
        ref = betti_numbers(load_mask(os.path.join(base, record["provenance"]["gt"])))
        if not _states_counts(record["prompt"], ref):
            return "<bad-constraint>"
        return _quality_answer(ref, betti_numbers(cand))
    if kind == "better_choice":
        first = load_mask(paths[1])
        second = load_mask(paths[2])
        gt = load_mask(os.path.join(base, record["provenance"]["gt"]))
        return _choice_answer(first, second, gt)[0] or "<tie>"
    if kind == "refinement":
        gt = load_mask(os.path.join(base, record["target"]))
        stated = _states_counts(record["prompt"], betti_numbers(gt))
        return record["target"] if stated else "<bad-constraint>"
    raise InvalidConfig(f"unknown task kind {kind!r}")


def verify_answers(manifest_path) -> VerificationReport:
    """Recompute every answer from stored pixels and tally mismatches.

    Raises OSError naming the record when a referenced file is missing,
    FormatError when a referenced file is not a valid PGM, and ValueError on
    a structure its record's task kind does not ask.
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
