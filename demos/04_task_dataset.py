"""Build a small topology-centric task dataset and audit it.

Each record's answer is derived by the topology rule engine; the audit
re-derives every answer from the stored pixels, by the same rules, and must
find zero mismatches. It checks each record against its files (pixels, image
path order, provenance, the counts a refinement prompt states); the rules
themselves are pinned by an oracle test in tests/test_taskgen.py. Prompts
embed the definitions and scoring rules they rely on.
"""

import json
import os
from collections import Counter

from vesseltopo.taskgen import TASK_KINDS, DatasetConfig, build_dataset, verify_answers

out_dir = os.path.join(os.path.dirname(__file__), "_out_tasks")
config = DatasetConfig(out_dir=out_dir,
                       per_kind={kind: 6 for kind in TASK_KINDS},
                       seed=11)
manifest = build_dataset(config)
records = [json.loads(line) for line in open(manifest)]
print(f"built {len(records)} records in {out_dir}")

print("\nanswer distribution per kind:")
for kind in TASK_KINDS:
    counts = Counter(r["answer"] for r in records if r["task_kind"] == kind)
    shown = ", ".join(f"{a}: {n}" for a, n in sorted(counts.items())[:4])
    print(f"  {kind:22s} {shown}")

example = next(r for r in records if r["task_kind"] == "better_choice")
print("\na better_choice record:")
print("  images:", example["images"])
print("  prompt:", example["prompt"][:160] + "...")
print("  answer:", example["answer"], "| scores:", example["provenance"]["scores"])

report = verify_answers(manifest)
print(f"\naudit: {report.total} records, {report.mismatch_count} mismatches")
assert report.mismatch_count == 0
