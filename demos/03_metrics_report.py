"""Score degraded masks against ground truth with the four-column report.

Shows how Dice reacts to any pixel change while the beta0 errors respond
only to connectivity: a dilated mask keeps beta0_num at 0, a single cut
drives it to 1 even though Dice barely moves.
"""

from vesseltopo import aggregate_reports, metric_report
from vesseltopo.metrics import format_csv
from vesseltopo.synth import (
    VesselParams,
    generate_vessel,
    perturb_dilate_noise,
    perturb_disconnect,
)

_, gt, _ = generate_vessel(VesselParams(width=96, height=96, seed=21))

candidates = {
    "identical": gt,
    "dilated": perturb_dilate_noise(gt, seed=1)[0],
    "one_cut": perturb_disconnect(gt, 1, seed=2)[0],
    "three_cuts": perturb_disconnect(gt, 3, seed=3)[0],
}

rows = [(name, metric_report(mask, gt)) for name, mask in candidates.items()]
print(format_csv(rows + [("mean", aggregate_reports([r for _, r in rows]))]))

r_dilated = dict(rows)["dilated"]
r_cut = dict(rows)["one_cut"]
print(f"dilation: dice {r_dilated.dice:.3f} but beta0_num {r_dilated.beta0_num:.0f}")
print(f"one cut:  dice {r_cut.dice:.3f} yet beta0_num {r_cut.beta0_num:.0f}")
