"""Benchmark for vesseltopo: three batch workloads through the public CLI.

    python3 perfbench/run.py --workload taskgen-64 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout (the package is imported from
``src/``). Workloads:

* ``taskgen-64``: ``vesseltopo taskgen`` at the default 64x64 canvas with 3
  records of each of the five task kinds per pass, then a
  ``taskgen.verify_answers`` audit of the manifest it wrote.
  primary = records built/s, secondary = records audited/s.
* ``score-512``: ``vesseltopo metrics`` on two 512x512 pred/gt vessel pairs
  per pass, then ``vesseltopo topology`` on each of their four masks.
  primary = pairs scored/s, secondary = masks/s through ``topology``.
* ``flow-32``: ``vesseltopo train`` (CLI defaults, 100 steps) on 16 32x32
  triples, then ``vesseltopo refine`` (16 Euler steps) on 8 held-out ones.
  primary = optimizer steps/s, secondary = triples refined and scored/s.

With ``--trace 0`` it reports the end-to-end metrics: ``setup_s`` (median
over fresh processes of importing vesseltopo plus one warm-up call on tiny
inputs), ``peak_rss_mb`` of the workload process, and the two rates, each
computed as work done over the time of the calls. Times are at the nominal
host speed, as the sampler in ``calibrate.py`` measures it while the calls
run; the raw wall-time figures are printed beside them. With ``--trace 1``
it repeats the same passes with spans around every layer function and
reports per-layer calls, self times, derived ratios and the tracing
overhead; the untraced and traced halves each run for about half of
``--seconds``.

Every output is checked against the oracles in ``oracles.py`` and by
re-running pass 0 (or, traced, every pass) in another process with equal
output digests. The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# Single-threaded load shape: pin every BLAS/OpenMP pool before numpy loads,
# here and in every child process (they inherit the environment).
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, HERE)

WORKLOADS = {
    # name: (primary, unit, secondary, unit)
    "taskgen-64": ("build_records_per_s", "records/s", "audit_records_per_s", "records/s"),
    "score-512": ("pairs_per_s", "pairs/s", "topology_masks_per_s", "masks/s"),
    "flow-32": ("train_steps_per_s", "steps/s", "refined_per_s", "triples/s"),
}
SETUP_REPEATS = 5
DEADLINE_S = 170.0  # every run, traced or not, ends well inside 180 s


class Child:
    """Runs worker.py processes one at a time, within the run's deadline."""

    def __init__(self, args, work: str, tiny: str, start: float):
        self.args, self.work, self.tiny, self.start = args, work, tiny, start

    def __call__(self, mode: str, tag: str, **extra) -> dict:
        out = os.path.join(self.work, f"{tag}.json")
        cmd = [sys.executable, WORKER, "--mode", mode, "--workload", self.args.workload,
               "--seed", str(self.args.seed), "--work", os.path.join(self.work, tag),
               "--tiny", self.tiny, "--out", out]
        for key, value in extra.items():
            cmd += [f"--{key}", str(value)]
        left = DEADLINE_S - (time.monotonic() - self.start)
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=max(left, 1.0), check=False)
        if proc.returncode != 0 or not os.path.exists(out):
            raise RuntimeError(f"{mode} process exited {proc.returncode}:\n{proc.stderr}")
        with open(out, encoding="utf-8") as fh:
            return json.load(fh)


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    import numpy  # noqa: F401  (loads the BLAS library)

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        dll = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(dll, sym):
                return int(getattr(dll, sym)())
    return None


def environment(load_start) -> dict:
    import numpy
    import scipy

    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              capture_output=True, check=False)
        commit = proc.stdout.strip() or None
    pkg = os.path.join(SRC, "vesseltopo")
    lines = {}
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                lines[name[:-3]] = sum(1 for _ in fh)
    lines["total"] = sum(lines.values())
    return {
        "numba_present": importlib.util.find_spec("numba") is not None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_start": list(load_start),
        "loadavg_end": list(os.getloadavg()),
        "commit": commit,
        "src_lines": lines,
    }


def check_outputs(workload: str, work_dir: str, passes: list):
    """Oracle checks of every pass: (attempted, failed, notes)."""
    import oracles
    import worker

    attempted = failed = 0
    notes = []
    for p, result in enumerate(passes):
        expected = result["expected"]
        attempted += sum(expected)
        pdir = os.path.join(work_dir, f"p{p:04d}")
        if any(rc != 0 for rc in result["rc"]) or result.get("outputs_sha256") is None:
            failed += sum(e - w for e, w in zip(expected, result["work"]))
            notes.append(f"pass {p}: exit codes {result['rc']}")
            if result["work"][0] == 0:
                continue
        try:
            bad1, bad2, msgs = oracles.check_pass(workload, pdir, result,
                                                  worker.TASKGEN_PER_KIND, worker.FLOW_STEPS)
        except Exception as exc:  # unreadable or missing output: the pass failed
            bad1, bad2, msgs = sum(result["work"]), 0, [f"{type(exc).__name__}: {exc}"]
        failed += bad1 + bad2
        notes += [f"pass {p}: {m}" for m in msgs]
    return attempted, failed, notes


def compare_digests(first: list, second: list) -> tuple[int, list]:
    """Passes whose inputs match but outputs differ count as failed work."""
    failed, notes = 0, []
    for p, (a, b) in enumerate(zip(first, second)):
        if a["inputs_sha256"] != b["inputs_sha256"]:
            failed += sum(a["expected"])
            notes.append(f"pass {p}: input digest differs between processes")
        elif a.get("outputs_sha256") != b.get("outputs_sha256"):
            failed += sum(a["expected"])
            notes.append(f"pass {p}: output digest differs between processes")
    return failed, notes


def rates(passes: list, key: str = "nominal_s") -> tuple[float, float, float]:
    """(primary, secondary, seconds): work over the summed stage times, at
    the nominal host speed or, with ``key="stage_s"``, over wall time."""
    work = [sum(r["work"][i] for r in passes) for i in (0, 1)]
    secs = [sum(r[key][i] for r in passes) for i in (0, 1)]
    return (work[0] / secs[0] if secs[0] else 0.0,
            work[1] / secs[1] if secs[1] else 0.0, sum(secs))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "vesseltopo", "__init__.py")):
        print(f"error: no vesseltopo package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    start = time.monotonic()
    load_start = os.getloadavg()
    work = os.path.join(ROOT, ".perfbench_run", f"{args.workload}-{args.seed}-{os.getpid()}")
    tiny = os.path.join(work, "tiny")
    try:
        import inputs
        inputs.tiny_inputs(tiny)
        child = Child(args, work, tiny, start)
        metrics, lines = {}, []
        if args.trace == 0:
            setups = [child("setup", f"setup{i}") for i in range(SETUP_REPEATS)]
            timed = child("run", "timed", seconds=args.seconds)
            repeat = child("run", "repeat", passes=1)
        else:
            # half the time untraced, then the same passes traced
            timed = child("run", "timed", seconds=args.seconds / 2)
            repeat = child("run", "traced", passes=len(timed["passes"]), trace=1)
        passes = timed["passes"]
        attempted, failed, notes = check_outputs(args.workload, os.path.join(work, "timed"),
                                                 passes)
        bad, msgs = compare_digests(passes, repeat["passes"])
        failed = min(failed + bad, attempted)  # an operation fails once
        notes += msgs
        # a pass that raised, or a failed warm-up or set-up call, is one more
        # failed operation
        faults = [f"{label} process: {res['error']}"
                  for label, res in (("timed", timed), ("repeat", repeat)) if res["error"]]
        faults += [f"{label} warm-up exit code {rc}"
                   for label, res in (("timed", timed), ("repeat", repeat))
                   for rc in res["warmup_rc"] if rc != 0]
        if args.trace == 0:
            faults += [f"set-up exit code {s['rc']}" for s in setups if s["rc"] != 0]
        elif repeat["self_s_total"] > repeat["wall_s"]:
            faults.append(f"span self times sum to {repeat['self_s_total']:.4f} s, more "
                          f"than the traced wall time {repeat['wall_s']:.4f} s")
        attempted += len(faults)
        failed += len(faults)
        notes += faults
        primary, secondary, scaled_s = rates(passes)
        raw = rates(passes, key="stage_s")
        measured = raw[2]
        names = WORKLOADS[args.workload]
        work_n = [sum(r["work"][i] for r in passes) for i in (0, 1)]
        slow = [x for r in passes for x in r["slowness"]]
        if args.trace == 0:
            setup_s = statistics.median(s["setup_s"] for s in setups)
            setup_raw = statistics.median(s["raw_s"] for s in setups)
            metrics = {
                "setup_s": {"value": setup_s, "unit": "s"},
                "peak_rss_mb": {"value": timed["peak_rss_mb"], "unit": "MiB"},
                "primary_per_s": {"value": primary, "unit": "1/s"},
                "secondary_per_s": {"value": secondary, "unit": "1/s"},
            }
            lines += [
                f"setup_s {setup_s:.4f} s at nominal host speed (median of "
                f"{SETUP_REPEATS} fresh processes: "
                + ", ".join(f"{s['setup_s']:.4f}" for s in setups)
                + f"; raw median {setup_raw:.4f})",
                f"peak_rss_mb {timed['peak_rss_mb']:.1f} MiB",
                f"{names[0]} {primary:.4f} {names[1]} = primary_per_s "
                f"({work_n[0]} at nominal host speed; raw {raw[0]:.4f})",
                f"{names[2]} {secondary:.4f} {names[3]} = secondary_per_s "
                f"({work_n[1]} at nominal host speed; raw {raw[1]:.4f})",
                f"host slowness {statistics.mean(slow):.3f} (sampler kernel time over "
                f"nominal, {min(slow):.3f} to {max(slow):.3f} across stages)",
            ]
        else:
            overhead = rates(repeat["passes"])[2] - scaled_s
            metrics = {name: {"value": v, "unit": u} for name, (v, u) in repeat["layers"].items()}
            metrics["trace_overhead_s"] = {"value": overhead, "unit": "s"}
            lines += [f"{name} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()
                      if not (name.endswith((".calls", ".self_s")) and m["value"] == 0)
                      and name != "trace_overhead_s"]
            lines += [
                f"trace_overhead_s {overhead:.4f} s at nominal host speed (raw: traced "
                f"{repeat['measured_s']:.3f} s, untraced {measured:.3f} s; "
                f"{repeat['span_count']} spans, self times sum to "
                f"{repeat['self_s_total']:.3f} s of {repeat['wall_s']:.3f} s traced wall "
                "time, sampler included)",
                "wait time: none to report; one single-threaded process, no queues "
                "or worker threads",
                "functions with zero calls on this workload are omitted above",
            ]
        lines.append(f"failed_frac {failed / attempted if attempted else 1.0:.4g} ratio "
                     f"({failed} of {attempted} operations)")
        print(f"# {args.workload} seed={args.seed} trace={args.trace} "
              f"passes={len(passes)} measured_s={measured:.3f}")
        for line in lines:
            print(f"  {line}")
        for note in notes[:50]:
            print(f"  FAIL {note}")
        digests = {
            "inputs_sha256": hashlib.sha256("".join(
                r["inputs_sha256"] for r in passes).encode()).hexdigest(),
            "outputs_sha256": hashlib.sha256("".join(
                r.get("outputs_sha256") or "-" for r in passes).encode()).hexdigest(),
            "per_pass": [[r["inputs_sha256"], r.get("outputs_sha256")] for r in passes],
        }
        print("DIGESTS " + json.dumps(digests, sort_keys=True))
        print("PASSES " + json.dumps([{"work": r["work"], "net_s": r["stage_s"],
                                       "nominal_s": r["nominal_s"]} for r in passes]))
        print("ENV " + json.dumps(environment(load_start), sort_keys=True))
        correct = failed == 0 and not notes and attempted > 0
        print(json.dumps({"correct": correct, "attempted": attempted,
                          "failed": failed, "metrics": metrics}))
        return 0 if correct else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        parent = os.path.dirname(work)
        if os.path.isdir(parent) and not os.listdir(parent):
            os.rmdir(parent)


if __name__ == "__main__":
    sys.exit(main())
