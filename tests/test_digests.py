"""SHA-256 of every file the command line writes, and every line it prints,
on tiny fixed inputs.

``synth``, ``taskgen --verify``, ``metrics``, ``topology``, a 20-step
``train`` and ``refine`` run in-process, each with its defaults except for
canvas size, counts and steps. A change that keeps every output
byte-identical leaves these tables as they are; one that changes an output
byte changes an entry here, and says why. Trained bytes also depend on the
BLAS kernel that runs, so a failure names the numpy and BLAS builds.
"""

import contextlib
import hashlib
import io
import shutil

import numpy as np
import pytest

from vesseltopo.cli import main

_SHA256 = {
    "ck.json": "0500bfd68127d6bb519fac461565e119990afa982488b23aef8b8cdd015f5973",
    "ck_loss.csv": "64fd86db8c8cd53655c56ed3dc437503107b97d0161f7421e7f20bb6e895af8b",
    "data/00000_bad0.pgm": "1819232fd92b235dc8040888b4aaf374d1eeeb9f1c81543121ea34b2ece618fa",
    "data/00000_gt.pgm": "b3a4043d07da1be6917c2abc9c7a149651a7d9d40ccfd553950a9b2a18eea26b",
    "data/00000_img.pgm": "5737d1bbf2cf60ae4a078f8e42e10e9228bd41890b6871268fb6a3f24be00a32",
    "data/00001_bad0.pgm": "9dfcefd27aaf0592d9ff46dad4a20188955a9be88acb7a98ce2dd4330b677c42",
    "data/00001_gt.pgm": "66e285f7545d953a17d5e0fc836313acdce44b675758379bcfa6012b6197f029",
    "data/00001_img.pgm": "0460cb84d4ffacffe6414b7531342cc2e9e7871143d5c73ff0ad840b9a23da0c",
    "data/manifest.jsonl": "2731bc99c834517e08610cc821e62804f5f1e9b624f2ed78d70326042b2260a5",
    "ds/00000_bad.pgm": "691dcc06435c1d2f8284d49fdeebfe88e728640cabe6bf720882a73432fa6d4f",
    "ds/00000_gt.pgm": "0ff2701fc21d558f52878e7779a91c10ca900143bf7d68919e2ed0d5da7a4ad9",
    "ds/00000_img.pgm": "deadcc5dd81a3f849d9a2369258742dfb64ef407b2ee3817406f3f25bcd71a63",
    "ds/00001_gt.pgm": "82e7876f7b4e44f0e05c3520326560702c6a846214ffa454da83a2883323b456",
    "ds/00001_img.pgm": "fd648303bde8c56d72e5baffd41358d205dad048c898c9993fd81c9e46b745b8",
    "ds/00002_gt.pgm": "e44adf7f60d8ef3e49bc86fe6850d5da6dd827b68b2f3549440acf1e8f29351d",
    "ds/00002_img.pgm": "5f1d90eb8028aee575e0805ba265631d36a705c390c253e6491ca813e0b55724",
    "ds/00003_cand.pgm": "1bd26792487416e86997562b9bf87bf234221c0d13112df48082cbe9cdc03016",
    "ds/00003_gt.pgm": "daa2d9052f5231aef8e57e4d2ceec443241d08a676464fdfce0cf8f20ed8a4e6",
    "ds/00003_img.pgm": "31f2abf52b711651892e89bc8e6bb7908578354eb9d21f3c66b3512761d78703",
    "ds/00004_cand0.pgm": "262246da1747f6c321dea8da99efe775414e85b036dbed152e71fbdcd1036866",
    "ds/00004_cand1.pgm": "a24816b29d639e6c22879ab1d5e5f69e98d352578ddf25cd45bedc65e72e981e",
    "ds/00004_gt.pgm": "60f23e85f35c6563ba8e9b8ac3438bfd4c75ef94650ff8f442be7968e9937f56",
    "ds/00004_img.pgm": "f1d77fbe9e4033c83a130816aa924e4bca06c55fe6dee3300616d40d0bc5cd61",
    "ds/manifest.jsonl": "afdb8062b4a00bc26d5d420ea72c02f1838cd1288c8a768333dc90d15233881e",
    "metrics.csv": "14c6ee0a63fd5267e8168fd5007ef07937bbd9dd7a982f8ebe6f999618434507",
    "refine.csv": "88ee14b3529cc63fb4ce85734f83c2085df98729017ff42305a682caf6bf7165",
}


def _builds() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"numpy {np.__version__}, BLAS {blas['name']} {blas['version']}"


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Run every file-writing subcommand once; return their output root and
    the lines each printed, by subcommand."""
    root = tmp_path_factory.mktemp("digests")
    data = root / "data"
    printed = {}

    def run(*argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main([str(a) for a in argv]) == 0, argv
        printed[argv[0]] = out.getvalue().splitlines()

    run("synth", "--out", data, "--count", "2", "--seed", "2", "--width", "32",
        "--height", "32", "--radius", "1.6", "--depth", "3")
    run("taskgen", "--out", root / "ds", "--per-kind", "1", "--width", "32",
        "--height", "32", "--seed", "1", "--verify")
    # metrics scores each scene's perturbed mask against its gt
    pairs = tmp_path_factory.mktemp("pairs")
    for sub in ("pred", "gt"):
        (pairs / sub).mkdir()
    for sid in ("00000", "00001"):
        shutil.copy(data / f"{sid}_bad0.pgm", pairs / "pred" / f"{sid}.pgm")
        shutil.copy(data / f"{sid}_gt.pgm", pairs / "gt" / f"{sid}.pgm")
    run("metrics", "--pred", pairs / "pred", "--gt", pairs / "gt",
        "--out", root / "metrics.csv")
    run("train", "--data", data, "--checkpoint", root / "ck.json", "--steps", "20")
    run("refine", "--checkpoint", root / "ck.json", "--data", data,
        "--out", root / "refine.csv")
    return root, printed


def test_topology_output_is_pinned(outputs, capsys):
    root, _ = outputs
    capsys.readouterr()
    assert main(["topology", str(root / "data" / "00000_bad0.pgm")]) == 0
    assert capsys.readouterr().out == "beta0=1 beta1=3 euler=-2\n", _builds()


def test_every_printed_line_is_pinned(outputs):
    root, printed = outputs
    assert printed == {
        "synth": [str(root / "data" / "manifest.jsonl")],
        "taskgen": [str(root / "ds" / "manifest.jsonl"),
                    'verified 5 records, 0 mismatches, per kind {"better_choice": 1, '
                    '"quality_judgement": 1, "refinement": 1, "structure_counting": 1, '
                    '"structure_judgement": 1}'],
        "metrics": [],
        "train": ["trained 20 steps on 2 triples, final loss 2.71665", str(root / "ck.json")],
        "refine": ["input:   dice=93.18 cldice=66.67 beta0_num=0.00 beta0_mat=0.00",
                   "refined: dice=8.36 cldice=6.67 beta0_num=74.50 beta0_mat=74.50"],
    }, _builds()


def test_every_output_file_is_pinned(outputs):
    root, _ = outputs
    got = {path.relative_to(root).as_posix():
           hashlib.sha256(path.read_bytes()).hexdigest()
           for path in sorted(root.rglob("*")) if path.is_file()}
    changed = sorted(name for name in got.keys() | _SHA256.keys()
                     if got.get(name) != _SHA256.get(name))
    assert not changed, f"{_builds()}: outputs differ from the pinned table: {changed}"
