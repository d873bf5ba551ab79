import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from vesseltopo.errors import FormatError
from vesseltopo.maskio import (_next_token, as_gray, as_mask, load_image, load_mask,
                               save_image, save_mask, threshold)
from vesseltopo.metrics import metric_report
from vesseltopo.synth import (VesselParams, generate_vessel, perturb_dilate_noise,
                              perturb_disconnect, perturb_holes, perturb_merge)
from vesseltopo.topology import betti_numbers, label_components, skeletonize

from tests.oracles import next_token


def _write(path, payload: bytes):
    path.write_bytes(payload)
    return path


def test_load_2x2_scales_to_unit_range(tmp_path):
    p = _write(tmp_path / "a.pgm", b"P5\n2 2\n255\n" + bytes([0, 255, 255, 0]))
    img = load_image(p)
    assert img.shape == (2, 2)
    assert np.array_equal(img, np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_load_1x1_midgray(tmp_path):
    p = _write(tmp_path / "a.pgm", b"P5\n1 1\n255\n" + bytes([128]))
    img = load_image(p)
    assert img[0, 0] == pytest.approx(128 / 255)


def test_ascii_pgm_rejected(tmp_path):
    p = _write(tmp_path / "a.pgm", b"P2\n1 1\n255\n128\n")
    with pytest.raises(FormatError):
        load_image(p)


def test_header_comments_are_skipped(tmp_path):
    p = _write(tmp_path / "a.pgm",
               b"P5\n# a comment\n2 1\n# another\n255\n" + bytes([10, 20]))
    img = load_image(p)
    assert img.shape == (1, 2)


def _header_walk(scan, buf: bytes, pos: int) -> list:
    """Every (token, end) that ``scan`` reads from ``pos`` on, then its error."""
    walk = []
    while True:
        try:
            token, pos = scan(buf, pos)
        except FormatError as exc:
            return walk + [str(exc)]
        walk.append((token, pos))


@settings(derandomize=True, max_examples=400)
@given(st.lists(st.sampled_from(b"P50123456789x# \t\n\r\x0b\x0c"), max_size=24)
       .map(bytes), st.integers(0, 25))
def test_next_token_matches_the_reference_scanner(buf, pos):
    assert _header_walk(_next_token, buf, pos) == _header_walk(next_token, buf, pos)


def test_sixteen_bit_payload(tmp_path):
    payload = (1000).to_bytes(2, "big") + (65535).to_bytes(2, "big")
    p = _write(tmp_path / "a.pgm", b"P5\n2 1\n65535\n" + payload)
    img = load_image(p)
    assert img[0, 0] == pytest.approx(1000 / 65535)
    assert img[0, 1] == 1.0


def test_truncated_payload(tmp_path):
    p = _write(tmp_path / "a.pgm", b"P5\n2 2\n255\n" + bytes([0, 255]))
    with pytest.raises(FormatError):
        load_image(p)


def test_bad_maxval(tmp_path):
    p = _write(tmp_path / "a.pgm", b"P5\n1 1\n70000\n" + bytes([0, 0, 0]))
    with pytest.raises(FormatError):
        load_image(p)


def test_malformed_header_token(tmp_path):
    p = _write(tmp_path / "a.pgm", b"P5\nnope 1\n255\n" + bytes([0]))
    with pytest.raises(FormatError):
        load_image(p)


def test_missing_file_is_oserror(tmp_path):
    with pytest.raises(OSError):
        load_image(tmp_path / "missing.pgm")


@pytest.mark.parametrize("mask", [
    np.zeros((3, 4), dtype=bool),
    np.ones((3, 4), dtype=bool),
    np.eye(5, dtype=bool),
])
def test_mask_roundtrip(tmp_path, mask):
    p = tmp_path / "m.pgm"
    save_mask(mask, p)
    assert np.array_equal(load_mask(p), mask)


def test_empty_and_full_payload_bytes(tmp_path):
    p = tmp_path / "m.pgm"
    save_mask(np.zeros((2, 2), dtype=bool), p)
    assert p.read_bytes().endswith(bytes([0, 0, 0, 0]))
    save_mask(np.ones((2, 2), dtype=bool), p)
    assert p.read_bytes().endswith(bytes([255, 255, 255, 255]))


def test_threshold_examples():
    img = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.array_equal(threshold(img, 0.5), img.astype(bool))
    assert threshold(img, 0.0).all()
    assert np.array_equal(threshold(np.array([[0.49]]), 0.5), [[False]])
    # equality is included
    assert np.array_equal(threshold(np.array([[0.5]]), 0.5), [[True]])


@settings(max_examples=50, deadline=None)
@given(hnp.arrays(bool, st.tuples(st.integers(1, 8), st.integers(1, 8))))
def test_roundtrip_property(tmp_path_factory, mask):
    p = tmp_path_factory.mktemp("pgm") / "m.pgm"
    save_mask(mask, p)
    assert np.array_equal(threshold(load_image(p), 0.5), mask)


@settings(max_examples=50, deadline=None)
@given(
    hnp.arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 6)),
               elements=st.floats(0, 1)),
    st.floats(0, 1), st.floats(0, 1),
)
def test_threshold_monotone(img, t1, t2):
    lo, hi = min(t1, t2), max(t1, t2)
    assert (threshold(img, hi) <= threshold(img, lo)).all()


def test_save_image_roundtrip_quantized(tmp_path):
    img = np.linspace(0, 1, 12).reshape(3, 4)
    p = tmp_path / "g.pgm"
    save_image(img, p)
    back = load_image(p)
    assert np.abs(back - img).max() <= 0.5 / 255 + 1e-12


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1.5, -0.25])
def test_as_gray_rejects_out_of_range_and_non_finite(tmp_path, bad):
    img = np.full((2, 3), 0.5)
    img[1, 2] = bad
    with pytest.raises(ValueError):
        as_gray(img)
    with pytest.raises(ValueError):
        save_image(img, tmp_path / "bad.pgm")
    assert not (tmp_path / "bad.pgm").exists()


def test_as_mask_shares_bool_input_and_callers_leave_it_unchanged():
    _, gt, _ = generate_vessel(VesselParams(width=64, height=64,
                                            radius_root=2.0, seed=13))
    keep = gt.copy()
    assert as_mask(gt) is gt  # no copy of a bool mask
    skeletonize(gt)
    label_components(gt, 4)
    label_components(gt, 8)
    betti_numbers(gt)
    metric_report(gt, gt)
    perturb_dilate_noise(gt, seed=3)
    for fn in (perturb_disconnect, perturb_merge, perturb_holes):
        fn(gt, 1, seed=3)
    assert np.array_equal(gt, keep)


def _pgm(tmp_path, maxval, values):
    """A one-row P5 file holding ``values``, 16-bit above maxval 255."""
    nbytes = 2 if maxval > 255 else 1
    payload = b"".join(int(v).to_bytes(nbytes, "big") for v in values)
    return _write(tmp_path / "v.pgm",
                  f"P5\n{len(values)} 1\n{maxval}\n".encode() + payload)


def _load_mask_matches_threshold(path):
    mask = load_mask(path)
    assert mask.dtype == bool
    assert np.array_equal(mask, threshold(load_image(path), 0.5))


@pytest.mark.parametrize("maxval", [1, 2, 3, 127, 128, 254, 255])
def test_load_mask_equals_threshold_at_every_8bit_value(tmp_path, maxval):
    _load_mask_matches_threshold(_pgm(tmp_path, maxval, range(maxval + 1)))


@pytest.mark.parametrize("maxval", [256, 1000, 65534, 65535])
def test_load_mask_equals_threshold_at_16bit_ends_and_midpoint(tmp_path, maxval):
    half = -(-maxval // 2)
    p = _pgm(tmp_path, maxval, [0, 1, half - 1, half, half + 1, maxval - 1, maxval])
    _load_mask_matches_threshold(p)
    assert load_mask(p).tolist() == [[False] * 3 + [True] * 4]


@pytest.mark.parametrize("maxval", [200, 1000])
def test_payload_above_maxval_raises_in_load_mask(tmp_path, maxval):
    p = _pgm(tmp_path, maxval, [0, maxval + 1, maxval])
    with pytest.raises(ValueError, match=r"intensities must lie in \[0, 1\]"):
        load_mask(p)
    with pytest.raises(ValueError, match=r"intensities must lie in \[0, 1\]"):
        threshold(load_image(p), 0.5)


_BASE = np.random.default_rng(5).random((9, 14)) < 0.4


@pytest.mark.parametrize("mask", [
    _BASE, _BASE.astype(np.uint8), _BASE.astype(np.float64),
    _BASE.T, np.rot90(_BASE), _BASE[1::2, ::3], _BASE[::-1, 2:-1].T,
    np.zeros((0, 4), dtype=bool),
    np.array([[0, 1, 2, 255]], dtype=np.uint8).view(bool),
], ids=["bool", "uint8", "float", "transposed", "rot90", "strided",
        "reversed_transposed", "no_rows", "bool_bytes_not_0_or_1"])
def test_save_mask_bytes_equal_save_image_of_float_mask(tmp_path, mask):
    save_mask(mask, tmp_path / "m.pgm")
    save_image(mask.astype(np.float64), tmp_path / "i.pgm")
    assert (tmp_path / "m.pgm").read_bytes() == (tmp_path / "i.pgm").read_bytes()
