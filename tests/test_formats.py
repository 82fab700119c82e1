import json
import struct

import numpy as np
import pytest

from cfmseg import formats
from cfmseg.core import FeatureMap, LabelMap, proposal_from_mask
from cfmseg.formats import FormatError
from conftest import random_map, random_mask, rect_mask


class TestTensorFormat:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        for _ in range(20):
            c, h, w = rng.integers(1, 6, size=3)
            fm = random_map(rng, int(c), int(h), int(w))
            path = tmp_path / "t.cfmt"
            formats.save_feature_map(path, fm)
            back = formats.load_feature_map(path)
            assert back.values.tobytes() == fm.values.tobytes()

    def test_zero_channel_header_rejected(self, tmp_path):
        path = tmp_path / "bad.cfmt"
        path.write_bytes(b"CFMT" + (0).to_bytes(4, "little") * 3)
        with pytest.raises(FormatError, match="zero channels"):
            formats.load_feature_map(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.cfmt"
        path.write_bytes(b"XXXX" + bytes(12))
        with pytest.raises(FormatError, match="magic"):
            formats.load_feature_map(path)

    def test_truncated_payload_rejected(self, tmp_path):
        fm = FeatureMap(np.ones((1, 2, 2), dtype=np.float32))
        path = tmp_path / "t.cfmt"
        formats.save_feature_map(path, fm)
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(FormatError, match="payload"):
            formats.load_feature_map(path)

    def test_overflowing_dims_rejected(self, tmp_path):
        path = tmp_path / "big.cfmt"
        import struct

        path.write_bytes(b"CFMT" + struct.pack("<III", 1, 1, 1 << 25))
        with pytest.raises(FormatError, match="overflow"):
            formats.load_feature_map(path)

    def test_non_finite_payload_rejected(self, tmp_path):
        import struct

        payload = struct.pack("<f", float("nan"))
        path = tmp_path / "nan.cfmt"
        path.write_bytes(b"CFMT" + struct.pack("<III", 1, 1, 1) + payload)
        with pytest.raises(FormatError):
            formats.load_feature_map(path)


class TestMaskFormat:
    def test_round_trip(self, tmp_path, rng):
        for _ in range(20):
            h, w = rng.integers(1, 12, size=2)
            m = random_mask(rng, int(h), int(w))
            path = tmp_path / "m.pgm"
            formats.save_mask(path, m)
            back = formats.load_mask(path)
            assert np.array_equal(back.bits, m.bits)

    def test_mid_gray_rejected(self, tmp_path):
        path = tmp_path / "gray.pgm"
        path.write_bytes(b"P5\n2 1\n255\n" + bytes([0, 128]))
        with pytest.raises(FormatError, match="128"):
            formats.load_mask(path)

    def test_wrong_maxval_rejected(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\n1 1\n15\n" + bytes([0]))
        with pytest.raises(FormatError, match="maxval"):
            formats.load_mask(path)

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + bytes(7))
        with pytest.raises(FormatError, match="payload"):
            formats.load_mask(path)

    @pytest.mark.parametrize("header", [
        b"P5\n1_0 1\n255\n", b"P5\n+10 1\n255\n",
        b"P5\n10 1_0\n255\n", b"P5\n10 +1\n255\n",
        b"P5\n10 1\n2_55\n", b"P5\n10 1\n+255\n",
    ], ids=["width-underscore", "width-plus", "height-underscore", "height-plus",
            "maxval-underscore", "maxval-plus"])
    def test_header_numbers_are_decimal_digits(self, tmp_path, header):
        # Python's int() takes both forms ("1_0" is 10), a netpbm reader neither
        path = tmp_path / "m.pgm"
        path.write_bytes(header + bytes(10 * 10))
        with pytest.raises(FormatError, match="malformed P5 header"):
            formats.load_mask(path)

    def test_comments_in_header_accepted(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\n# made by hand\n2 1\n255\n" + bytes([255, 0]))
        back = formats.load_mask(path)
        assert back.bits.tolist() == [[True, False]]


class TestLabelMapFormat:
    def test_round_trip(self, tmp_path, rng):
        for _ in range(20):
            h, w = (int(v) for v in rng.integers(1, 10, size=2))
            lm = LabelMap(rng.integers(0, 7, size=(h, w), dtype=np.uint16))
            path = tmp_path / "l.cfml"
            formats.save_label_map(path, lm)
            back = formats.load_label_map(path)
            assert np.array_equal(back.labels, lm.labels)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "l.cfml"
        path.write_bytes(b"NOPE" + bytes(8))
        with pytest.raises(FormatError, match="magic"):
            formats.load_label_map(path)

    def test_truncated(self, tmp_path):
        lm = LabelMap(np.zeros((2, 2), dtype=np.uint16))
        path = tmp_path / "l.cfml"
        formats.save_label_map(path, lm)
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(FormatError, match="payload"):
            formats.load_label_map(path)


class TestHeaderSizes:
    """The three binary loaders share one header check, which names the bad dimension."""

    @pytest.mark.parametrize("loader, data, message", [
        ("load_feature_map", b"CFMT" + struct.pack("<III", 1, 0, 2), "zero height dimension"),
        ("load_mask", b"P5\n0 4\n255\n", "zero width dimension"),
        ("load_mask", b"P5\n4 -2\n255\n", "negative height dimension"),
        ("load_mask", b"P5\n4 %d\n255\n" % (1 << 25), "height dimension 33554432 overflows"),
        ("load_label_map", b"CFML" + struct.pack("<II", 3, 0), "zero height dimension"),
        ("load_label_map", b"CFML" + struct.pack("<II", 1 << 25, 1), "width dimension 33554432 overflows"),
        ("load_label_map", b"CFML" + struct.pack("<II", 2, 2) + bytes(6), "payload is 6 bytes, expected 8"),
    ], ids=["tensor-zero", "mask-zero", "mask-negative", "mask-over-cap", "labels-zero",
            "labels-over-cap", "labels-payload"])
    def test_bad_dimension_named(self, tmp_path, loader, data, message):
        path = tmp_path / "bad.bin"
        path.write_bytes(data)
        with pytest.raises(FormatError, match=message):
            getattr(formats, loader)(path)


class TestProposalIndex:
    def test_round_trip(self, tmp_path, rng):
        proposals = []
        for i in range(5):
            m = random_mask(rng, 10, 12, density=0.4)
            if not m.bits.any():
                continue
            proposals.append(proposal_from_mask(f"prop-{i}", m))
        index = tmp_path / "proposals.json"
        formats.save_proposal_index(index, proposals)
        back = formats.load_proposal_index(index)
        assert [p.id for p in back] == [p.id for p in proposals]
        for a, b in zip(back, proposals):
            assert a.box == b.box
            assert np.array_equal(a.mask.bits, b.mask.bits)

    def test_loose_box_rejected(self, tmp_path):
        m = rect_mask(6, 6, 2, 3, 2, 3)
        formats.save_proposal_index(tmp_path / "p.json", [proposal_from_mask("a", m)])
        entries = json.loads((tmp_path / "p.json").read_text())
        assert entries[0]["box"] == [2, 2, 3, 3]
        entries[0]["box"] = [0, 0, 5, 5]
        (tmp_path / "p.json").write_text(json.dumps(entries))
        with pytest.raises(FormatError):
            formats.load_proposal_index(tmp_path / "p.json")

    @pytest.mark.parametrize("box", [[2.5, 2, 3, 3], ["2", 2, 3, 3], [2, 2, 3], None])
    def test_box_must_equal_derived_box(self, tmp_path, box):
        m = rect_mask(6, 6, 2, 3, 2, 3)
        formats.save_proposal_index(tmp_path / "p.json", [proposal_from_mask("a", m)])
        entries = json.loads((tmp_path / "p.json").read_text())
        entries[0]["box"] = box
        (tmp_path / "p.json").write_text(json.dumps(entries))
        with pytest.raises(FormatError, match="entry 0"):
            formats.load_proposal_index(tmp_path / "p.json")

    def test_missing_index_is_file_not_found(self, tmp_path):
        # the same error as every other loader gives for a missing file
        with pytest.raises(FileNotFoundError):
            formats.load_proposal_index(tmp_path / "absent.json")
        with pytest.raises(FileNotFoundError):
            formats.load_mask(tmp_path / "absent.pgm")

    def test_undecodable_index_rejected(self, tmp_path):
        (tmp_path / "p.json").write_text('[{"id": "a", "mask"')
        with pytest.raises(FormatError):
            formats.load_proposal_index(tmp_path / "p.json")

    def test_non_array_rejected(self, tmp_path):
        (tmp_path / "p.json").write_text("{}")
        with pytest.raises(FormatError, match="array"):
            formats.load_proposal_index(tmp_path / "p.json")

    @pytest.mark.parametrize("where", ["parent", "absolute"])
    def test_mask_path_outside_directory_rejected(self, tmp_path, where):
        # a valid mask outside the index directory, so only containment rejects it
        outside = tmp_path / "outside" / "secret.pgm"
        outside.parent.mkdir()
        formats.save_mask(outside, rect_mask(4, 4, 0, 1, 0, 1))
        rel = "../outside/secret.pgm" if where == "parent" else str(outside)
        index = tmp_path / "index" / "proposals.json"
        index.parent.mkdir()
        index.write_text(json.dumps([{"id": "p", "mask": rel, "box": [0, 0, 1, 1]}]))
        with pytest.raises(FormatError, match="leaves its directory"):
            formats.load_proposal_index(index)

    @pytest.mark.parametrize("rel", ["", ".", "masks/..", 7])
    def test_mask_path_naming_no_file_rejected(self, tmp_path, rel):
        (tmp_path / "p.json").write_text(
            json.dumps([{"id": "p", "mask": rel, "box": [0, 0, 1, 1]}])
        )
        with pytest.raises(FormatError, match="names no file"):
            formats.load_proposal_index(tmp_path / "p.json")

    def test_non_string_id_rejected(self, tmp_path):
        formats.save_mask(tmp_path / "m.pgm", rect_mask(4, 4, 0, 1, 0, 1))
        entry = {"id": 1, "mask": "m.pgm", "box": [0, 0, 1, 1]}
        (tmp_path / "p.json").write_text(json.dumps([entry]))
        with pytest.raises(FormatError, match="JSON string"):
            formats.load_proposal_index(tmp_path / "p.json")

    def test_mask_path_inside_subdirectory_allowed(self, tmp_path):
        (tmp_path / "masks").mkdir()
        formats.save_mask(tmp_path / "masks" / "m.pgm", rect_mask(4, 4, 0, 1, 0, 1))
        entry = {"id": "p", "mask": "masks/../masks/m.pgm", "box": [0, 0, 1, 1]}
        (tmp_path / "p.json").write_text(json.dumps([entry]))
        assert formats.load_proposal_index(tmp_path / "p.json")[0].id == "p"
