"""Tests for TManConfig validation and the metadata table."""

import dataclasses

import pytest

from repro.kvstore import Cluster
from repro.model import MBR
from repro.storage.config import TManConfig
from repro.storage.meta import MetadataTable

BOUNDARY = MBR(0, 0, 10, 10)


class TestConfig:
    def test_defaults_match_paper_schema(self):
        cfg = TManConfig(boundary=BOUNDARY)
        assert cfg.primary_index == "tshape"
        assert set(cfg.secondary_indexes) == {"tr", "idt"}
        assert cfg.alpha == 3 and cfg.beta == 3

    def test_rejects_unknown_primary(self):
        with pytest.raises(ValueError):
            TManConfig(boundary=BOUNDARY, primary_index="rtree")

    def test_rejects_primary_in_secondaries(self):
        with pytest.raises(ValueError):
            TManConfig(
                boundary=BOUNDARY, primary_index="tr", secondary_indexes=("tr",)
            )

    def test_rejects_unknown_secondary(self):
        with pytest.raises(ValueError):
            TManConfig(boundary=BOUNDARY, secondary_indexes=("btree",))

    def test_rejects_unknown_encoding(self):
        with pytest.raises(ValueError):
            TManConfig(boundary=BOUNDARY, shape_encoding="huffman")

    def test_codec_is_no_option(self):
        """Every row is packed with the bit packer: ``codec`` is readable, but
        no field, so no deployment can ask for another packer."""
        assert TManConfig.codec == TManConfig(boundary=BOUNDARY).codec == "bitpack"
        assert "codec" not in {f.name for f in dataclasses.fields(TManConfig)}
        for name in ("pfor", "varint", "simple8b", "bitpack"):
            with pytest.raises(TypeError, match="codec"):
                TManConfig(boundary=BOUNDARY, codec=name)

    def test_index_width(self):
        assert TManConfig(boundary=BOUNDARY).primary_index_width == 8
        st_cfg = TManConfig(
            boundary=BOUNDARY, primary_index="st", secondary_indexes=()
        )
        assert st_cfg.primary_index_width == 16

    def test_available_indexes(self):
        cfg = TManConfig(boundary=BOUNDARY)
        assert set(cfg.available_indexes()) == {"tshape", "tr", "idt"}


class TestMetadataTable:
    def test_put_get_roundtrip(self):
        meta = MetadataTable(Cluster(workers=1))
        meta.put("k", {"alpha": 3, "nested": {"x": [1, 2]}})
        assert meta.get("k") == {"alpha": 3, "nested": {"x": [1, 2]}}

    def test_missing_is_none(self):
        assert MetadataTable(Cluster(workers=1)).get("nope") is None

    def test_config_record(self):
        meta = MetadataTable(Cluster(workers=1))
        meta.record_config({"alpha": 5, "beta": 5})
        assert meta.load_config() == {"alpha": 5, "beta": 5}

    def test_overwrite(self):
        meta = MetadataTable(Cluster(workers=1))
        meta.put("k", {"v": 1})
        meta.put("k", {"v": 2})
        assert meta.get("k") == {"v": 2}
