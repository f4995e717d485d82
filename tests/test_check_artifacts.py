"""Tests for crash-safe artifact IO (repro.check.artifacts) and its
adoption by the exporters."""

import csv
import io
import json
import os

import pytest

from repro.analysis.export import (
    export_evaluation_csv,
    export_metrics_csv,
    export_metrics_json,
    export_metrics_prometheus,
)
from repro.check.artifacts import (
    atomic_write_bytes,
    atomic_write_json,
    atomic_write_text,
)
from repro.obs.registry import MetricsRegistry


def _no_tmp_leftovers(directory):
    return [n for n in os.listdir(directory) if n.endswith(".tmp")] == []


class TestAtomicWrite:
    def test_bytes_roundtrip_and_no_staging_leftovers(self, tmp_path):
        path = str(tmp_path / "artifact.bin")
        atomic_write_bytes(path, b"\x00\x01payload")
        assert open(path, "rb").read() == b"\x00\x01payload"
        assert _no_tmp_leftovers(tmp_path)

    def test_overwrite_replaces_whole_file(self, tmp_path):
        path = str(tmp_path / "artifact.txt")
        atomic_write_text(path, "a much longer first version\n")
        atomic_write_text(path, "short\n")
        assert open(path).read() == "short\n"
        assert _no_tmp_leftovers(tmp_path)

    def test_text_is_byte_exact(self, tmp_path):
        # CSV writers emit \r\n; atomic_write_text must not translate it.
        path = str(tmp_path / "rows.csv")
        atomic_write_text(path, "a,b\r\n1,2\r\n")
        assert open(path, "rb").read() == b"a,b\r\n1,2\r\n"

    def test_json_parses_back(self, tmp_path):
        path = str(tmp_path / "artifact.json")
        atomic_write_json(path, {"x": [1, 2], "y": "z"})
        assert json.load(open(path)) == {"x": [1, 2], "y": "z"}
        assert open(path).read().endswith("\n")

    def test_failed_write_leaves_no_staging_file(self, tmp_path):
        path = str(tmp_path / "artifact.json")
        with pytest.raises(TypeError):
            atomic_write_json(path, {"bad": object()})
        assert not os.path.exists(path)
        assert _no_tmp_leftovers(tmp_path)


class TestExportersAreAtomic:
    def _registry(self):
        registry = MetricsRegistry()
        registry.register("repro_test_gauge", 1.25, kind="gauge", help="x")
        return registry

    def test_metrics_json_path_output_parses(self, tmp_path):
        path = str(tmp_path / "metrics.json")
        export_metrics_json(self._registry(), path)
        assert json.load(open(path))["metrics"]
        assert _no_tmp_leftovers(tmp_path)

    def test_metrics_csv_path_matches_file_object_output(self, tmp_path):
        path = str(tmp_path / "metrics.csv")
        export_metrics_csv(self._registry(), path)
        buffer = io.StringIO()
        export_metrics_csv(self._registry(), buffer)
        assert open(path, newline="").read() == buffer.getvalue()
        rows = list(csv.reader(open(path, newline="")))
        assert rows[0][0] == "name"

    def test_metrics_prometheus_path_output(self, tmp_path):
        path = str(tmp_path / "metrics.prom")
        export_metrics_prometheus(self._registry(), path)
        assert "repro_test_gauge" in open(path).read()
        assert _no_tmp_leftovers(tmp_path)

