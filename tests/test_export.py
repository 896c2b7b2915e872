"""Tests for the JSON experiment export."""

import json

import pytest

from repro.experiments import export_all, table_to_dict
from repro.experiments.tables import table2


class TestTableToDict:
    @pytest.fixture(scope="class")
    def document(self):
        return table_to_dict(2, table2(1000))

    def test_structure(self, document):
        assert document["table"] == 2
        assert len(document["rows"]) == 9
        row = document["rows"][0]
        assert {"benchmark", "length", "in_sequence", "binary_transitions"} <= set(row)
        assert "t0" in row and "savings" in row["t0"]

    def test_paper_averages_included(self, document):
        assert document["paper_averages"]["t0"] == pytest.approx(0.3552)

    def test_averages_match_rows(self, document):
        mean = sum(r["t0"]["savings"] for r in document["rows"]) / 9
        assert document["averages"]["t0"] == pytest.approx(mean)


class TestExportAll:
    @pytest.fixture(scope="class")
    def document(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("export") / "results.json"
        doc = export_all(
            path,
            stream_length=800,
            power_stream_length=250,
            include_sweeps=False,
        )
        return path, doc

    def test_written_file_is_valid_json(self, document):
        path, doc = document
        loaded = json.loads(path.read_text())
        assert loaded["schema_version"] == doc["schema_version"]
        assert set(loaded["tables"]) == {str(i) for i in range(2, 10)}

    def test_power_tables_present(self, document):
        _, doc = document
        table9 = doc["tables"]["9"]
        assert all("best" in row for row in table9["rows"])
        assert all(row["load_pf"] >= 20 for row in table9["rows"])

    def test_sweeps_optional(self, document):
        _, doc = document
        assert "ablations" not in doc

    def test_sweeps_included_when_requested(self):
        doc = export_all(
            stream_length=600,
            include_power=False,
            include_sweeps=True,
        )
        assert "8" not in doc["tables"]
        assert "stride" in doc["ablations"]
        assert len(doc["ablations"]["sequentiality"]) >= 3


def test_negative_stream_length_is_an_error(tmp_path):
    path = tmp_path / "results.json"
    with pytest.raises(ValueError, match="non-negative"):
        export_all(path, stream_length=-1, include_power=False, include_sweeps=False)
    assert not path.exists()
