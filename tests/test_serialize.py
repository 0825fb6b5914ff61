"""JSON ingestion and emission of singularity data."""

import pytest

from nahmkit.moduli import ConnectionData
from nahmkit.serialize import SpecError, data_from_dict, data_to_dict, realization_from_dict


def _t1_dict():
    return {
        "kind": "higgs",
        "rank": 2,
        "degree": -1,
        "log_points": [
            {
                "position": [0.0, 0.0],
                "entries": [
                    {"value": [0.0, 0.0], "weight": 0.0},
                    {"value": [0.3, 0.0], "weight": 0.25},
                ],
            },
            {
                "position": [1.0, 0.0],
                "entries": [
                    {"value": [0.0, 0.0], "weight": 0.0},
                    {"value": [-0.2, 0.1], "weight": 0.6},
                ],
            },
        ],
        "inf_groups": [
            {"xi": [2.0, 0.0], "entries": [{"value": [0.5, 0.0], "weight": 0.4}]},
            {"xi": [-1.0, 1.0], "entries": [{"value": [-0.35, 0.0], "weight": 0.7}]},
        ],
    }


class TestRoundtrip:
    def test_t1(self, t1):
        assert data_from_dict(_t1_dict()) == t1

    def test_to_dict_inverse(self, t1):
        assert data_from_dict(data_to_dict(t1)) == t1

    def test_connection_kind(self, t1):
        obj = data_to_dict(t1)
        obj["kind"] = "connection"
        cd = data_from_dict(obj)
        assert isinstance(cd, ConnectionData)
        assert data_from_dict(data_to_dict(cd)) == cd


class TestParseErrors:
    def test_bad_kind(self):
        obj = _t1_dict()
        obj["kind"] = "nope"
        with pytest.raises(SpecError, match=r"\$\.kind"):
            data_from_dict(obj)

    def test_non_integer_rank(self):
        obj = _t1_dict()
        obj["rank"] = 2.0
        with pytest.raises(SpecError, match=r"\$\.rank"):
            data_from_dict(obj)

    def test_bad_complex_pair(self):
        obj = _t1_dict()
        obj["log_points"][0]["position"] = [0.0]
        with pytest.raises(SpecError, match=r"log_points\[0\]\.position"):
            data_from_dict(obj)

    def test_entry_missing_weight(self):
        obj = _t1_dict()
        del obj["inf_groups"][1]["entries"][0]["weight"]
        with pytest.raises(SpecError, match=r"inf_groups\[1\]\.entries\[0\]"):
            data_from_dict(obj)

    def test_structural_violation_is_path_qualified(self):
        obj = _t1_dict()
        obj["rank"] = 3  # entry counts no longer match
        with pytest.raises(SpecError, match=r"\$:"):
            data_from_dict(obj)

    @pytest.mark.parametrize(
        "where, bad, message",
        [
            ("log_points", {"entries": []}, r"\$\.log_points\[1\]: log point needs at least one entry"),
            ("inf_groups", {"entries": []}, r"\$\.inf_groups\[0\]: infinity group needs at least one entry"),
            ("log_points", {"position": [1e999, 0.0]}, r"\$\.log_points\[1\]: non-finite puncture position"),
            ("inf_groups", {"xi": [0.0, -1e999]}, r"\$\.inf_groups\[0\]: non-finite leading eigenvalue"),
        ],
    )
    def test_invalid_component_is_a_path_qualified_spec_error(self, where, bad, message):
        obj = _t1_dict()
        obj[where][1 if where == "log_points" else 0].update(bad)
        with pytest.raises(SpecError, match=message):
            data_from_dict(obj)


class TestRealization:
    def test_default(self):
        assert realization_from_dict(None) == {"mode": "diagonal", "seed": 0}

    def test_random_mode(self):
        assert realization_from_dict({"mode": "random", "seed": 7}) == {
            "mode": "random",
            "seed": 7,
        }

    def test_bad_mode(self):
        with pytest.raises(SpecError, match="mode"):
            realization_from_dict({"mode": "exotic"})

    def test_bad_seed(self):
        with pytest.raises(SpecError, match="seed"):
            realization_from_dict({"seed": "abc"})

    def test_negative_seed(self):
        with pytest.raises(SpecError, match=r"^\$\.realization\.seed: expected a non-negative integer$"):
            realization_from_dict({"mode": "random", "seed": -1})
