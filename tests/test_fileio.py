import json
from dataclasses import replace

import numpy as np
import pytest

from scma_vlc import fixture_names, load_codebook_set, load_fixture, save_codebook_set
from scma_vlc.errors import ConfigError, DimensionError, DomainError
from scma_vlc.fileio import dumps_codebook_set, loads_codebook_set


class TestRoundTrip:
    @pytest.mark.parametrize("name", fixture_names())
    def test_fixture_round_trip(self, name, tmp_path):
        cb = load_fixture(name)
        path = tmp_path / f"{name}.scma"
        save_codebook_set(cb, path)
        back = load_codebook_set(path)
        assert back.params == cb.params
        assert np.array_equal(back.graph.F, cb.graph.F)
        for a, b in zip(back.books, cb.books):
            np.testing.assert_array_equal(a.C, b.C)

    def test_serialization_canonical(self, ls_j3):
        text = dumps_codebook_set(ls_j3)
        assert dumps_codebook_set(loads_codebook_set(text)) == text

    @pytest.mark.parametrize("name", fixture_names())
    def test_unit_gain_sets_round_trip_byte_identical(self, name):
        text = dumps_codebook_set(load_fixture(name))
        assert dumps_codebook_set(loads_codebook_set(text)) == text

    def test_non_unit_gains_refused(self, tmp_path):
        gains = tuple(np.array([0.5, 1.0, 2.0, 1.0]) for _ in range(4))
        cb = replace(load_fixture("ls-j4"), gains=gains)
        with pytest.raises(ConfigError):
            dumps_codebook_set(cb)
        path = tmp_path / "gains.scma"
        with pytest.raises(ConfigError):
            save_codebook_set(cb, path)
        assert not path.exists()

    def test_header_fields(self, ls_j3):
        header = json.loads(dumps_codebook_set(ls_j3).splitlines()[0])
        assert header == {
            "version": 1, "K": 4, "J": 3, "M": 4, "N": 2,
            "sigma2": 0.01, "varsigma2": 5.0, "Pe": 30.0,
            "labeling": "natural-binary",
        }


class TestErrors:
    def test_empty(self):
        with pytest.raises(ConfigError):
            loads_codebook_set("")

    def test_bad_json_header(self):
        with pytest.raises(ConfigError):
            loads_codebook_set("not json\n")

    def test_wrong_version(self, ls_j3):
        lines = dumps_codebook_set(ls_j3).splitlines()
        header = json.loads(lines[0])
        header["version"] = 99
        with pytest.raises(ConfigError):
            loads_codebook_set("\n".join([json.dumps(header)] + lines[1:]))

    def test_wrong_labeling(self, ls_j3):
        lines = dumps_codebook_set(ls_j3).splitlines()
        header = json.loads(lines[0])
        header["labeling"] = "gray"
        with pytest.raises(ConfigError):
            loads_codebook_set("\n".join([json.dumps(header)] + lines[1:]))

    def test_truncated(self, ls_j3):
        lines = dumps_codebook_set(ls_j3).splitlines()
        with pytest.raises(ConfigError):
            loads_codebook_set("\n".join(lines[:-1]))

    def test_bad_column_sum(self, ls_j3):
        lines = dumps_codebook_set(ls_j3).splitlines()
        lines[1] = "1 1 1"  # resource row with wrong support pattern
        with pytest.raises(ConfigError):
            loads_codebook_set("\n".join(lines))

    def test_non_binary_graph_entry(self, ls_j3):
        # User 1 sits on resources 2 and 4; moving both ones into a single 2
        # on resource 2 keeps every column sum at N = 2.
        lines = dumps_codebook_set(ls_j3).splitlines()
        assert (lines[2], lines[4]) == ("1 0 1", "1 0 0")
        lines[2], lines[4] = "2 0 1", "0 0 0"
        with pytest.raises(DimensionError):
            loads_codebook_set("\n".join(lines))

    def test_nan_entry(self, ls_j3):
        lines = dumps_codebook_set(ls_j3).splitlines()
        row = lines[5].split()
        row[1] = "nan"
        lines[5] = " ".join(row)
        with pytest.raises(DomainError):
            loads_codebook_set("\n".join(lines))

    def test_infinite_noise_variance(self, ls_j3):
        lines = dumps_codebook_set(ls_j3).splitlines()
        assert '"sigma2": 0.01' in lines[0]
        lines[0] = lines[0].replace('"sigma2": 0.01', '"sigma2": Infinity')
        with pytest.raises(DomainError):
            loads_codebook_set("\n".join(lines))

    def test_non_integer_graph_entry(self, ls_j3):
        lines = dumps_codebook_set(ls_j3).splitlines()
        assert lines[1] == "0 1 1"
        lines[1] = "0 1 0.5"
        with pytest.raises(ConfigError):
            loads_codebook_set("\n".join(lines))

    def test_ragged_constellation_row(self, ls_j3):
        lines = dumps_codebook_set(ls_j3).splitlines()
        lines[5] = " ".join(lines[5].split()[:2])
        with pytest.raises(ConfigError):
            loads_codebook_set("\n".join(lines))

    def test_non_numeric_entry(self, ls_j3):
        lines = dumps_codebook_set(ls_j3).splitlines()
        row = lines[5].split()
        row[1] = "abc"
        lines[5] = " ".join(row)
        with pytest.raises(ConfigError):
            loads_codebook_set("\n".join(lines))

    def test_missing_header_field(self, ls_j3):
        lines = dumps_codebook_set(ls_j3).splitlines()
        header = json.loads(lines[0])
        del header["J"]
        with pytest.raises(ConfigError):
            loads_codebook_set("\n".join([json.dumps(header)] + lines[1:]))

    @staticmethod
    def _with_header_field(cb_set, name, value):
        lines = dumps_codebook_set(cb_set).splitlines()
        header = json.loads(lines[0])
        header[name] = value
        return "\n".join([json.dumps(header)] + lines[1:])

    def test_fractional_header_integer(self, ls_j3):
        with pytest.raises(ConfigError):
            loads_codebook_set(self._with_header_field(ls_j3, "J", 3.9))

    def test_bool_header_integer(self, ls_j3):
        with pytest.raises(ConfigError):
            loads_codebook_set(self._with_header_field(ls_j3, "K", True))

    def test_non_numeric_header_integer(self, ls_j3):
        with pytest.raises(ConfigError):
            loads_codebook_set(self._with_header_field(ls_j3, "M", "abc"))

    def test_null_header_integer(self, ls_j3):
        with pytest.raises(ConfigError):
            loads_codebook_set(self._with_header_field(ls_j3, "M", None))

    def test_null_header_number(self, ls_j3):
        with pytest.raises(ConfigError):
            loads_codebook_set(self._with_header_field(ls_j3, "Pe", None))

    def test_integer_header_number_loads(self, ls_j3):
        cb = loads_codebook_set(self._with_header_field(ls_j3, "Pe", 30))
        assert cb.params.Pe == 30.0 and isinstance(cb.params.Pe, float)

    def test_header_not_an_object(self):
        with pytest.raises(ConfigError):
            loads_codebook_set("[1, 2]\n")


class TestNonCanonicalGraph:
    def test_loads_permuted_graph(self, ls_j3):
        # A file may carry any valid factor graph, not only the builtin layout.
        lines = dumps_codebook_set(ls_j3).splitlines()
        graph = [lines[1 + k].split() for k in range(4)]
        # Swap the supports of users 1 and 2 (columns 0 and 1).
        for row in graph:
            row[0], row[1] = row[1], row[0]
        lines[1:5] = [" ".join(r) for r in graph]
        back = loads_codebook_set("\n".join(lines) + "\n")
        assert tuple(back.graph.vn_neighbors[0]) == tuple(ls_j3.graph.vn_neighbors[1])
        assert tuple(back.graph.vn_neighbors[1]) == tuple(ls_j3.graph.vn_neighbors[0])
