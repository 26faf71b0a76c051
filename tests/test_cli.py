import csv
import json
from dataclasses import asdict

import numpy as np
import pytest

from scma_vlc import cli, enumerate_superimposed, load_codebook_set, load_fixture, max_log_mpa, red
from scma_vlc.cli import main


@pytest.fixture()
def fixture_file(tmp_path):
    path = tmp_path / "ls-j3.scma"
    assert main(["fixtures", "export", "ls-j3", "--out", str(path)]) == 0
    return path


class TestFixturesCommand:
    def test_list(self, capsys):
        assert main(["fixtures", "list"]) == 0
        out = capsys.readouterr().out.split()
        assert out == ["dr-j3", "ls-j3", "ls-j4", "ls-j5", "ls-j6"]

    def test_export_round_trips(self, fixture_file):
        cb = load_codebook_set(fixture_file)
        assert cb.params.J == 3

    def test_export_needs_name(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["fixtures", "export"])
        assert e.value.code == 2


class TestDesignCommand:
    def test_writes_codebook_and_report(self, tmp_path):
        out = tmp_path / "designed.scma"
        rc = main([
            "design", "--users", "3", "--varsigma2", "5", "--pe", "30",
            "--starts", "1", "--beta-max", "5", "--out", str(out),
        ])
        assert rc == 0
        cb = load_codebook_set(out)
        assert cb.params.J == 3 and cb.params.Pe == 30.0
        report = json.loads((tmp_path / "designed.scma.report.json").read_text())
        assert report["final_d_min"] > 0
        assert "beta_loop_nesting" in report
        manifest = json.loads((tmp_path / "designed.scma.manifest.json").read_text())
        assert manifest["command"] == "design"
        assert manifest["config"]["users"] == 3


class TestAnalyzeCommand:
    def test_summary(self, fixture_file, tmp_path, capsys):
        summary = tmp_path / "summary.json"
        rc = main(["analyze", "--cb", str(fixture_file),
                   "--summary-json", str(summary)])
        assert rc == 0
        data = json.loads(summary.read_text())
        assert data["pair_count"] == 2016
        assert 0 < data["d_min"] < data["d_max"]

    def test_ellipses_csv(self, fixture_file, tmp_path):
        out = tmp_path / "ellipses.csv"
        rc = main(["analyze", "--cb", str(fixture_file), "--ellipses-csv", str(out)])
        assert rc == 0
        rows = list(csv.reader(out.open()))
        assert rows[0] == ["user", "point", "center_1", "center_2", "a_1", "a_2"]
        assert len(rows) == 1 + 3 * 4

    def test_missing_file_is_usage_error(self, tmp_path):
        assert main(["analyze", "--cb", str(tmp_path / "absent.scma")]) == 2

    def test_pairs_csv(self, fixture_file, tmp_path):
        out = tmp_path / "pairs.csv"
        assert main(["analyze", "--cb", str(fixture_file), "--pairs-csv", str(out)]) == 0
        rows = list(csv.reader(out.open()))
        assert rows[0] == ["pair_i", "pair_j", "red"]
        cb = load_codebook_set(fixture_file)
        pts = enumerate_superimposed(cb).points
        expected = [[str(i + 1), str(j + 1), repr(red(pts[i], pts[j], cb.params.varsigma2))]
                    for i in range(len(pts)) for j in range(i + 1, len(pts))]
        assert len(expected) == 2016
        assert rows[1:] == expected

    @pytest.mark.parametrize("varsigma2", ["nan", "inf", "-1"])
    def test_bad_varsigma2_is_usage_error(self, fixture_file, capsys, varsigma2):
        assert main(["analyze", "--cb", str(fixture_file), "--varsigma2", varsigma2]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:")


class TestDecodeCommand:
    @pytest.mark.parametrize("iters", ["-3", "-1"])
    def test_counts_reject_negative_iters(self, fixture_file, capsys, iters):
        rc = main(["decode", "--cb", str(fixture_file), "--counts", "--iters", iters])
        assert rc == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and "n_iters" in captured.err

    def test_counts_only(self, fixture_file, capsys):
        rc = main(["decode", "--cb", str(fixture_file), "--counts", "--iters", "6"])
        assert rc == 0
        counts = json.loads(capsys.readouterr().out.splitlines()[0])
        assert counts["comparison"] > 0 and counts["exponential"] == 0
        # ls-j3 has resource degrees (2, 2, 1, 1); the printed counts are
        # the decoder's own, not those of a regular degree-2 graph.
        state = max_log_mpa(np.ones(4), load_fixture("ls-j3"), n_iters=6, count_ops=True)
        assert counts == asdict(state.op_counts)
        assert (counts["comparison"], counts["multiplication"], counts["addition"]) == (
            432, 1728, 5568)
        # Sum-product: one exponential per combination and edge, 4^2*2*2 + 4*1*2
        # per iteration.
        main(["decode", "--cb", str(fixture_file), "--counts", "--iters", "6",
              "--variant", "mpa"])
        counts = json.loads(capsys.readouterr().out.splitlines()[0])
        assert (counts["exponential"], counts["comparison"]) == (6 * 72, 0)

    def test_decodes_noise_free_vectors(self, fixture_file, tmp_path):
        cb = load_fixture("ls-j3")
        c = enumerate_superimposed(cb)
        inp = tmp_path / "rx.csv"
        np.savetxt(inp, c.points[:8], delimiter=",")
        out = tmp_path / "decoded.csv"
        rc = main(["decode", "--cb", str(fixture_file), "--input", str(inp),
                   "--out", str(out)])
        assert rc == 0
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 8
        for t, row in enumerate(rows):
            bits = "".join(row[f"bits_user_{j}"] for j in (1, 2, 3))
            assert bits == "".join(str(b) for b in c.bit_labels[t])

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_input_is_usage_error(self, fixture_file, tmp_path, capsys, bad):
        inp = tmp_path / "rx.csv"
        inp.write_text(f"1.0,2.0,0.5,1.5\n1.0,{bad},0.5,1.5\n")
        out = tmp_path / "decoded.csv"
        rc = main(["decode", "--cb", str(fixture_file), "--input", str(inp),
                   "--out", str(out)])
        assert rc == 2
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    def test_huge_input_is_usage_error(self, fixture_file, tmp_path, capsys):
        inp = tmp_path / "rx.csv"
        inp.write_text("1.0,2.0,0.5,1.5\n1e200,1.0,1.0,1.0\n")
        out = tmp_path / "decoded.csv"
        rc = main(["decode", "--cb", str(fixture_file), "--input", str(inp),
                   "--out", str(out)])
        assert rc == 2
        assert "magnitude" in capsys.readouterr().err
        assert not out.exists()

    def test_needs_input_or_counts(self, fixture_file):
        with pytest.raises(SystemExit) as e:
            main(["decode", "--cb", str(fixture_file)])
        assert e.value.code == 2


class TestSimulateCommand:
    def test_writes_csv_and_manifest(self, fixture_file, tmp_path):
        out = tmp_path / "ber.csv"
        rc = main(["simulate", "--cb", str(fixture_file), "--min-errors", "20",
                   "--max-frames", "20000", "--out", str(out)])
        assert rc == 0
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 1
        assert float(rows[0]["ber_sim"]) >= 0
        manifest = json.loads((tmp_path / "ber.csv.manifest.json").read_text())
        assert str(fixture_file) in manifest["input_digests"]

    def test_needs_codebook_or_spec(self):
        with pytest.raises(SystemExit) as e:
            main(["simulate"])
        assert e.value.code == 2

    @pytest.mark.parametrize("spec", [
        '{"Pe": 5}',       # no J
        '{"J": 3.9}',      # fractional integer
        '{"J": true}',     # a bool is not an integer
        '{"J": 3, "Pe": "high"}',
        '{"J": 3, "starts": null}',
        '{"J": 3, "beta_max": 0}',  # an empty beta schedule
        '[3, 4]',          # not an object
    ])
    def test_bad_design_spec_is_usage_error(self, tmp_path, capsys, spec):
        path = tmp_path / "spec.json"
        path.write_text(spec)
        rc = main(["simulate", "--design-spec", str(path), "--out", str(tmp_path / "b.csv")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "b.csv").exists()

    def test_zero_max_frames_is_config_error(self, fixture_file, tmp_path, capsys):
        out = tmp_path / "ber.csv"
        rc = main(["simulate", "--cb", str(fixture_file), "--max-frames", "0",
                   "--out", str(out)])
        assert rc == cli.EXIT_USAGE
        assert "max_frames" in capsys.readouterr().err
        assert not out.exists()

    def test_manifest_records_wall_time_and_environment(self, fixture_file, tmp_path):
        out = tmp_path / "ber.csv"
        assert main(["simulate", "--cb", str(fixture_file), "--max-frames", "100",
                     "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "ber.csv.manifest.json").read_text())
        assert manifest["wall_time_s"] >= 0
        assert set(manifest["environment"]) == {"python", "numpy", "scipy", "cpu_count"}
        assert manifest["environment"]["numpy"] == np.__version__
        assert "PCG64" in manifest["generator"]
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "ber.csv", "ber.csv.manifest.json", "ls-j3.scma"]


class TestSweepCommand:
    def test_scale_sweep(self, fixture_file, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--cb", str(fixture_file), "--pe-list", "4,6",
                   "--min-errors", "20", "--max-frames", "20000",
                   "--out", str(out)])
        assert rc == 0
        rows = list(csv.DictReader(out.open()))
        assert [float(r["pe"]) for r in rows] == [4.0, 6.0]
        manifest = json.loads((tmp_path / "sweep.csv.manifest.json").read_text())
        assert "PCG64" in manifest["generator"]
        assert not (tmp_path / "sweep.csv.meta.json").exists()

    def test_bad_pe_list_is_usage_error(self, fixture_file, tmp_path):
        rc = main(["sweep", "--cb", str(fixture_file), "--pe-list", "6,4",
                   "--out", str(tmp_path / "s.csv")])
        assert rc == 2


class TestDeterminism:
    def test_simulate_reproducible(self, fixture_file, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            main(["simulate", "--cb", str(fixture_file), "--min-errors", "20",
                  "--max-frames", "20000", "--seed", "5", "--out", str(out)])
            outs.append(out.read_text())
        assert outs[0] == outs[1]


class TestFlagDefaults:
    def test_read_from_library(self, monkeypatch):
        # Library functions with other defaults: the parser follows them.
        monkeypatch.setattr(cli, "epd_ellipses", lambda book, sigma2, varsigma2, confidence=0.5: [])
        monkeypatch.setattr(cli, "simulate_ber", lambda cb_set, seed=7: None)
        monkeypatch.setattr(cli, "sweep", lambda pe_list, mode="redesign", seed=8: [])
        ap = cli.build_parser()
        assert ap.parse_args(["analyze", "--cb", "x"]).confidence == 0.5
        assert ap.parse_args(["simulate"]).seed == 7
        args = ap.parse_args(["sweep", "--pe-list", "1"])
        assert (args.mode, args.seed) == ("redesign", 8)
