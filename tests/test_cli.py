import csv
import json
import os
import subprocess
import sys
from dataclasses import asdict

import numpy as np
import pytest
import scipy

from scma_vlc import (
    cli, enumerate_superimposed, load_codebook_set, load_fixture, max_log_mpa, mpa_linear, red,
)
from scma_vlc.cli import main
from scma_vlc.fileio import dumps_codebook_set


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

    def test_export_writes_manifest(self, fixture_file):
        manifest = json.loads(fixture_file.with_name("ls-j3.scma.manifest.json").read_text())
        assert manifest["command"] == "fixtures"
        assert manifest["config"]["name"] == "ls-j3" and manifest["input_digests"] == {}

    def test_export_to_stdout_writes_no_file(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["fixtures", "export", "ls-j3"]) == 0
        assert capsys.readouterr().out == dumps_codebook_set(load_fixture("ls-j3"))
        assert list(tmp_path.iterdir()) == []


def test_import_leaves_scipy_unloaded():
    # scipy is needed only for the version a manifest records.
    code = "import sys, scma_vlc.cli; sys.exit('scipy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


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

    def test_summary_alone_gets_a_manifest(self, fixture_file, tmp_path):
        summary = tmp_path / "summary.json"
        assert main(["analyze", "--cb", str(fixture_file), "--summary-json", str(summary)]) == 0
        manifest = json.loads((tmp_path / "summary.json.manifest.json").read_text())
        assert manifest["command"] == "analyze"
        assert manifest["config"]["summary_json"] == str(summary)
        assert list(manifest["input_digests"]) == [str(fixture_file)]

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

    def test_failure_writes_no_artifact(self, fixture_file, tmp_path, capsys):
        # The ellipses fail at confidence 1.5: neither CSV nor a manifest is written.
        pairs, ellipses = tmp_path / "p.csv", tmp_path / "e.csv"
        assert main(["analyze", "--cb", str(fixture_file), "--confidence", "1.5",
                     "--pairs-csv", str(pairs), "--ellipses-csv", str(ellipses)]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "ls-j3.scma", "ls-j3.scma.manifest.json"]

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

    def test_mpa_variant_decodes_with_sum_product(self, tmp_path):
        # A noisy ls-j4 file: the --variant mpa rows are those of per-frame
        # mpa_linear, as repr floats, and not the Max-Log rows.
        cb_path = tmp_path / "ls-j4.scma"
        assert main(["fixtures", "export", "ls-j4", "--out", str(cb_path)]) == 0
        cb = load_codebook_set(cb_path)
        points = enumerate_superimposed(cb).points
        rng = np.random.default_rng(3)
        inp = tmp_path / "rx.csv"
        np.savetxt(inp, points[rng.integers(0, len(points), 20)]
                   + 0.3 * rng.standard_normal((20, cb.params.K)), delimiter=",")
        rows = {}
        for variant in ("mpa", "max_log"):
            out = tmp_path / f"{variant}.csv"
            assert main(["decode", "--cb", str(cb_path), "--input", str(inp),
                         "--out", str(out), "--variant", variant]) == 0
            rows[variant] = list(csv.reader(out.open()))[1:]
        Y = np.loadtxt(inp, delimiter=",")
        assert len(rows["mpa"]) == len(Y)
        for t, row in enumerate(rows["mpa"]):
            state = mpa_linear(Y[t], cb)
            want = [str(t + 1)]
            for j in range(cb.params.J):
                want.append("".join(str(int(v)) for v in state.hard_bits[j]))
                want += [repr(float(v)) for v in state.llrs[j]]
            assert row == want
        assert rows["mpa"] != rows["max_log"]

    def test_mpa_manifest_records_the_logdet_it_decodes_with(self, fixture_file, tmp_path):
        # Sum-product always uses the exact likelihood, so --logdet changes
        # neither the rows nor the configuration the manifest records.
        inp, out = tmp_path / "rx.csv", tmp_path / "mpa.csv"
        np.savetxt(inp, np.random.default_rng(5).uniform(0.0, 3.0, (10, 4)), delimiter=",")
        runs = []
        for flags in ([], ["--logdet"]):
            assert main(["decode", "--cb", str(fixture_file), "--input", str(inp),
                         "--out", str(out), "--variant", "mpa", *flags]) == 0
            manifest = json.loads((tmp_path / "mpa.csv.manifest.json").read_text())
            runs.append((out.read_bytes(), manifest["config"]))
        (rows, config), (rows_logdet, config_logdet) = runs
        assert config["logdet"] is True
        assert config == config_logdet
        assert rows == rows_logdet


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

    def test_every_cell_parses_as_a_number(self, fixture_file, tmp_path):
        out = tmp_path / "ber.csv"
        assert main(["simulate", "--cb", str(fixture_file), "--max-frames", "8192",
                     "--out", str(out)]) == 0
        header, *rows = csv.reader(out.open())
        assert len(rows) == 1 and len(rows[0]) == len(header)
        for name, cell in zip(header, rows[0]):
            (int if name in ("bits_sent", "bit_errors") else float)(cell)

    def test_needs_codebook_or_spec(self):
        with pytest.raises(SystemExit) as e:
            main(["simulate"])
        assert e.value.code == 2

    def test_codebook_and_spec_together_are_usage_error(self, fixture_file, tmp_path):
        out = tmp_path / "ber.csv"
        with pytest.raises(SystemExit) as e:
            main(["simulate", "--cb", str(fixture_file), "--design-spec",
                  str(tmp_path / "absent.json"), "--out", str(out)])
        assert e.value.code == 2
        assert not out.exists()

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
        assert manifest["environment"]["scipy"] == scipy.__version__
        assert "PCG64" in manifest["generator"]
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "ber.csv", "ber.csv.manifest.json", "ls-j3.scma", "ls-j3.scma.manifest.json"]


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

    def test_codebook_and_spec_together_are_usage_error(self, fixture_file, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text('{"J": 4}')
        out = tmp_path / "sweep.csv"
        with pytest.raises(SystemExit) as e:
            main(["sweep", "--cb", str(fixture_file), "--design-spec", str(spec),
                  "--pe-list", "4", "--out", str(out)])
        assert e.value.code == 2
        assert not out.exists()

    def test_bad_pe_list_is_usage_error(self, fixture_file, tmp_path):
        rc = main(["sweep", "--cb", str(fixture_file), "--pe-list", "6,4",
                   "--out", str(tmp_path / "s.csv")])
        assert rc == 2


class TestOutsideInput:
    """Outside input whose read raises ValueError: UTF-8 decoding, np.loadtxt, float(), json."""

    @pytest.mark.parametrize("case", ["non-utf8-codebook", "non-numeric-csv", "pe-list",
                                      "spec-not-json"])
    def test_malformed_input_is_usage_error(self, fixture_file, tmp_path, capsys, case):
        bad, out = tmp_path / "bad", tmp_path / "out.csv"
        content, argv = {
            "non-utf8-codebook": (b"\xff" + fixture_file.read_bytes(),
                                  ["analyze", "--cb", str(bad), "--summary-json", str(out)]),
            "non-numeric-csv": (b"1.0,2.0,x,1.5\n", ["decode", "--cb", str(fixture_file),
                                                     "--input", str(bad), "--out", str(out)]),
            "pe-list": (b"", ["sweep", "--cb", str(fixture_file), "--pe-list", "1,x",
                              "--out", str(out)]),
            "spec-not-json": (b'{"J": 3,', ["simulate", "--design-spec", str(bad),
                                            "--out", str(out)]),
        }[case]
        bad.write_bytes(content)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:")
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "bad", "ls-j3.scma", "ls-j3.scma.manifest.json"]


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
