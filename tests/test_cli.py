"""End-to-end CLI behavior: flags, CSV schemas, logs, recipes, manifests."""

import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from revcirc.cli import main, run_recipe
from revcirc.core import parse_circuits
from revcirc.fitness import OutputMap, TargetTable, hamming_fitness_scalar, six_multiplexor_target
from revcirc.theory import parity_shifted_limit


ROOT = Path(__file__).resolve().parents[1]


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def test_console_script_is_installed():
    """Run the declared ``revcirc`` entry point the way an installed console
    script does (``sys.exit(main())``), from the source tree in a fresh
    interpreter, so no install step is needed."""
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        entry = tomllib.load(fh)["project"]["scripts"]["revcirc"]
    module, attr = entry.split(":")
    wrapper = (
        "import sys\n"
        f"from {module} import {attr}\n"
        "sys.argv[0] = 'revcirc'\n"
        f"sys.exit({attr}())\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    out = subprocess.run(
        [sys.executable, "-c", wrapper, "--help"],
        capture_output=True, text=True, check=True, env=env,
    )
    assert "sample" in out.stdout and "recipe" in out.stdout


def test_sample_csv_schema(tmp_path):
    out = tmp_path / "hist.csv"
    rc = main([
        "sample", "--wires", "6", "--lengths", "2,5", "--samples", "20000",
        "--seed", "3", "--workers", "1", "--out", str(out),
    ])
    assert rc == 0
    rows = read_csv(out)
    assert rows[0] == ["length", "fitness", "count"]
    by_length = {}
    for length, fitness, count in rows[1:]:
        assert int(fitness) % 2 == 0  # no spare wires: even fitness only
        by_length[length] = by_length.get(length, 0) + int(count)
    assert by_length == {"2": 20000, "5": 20000}


def test_sample_is_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["sample", "--wires", "7", "--lengths", "4", "--samples", "15000",
            "--seed", "9", "--workers", "1"]
    main(args + ["--out", str(a)])
    main(args + ["--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_seed_env_fallback(tmp_path, monkeypatch):
    a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    args = ["sample", "--wires", "6", "--lengths", "3", "--samples", "8000",
            "--workers", "1"]
    monkeypatch.setenv("REVCIRC_SEED", "21")
    main(args + ["--out", str(a)])
    main(args + ["--out", str(b)])
    monkeypatch.setenv("REVCIRC_SEED", "22")
    main(args + ["--out", str(c)])
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()
    monkeypatch.setenv("REVCIRC_SEED", "not-a-number")
    assert main(args + ["--out", str(a)]) == 1


def test_converge_csv_schema(tmp_path):
    out = tmp_path / "series.csv"
    rc = main([
        "converge", "--wires", "7", "--lengths", "5,50", "--samples", "30000",
        "--seed", "4", "--workers", "1", "--out", str(out),
    ])
    assert rc == 0
    rows = read_csv(out)
    assert rows[0] == ["length", "mean", "sd", "tvd", "solutions", "total"]
    assert [r[0] for r in rows[1:]] == ["5", "50"]
    # TVD to the binomial limit shrinks with length.
    assert float(rows[2][3]) < float(rows[1][3])


def test_density_csv_schema(tmp_path):
    out = tmp_path / "density.csv"
    rc = main([
        "density", "--wires", "6", "--lengths", "1,5", "--samples", "20000",
        "--seed", "5", "--workers", "1", "--out", str(out),
    ])
    assert rc == 0
    rows = read_csv(out)
    assert rows[0] == ["length", "count", "rate", "ci_lo", "ci_hi"]
    for _, count, rate, lo, hi in rows[1:]:
        assert float(lo) <= float(rate) <= float(hi)
        assert int(count) == 0  # no 6-multiplexor solutions this short


def test_minscan_cli(tmp_path):
    out = tmp_path / "scan.csv"
    rc = main([
        "minscan", "--wires", "6", "--lengths", "2", "--out", str(out),
    ])
    assert rc == 0
    rows = read_csv(out)
    assert rows[0] == ["length", "count"]
    assert rows[1:] == [["1", "0"], ["2", "0"]]


def test_minscan_guard_is_a_cli_error(tmp_path):
    rc = main(["minscan", "--wires", "6", "--lengths", "6"])
    assert rc == 1


def test_hillclimb_artifacts(tmp_path):
    out_dir = tmp_path / "hc"
    rc = main([
        "hillclimb", "--wires", "6", "--gates", "5", "--runs", "3",
        "--seed", "7", "--budget", "400", "--out", str(out_dir),
        "--compare-random", "--samples", "20000", "--workers", "1",
    ])
    assert rc == 0
    lines = [json.loads(l) for l in (out_dir / "runs.jsonl").read_text().splitlines()]
    assert {l["run"] for l in lines} == {0, 1, 2}
    finals = [l for l in lines if "solved" in l]
    assert len(finals) == 3
    for line in finals:
        assert line["evaluations"] <= 400
        assert 0 <= line["best"] <= 64
    assert (out_dir / "solutions.txt").exists()
    comparison = read_csv(out_dir / "random_comparison.csv")
    assert comparison[0] == [
        "fitness", "hc_runs_reaching", "hc_median_evaluations",
        "random_expected_evaluations",
    ]
    assert len(comparison) > 1


def test_ga_artifacts_and_verified_solutions(tmp_path):
    out_dir = tmp_path / "ga"
    rc = main([
        "ga", "--wires", "12", "--gates", "20", "--runs", "1", "--seed", "400",
        "--pop", "500", "--tournament", "7", "--gens", "300",
        "--output-wire", "best", "--out", str(out_dir),
    ])
    assert rc == 0
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["runs"] == 1
    lines = [json.loads(l) for l in (out_dir / "runs.jsonl").read_text().splitlines()]
    assert set(lines[0]) == {"run", "generation", "best", "mean", "solved"}
    assert lines[0]["run"] == 0 and lines[0]["generation"] == 0
    if summary["solved"]:
        assert summary["effort"] > 0
        circuits = parse_circuits((out_dir / "solutions.txt").read_text())
        assert circuits, "solved runs must write their circuits"
        target = six_multiplexor_target()
        header = next(
            l for l in (out_dir / "solutions.txt").read_text().splitlines()
            if l.startswith("#")
        )
        wire = int(header.split("output_wire=")[1].split()[0])
        assert hamming_fitness_scalar(circuits[0], target, OutputMap((wire,))).solved


def test_ga_log_to_stdout(capsys):
    rc = main([
        "ga", "--wires", "6", "--gates", "5", "--runs", "1", "--seed", "1",
        "--pop", "20", "--tournament", "3", "--gens", "2",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    lines = [json.loads(l) for l in out.splitlines() if l.strip()]
    assert all({"run", "generation", "best", "mean", "solved"} <= set(l) for l in lines)


def test_target_round_trip(capsys):
    assert main(["target"]) == 0
    text = capsys.readouterr().out
    assert TargetTable.from_text(text) == six_multiplexor_target()


def test_limit_csv(tmp_path):
    out = tmp_path / "limit.csv"
    assert main(["limit", "--kind", "parity-shifted", "--out", str(out)]) == 0
    rows = read_csv(out)
    assert rows[0] == ["fitness", "probability"]
    probs = [float(p) for _, p in rows[1:]]
    assert len(probs) == 65
    assert sum(probs) == pytest.approx(1.0, abs=1e-9)
    model = parity_shifted_limit()
    assert probs[32] == pytest.approx(model.pmf[32])
    out2 = tmp_path / "rms.csv"
    assert main(["limit", "--kind", "rms", "--m", "6", "--regime", "small-T",
                 "--out", str(out2)]) == 0
    rows = read_csv(out2)
    assert rows[0] == ["mean", "sd"]
    assert float(rows[1][0]) == 32.0


def test_recipe_manifest_round_trip(tmp_path):
    first = run_recipe("fig7", scale="ci", seed=17, out_dir=tmp_path / "one",
                       samples=20_000)
    manifest_path = tmp_path / "one" / "manifest.json"
    assert manifest_path.exists()
    stored = json.loads(manifest_path.read_text())
    assert stored["recipe"] == "fig7" and stored["seed"] == 17
    assert stored["artifacts"] == first["artifacts"]
    again = run_recipe(
        "fig7", scale=stored["scale"], seed=stored["seed"],
        out_dir=tmp_path / "two", samples=stored["samples_per_length"],
    )
    for name in stored["artifacts"]:
        a = (tmp_path / "one" / name).read_bytes()
        b = (tmp_path / "two" / name).read_bytes()
        assert a == b, f"{name} differs between identically seeded runs"


def test_recipe_fig7_schema(tmp_path):
    run_recipe("fig7", seed=1, out_dir=tmp_path, samples=5_000)
    rows = read_csv(tmp_path / "fig7_tvd.csv")
    assert rows[0] == ["wires", "length", "tvd"]
    assert {r[0] for r in rows[1:]} == {"6", "7", "12"}
    series = read_csv(tmp_path / "fig7_series_w7.csv")
    assert series[0] == ["length", "mean", "sd", "tvd", "solutions", "total"]


def test_recipe_table3_exact_values(tmp_path):
    run_recipe("table3", seed=0, out_dir=tmp_path)
    rows = read_csv(tmp_path / "table3_theory.csv")
    assert rows[0] == ["quantity", "n", "m", "mean", "sd"]
    table = {r[0]: (float(r[3]), float(r[4])) for r in rows[1:]}
    assert table["hamming-raw"] == (32.0, 4.0)
    assert table["hamming-normalized"] == (0.5, 0.0625)
    assert table["rms-small-T"][0] == 32.0
    assert table["rms-small-T"][1] == pytest.approx(64 / (2 * 3**0.5))
    assert table["rms-exhaustive-uniform"][1] == pytest.approx(0.23 * 64)


def test_recipe_table1_smoke(tmp_path):
    run_recipe("table1", seed=2, out_dir=tmp_path, runs=1, generations=3)
    rows = read_csv(tmp_path / "table1_success.csv")
    assert rows[0] == ["method", "wires", "gates", "scoring", "runs", "solved"]
    assert len(rows) == 9  # 2 methods x 2 configs x 2 scorings
    lines = (tmp_path / "table1_runs.jsonl").read_text().splitlines()
    assert len(lines) == 8
    assert (tmp_path / "manifest.json").exists()


# SHA-256 of every CSV of the sampling recipes at seed 3 and 4096 samples
# per length, recorded before the sampler's block loop replaced its serial,
# checkpointed and parallel paths; the draws are unchanged, so every byte
# must be too.
RECIPE_CSV_DIGESTS = {
    "fig4": {
        "fig4_hist_w6.csv": "d9501bc4e92d910df98634b060dadefce4e2e17934ac1f36c9bca2b18b4793d3",
    },
    "fig5": {
        "fig5_prob_w6.csv": "96ba779db2cfb1c1063ec31b1e46b0d3dc7b0f203cc5fc3a687a43c948911394",
    },
    "fig6": {
        "fig6_hist_w7.csv": "97df9fe453b471115d3630ee3335b99b4658d5986bb2c6ff9bc597cebb1d78c7",
    },
    "fig7": {
        "fig7_series_w12.csv": "22d6d0bbb0d851af6600a81cf1c17be4b89b0a03fa307fbce1a9e735433bb5ab",
        "fig7_series_w6.csv": "6636930e126efd233d832220a3b045659a94cf0b8d23409917fa511720f3e3c0",
        "fig7_series_w7.csv": "8a9981c48e23f8d4e0ccbf4a93a13009c69221f1022d5e79a436797debefc5ba",
        "fig7_tvd.csv": "41b1e97acd90d345c4700ae260bba16bf85307a7bdd4317f92c5b299913c1354",
    },
    "fig8": {
        "fig8_mean_sd.csv": "db7b521e8538e21a5cc162da92a26092ce1c1bb00b6b25e8e84171d2461d98e5",
    },
    "fig10": {
        "fig10_density_w6.csv": "677f70ef02b57b20f0440748d1c11fce34de0aa976260c550965caadc3fa3230",
    },
}


@pytest.mark.parametrize("recipe_id", sorted(RECIPE_CSV_DIGESTS))
def test_sampling_recipe_csvs_are_pinned(tmp_path, recipe_id):
    manifest = run_recipe(recipe_id, seed=3, out_dir=tmp_path, samples=4096)
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in manifest["artifacts"]
    }
    assert digests == RECIPE_CSV_DIGESTS[recipe_id]


def test_recipe_rejects_unknown_id(tmp_path):
    with pytest.raises(ValueError):
        run_recipe("fig99", out_dir=tmp_path)
    with pytest.raises(ValueError):
        run_recipe("fig4", scale="huge", out_dir=tmp_path)


def test_cli_reports_domain_errors(tmp_path, capsys):
    rc = main(["sample", "--wires", "5", "--lengths", "3", "--samples", "10",
               "--workers", "1", "--out", str(tmp_path / "x.csv")])
    assert rc == 1  # six-multiplexor needs 6 wires
    rc = main(["sample", "--wires", "6", "--lengths", "bad", "--samples", "10",
               "--workers", "1"])
    assert rc == 1
    capsys.readouterr()
    # Workers and checkpoints compose: same CSV as a serial run.
    sample = ["sample", "--wires", "6", "--lengths", "3,5", "--samples", "70000"]
    rc = main(sample + ["--workers", "2", "--checkpoint", str(tmp_path / "ck.json"),
                        "--out", str(tmp_path / "parallel.csv")])
    assert rc == 0 and capsys.readouterr().err == ""
    assert main(sample + ["--workers", "1", "--out", str(tmp_path / "serial.csv")]) == 0
    serial = (tmp_path / "serial.csv").read_bytes()
    assert (tmp_path / "parallel.csv").read_bytes() == serial
