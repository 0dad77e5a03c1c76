"""End-to-end CLI behavior: flags, CSV schemas, logs, recipes, manifests."""

import csv
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

from revcirc.cli import main, run_recipe
from revcirc.core import Circuit, Gate, parse_circuits
from revcirc.fitness import (
    FitnessValue,
    OutputMap,
    TargetTable,
    hamming_fitness_scalar,
    six_multiplexor_target,
)
from revcirc.theory import parity_shifted_limit


ROOT = Path(__file__).resolve().parents[1]


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _source_tree_env():
    """The environment of a fresh interpreter that imports revcirc from src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return env


def _modules_loaded_by(probe):
    """The names in sys.modules after `probe` (lines of Python) runs in a
    fresh interpreter."""
    code = probe + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True, env=_source_tree_env(),
    )
    return set(json.loads(out.stdout.strip().splitlines()[-1]))


def test_console_script_is_installed():
    """Run the declared ``revcirc`` entry point the way an installed console
    script does (``sys.exit(main())``), from the source tree in a fresh
    interpreter, so no install step is needed."""
    with open(ROOT / "pyproject.toml", "rb") as fh:
        entry = tomllib.load(fh)["project"]["scripts"]["revcirc"]
    module, attr = entry.split(":")
    wrapper = (
        "import sys\n"
        f"from {module} import {attr}\n"
        "sys.argv[0] = 'revcirc'\n"
        f"sys.exit({attr}())\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", wrapper, "--help"],
        capture_output=True, text=True, check=True, env=_source_tree_env(),
    )
    assert "sample" in out.stdout and "recipe" in out.stdout


def test_package_does_not_import_scipy_stats():
    """No scipy module loads on import: only Poisson intervals and binomial
    laws of sizes other than 64 load scipy.special, on first use, and
    never scipy.stats, which costs about 1 s of a cold start."""
    loaded = _modules_loaded_by("import revcirc, revcirc.cli")
    assert not any(m.split(".")[0] == "scipy" for m in loaded)


def test_six_multiplexor_laws_and_recipes_load_no_scipy(tmp_path):
    """The paper's two limit laws are tables, and a serial run starts no
    process pool: building both laws, the law of every bus width fig7
    uses, and fig7 itself loads neither scipy nor multiprocessing."""
    loaded = _modules_loaded_by(
        "import revcirc, revcirc.cli\n"
        "from revcirc import binomial_limit, limit_for, parity_shifted_limit, six_multiplexor_target\n"
        "parity_shifted_limit(); binomial_limit(6)\n"
        "for w in (6, 7, 12): limit_for(w, six_multiplexor_target())\n"
        f"revcirc.cli.run_recipe('fig7', samples=64, out_dir={str(tmp_path)!r})"
    )
    assert (tmp_path / "manifest.json").is_file()
    top = {m.split(".")[0] for m in loaded}
    assert "scipy" not in top
    assert "multiprocessing" not in top


def test_intervals_and_other_binomial_sizes_still_load_scipy_special():
    for call in ("poisson_interval(3)", "binomial_limit(3, 2)"):
        loaded = _modules_loaded_by(
            f"from revcirc.theory import binomial_limit, poisson_interval\n{call}"
        )
        assert "scipy.special" in loaded, call


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


def test_density_reads_no_limit_law(tmp_path):
    """Spare wires holding 0 have no limit law, so `converge` refuses them,
    but `density` reads none and still writes its CSV."""
    out = tmp_path / "density.csv"
    rc = main([
        "density", "--wires", "7", "--fill", "0", "--lengths", "1,3", "--samples", "2000",
        "--seed", "5", "--workers", "1", "--out", str(out),
    ])
    assert rc == 0
    rows = read_csv(out)
    assert rows[0] == ["length", "count", "rate", "ci_lo", "ci_hi"]
    assert [row[0] for row in rows[1:]] == ["1", "3"]


def test_minscan_cli(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    rc = main([
        "minscan", "--wires", "6", "--lengths", "2", "--out", str(out),
    ])
    assert rc == 0
    rows = read_csv(out)
    assert rows[0] == ["length", "count"]
    assert rows[1:] == [["1", "0"], ["2", "0"]]
    assert capsys.readouterr().err == "no solutions with <= 2 gates\n"
    # x0 ^ x1 ^ x1*x2 on 3 wires: a CNOT then a CCNOT onto wire 0, and no
    # single gate leaves it on any wire.
    two_gates = Circuit(3, [Gate(0, 1, 1), Gate(0, 1, 2)])
    target = TargetTable.from_function(3, 1, lambda t: (t ^ (t >> 1) ^ (t >> 1 & t >> 2)) & 1)
    assert hamming_fitness_scalar(two_gates, target).solved
    (tmp_path / "t.txt").write_text(target.to_text())
    assert main(["minscan", "--wires", "3", "--lengths", "3", "--target", str(tmp_path / "t.txt"),
                 "--out", str(out)]) == 0
    counts = {int(n): int(c) for n, c in read_csv(out)[1:]}
    assert counts[1] == 0 < counts[2]
    assert capsys.readouterr().err == "shortest solution: 2 gates\n"


def test_minscan_guard_is_a_cli_error(tmp_path):
    rc = main(["minscan", "--wires", "6", "--lengths", "6"])
    assert rc == 1


def test_minscan_refuses_sampling_flags(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["minscan", "--wires", "6", "--lengths", "2", "--samples", "5"])
    assert exc.value.code == 2
    assert "--samples" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["converge", "density"])
@pytest.mark.parametrize("flag", [["--checkpoint", "ck.json"], ["--keep-zeros"]])
def test_only_sample_takes_checkpoint_and_keep_zeros(capsys, command, flag):
    with pytest.raises(SystemExit) as exc:
        main([command, "--wires", "6", "--lengths", "2", "--samples", "5"] + flag)
    assert exc.value.code == 2
    assert flag[0] in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["hillclimb", "--budget", "10"],
    ["ga", "--pop", "10", "--gens", "1"],
])
def test_search_rejects_output_wire_outside_the_bus(capsys, command):
    rc = main(command + ["--wires", "6", "--gates", "5", "--runs", "1",
                         "--output-wire", "9"])
    assert rc == 1
    assert "output wire outside the bus" in capsys.readouterr().err


@pytest.mark.parametrize("flags,message", [
    (["--output-wire", "best"], "--compare-random needs a fixed output wire"),
    (["--samples", "0"], "samples_per_length must be >= 1"),
    (["--workers", "0"], "workers must be >= 1"),
    (["--output-wire", "foo"], "--output-wire expects a wire index or 'best', got 'foo'"),
])
def test_compare_random_is_checked_before_any_run(tmp_path, capsys, flags, message):
    rc = main([
        "hillclimb", "--wires", "6", "--gates", "5", "--runs", "2", "--budget", "50",
        "--compare-random", "--out", str(tmp_path / "hc"),
    ] + flags)
    assert rc == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "hc" / "runs.jsonl").exists()


def test_compare_random_refuses_wide_target_before_any_run(tmp_path, capsys):
    wide = tmp_path / "wide.txt"
    wide.write_text(TargetTable.from_function(7, 1, lambda t: t & 1).to_text())
    out_dir = tmp_path / "hc"
    rc = main([
        "hillclimb", "--wires", "8", "--gates", "5", "--runs", "2", "--budget", "50",
        "--target", str(wide), "--compare-random", "--samples", "100",
        "--workers", "1", "--out", str(out_dir),
    ])
    assert rc == 1
    assert "n <= 6" in capsys.readouterr().err
    assert not (out_dir / "runs.jsonl").exists()
    assert not (out_dir / "solutions.txt").exists()


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


@pytest.mark.parametrize("flags,message", [
    (["--kind", "binomial", "--n", "2000"], "too large for a float"),
    (["--kind", "rms", "--m", "2000"], "m < 1024"),
    (["--kind", "normalized", "--m", "0"], "m >= 1"),
    (["--kind", "binomial", "--n", "-1"], "n >= 0"),
    (["--kind", "binomial", "--m", "0"], "m >= 1"),
], ids=["binomial-n2000", "rms-m2000", "normalized-m0", "binomial-n-1", "binomial-m0"])
def test_limit_refuses_out_of_range_sizes(tmp_path, capsys, flags, message):
    """Sizes whose moments overflow a float, a negative input count and an
    empty output are refused as CLI errors naming the bound, before any
    file is written."""
    out = tmp_path / "limit.csv"
    assert main(["limit", *flags, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("revcirc: error:") and message in err
    assert not out.exists()


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


def test_recipe_table3_exact_values(tmp_path, capsys):
    assert main(["recipe", "table3", "--seed", "0", "--out", str(tmp_path)]) == 0
    err = capsys.readouterr().err
    assert err.startswith(f"recipe table3 (ci): wrote 1 artifact(s) to {tmp_path} in ")
    assert err.endswith("s\n") and len(err.splitlines()) == 1
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
    assert main(["sample", "--wires", "6", "--lengths", ","]) == 1
    assert capsys.readouterr().err == "revcirc: error: --lengths must name at least one length\n"
    rc = main(["sample", "--wires", "6", "--lengths", "3", "--samples", "10",
               "--workers", "0"])
    assert rc == 1
    # The no-spare limit law needs 32 ones with case 0 wanting 0.
    zero = tmp_path / "zero.txt"
    zero.write_text(TargetTable(6, 1, (0,)).to_text())
    rc = main(["converge", "--wires", "6", "--lengths", "3", "--samples", "10",
               "--workers", "1", "--target", str(zero)])
    assert rc == 1
    balanced = {
        "mux": six_multiplexor_target(),
        "d0": TargetTable.from_function(6, 1, lambda t: t & 1),
        "parity": TargetTable.from_function(6, 1, lambda t: bin(t).count("1") & 1),
    }
    for name, target in balanced.items():
        (tmp_path / name).write_text(target.to_text())
        rc = main(["converge", "--wires", "6", "--lengths", "3", "--samples", "10",
                   "--workers", "1", "--target", str(tmp_path / name)])
        assert rc == 0
    # Spare wires holding 0 have no limit law (case 0 never varies); with
    # no spare wire the fill is unused.
    out = tmp_path / "fill0.csv"
    converge = ["converge", "--lengths", "3", "--samples", "10", "--workers", "1", "--fill", "0"]
    assert main(converge + ["--wires", "7", "--out", str(out)]) == 1
    assert not out.exists()
    assert main(converge + ["--wires", "6", "--out", str(out)]) == 0
    capsys.readouterr()
    # Workers and checkpoints compose: same CSV as a serial run.
    sample = ["sample", "--wires", "6", "--lengths", "3,5", "--samples", "70000"]
    rc = main(sample + ["--workers", "2", "--checkpoint", str(tmp_path / "ck.json"),
                        "--out", str(tmp_path / "parallel.csv")])
    assert rc == 0 and capsys.readouterr().err == ""
    assert main(sample + ["--workers", "1", "--out", str(tmp_path / "serial.csv")]) == 0
    serial = (tmp_path / "serial.csv").read_bytes()
    assert (tmp_path / "parallel.csv").read_bytes() == serial


@pytest.mark.parametrize("samples,entry", [
    (70_000, [1, [0] * 65]),  # one chunk done, yet no sample counted
    (100, [1, [100]]),  # one count where the six-multiplexor has 65
    (100, [0, [0]]),
    (100, [2, [0] * 64 + [100]]),  # two chunks done of a one-chunk run
    (100, [1]),
    (100, None),  # the file holds [], not an object
    (100, b"{not json"),  # the file's own bytes
    (100, b""),
    (100, b"\xff"),
], ids=["short-sum", "one-count", "done0-one-count", "done-past-end", "not-a-pair",
        "not-an-object", "not-json", "empty", "not-utf8"])
def test_bad_checkpoint_is_a_cli_error(tmp_path, capsys, samples, entry):
    """A checkpoint entry this run could not have written, or a file that is
    not UTF-8 JSON, is refused before any sampling: exit 1, the file (and key)
    named, and no CSV written."""
    ck = tmp_path / "c.json"
    cmd = ["sample", "--wires", "6", "--lengths", "3", "--workers", "1", "--seed", "0",
           "--samples", str(samples), "--checkpoint", str(ck)]
    assert main(cmd) == 0
    (key,) = json.loads(ck.read_text())
    if isinstance(entry, bytes):
        ck.write_bytes(entry)
    else:
        ck.write_text(json.dumps([] if entry is None else {key: entry}))
    capsys.readouterr()
    out = tmp_path / "x.csv"
    assert main(cmd + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"revcirc: error: checkpoint {ck}")
    assert (key in err) == isinstance(entry, list)
    assert not out.exists()


def test_checkpoint_directory_is_made(tmp_path):
    """A checkpoint in a missing directory is written there, and a rerun
    resumes from it to the same CSV."""
    ck = tmp_path / "nd" / "ck.json"
    cmd = ["sample", "--wires", "6", "--lengths", "5", "--samples", "100", "--workers", "1",
           "--checkpoint", str(ck)]
    assert main(cmd + ["--out", str(tmp_path / "nd2" / "x.csv")]) == 0
    assert ck.exists()
    assert main(cmd + ["--out", str(tmp_path / "y.csv")]) == 0
    assert (tmp_path / "y.csv").read_bytes() == (tmp_path / "nd2" / "x.csv").read_bytes()


def test_refused_sample_leaves_no_checkpoint_directory(tmp_path, capsys):
    """An output wire off the bus, or a two-output target read from one
    wire, is refused by the sampler's `Scorer`, a bus with no legal gate by
    its gate table, and a bus whose gate codes overflow uint16 by its gate
    count, when the configuration is built, and a target header with n < 0
    inputs when the target is read; all before the checkpoint's directory is
    made."""
    negative = tmp_path / "neg.txt"
    negative.write_text("-1 1\n0\n")
    two_out = tmp_path / "two.txt"
    two_out.write_text(TargetTable.from_function(6, 2, lambda t: t & 3).to_text())
    two_in = tmp_path / "t2.txt"
    two_in.write_text(TargetTable.from_function(2, 1, lambda t: t & 1).to_text())
    ck = ["--checkpoint", str(tmp_path / "d" / "sub" / "x.json")]
    cmd = ["sample", "--lengths", "5", "--samples", "10", "--workers", "1"]
    for flags, message in ((["--wires", "6", "--output-wire", "9"], "outside the bus"),
                           (["--wires", "6", "--target", str(two_out)], "arity"),
                           (["--wires", "2", "--target", str(two_in)], "no legal CCNOT"),
                           (["--wires", "52"], "at most 51 wires"),
                           (["--wires", "6", "--target", str(negative)], "n_inputs=-1")):
        assert main(cmd + flags + ck) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "d").exists()


# SHA-256 pins of every other output path, recorded before the CSV writer,
# the recipe table and the search-run path were folded together.  Each
# search pin covers every file of the output directory plus stderr.
SEARCH_COMMANDS = {
    "hillclimb_compare_random": [
        "hillclimb", "--wires", "6", "--gates", "5", "--runs", "3", "--seed", "7",
        "--budget", "400", "--compare-random", "--samples", "20000", "--workers", "1",
    ],
    "hillclimb_solved": [
        "hillclimb", "--wires", "12", "--gates", "20", "--runs", "2", "--seed", "8",
        "--budget", "5000", "--output-wire", "best",
    ],
    "ga_best_solved": [
        "ga", "--wires", "12", "--gates", "20", "--runs", "1", "--seed", "400",
        "--gens", "300", "--output-wire", "best",
    ],
    "ga_wire0": [
        "ga", "--wires", "6", "--gates", "5", "--runs", "2", "--seed", "1",
        "--pop", "40", "--tournament", "3", "--gens", "5",
    ],
}
SEARCH_DIR_DIGESTS = {
    "ga_best_solved": {
        "<stderr>": "c36aedee9afa077cc24bb48b175fe2e565ab70689fa108f51307a8301c9838a2",
        "runs.jsonl": "84d1404967789438ac4487a9fd3d82308ba21ffc35ce53901acb8b3d4674933e",
        "solutions.txt": "fb697e88fffc8e52f321a720fa53f363d6bf3a6f9e8a9b545ebd8cdaa0b41d98",
        "summary.json": "5e1a5fbc7efa85f31a91a1befd81b7c2a7fba4da030cd12716ce3f363cbd9140",
    },
    "ga_wire0": {
        "<stderr>": "b43065072557e82ee79d1fa5b7d36645c3b71deb2aed3e9c5145ab9621422b8d",
        "runs.jsonl": "4c22da76908866407ec678717cb978758cb7110ec3af0265236b578285d59b8b",
        "solutions.txt": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "summary.json": "5a76a0ea808226dd85dabde192f15ed97aefcc5a2e43d1ef823ee27542a3df5a",
    },
    "hillclimb_compare_random": {
        "<stderr>": "ecb629143712eb0e4d895d2e0f7992740603c252aeb723e0e1acdb108596de51",
        "random_comparison.csv": "b6039811c590df26e3d7dfde261b7c2c9593bcfa2d43375adc04c8bf0e1bd1d9",
        "runs.jsonl": "e2210580f2b8ab1fa2411c54a2de77cfb16170709f66abf7edc4362a585eece9",
        "solutions.txt": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "hillclimb_solved": {
        "<stderr>": "3e3a64eb779dae2c35e4342495055d2351ebf26590dfd1949137d503f0cd9674",
        "runs.jsonl": "7113b6d665063e4d2012701f95ee1118d5641f2eee90fe1385109d5e6db29ef4",
        "solutions.txt": "be67e4a4f6f677b7a19e9fe73024a392de5ea253c96a83193842fe7def6c38c2",
    },
}

STDOUT_COMMANDS = {
    "sample": ["sample", "--wires", "7", "--lengths", "3,20", "--samples", "5000",
               "--seed", "5", "--workers", "1"],
    "sample_keep_zeros": ["sample", "--wires", "6", "--lengths", "4", "--samples",
                          "3000", "--seed", "2", "--workers", "1", "--keep-zeros"],
    "converge": ["converge", "--wires", "7", "--lengths", "5,50", "--samples", "6000",
                 "--seed", "4", "--workers", "1"],
    "density": ["density", "--wires", "6", "--lengths", "1,8", "--samples", "6000",
                "--seed", "5", "--workers", "1"],
    "minscan": ["minscan", "--wires", "6", "--lengths", "2"],
    "limit_binomial": ["limit", "--kind", "binomial", "--n", "6", "--m", "1"],
    "limit_parity": ["limit", "--kind", "parity-shifted"],
    "limit_normalized": ["limit", "--kind", "normalized"],
    "limit_rms": ["limit", "--kind", "rms", "--m", "6", "--regime", "exhaustive-uniform"],
    "hillclimb": SEARCH_COMMANDS["hillclimb_compare_random"],
    "ga": SEARCH_COMMANDS["ga_wire0"],
}
STDOUT_DIGESTS = {
    "converge": (
        "32aeec53c1e424a5019eb924b2917cc7765ab212b8a2ef8880eefa54ae67a5e2",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "density": (
        "228079eb9ac4ddd7b9a0a119e1a61a47d62bf58e1f3574253ee5e890ae501562",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "ga": (
        "4c22da76908866407ec678717cb978758cb7110ec3af0265236b578285d59b8b",
        "b43065072557e82ee79d1fa5b7d36645c3b71deb2aed3e9c5145ab9621422b8d",
    ),
    "hillclimb": (
        "2c7a89d5a584d672bff333a639d66cb699d4a9000159af035c868c19f96238b3",
        "ecb629143712eb0e4d895d2e0f7992740603c252aeb723e0e1acdb108596de51",
    ),
    "limit_binomial": (
        "f0be9a8e42d8d1f747a4673877a16a036580664ebf7e5ad24d00b46d43dce978",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "limit_normalized": (
        "0685a95ad848e639f3f45565f7a1ca672d6ba3a63ffdb11ad6f00fee6d0074dd",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "limit_parity": (
        "35559ebb36b43426d52720d1b69cb884ba207989aa9902ec7c217b533bddd41a",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "limit_rms": (
        "284ec2d025fcf81d43e9e4168a18a1b6da974eed7934db038e4c7707288aa784",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "minscan": (
        "4e91b2bf1079834f90aa5d7f533373b91789dc185a97b81fc9a2240dca8d335a",
        "de63ef600b595998bbfc05ba0fc3c54ab4c7a451f0f2992d6da0e397195a6435",
    ),
    "sample": (
        "652de033dbafe5892391f66ffab5f033f521e6bfdb44e3a8cd87feec9f702a8f",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "sample_keep_zeros": (
        "8f4b2b1a5db4c8aa60e763a7fd44b4193a432ae3112a6db99998d83e49ddceab",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
}

TABLE1_DIGESTS = {
    "table1_runs.jsonl": "8a031e2802504e4dae582146afc902ad0ae38b1e622fa012203f3627d9056fe8",
    "table1_solutions.txt": "213897269e306b8b4e4dc7695dd7ec92321c7a48a660f5bd0bd1eec356505570",
    "table1_success.csv": "ed4086b412937d0270d32c116625fc48bbe84ab4eb3d54a62c131c4f5bd1c432",
}


def _sha(data) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


@pytest.mark.parametrize("name", sorted(SEARCH_COMMANDS))
def test_search_output_dirs_are_pinned(tmp_path, capsys, name):
    assert main(SEARCH_COMMANDS[name] + ["--out", str(tmp_path)]) == 0
    digests = {p.name: _sha(p.read_bytes()) for p in sorted(tmp_path.iterdir())}
    digests["<stderr>"] = _sha(capsys.readouterr().err)
    assert digests == SEARCH_DIR_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(STDOUT_COMMANDS))
def test_command_stdout_is_pinned(capsys, name):
    assert main(STDOUT_COMMANDS[name]) == 0
    captured = capsys.readouterr()
    assert (_sha(captured.out), _sha(captured.err)) == STDOUT_DIGESTS[name]


def test_search_without_out_logs_solutions_to_stderr(capsys):
    assert main(SEARCH_COMMANDS["hillclimb_solved"]) == 0
    captured = capsys.readouterr()
    for line in captured.out.splitlines():
        json.loads(line)
    summary, *solution_lines = captured.err.splitlines()
    assert summary.startswith("hillclimb: 2/2 solved")
    headers = [line for line in solution_lines if line.startswith("#")]
    circuits = parse_circuits("\n".join(solution_lines))
    assert len(headers) == len(circuits) == 2
    for header, circuit in zip(headers, circuits):
        wire = int(header.split("output_wire=")[1].split()[0])
        fitness = hamming_fitness_scalar(circuit, six_multiplexor_target(), OutputMap((wire,)))
        assert fitness.raw == 64


def test_table1_without_runs_writes_empty_logs(tmp_path):
    run_recipe("table1", seed=0, out_dir=tmp_path, runs=0)
    assert (tmp_path / "table1_runs.jsonl").read_bytes() == b""
    assert (tmp_path / "table1_solutions.txt").read_bytes() == b""


@pytest.mark.parametrize("command", [
    ["hillclimb", "--wires", "6", "--gates", "5", "--budget", "0"],
    ["hillclimb", "--wires", "6", "--gates", "0"],
    ["hillclimb", "--wires", "6", "--gates", "5", "--runs", "-1"],
    ["ga", "--wires", "6", "--gates", "5", "--pop", "0"],
    ["ga", "--wires", "5", "--gates", "5", "--pop", "10", "--gens", "1"],
    ["ga", "--wires", "6", "--gates", "5", "--runs", "-1"],
    ["recipe", "table1", "--runs", "-1"],
    ["recipe", "fig4", "--samples", "0"],
    ["recipe", "fig7", "--workers", "0"],
    ["recipe", "table1", "--gens", "-1", "--runs", "1"],
], ids=["hc-budget0", "hc-gates0", "hc-runs-1", "ga-pop0", "ga-narrow-bus", "ga-runs-1",
        "table1-runs-1", "fig4-samples0", "fig7-workers0", "table1-gens-1"])
def test_refused_search_writes_nothing(tmp_path, capsys, command):
    out_dir = tmp_path / "d"
    assert main(command + ["--out", str(out_dir)]) == 1
    assert "revcirc: error:" in capsys.readouterr().err
    assert not out_dir.exists()


def _unsolved(circuit, target, outputs):
    """A case-by-case check that rejects every claimed solution."""
    return FitnessValue(raw=63, max_raw=64)


@pytest.mark.parametrize("command", [
    ["hillclimb", "--wires", "3", "--gates", "2", "--runs", "2", "--budget", "5000"],
    ["ga", "--wires", "3", "--gates", "2", "--runs", "2", "--pop", "20", "--gens", "50"],
], ids=["hillclimb", "ga"])
def test_search_refuses_a_solution_that_fails_reverification(tmp_path, monkeypatch, command):
    """A claimed solution the case-by-case check rejects raises before any
    log or solution file is written."""
    target = tmp_path / "t.txt"
    target.write_text(TargetTable.from_function(3, 1, lambda t: (t ^ t >> 1) & 1).to_text())
    out_dir = tmp_path / "d"
    argv = command + ["--target", str(target), "--output-wire", "best", "--out", str(out_dir)]
    assert main(argv) == 0  # both runs solve, and their solutions pass the check
    assert len(parse_circuits((out_dir / "solutions.txt").read_text())) == 2
    shutil.rmtree(out_dir)
    monkeypatch.setattr("revcirc.cli.hamming_fitness_scalar", _unsolved)
    with pytest.raises(AssertionError, match="re-verification: 63/64"):
        main(argv)
    assert not out_dir.exists()


def test_table1_refuses_a_solution_that_fails_reverification(tmp_path, monkeypatch):
    monkeypatch.setattr("revcirc.cli.hamming_fitness_scalar", _unsolved)
    with pytest.raises(AssertionError, match="re-verification: 63/64"):
        run_recipe("table1", seed=5, out_dir=tmp_path / "d", runs=2, generations=300)
    assert not (tmp_path / "d").exists()


def test_table1_checks_ga_parameters_before_any_climb(tmp_path, monkeypatch):
    """A GA setting the recipe would refuse only after its hill-climber
    campaigns is refused before the first climb."""
    def no_climb(*args, **kwargs):
        raise AssertionError("hill_climb ran for a refused request")

    monkeypatch.setattr("revcirc.cli.hill_climb", no_climb)
    with pytest.raises(ValueError, match="generations >= 0"):
        run_recipe("table1", seed=0, out_dir=tmp_path / "d", runs=1, generations=-1)


@pytest.mark.parametrize("command", ["hillclimb", "ga"])
def test_search_without_runs_writes_empty_logs(tmp_path, command):
    out_dir = tmp_path / "d"
    assert main([command, "--wires", "6", "--gates", "5", "--runs", "0",
                 "--out", str(out_dir)]) == 0
    assert (out_dir / "runs.jsonl").read_bytes() == b""
    assert (out_dir / "solutions.txt").read_bytes() == b""


def test_table1_artifacts_are_pinned(tmp_path):
    manifest = run_recipe("table1", seed=5, out_dir=tmp_path, runs=2, generations=300)
    digests = {name: _sha((tmp_path / name).read_bytes()) for name in manifest["artifacts"]}
    assert digests == TABLE1_DIGESTS


# Manifest `parameters` and artifact names of every recipe; the benchmark
# reads `parameters.wires` as an int for one bus width and a list otherwise.
SIX_MUX_LENGTHS = [5, 10, 20, 50, 100, 500]
RECIPE_MANIFESTS = {
    "fig4": ({"wires": 6, "lengths": SIX_MUX_LENGTHS}, ["fig4_hist_w6.csv"]),
    "fig5": ({"wires": 6, "lengths": SIX_MUX_LENGTHS}, ["fig5_prob_w6.csv"]),
    "fig6": ({"wires": 7, "lengths": SIX_MUX_LENGTHS}, ["fig6_hist_w7.csv"]),
    "fig7": (
        {"wires": [6, 7, 12], "lengths": [20, 50, 100, 200, 500]},
        ["fig7_series_w12.csv", "fig7_series_w6.csv", "fig7_series_w7.csv", "fig7_tvd.csv"],
    ),
    "fig8": (
        {"wires": [6, 7, 12], "lengths": [5, 10, 20, 50, 100, 200, 500]},
        ["fig8_mean_sd.csv"],
    ),
    "fig10": (
        {"wires": 6, "lengths": [5, 6, 7, 8, 9, 10, 12, 15, 20, 30, 50]},
        ["fig10_density_w6.csv"],
    ),
    "table1": (
        {
            "configs": [[6, 5], [12, 20]],
            "runs": 1,
            "hill_climb_budget": 5000,
            "ga": {"population": 500, "tournament": 7, "generations": 3},
        },
        ["table1_runs.jsonl", "table1_solutions.txt", "table1_success.csv"],
    ),
    "table3": ({"n": 6, "m_bits": 6}, ["table3_theory.csv"]),
}


@pytest.mark.parametrize("recipe_id", sorted(RECIPE_MANIFESTS))
def test_recipe_manifests_are_pinned(tmp_path, recipe_id):
    extra = {"runs": 1, "generations": 3} if recipe_id == "table1" else {}
    manifest = run_recipe(recipe_id, seed=3, out_dir=tmp_path, samples=256, **extra)
    assert json.loads((tmp_path / "manifest.json").read_text()) == manifest
    wall = manifest.pop("wall_time_seconds")
    assert wall >= 0
    parameters, artifacts = RECIPE_MANIFESTS[recipe_id]
    assert manifest == {
        "recipe": recipe_id, "scale": "ci", "seed": 3, "samples_per_length": 256,
        "workers": 1, "parameters": parameters, "artifacts": artifacts, **extra,
    }
