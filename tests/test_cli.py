"""Command-line interface: examples, files, exit codes, determinism."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import iet3
from iet3.cli import build_parser, run_command


def run(args, tmp):
    return run_command(args + ["--out", str(tmp)])


# sha256 pins of documented reports: a change that moves one updates its pin
# and lists the values that moved
PINS = {"switch.json": "af23d9933ef378ad956c0abea0a4eb9ead38d01abe6a4d4252614311a6834a49",
        "schedule.json": "2ee8246dfdb06596eec1e5bd01e69df97e8ccdec90c9afbfd28d38203f5f65bd",
        "final_average.csv": "b53132f680ace8ae03c0d52b00c6bc6b0a2bd1ccee2276708f6fac2530bbe902",
        "renorm-find.json": "172aff726f998e04aa7b5e7857033feba6e633c68689116b2f8835cd0cc0187a",
        "tower.json": "822dffee0ea9dd600bafc17d17c2f9a0d46b2fa8a0bd84f0466d7623a4c66afd",
        "tower_levels.csv": "b62544c0f9fca27b8d487e259952dd858de24b7434fc0ece7d1f049837e73606",
        "approx-powers.json": "7b6afb9876c93341cc8c1abd3b546880042e111d638f5bc15d1246e3e84399ea"}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_iet_info_example(tmp_path, capsys):
    code = run(["iet-info", "--l", "0.2,0.3,0.5"], tmp_path)
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["alpha"] == pytest.approx(0.8 / 1.3)
    assert out["kappa"] == pytest.approx(1 / 1.3)
    report = json.loads((tmp_path / "iet-info.json").read_text())
    assert report["tool"] == "iet3"
    assert "config" in report and "version" in report


def test_kr_example_two_atom(tmp_path, capsys):
    mu = tmp_path / "a.csv"
    nu = tmp_path / "b.csv"
    mu.write_text("x,y,w\n0.1,0.2,1\n", encoding="utf-8")
    nu.write_text("x,y,w\n0.4,0.2,1\n", encoding="utf-8")
    code = run(["kr", "--mu", str(mu), "--nu", str(nu)], tmp_path)
    assert code == 0
    assert float(capsys.readouterr().out.strip()) == pytest.approx(0.3)


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        run_command(["kr"])  # missing required files
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc2:
        run_command(["no-such-command"])
    assert exc2.value.code == 1


def test_orbit_and_joining_files(tmp_path):
    assert run(["orbit", "--l", "0.2,0.3,0.5", "--x", "0.1", "--length", "10"],
               tmp_path) == 0
    lines = (tmp_path / "orbit.csv").read_text().strip().splitlines()
    assert lines[0] == "i,x"
    assert len(lines) == 11
    assert run(["joining-sample", "--l", "0.2,0.3,0.5", "--power", "1",
                "--atoms", "100"], tmp_path) == 0
    body = (tmp_path / "joining.csv").read_text().splitlines()
    assert body[0] == "x,y,w"
    assert len(body) == 101


def test_renorm_find_report(tmp_path):
    assert run(["renorm-find", "--alpha-cf", "doc-switch", "--delta", "0.3",
                "--t-max", "11"], tmp_path) == 0
    rep = json.loads((tmp_path / "renorm-find.json").read_text())
    steps = [r["n_steps"] for r in rep["times"]]
    assert 4 in steps and 32001 in steps
    assert _sha256((tmp_path / "renorm-find.json").read_bytes()) == PINS["renorm-find.json"]


def test_switch_report(tmp_path):
    code = run(["switch", "--alpha-cf", "doc-switch", "--samples", "200"], tmp_path)
    rep = json.loads((tmp_path / "switch.json").read_text())
    assert code == (0 if rep["status"] == "verified" else 2)
    assert {"n", "m", "r", "L", "status", "checks"} <= set(rep)
    assert rep["checks"]["kr_bound"] > 0
    assert _sha256((tmp_path / "switch.json").read_bytes()) == PINS["switch.json"]


def test_a_failed_scale_search_exits_2_without_a_report(tmp_path, capsys):
    # the golden rotation has no admissible scale: the switch's SearchFailure
    # (a ValueError) is one line on stderr, and no report is written
    out = tmp_path / "out"
    assert run_command(["switch", "--alpha-cf", "golden", "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: no admissible scale: [")
    assert not out.exists()


def test_determinism_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        code = run_command(["weak-closure", "--alpha-cf", "doc-tower",
                            "--k", "1", "--horizon", "40", "--atoms", "1500",
                            "--seed", "7", "--out", str(out)])
        assert code == 0
    ra = (a / "weak-closure.json").read_bytes()
    rb = (b / "weak-closure.json").read_bytes()
    assert ra == rb


def test_schedule_determinism(tmp_path):
    outs = []
    for name in ("s1", "s2"):
        out = tmp_path / name
        code = run_command(["schedule", "--alpha-cf", "doc-switch",
                            "--levels", "1", "--atoms", "1500",
                            "--samples", "300", "--eps", "0.025",
                            "--seed", "7", "--out", str(out)])
        assert code == 0
        outs.append([(out / f).read_bytes() for f in ("schedule.json", "final_average.csv")])
    assert outs[0] == outs[1]
    assert [_sha256(b) for b in outs[0]] == [PINS["schedule.json"], PINS["final_average.csv"]]
    levels = json.loads(outs[0][0])["levels"]
    assert [lv["status"] for lv in levels] == ["verified"]
    # --atoms sizes the strands whose average the CSV holds: 2 strands x 1500
    lines = outs[0][1].decode().splitlines()
    assert lines[0] == "x,y,w" and len(lines) == 1 + 2 * 1500


@pytest.mark.parametrize("args, files", [
    (["tower", "--alpha-cf", "doc-tower", "--k-max", "2"],
     ["tower.json", "tower_levels.csv"]),
    (["approx-powers", "--alpha-cf", "doc-tower", "--k-max", "2", "--atoms", "3000"],
     ["approx-powers.json"]),
    (["joining-sample", "--alpha-cf", "doc-tower", "--atoms", "3000", "--heatmap", "8"],
     ["joining-sample.json", "joining.csv", "joining_heatmap.csv"]),
])
def test_command_files_byte_identical(tmp_path, args, files):
    runs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert run_command(args + ["--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == sorted(files)
        runs.append({f: (out / f).read_bytes() for f in files})
    assert runs[0] == runs[1]
    first = runs[0]
    pinned = [f for f in first if f in PINS]
    assert {f: _sha256(first[f]) for f in pinned} == {f: PINS[f] for f in pinned}
    if "tower.json" in first:
        best = json.loads(first["tower.json"])["candidates"][-1]
        assert len(first["tower_levels.csv"].decode().splitlines()) == 1 + best["height"]
    if "approx-powers.json" in first:
        rep = json.loads(first["approx-powers.json"])
        assert 0 < rep["coeff_total"] <= 1 + 1e-12
    if "joining_heatmap.csv" in first:
        rows = first["joining_heatmap.csv"].decode().splitlines()
        assert rows[0] == "ix,iy,mass"
        cells = [r.split(",") for r in rows[1:]]
        assert all(0 <= int(ix) < 8 and 0 <= int(iy) < 8 for ix, iy, _ in cells)
        assert sum(float(m) for _, _, m in cells) == pytest.approx(1.0)


def test_no_tower_found_writes_an_empty_report(tmp_path, capsys):
    code = run(["tower", "--alpha-cf", "golden", "--t-max", "0.5"], tmp_path)
    assert code == 2
    assert capsys.readouterr().out == "no tower found\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["tower.json"]
    assert json.loads((tmp_path / "tower.json").read_text())["candidates"] == []


def test_no_tower_available_writes_nothing(tmp_path, capsys):
    out = tmp_path / "out"
    code = run(["approx-powers", "--alpha-cf", "golden", "--t-max", "0.5"], out)
    assert code == 2
    assert capsys.readouterr().out == "no tower available\n"
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["iet-info", "--l", "0.2,0.3,0.5"],
    ["orbit", "--l", "0.2,0.3,0.5", "--length", "5"],
    ["renorm-find", "--alpha-cf", "golden", "--t-max", "3"],
    ["tower", "--alpha-cf", "golden", "--t-max", "0.5"],
    ["joining-sample", "--l", "0.2,0.3,0.5", "--atoms", "10"],
    ["kr", "--mu", "a.csv", "--nu", "b.csv", "--metric", "circle"],
    ["approx-powers", "--alpha-cf", "doc-tower", "--k-max", "2", "--atoms", "300"],
    ["weak-closure", "--alpha-cf", "doc-tower", "--horizon", "5", "--atoms", "100"],
    ["switch", "--alpha-cf", "doc-switch", "--samples", "20"],
    ["schedule", "--alpha-cf", "doc-switch", "--levels", "1", "--atoms", "100",
     "--samples", "20"],
    ["witness", "--alpha-cf", "golden", "--atoms", "100"]],
    ids=lambda args: args[0])
def test_report_records_command_and_options(tmp_path, monkeypatch, args):
    # the report names its subcommand, and its config holds every option the
    # run was given or defaulted (all of them scalars) apart from --out
    monkeypatch.chdir(tmp_path)
    Path("a.csv").write_text("x,y,w\n0.1,0.2,1\n", encoding="utf-8")
    Path("b.csv").write_text("x,y,w\n0.4,0.2,1\n", encoding="utf-8")
    run_command(args + ["--out", "out"])
    report = json.loads((tmp_path / "out" / f"{args[0]}.json").read_text())
    options = vars(build_parser().parse_args(args))
    del options["fn"], options["out"]
    assert report["command"] == options["cmd"] == args[0]
    assert report["config"] == options


def test_console_entry_point(tmp_path):
    # the child imports iet3 from where this process did, with or without
    # PYTHONPATH set (pytest's own `pythonpath` reaches only this process)
    path = [str(Path(iet3.__file__).parent.parent), os.environ.get("PYTHONPATH")]
    proc = subprocess.run(
        [sys.executable, "-m", "iet3.cli", "iet-info", "--l", "0.2,0.3,0.5",
         "--out", str(tmp_path)],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))})
    assert proc.returncode == 0
    assert "alpha" in proc.stdout


def test_witness_report_records_each_level_status(tmp_path, monkeypatch, doc_witness):
    # the documented three-level witness: level 3's switch fails its KR window
    # check (kr_A 0.0401, kr_B 0.0369 against 0.0325), which `passed` does not
    # gate on; the report now says so
    import iet3.construction
    monkeypatch.setattr(iet3.construction, "non_simplicity_witness", lambda *a, **k: doc_witness)
    code = run(["witness", "--alpha-cf", "doc-switch", "--levels", "3",
                "--atoms", "100000", "--seed", "7"], tmp_path)
    report = json.loads((tmp_path / "witness.json").read_text())
    assert ([lv["status"] for lv in report["schedule_levels"]]
            == ["verified", "verified", "constructed-but-unverified"])
    assert code == 0 and report["passed"] is True


def test_golden_witness_deterministic_failure(tmp_path):
    # badly approximable rotation numbers abort the schedule; the failure
    # report is still byte-deterministic across runs
    outs = []
    for name in ("w1", "w2"):
        out = tmp_path / name
        code = run_command(["witness", "--alpha-cf", "golden",
                            "--kappa", "0.769230769", "--levels", "3",
                            "--atoms", "2000", "--seed", "7", "--out", str(out)])
        assert code == 2
        outs.append((out / "witness.json").read_bytes())
    assert outs[0] == outs[1]


def _usage_failure(args, tmp, capsys):
    code = run(args, tmp)
    err = capsys.readouterr().err
    assert code == 1
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    return err


def test_orbit_zero_length_is_usage_error(tmp_path, capsys):
    err = _usage_failure(["orbit", "--l", "0.2,0.3,0.5", "--length", "0"], tmp_path, capsys)
    assert "--length" in err


def test_two_lengths_is_usage_error(tmp_path, capsys):
    err = _usage_failure(["iet-info", "--l", "0.2,0.3"], tmp_path, capsys)
    assert "--l" in err


def test_non_numeric_lengths_is_usage_error(tmp_path, capsys):
    err = _usage_failure(["iet-info", "--l", "a,b,c"], tmp_path, capsys)
    assert "--l" in err


def test_orbit_point_outside_domain_is_usage_error(tmp_path, capsys):
    err = _usage_failure(["orbit", "--l", "0.2,0.3,0.5", "--x", "1.5"], tmp_path, capsys)
    assert "--x" in err


def test_invalid_rotation_parameters_is_usage_error(tmp_path, capsys):
    err = _usage_failure(["iet-info", "--alpha", "0.3", "--kappa", "0.2"], tmp_path, capsys)
    assert "rotation parameters" in err


@pytest.mark.parametrize("args,alpha", [(["--alpha-cf", "0,4,8000"], 8000 / 32001),
                                        (["--alpha", "0.3"], 0.3),
                                        (["--alpha", "0.5"], 0.5)],
                         ids=["alpha-cf-0,4,8000", "alpha-0.3", "alpha-0.5"])
def test_default_kappa_is_valid(tmp_path, capsys, args, alpha):
    # kappa defaults to (1 + alpha) / 2 where that is valid (alpha > 1/3),
    # and to 1 - alpha / 2, the midpoint of (1 - alpha, 1], below it
    assert run(["iet-info"] + args, tmp_path) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["alpha"] == pytest.approx(alpha)
    assert out["kappa"] == pytest.approx((1 + alpha) / 2 if alpha > 1 / 3 else 1 - alpha / 2)


def test_missing_measure_file_is_usage_error(tmp_path, capsys):
    nu = tmp_path / "b.csv"
    nu.write_text("x,y,w\n0.4,0.2,1\n", encoding="utf-8")
    missing = tmp_path / "absent.csv"
    err = _usage_failure(["kr", "--mu", str(missing), "--nu", str(nu)], tmp_path, capsys)
    assert str(missing) in err


@pytest.mark.parametrize("row", ["nan,0.2,1", "0.1,0.2,nan"])
def test_non_finite_measure_is_usage_error(tmp_path, capsys, row):
    mu = tmp_path / "a.csv"
    nu = tmp_path / "b.csv"
    mu.write_text(f"x,y,w\n{row}\n", encoding="utf-8")
    nu.write_text("x,y,w\n0.4,0.2,1\n", encoding="utf-8")
    err = _usage_failure(["kr", "--mu", str(mu), "--nu", str(nu)], tmp_path, capsys)
    assert str(mu) in err and "finite" in err


@pytest.mark.parametrize("lengths", ["0,0,1", "1,0,0"])
def test_degenerate_lengths_is_usage_error(tmp_path, capsys, lengths):
    err = _usage_failure(["joining-sample", "--l", lengths, "--power", "1000000",
                          "--atoms", "10"], tmp_path, capsys)
    assert "degenerate" in err


@pytest.mark.parametrize("args", [["iet-info", "--l", "0.2,0.3,nan"],
                                  ["iet-info", "--l", "0.2,0.3,inf"],
                                  ["orbit", "--l", "0.2,0.3,nan"]],
                         ids=["iet-info-nan", "iet-info-inf", "orbit-nan"])
def test_non_finite_lengths_is_usage_error(tmp_path, capsys, args):
    # the IET is refused before any report is written: no NaN in the JSON,
    # and no failed verification for a point the lengths made NaN
    err = _usage_failure(args, tmp_path, capsys)
    assert "finite" in err
    assert not (tmp_path / f"{args[0]}.json").exists()


def test_two_interval_lengths_run(tmp_path):
    assert run(["joining-sample", "--l", "0,1,0", "--power", "1000000",
                "--atoms", "10"], tmp_path) == 0


@pytest.mark.parametrize("args", [["iet-info", "--l", "0.2,0.3,0.5", "--seed", "1"],
                                  ["kr", "--alpha-cf", "golden", "--mu", "a.csv",
                                   "--nu", "b.csv"],
                                  ["switch", "--alpha-cf", "doc-switch", "--levels", "2"]])
def test_undeclared_flag_is_usage_error(tmp_path, args):
    # each subcommand declares only the flags it reads
    with pytest.raises(SystemExit) as exc:
        run(args, tmp_path)
    assert exc.value.code == 1


@pytest.mark.parametrize("command", ["switch", "schedule"])
def test_zero_samples_is_usage_error(tmp_path, capsys, command):
    # a switch checked on no samples is not verified
    err = _usage_failure([command, "--alpha-cf", "doc-switch", "--samples", "0"],
                         tmp_path, capsys)
    assert "--samples" in err


# every subcommand that takes --seed
_SEEDED = ("joining-sample", "approx-powers", "weak-closure", "switch", "schedule", "witness")


@pytest.mark.parametrize("args, names", [
    (["witness", "--levels", "1"], "--levels"),
    (["joining-sample", "--atoms", "0"], "--atoms"),
    (["schedule", "--atoms", "0"], "--atoms"),
    (["switch", "--eps", "0.5"], "epsilon"),
    (["switch", "--a", "1", "--b", "1"], "a != b"),
    (["weak-closure", "--horizon", "0"], "--horizon"),
    (["approx-powers", "--bins", "0"], "--bins"),
    (["approx-powers", "--bins", "1"], "--bins"),
    (["joining-sample", "--heatmap", "-1"], "--heatmap"),
    (["tower", "--k-max", "0"], "--k-max"),
    *[([command, "--seed", "-1"], "--seed") for command in _SEEDED]],
    ids=["witness-levels", "joining-sample-atoms", "schedule-atoms", "switch-eps",
         "switch-equal-pair", "weak-closure-horizon", "approx-powers-bins",
         "approx-powers-one-bin",
         "joining-sample-heatmap", "tower-k-max",
         *[f"{command}-seed" for command in _SEEDED]])
def test_bad_numeric_input_is_usage_error(tmp_path, capsys, args, names):
    # a value outside its flag's range is bad input, not a failed verification
    err = _usage_failure(args + ["--alpha-cf", "golden"], tmp_path, capsys)
    assert names in err


_HUGE = "1000000000000"


@pytest.mark.parametrize("args", [
    ["orbit", "--length", _HUGE],
    ["joining-sample", "--atoms", _HUGE],
    ["joining-sample", "--atoms", "3", "--heatmap", "100000"],
    ["approx-powers", "--atoms", _HUGE],
    ["weak-closure", "--horizon", "5", "--atoms", _HUGE],
    ["schedule", "--atoms", _HUGE],
    ["witness", "--atoms", _HUGE]],
    ids=["orbit-length", "joining-sample-atoms", "joining-sample-heatmap",
         "approx-powers-atoms", "weak-closure-atoms", "schedule-atoms", "witness-atoms"])
def test_oversized_count_is_usage_error(tmp_path, capsys, args):
    # a count whose arrays cannot fit the documented host is refused before
    # anything is allocated, and the maximum it names is accepted
    out = tmp_path / "out"
    code = run_command(args + ["--alpha-cf", "golden", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1 and len(err.splitlines()) == 1
    assert err.startswith(f"error: {args[-2]} must be at most ")
    assert not out.exists()
    high = err.split("at most ")[1].split(",")[0]
    parsed = build_parser().parse_args(args[:-1] + [high])
    assert getattr(parsed, args[-2][2:]) == int(high)


@pytest.mark.parametrize("atoms, bins", [("1", "2"), ("3", "128")])
def test_too_few_atoms_for_the_bins_is_usage_error(tmp_path, capsys, atoms, bins):
    # no in-tower bin with a measured neighbor to read the coefficients from:
    # the input is too small, which is no failed verification
    out = tmp_path / "out"
    code = run_command(["approx-powers", "--alpha-cf", "doc-tower", "--atoms", atoms,
                        "--bins", bins, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1 and len(err.splitlines()) == 1
    assert err.startswith(f"error: --atoms {atoms} over --bins {bins} leaves no usable base bin")
    assert not out.exists()


@pytest.mark.parametrize("args, names", [
    (["schedule", "--alpha-cf", "doc-switch", "--eps", "0.5", "--levels", "1",
      "--atoms", "10", "--samples", "1"], "--eps"),
    (["switch", "--alpha-cf", "doc-switch", "--eps", "0"], "--eps"),
    (["renorm-find", "--alpha-cf", "golden", "--delta", "-1"], "--delta"),
    (["renorm-find", "--alpha-cf", "golden", "--t-max", "-5"], "--t-max"),
    (["renorm-find", "--alpha-cf", "golden", "--delta", "nan"], "--delta"),
    (["tower", "--alpha-cf", "golden", "--t-max", "0"], "--t-max"),
    (["approx-powers", "--alpha-cf", "golden", "--t-max", "inf"], "--t-max")],
    ids=["schedule-eps", "switch-eps-zero", "renorm-find-delta", "renorm-find-t-max",
         "renorm-find-delta-nan", "tower-t-max", "approx-powers-t-max-inf"])
def test_float_flag_out_of_range_is_usage_error(tmp_path, capsys, args, names):
    # each float flag declares its open range; outside it the command does
    # not run (a schedule no longer reports the rejected epsilon as a failed
    # verification, renorm-find no longer scans with a negative delta)
    err = _usage_failure(args, tmp_path, capsys)
    assert names in err
    assert not (tmp_path / f"{args[0]}.json").exists()


@pytest.mark.parametrize("flags", [["--l", "0.2,0.3,0.5", "--alpha", "0.9"],
                                   ["--l", "0.2,0.3,0.5", "--alpha-cf", "golden"],
                                   ["--l", "0.2,0.3,0.5", "--kappa", "0.1"],
                                   ["--alpha", "0.3", "--alpha-cf", "0,2,3"],
                                   ["--alpha-cf", "doc-switch", "--kappa", "0.9"],
                                   ["--alpha-cf", "doc-tower", "--kappa", "0.9"]],
                         ids=["l-alpha", "l-alpha-cf", "l-kappa", "alpha-alpha-cf",
                              "doc-switch-kappa", "doc-tower-kappa"])
def test_conflicting_iet_flags_is_usage_error(tmp_path, capsys, flags):
    _usage_failure(["iet-info"] + flags, tmp_path, capsys)


@pytest.mark.parametrize("digits", ["0,0", "1,0", "1,-2"])
def test_alpha_cf_digit_below_one_is_usage_error(tmp_path, capsys, digits):
    # a digit 0 after the first divides by zero, and a negative one gives
    # the continued fraction of another number (1,-2 is 0.5)
    err = _usage_failure(["iet-info", "--alpha-cf", digits], tmp_path, capsys)
    assert "--alpha-cf" in err
    assert not (tmp_path / "iet-info.json").exists()


def test_alpha_cf_digits_are_read(tmp_path, capsys):
    assert run(["iet-info", "--alpha-cf", "0,4,8000", "--kappa", "0.9"], tmp_path) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["alpha"] == pytest.approx(8000 / 32001)
    assert out["kappa"] == pytest.approx(0.9)


def test_golden_reads_kappa(tmp_path, capsys):
    assert run(["iet-info", "--alpha-cf", "golden", "--kappa", "0.7"], tmp_path) == 0
    assert json.loads(capsys.readouterr().out)["kappa"] == pytest.approx(0.7)


def test_approx_powers_of_a_power_joining(tmp_path):
    # --power N fits the tower coefficients to the graph joining of T^N
    assert run(["approx-powers", "--alpha-cf", "doc-tower", "--k-max", "2",
                "--atoms", "3000", "--power", "3"], tmp_path) == 0
    assert json.loads((tmp_path / "approx-powers.json").read_text())["coeff_total"] <= 1


def test_no_iet_flag_is_usage_error(tmp_path, capsys):
    err = _usage_failure(["iet-info"], tmp_path, capsys)
    assert err == "error: give the IET by --l, --alpha or --alpha-cf\n"
