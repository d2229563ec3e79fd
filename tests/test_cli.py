import csv
import gc
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tsp_qsearch import (
    Circuit,
    HoboLayout,
    PhaseAssignment,
    Schedule,
    build_two_step,
    builtin_phases,
    gen_gaussian_phases,
    load_phases,
    main_distribution,
    new_state,
    phases_to_json,
    run,
    sample,
    state_at,
    tour_state,
)
from tsp_qsearch import circuits, cli, simulator
from tsp_qsearch.cli import EXIT_CAPACITY, EXIT_DATA, EXIT_IO, EXIT_OK, main

from helpers import clear_builder_caches

PI_FLAG = "3.141592653589793"

# The sha256 of each `inspect --n N --out` dump.
DUMP_SHA256 = {
    2: "f8f6d0ac7d7aa9aa9b53b46721322a949f1bde094e07e187d7c6f9d6a47377da",
    3: "62c626fedbce7a553eac8c499f8cf17a6d1cdfa9f4ecdfc4ab6ded55abda0aa6",
    4: "e54db3570abab7b13261d7ad4551b8ddcb938273da44eb1fcf5195ba78216d39",
    # The only sizes with several out-of-range codes per slot (3 and 2).
    5: "8cc14957b927a4bca5f4926b7f161652c1b80f437172a33b3f5d31eb65a07342",
    6: "b8ecb7c2b9c252fff801d7f8f87866072f6a607cadf8987225e6d06364feea57",
}


# JSON values of every type, nested up to a few levels.
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def _broken_datasets(draw):
    """File contents that are no 3-city dataset: random bytes, or the
    builtin dataset's JSON with a wrong type (or an unusable integer) in
    `n`, in `phases`, or in one phase."""
    kind = draw(st.sampled_from(["bytes", "n", "phases", "phase"]))
    if kind == "bytes":
        return draw(st.sampled_from([b"", b"\xff\xfe", b'{"n": 3, "phases": '])) + draw(st.binary(max_size=64))
    n, phases = 3, dict(builtin_phases(3).phases)
    if kind == "n":
        n = draw(_JSON_VALUES.filter(lambda v: type(v) is not int) | st.integers().filter(lambda v: v != 3))
    elif kind == "phases":
        phases = draw(_JSON_VALUES.filter(lambda v: type(v) is not dict))
    else:
        not_numbers = _JSON_VALUES.filter(lambda v: type(v) not in (int, float))
        phases[draw(st.sampled_from(sorted(phases)))] = draw(not_numbers | st.integers(min_value=2**1024))
    return json.dumps({"n": n, "phases": phases}).encode()


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def run_fresh(argv) -> None:
    """Run one CLI command in a fresh Python process; it must exit 0."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys; from tsp_qsearch.cli import main; sys.exit(main(sys.argv[1:]))"
    result = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, timeout=60)
    assert result.returncode == EXIT_OK, result.stderr


class TestGen:
    def test_five_city_dataset(self, tmp_path):
        out = tmp_path / "p5.json"
        code = main(["gen", "--n", "5", "--mu", PI_FLAG, "--sigma", "0.5", "--seed", "42", "--out", str(out)])
        assert code == EXIT_OK
        phases = load_phases(out)
        assert phases.n == 5
        assert len(phases.phases) == 120

    def test_three_city_min_entry(self, tmp_path):
        out = tmp_path / "p3.json"
        assert main(["gen", "--n", "3", "--seed", "1", "--out", str(out)]) == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["phases"]["000110"] == pytest.approx(math.pi / 2, abs=1e-12)

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        flags = ["gen", "--n", "4", "--seed", "9", "--out"]
        assert main(flags + [str(a)]) == EXIT_OK
        assert main(flags + [str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_capacity(self, tmp_path, capsys):
        assert main(["gen", "--n", "7", "--out", str(tmp_path / "x.json")]) == EXIT_CAPACITY
        assert "error:" in capsys.readouterr().err

    def test_unwritable_path(self, tmp_path):
        out = tmp_path / "missing" / "x.json"
        assert main(["gen", "--n", "3", "--out", str(out)]) == EXIT_IO

    def test_distant_mean_is_a_data_error(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        assert main(["gen", "--n", "3", "--mu", "100", "--out", str(out)]) == EXIT_DATA
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()


class TestRun:
    def test_three_city_circuit_report(self, tmp_path):
        out = tmp_path / "r3.json"
        code = main(["run", "--n", "3", "--dataset", "builtin", "--mode", "circuit", "--out", str(out)])
        assert code == EXIT_OK
        report = json.loads(out.read_text())
        assert (report["n"], report["width"], report["q1"], report["q2"]) == (3, 13, 2, 1)
        assert report["mode"] == "circuit"
        assert report["shots"] == 1024
        total = sum(e["probability"] for e in report["histogram"])
        assert total == pytest.approx(1.0, abs=1e-9)
        assert sum(e["count"] for e in report["histogram"]) == 1024

    def test_four_city_circuit_report(self, tmp_path):
        out = tmp_path / "r4.json"
        code = main(["run", "--n", "4", "--dataset", "builtin", "--mode", "circuit", "--out", str(out)])
        assert code == EXIT_OK
        report = json.loads(out.read_text())
        assert (report["width"], report["q1"], report["q2"]) == (15, 2, 2)

    def test_no_builtin_for_five_cities(self, tmp_path, capsys):
        out = tmp_path / "r5.json"
        assert main(["run", "--n", "5", "--dataset", "builtin", "--out", str(out)]) == EXIT_DATA
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize(("n", "width"), [(5, 15), (6, 18)])
    def test_circuit_mode_capacity(self, command, n, width, tmp_path, capsys, monkeypatch):
        # The simulator refuses the main-register state before any circuit is built.
        def unreachable(*args, **kwargs):
            raise AssertionError("build_two_step called for an oversized circuit run")

        monkeypatch.setattr(cli, "build_two_step", unreachable)
        monkeypatch.setattr(simulator, "MAX_WIDTH", width - 1)
        dataset = tmp_path / f"p{n}.json"
        assert main(["gen", "--n", str(n), "--seed", "42", "--out", str(dataset)]) == EXIT_OK
        out = tmp_path / "out"
        code = main([command, "--n", str(n), "--dataset", str(dataset), "--mode", "circuit", "--out", str(out)])
        assert code == EXIT_CAPACITY
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert f"needs {width}" in err
        assert not out.exists()

    def test_five_city_circuit_report(self, tmp_path):
        # The paper's five-city run at gate level, on the 15-qubit main register.
        dataset, out = tmp_path / "p5.json", tmp_path / "c5.json"
        assert main(["gen", "--n", "5", "--seed", "42", "--out", str(dataset)]) == EXIT_OK
        assert main(["run", "--n", "5", "--dataset", str(dataset), "--mode", "circuit", "--out", str(out)]) == EXIT_OK
        report = json.loads(out.read_text())
        assert (report["width"], report["q1"], report["q2"]) == (41, 12, 6)
        dist = {e["bitstring"]: e["probability"] for e in report["histogram"]}
        assert len(dist) == 2**15
        phases = load_phases(dataset)
        assert sum(dist[bits] for bits in phases.phases) == pytest.approx(0.5905797642, abs=1e-9)
        assert dist[phases.min_key] == pytest.approx(0.0211215361, abs=1e-9)
        assert dist[phases.max_key] == pytest.approx(0.0295140642, abs=1e-9)

    def test_matrix_mode_capacity(self, tmp_path, capsys):
        # Any n=7 dataset is refused while its tours are enumerated.
        dataset = tmp_path / "p7.json"
        dataset.write_text(json.dumps({"n": 7, "phases": {"000001010011100101110": 1.0}}))
        out = tmp_path / "r7.json"
        code = main(["run", "--n", "7", "--dataset", str(dataset), "--mode", "matrix", "--out", str(out)])
        assert code == EXIT_CAPACITY
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    def test_matrix_run_histogram_covers_feasible_tours(self, tmp_path):
        dataset = tmp_path / "p5.json"
        main(["gen", "--n", "5", "--seed", "42", "--out", str(dataset)])
        out = tmp_path / "r5.json"
        code = main(["run", "--n", "5", "--dataset", str(dataset), "--out", str(out)])
        assert code == EXIT_OK
        report = json.loads(out.read_text())
        assert report["mode"] == "matrix"
        assert len(report["histogram"]) == 120
        phases = gen_gaussian_phases(5, math.pi, 0.5, 42)
        ranked = sorted(report["histogram"], key=lambda e: -e["probability"])
        assert {ranked[0]["bitstring"], ranked[1]["bitstring"]} == {phases.min_key, phases.max_key}

    def test_schedule_overrides(self, tmp_path):
        out = tmp_path / "r.json"
        code = main(["run", "--n", "3", "--mode", "circuit", "--q1", "1", "--q2", "0", "--out", str(out)])
        assert code == EXIT_OK
        report = json.loads(out.read_text())
        assert (report["q1"], report["q2"]) == (1, 0)

    def test_matrix_mode_ignores_q1(self, tmp_path):
        # The ideal model starts from the exact feasible superposition, so
        # --q1 is reported as given but moves no probability.
        reports = []
        for q1 in ("0", "7"):
            out = tmp_path / f"r{q1}.json"
            assert main(["run", "--n", "4", "--mode", "matrix", "--q1", q1, "--out", str(out)]) == EXIT_OK
            reports.append(json.loads(out.read_text()))
        assert [report["q1"] for report in reports] == [0, 7]
        assert reports[0]["histogram"] == reports[1]["histogram"]

    def test_malformed_dataset_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["run", "--n", "3", "--dataset", str(bad), "--out", str(tmp_path / "r.json")]) == EXIT_DATA

    def test_non_utf8_dataset_is_a_data_error(self, tmp_path, capsys):
        bad = tmp_path / "utf16.json"
        bad.write_bytes(b"\xff\xfe" + '{"n": 3}'.encode("utf-16-le"))
        assert main(["run", "--n", "3", "--dataset", str(bad), "--out", str(tmp_path / "r.json")]) == EXIT_DATA
        assert capsys.readouterr().err.startswith("error:")

    @settings(max_examples=150, deadline=None)
    @given(content=_broken_datasets())
    def test_broken_datasets_exit_with_a_documented_code(self, content):
        with tempfile.TemporaryDirectory() as tmp:
            dataset = Path(tmp) / "phases.json"
            dataset.write_bytes(content)
            err = io.StringIO()
            with redirect_stderr(err):
                code = main(["run", "--n", "3", "--dataset", str(dataset), "--out", str(Path(tmp) / "r.json")])
        assert code in (EXIT_IO, EXIT_CAPACITY, EXIT_DATA)
        assert err.getvalue().startswith("error:")
        assert "Traceback" not in err.getvalue()

    @pytest.mark.parametrize("file_n", [0, 1, 4, 7, 99])
    def test_dataset_city_count_mismatch(self, file_n, tmp_path, capsys):
        # A data error whatever the file's n, even one without tours to enumerate.
        dataset = tmp_path / "p.json"
        if file_n == 4:
            main(["gen", "--n", "4", "--seed", "1", "--out", str(dataset)])
        else:
            dataset.write_text(json.dumps({"n": file_n, "phases": {}}))
        out = tmp_path / "r.json"
        assert main(["run", "--n", "3", "--dataset", str(dataset), "--out", str(out)]) == EXIT_DATA
        assert capsys.readouterr().err.startswith("error: dataset is ")
        assert not out.exists()

    def test_rescaled_rejected_in_circuit_mode(self, tmp_path):
        code = main([
            "run", "--n", "3", "--mode", "circuit", "--cost-angles", "rescaled",
            "--out", str(tmp_path / "r.json"),
        ])
        assert code == EXIT_DATA

    @pytest.mark.parametrize("mode", ["circuit", "matrix"])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("max_width", [simulator.MAX_WIDTH, 64])
    def test_auto_cost_angles_rescale_only_matrix_runs_from_five_cities(self, n, mode, max_width, monkeypatch):
        # Raw wherever a circuit run can be compared, whatever the simulator holds.
        monkeypatch.setattr(simulator, "MAX_WIDTH", max_width)
        assert cli._resolve_rescale("auto", mode, n) is ((n, mode) in {(5, "matrix"), (6, "matrix")})

    def test_norm_drift_writes_no_report(self, tmp_path, capsys, monkeypatch):
        # With no tolerance every state has drifted.  A real drift is
        # reproduced on the library's exact path in test_simulator.
        monkeypatch.setattr(simulator, "NORM_TOLERANCE", 0.0)
        out = tmp_path / "drift.json"
        code = main(["run", "--n", "3", "--mode", "circuit", "--out", str(out)])
        assert code == EXIT_CAPACITY
        err = capsys.readouterr().err
        assert err.startswith("error: state norm drifted") and err.count("\n") == 1
        assert not out.exists()

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        flags = ["run", "--n", "3", "--dataset", "builtin", "--mode", "circuit", "--seed", "7"]
        assert main(flags + ["--out", str(a)]) == EXIT_OK
        assert main(flags + ["--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_second_run_reuses_the_first_stage_plan(self, tmp_path, monkeypatch):
        # G1 is one object per layout, so its compiled plan outlives a run.
        calls = []
        compile_ = simulator._compile
        monkeypatch.setattr(simulator, "_compile", lambda *args: calls.append(1) or compile_(*args))
        clear_builder_caches()
        flags = ["run", "--n", "4", "--dataset", "builtin", "--mode", "circuit", "--out", str(tmp_path / "r.json")]
        assert main(flags) == EXIT_OK
        # Two runs of leaves: G1's leaves, and D2's centre (inverse H layer,
        # zero reflection, H layer).  The run starts in |s>, after the
        # opening H layer, on the tours and one value off them, whose plan
        # maps the main register's; R2 is read from its table, and each D2
        # folds into one reflection whose class runs G1's plan, so G1's
        # inverse is never compiled.
        assert len(calls) == 2
        layout = HoboLayout.for_cities(4)
        inverse = circuits.invert_circuit(circuits.build_g1(layout))
        # Plans are kept by the form of the state they run on.
        assert not {layout.main_qubits, simulator._TOURS} & vars(inverse).get("_plans", {}).keys()
        assert vars(circuits.build_g1(layout))["_plans"][simulator._TOURS] is not None
        assert main(flags) == EXIT_OK
        # Each of those is kept per layout, so the second run compiles nothing.
        assert len(calls) == 2
        # A full-width run does not fold D2: it runs, and so compiles, the inverse.
        run(build_two_step(layout, builtin_phases(4), Schedule(2, 2)), new_state(layout.width))
        plans = vars(inverse)["_plans"]
        assert plans[layout.width] is not None and layout.main_qubits not in plans


class TestSweep:
    def test_matrix_sweep_row_count(self, tmp_path):
        out = tmp_path / "s3.csv"
        code = main(["sweep", "--n", "3", "--dataset", "builtin", "--mode", "matrix", "--t-max", "10", "--out", str(out)])
        assert code == EXIT_OK
        rows = read_csv(out)
        assert len(rows) == 11
        assert rows[0]["t"] == "0"
        assert float(rows[0]["p_combined"]) == pytest.approx(2 / 6, abs=1e-12)

    def test_circuit_and_matrix_sweeps_agree(self, tmp_path):
        # Interior iteration range; the endpoint behaviour is documented
        # in the acceptance suite.
        circuit_csv, matrix_csv = tmp_path / "c.csv", tmp_path / "m.csv"
        for mode, path in (("circuit", circuit_csv), ("matrix", matrix_csv)):
            code = main(["sweep", "--n", "4", "--dataset", "builtin", "--mode", mode, "--t-max", "3", "--out", str(path)])
            assert code == EXIT_OK
        for row_c, row_m in zip(read_csv(circuit_csv), read_csv(matrix_csv)):
            assert float(row_c["p_combined"]) == pytest.approx(float(row_m["p_combined"]), abs=1e-3)

    @pytest.mark.parametrize("n", [3, 4])
    def test_circuit_sweep_rows_are_the_runs_probabilities(self, n, tmp_path):
        phases = builtin_phases(n)
        sweep_csv = tmp_path / "s.csv"
        code = main(["sweep", "--n", str(n), "--dataset", "builtin", "--mode", "circuit", "--t-max", "5", "--out", str(sweep_csv)])
        assert code == EXIT_OK
        rows = read_csv(sweep_csv)
        assert len(rows) == 6
        for t, row in enumerate(rows):
            report = tmp_path / f"r{t}.json"
            code = main(["run", "--n", str(n), "--dataset", "builtin", "--mode", "circuit", "--q2", str(t), "--out", str(report)])
            assert code == EXIT_OK
            dist = {e["bitstring"]: e["probability"] for e in json.loads(report.read_text())["histogram"]}
            expect = (dist[phases.min_key].hex(), dist[phases.max_key].hex())
            assert (float(row["p_min"]).hex(), float(row["p_max"]).hex()) == expect, f"t={t}"

    def test_five_city_peak_window(self, tmp_path):
        dataset = tmp_path / "p5.json"
        main(["gen", "--n", "5", "--seed", "42", "--out", str(dataset)])
        out = tmp_path / "s5.csv"
        code = main(["sweep", "--n", "5", "--mode", "matrix", "--dataset", str(dataset), "--out", str(out)])
        assert code == EXIT_OK
        combined = [float(r["p_combined"]) for r in read_csv(out)]
        peak = next(
            t for t in range(len(combined))
            if (t == 0 or combined[t] >= combined[t - 1])
            and (t == len(combined) - 1 or combined[t] >= combined[t + 1])
        )
        assert 5 <= peak <= 8

    def test_norm_drift_is_a_capacity_error(self, tmp_path, capsys, monkeypatch):
        # With no tolerance every state has drifted.  A real drift is
        # reproduced on the library's exact path in test_simulator.
        monkeypatch.setattr(simulator, "NORM_TOLERANCE", 0.0)
        out = tmp_path / "drift.csv"
        code = main(["sweep", "--n", "3", "--mode", "circuit", "--t-max", "0", "--out", str(out)])
        assert code == EXIT_CAPACITY
        err = capsys.readouterr().err
        assert err.startswith("error: state norm drifted") and err.count("\n") == 1
        assert not out.exists()

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        flags = ["sweep", "--n", "3", "--dataset", "builtin", "--mode", "matrix", "--t-max", "6"]
        assert main(flags + ["--out", str(a)]) == EXIT_OK
        assert main(flags + ["--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()


class TestDatasetKeyOrder:
    @pytest.mark.parametrize("command", [["run"], ["sweep", "--t-max", "12"]])
    def test_reversed_keys_give_the_same_bytes(self, command, tmp_path):
        # The model reads tours in the dataset's order, which loading makes
        # the enumeration order whatever order the file lists them in.
        sorted_path, reversed_path = tmp_path / "sorted.json", tmp_path / "reversed.json"
        assert main(["gen", "--n", "4", "--seed", "3", "--out", str(sorted_path)]) == EXIT_OK
        payload = json.loads(sorted_path.read_text())
        payload["phases"] = dict(reversed(payload["phases"].items()))
        reversed_path.write_text(json.dumps(payload))
        outputs = []
        for dataset in (sorted_path, reversed_path):
            out = tmp_path / f"{dataset.stem}.out"
            flags = command + ["--n", "4", "--mode", "matrix", "--dataset", str(dataset), "--out", str(out)]
            assert main(flags) == EXIT_OK
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


class TestInspect:
    def test_three_city_metrics(self, capsys):
        assert main(["inspect", "--n", "3"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "width=13" in out
        assert "q1=2 q2=1" in out
        for name in ("G1:", "G2:", "total:"):
            assert name in out

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_printed_counts_match_golden(self, n, capsys):
        golden = json.loads((Path(__file__).parent / "data" / "metrics_golden.json").read_text())
        assert main(["inspect", "--n", str(n)]) == EXIT_OK
        out = capsys.readouterr().out
        for name in ("G1", "G2", "total"):
            expect = golden[str(n)][name]
            counts = " ".join(f"{kind}={count}" for kind, count in sorted(expect["gate_counts"].items()))
            assert f"{name}: gates={expect['gates']} unit_depth={expect['unit_depth']} {counts}" in out

    def test_four_city_metrics(self, capsys):
        assert main(["inspect", "--n", "4"]) == EXIT_OK
        assert "width=15" in capsys.readouterr().out

    def test_capacity(self, capsys):
        assert main(["inspect", "--n", "7"]) == EXIT_CAPACITY
        capsys.readouterr()

    def test_gate_dump(self, tmp_path, capsys):
        out = tmp_path / "c3.txt"
        assert main(["inspect", "--n", "3", "--out", str(out)]) == EXIT_OK
        capsys.readouterr()
        lines = out.read_text().splitlines()
        assert lines[0] == "width=13 n=3 k=2"
        assert lines[1] == "X controls=[] target=12"  # marker preparation
        assert lines[2] == "H controls=[] target=12"

    @pytest.mark.parametrize("n, digest", DUMP_SHA256.items())
    def test_gate_dump_is_byte_identical(self, n, digest, tmp_path, capsys):
        out = tmp_path / "dump.txt"
        assert main(["inspect", "--n", str(n), "--out", str(out)]) == EXIT_OK
        capsys.readouterr()
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_a_second_dump_formats_only_the_cost_oracle(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "dump.txt"
        assert main(["inspect", "--n", "4", "--out", str(out)]) == EXIT_OK
        calls = []
        gate_line, mcp = circuits._gate_line, circuits.mcp
        monkeypatch.setattr(circuits, "_gate_line", lambda gate: calls.append("_gate_line") or gate_line(gate))
        monkeypatch.setattr(circuits, "mcp", lambda *args: calls.append("mcp") or mcp(*args))
        assert main(["inspect", "--n", "4", "--out", str(out)]) == EXIT_OK
        capsys.readouterr()
        # The cost oracle's lines come from its table and its key set's entry.
        assert calls == []
        assert hashlib.sha256(out.read_bytes()).hexdigest() == DUMP_SHA256[4]

    def test_alternating_dumps_keep_their_bytes(self, tmp_path, capsys):
        for i, n in enumerate([3, 4, 3, 4, 3]):
            out = tmp_path / f"dump-{i}.txt"
            assert main(["inspect", "--n", str(n), "--out", str(out)]) == EXIT_OK
            assert hashlib.sha256(out.read_bytes()).hexdigest() == DUMP_SHA256[n]
        capsys.readouterr()


class TestRepeatedCommands:
    def test_no_circuit_outlives_its_command(self, tmp_path, capsys):
        # A circuit and its inverse hold each other; the cyclic collector frees them.
        commands = [
            ["run", "--n", "4", "--mode", "circuit", "--out", str(tmp_path / "r.json")],
            ["sweep", "--n", "3", "--mode", "circuit", "--out", str(tmp_path / "s.csv")],
            ["inspect", "--n", "4"],
        ]

        def live_circuits():
            gc.collect()
            return sum(isinstance(obj, Circuit) for obj in gc.get_objects())

        for flags in commands:
            assert main(flags) == EXIT_OK
        warm = live_circuits()
        for _ in range(10):
            for flags in commands:
                assert main(flags) == EXIT_OK
        capsys.readouterr()
        assert live_circuits() == warm


class TestDatasetReuse:
    """The CLI keeps the last dataset text it wrote or parsed, with its phases."""

    @staticmethod
    def pipeline(folder: Path) -> list[list[str]]:
        dataset = str(folder / "p4.json")
        on_it = ["--n", "4", "--dataset", dataset]
        return [
            ["gen", "--n", "4", "--seed", "5", "--out", dataset],
            ["sweep", "--mode", "matrix", *on_it, "--t-max", "6", "--out", str(folder / "s.csv")],
            ["run", "--mode", "matrix", *on_it, "--seed", "3", "--out", str(folder / "m.json")],
            ["run", "--mode", "circuit", *on_it, "--seed", "3", "--out", str(folder / "c.json")],
        ]

    def test_one_process_writes_what_fresh_processes_write(self, tmp_path):
        one, fresh = tmp_path / "one", tmp_path / "fresh"
        one.mkdir()
        fresh.mkdir()
        for argv in self.pipeline(one):
            assert main(argv) == EXIT_OK
        for argv in self.pipeline(fresh):
            run_fresh(argv)
        for name in ("p4.json", "s.csv", "m.json", "c.json"):
            assert (one / name).read_bytes() == (fresh / name).read_bytes(), name

    def test_a_hit_neither_parses_nor_validates(self, tmp_path, monkeypatch):
        dataset = tmp_path / "p.json"
        assert main(["gen", "--n", "4", "--seed", "5", "--out", str(dataset)]) == EXIT_OK
        calls = []
        loads, validate = json.loads, PhaseAssignment.__post_init__
        monkeypatch.setattr(json, "loads", lambda *args, **kwargs: calls.append("loads") or loads(*args, **kwargs))
        monkeypatch.setattr(PhaseAssignment, "__post_init__", lambda self: calls.append("validate") or validate(self))
        on_it = ["--n", "4", "--mode", "matrix", "--dataset", str(dataset)]
        assert main(["sweep", *on_it, "--out", str(tmp_path / "s.csv")]) == EXIT_OK
        assert main(["run", *on_it, "--out", str(tmp_path / "r.json")]) == EXIT_OK
        assert calls == []
        assert list(cli._last_dataset) == [dataset.read_text(encoding="utf-8")]

    def test_one_dataset_is_kept(self, tmp_path):
        paths = [tmp_path / f"p{seed}.json" for seed in range(3)]
        for seed, path in enumerate(paths):
            assert main(["gen", "--n", "3", "--seed", str(seed), "--out", str(path)]) == EXIT_OK
            assert list(cli._last_dataset) == [path.read_text(encoding="utf-8")]
        for path in paths + paths[::-1]:
            assert main(["run", "--n", "3", "--dataset", str(path), "--out", str(tmp_path / "r.json")]) == EXIT_OK
            assert list(cli._last_dataset) == [path.read_text(encoding="utf-8")]
        # The builtin dataset is no file, so it leaves the kept one in place.
        assert main(["run", "--n", "3", "--out", str(tmp_path / "r.json")]) == EXIT_OK
        assert list(cli._last_dataset) == [paths[0].read_text(encoding="utf-8")]

    @pytest.mark.parametrize("rewrite", ["gen", "library"])
    def test_a_rewritten_file_is_read_again(self, rewrite, tmp_path, monkeypatch):
        dataset, out = tmp_path / "p.json", tmp_path / "r.json"
        argv = ["run", "--n", "4", "--mode", "matrix", "--dataset", str(dataset), "--out", str(out)]
        assert main(["gen", "--n", "4", "--seed", "1", "--out", str(dataset)]) == EXIT_OK
        assert main(argv) == EXIT_OK
        first = out.read_bytes()
        if rewrite == "gen":
            assert main(["gen", "--n", "4", "--seed", "2", "--out", str(dataset)]) == EXIT_OK
        else:
            dataset.write_text(phases_to_json(gen_gaussian_phases(4, math.pi, 0.5, 2)), encoding="utf-8")
        parsed = []
        loads = json.loads
        monkeypatch.setattr(json, "loads", lambda *args, **kwargs: parsed.append(1) or loads(*args, **kwargs))
        assert main(argv) == EXIT_OK
        # `gen` keeps what it wrote; a file written by anything else is parsed.
        assert len(parsed) == (rewrite == "library")
        psi = state_at(gen_gaussian_phases(4, math.pi, 0.5, 2), 2)
        histogram = json.loads(out.read_text())["histogram"]
        assert [row["probability"] for row in histogram] == [abs(a) ** 2 for a in psi.tolist()]
        assert out.read_bytes() != first

    @pytest.mark.parametrize(
        ("content", "message"),
        [
            (b"{not json", "error: malformed phase dataset: "),
            (b"\xff\xfe" + '{"n": 3}'.encode("utf-16-le"), "error: phase dataset is not UTF-8 text: "),
        ],
    )
    def test_bad_files_after_a_hit_are_still_data_errors(self, content, message, tmp_path, capsys, monkeypatch):
        dataset, out = tmp_path / "p.json", tmp_path / "r.json"
        argv = ["run", "--n", "3", "--dataset", str(dataset), "--out", str(out)]
        assert main(["gen", "--n", "3", "--out", str(dataset)]) == EXIT_OK
        assert main(argv) == EXIT_OK
        out.unlink()
        dataset.write_bytes(content)
        errors = []
        for kept in (cli._last_dataset, {}):
            monkeypatch.setattr(cli, "_last_dataset", kept)
            capsys.readouterr()
            assert main(argv) == EXIT_DATA
            errors.append(capsys.readouterr().err)
        assert errors[0].startswith(message)
        assert errors[0] == errors[1]
        assert not out.exists()

    def test_a_kept_dataset_for_another_n_is_a_data_error(self, tmp_path, capsys, monkeypatch):
        dataset, out = tmp_path / "p3.json", tmp_path / "r.json"
        assert main(["gen", "--n", "3", "--out", str(dataset)]) == EXIT_OK
        errors = []
        for kept in (cli._last_dataset, {}):
            monkeypatch.setattr(cli, "_last_dataset", kept)
            assert main(["run", "--n", "4", "--dataset", str(dataset), "--out", str(out)]) == EXIT_DATA
            errors.append(capsys.readouterr().err)
        assert errors == ["error: dataset is for n=3, requested n=4\n"] * 2
        assert not out.exists()


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--n", "3", "--q1", "abc"],
            ["run", "--n", "3", "--q1", "-2"],
            ["run", "--n", "3", "--q2", "-1"],
            ["run", "--n", "3", "--shots", "0"],
            ["run", "--n", "3", "--seed", "-1"],
            ["sweep", "--n", "3", "--mode", "matrix", "--t-max", "-1"],
            ["sweep", "--n", "3", "--mode", "circuit", "--t-max", "-1"],
            ["sweep", "--n", "3", "--mode", "circuit", "--q1", "-1"],
            ["gen", "--n", "3", "--sigma", "0"],
            ["gen", "--n", "3", "--sigma", "nan"],
            ["gen", "--n", "3", "--mu", "inf"],
            ["gen", "--n", "3", "--seed", "-1"],
            # Counts beyond what numpy's multinomial or islice accept.
            ["run", "--n", "3", "--shots", str(10**20)],
            ["run", "--n", "3", "--q1", str(10**20)],
            ["run", "--n", "3", "--q2", str(10**20)],
            ["run", "--n", "3", "--mode", "circuit", "--q1", str(10**20)],
            ["sweep", "--n", "3", "--mode", "circuit", "--q1", str(10**20)],
            ["sweep", "--n", "3", "--mode", "matrix", "--t-max", str(10**20)],
            ["sweep", "--n", "3", "--mode", "matrix", "--t-max", str(sys.maxsize)],
        ],
    )
    def test_rejected_by_the_parser(self, argv, tmp_path, capsys):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert "error:" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_parser_still_works_after_a_usage_error(self, tmp_path, capsys):
        # The parser is built once per process, so a rejected command line
        # must leave nothing behind for the next call.
        with pytest.raises(SystemExit) as exc:
            main(["run", "--n", "3", "--q1", "-1", "--out", str(tmp_path / "bad.json")])
        assert exc.value.code == 2
        argv = ["run", "--n", "3", "--mode", "circuit"]
        assert main(argv + ["--out", str(tmp_path / "same.json")]) == EXIT_OK
        run_fresh(argv + ["--out", str(tmp_path / "fresh.json")])
        assert (tmp_path / "same.json").read_bytes() == (tmp_path / "fresh.json").read_bytes()


class TestRunReportRoundTrip:
    def test_report_is_one_line_with_sorted_keys(self, tmp_path):
        out = tmp_path / "r.json"
        main(["run", "--n", "3", "--dataset", "builtin", "--mode", "circuit", "--out", str(out)])
        text = out.read_text()
        assert text.endswith("}\n") and text.count("\n") == 1
        payload = json.loads(text)
        assert list(payload) == sorted(payload)
        assert all(list(e) == sorted(e) for e in payload["histogram"])
        assert text.startswith('{"histogram":[{"bitstring":"000000","count":0,"probability":')

    def test_report_holds_exactly_the_documented_fields(self, tmp_path):
        out = tmp_path / "r.json"
        main(["run", "--n", "3", "--dataset", "builtin", "--mode", "matrix", "--seed", "5", "--out", str(out)])
        payload = json.loads(out.read_text())
        histogram = payload.pop("histogram")
        assert payload == {"n": 3, "k": 2, "width": 13, "q1": 2, "q2": 1, "mode": "matrix", "seed": 5, "shots": 1024}
        assert all(set(e) == {"bitstring", "probability", "count"} for e in histogram)
        assert all(type(e["count"]) is int and type(e["probability"]) is float for e in histogram)

    @pytest.mark.parametrize("mode", ["circuit", "matrix"])
    def test_histogram_sorted_by_bitstring(self, mode, tmp_path):
        # The writer does not sort. Circuit rows come by basis index; matrix
        # rows come in the dataset's canonical order, here from a file that
        # lists the tours in reverse.
        dataset = "builtin"
        if mode == "matrix":
            dataset = tmp_path / "reversed.json"
            dataset.write_text(json.dumps({"n": 3, "phases": dict(reversed(builtin_phases(3).phases.items()))}))
        out = tmp_path / "r.json"
        assert main(["run", "--n", "3", "--dataset", str(dataset), "--mode", mode, "--out", str(out)]) == EXIT_OK
        payload = json.loads(out.read_text())
        keys = [e["bitstring"] for e in payload["histogram"]]
        assert keys == sorted(keys)
        assert len(keys) == (64 if mode == "circuit" else 6)

    @pytest.mark.parametrize(
        "mode, n, flags",
        [
            ("circuit", 2, []),
            ("circuit", 3, []),
            ("circuit", 4, []),
            ("circuit", 4, ["--q2", "0"]),
            ("matrix", 3, []),
            ("matrix", 4, []),
            ("matrix", 5, []),
        ],
    )
    def test_report_reserialises_to_its_own_bytes(self, mode, n, flags, tmp_path):
        # The hand-written rows read back and write out as `json` writes them.
        dataset = "builtin"
        if n not in (3, 4):
            dataset = tmp_path / "phases.json"
            assert main(["gen", "--n", str(n), "--out", str(dataset)]) == EXIT_OK
        out = tmp_path / "r.json"
        flags = ["run", "--n", str(n), "--mode", mode, "--dataset", str(dataset), "--out", str(out)] + flags
        assert main(flags) == EXIT_OK
        text = out.read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), sort_keys=True, separators=(",", ":")) + "\n"

    @pytest.mark.parametrize("mode, n", [("circuit", 3), ("matrix", 5)])
    def test_floats_and_counts_are_the_library_values(self, mode, n, tmp_path):
        # The text carries every probability bit for bit, and every count
        # is the seeded sample of exactly those probabilities.
        dataset = tmp_path / "phases.json"
        assert main(["gen", "--n", str(n), "--seed", "42", "--out", str(dataset)]) == EXIT_OK
        out = tmp_path / "r.json"
        assert main(["run", "--n", str(n), "--mode", mode, "--dataset", str(dataset), "--out", str(out)]) == EXIT_OK
        report = json.loads(out.read_text())
        phases = load_phases(dataset)
        layout = HoboLayout.for_cities(n)
        if mode == "circuit":
            circuit = build_two_step(layout, phases, Schedule(report["q1"], report["q2"]))
            # As the CLI runs it: on the main register's tours and one value
            # off them in |s>, whose state holds the marker prepared, without
            # the circuit's marker preparation and H layer.
            circuit = Circuit(layout, parts=circuit.parts[2:])
            dist = main_distribution(run(circuit, tour_state(layout)), layout)
        else:
            psi = state_at(phases, report["q2"], rescale_costs=True)
            dist = {b: float(abs(a) ** 2) for b, a in zip(phases.phases, psi)}
        counts = dict(zip(dist, sample(list(dist.values()), report["shots"], report["seed"]).tolist()))
        assert [e["bitstring"] for e in report["histogram"]] == sorted(dist)
        assert [e["probability"].hex() for e in report["histogram"]] == [dist[b].hex() for b in sorted(dist)]
        assert [e["count"] for e in report["histogram"]] == [counts[b] for b in sorted(dist)]


# Report rows as the CLI writes them: 0/1 bitstrings, non-negative counts and
# finite probabilities >= +0.0, drawn from a small pool so that values repeat.
@st.composite
def _report_rows(draw):
    pool = draw(st.lists(st.floats(min_value=0.0, allow_nan=False, allow_infinity=False), min_size=1, max_size=4))
    width = draw(st.integers(min_value=1, max_value=8))
    bitstring = st.text(alphabet="01", min_size=width, max_size=width)
    return draw(st.lists(st.tuples(bitstring, st.sampled_from(pool), st.integers(min_value=0)), max_size=12))


_REPORT_HEADERS = st.dictionaries(
    st.sampled_from(["k", "mode", "n", "q1", "q2", "seed", "shots", "width"]),
    st.integers() | st.text(max_size=8),
    min_size=1,
)


class TestReportWriter:
    @settings(max_examples=300, deadline=None)
    @given(header=_REPORT_HEADERS, rows=_report_rows())
    # Zero, the smallest subnormal, the point where repr switches to
    # exponent notation, small probabilities of the kind the infeasible rows
    # of a circuit report share (the second is the builtin n=4 report's),
    # and the point where repr switches to exponent notation for large floats.
    @example(header={"n": 4}, rows=[("00", 0.0, 0), ("01", 0.0, 3)])
    @example(header={"n": 4}, rows=[("00", 5e-324, 1), ("01", 5e-324, 0)])
    @example(header={"n": 4}, rows=[("00", 1e-05, 2), ("01", 1e-05, 5), ("10", 9.999999999999999e-06, 1)])
    @example(
        header={"n": 4},
        rows=[("00", 1.801374171512899e-05, 0), ("01", 1.801374171512899e-05, 1), ("10", 1.8505084683810948e-05, 2)],
    )
    @example(header={"n": 4}, rows=[("00", 1e16, 7), ("01", 1e16, 0), ("10", 1e15, 0)])
    def test_matches_json_dumps_of_the_row_dicts(self, header, rows):
        histogram = [{"bitstring": b, "probability": p, "count": c} for b, p, c in rows]
        expected = json.dumps(dict(header, histogram=histogram), sort_keys=True, separators=(",", ":")) + "\n"
        columns = [list(column) for column in zip(*rows)] or [[], [], []]
        assert cli._report_json(header, *columns) == expected
