"""The four benchmark workloads: their inputs, operations and output checks.

An operation is one or more in-process calls to ``tsp_qsearch.cli.main``.
Every flag the CLI has is passed explicitly, so a later change to a
default cannot change what a workload computes.  Inputs come from the
workload seed; every output is checked against ``reference.py`` and a
failed check is returned as an error message, never raised.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import time
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

import reference

ROOT = Path(__file__).resolve().parent.parent
METRICS_GOLDEN = ROOT / "tests" / "data" / "metrics_golden.json"
# sha256 of `inspect --n 4 --out` at the commit that introduced this benchmark.
INSPECT_N4_DUMP_SHA256 = "e54db3570abab7b13261d7ad4551b8ddcb938273da44eb1fcf5195ba78216d39"

TOLERANCE = 1e-9
DATASETS_PER_RUN = 8
MU, SIGMA = math.pi, 0.5
PHASE_MIN, PHASE_MAX = math.pi / 2, 3 * math.pi / 2
SHOTS = 1024


def op_seed(seed: int, i: int) -> int:
    """Seed of op i, the same for a given workload seed whatever ran before."""
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0] % 2**31)


def gaussian_phases(n: int, rng: np.random.Generator) -> dict[str, float]:
    """Identity tour at pi/2, reversed tour at 3*pi/2, others N(MU, SIGMA) inside."""
    tours = reference.feasible(n)
    phases = {tours[0]: PHASE_MIN, tours[-1]: PHASE_MAX}
    for bits in tours[1:-1]:
        value = float(rng.normal(MU, SIGMA))
        while not PHASE_MIN < value < PHASE_MAX:
            value = float(rng.normal(MU, SIGMA))
        phases[bits] = value
    return phases


def close(label: str, got: float, want: float) -> list[str]:
    return [] if abs(got - want) <= TOLERANCE else [f"{label}: {got!r}, reference {want!r}"]


def check_series(path: Path, p_min, p_max) -> list[str]:
    """CSV rows t,p_min,p_max,p_combined against reference p_min and p_max per t."""
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != "t,p_min,p_max,p_combined":
        return [f"{path.name}: bad header"]
    rows = [line.split(",") for line in lines[1:]]
    if [int(r[0]) for r in rows] != list(range(len(p_min))):
        return [f"{path.name}: rows are not t = 0..{len(p_min) - 1}"]
    errors = []
    for t, (_, lo, hi, both) in enumerate(rows):
        errors += close(f"{path.name} p_min[{t}]", float(lo), p_min[t])
        errors += close(f"{path.name} p_max[{t}]", float(hi), p_max[t])
        errors += close(f"{path.name} p_combined[{t}]", float(both), p_min[t] + p_max[t])
    return errors


def check_report(path: Path, expected: dict[str, float], fields: dict) -> list[str]:
    """Run report: requested fields, every probability, and counts summing to the shots."""
    report = json.loads(path.read_text(encoding="utf-8"))
    errors = [
        f"{path.name} {key}={report.get(key)!r}, requested {want!r}"
        for key, want in fields.items()
        if report.get(key) != want
    ]
    histogram = report["histogram"]
    if [e["bitstring"] for e in histogram] != sorted(expected):
        return errors + [f"{path.name}: histogram bitstrings differ from the reference"]
    for entry in histogram:
        errors += close(f"{path.name} p[{entry['bitstring']}]", entry["probability"], expected[entry["bitstring"]])
    counts = [entry.get("count") for entry in histogram]
    if not all(isinstance(c, int) and c >= 0 for c in counts):
        errors.append(f"{path.name}: counts are not non-negative integers")
    elif sum(counts) != fields["shots"]:
        errors.append(f"{path.name}: counts sum to {sum(counts)}, shots {fields['shots']}")
    # A draw of probability < 1e-12 in 1024 shots is a sampling defect, not chance.
    errors += [
        f"{path.name}: {e['count']} samples of {e['bitstring']}, reference probability {expected[e['bitstring']]!r}"
        for e in histogram
        if expected[e["bitstring"]] < 1e-12 and e.get("count")
    ]
    return errors


class Workload:
    """Inputs, operations and checks of one workload; `name`, `why` set by subclasses."""

    name = ""
    why = ""
    # Speed-probe parts that mirror the op (see speed.py).
    probe_parts = ("numpy", "python")

    def __init__(self, cli, workdir: Path, seed: int):
        self.cli = cli
        self.dir = workdir
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.prepare()

    def prepare(self) -> None:
        """Write the run's input files."""

    def commands(self, i: int) -> list[list[str]]:
        raise NotImplementedError

    def outputs(self) -> list[Path]:
        raise NotImplementedError

    def check(self, i: int, stdout: str) -> list[str]:
        raise NotImplementedError

    def execute(self, i: int, recorder=None) -> tuple[float, str, list[int]]:
        """Run op i; return its seconds, its stdout and the CLI exit codes."""
        out = io.StringIO()
        codes = []
        with redirect_stdout(out):
            start = time.perf_counter()
            for argv in self.commands(i):
                if recorder is None:
                    codes.append(self.cli.main(argv))
                else:
                    with recorder.span(f"cli.{argv[0]}"):
                        codes.append(self.cli.main(argv))
            seconds = time.perf_counter() - start
        return seconds, out.getvalue(), codes

    def bytes_written(self, stdout: str) -> int:
        return len(stdout.encode()) + sum(p.stat().st_size for p in self.outputs())


class CircuitWorkload(Workload):
    """Gate-level ops on a pool of seeded Gaussian datasets, used round-robin."""

    probe_parts = ("numpy",)  # over 90% of the op is the simulator
    n = 0
    q1 = 0
    steps = 0  # second-stage rounds the op simulates

    def prepare(self) -> None:
        self.datasets = []
        for j in range(DATASETS_PER_RUN):
            phases = gaussian_phases(self.n, self.rng)
            path = self.dir / f"phases-{j}.json"
            path.write_text(json.dumps({"n": self.n, "phases": phases}), encoding="utf-8")
            self.datasets.append((path, phases))
        self._expected = {}

    def dataset(self, i: int) -> tuple[Path, dict[str, float]]:
        return self.datasets[i % len(self.datasets)]

    def expected(self, i: int) -> list[np.ndarray]:
        j = i % len(self.datasets)
        if j not in self._expected:
            self._expected[j] = reference.circuit_distributions(
                self.datasets[j][1], self.n, self.q1, self.steps
            )
        return self._expected[j]


class CircuitRunN4(CircuitWorkload):
    name = "circuit-run-n4"
    why = "gate-level run at n=4: 15 qubits, 2048 gates on a 512 KiB state, per-gate kernel cost dominates"
    n, q1, steps = 4, 2, 2

    def prepare(self) -> None:
        super().prepare()
        self.report = self.dir / "run.json"

    def commands(self, i):
        return [[
            "run", "--mode", "circuit", "--n", str(self.n), "--dataset", str(self.dataset(i)[0]),
            "--cost-angles", "raw", "--q1", str(self.q1), "--q2", str(self.steps),
            "--shots", str(SHOTS), "--seed", str(op_seed(self.seed, i)), "--out", str(self.report),
        ]]

    def outputs(self):
        return [self.report]

    def check(self, i, stdout):
        probs = self.expected(i)[self.steps]
        width = self.n * reference.bits_per_city(self.n)
        expected = {format(j, f"0{width}b"): float(p) for j, p in enumerate(probs)}
        fields = {"n": self.n, "mode": "circuit", "q1": self.q1, "q2": self.steps,
                  "seed": op_seed(self.seed, i), "shots": SHOTS}
        return check_report(self.report, expected, fields)


class CircuitSweepN3(CircuitWorkload):
    name = "circuit-sweep-n3"
    why = "gate-level sweep at n=3: 4914 gates on a 4x smaller state with a readout per block, dispatch-bound"
    n, q1, steps = 3, 2, 10

    def prepare(self) -> None:
        super().prepare()
        self.csv = self.dir / "sweep.csv"

    def commands(self, i):
        return [[
            "sweep", "--mode", "circuit", "--n", str(self.n), "--dataset", str(self.dataset(i)[0]),
            "--cost-angles", "raw", "--q1", str(self.q1), "--t-max", str(self.steps), "--out", str(self.csv),
        ]]

    def outputs(self):
        return [self.csv]

    def check(self, i, stdout):
        phases = self.dataset(i)[1]
        lo = int(min(phases, key=phases.get), 2)
        hi = int(max(phases, key=phases.get), 2)
        probs = self.expected(i)
        return check_series(self.csv, [float(p[lo]) for p in probs], [float(p[hi]) for p in probs])


class MatrixScanN6(Workload):
    name = "matrix-scan-n6"
    why = "gen, matrix sweep and matrix run at n=6: dataset I/O, the ideal model and report JSON, no gates"
    n, q1, q2, t_max = 6, 14, 14, 28

    def prepare(self) -> None:
        self.phases_path = self.dir / "scan-phases.json"
        self.csv = self.dir / "scan.csv"
        self.report = self.dir / "scan.json"

    def commands(self, i):
        seed = str(op_seed(self.seed, i))
        common = ["--n", str(self.n), "--dataset", str(self.phases_path), "--cost-angles", "rescaled", "--q1", str(self.q1)]
        return [
            ["gen", "--n", str(self.n), "--mu", repr(MU), "--sigma", repr(SIGMA), "--seed", seed, "--out", str(self.phases_path)],
            ["sweep", "--mode", "matrix", *common, "--t-max", str(self.t_max), "--out", str(self.csv)],
            ["run", "--mode", "matrix", *common, "--q2", str(self.q2), "--shots", str(SHOTS), "--seed", seed, "--out", str(self.report)],
        ]

    def outputs(self):
        return [self.phases_path, self.csv, self.report]

    def check(self, i, stdout):
        payload = json.loads(self.phases_path.read_text(encoding="utf-8"))
        phases = {str(k): float(v) for k, v in payload["phases"].items()}
        tours = reference.feasible(self.n)
        if payload.get("n") != self.n or sorted(phases) != tours:
            return [f"{self.phases_path.name}: keys are not the {len(tours)} tours of n={self.n}"]
        interior = [phases[t] for t in tours[1:-1]]
        if (phases[tours[0]], phases[tours[-1]]) != (PHASE_MIN, PHASE_MAX) or not all(
            PHASE_MIN < v < PHASE_MAX for v in interior
        ):
            return [f"{self.phases_path.name}: extremes not pinned or interior outside (pi/2, 3pi/2)"]
        order, probs = reference.matrix_distributions(phases, self.t_max, rescale=True)
        lo, hi = order.index(tours[0]), order.index(tours[-1])
        errors = check_series(self.csv, [float(p[lo]) for p in probs], [float(p[hi]) for p in probs])
        fields = {"n": self.n, "mode": "matrix", "q1": self.q1, "q2": self.q2,
                  "seed": op_seed(self.seed, i), "shots": SHOTS}
        expected = dict(zip(order, map(float, probs[self.q2])))
        return errors + check_report(self.report, expected, fields)


class InspectN4(Workload):
    """Circuit metrics and text dump; the seed is unused because `inspect` takes no dataset."""

    name = "inspect-n4"
    why = "inspect at n=4: the circuit builders, metrics and text dump, otherwise under 5% of every op"

    def prepare(self) -> None:
        self.dump = self.dir / "dump.txt"
        self.golden = json.loads(METRICS_GOLDEN.read_text(encoding="utf-8"))["4"]

    def commands(self, i):
        return [["inspect", "--n", "4", "--out", str(self.dump)]]

    def outputs(self):
        return [self.dump]

    def check(self, i, stdout):
        printed = {}
        for line in stdout.splitlines()[1:]:
            name, _, rest = line.partition(": ")
            printed[name] = dict(item.split("=") for item in rest.split())
        errors = []
        for name, golden in self.golden.items():
            want = {"gates": golden["gates"], "unit_depth": golden["unit_depth"], **golden["gate_counts"]}
            got = {k: int(v) for k, v in printed.get(name, {}).items()}
            if got != want:
                errors.append(f"inspect {name}: printed {got}, golden {want}")
        digest = hashlib.sha256(self.dump.read_bytes()).hexdigest()
        if digest != INSPECT_N4_DUMP_SHA256:
            errors.append(f"inspect dump sha256 {digest} differs from the recorded digest")
        return errors


WORKLOADS = {w.name: w for w in (CircuitRunN4, CircuitSweepN3, MatrixScanN6, InspectN4)}
