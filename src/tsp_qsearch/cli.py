"""Command-line front end: dataset generation, search runs, sweeps.

Four subcommands cover the full experiment pipeline:

* ``gen``     writes a seeded Gaussian cost-phase dataset as JSON.
* ``run``     executes one search (gate-level circuit or operator-level
              reference model) and writes a JSON run report.
* ``sweep``   tabulates extreme-tour success probability against the
              second-stage iteration count as CSV.
* ``inspect`` prints circuit size metrics and optionally dumps the gate
              list as text.

Every command is deterministic given its flags.  Exit codes: 0 success,
2 usage error (argparse, including a count beyond sys.maxsize) or I/O
failure, 3 capacity exceeded (also an iteration count whose round-off
drifts the state norm past 1e-10), 4 unavailable or malformed data.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from .circuits import Circuit, build_g1, build_g2, build_two_step, circuit_to_text, metrics
from .core import (
    MAX_ENUM_CITIES,
    CapacityError,
    DatasetError,
    HoboLayout,
    PhaseAssignment,
    Schedule,
    builtin_phases,
    gen_gaussian_phases,
    optimal_q1,
    optimal_q2,
    phases_from_json,
    read_phases_text,
    save_phases,
)
from .matrix_model import ProbabilitySeries, evolve, series_to_csv, state_at
from .simulator import NormError, main_probabilities, run, sample, tour_probabilities, tour_state

EXIT_OK = 0
EXIT_IO = 2
EXIT_CAPACITY = 3
EXIT_DATA = 4


# The last dataset text this process wrote or parsed, mapped to its
# validated phases, so that `sweep` and `run` on the file `gen` just wrote
# parse nothing.  The key is the whole text: a file rewritten at the same
# path is parsed again.
_last_dataset: dict[str, PhaseAssignment] = {}


def _keep_dataset(text: str, phases: PhaseAssignment) -> None:
    _last_dataset.clear()
    _last_dataset[text] = phases


def _load_dataset(dataset: str, n: int) -> PhaseAssignment:
    if dataset == "builtin":
        phases = builtin_phases(n)
    else:
        text = read_phases_text(dataset)
        phases = _last_dataset.get(text)
        if phases is None:
            try:
                phases = phases_from_json(text)
            except CapacityError as exc:
                # Loading enumerates the tours of the file's n, which fails only
                # outside 2..MAX_ENUM_CITIES; under an n inside it, the file is for another n.
                if 2 <= n <= MAX_ENUM_CITIES:
                    raise DatasetError(f"dataset is not for n={n}: {exc}") from exc
                raise
            _keep_dataset(text, phases)
    if phases.n != n:
        raise DatasetError(f"dataset is for n={phases.n}, requested n={n}")
    return phases


def _resolve_rescale(cost_angles: str, mode: str, n: int) -> bool:
    """Map the --cost-angles policy to a concrete convention.

    ``auto`` keeps the stored values as angles for every circuit run,
    which applies them as gate angles, and for matrix-model runs up to
    n = 4; matrix-model runs from n = 5 take the rescaled reference
    convention.
    """
    if cost_angles == "raw":
        return False
    if cost_angles == "rescaled":
        if mode == "circuit":
            raise DatasetError(
                "circuit mode applies stored cost values as gate angles; "
                "--cost-angles rescaled is matrix-mode only"
            )
        return True
    return mode == "matrix" and n >= 5


def _schedule(n: int, q1: int | None = None, q2: int | None = None) -> Schedule:
    """The given iteration counts; a missing one is the optimum for n (two targets in stage two)."""
    return Schedule(optimal_q1(n) if q1 is None else q1, optimal_q2(n, 2) if q2 is None else q2)


def cmd_gen(args) -> int:
    phases = gen_gaussian_phases(args.n, args.mu, args.sigma, args.seed)
    # JSON reads its floats back exactly, in the same key order: parsing the
    # text would rebuild these phases.
    _keep_dataset(save_phases(phases, args.out), phases)
    return EXIT_OK


def _report_json(header: dict, bitstrings, probabilities, counts) -> str:
    """The run report as one line of JSON with sorted keys, newline-terminated.

    The text is byte-identical to ``json.dumps(report, sort_keys=True,
    separators=(",", ":")) + "\\n"`` of the `header` fields plus a
    ``histogram`` of ``{bitstring, probability, count}`` dicts, given the
    rows in bitstring order. ``json`` writes the header; the rows are one
    f-string each, with one ``repr`` per distinct probability, since most
    of a circuit report's rows share one. That relies on a non-empty
    header whose keys sort after ``histogram``, on 0/1 bitstrings and int
    counts, and on probabilities that are finite floats >= +0.0: sums of
    |a|^2, whose norm ``run`` checks, so no ``NaN``, ``Infinity`` or
    ``-0.0`` spelling can differ from ``json``'s.
    """
    reprs: dict[float, str] = {}
    rows = []
    for b, p, c in zip(bitstrings, probabilities, counts):
        r = reprs.get(p)
        if r is None:
            r = reprs[p] = repr(p)
        rows.append(f'{{"bitstring":"{b}","count":{c},"probability":{r}}}')
    # "histogram" sorts first, so the header's own text follows the rows.
    fields = json.dumps(header, sort_keys=True, separators=(",", ":"))
    return '{"histogram":[' + ",".join(rows) + "]," + fields[1:] + "\n"


@functools.lru_cache(maxsize=1)  # one width at a time: 2**18 strings at n = 6
def _main_bitstrings(main_qubits: int) -> tuple[str, ...]:
    """Every main-register basis state as a zero-padded bitstring, by index."""
    spec = f"0{main_qubits}b"
    return tuple(format(i, spec) for i in range(2**main_qubits))


def _after_state_prep(circuit: Circuit) -> Circuit:
    """The two-step circuit without its first two parts, the marker's preparation in |-> and the H layer.

    A state of the main register alone holds the marker prepared, and
    `run` refuses a circuit that prepares it again; `tour_state` and
    `uniform_state` are the H layer's output, without its passes over
    the state.
    """
    return Circuit(circuit.layout, parts=circuit.parts[2:])


def cmd_run(args) -> int:
    phases = _load_dataset(args.dataset, args.n)
    layout = HoboLayout.for_cities(args.n)
    # The main register alone in |s>, its marker held in |->, as its n! tours
    # and one value off them: the simulator refuses a register wider than it
    # holds before any circuit is built.
    state = tour_state(layout) if args.mode == "circuit" else None
    rescale = _resolve_rescale(args.cost_angles, args.mode, args.n)
    schedule = _schedule(args.n, args.q1, args.q2)

    if args.mode == "circuit":
        circuit = _after_state_prep(build_two_step(layout, phases, schedule))
        # `sample` draws from the array, over every main-register state; the
        # report writes its Python floats.
        drawn = main_probabilities(run(circuit, state), layout)
        probabilities = drawn.tolist()
        bitstrings = _main_bitstrings(layout.main_qubits)
    else:
        psi = state_at(phases, schedule.q2, rescale_costs=rescale)
        # Python's abs per tour: np.abs(psi) ** 2 differs in the last bit for some.
        probabilities = drawn = [abs(a) ** 2 for a in psi.tolist()]
        bitstrings = list(phases.phases)
    # Both modes list the rows in bitstring order, so no sort is needed:
    # circuit rows by basis index with zero-padded bitstrings, matrix rows
    # in PhaseAssignment's canonical key order, enumerate_feasible's
    # lexicographic order.
    counts = sample(drawn, args.shots, args.seed).tolist()
    header = {
        "n": args.n,
        "k": layout.k,
        "width": layout.width,
        "q1": schedule.q1,
        "q2": schedule.q2,
        "mode": args.mode,
        "seed": args.seed,
        "shots": args.shots,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(_report_json(header, bitstrings, probabilities, counts))
    return EXIT_OK


def cmd_sweep(args) -> int:
    phases = _load_dataset(args.dataset, args.n)
    layout = HoboLayout.for_cities(args.n)
    # As in `cmd_run`, the main register's tours and one value off them, in |s>.
    state = tour_state(layout) if args.mode == "circuit" else None
    rescale = _resolve_rescale(args.cost_angles, args.mode, args.n)

    if args.mode == "matrix":
        series = evolve(phases, args.t_max, rescale_costs=rescale)
    else:
        # The two-step circuit's parts after the state preparation: q1 first-stage rounds, then one G2 per row.
        q1 = _schedule(args.n, args.q1, 0).q1
        state = run(build_g1(layout) * q1, state)
        one_g2 = build_g2(layout, phases, q1)
        p_min, p_max = [], []
        for t in range(args.t_max + 1):
            if t > 0:
                run(one_g2, state)
            # The probabilities a run's report reads, bit for bit; the tours are in the dataset's key order.
            probabilities = tour_probabilities(state)
            p_min.append(probabilities.item(phases.min_index))
            p_max.append(probabilities.item(phases.max_index))
        series = ProbabilitySeries(tuple(p_min), tuple(p_max))

    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(series_to_csv(series))
    return EXIT_OK


def cmd_inspect(args) -> int:
    layout = HoboLayout.for_cities(args.n)
    try:
        phases = builtin_phases(args.n)
    except DatasetError:
        # Gate structure does not depend on the stored values, only on n.
        phases = gen_gaussian_phases(args.n, math.pi, 0.5, 0)
    schedule = _schedule(args.n)

    total = build_two_step(layout, phases, schedule)
    # Its parts: marker preparation, Hadamard layer, G1 * q1 and G2 * q2.
    (g1, _), (g2, _) = total.parts[2:]

    print(f"n={layout.n} k={layout.k} width={layout.width} q1={schedule.q1} q2={schedule.q2}")
    for name, circ in (("G1", g1), ("G2", g2), ("total", total)):
        m = metrics(circ)
        counts = " ".join(f"{kind}={count}" for kind, count in m.gate_counts.items())
        print(f"{name}: gates={len(circ)} unit_depth={m.unit_depth} {counts}")

    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(circuit_to_text(total))
    return EXIT_OK


def _checked(convert, ok, requirement: str):
    """argparse type: `convert` the text, then reject values failing `ok`."""

    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {text}")
        return value

    # argparse names the type in its "invalid int value" message.
    parse.__name__ = convert.__name__
    return parse


@functools.cache  # built once per process; parsing keeps no state on it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tsp-qsearch",
        description="Two-stage Grover tour search: datasets, runs, sweeps, circuit metrics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    count = _checked(int, lambda v: v >= 0, "non-negative")
    # Iteration counts stay below sys.maxsize, so that t_max + 1 fits islice;
    # shots stay within it, as numpy's multinomial draws int64 counts.
    iterations = _checked(count, lambda v: v < sys.maxsize, f"below {sys.maxsize}")
    at_least_one = _checked(int, lambda v: v >= 1, "at least 1")
    shots = _checked(at_least_one, lambda v: v <= sys.maxsize, f"at most {sys.maxsize}")
    finite = _checked(float, math.isfinite, "finite")
    positive = _checked(float, lambda v: math.isfinite(v) and v > 0, "positive and finite")

    gen = sub.add_parser("gen", help="write a seeded Gaussian cost-phase dataset (JSON)")
    gen.add_argument("--n", type=int, required=True, help="city count")
    gen.add_argument("--mu", type=finite, default=math.pi, help="Gaussian mean (default pi)")
    gen.add_argument("--sigma", type=positive, default=0.5, help="Gaussian std dev (default 0.5)")
    gen.add_argument("--seed", type=count, default=42, help="generator seed")
    gen.add_argument("--out", required=True, help="output JSON path")
    gen.set_defaults(func=cmd_gen)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--n", type=int, required=True, help="city count")
    common.add_argument(
        "--dataset",
        default="builtin",
        help="'builtin' (n=3,4) or a path to a phase-dataset JSON file",
    )
    common.add_argument(
        "--mode",
        choices=("circuit", "matrix"),
        default="matrix",
        help="gate-level simulation or operator-level model (both n<=6)",
    )
    common.add_argument(
        "--cost-angles",
        choices=("auto", "raw", "rescaled"),
        default="auto",
        help="matrix-mode oracle convention: stored values as angles (raw) or "
        "affinely rescaled onto [0,2pi] (rescaled); auto = raw for n<=4, "
        "rescaled for larger matrix runs",
    )
    # Matrix mode's ideal model starts from the exact feasible superposition.
    common.add_argument(
        "--q1", type=iterations, default=None, help="first-stage iterations (default optimal; matrix mode ignores it)"
    )

    run_p = sub.add_parser("run", parents=[common], help="run one search, write a JSON report")
    run_p.add_argument("--q2", type=iterations, default=None, help="second-stage iterations (default optimal, m=2)")
    run_p.add_argument("--shots", type=shots, default=1024, help="sample count (default 1024)")
    run_p.add_argument("--seed", type=count, default=42, help="sampling seed")
    run_p.add_argument("--out", required=True, help="output JSON path")
    run_p.set_defaults(func=cmd_run)

    sweep_p = sub.add_parser("sweep", parents=[common], help="tabulate P(t) as CSV")
    sweep_p.add_argument("--t-max", type=iterations, default=10, dest="t_max", help="last iteration count (default 10)")
    sweep_p.add_argument("--out", required=True, help="output CSV path")
    sweep_p.set_defaults(func=cmd_sweep)

    inspect_p = sub.add_parser("inspect", help="print circuit width/depth/gate counts")
    inspect_p.add_argument("--n", type=int, required=True, help="city count (<= 6)")
    inspect_p.add_argument("--out", default=None, help="optional path for a gate-list dump")
    inspect_p.set_defaults(func=cmd_inspect)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CapacityError, NormError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except DatasetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
