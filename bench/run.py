"""rankagg benchmark: feasibility on large profiles, exhaustive verify sweeps
and census grids, driven through the CLI entry point.

    python3 bench/run.py --workload large-profiles --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1

Run from the repository root; rankagg is imported from ``src/``. Each
workload is a fixed round of ``rankagg`` commands on documents generated from
the seed (``bench/gen.py``). Commands run in this process through
``rankagg.cli.main(argv)`` with stdout captured, so document parsing and JSON
output are timed and interpreter start-up is not. Whole rounds repeat until
``--seconds`` have been measured. The first round's outputs are checked
against the benchmark's own oracles (``bench/oracle.py``); later rounds must
reproduce them byte for byte.

The gated rate is measured in reference seconds. A fixed pure-Python kernel
runs between commands, and each command's time is divided by the kernel
times next to it. This cancels most of the speed drift of a machine shared
with other load, which moves wall-clock times by up to a third from minute to
minute. Each operation then counts with its median round. The wall-clock
rates are printed beside it, and ``times.json`` in the work directory keeps
every time.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` runs one
untraced round and then traced rounds (``bench/tracing.py``) and prints the
per-layer metrics and the tracing overhead. The last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import gen
import oracle
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_PROBES = 9
# One reference second is the time REF_RUNS runs of reference_kernel() take,
# about one second of an undisturbed core of the machine the bounds were set on.
REF_RUNS = 100
MODULES = ("cli", "profiles", "conditions", "aggregators", "relations", "properties", "census")
# Per-operation rates printed beside the gated metrics, named by op group.
GROUP_RATES = {
    "classify": ("classify_per_s", "profiles/s"),
    "aggregate": ("aggregate_per_s", "aggregations/s"),
    "verify": ("verify_profiles_per_s", "ranking_profiles/s"),
    "verify_par": ("verify_par_profiles_per_s", "ranking_profiles/s"),
    "census": ("census_profiles_per_s", "labeled_profiles/s"),
    "census_par": ("census_par_profiles_per_s", "labeled_profiles/s"),
}


def load_rankagg() -> dict:
    """Import rankagg from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "rankagg" / "cli.py").is_file():
        raise SystemExit(f"no rankagg sources under {SRC}")
    sys.path.insert(0, str(SRC))
    modules = {name: importlib.import_module(f"rankagg.{name}") for name in MODULES}
    if SRC.resolve() not in Path(modules["cli"].__file__).resolve().parents:
        raise SystemExit(f"rankagg was imported from {modules['cli'].__file__}, not {SRC}")
    return modules


def call(cli, argv: list[str]) -> tuple[int, str, str, float]:
    """Run one command in-process; returns exit code, stdout, stderr, seconds."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code if isinstance(exc.code, int) else 2
        seconds = perf_counter() - start
    return code, out.getvalue(), err.getvalue(), seconds


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


class Checker:
    """Checks one round's outputs against the benchmark's own oracles."""

    def __init__(self, manifest: dict, cli, work: Path):
        self.profiles = manifest["profiles"]
        self.cli = cli
        self.work = work
        self.census_cache: dict[tuple[int, int], dict[str, int]] = {}

    def _profile(self, key: str):
        info = self.profiles[key]
        alts = info["alternatives"]
        index = {a: i for i, a in enumerate(alts)}
        sets = {v: sum(1 << index[a] for a in s) for v, s in info["evaluates"].items()}
        return info, alts, sets

    def units(self, op: dict) -> int:
        """Work of one completed operation in the workload's own unit."""
        if op["group"] in ("verify", "verify_par"):
            return self.space_size(op["profile"])
        if op["group"] in ("census", "census_par"):
            return (2 ** op["alts"] - op["alts"] - 1) ** op["inds"]
        return 1

    def space_size(self, key: str) -> int:
        size = 1
        for s in self.profiles[key]["evaluates"].values():
            size *= oracle.ordered_bell(len(s))
        return size

    def check(self, op: dict, doc: dict) -> list[str]:
        return getattr(self, f"_check_{op['argv'][0]}")(op, doc)

    def _check_classify(self, op: dict, doc: dict) -> list[str]:
        info, alts, sets = self._profile(op["profile"])
        n = len(alts)
        want = oracle.verdict(n, sets.values())
        problems = []
        if info["expected"] is not None and want != info["expected"]:
            problems.append(f"block oracle says {want}, construction forces {info['expected']}")
        if doc["verdict"] != want:
            return problems + [f"verdict {doc['verdict']} != {want}"]
        witness = doc["witness"]
        adj = oracle.union_adjacency(n, sets.values())
        index = {a: i for i, a in enumerate(alts)}
        if want == "IP":
            cycle = [index[a] for a in witness["cycle"]]
            if len(cycle) < 3 or len(set(cycle)) != len(cycle):
                problems.append("IP witness is not a cycle")
            elif any(not adj[a] >> b & 1 for a, b in zip(cycle, cycle[1:] + cycle[:1])):
                problems.append("IP witness leaves the union graph")
            mask = sum(1 << a for a in cycle)
            if any(mask & ~s == 0 for s in sets.values()):
                problems.append("IP witness cycle is evaluated whole by some individual")
        elif want == "DP":
            if sets[witness["complete_individual"]] != (1 << n) - 1:
                problems.append("DP witness individual is not complete")
        else:
            for entry in witness["coverage"]:
                mask = sum(1 << index[a] for a in entry["nodes"])
                if mask & ~sets[entry["individual"]]:
                    problems.append("PP coverage set leaves its individual's set")
            if witness["spanning_cycle_free"] is not True:
                problems.append("PP witness does not claim spanning-cycle freeness")
            if not oracle.has_cut_vertex_or_disconnected(n, adj):
                problems.append("PP graph is one block, so it has a spanning cycle")
        return problems

    def _check_aggregate(self, op: dict, doc: dict) -> list[str]:
        info, alts, _ = self._profile(op["profile"])
        problems = []
        order = doc["order"]
        if any(len(tier) != 1 for tier in order) or sorted(a for t in order for a in t) != sorted(alts):
            return ["order is not a linear order on all alternatives"]
        arcs = oracle.order_arcs(order)
        sets = {v: set(s) for v, s in info["evaluates"].items()}
        if not oracle.unanimous_arcs(sets, op["rankings"]) <= arcs:
            problems.append("order drops a unanimously strict pair")
        if not {tuple(a) for a in doc["constraint_arcs"]} <= arcs:
            problems.append("order does not extend the constraint arcs")
        if doc["degenerate"] is not False:
            problems.append("aggregate is degenerate")
        return problems

    def _rule_arcs(self, op: dict):
        info = self.profiles[op["profile"]]
        if op["rule"] == "majority":
            sets = {v: set(s) for v, s in info["evaluates"].items()}
            return lambda rankings: oracle.majority_arcs(sets, rankings)
        path = self.work / "counterexample.rankings.json"

        def arcs(rankings: dict) -> set:
            path.write_text(json.dumps({"rankings": rankings}), encoding="utf-8")
            code, out, err, _ = call(self.cli, ["aggregate", "--rule", op["rule"], info["path"], str(path)])
            if code != 0:
                raise RuntimeError(f"aggregate for a counterexample exited {code}: {err.strip()}")
            return oracle.order_arcs(json.loads(out)["order"])

        return arcs

    def _check_verify(self, op: dict, doc: dict) -> list[str]:
        info, alts, sets = self._profile(op["profile"])
        verdict = info["expected"]
        problems = []
        if doc["profile_space_size"] != self.space_size(op["profile"]):
            problems.append(f"profile_space_size {doc['profile_space_size']} != product of ordered Bell numbers")
        axioms = doc["axioms"]
        if list(axioms) != gen.RULES_VERIFIED.split(","):
            return problems + ["report does not list the six axioms in order"]
        passed = {a: v["passed"] for a, v in axioms.items()}
        if verdict != "IP" and op["rule"] == "fstarstar":
            problems += [f"fstarstar fails {a} under cover" for a in ("tv", "pc", "wpc", "iia") if not passed[a]]
            if verdict == "PP" and not passed["nd"]:
                problems.append("fstarstar fails nd on a PP profile")
            if verdict == "DP":
                complete = [v for v, s in sets.items() if s == (1 << len(alts)) - 1]
                ce = axioms["nd"]["counterexample"]
                if passed["nd"] or ce["individual"] not in complete:
                    problems.append("fstarstar nd counterexample is not the complete individual")
        if verdict != "IP" and op["rule"] == "fstar":
            problems += [f"fstar fails {a} under cover" for a in ("tv", "pc") if not passed[a]]
        rule_arcs = self._rule_arcs(op)
        for axiom, result in axioms.items():
            if not result["passed"]:
                problem = oracle.counterexample_problem(axiom, result["counterexample"], info["evaluates"], rule_arcs)
                if problem:
                    problems.append(f"{axiom} counterexample does not replay: {problem}")
        return problems

    def _check_census(self, op: dict, doc: dict) -> list[str]:
        size = (op["alts"], op["inds"])
        if size not in self.census_cache:
            self.census_cache[size] = oracle.census_counts(*size)
        problems = oracle.check_census(doc, *size, self.census_cache[size])
        if doc["method"] != op["method"]:
            problems.append(f"method {doc['method']} != {op['method']}")
        return problems

    def cross_check(self, ops: list[dict], outputs: dict[str, str]) -> dict[str, list[str]]:
        """Problems between operations of one round, keyed by operation id:
        --threads 2 must match --threads 1 byte for byte, and brute and
        symmetric censuses of one size must agree."""
        problems: dict[str, list[str]] = {}
        for op in ops:
            twin = op.get("twin")
            if twin and op["id"] in outputs and outputs.get(twin) != outputs[op["id"]]:
                problems.setdefault(op["id"], []).append("--threads 2 report differs from --threads 1")
        by_size: dict[tuple[int, int], list[dict]] = {}
        for op in ops:
            if op["argv"][0] == "census" and op["id"] in outputs:
                by_size.setdefault((op["alts"], op["inds"]), []).append(op)
        for group in by_size.values():
            docs = [json.loads(outputs[op["id"]]) for op in group]
            for op, doc in zip(group, docs):
                if doc["counts"] != docs[0]["counts"]:
                    problems.setdefault(op["id"], []).append("census counts differ between methods or thread counts")
            texts = {outputs[op["id"]] for op in group if op["method"] == "brute"}
            if len(texts) > 1:
                problems.setdefault(group[0]["id"], []).append("brute census output depends on --threads")
        return problems


# ---------------------------------------------------------------------------
# Rounds
# ---------------------------------------------------------------------------


class Workload:
    def __init__(self, manifest: dict, modules: dict, work: Path):
        self.ops = manifest["ops"]
        self.cli = modules["cli"]
        self.checker = Checker(manifest, self.cli, work)
        self.reference: dict[str, tuple[int, str]] = {}  # first round's outputs
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.expected_failures: dict[str, str] = {}
        self.round_seconds: list[float] = []
        self.times: dict[str, list[float]] = {op["id"]: [] for op in self.ops}
        self.units: dict[str, int] = {}  # work of each operation that completed
        self.ref_times: dict[str, list[float]] = {op["id"]: [] for op in self.ops}

    def warm_up(self, argvs: list[list[str]]) -> None:
        for argv in argvs:
            code, _, err, _ = call(self.cli, argv)
            if code != 0:
                raise SystemExit(f"warm-up {' '.join(argv)} exited {code}: {err.strip()}")

    def run_round(self, tracer: tracing.Tracer | None = None, commands: list | None = None) -> float:
        """Run every operation once; returns the round's measured seconds."""
        first = not self.reference
        outputs: dict[str, str] = {}
        results = []
        before = reference_time()
        for op in self.ops:
            command = None
            if tracer is not None:
                command = {"cmd": len(commands), "id": op["id"], "group": op["group"],
                           "units": self.checker.units(op), "ok": False}
                commands.append(command)
                with tracer.command(command["cmd"]):
                    code, out, err, took = call(self.cli, op["argv"])
            else:
                code, out, err, took = call(self.cli, op["argv"])
            self.times[op["id"]].append(took)
            after = reference_time()
            self.ref_times[op["id"]].append(took / (REF_RUNS * (before + after) / 2))
            before = after
            results.append((op, command, code, out, err))
            if code == 0:
                outputs[op["id"]] = out
        cross = self.checker.cross_check(self.ops, outputs) if first else {}
        for op, command, code, out, err in results:
            problems = list(cross.get(op["id"], []))
            expected_exit = op.get("expected_exit", 0)
            if first:
                if code == 0:
                    try:
                        problems += self.checker.check(op, json.loads(out))
                    except (KeyError, TypeError, ValueError, RuntimeError) as exc:
                        problems.append(f"malformed output: {exc!r}")
                elif code != expected_exit:
                    problems.append(f"exit {code}: {err.strip()}")
                self.reference[op["id"]] = (code, out)
            elif (code, out) != self.reference[op["id"]]:
                problems.append("output differs from the first round")
            self.attempted += 1
            ok = code == 0 and not problems
            if not ok:
                self.failed += 1
            if problems:
                self.problems += [f"{op['id']}: {p}" for p in problems]
            elif code != 0:
                self.expected_failures[op["id"]] = f"exit {code}: {err.strip()}"
            if first:
                self.units[op["id"]] = self.checker.units(op) if ok else 0
            if command is not None:
                command["ok"] = ok
        self.round_seconds.append(sum(self.times[op["id"]][-1] for op in self.ops))
        return self.round_seconds[-1]

    def rate(self, groups, times: dict[str, list[float]]) -> float:
        """Completed work per second of the operations in ``groups``, each
        operation timed by its median round."""
        ops = [op["id"] for op in self.ops if op["group"] in groups]
        seconds = sum(statistics.median(times[i]) for i in ops)
        return sum(self.units[i] for i in ops) / seconds if seconds else 0.0

    def run_for(self, budget_s: float, **kwargs) -> list[float]:
        """Whole rounds until ``budget_s`` seconds have been measured."""
        times = []
        while not times or sum(times) < budget_s:
            times.append(self.run_round(**kwargs))
        return times


def reference_kernel() -> float:
    """Seconds taken by a fixed pure-Python kernel of the same kind of work
    as rankagg's own: a Hamiltonian-path subset DP and set churn."""
    start = perf_counter()
    n = 13
    adj = [((0b100100101 << (v % 4)) | (1 << ((v + 1) % n)) | (1 << ((v - 1) % n))) & ~(1 << v) & ((1 << n) - 1)
           for v in range(n)]
    dp = [0] * (1 << n)
    dp[1] = 1
    for visited in range(1, 1 << n):
        ends = dp[visited]
        while ends:
            u = ends & -ends
            ends ^= u
            ext = adj[u.bit_length() - 1] & ~visited
            while ext:
                w = ext & -ext
                ext ^= w
                dp[visited | w] |= w
    pairs = {(a, b) for a in range(80) for b in range(80) if a != b}
    if not pairs or dp[-1] < 0:
        raise AssertionError("unreachable")
    return perf_counter() - start


def reference_time() -> float:
    """Fastest of three kernel runs: short interference only adds time,
    while a slow spell of the machine slows all three."""
    return min(reference_kernel() for _ in range(3))


def setup_seconds(manifest_path: Path) -> tuple[float, float]:
    """Median over fresh processes of importing rankagg plus one warm-up
    command of each kind the workload runs, in wall-clock and in reference
    seconds."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe", str(manifest_path)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise SystemExit(f"set-up probe failed: {proc.stderr.strip()}")
        samples.append([float(x) for x in proc.stdout.split()[-2:]])
    return tuple(statistics.median(column) for column in zip(*samples))


def setup_probe(manifest_path: Path) -> int:
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    before = reference_time()
    start = perf_counter()
    cli = load_rankagg()["cli"]
    for argv in manifest["warmup"]:
        code, _, err, _ = call(cli, argv)
        if code != 0:
            sys.stderr.write(f"warm-up {' '.join(argv)} exited {code}: {err}")
            return 1
    took = perf_counter() - start
    print(took, took / (REF_RUNS * (before + reference_time()) / 2))
    return 0


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    modules = load_rankagg()
    work = WORK / f"{name}-seed{seed}"
    manifest = gen.generate(name, seed, work)
    setup_wall, setup = (None, None) if traced else setup_seconds(work / "manifest.json")
    workload = Workload(manifest, modules, work)
    workload.warm_up(manifest["warmup"])
    if traced:
        untraced = workload.run_round()
        tracer = tracing.Tracer(modules)
        commands: list[dict] = []
        tracer.install()
        try:
            traced_times = workload.run_for(seconds, tracer=tracer, commands=commands)
        finally:
            tracer.uninstall()
        spans = tracer.spans()
        spans.dump(work, commands)
        layers = tracing.layer_metrics(spans, commands)
        layers["trace.overhead_ratio"] = (statistics.median(traced_times) / untraced, "ratio")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        print(f"{name}: {len(traced_times)} traced round(s), {len(spans.self_ns)} spans in {work}")
    else:
        workload.run_for(seconds)
        metrics = {
            "setup_s": {"value": setup, "unit": "s"},
            "peak_rss_mib": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MiB"},
            "profiles_per_ref_s": {"value": workload.rate(GROUP_RATES, workload.ref_times), "unit": "profiles/ref_s"},
        }
        print(f"{name}: profiles_per_s = {workload.rate(GROUP_RATES, workload.times):.6g} profiles/s (wall clock)")
        print(f"{name}: setup = {setup_wall:.6g} s (wall clock)")
        for group in sorted({op["group"] for op in workload.ops}, key=list(GROUP_RATES).index):
            label, unit = GROUP_RATES[group]
            print(f"{name}: {label} = {workload.rate([group], workload.times):.6g} {unit} (wall clock)")
        times = {"seconds": workload.times, "ref_seconds": workload.ref_times}
        (work / "times.json").write_text(json.dumps(times, indent=1) + "\n", encoding="utf-8")
        round_s = ", ".join(f"{t:.3f}" for t in workload.round_seconds)
        print(f"{name}: {len(workload.round_seconds)} round(s) of {len(workload.ops)} operations, seconds: {round_s}")
    for op_id, cause in workload.expected_failures.items():
        print(f"{name}: failed operation {op_id!r}: {cause}")
    for problem in workload.problems:
        print(f"{name}: CHECK FAILED {problem}")
    return {
        "correct": not workload.problems,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": metrics,
    }


def run_all(args) -> dict:
    """Every workload in its own process, so each has its own peak RSS."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in gen.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line)
        if proc.returncode not in (0, 1) or not lines:
            raise SystemExit(f"{name} exited {proc.returncode}: {proc.stderr.strip()}")
        result = json.loads(lines[-1])
        for metric, value in result["metrics"].items():
            print(f"{name}: {metric} = {value['value']:.6g} {value['unit']}")
            merged["metrics"][f"{name}.{metric}"] = value
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
    return merged


def main() -> int:
    parser = argparse.ArgumentParser(description="rankagg benchmark")
    parser.add_argument("--workload", choices=gen.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.setup_probe:
        return setup_probe(args.setup_probe)
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
