"""Seeded input generator for the rankagg benchmark.

``generate(workload, seed, out_dir)`` writes the profile and rankings
documents of one workload into ``out_dir`` and returns its manifest: the
profiles (with the verdict their construction forces), the warm-up
commands, and one round of operations, each an argv for ``rankagg`` plus
what the checks need to know about it. The same workload and seed always
give byte-identical documents and the same manifest.

Run as a script to inspect the inputs:

    python3 bench/gen.py --workload large-profiles --seed 1 --out /tmp/inputs
"""

from __future__ import annotations

import argparse
import json
import random
from pathlib import Path

import oracle

WORKLOADS = ("large-profiles", "verify-sweep", "census-grid")
RULES_VERIFIED = "tv,pc,wpc,iia,nc,nd"


class Builder:
    """Collects documents and operations for one workload."""

    def __init__(self, workload: str, seed: int, out_dir: Path):
        self.rng = random.Random(f"{workload}:{seed}")
        self.out = out_dir
        self.out.mkdir(parents=True, exist_ok=True)
        self.profiles: dict[str, dict] = {}
        self.ops: list[dict] = []
        self.warmup: list[list[str]] = []

    def _write(self, name: str, doc: dict) -> str:
        path = self.out / name
        path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        return str(path)

    def profile(self, key: str, n: int, sets: list[list[int]], family: str, expected: str | None) -> dict:
        """Write a profile whose alternatives are 0..n-1 in construction order.

        Names and the listed order of alternatives and individuals are
        shuffled, so the program never sees the construction order.
        """
        names = [f"x{i:02d}" for i in range(n)]
        listed = names[:]
        self.rng.shuffle(listed)
        ids = [f"v{j + 1:02d}" for j in range(len(sets))]
        order = list(range(len(sets)))
        self.rng.shuffle(order)
        individuals = [
            {"id": ids[j], "evaluates": sorted((names[a] for a in sets[j]), key=listed.index)}
            for j in order
        ]
        doc = {"schema_version": 1, "alternatives": listed, "individuals": individuals}
        info = {
            "key": key,
            "family": family,
            "path": self._write(f"{key}.profile.json", doc),
            "alternatives": listed,
            "evaluates": {e["id"]: e["evaluates"] for e in individuals},
            "expected": expected,
            "rankings": [],
        }
        self.profiles[key] = info
        return info

    def rankings(self, info: dict, count: int) -> None:
        """Seeded weak orders around a shared noisy base order, with ties.

        Documents whose unanimity relation would be cyclic are redrawn, so
        every aggregate of them has a non-degenerate answer.
        """
        sets = {v: set(s) for v, s in info["evaluates"].items()}
        alts = info["alternatives"]
        for index in range(count):
            while True:
                base = {a: self.rng.random() * len(alts) for a in alts}
                ranking = {}
                for v, evaluates in info["evaluates"].items():
                    key = {a: base[a] + self.rng.gauss(0, len(alts) / 4) for a in evaluates}
                    tiers: list[list[str]] = []
                    for a in sorted(evaluates, key=key.__getitem__):
                        if tiers and self.rng.random() < 0.3:
                            tiers[-1].append(a)
                        else:
                            tiers.append([a])
                    ranking[v] = tiers
                if oracle.is_acyclic(alts, oracle.unanimous_arcs(sets, ranking)):
                    break
            doc = {"rankings": ranking}
            path = self._write(f"{info['key']}.rankings{index}.json", doc)
            info["rankings"].append({"path": path, "rankings": ranking})

    def op(self, group: str, argv: list[str], **check) -> None:
        op_id = " ".join(a if "/" not in a else Path(a).name for a in argv)
        self.ops.append({"id": op_id, "group": group, "argv": argv, **check})

    def manifest(self) -> dict:
        return {"profiles": self.profiles, "warmup": self.warmup, "ops": self.ops}


# ---------------------------------------------------------------------------
# Profile families (alternatives as construction indices)
# ---------------------------------------------------------------------------


def triangle_chain(n: int) -> list[list[int]]:
    """Triangles {0,1,2}, {2,3,4}, ... glued at single nodes; n odd."""
    return [[i, i + 1, i + 2] for i in range(0, n - 2, 2)]


def ring_of_pairs(n: int) -> list[list[int]]:
    return [[i, (i + 1) % n] for i in range(n)]


def clique_tree(rng: random.Random, sizes: list[int]) -> list[list[int]]:
    """Cliques of the given sizes, each after the first glued to a random
    earlier node."""
    blocks = [list(range(sizes[0]))]
    used = sizes[0]
    for size in sizes[1:]:
        blocks.append([rng.randrange(used), *range(used, used + size - 1)])
        used += size - 1
    return blocks


def random_clique_tree(rng: random.Random, n: int) -> list[list[int]]:
    """A sparse clique tree on n nodes with cliques of 2 to 4 nodes, plus two
    individuals inside single cliques."""
    sizes = [rng.choice((2, 3, 4))]
    while sum(sizes) - len(sizes) + 1 < n:
        sizes.append(min(rng.choice((2, 3, 4)), n - (sum(sizes) - len(sizes) + 1) + 1))
    blocks = clique_tree(rng, sizes)
    extras = []
    for _ in range(2):
        block = rng.choice(blocks)
        extras.append(sorted(rng.sample(block, rng.randint(2, len(block)))))
    return blocks + extras


def add_chord(rng: random.Random, sets: list[list[int]], n: int) -> list[list[int]]:
    """One more individual on two nodes that share no block, which closes a
    cycle through several blocks that nobody evaluates as a whole."""
    pairs = [
        (a, b)
        for a in range(n)
        for b in range(a + 1, n)
        if not any(a in s and b in s for s in sets)
    ]
    return sets + [list(rng.choice(pairs))]


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def large_profiles(b: Builder) -> None:
    warm = b.profile("warm-chain-7", 7, triangle_chain(7), "pp-chain", "PP")
    b.rankings(warm, 1)
    doc = warm["rankings"][0]["path"]
    b.warmup = [
        ["classify", warm["path"]],
        ["aggregate", "--rule", "fstar", warm["path"], doc],
        ["aggregate", "--rule", "fstarstar", warm["path"], doc],
    ]
    families = [
        ("pp-chain-11", 11, triangle_chain(11), "pp-chain", "PP", ("fstar", "fstarstar")),
        ("pp-chain-13", 13, triangle_chain(13), "pp-chain", "PP", ("fstar", "fstarstar")),
        ("ip-ring-11", 11, ring_of_pairs(11), "ip-ring", "IP", ("fstar",)),
        ("ip-ring-13", 13, ring_of_pairs(13), "ip-ring", "IP", ("fstar",)),
        ("dp-chain-11", 11, triangle_chain(11) + [list(range(11))], "dp-chain", "DP", ("fstar", "fstarstar")),
    ]
    tree = random_clique_tree(b.rng, 12)
    chord = add_chord(b.rng, tree, 12)
    # Random families are judged by the block oracle, not by construction.
    families.append(("tree-12", 12, tree, "random-tree", None, ("fstar", "fstarstar")))
    families.append(("tree-chord-12", 12, chord, "random-tree-chord", None, ("fstar",)))
    for key, n, sets, family, expected, rules in families:
        info = b.profile(key, n, sets, family, expected)
        b.rankings(info, 2)
        b.op("classify", ["classify", info["path"]], profile=key)
        for rule in rules:
            for doc in info["rankings"]:
                b.op("aggregate", ["aggregate", "--rule", rule, info["path"], doc["path"]],
                     profile=key, rule=rule, rankings=doc["rankings"])


def verify_sweep(b: Builder) -> None:
    warm = b.profile("warm-dp-3", 3, [[0, 1], [1, 2], [0, 1, 2]], "dp", "DP")
    b.warmup = [
        ["verify", "--rule", rule, "--threads", "1", warm["path"]]
        for rule in ("fstar", "fstarstar", "majority")
    ] + [["verify", "--rule", "fstarstar", "--threads", "2", warm["path"]]]
    pairs = list(range(4))
    b.rng.shuffle(pairs)
    cases = [
        ("golden-pp-7", 7, [[0, 1, 2, 3], [3, 4, 5], [5, 6]], "PP", ("fstar", "fstarstar", "majority")),
        ("dp-4", 4, [[0, 1, 2, 3], sorted(pairs[:2]), sorted(pairs[2:])], "DP", ("fstar", "fstarstar", "majority")),
        ("ip-5", 5, [[0, 1, 2], [2, 3, 4], [4, 0]], "IP", ("fstar", "majority")),
        ("tree-pp-8", 8, clique_tree(b.rng, [3, 3, 3, 2]), "PP", ("fstar", "fstarstar")),
    ]
    for key, n, sets, expected, rules in cases:
        info = b.profile(key, n, sets, "verify", expected)
        for rule in rules:
            b.op("verify", ["verify", "--rule", rule, "--axioms", RULES_VERIFIED, "--threads", "1", info["path"]],
                 profile=key, rule=rule)
    info = b.profiles["tree-pp-8"]
    b.op("verify_par", ["verify", "--rule", "fstarstar", "--axioms", RULES_VERIFIED, "--threads", "2", info["path"]],
         profile="tree-pp-8", rule="fstarstar", twin=b.ops[-1]["id"])


def census_grid(b: Builder) -> None:
    b.warmup = [
        ["census", "--alts", "3", "--inds", "3"],
        ["census", "--alts", "3", "--inds", "3", "--method", "symmetric"],
        ["census", "--alts", "3", "--inds", "3", "--threads", "2"],
    ]
    cases = [
        ("census", 4, 4, "brute", 1, None),
        ("census", 5, 3, "brute", 1, None),
        ("census", 5, 3, "symmetric", 1, None),
        ("census", 5, 4, "symmetric", 1, None),
        ("census_par", 5, 3, "brute", 2, None),
        # 8008 is the exact number of multisets at 4x6; the budget is
        # currently charged on the 11^6 labeled profiles instead.
        ("census", 4, 6, "symmetric", 1, 8008),
    ]
    b.rng.shuffle(cases)
    for group, n, m, method, threads, budget in cases:
        argv = ["census", "--method", method, "--alts", str(n), "--inds", str(m)]
        if budget is not None:
            argv += ["--budget", str(budget)]
        if method == "brute":
            argv += ["--threads", str(threads)]
        b.op(group, argv, alts=n, inds=m, method=method, threads=threads,
             expected_exit=4 if budget is not None else 0)


def generate(workload: str, seed: int, out_dir: Path) -> dict:
    b = Builder(workload, seed, out_dir)
    {"large-profiles": large_profiles, "verify-sweep": verify_sweep, "census-grid": census_grid}[workload](b)
    manifest = b.manifest()
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n", encoding="utf-8")
    return manifest


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    manifest = generate(args.workload, args.seed, args.out)
    for op in manifest["ops"]:
        print(op["group"], op["id"])


if __name__ == "__main__":
    main()
