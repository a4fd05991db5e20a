"""Check that two rankagg source trees answer every benchmark command alike.

    python3 tools/parity.py OLD_SRC NEW_SRC

Generates seeds 1-3 of every workload with ``bench/gen.py`` into a temporary
directory (nothing is written under ``bench/``), adds ``repro`` and the
symmetric censuses of ``EXTRA_COMMANDS`` that the benchmark does not run,
runs each distinct argv through ``rankagg.cli.main`` in one process per tree,
and prints the command count and every argv whose exit code, stdout or
stderr differs. Exits 1 when any command differs.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 2, 3)
EXTRA_COMMANDS = [["repro"]] + [
    ["census", "--method", "symmetric", "--alts", str(n), "--inds", str(m)]
    for n, m in ((3, 6), (4, 40), (6, 3))
]


def bench_commands(out: Path) -> list[list[str]]:
    """Every distinct warm-up and operation argv of seeds 1-3, in order, then
    ``EXTRA_COMMANDS``."""
    sys.path.insert(0, str(ROOT / "bench"))
    import gen

    argvs = []
    for workload in gen.WORKLOADS:
        for seed in SEEDS:
            manifest = gen.generate(workload, seed, out / f"{workload}-{seed}")
            argvs += manifest["warmup"] + [op["argv"] for op in manifest["ops"]]
    argvs += EXTRA_COMMANDS
    print(f"{len(argvs)} commands")
    return [list(argv) for argv in dict.fromkeys(map(tuple, argvs))]


def run_tree(src: str, commands: str) -> None:
    """Child process: run every argv in the file ``commands`` through the
    rankagg under ``src`` and print [exit code, stdout, stderr] per argv."""
    sys.path.insert(0, src)
    from rankagg import cli

    if not Path(cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"rankagg was imported from {cli.__file__}, not {src}")
    results = []
    for argv in json.loads(Path(commands).read_text(encoding="utf-8")):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse refusals
                code = exc.code
        results.append([code, out.getvalue(), err.getvalue()])
    json.dump(results, sys.stdout)


def outcomes(src: str, commands: Path) -> list[list]:
    done = subprocess.run(
        [sys.executable, __file__, "--tree", src, str(commands)],
        capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout)


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--tree":
        run_tree(argv[1], argv[2])
        return 0
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    old_src, new_src = argv
    with tempfile.TemporaryDirectory() as tmp:
        commands = bench_commands(Path(tmp))
        listed = Path(tmp) / "commands.json"
        listed.write_text(json.dumps(commands), encoding="utf-8")
        old, new = outcomes(old_src, listed), outcomes(new_src, listed)
    print(f"{len(commands)} distinct commands")
    differing = 0
    for command, before, after in zip(commands, old, new):
        fields = [f for f, x, y in zip(("exit", "stdout", "stderr"), before, after) if x != y]
        if fields:
            differing += 1
            print(f"DIFFERS ({', '.join(fields)}): {' '.join(command)}")
    print(f"{differing} differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
