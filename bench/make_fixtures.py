"""Regenerate the model fixtures that the shielded workloads load.

    python3 bench/make_fixtures.py           # rewrite bench/fixtures/*
    python3 bench/make_fixtures.py --check   # regenerate and compare, exit 1 on a difference

Runs the program's own `gen-demos` (100 demonstrations of 100 steps, master
seed 0, the reach scene) and `train` (the default 200-epoch budget) in a
scratch directory inside the checkout, then copies `model_full.bin` and
`model_pos.bin` into bench/fixtures/ and records their sha256 in
bench/fixtures/SHA256SUMS. Training is bitwise deterministic, so --check
reproduces the committed files exactly as long as the training code computes
the same numbers.
"""

from __future__ import annotations

import argparse
import hashlib
import shutil
import sys
import tempfile
from pathlib import Path

import common

FIXTURE_SEED = 0
FIXTURE_DEMOS = 100
MODELS = ("model_full.bin", "model_pos.bin")
SUMS = common.FIXTURES / "SHA256SUMS"


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_sums() -> dict:
    sums = {}
    for line in SUMS.read_text().splitlines():
        digest, name = line.split()
        sums[name] = digest
    return sums


def generate(out: Path) -> None:
    from safectl import cli

    scene = str(common.SCENES / "reach_knn.json")
    for argv in (
        ["gen-demos", "--config", scene, "--out", str(out), "--n", str(FIXTURE_DEMOS),
         "--seed", str(FIXTURE_SEED), *common.DEMO_SETTINGS],
        ["train", "--config", scene, "--out", str(out), "--seed", str(FIXTURE_SEED)],
    ):
        code = cli.main(argv)
        if code != 0:
            raise SystemExit(f"safectl {argv[0]} exited with {code}")


def main(argv=None) -> int:
    common.prepare()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the committed fixtures instead of rewriting them")
    args = parser.parse_args(argv)
    common.RUNS.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=common.RUNS, prefix="fixtures-") as tmp:
        out = Path(tmp)
        generate(out)
        fresh = {name: sha256(out / name) for name in MODELS}
        if args.check:
            committed = read_sums()
            bad = [n for n in MODELS if committed.get(n) != fresh[n]
                   or sha256(common.FIXTURES / n) != fresh[n]]
            for name in MODELS:
                print(f"{fresh[name]}  {name}  {'differs' if name in bad else 'matches'}")
            return 1 if bad else 0
        for name in MODELS:
            shutil.copyfile(out / name, common.FIXTURES / name)
        SUMS.write_text("".join(f"{fresh[n]}  {n}\n" for n in MODELS))
        for name in MODELS:
            print(f"{fresh[name]}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
