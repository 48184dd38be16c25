"""Golden SHA-256 fingerprints of each workload's outputs.

``golden.json`` holds, per workload and seed, the fingerprints of the
inputs and of a fixed set of outputs (file bytes, digests and MACs, SVG
texts, spec rows) as the kernel produced them when they were recorded. A
run whose inputs match must reproduce the outputs byte for byte. A run
whose inputs differ (``tests/propgen.py`` or the environment changed)
reports that instead of comparing.

Record or refresh fingerprints for some seeds with

    python3 perfbench/golden.py 0-31
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

PATH = Path(__file__).resolve().parent / "golden.json"


def _load() -> dict:
    return json.loads(PATH.read_text("utf-8")) if PATH.is_file() else {}


def compare(workload: str, seed: int, inputs: dict, outputs: dict
            ) -> tuple[str, list[str]]:
    """(status line, errors) for one run's fingerprints."""
    entry = _load().get(workload, {}).get(str(seed))
    if entry is None:
        return "none recorded for this seed", []
    if entry["inputs"] != inputs:
        return "not compared: inputs differ from the recorded ones", []
    wrong = sorted(k for k in entry["outputs"] if entry["outputs"][k] != outputs.get(k))
    if wrong:
        return "MISMATCH", [f"output {k} differs from the golden fingerprint"
                            for k in wrong]
    return "match", []


def record(seeds: list[int]) -> None:
    root = PATH.parent.parent
    sys.path[:0] = [str(root / "src"), str(root / "tests")]
    import workloads

    doc = _load()
    workdir = root / ".perfbench_tmp" / f"golden-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        for name, cls in workloads.WORKLOADS.items():
            for seed in seeds:
                w = cls(seed, workdir)
                doc.setdefault(name, {})[str(seed)] = {
                    "inputs": w.fingerprints(), "outputs": w.golden()}
                print(f"recorded {name} seed {seed}", flush=True)
                w = None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", "utf-8")


if __name__ == "__main__":
    lo, _, hi = sys.argv[1].partition("-")
    record(list(range(int(lo), int(hi or lo) + 1)))
