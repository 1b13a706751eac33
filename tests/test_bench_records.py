"""The hand-written bench records, ``BENCH_<workload>.json``, against
their own runs and against ``BENCHMARK.json``.

Each entry is copied by hand from perfbench output, so a wrong
workload, seed, median or unit would otherwise go unnoticed.  The
benchmark file is only read.
"""

import json
import pathlib
import statistics

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
KEYS = {
    "answers_sha256", "change", "claim", "command", "commit", "host",
    "inputs_sha256", "median", "order", "pairs", "parent_commit", "runs",
    "seed", "src_lines", "units", "workload",
}
SIDES = {"parent", "change"}

ENTRIES = [
    pytest.param(path.stem.removeprefix("BENCH_"), i, entry, id=f"{path.name}[{i}]")
    for path in sorted(ROOT.glob("BENCH_*.json"))
    for i, entry in enumerate(json.loads(path.read_text()))
]


def test_every_workload_has_records():
    assert {p.values[0] for p in ENTRIES} == {w["name"] for w in BENCHMARK["workloads"]}


@pytest.mark.parametrize("workload, i, entry", ENTRIES)
def test_bench_record(workload, i, entry):
    assert KEYS <= set(entry)
    assert entry["workload"] == workload
    words = entry["command"].split()
    assert words[:2] == BENCHMARK["command"]
    flags = dict(zip(words[2::2], words[3::2]))
    assert flags["--workload"] == workload
    assert flags["--seed"] == str(entry["seed"])
    assert entry["units"] == UNITS
    assert set(entry["runs"]) == set(entry["median"]) == SIDES
    for side in SIDES:
        runs, medians = entry["runs"][side], entry["median"][side]
        assert set(runs) == set(medians) == set(UNITS)
        for name, values in runs.items():
            assert len(values) == entry["pairs"], (side, name)
            # medians are recorded to four decimals, rounded either way at a half
            assert abs(statistics.median(values) - medians[name]) <= 0.5e-4 + 1e-9, (side, name)
