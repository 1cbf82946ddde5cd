"""The bench record: every ``BENCH_*.json`` at the root of the repository holds
the same end-to-end entries, and each claimed gain follows from the record's
own numbers.

Each record compares a change with its parent over alternating pairs of
benchmark runs.  For every workload and end-to-end metric it holds the
median, q1 and q3 of each side, and ``change_wins``, the pairs in which the
change read lower.  A claim holds when the change wins at least 9 of at least
10 pairs and its median is below the parent's by more than the parent's
interquartile range.  No record may show a regression: every end-to-end
change median lies within ``BENCHMARK.json``'s bound of its parent median,
and a stated ``within_bound`` says the same.

Run as a script, it prints the trajectory: per record and workload, the
``wall_s`` and ``request_p50_ms`` medians of both sides and the change's wins.

    python tests/test_bench_record.py
"""
import copy
import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("sweep", "teleport", "algebra")
METRICS = ("setup_s", "wall_s", "request_p50_ms", "request_p90_ms", "peak_rss_mb")
# From this record on, a claim states its status as exactly "met" or "not met".
STATUS_FROM = 31


def _records() -> dict[int, dict]:
    """Every record, by number."""
    paths = {int(re.fullmatch(r"BENCH_(\d+)\.json", p.name)[1]): p for p in ROOT.glob("BENCH_*.json")}
    return {n: json.loads(paths[n].read_text()) for n in sorted(paths)}


RECORDS = _records()
BOUNDS = {m["name"]: m for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}


def _entry(record: dict, workload: str, metric: str) -> dict:
    return record["perfbench"]["workloads"][workload]["metrics"][metric]


def _wins(entry: dict) -> tuple[int, int]:
    won, pairs = entry["change_wins"].split("/")
    return int(won), int(pairs)


def _claim(record: dict) -> tuple[str, str, str | None] | None:
    """(workload, metric, stated status) of the record's claim, or None.

    The earliest records name a claim as one "workload metric" string, and
    ``BENCH_24.json`` states it as ``met``: true; a status that is not stated
    is None."""
    claim = record["perfbench"]["claimed"]
    if claim is None:
        return None
    if isinstance(claim, str):
        workload, metric = claim.split()
        return workload, metric, None
    status = claim.get("status")
    if status is None and "met" in claim:
        status = "met" if claim["met"] else "not met"
    return claim["workload"], claim["metric"], status


def claim_holds(entry: dict) -> bool:
    """The change wins >= 9 of >= 10 pairs, and its median is lower than the
    parent's by more than the parent's interquartile range."""
    won, pairs = _wins(entry)
    parent = entry["parent"]
    gap = parent["median"] - entry["change"]["median"]
    return pairs >= 10 and won >= 9 and gap > parent["q3"] - parent["q1"]


@pytest.mark.parametrize("number", list(RECORDS))
def test_record_has_every_end_to_end_entry(number):
    for workload in WORKLOADS:
        for metric in METRICS:
            entry = _entry(RECORDS[number], workload, metric)
            for side in ("parent", "change"):
                q = entry[side]
                assert all(isinstance(q[k], (int, float)) for k in ("median", "q1", "q3"))
                assert q["q1"] <= q["median"] <= q["q3"], (workload, metric, side)
            won, pairs = _wins(entry)
            assert 0 <= won <= pairs and pairs >= 10, (workload, metric)


def within_bound(entry: dict, metric: str) -> bool:
    """The change's median is no worse than the parent's by more than the
    metric's bound, a fraction of the parent's median."""
    spec = BOUNDS[metric]
    parent, change = entry["parent"]["median"], entry["change"]["median"]
    if spec["better"] == "lower":
        return change <= parent * (1.0 + spec["bound"])
    return change >= parent * (1.0 - spec["bound"])


def test_bounds_cover_the_end_to_end_metrics():
    assert set(BOUNDS) == set(METRICS)


@pytest.mark.parametrize("number", list(RECORDS))
def test_record_is_within_every_bound(number):
    for workload in WORKLOADS:
        for metric in METRICS:
            entry = _entry(RECORDS[number], workload, metric)
            verdict = within_bound(entry, metric)
            assert verdict, (workload, metric)
            assert entry.get("within_bound", verdict) == verdict, (workload, metric)


def test_a_regression_beyond_the_bound_fails():
    entry = copy.deepcopy(_entry(RECORDS[32], "sweep", "wall_s"))
    assert within_bound(entry, "wall_s")
    bound = BOUNDS["wall_s"]["bound"]
    entry["change"]["median"] = entry["parent"]["median"] * (1.0 + bound) * 1.01
    assert not within_bound(entry, "wall_s")


CLAIMED = [n for n, record in RECORDS.items()
           if _claim(record) and not (_claim(record)[2] or "").startswith("not met")]


@pytest.mark.parametrize("number", CLAIMED)
def test_claim_follows_from_the_record(number):
    workload, metric, _ = _claim(RECORDS[number])
    assert claim_holds(_entry(RECORDS[number], workload, metric))


def test_the_met_claims_are_checked():
    assert {24, 28, 29} <= set(CLAIMED)


def test_a_claim_its_numbers_do_not_support_fails():
    entry = _entry(RECORDS[29], "teleport", "request_p90_ms")
    assert claim_holds(entry)
    fewer_wins = copy.deepcopy(entry)
    fewer_wins["change_wins"] = "8/10"
    assert not claim_holds(fewer_wins)
    fewer_pairs = copy.deepcopy(entry)
    fewer_pairs["change_wins"] = "9/9"
    assert not claim_holds(fewer_pairs)
    narrow_gap = copy.deepcopy(entry)
    narrow_gap["parent"]["q3"] = narrow_gap["parent"]["q1"] + entry["parent"]["median"] \
        - entry["change"]["median"]
    assert not claim_holds(narrow_gap)


@pytest.mark.parametrize("number", [n for n in RECORDS if n >= STATUS_FROM])
def test_new_records_state_a_claim_status(number):
    claim = RECORDS[number]["perfbench"]["claimed"]
    assert claim is None or claim["status"] in ("met", "not met")


def trajectory() -> str:
    """Per record and workload: the wall_s and request_p50_ms medians,
    parent -> change, and the change's wins."""
    lines = [f"{'record':>6}  {'workload':9}  {'wall_s':>24}  {'request_p50_ms':>24}"]
    for number, record in RECORDS.items():
        for workload in WORKLOADS:
            cells = []
            for metric in ("wall_s", "request_p50_ms"):
                entry = _entry(record, workload, metric)
                cells.append(f"{entry['parent']['median']:.4g} -> {entry['change']['median']:.4g}"
                             f" {entry['change_wins']:>5}")
            lines.append(f"{number:>6}  {workload:9}  {cells[0]:>24}  {cells[1]:>24}")
    return "\n".join(lines)


if __name__ == "__main__":
    print(trajectory())
