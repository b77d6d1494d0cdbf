"""Shows that the output checks can fail.

Builds the assignment the truth table implies (planted families, embedded
block pairs and byte-identical groups joined; cluster_id = minimum id),
confirms that check.py accepts it, then corrupts it four ways and
confirms that each corruption is rejected by the check meant to catch it:

  * an exact group split        → "byte-identical groups split"
  * two unrelated families merged → "join planted-unrelated rows"
  * a non-minimum cluster_id    → "not their cluster's minimum id"
  * a dropped row               → "output ids differ from input ids"

No Ray session is started.

    python3 perfbench/selfcheck.py --seed 1
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import pyarrow as pa
import pyarrow.parquet as pq

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import check  # noqa: E402
import gen  # noqa: E402


def truth_assignment(corpus: check.Corpus, truth: dict) -> dict[int, int]:
    ids = truth["ids"]
    parent = {i: i for i in ids}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    first: dict = {}
    for i, f in zip(ids, truth["family"]):
        union(i, first.setdefault(("fam", f), i))
        union(i, first.setdefault(("sha", corpus.sha(i)), i))
    for a, b in truth["block_pairs"]:
        union(a, b)
    return {i: find(i) for i in ids}


def table(cl: dict[int, int]) -> pa.Table:
    ids = sorted(cl)
    return pa.table({"id": pa.array(ids, pa.int64()),
                     "cluster_id": pa.array([cl[i] for i in ids], pa.int64())})


def corruptions(corpus: check.Corpus, truth: dict, cl: dict[int, int]):
    members: dict[int, list[int]] = {}
    for i, c in cl.items():
        members.setdefault(c, []).append(i)

    groups: dict[str, list[int]] = {}
    for i in truth["ids"]:
        groups.setdefault(corpus.sha(i), []).append(i)
    grp = next(sorted(g) for g in groups.values() if len(g) > 1)
    split = dict(cl)
    split[grp[-1]] = grp[-1]  # a non-minimum member leaves its cluster
    yield "exact group split", split, "byte-identical groups split"

    singles = sorted(c for c, m in members.items() if len(m) == 1)
    a, b = singles[0], singles[-1]
    merged = dict(cl)
    merged[b] = a
    yield "unrelated families merged", merged, "join planted-unrelated rows"

    big = next(m for m in members.values() if len(m) > 1)
    nonmin = dict(cl)
    for i in big:
        nonmin[i] = max(big)
    yield "non-minimum cluster_id", nonmin, "not their cluster's minimum id"

    dropped = dict(cl)
    dropped.pop(max(dropped))
    yield "dropped row", dropped, "output ids differ from input ids"


def main() -> int:
    ap = argparse.ArgumentParser(description="check that the checks can fail")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    ok = True
    for workload in ("near_dense", "boilerplate_substring"):
        d = gen.ensure(workload, args.seed)
        with open(os.path.join(d, "truth.json")) as f:
            truth = json.load(f)
        t = pq.read_table(os.path.join(d, "corpus.parquet"), columns=["id", "content"])
        corpus = check.Corpus(t.column("id").to_pylist(), t.column("content").to_pylist())
        cl = truth_assignment(corpus, truth)
        rep = check.check_flagship(corpus, truth, table(cl))
        print(f"{workload}: truth assignment accepted={rep.ok} {rep.failures}")
        ok &= rep.ok
        for name, bad, expect in corruptions(corpus, truth, cl):
            rep = check.check_flagship(corpus, truth, table(bad))
            caught = any(expect in m for m in rep.failures)
            print(f"{workload}: {name}: rejected={not rep.ok} by expected check={caught}")
            ok &= caught
    print("selfcheck", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
