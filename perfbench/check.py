"""Output checks computed apart from the program.

Everything here works from the generated contents and the generator's
truth side table, with Python sets, ``hashlib`` and numpy; nothing is
imported from ``raydedup``.

Margin. The flagship config verifies a candidate pair when its KMV
Jaccard estimate (k = 128) reaches t = 0.85, after LSH banding with
b = 16 bands of r = 8 rows. With M = 0.08:
  * a pair at true J = t + M = 0.93 becomes a candidate with probability
    1 - (1 - 0.93^8)^16 > 0.99999 and its estimate (sd ≈ sqrt(J(1-J)/k)
    = 0.0226) falls under t with probability Φ(-3.5) ≈ 2e-4, so recall
    over pairs at J ≥ t + M must clear 0.99;
  * a pair at true J = t - M = 0.77 is a candidate with probability 0.88
    and clears t with probability Φ(-2.2) ≈ 0.016, and the chance falls
    fast below that, so a merge of unrelated rows is explained only by a
    link at J ≥ t - M, byte equality or a shared verbatim run of at least
    ``min_substring_tokens`` tokens.
"""

from __future__ import annotations

import hashlib
from collections import defaultdict

import numpy as np
import pyarrow as pa

THRESHOLD = 0.85
MARGIN = 0.08
SHINGLE = 5
MIN_SUBSTRING_TOKENS = 200
MIN_RECALL = 0.99


class Corpus:
    """Contents by id, with lazily computed shingle sets and digests."""

    def __init__(self, ids, contents):
        self.text = dict(zip((int(i) for i in ids), contents))
        self._sh: dict[int, set] = {}
        self._runs: dict[int, set] = {}
        self._sha: dict[int, str] = {}

    def sha(self, i: int) -> str:
        if i not in self._sha:
            self._sha[i] = hashlib.sha256(self.text[i].encode()).hexdigest()
        return self._sha[i]

    def shingles(self, i: int) -> set:
        if i not in self._sh:
            t = self.text[i].split()
            self._sh[i] = (
                set(map(hash, zip(*(t[k:] for k in range(SHINGLE)))))
                if len(t) >= SHINGLE else {hash(tuple(t))}
            )
        return self._sh[i]

    def jaccard(self, a: int, b: int) -> float:
        sa, sb = self.shingles(a), self.shingles(b)
        return len(sa & sb) / len(sa | sb) if sa or sb else 1.0

    def runs(self, i: int) -> set:
        """Hashes of every MIN_SUBSTRING_TOKENS-token window."""
        if i not in self._runs:
            t = self.text[i].split()
            n = MIN_SUBSTRING_TOKENS
            self._runs[i] = {hash(tuple(t[k : k + n])) for k in range(len(t) - n + 1)}
        return self._runs[i]

    def explained(self, a: int, b: int) -> bool:
        """An independent reason for a and b to share a cluster."""
        return (
            self.sha(a) == self.sha(b)
            or self.jaccard(a, b) >= THRESHOLD - MARGIN
            or not self.runs(a).isdisjoint(self.runs(b))
        )


class Report:
    def __init__(self) -> None:
        self.failures: list[str] = []
        self.stats: dict[str, float] = {}

    def fail(self, msg: str) -> None:
        self.failures.append(msg)

    @property
    def ok(self) -> bool:
        return not self.failures


def _as_map(assign: pa.Table) -> dict[int, int]:
    return dict(zip(assign.column("id").to_pylist(), assign.column("cluster_id").to_pylist()))


def check_conservation(rep: Report, input_ids, assign: pa.Table, what: str) -> bool:
    out = assign.column("id").to_numpy()
    if len(np.unique(out)) != len(out):
        rep.fail(f"{what}: duplicate ids in output")
        return False
    if not np.array_equal(np.sort(out), np.sort(np.asarray(input_ids, dtype=np.int64))):
        rep.fail(f"{what}: output ids differ from input ids "
                 f"({len(out)} out, {len(input_ids)} in)")
        return False
    return True


def check_min_rule(rep: Report, cl: dict[int, int], what: str) -> None:
    """cluster_id is the minimum id of its cluster (unionfind.py's rule)."""
    lo: dict[int, int] = {}
    for i, c in cl.items():
        if c not in lo or i < lo[c]:
            lo[c] = i
    bad = [c for c, m in lo.items() if m != c]
    if bad:
        rep.fail(f"{what}: {len(bad)} cluster ids are not their cluster's minimum id")


def check_exact(rep: Report, corpus: Corpus, cl: dict[int, int], ids, what: str) -> None:
    groups: dict[str, list[int]] = defaultdict(list)
    for i in ids:
        groups[corpus.sha(i)].append(i)
    split = sum(1 for g in groups.values() if len({cl[i] for i in g}) > 1)
    rep.stats[f"{what}.exact_groups"] = sum(1 for g in groups.values() if len(g) > 1)
    if split:
        rep.fail(f"{what}: {split} byte-identical groups split across clusters")


def check_recall(rep: Report, corpus: Corpus, cl: dict[int, int], pairs, what: str) -> None:
    """Recall over planted pairs whose true Jaccard is at least t + M."""
    must = [(a, b) for a, b in pairs if corpus.jaccard(a, b) >= THRESHOLD + MARGIN]
    hit = sum(1 for a, b in must if cl[a] == cl[b])
    rep.stats[f"{what}.recall_pairs"] = len(must)
    if not must:
        rep.fail(f"{what}: no planted pair clears t + M; the recall check is empty")
        return
    rep.stats[f"{what}.recall"] = hit / len(must)
    if hit / len(must) < MIN_RECALL:
        rep.fail(f"{what}: recall {hit}/{len(must)} = {hit / len(must):.4f} < {MIN_RECALL}")


def check_no_false_merge(rep: Report, corpus: Corpus, cl: dict[int, int],
                         family: dict[int, int], block_pairs, what: str,
                         scope=None) -> None:
    """Every multi-family cluster must be connected through explained
    links between its families. ``scope``: only clusters holding one of
    these ids are examined."""
    members: dict[int, list[int]] = defaultdict(list)
    for i, c in cl.items():
        members[c].append(i)
    hints = defaultdict(list)
    for a, b in block_pairs:
        hints[a].append(b)
        hints[b].append(a)
    bad = 0
    for c, mem in members.items():
        fams = {family[i] for i in mem}
        if len(fams) < 2 or (scope is not None and not any(i in scope for i in mem)):
            continue
        parent = {f: f for f in fams}

        def find(f):
            while parent[f] != f:
                parent[f] = parent[parent[f]]
                f = parent[f]
            return f

        inside = set(mem)
        # truth hints first (cheap), then any cross-family pair
        cands = [(a, b) for a in mem for b in hints.get(a, ()) if b in inside]
        cands += [(a, b) for k, a in enumerate(mem) for b in mem[k + 1 :]]
        groups = len(fams)
        for a, b in cands:
            fa, fb = find(family[a]), find(family[b])
            if fa != fb and corpus.explained(a, b):
                parent[fa] = fb
                groups -= 1
                if groups == 1:
                    break
        if groups > 1:
            bad += 1
    if bad:
        rep.fail(f"{what}: {bad} clusters join planted-unrelated rows with no "
                 "independent link")


def family_pairs(ids, family: dict[int, int], keep=None) -> list[tuple[int, int]]:
    by_fam: dict[int, list[int]] = defaultdict(list)
    for i in ids:
        by_fam[family[i]].append(i)
    out = []
    for mem in by_fam.values():
        for k, a in enumerate(mem):
            for b in mem[k + 1 :]:
                if keep is None or a in keep or b in keep:
                    out.append((a, b))
    return out


def check_flagship(corpus: Corpus, truth: dict, assign: pa.Table,
                   what: str = "flagship", rep: Report | None = None) -> Report:
    rep = rep or Report()
    ids = truth["ids"]
    if not check_conservation(rep, ids, assign, what):
        return rep
    cl = _as_map(assign)
    family = dict(zip(ids, truth["family"]))
    check_min_rule(rep, cl, what)
    check_exact(rep, corpus, cl, ids, what)
    check_recall(rep, corpus, cl, family_pairs(ids, family), what)
    check_no_false_merge(rep, corpus, cl, family, truth["block_pairs"], what)
    if truth["block_pairs"]:
        found = sum(1 for a, b in truth["block_pairs"] if cl[a] == cl[b])
        rep.stats[f"{what}.block_pairs_joined"] = found / len(truth["block_pairs"])
    return rep


def check_delta(corpus: Corpus, base_truth: dict, base_assign: pa.Table,
                delta_truth: dict, assign: pa.Table, merges: pa.Table,
                what: str, rep: Report | None = None) -> Report:
    """Checks on one delta job: the base assignment with the job's merges
    applied, plus the delta rows, must pass the flagship checks on every
    pair and cluster that involves a delta row."""
    rep = rep or Report()
    d_ids = delta_truth["ids"]
    if not check_conservation(rep, d_ids, assign, what):
        return rep
    base = _as_map(base_assign)
    moved = dict(zip(merges.column("old_cluster").to_pylist(),
                     merges.column("new_cluster").to_pylist()))
    roots = {c for i, c in base.items() if i == c}
    for old, new in moved.items():
        if old not in roots or new not in roots or new >= old:
            rep.fail(f"{what}: merges row {old} -> {new} does not name two base "
                     "cluster roots (new < old)")
            return rep
    rep.stats[f"{what}.merges"] = len(moved)
    cl = {i: moved.get(c, c) for i, c in base.items()}
    cl.update(_as_map(assign))
    ids = base_truth["ids"] + d_ids
    family = dict(zip(base_truth["ids"], base_truth["family"]))
    family.update(zip(d_ids, delta_truth["family"]))
    check_min_rule(rep, cl, what)
    check_exact(rep, corpus, cl, ids, what)
    delta = set(d_ids)
    check_recall(rep, corpus, cl, family_pairs(ids, family, keep=delta), what)
    check_no_false_merge(rep, corpus, cl, family, delta_truth["block_pairs"], what,
                         scope=delta)
    found = sum(1 for a, b in delta_truth["block_pairs"] if cl[a] == cl[b])
    if delta_truth["block_pairs"]:
        rep.stats[f"{what}.block_pairs_joined"] = found / len(delta_truth["block_pairs"])
    return rep
